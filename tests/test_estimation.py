import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from hmpx import (
    EpsilonOutOfRange,
    UnreachableSequence,
    conditional_bounds,
    conditional_entropy,
    emission_at,
    make_model,
    mc_entropy_rate,
    multi_site_F,
    random_model,
    sample_paths,
    sequence_probability,
)
from hmpx import estimation
from hmpx.estimation import (GENERATOR_NAME, _SEGMENT, _WALK_STEPS, bounds_by_n,
                              _row_log_likelihoods, _row_words, _sample_arrays,
                              _scan_shape, _walk, _walk_shape, _word_length,
                              _word_table, path_log_likelihood)
from conftest import binary_symmetric
from oracles import (log_increments, markov_entropy_rate, row_increments,
                     sample_arrays, walk)


class TestSamplePaths:
    def test_zero_noise_copies_hidden_path(self, bs):
        run = sample_paths(bs, 0.0, 2000, seed=42)
        np.testing.assert_array_equal(run.hidden, run.observed)

    def test_seeded_determinism(self, bs):
        a = sample_paths(bs, 0.07, 5000, seed=42)
        b = sample_paths(bs, 0.07, 5000, seed=42)
        np.testing.assert_array_equal(a.hidden, b.hidden)
        np.testing.assert_array_equal(a.observed, b.observed)
        assert a.loglik == b.loglik

    def test_different_seeds_differ(self, bs):
        a = sample_paths(bs, 0.07, 5000, seed=1)
        b = sample_paths(bs, 0.07, 5000, seed=2)
        assert not np.array_equal(a.observed, b.observed)

    def test_empirical_marginal_uniform(self, bs):
        length = 100_000
        run = sample_paths(bs, 0.05, length, seed=9)
        freq = float(np.mean(run.observed == 0))
        # stationary marginal is 1/2 by symmetry; allow 3 sigma times a
        # correlation factor of 3
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / length) * 3

    def test_range_checks(self, bs):
        with pytest.raises(EpsilonOutOfRange):
            sample_paths(bs, 1.5, 100, seed=0)
        with pytest.raises(ValueError):
            sample_paths(bs, 0.1, 0, seed=0)

    def test_length_and_seed_must_be_whole_numbers(self, bs):
        for length, seed in ((10, 1.5), (10.5, 1), (10, math.nan), ("10", 1)):
            with pytest.raises(ValueError, match="must be a whole number"):
                sample_paths(bs, 0.3, length, seed)
        run = sample_paths(bs, 0.3, 10.0, 1.0)
        assert (run.length, run.seed) == (10, 1)
        assert type(run.length) is type(run.seed) is int
        np.testing.assert_array_equal(run.observed, sample_paths(bs, 0.3, 10, 1).observed)


class TestStreamPin:
    def test_paths_and_estimate_are_pinned(self, bs):
        # (model, eps, L, seed) fixes the run; the path hash was taken from
        # the one-state-at-a-time sampler, and the estimate is the scalar
        # forward loop's increments of its 30 replicas of 666 symbols,
        # each replica a path of its own, summed exactly (fsum), over 19 980
        run = sample_paths(bs, 0.05, 10_000, seed=1)
        assert hashlib.sha256(run.observed.tobytes()).hexdigest() == (
            "f6f64efc2b044ad33551115413c3bdaf3821ca2b069ed4875c6008a4f1c8d9e3")
        est = mc_entropy_rate(bs, 0.05, 20_000, seed=1)
        observed = sample_arrays(bs, 0.05, 19_980, seed=1, width=666)[1]
        increments = [log_increments(bs, 0.05, observed[i:i + 666])
                      for i in range(0, 19_980, 666)]
        assert est.estimate == -math.fsum(np.concatenate(increments)) / 19_980
        assert est.estimate.hex() == "0x1.46948ea876753p-1"
        assert GENERATOR_NAME == ("numpy default_rng (PCG64), inverse-CDF sampling, "
                                  "stationary-start replicas")


def _assert_rows_match(model, eps, symbols, reference, k):
    """Each row's log-likelihood against the exact (fsum) sum of the scalar
    loop's increments over the same symbols as a path of its own, at every
    width of the grid up to the length, over the path's whole rows of that
    width; ``reference`` holds the whole path's increments."""
    length = len(symbols)
    for width in {length, 1, k, k + 1, length // 30, length // 40} - {0}:
        if width > length:
            continue
        whole = symbols[:length - length % width]
        rows = _row_log_likelihoods(model, eps, whole, width)
        increments = ([reference] if width == length
                      else row_increments(model, eps, whole, width))
        expected = [math.fsum(row) for row in increments]
        np.testing.assert_allclose(rows, expected, rtol=1e-14, atol=0.0,
                                   err_msg=f"width {width}")


def _replica_means(increments):
    """The estimate and its standard error from the increments of each
    replica: the i.i.d. standard error of the replica means."""
    size = sum(len(row) for row in increments)
    means = np.array([-row.mean() for row in increments])
    return -np.concatenate(increments).sum() / size, means.std(ddof=1) / math.sqrt(len(means))


class TestChunkedScan:
    """The chunked sampler and likelihood against the scalar loops."""

    @pytest.mark.parametrize("name", ["bs", "t3"])
    @pytest.mark.parametrize("which", ["zero", "mid", "max"])
    @pytest.mark.parametrize("length", [1, 2, 3, 17, 10_001, 10_007, 100_000])
    def test_matches_scalar_oracle(self, request, name, which, length):
        model = request.getfixturevalue(name)
        eps = {"zero": 0.0, "mid": 0.05, "max": model.noise.epsilon_max}[which]
        hidden, observed = sample_arrays(model, eps, length, seed=11)
        run = sample_paths(model, eps, length, seed=11)
        assert np.array_equal(run.hidden, hidden)
        assert np.array_equal(run.observed, observed)
        assert run.hidden.dtype == run.observed.dtype == np.int64
        reference = log_increments(model, eps, observed)
        k = _scan_shape(model.size, length)[0]
        _assert_rows_match(model, eps, run.observed, reference, k)
        if length >= 10_000:
            est = mc_entropy_rate(model, eps, length, seed=11)
            width = length // 30
            replicas = sample_arrays(model, eps, 30 * width, seed=11, width=width)[1]
            estimate, se = _replica_means(row_increments(model, eps, replicas, width))
            assert est.estimate == pytest.approx(estimate, rel=1e-12)
            assert est.standard_error == pytest.approx(se, rel=1e-12)

    def test_chunk_shape(self):
        # a row of n symbols: its n - 1 steps as C = ceil(sqrt(n - 1)) runs
        # of B steps, a chunk B steps rounded up to whole words of k <= B
        # symbols, and the row's n symbols in whole chunks, the last padded
        # by less than a chunk
        assert _scan_shape(2, 1) == (1, 1, 1)
        for s in (2, 3, 9):
            for width in (1, 2, 3, 4, 17, 10_001, 10_007, 100_000):
                k, size, chunks = _scan_shape(s, width)
                steps = width - 1
                count = math.ceil(math.sqrt(steps))
                span = -(-steps // count) if steps else 1  # B
                assert count * span >= steps > (count - 1) * span
                assert k == _word_length(s, span) <= min(width, span)
                assert (size - 1) * k < span <= size * k
                assert (chunks - 1) * size * k < width <= chunks * size * k


class TestWalk:
    """The hidden walk scans chunks of at most ``_WALK_STEPS`` steps in
    lockstep; its path must be the one-state-at-a-time walk's."""

    @pytest.mark.parametrize("s", [2, 3, 9])
    @pytest.mark.parametrize("kind", ["random", "cyclic"])
    def test_matches_scalar_walk_from_every_state(self, s, kind):
        m = random_model(np.random.default_rng(s), s).transition.matrix
        if kind == "cyclic":
            # mostly x -> x+1: the chunk maps of a fast-mixing chain send
            # every start to one state, these rarely do, so each chunk's
            # true start matters
            m = 0.98 * np.roll(np.eye(s), 1, axis=1) + 0.02 * m
        cum_m = np.cumsum(m, axis=1)
        rows = cum_m.tolist()
        none = (slice(0), np.zeros(0, dtype=np.intp))  # an empty restart set
        edge = 256 // s * _WALK_STEPS  # the most steps whose cells fit in uint8
        assert [np.min_scalar_type(_walk_shape(steps)[0] * s - 1)
                for steps in (edge, edge + 1)] == [np.uint8, np.uint16]
        for steps in (1, 63, 64, 65, 127, 129, 4097, edge, edge + 1, _SEGMENT - 1):
            u = np.random.default_rng(steps).random(steps)
            out = np.empty(steps, dtype=np.uint8)
            for x in range(s):
                _walk(cum_m, u, x, out, none)
                np.testing.assert_array_equal(out, walk(rows, u.tolist(), x),
                                              err_msg=f"{steps} steps from {x}")

    @pytest.mark.parametrize("s", [2, 3, 9])
    @pytest.mark.parametrize("kind", ["random", "cyclic"])
    def test_restarts_match_scalar_walk_from_every_state(self, s, kind):
        # a restart sends every state to its stationary pick: on every
        # step, inside chunks, on a chunk's last step and on the last step
        model = random_model(np.random.default_rng(s), s)
        m = model.transition.matrix
        if kind == "cyclic":
            m = 0.98 * np.roll(np.eye(s), 1, axis=1) + 0.02 * m
        cum_m = np.cumsum(m, axis=1)
        cum_pi = np.cumsum(model.transition.stationary)
        rows, law = cum_m.tolist(), cum_pi.tolist()
        for steps, first, width in ((1, 0, 1), (200, 199, 50), (4097, 0, 1),
                                    (4097, 5, 333), (4097, 63, 64),
                                    (_SEGMENT, 100, 1000)):
            u = np.random.default_rng(steps + width).random(steps)
            at = slice(first, None, width)
            to = cum_pi[:-1].searchsorted(u[at], side="right")
            out = np.empty(steps, dtype=np.uint8)
            for x in range(s):
                _walk(cum_m, u, x, out, (at, to))
                np.testing.assert_array_equal(
                    out, walk(rows, u.tolist(), x, range(first, steps, width), law),
                    err_msg=f"{steps} steps from {x}, restarts {first}::{width}")

    def test_walk_shape(self):
        assert _walk_shape(_SEGMENT - 1) == (1024, 64)
        for steps in (1, 2, 63, 64, 65, 127, 129, 4097, _SEGMENT - 1, _SEGMENT):
            count, size = _walk_shape(steps)
            assert count == math.ceil(steps / _WALK_STEPS)
            assert size <= _WALK_STEPS
            assert count * size >= steps > (count - 1) * size


class TestSegments:
    """The sampler draws and uses its uniforms one segment at a time; the
    paths must not show where a segment ends."""

    @staticmethod
    def _check(model, eps, length):
        hidden, observed = sample_arrays(model, eps, length, seed=11)
        run = sample_paths(model, eps, length, seed=11)
        np.testing.assert_array_equal(run.hidden, hidden)
        np.testing.assert_array_equal(run.observed, observed)
        if length > _SEGMENT:
            # the first segment's walk has a padded last chunk, whose tail
            # maps every state to 0; a walk that carried that state into
            # the second segment, not the last real one, would step elsewhere
            count, size = _walk_shape(_SEGMENT - 1)
            assert count * size > _SEGMENT - 1
            u = np.random.default_rng(11).random(_SEGMENT + 1)[_SEGMENT]
            edges = np.cumsum(model.transition.matrix, axis=1)[:, :-1]
            step = [np.count_nonzero(row <= u) for row in edges]
            assert step[0] != step[hidden[_SEGMENT - 1]] == hidden[_SEGMENT]

    @pytest.mark.parametrize("length", [1, 7, _SEGMENT, 3 * _SEGMENT + 7])
    def test_advanced_generator_draws_the_second_half(self, length):
        # the emission uniforms come from a second generator on the seed,
        # advanced by L draws: PCG64 spends one 64-bit draw per double, so
        # it yields draws L..2L-1 of the first, in any segments
        for seed in (0, 11):
            ahead = np.random.default_rng(seed)
            ahead.bit_generator.advance(length)
            halves = [ahead.random(min(_SEGMENT, length - lo))
                      for lo in range(0, length, _SEGMENT)]
            np.testing.assert_array_equal(
                np.concatenate(halves), np.random.default_rng(seed).random(2 * length)[length:])

    @pytest.mark.parametrize("name", ["bs", "t3"])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("length", [_SEGMENT - 1, _SEGMENT, _SEGMENT + 1,
                                        _SEGMENT + 2, 2 * _SEGMENT + 1])
    def test_matches_scalar_oracle_across_segment_ends(self, request, name, eps,
                                                       length):
        self._check(request.getfixturevalue(name), eps, length)

    def test_nine_symbols_across_a_segment_end(self):
        model = random_model(np.random.default_rng(11), 9)
        self._check(model, 0.5 * model.epsilon_max, _SEGMENT + 2)

    @pytest.mark.parametrize("s", [2, 3, 9])
    @pytest.mark.parametrize("width, replicas", [(1, 300), (333, 30), (_SEGMENT // 2, 4),
                                                 (_SEGMENT - 1, 3), (70_000, 2)])
    def test_replicas_match_scalar_oracle(self, s, width, replicas):
        # replicas start inside a segment, on a segment's first step, on
        # its last step, and cross segment ends
        model = random_model(np.random.default_rng(s), s)
        eps = 0.5 * model.epsilon_max
        hidden, observed = sample_arrays(model, eps, width * replicas, 11, width)
        walked = np.empty(width * replicas, dtype=np.uint8)
        emitted = _sample_arrays(model, eps, width * replicas, 11, width, walked)
        np.testing.assert_array_equal(walked, hidden)
        np.testing.assert_array_equal(emitted, observed)
        # without a hidden array only one segment of it is held
        np.testing.assert_array_equal(
            _sample_arrays(model, eps, width * replicas, 11, width), observed)

    def test_peak_memory_of_the_estimate(self, bs):
        # the two uniform draws are held one segment at a time, and the
        # hidden path one segment at a time too: only the observed path, 1
        # byte per symbol, outlives its segment.  With whole draws the
        # estimate peaked at 31.5 MiB of numpy allocations at L = 1e6; with
        # segments and a whole hidden path at 4.13 MiB, and 9.85 MiB at
        # L = 4e6; with one hidden segment at 3.24 and 6.39 MiB (first
        # call in a process; about 0.7 MiB less when repeated)
        for length, bound in ((10**6, 4), (4 * 10**6, 7)):
            tracemalloc.start()
            try:
                mc_entropy_rate(bs, 0.05, length, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 2**20, f"L = {length}"


def test_peak_memory_of_the_likelihood(bs):
    # rows are summed from the chunk norms of the stitch, with no buffer
    # of one log per word, and ``_row_words`` codes the words straight
    # from strided views of the rows: at L = 4e6 in rows of L // 30 the
    # likelihood peaked at 5.30 MiB with that buffer, at 3.70 MiB with a
    # padded copy of the symbols, and at 1.86 MiB coding in place.  What
    # is left is mostly the codes, 2 bytes per 7-symbol word, held
    # row-major and then chunk-major
    length = 4 * 10**6
    width = length // 30
    observed = np.random.default_rng(0).integers(0, 2, length).astype(np.uint8)
    observed = observed[:length - length % width]  # whole rows
    tracemalloc.start()
    try:
        _row_log_likelihoods(bs, 0.05, observed, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_path_log_likelihood_scores_the_callers_array(bs):
    # the path is passed on in its own dtype, not copied to int64 (8
    # bytes per symbol): a uint8 path of 4e6 symbols peaked at 35.5 MiB
    # with that copy, at 2.27 MiB without it
    path = np.random.default_rng(0).integers(0, 2, 4 * 10**6)
    small = path.astype(np.uint8)
    tracemalloc.start()
    try:
        value = path_log_likelihood(bs, 0.05, small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert value == path_log_likelihood(bs, 0.05, path)


def test_peak_memory_of_one_symbol_replicas(bs):
    # batches = L: every replica is one symbol.  Rows are scanned in groups
    # of at most _GROUP_CELLS chunk-matrix entries, and the replica means
    # overwrite the rows: at L = 2e5 the estimate peaked at 5.49 MiB of
    # numpy allocations with one word per row held for the whole path, at
    # 3.96 MiB in groups
    length = 2 * 10**5
    tracemalloc.start()
    try:
        mc_entropy_rate(bs, 0.05, length, seed=1, batches=length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


class TestWordBlockedScan:
    """Both passes multiply by tabulated k-symbol words; the row sums must
    still agree with the sequential forward pass."""

    @staticmethod
    def _steps(model, eps):
        s = model.size
        r = emission_at(model.noise, eps)
        a = np.empty((s, s, s + 1))
        a[:, :, :s] = model.transition.matrix[:, :, None] * r[None, :, :]
        a[:, :, s] = np.eye(s)
        return a

    def test_word_length(self):
        assert [_word_length(s, 1000) for s in (2, 3, 4, 7, 9, 63, 64)] == [
            7, 6, 5, 4, 3, 2, 1]
        assert [_word_length(2, size) for size in (1, 2, 6, 7, 8)] == [
            1, 2, 6, 7, 7]

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_table_is_the_left_to_right_product(self, s):
        model = random_model(np.random.default_rng(s), s)
        a = self._steps(model, 0.5 * model.epsilon_max)
        k = _word_length(s, 1000)
        table, lt = _word_table(a, k)
        assert table.shape == (s, s, (s + 1) ** k)
        assert lt.shape == ((s + 1) ** k,)
        for w in range((s + 1) ** k):
            digits = np.unravel_index(w, (s + 1,) * k)
            product = np.eye(s)
            for y in digits:  # the padding digit s is the identity
                product = product @ (np.eye(s) if y == s else a[:, :, y])
            np.testing.assert_allclose(table[:, :, w], product / product.sum(),
                                       rtol=1e-14, atol=0.0)
            # the per-factor norms multiply to the product's sum
            assert lt[w] == pytest.approx(math.log(product.sum()), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("which", ["zero", "mid", "max"])
    def test_matches_scalar_oracle(self, s, which):
        model = random_model(np.random.default_rng(100 + s), s)
        eps = {"zero": 0.0, "mid": 0.3 * model.epsilon_max,
               "max": model.epsilon_max}[which]
        rng = np.random.default_rng(s)
        k = _word_length(s, 1000)
        for length in (1, 2, k + 1, 10_007, 100_000):
            symbols = rng.integers(0, s, length)
            _assert_rows_match(model, eps, symbols,
                               log_increments(model, eps, symbols), k)

    @pytest.mark.parametrize("name", ["bs", "t3", "r9"])
    @pytest.mark.parametrize("group", [None, 20])
    def test_each_row_is_a_path_of_its_own(self, request, monkeypatch, name, group):
        # every row scores as path_log_likelihood scores it alone: bit for
        # bit on two symbols; on more, the lockstep sums over s states may
        # add in another order than one path's.  A small group limit
        # splits the rows into many groups
        if group is not None:
            monkeypatch.setattr(estimation, "_GROUP_CELLS", group)
        model = (random_model(np.random.default_rng(9), 9) if name == "r9"
                 else request.getfixturevalue(name))
        eps = 0.3 * model.epsilon_max
        path = np.random.default_rng(model.size).integers(0, model.size, 3001)
        for width in (1, 2, 7, 8, 100, 1000, 3001):
            symbols = path[:len(path) - len(path) % width]  # whole rows
            rows = _row_log_likelihoods(model, eps, symbols, width)
            alone = [path_log_likelihood(model, eps, symbols[i:i + width])
                     for i in range(0, len(symbols), width)]
            if model.size == 2:
                assert rows.tolist() == alone, f"width {width}"
            else:
                np.testing.assert_allclose(rows, alone, rtol=1e-14, atol=0.0,
                                           err_msg=f"width {width}")

    def test_identity_words_score_exactly_zero(self):
        # a one-symbol path is the start law and then one word of identity
        # steps, which must add nothing, not a rounding of log(1/s) + log(s)
        for s in (2, 3, 5, 7):
            model = random_model(np.random.default_rng(s), s)
            eps = 0.3 * model.epsilon_max
            first = model.transition.stationary[:, None] * emission_at(model.noise, eps)
            for y in range(s):
                assert path_log_likelihood(model, eps, [y]) == math.log(first[:, y].sum())

    @pytest.mark.parametrize("s", [2, 3, 9])
    def test_no_word_straddles_a_row_end(self, s):
        # each row is a path of its own: decoding its words gives back its
        # symbols, then only identity padding up to whole chunks, and its
        # symbol 0 is the identity step
        rng = np.random.default_rng(s)
        for length in (1, 2, 9, 100, 1001):
            symbols = rng.integers(0, s, length)
            for width in (length, 1, 2, 3, 7, 8, length // 30 + 1):
                if width > length:
                    continue
                part = symbols[:length - length % width]  # whole rows
                k, size, chunks = _scan_shape(s, width)
                codes = _row_words(part, s, width, k, chunks * size)
                rows = len(part) // width
                assert codes.shape == (rows, chunks * size)
                digits = np.stack(np.unravel_index(codes, (s + 1,) * k), axis=-1)
                decoded = digits.reshape(rows, chunks * size * k)
                for i in range(rows):
                    row = part[i * width:(i + 1) * width].copy()
                    row[0] = s
                    np.testing.assert_array_equal(decoded[i, :width], row)
                    assert np.all(decoded[i, width:] == s)

    @pytest.mark.parametrize("s", [2, 3, 9])
    def test_words_of_any_integer_dtype(self, s):
        # the words are coded from views of the caller's rows, so every
        # integer dtype, a byte-swapped one and a strided view give the
        # codes of the int64 path
        rng = np.random.default_rng(s)
        for length in (1, 9, 1001):
            symbols = rng.integers(0, s, length)
            for width in (length, 1, 7, length // 30 + 1):
                part = symbols[:length - length % width]
                k, size, chunks = _scan_shape(s, width)
                codes = _row_words(part, s, width, k, chunks * size)
                views = [part.astype(dtype) for dtype in (
                    np.uint8, np.int8, np.uint16, np.int32, np.uint64, ">i4")]
                views.append(np.repeat(part, 3)[::3])
                if s == 2:
                    views.append(part.astype(bool))
                for view in views:
                    np.testing.assert_array_equal(
                        _row_words(view, s, width, k, chunks * size), codes,
                        err_msg=f"{view.dtype}, width {width}")


class TestUnreachable:
    """Symbol 0 has emission probability 0 from every state at eps = 1."""

    LENGTH = 10_007

    @pytest.fixture
    def blind(self):
        return make_model([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                          [[-1, 1, 0], [0, -0.5, 0.5], [0, 0.5, -0.5]])

    def _path(self):
        return np.random.default_rng(5).integers(1, 3, self.LENGTH)

    def test_path_without_the_symbol_is_reachable(self, blind):
        symbols = self._path()
        assert path_log_likelihood(blind, 1.0, symbols) == pytest.approx(
            log_increments(blind, 1.0, symbols).sum(), rel=1e-14)

    @pytest.mark.parametrize("where", ["first", "second", "chunk end",
                                       "chunk start", "word end", "word start",
                                       "last chunk", "last"])
    def test_zero_probability_symbol_raises(self, blind, where):
        # one row: symbol i is in word i // k, and chunk c holds words
        # [c*size, (c+1)*size), so span = size*k symbols; "word end" and
        # "word start" are the last symbol of the second chunk's first word
        # and the first of its second, "last chunk" is inside the last
        # chunk, which identity words pad
        k, size, count = _scan_shape(blind.size, self.LENGTH)
        span = size * k
        position = {"first": 0, "second": 1, "chunk end": span - 1,
                    "chunk start": span, "word end": span + k - 1,
                    "word start": span + k,
                    "last chunk": (count - 1) * span + 3,
                    "last": self.LENGTH - 1}[where]
        assert (count - 1) * span + 3 < self.LENGTH < count * span
        symbols = self._path()
        symbols[position] = 0
        with pytest.raises(UnreachableSequence):
            log_increments(blind, 1.0, symbols)
        with pytest.raises(UnreachableSequence):
            path_log_likelihood(blind, 1.0, symbols)

    @pytest.mark.parametrize("where", ["row end", "row start"])
    def test_zero_probability_at_a_row_boundary_raises(self, blind, where):
        width = self.LENGTH // 30
        position = {"row end": width - 1, "row start": width}[where]
        symbols = self._path()[:self.LENGTH - self.LENGTH % width]  # whole rows
        assert math.isfinite(_row_log_likelihoods(blind, 1.0, symbols, width).sum())
        symbols[position] = 0
        with pytest.raises(UnreachableSequence):
            log_increments(blind, 1.0, symbols)
        with pytest.raises(UnreachableSequence):
            _row_log_likelihoods(blind, 1.0, symbols, width)

    def test_sampled_paths_avoid_the_symbol(self, blind):
        run = sample_paths(blind, 1.0, self.LENGTH, seed=3)
        assert not np.any(run.observed == 0)
        assert math.isfinite(run.loglik)


class TestLogSpaceForward:
    def test_matches_linear_forward(self, bs):
        rng = np.random.default_rng(3)
        for n in (1, 4, 8, 12):
            y = rng.integers(0, 2, n)
            for eps in (0.0, 0.05, 0.3):
                p = sequence_probability(bs, y, eps)
                ll = path_log_likelihood(bs, eps, y)
                assert math.exp(ll) == pytest.approx(p, rel=1e-12)

    def test_ternary(self, t3):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, 10)
        p = sequence_probability(t3, y, 0.1)
        assert math.exp(path_log_likelihood(t3, 0.1, y)) == pytest.approx(
            p, rel=1e-12)

    @pytest.mark.parametrize("symbols", [[-1, 0], [0, -2, 1], [0, 2], [2]])
    def test_symbol_outside_alphabet_is_refused(self, bs, symbols):
        with pytest.raises(ValueError, match="symbol outside alphabet range"):
            path_log_likelihood(bs, 0.05, symbols)

    def test_non_integral_symbols_are_refused(self, bs):
        # a cast to int64 would truncate these to [0, 1]
        for symbols in ([0.7, 1.2], [0.0, math.nan], np.array([1.0, 0.5])):
            with pytest.raises(ValueError, match="symbols must be integers"):
                path_log_likelihood(bs, 0.05, symbols)
        assert path_log_likelihood(bs, 0.05, [0.0, 1.0]) == path_log_likelihood(
            bs, 0.05, [0, 1])

    def test_non_1d_symbols_are_refused(self, bs):
        for symbols in ([[0, 1]], np.zeros((2, 3), dtype=int), 1):
            with pytest.raises(ValueError, match="one-dimensional"):
                path_log_likelihood(bs, 0.05, symbols)

    @pytest.mark.parametrize("t", [1e-100, 1e-150])
    def test_tiny_transition_entries_keep_full_accuracy(self, t):
        # every switch of state costs a factor t, so the products of the
        # scan hold entries near t and t**2 beside entries near 1: the
        # worst-scaled paths below the underflow of t**2 near 1.6e-162
        model = binary_symmetric(t)
        symbols = np.random.default_rng(0).integers(0, 2, 20_011)
        assert path_log_likelihood(model, 0.0, symbols) == pytest.approx(
            math.fsum(log_increments(model, 0.0, symbols)), rel=1e-14, abs=0.0)

    def test_long_path_of_alike_words_keeps_full_accuracy(self, bs):
        # at eps = 0.5 every symbol has probability 1/2 whatever came
        # before, so the words of every chunk add the same logs to its
        # scale: a plain running sum was 13 ulps off here, 3 allowed
        symbols = np.random.default_rng(0).integers(0, 2, 300_000)
        assert path_log_likelihood(bs, 0.5, symbols) == pytest.approx(
            300_000 * math.log(0.5), rel=4e-16, abs=0.0)

    def test_empty_path_has_log_probability_zero(self, bs):
        assert path_log_likelihood(bs, 0.05, []) == 0.0
        assert path_log_likelihood(bs, 0.05, []) == math.log(
            sequence_probability(bs, (), 0.05))


class TestMcEntropyRate:
    def test_fair_coin_chain_exact(self):
        model = binary_symmetric(0.5)
        est = mc_entropy_rate(model, 0.3, 20_000, seed=5)
        # observations are i.i.d. uniform bits: every path has probability
        # 2^-L, so the estimate is ln 2 up to rounding and the batches agree
        assert est.estimate == pytest.approx(math.log(2), abs=1e-12)
        assert est.standard_error <= 1e-12

    def test_zero_noise_matches_markov_rate(self, bs):
        est = mc_entropy_rate(bs, 0.0, 200_000, seed=6)
        rate = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert abs(est.estimate - rate) <= 4 * est.standard_error

    def test_metadata(self, bs):
        est = mc_entropy_rate(bs, 0.05, 10_000, seed=8, batches=40)
        assert est.batches == 40
        assert est.batch_size == 250
        assert "PCG64" in est.generator
        assert est.seed == 8

    def test_preconditions(self, bs):
        with pytest.raises(ValueError):
            mc_entropy_rate(bs, 0.05, 5000, seed=0)
        with pytest.raises(ValueError):
            mc_entropy_rate(bs, 0.05, 10_000, seed=0, batches=10)

    def test_length_batches_and_seed_must_be_whole_numbers(self, bs):
        for length, seed, batches in ((20_000.5, 5, 30), (20_000, 5, 30.5),
                                      (20_000, 5.5, 30), (math.inf, 5, 30)):
            with pytest.raises(ValueError, match="must be a whole number"):
                mc_entropy_rate(bs, 0.3, length, seed, batches=batches)
        est = mc_entropy_rate(bs, 0.3, 20_000.0, 5.0, batches=30.0)
        assert est == mc_entropy_rate(bs, 0.3, 20_000, 5, batches=30)
        assert type(est.length) is type(est.seed) is type(est.batches) is int

    def test_more_batches_than_symbols_is_refused(self, bs):
        # batch_size would be 0 and the standard error NaN
        with pytest.raises(ValueError, match="batches <= length"):
            mc_entropy_rate(bs, 0.05, 10_000, seed=0, batches=20_000)

    def test_seeded_determinism(self, bs):
        a = mc_entropy_rate(bs, 0.05, 10_000, seed=3)
        b = mc_entropy_rate(bs, 0.05, 10_000, seed=3)
        assert a == b


class TestConditionalBounds:
    def test_zero_noise_collapses(self, bs):
        upper, lower = conditional_bounds(bs, 0.0, 4)
        rate = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert upper == pytest.approx(rate, abs=1e-12)
        assert lower == pytest.approx(rate, abs=1e-12)

    def test_sandwich_and_monotone(self, bs):
        uppers, lowers = [], []
        for n in range(2, 7):
            u, lo = conditional_bounds(bs, 0.05, n)
            assert lo <= u
            uppers.append(u)
            lowers.append(lo)
        assert all(a >= b - 1e-13 for a, b in zip(uppers, uppers[1:]))
        assert all(a <= b + 1e-13 for a, b in zip(lowers, lowers[1:]))
        assert uppers[-1] - lowers[-1] < uppers[0] - lowers[0]

    def test_upper_is_conditional_entropy(self, bs):
        upper, _ = conditional_bounds(bs, 0.08, 3)
        assert upper == pytest.approx(conditional_entropy(bs, 3, 0.08), abs=1e-13)

    def test_needs_two_sites(self, bs):
        with pytest.raises(ValueError):
            conditional_bounds(bs, 0.05, 1)

    def test_lower_is_the_noiseless_first_site_conditional_entropy(self, bs, t3):
        # (a) bit for bit the per-site conditional entropy with Z_1 = X_1;
        # (b) by blocking, the point-mass definition up to rounding
        for model in (bs, t3, random_model(np.random.default_rng(2024), 3)):
            pi = model.transition.stationary.tolist()
            for eps in (0.0, 0.05, model.epsilon_max):
                for n in range(2, 8):
                    upper, lower = conditional_bounds(model, eps, n)
                    assert upper == conditional_entropy(model, n, eps)
                    first_exact = multi_site_F(model, [0.0] + [eps] * (n - 1))
                    assert lower == min(first_exact, upper)
                    point_mass = sum(
                        weight * conditional_entropy(model, n, eps,
                                                     initial=np.eye(model.size)[x])
                        for x, weight in enumerate(pi))
                    assert abs(lower - point_mass) <= 1e-14


def test_bounds_n_max_follows_the_whole_number_rule(bs):
    assert bounds_by_n(bs, 0.05, 3.0) == bounds_by_n(bs, 0.05, 3)
    for n_max in (3.5, math.nan):
        with pytest.raises(ValueError, match="n_max must be a whole number"):
            bounds_by_n(bs, 0.05, n_max)
