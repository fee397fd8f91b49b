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
from hmpx.estimation import (GENERATOR_NAME, _SEGMENT, _WALK_STEPS, _chunks,
                              bounds_by_n, _row_log_likelihoods, _row_words,
                              _scan_shape, _walk, _walk_shape, _word_length,
                              _word_table, path_log_likelihood)
from conftest import binary_symmetric
from oracles import log_increments, markov_entropy_rate, sample_arrays, walk


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
        # forward loop's increments summed exactly (fsum), over L
        run = sample_paths(bs, 0.05, 10_000, seed=1)
        assert hashlib.sha256(run.observed.tobytes()).hexdigest() == (
            "f6f64efc2b044ad33551115413c3bdaf3821ca2b069ed4875c6008a4f1c8d9e3")
        est = mc_entropy_rate(bs, 0.05, 20_000, seed=1)
        observed = sample_paths(bs, 0.05, 20_000, seed=1).observed
        assert est.estimate == -math.fsum(log_increments(bs, 0.05, observed)) / 20_000
        assert est.estimate.hex() == "0x1.4620415d9bf1dp-1"
        assert GENERATOR_NAME == "numpy default_rng (PCG64), inverse-CDF sampling"


def _assert_rows_match(model, eps, symbols, reference, k):
    """Each row's log-likelihood against the exact (fsum) sum of the scalar
    loop's increments over the same symbols, at every width of the grid."""
    length = len(symbols)
    reference = reference.tolist()
    for width in {length, 1, k, k + 1, length // 30, length // 40} - {0}:
        rows = _row_log_likelihoods(model, eps, symbols, width)
        expected = [math.fsum(reference[i:i + width]) for i in range(0, length, width)]
        np.testing.assert_allclose(rows, expected, rtol=1e-14, atol=0.0,
                                   err_msg=f"width {width}")


def _batch_means(increments, batches=30):
    size = len(increments) // batches
    means = -increments[: batches * size].reshape(batches, size).mean(axis=1)
    return -increments.sum() / len(increments), means.std(ddof=1) / math.sqrt(batches)


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
        k = _scan_shape(model.size, length, length)[0]
        _assert_rows_match(model, eps, run.observed, reference, k)
        if length >= 10_000:
            est = mc_entropy_rate(model, eps, length, seed=11)
            estimate, se = _batch_means(reference)
            assert est.estimate == pytest.approx(estimate, rel=1e-12)
            assert est.standard_error == pytest.approx(se, rel=1e-12)

    def test_chunk_shape(self):
        assert _chunks(0) == (0, 1)
        for steps in (1, 2, 3, 16, 10_000, 10_006, 99_999):
            count, size = _chunks(steps)
            assert count == math.ceil(math.sqrt(steps))
            assert count * size >= steps > (count - 1) * size


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
        edge = 256 // s * _WALK_STEPS  # the most steps whose cells fit in uint8
        assert [np.min_scalar_type(_walk_shape(steps)[0] * s - 1)
                for steps in (edge, edge + 1)] == [np.uint8, np.uint16]
        for steps in (1, 63, 64, 65, 127, 129, 4097, edge, edge + 1, _SEGMENT - 1):
            u = np.random.default_rng(steps).random(steps)
            out = np.empty(steps, dtype=np.uint8)
            for x in range(s):
                _walk(cum_m, u, x, out)
                np.testing.assert_array_equal(out, walk(rows, u.tolist(), x),
                                              err_msg=f"{steps} steps from {x}")

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

    def test_peak_memory_of_the_estimate(self, bs):
        # the two uniform draws are held one segment at a time: at L = 1e6
        # the estimate peaked at 31.5 MiB of numpy allocations with whole
        # draws and at 3.0 MiB with segments
        tracemalloc.start()
        try:
            mc_entropy_rate(bs, 0.05, 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def test_peak_memory_of_the_likelihood(bs):
    # once the chunk-major copy of the word codes is built, the row-major
    # codes are freed: at L = 4e6 in rows of L // 30 the likelihood peaked
    # at 7.13 MiB with both copies held and at 6.00 MiB with one
    length = 4 * 10**6
    observed = np.random.default_rng(0).integers(0, 2, length).astype(np.uint8)
    tracemalloc.start()
    try:
        _row_log_likelihoods(bs, 0.05, observed, length // 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20


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
        # decoding every row's words gives back that row's symbols, then
        # only identity padding; symbol 0 is the identity step
        rng = np.random.default_rng(s)
        for length in (1, 2, 9, 100, 1001):
            symbols = rng.integers(0, s, length)
            steps = symbols.copy()
            steps[0] = s
            for width in (length, 1, 2, 3, 7, 8, length // 30 + 1):
                k, size = _scan_shape(s, length, width)
                span = _chunks(length - 1)[1]  # a chunk spans whole words
                assert k <= min(width, span) and (size - 1) * k < span <= size * k
                codes = _row_words(symbols, s, width, k)
                rows, per_row = codes.shape
                assert rows == -(-length // width) and per_row == -(-width // k)
                digits = np.stack(np.unravel_index(codes, (s + 1,) * k), axis=-1)
                decoded = digits.reshape(rows, per_row * k)
                for i in range(rows):
                    row = steps[i * width:(i + 1) * width]
                    np.testing.assert_array_equal(decoded[i, :len(row)], row)
                    assert np.all(decoded[i, len(row):] == s)


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
        # and the first of its second, "last chunk" is inside the padded
        # chunk whose transfer matrix pass 2 never reads
        k, size = _scan_shape(blind.size, self.LENGTH, self.LENGTH)
        span = size * k
        count = -(-self.LENGTH // span)
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
        symbols = self._path()
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
