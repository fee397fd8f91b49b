"""Statistical cross-checks, deliberately far from the enumeration engine.

A long sampled observation path gives a consistent entropy-rate estimate
-(1/L) log P(Y_1..Y_L) through the normalized linear-space forward pass,
with batch-means standard errors (the log-likelihoods of consecutive
batches are dependent, so i.i.d. formulas would lie).  Conditional
entropies with and without knowledge of the first hidden state sandwich
the entropy rate from above and below.  By the blocking identity the
lower one is the conditional entropy of the process whose first site is
noiseless, so each comes from one trellis pass from the stationary start.

Sampling and likelihood are both blocked prefix scans (Blelloch 1990):
the path is cut into chunks that advance in lockstep, then are stitched
together in order.  The sampler draws and uses its uniforms in segments
of 2**16 symbols, the whole hidden path first and then the observations.
It scans each segment in chunks of at most 64 steps, from the last
hidden state of the segment before, and composes maps of states, so its
paths are bit for bit those of a one-state-at-a-time walk.  The
likelihood cuts the path into about sqrt(L) chunks.  It scores the path
in rows (one row for the whole path, one per batch for the estimate),
each padded to whole k-symbol words, and composes products of
non-negative matrices, normalized after every factor, from a table of
the products of every k-symbol word.  Both the chunk transfer products
and the forward pass that scores the words step one word at a time, and
a row is the sum of its words' log-likelihoods; no per-symbol increment
is formed.  Nothing cancels, each chunk's start differs from the
sequential forward vector by rounding only, and the normalized pass
contracts such differences instead of growing them, so each row agrees
with the exact sum of the sequential pass's increments to a few ulps.  A
path of probability zero raises ``UnreachableSequence``, from one check
on the finished rows.

All randomness flows through numpy's seeded default generator (PCG64,
inverse-CDF draws): L uniforms for the hidden path, then L for the
observations, whatever the segment size.  A run is a pure function of
(model, eps, L, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import block_entropies, warn_workers
from .errors import UnreachableSequence
from .model import check_epsilon, check_symbols, check_whole, emission_at

GENERATOR_NAME = "numpy default_rng (PCG64), inverse-CDF sampling"


@dataclass(frozen=True, eq=False)
class SampleRun:
    """One sampled trajectory and its observation log-likelihood (nats)."""

    seed: int
    length: int
    hidden: np.ndarray
    observed: np.ndarray
    loglik: float


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    standard_error: float
    batches: int
    batch_size: int
    length: int
    seed: int
    epsilon: float
    generator: str = GENERATOR_NAME


def _chunks(steps):
    """(C, B): ``steps`` steps as C = ceil(sqrt(steps)) chunks of B steps.

    C * B >= steps; the padded tail of the last chunk is less than one
    chunk and is discarded by the caller.
    """
    if steps == 0:
        return 0, 1
    count = math.isqrt(steps - 1) + 1
    return count, -(-steps // count)


_SEGMENT = 1 << 16  # uniforms drawn and used at a time by either sampler pass
# B, the steps per chunk of the hidden walk.  Each lockstep step is one
# numpy call over all C * s cells, and each chunk one Python iteration of
# the stitch, so a segment pays about B calls and _SEGMENT / B iterations.
# A call costs more than an iteration, so B sits below sqrt(_SEGMENT) =
# 256; 32, 64 and 128 time within about 5% of each other.
_WALK_STEPS = 64


def _walk_shape(steps):
    """(C, B): ``steps`` >= 1 walk steps as C chunks of B <= _WALK_STEPS steps.

    C = ceil(steps / _WALK_STEPS) and C * B >= steps; the padded tail of
    the last chunk is less than C steps.
    """
    count = -(-steps // _WALK_STEPS)
    return count, -(-steps // count)


def _walk(cum_m, u, x, out):
    """out[i]: the hidden state after step i of the walk from state x.

    The step map is x -> #{k < s-1 : cum_m[x, k] <= u_i}: the cumulative
    rows are non-decreasing, so this is the first k with u_i < cum_m[x, k],
    capped at s-1, and the path is bit for bit that of a one-state-at-a-time
    inverse-CDF walk.  Maps compose, so every chunk of ``_walk_shape``
    advances all s possible starts in lockstep with the other chunks.  A
    state is held as its cell c*s + x in a flat row of all chunks' states,
    so one step is one gather of the step's row.  The step table is filled
    one start state at a time, each chunk's steps contiguous: from the
    chunk's first cell, plus the edge counts.  A loop over the chunks then
    takes each chunk's true start from the end state of the one before,
    and a flat gather reads the path.  The padded tail of the last chunk
    maps every state to 0, so the loop's final state is not the walk's.
    """
    steps, s = len(u), len(cum_m)
    if steps == 0:
        return
    count, size = _walk_shape(steps)
    cells = count * s
    dtype = np.min_scalar_type(cells - 1)
    step = np.empty((size, count, s), dtype=dtype)  # step j of chunk c, to a cell
    moves = np.empty((count, size), dtype=dtype)  # step j of chunk c, from one state
    real = moves.reshape(-1)[:steps]
    base = np.arange(0, cells, s, dtype=dtype)  # the first cell of chunk c
    for state in range(s):
        moves[:] = base[:, None]
        for edge in cum_m[state, :-1]:
            real += u >= edge
        step[:, :, state] = moves.T
    step = step.reshape(size, cells)
    ends = np.empty((size, cells), dtype=dtype)  # cell after step j, from cell x
    cell = np.arange(cells, dtype=dtype)
    for j in range(size):
        # indices are in range; mode "raise" would buffer ``out`` on every step
        cell = step[j].take(cell, out=ends[j], mode="clip")
    # states, not cells: Python shares the ints of small states, so these
    # lists of C entries allocate no int objects; lists of cells, mostly
    # above 256, left about 0.2 MB more memory resident
    last = (ends[-1] - base.repeat(s)).tolist()  # last[c*s + x]: end state
    firsts = []  # the true start state of each chunk
    for first in range(0, cells, s):  # first: the first cell of a chunk
        firsts.append(x)
        x = last[first + x]
    starts = base + np.array(firsts, dtype=dtype)
    out[:] = (ends[:, starts] - base).T.ravel()[:steps]


def _sample_arrays(model, eps, length, seed):
    """Hidden and observed paths, in the smallest unsigned dtype holding s.

    One generator makes two draws of ``length`` uniforms, the first for
    the hidden path and the second for the observations, used in segments
    of ``_SEGMENT`` symbols: random(a) then random(b) gives the draws of
    random(a + b), so the segments change no draw.  Pass A walks the
    hidden path (see ``_walk``) segment by segment, each from the last
    hidden state of the segment before; u_0 picks the first state from the
    stationary law.  Pass B then emits each segment's observations,
    counting edges in the cumulative emission row of each hidden state.
    Only one segment's uniforms and scan arrays are held at a time.
    """
    rng = np.random.default_rng(seed)
    s = model.size
    dtype = np.min_scalar_type(s)
    hidden = np.empty(length, dtype=dtype)
    cum_m = np.cumsum(model.transition.matrix, axis=1)
    cum_pi = np.cumsum(model.transition.stationary)[:-1]
    for lo in range(0, length, _SEGMENT):
        u = rng.random(min(_SEGMENT, length - lo))
        if lo == 0:
            hidden[0] = np.count_nonzero(cum_pi <= u[0])
        first = max(lo, 1)
        _walk(cum_m, u[first - lo:], int(hidden[first - 1]),
              hidden[first:lo + len(u)])
    observed = np.zeros(length, dtype=dtype)
    cum_r = np.cumsum(emission_at(model.noise, eps), axis=1)[:, :-1].T
    for lo in range(0, length, _SEGMENT):
        u = rng.random(min(_SEGMENT, length - lo))
        states, out = hidden[lo:lo + len(u)], observed[lo:lo + len(u)]
        for edges in cum_r:  # edges[x]: one cumulative edge of row x
            out += u >= edges.take(states)
    return hidden, observed


def _check_reachable(rows):
    # min propagates NaN, and neither NaN nor -inf is > -inf
    if not np.min(rows) > -np.inf:
        raise UnreachableSequence("observation path has probability zero")


_WORDS = 4096  # bound on the (s+1)**k words of the word table


def _word_length(s, size):
    """k: the largest word length with (s+1)**k <= _WORDS and k <= size,
    at least 1; a run of ``size`` steps is ceil(size / k) words."""
    k = 1
    while k < size and (s + 1) ** (k + 1) <= _WORDS:
        k += 1
    return k


def _word_table(a, k):
    """(p, lt): p[x, x', w], the product A_{y_1} ... A_{y_k} normalized by
    its sum, and lt[w], the sum of the logs of the per-factor norms.

    ``a[x, x', y]`` holds A_y; the word w has base-(s+1) digits
    y_1 .. y_k, most significant first.  Each product is normalized after
    every factor, so words of small steps do not underflow early; the
    product itself is p[:, :, w] * exp(lt[w]).
    """
    s = a.shape[0]
    norm = a.sum(axis=(0, 1))
    p = a / norm
    lt = np.log(norm)
    for _ in range(k - 1):
        p = np.einsum("abw,bdy->adwy", p, a).reshape(s, s, -1)
        norm = p.sum(axis=(0, 1))
        p /= norm
        lt = np.repeat(lt, s + 1) + np.log(norm)
    return p, lt


def _scan_shape(s, length, width):
    """(k, size): the word length, and the words per chunk of the scan of
    ``length`` symbols in rows of ``width``.

    A chunk spans about sqrt(L) symbols: the B steps of ``_chunks``,
    rounded up to whole words.  k is capped at both B and the row width.
    """
    steps = _chunks(length - 1)[1]
    k = _word_length(s, min(width, steps))
    return k, -(-steps // k)


def _row_words(symbols, s, width, k):
    """codes[i, j]: the base-(s+1) code of word j of row i.

    Row i holds symbols [i*width, (i+1)*width), padded with the identity
    symbol s to whole words of k symbols, so no word straddles a row end;
    the shorter last row is padded to as many words as the others.  Symbol
    0 is replaced by the identity, since the forward pass starts from its
    distribution.  Words are encoded Horner-style, earliest digit first.
    """
    length = len(symbols)
    rows, tail = divmod(length, width)
    padded = np.full((rows + (tail > 0), -(-width // k) * k), s,
                     dtype=np.min_scalar_type(s))
    padded[:rows, :width] = symbols[: rows * width].reshape(rows, width)
    padded[rows:, :tail] = symbols[rows * width:]
    padded[0, 0] = s
    digits = padded.reshape(len(padded), -1, k).transpose(2, 0, 1)  # digits[d, i, j]
    codes = digits[0].astype(np.min_scalar_type((s + 1) ** k - 1))
    for digit in digits[1:]:
        codes *= s + 1
        codes += digit
    return codes


def _chunk_products(table, words):
    """Pass 1: q[x, x', c], the transfer matrix of chunk c normalized by its sum.

    ``words[j, c]`` is the code of word j of chunk c; all chunks advance
    in lockstep by one word of the table per step.
    """
    q = table.take(words[0], axis=2)
    for code in words[1:]:
        q = np.einsum("abc,bdc->adc", q, table.take(code, axis=2))
        q /= q.sum(axis=(0, 1))
    return q


def _row_log_likelihoods(model, eps, symbols, width):
    """log P(row i | the rows before it), the path cut into rows of ``width``.

    Row i holds symbols [i*width, (i+1)*width); the last row may be
    shorter.  The rows sum to log P(y_1..y_L), and row b is batch b of the
    batch-means estimate.  Step y takes a row vector v to v A_y with
    A_y[x, x'] = m[x, x'] r[x', y]; the padding symbol s steps by the
    identity.  Each row is cut into words of k steps (see ``_row_words``),
    and the word sequence into chunks of about sqrt(L) symbols (see
    ``_scan_shape``), the last chunk padded with identity words.  Pass 1
    forms every chunk's transfer matrix Q_c, all chunks in lockstep, one
    word at a time: it multiplies by the tabulated word products of
    ``_word_table`` and normalizes Q_c by its sum after every word.  Pass
    2 walks the chunks in order: start_{c+1} = normalize(start_c Q_c).
    Pass 3 runs the normalized forward pass of all chunks in lockstep from
    their true starts, one word at a time: the log of each norm plus the
    word's lt is that word's log-likelihood.  A word of identity steps
    scores exactly 0.  Each row is the pairwise numpy sum of its words,
    and row 0 adds the log of the first symbol's probability.

    Reachability is checked once, on the finished rows.  A word of
    probability zero gives a zero norm, so a log of -inf, and the division
    by it 0/0 = NaN, which every later product carries along; the check
    refuses both.  Pass 3 meets every word of the path itself, so a zero
    inside the padded last chunk, whose Q_c pass 2 never reads, is caught
    as well.
    """
    s = model.size
    r = emission_at(model.noise, eps)
    a = np.empty((s, s, s + 1))  # a[x, x', y] = A_y[x, x']
    a[:, :, :s] = model.transition.matrix[:, :, None] * r[None, :, :]
    a[:, :, s] = np.eye(s)
    first = model.transition.stationary * r[:, symbols[0]]
    k, size = _scan_shape(s, len(symbols), width)
    codes = _row_words(symbols, s, width, k)
    rows, per_row = codes.shape
    identity = (s + 1) ** k - 1  # the code of k identity steps
    count = -(-codes.size // size)
    words = np.full(count * size, identity, dtype=codes.dtype)
    words[: codes.size] = codes.ravel()
    del codes  # only the chunk-major copy is read from here on
    words = words.reshape(count, size).T.copy()  # words[j, c]: word j of chunk c
    with np.errstate(invalid="ignore", divide="ignore"):
        table, lt = _word_table(a, k)
        q = _chunk_products(table, words)  # q[x, x', c]
        head = first.sum()
        alpha = np.empty((s, count))  # alpha[x, c]
        alpha[:, 0] = first / head
        for c in range(count - 1):
            start = alpha[:, c] @ q[:, :, c]
            alpha[:, c + 1] = start / start.sum()
        # buffers reused by every step: fresh step-sized arrays on each step
        # fragment the heap, and the next sampler call then peaks higher
        step, after = np.empty((s, s, count)), np.empty_like(alpha)
        total = np.empty(count)
        values = np.empty((count, size))  # values[c, j]: word j of chunk c
        for j, code in enumerate(words):
            np.einsum("xc,xyc->yc", alpha, table.take(code, axis=2, out=step), out=after)
            alpha, after = after, alpha
            alpha.sum(axis=0, out=total)
            alpha /= total
            value = values[:, j]
            np.log(total, out=value)
            value += lt.take(code)
            value[code == identity] = 0.0
        values = values.reshape(-1)[: rows * per_row].reshape(rows, per_row).sum(axis=1)
        values[0] += np.log(head)
    _check_reachable(values)
    return values


def path_log_likelihood(model, eps, symbols):
    """log P of an observation path; agrees with the enumeration engine's
    sequence probabilities up to float rounding.  The empty path has log
    probability 0.  Symbols are checked as in sequence_probability.

    A reachable path can still raise ``UnreachableSequence`` at eps = 0
    when a transition entry is at or below about 1.6e-162, near the square
    root of the smallest subnormal double: the chunk transfer products of
    the scan then underflow to zero.
    """
    eps = check_epsilon(model.epsilon_max, eps)
    symbols = check_symbols(model.size, symbols)
    if symbols.size == 0:
        return 0.0
    return float(_row_log_likelihoods(model, eps, symbols, symbols.size)[0])


def sample_paths(model, eps, length, seed) -> SampleRun:
    """Sample hidden and observed paths of the given length.

    The first hidden state follows the stationary distribution; identical
    (model, eps, length, seed) reproduce the run bit-exactly.  Both paths
    are read-only int64 arrays.  ``length`` and ``seed`` must be whole
    numbers.
    """
    eps = check_epsilon(model.epsilon_max, eps)
    length = check_whole("length", length)
    seed = check_whole("seed", seed)
    if length < 1:
        raise ValueError("need length >= 1")
    hidden, observed = _sample_arrays(model, eps, length, seed)
    loglik = float(_row_log_likelihoods(model, eps, observed, length)[0])
    hidden = hidden.astype(np.int64)
    observed = observed.astype(np.int64)
    hidden.flags.writeable = False
    observed.flags.writeable = False
    return SampleRun(seed=seed, length=length, hidden=hidden,
                     observed=observed, loglik=loglik)


def mc_entropy_rate(model, eps, length, seed, batches=30) -> McEstimate:
    """Entropy-rate estimate -(1/L) log P(observed path), with batch-means SE.

    The path is scored in rows of L // batches symbols; batch b is row b,
    and the symbols after the last whole batch count only in the estimate.
    ``length``, ``seed`` and ``batches`` must be whole numbers.

    No budget bounds the memory, which grows with L: 1 byte per symbol
    for each uint8 path (hidden, observed), about 1.4 for the likelihood's
    word buffers at s = 2, and under 2 MiB for one 2**16-symbol sampler
    segment.  On the binary symmetric chain (p = 0.3, eps = 0.05) numpy
    allocations peak at 4.1 MiB (tracemalloc, first call in a process;
    3.4 MiB when repeated) for L = 1e6 and 24 MiB for L = 1e7;
    sample_paths adds two int64 copies, 16 bytes per symbol.  A path the
    machine cannot allocate raises MemoryError (CLI exit 3).
    """
    eps = check_epsilon(model.epsilon_max, eps)
    length = check_whole("length", length)
    seed = check_whole("seed", seed)
    batches = check_whole("batches", batches)
    if length < 10_000:
        raise ValueError("need length >= 10000 for a meaningful estimate")
    if batches < 30:
        raise ValueError("need at least 30 batches")
    if batches > length:
        raise ValueError(f"need batches <= length, got {batches} > {length}")
    observed = _sample_arrays(model, eps, length, seed)[1]  # drop the hidden path
    batch_size = length // batches
    rows = _row_log_likelihoods(model, eps, observed, batch_size)
    estimate = -math.fsum(rows) / length
    means = -rows[:batches] / batch_size
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    return McEstimate(estimate=estimate, standard_error=se, batches=batches,
                      batch_size=batch_size, length=length, seed=seed,
                      epsilon=eps)


def conditional_bounds(model, eps, n, *, budget=None, workers=1):
    """(upper, lower) bounds on the entropy rate at a fixed noise level.

    Upper: H(Y_n | Y_1..Y_{n-1}).  Lower: the same quantity additionally
    conditioned on the first hidden state (Birch 1962).  It is computed
    with the first site noiseless, so that its symbol is X_1: by blocking,
    Y_1 adds nothing once X_1 is known.  Both tighten toward the rate as n
    grows.
    """
    warn_workers(workers)
    return bounds_by_n(model, eps, check_whole("n", n), budget=budget)[-1][1:]


def bounds_by_n(model, eps, n_max, *, budget=None):
    """[(n, upper, lower)] of conditional_bounds for n = 2..n_max, from two
    passes; the first, on the shared eps, checks the budget before either
    profile is built.  n_max must be a whole number, else ValueError."""
    n_max = check_whole("n_max", n_max)
    if n_max < 2:
        raise ValueError("need N >= 2")
    # eps resolves to [eps] * n_max
    upper = block_entropies(model, n_max, eps, budget=budget)
    lower = block_entropies(model, n_max, [0.0] + [eps] * (n_max - 1), budget=budget)
    # conditioning cannot raise entropy; keep the contract under rounding
    return [(n, b - a, min(d - c, b - a)) for n, a, b, c, d
            in zip(range(2, n_max + 1), upper, upper[1:], lower, lower[1:])]
