"""Statistical cross-checks, deliberately far from the enumeration engine.

Independent sampled paths give a consistent entropy-rate estimate
-(1/n) log P(Y_1..Y_n) through the normalized linear-space forward pass:
the estimate runs ``batches`` replicas of n = L // batches symbols, each
from the stationary law, so their log-likelihoods are i.i.d. and the
standard error is that of their mean.  Conditional entropies with and
without knowledge of the first hidden state sandwich the entropy rate
from above and below.  By the blocking identity the lower one is the
conditional entropy of the process whose first site is noiseless, so
each comes from one trellis pass from the stationary start.

Sampling and likelihood are both blocked prefix scans (Blelloch 1990):
the path is cut into chunks that advance in lockstep, then are stitched
together in order.  The sampler draws and uses its uniforms in segments
of 2**16 symbols, each segment's hidden walk and then its observations,
so only the observed path outlives its segment.  It scans each segment's
walk in chunks of at most 64 steps, from the last hidden state of the
segment before, and composes maps of states, so its paths are bit for
bit those of a one-state-at-a-time walk.  A replica starts with a
restart, a step whose map sends every state to a draw from the
stationary law, so the replicas are one walk.  The likelihood scores the
path in whole rows of one width (one row for a whole path, one per
replica for the estimate), each row a path of its own cut into about
sqrt(n) chunks of whole k-symbol words, the last chunk padded with
identity steps, from a table of the products of every k-symbol word, in
two passes; the words are coded from views of the path, not a
copy.  Pass 1 forms each chunk's transfer product, all chunks in
lockstep one word at a time, normalized after every word; the logs of
the divided-out norms add up, in a compensated sum, to the chunk's
scale.  Pass 2 walks each row's chunks in order from the joint law of
the first hidden state and symbol, all rows together, normalizing after
each chunk; a row is the sum over its chunks of the log of that norm
plus the chunk's scale, and no per-word or per-symbol increment is
formed.  Nothing cancels, every log is of a positive norm, each chunk's
start differs from the sequential forward vector by rounding only, and
the normalized pass contracts such differences instead of growing them,
so each row agrees with the exact sum of the sequential pass's
increments to a few ulps.  A path of probability zero raises
``UnreachableSequence``, from one check on the finished rows.

All randomness flows through numpy's seeded default generator (PCG64,
inverse-CDF draws): one uniform per hidden state, replica after replica,
then one per observation, whatever the segment size; the observations'
uniforms are read by a second generator on the seed, advanced past the
hidden ones (O'Neill 2014: PCG jumps ahead in O(log L) steps).  A run is
a pure function of (model, eps, L, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import block_entropies, warn_workers
from .errors import UnreachableSequence
from .model import check_epsilon, check_symbols, check_whole, emission_at

GENERATOR_NAME = ("numpy default_rng (PCG64), inverse-CDF sampling, "
                  "stationary-start replicas")


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


def _walk(cum_m, u, x, out, restarts):
    """out[i]: the hidden state after step i of len(u) >= 1 steps from x.

    The step map is x -> #{k < s-1 : cum_m[x, k] <= u_i}: the cumulative
    rows are non-decreasing, so this is the first k with u_i < cum_m[x, k],
    capped at s-1, and the path is bit for bit that of a one-state-at-a-time
    inverse-CDF walk with the same restarts.  ``restarts``, a pair of a
    slice of the steps and an array of states, marks restarts, steps whose
    map is constant: the j-th step of the slice sends every state to the
    j-th state; an empty slice marks none.  Maps compose, so every chunk
    of ``_walk_shape`` advances all s possible starts in lockstep with the
    other chunks.  A state is held as its cell c*s + x in a flat row of all
    chunks' states, so one step is one gather of the step's row.  The step
    table is filled one start state at a time, each chunk's steps
    contiguous: from the chunk's first cell, plus the edge counts, and
    each restart's cell.  A loop over the chunks then
    takes each chunk's true start from the end state of the one before,
    and a flat gather reads the path.  The padded tail of the last chunk
    maps every state to 0, so the loop's final state is not the walk's.
    """
    steps, s = len(u), len(cum_m)
    count, size = _walk_shape(steps)
    cells = count * s
    dtype = np.min_scalar_type(cells - 1)
    step = np.empty((size, count, s), dtype=dtype)  # step j of chunk c, to a cell
    moves = np.empty((count, size), dtype=dtype)  # step j of chunk c, from one state
    real = moves.reshape(-1)[:steps]
    base = np.arange(0, cells, s, dtype=dtype)  # the first cell of chunk c
    at, to = restarts
    marks = base[np.arange(*at.indices(steps)) // size] + to  # their cells
    for state in range(s):
        moves[:] = base[:, None]
        for edge in cum_m[state, :-1]:
            real += u >= edge
        real[at] = marks
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


def _sample_arrays(model, eps, length, seed, width, hidden=None):
    """The observed path of independent replicas of ``width`` symbols, in
    the smallest unsigned dtype holding s; ``width`` divides ``length``,
    and ``width = length`` is one replica.  ``hidden``, if given, is an
    integer array of ``length`` that receives the hidden path; else only
    one segment of it is held at a time.

    The uniforms are those of one generator's draw of 2 * ``length``, the
    first half for the hidden paths and the second for the observations,
    replica after replica.  A second generator on the same seed, advanced
    by ``length`` draws, supplies the second half: PCG64 spends one 64-bit
    draw per double, so it yields exactly draws L..2L-1.  Both are used in
    segments of ``_SEGMENT`` symbols: random(a) then random(b) gives the
    draws of random(a + b), so the segments change no draw.  Each segment
    is walked (see ``_walk``) from the last hidden state of the segment
    before, then emitted, counting edges in the cumulative emission row of
    each hidden state.  A replica's first uniform picks its start from the
    stationary law: a restart, a step whose map sends every state to that
    pick.  Only one segment's uniforms and scan arrays are held at a time,
    so apart from ``hidden`` the observed path is the one array that grows
    with the length.
    """
    walk_rng = np.random.default_rng(seed)
    emit_rng = np.random.default_rng(seed)
    emit_rng.bit_generator.advance(length)
    s = model.size
    dtype = np.min_scalar_type(s)
    observed = np.zeros(length, dtype=dtype)
    cum_m = np.cumsum(model.transition.matrix, axis=1)
    cum_pi = np.cumsum(model.transition.stationary)[:-1]
    cum_r = np.cumsum(emission_at(model.noise, eps), axis=1)[:, :-1].T
    x = 0  # any state: step 0 is a restart
    for lo in range(0, length, _SEGMENT):
        hi = min(lo + _SEGMENT, length)
        states = np.empty(hi - lo, dtype=dtype) if hidden is None else hidden[lo:hi]
        u = walk_rng.random(hi - lo)
        at = slice(-lo % width, None, width)  # this segment's restarts
        _walk(cum_m, u, x, states, (at, cum_pi.searchsorted(u[at], side="right")))
        x = int(states[-1])
        u, out = emit_rng.random(hi - lo), observed[lo:hi]
        for edges in cum_r:  # edges[x]: one cumulative edge of row x
            out += u >= edges.take(states)
    return observed


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


def _scan_shape(s, width):
    """(k, size, chunks): the word length, the words per chunk and the
    chunks per row of the scan of rows of ``width`` symbols.

    The n - 1 steps after the first symbol of a row of n = ``width``
    symbols are cut into C = ceil(sqrt(n - 1)) runs of B = ceil((n - 1) /
    C) steps (B = 1 when n = 1), so a chunk spans about sqrt(n) symbols: B
    rounded up to whole words, with k capped at B.  The row's n symbols,
    its first included, fill ``chunks`` chunks, the last padded with
    identity steps.
    """
    steps = width - 1
    span = -(-steps // (math.isqrt(steps - 1) + 1)) if steps else 1
    k = _word_length(s, span)
    size = -(-span // k)
    return k, size, -(-width // (k * size))


def _row_words(symbols, s, width, k, per_row):
    """codes[i, j]: the base-(s+1) code of word j of row i, row-major.

    Row i holds symbols [i*width, (i+1)*width), and ``width`` divides the
    length; ``symbols`` may have any integer dtype.  Each row is coded as
    if padded once with the identity symbol s to ``per_row`` words of k
    symbols, so no word straddles a row end and each row fills whole
    chunks, and its symbol 0 is replaced by the identity, since its
    forward pass starts from that symbol's distribution.  Words are
    encoded Horner-style, earliest digit first, straight from strided
    views of the rows: digit d of every word of a row is the view
    ``row[d::k]``, which the row's last partial word lacks from digit
    width mod k on, so that word adds s there.  No copy of the symbols is
    made.
    """
    rows = len(symbols) // width
    digits = symbols.reshape(rows, width)
    codes = np.full((rows, per_row), (s + 1) ** k - 1,  # the identity word
                    dtype=np.min_scalar_type((s + 1) ** k - 1))
    words = codes[:, :-(-width // k)]  # the words that hold a symbol
    words[:] = digits[:, ::k]
    words[:, 0] = s  # each row's head
    for d in range(1, k):
        digit = digits[:, d::k]
        held = words[:, :digit.shape[1]]
        words *= s + 1
        # the symbols lie in [0, s), so any integer dtype casts exactly
        np.add(held, digit, out=held, casting="unsafe")
        words[:, digit.shape[1]:] += s
    return codes


def _chunk_products(table, lt, words):
    """Pass 1: (q, scale): q[x, x', c], the transfer matrix of chunk c
    normalized by its sum, and scale[c], so the matrix is q * exp(scale).

    ``words[j, c]`` is the code of word j of chunk c; all chunks advance
    in lockstep by one word of the table per step.  scale[c] sums, over
    the chunk's words, the word's ``lt`` and the log of the norm divided
    out after it.  The sum is compensated (Kahan 1965): its terms are
    often alike, so the roundings of a plain running sum add up, to 13
    ulps on a 3e5-symbol path with i.i.d. fair symbols.
    """
    q = table.take(words[0], axis=2)
    scale = lt.take(words[0])
    lost = np.zeros_like(scale)  # what rounding dropped from scale
    for code in words[1:]:
        q = np.einsum("abc,bdc->adc", q, table.take(code, axis=2))
        norm = q.sum(axis=(0, 1))
        q /= norm
        term = np.log(norm) + lt.take(code) - lost
        total = scale + term
        lost = (total - scale) - term
        scale = total
    return q, scale


# The most transfer-matrix entries (chunks times s * s) scanned in
# lockstep.  Rows are scanned in groups of at most this many, so memory
# stays bounded however many rows there are and however large s is; 30
# rows of 10**6 / 30 symbols make 5490 chunks, 21 960 entries, on two
# symbols.
_GROUP_CELLS = 1 << 15


def _row_log_likelihoods(model, eps, symbols, width):
    """log P(row i), the path cut into rows of ``width`` symbols, each row
    an independent path from the stationary law; ``width`` divides the
    length.

    Row i holds symbols [i*width, (i+1)*width).  Step y takes a row
    vector v to v A_y with A_y[x, x'] = m[x, x'] r[x', y]; the padding
    symbol s steps by the identity, and the word of k padding symbols is
    tabled as exactly I with scale 0, so a one-symbol row is exactly
    log P(Y_1 = y).  The rows are scanned in groups of at most
    ``_GROUP_CELLS`` chunk-matrix entries, each row with the same words
    and chunks as if it were the whole path (see ``_scan_shape``).  So a
    row has the bits ``path_log_likelihood`` gives it alone, up to the
    summation order of a few sums over s states (the same bits on two
    symbols).  See ``_scan_rows`` for one group.

    Reachability is checked once, on the finished rows.  A word of
    probability zero gives a zero norm, so a log of -inf, and the division
    by it 0/0 = NaN, which every later product of its row carries along;
    the check refuses both.  Pass 1 meets every word of the path and
    pass 2 reads every chunk's product, the padded last one too, so no
    zero escapes.
    """
    s = model.size
    r = emission_at(model.noise, eps)
    a = np.empty((s, s, s + 1))  # a[x, x', y] = A_y[x, x']
    a[:, :, :s] = model.transition.matrix[:, :, None] * r[None, :, :]
    a[:, :, s] = np.eye(s)
    first = model.transition.stationary * r.T  # first[y, x] = P(X_1 = x, Y_1 = y)
    k, size, chunks = _scan_shape(s, width)
    group = max(1, _GROUP_CELLS // (chunks * s * s))  # rows scanned together
    values = np.empty(len(symbols) // width)
    with np.errstate(invalid="ignore", divide="ignore"):
        table, lt = _word_table(a, k)
        table[:, :, -1], lt[-1] = np.eye(s), 0.0  # the identity word
        for i in range(0, len(values), group):
            values[i:i + group] = _scan_rows(
                first, table, lt, symbols[i * width:(i + group) * width],
                width, k, size, chunks)
    _check_reachable(values)
    return values


def _scan_rows(first, table, lt, symbols, width, k, size, chunks):
    """log P of each row of ``width`` symbols, in lockstep.

    A row whose first symbol is y starts from ``first[y]``, the joint law
    P(X_1 = x, Y_1 = y).  The word ``table`` and its ``lt`` are of length
    k.  Each row is cut into ``chunks`` chunks of ``size`` words of k
    steps (see ``_row_words``), the last chunk padded with identity
    words, so no chunk straddles a row.  Pass 1 forms every chunk's
    transfer matrix q_c exp(scale_c), all chunks in lockstep, one word at
    a time (see ``_chunk_products``).  Pass 2 walks each row's chunks in
    order, all rows together: v = start q_c, norm_c = sum(v), and the
    next start is v / norm_c.  A row is the pairwise numpy sum over its
    chunks of log norm_c + scale_c, so its first norm carries
    log P(Y_1 = y).
    """
    heads = symbols[::width]  # each row's first symbol
    rows, s = len(heads), len(first)
    words = _row_words(symbols, s, width, k, chunks * size)
    words = words.reshape(rows * chunks, size).T.copy()  # words[j, c]: word j of chunk c
    q, scale = _chunk_products(table, lt, words)  # c = i * chunks + chunk
    # q[c, i]: chunk c of row i, a strided view, so each vector-matrix
    # product is numpy's plain loop, as for one row
    q = q.reshape(s, s, rows, chunks).transpose(3, 2, 0, 1)
    values = np.empty((rows, chunks))  # values[i, c]: norm_c of row i
    start = first.take(heads, axis=0)[:, None, :]  # start[i, 0]: row i
    for c, q_c in enumerate(q):
        v = np.matmul(start, q_c)
        norm = v.sum(axis=2, keepdims=True)
        values[:, c] = norm[:, 0, 0]
        start = v / norm
    np.log(values, out=values)
    values += scale.reshape(rows, chunks)
    return values.sum(axis=1)


def path_log_likelihood(model, eps, symbols):
    """log P of an observation path; agrees with the enumeration engine's
    sequence probabilities up to float rounding.  The empty path has log
    probability 0.  Symbols are checked as in sequence_probability, and an
    integer array is scored as it is, without a copy.

    At eps = 0 a tiny transition entry t costs accuracy, and from about
    1.6e-162, near the square root of the smallest subnormal double, a
    reachable path raises ``UnreachableSequence``: the products of the
    scan lose their small entries to underflow.  On the two-state chain
    with off-diagonal t and 20 011 symbols the relative error is at most
    6e-16 through t = 1e-156, then 1.3e-14 at 1e-157, 6e-12 at 1e-158 and
    4.3e-6 at 1e-161, and t = 1e-162 raises.
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
    hidden = np.empty(length, dtype=np.int64)
    observed = _sample_arrays(model, eps, length, seed, length, hidden)
    loglik = float(_row_log_likelihoods(model, eps, observed, length)[0])
    observed = observed.astype(np.int64)
    hidden.flags.writeable = False
    observed.flags.writeable = False
    return SampleRun(seed=seed, length=length, hidden=hidden,
                     observed=observed, loglik=loglik)


def mc_entropy_rate(model, eps, length, seed, batches=30) -> McEstimate:
    """Entropy-rate estimate from ``batches`` independent replicas, with
    the i.i.d. standard error of their means.

    Each replica is a path of n = L // batches symbols from the stationary
    law (see ``_sample_arrays``); the L mod batches leftover symbols are
    not drawn.  The estimate is -(sum of the replicas' log P) / (batches n),
    the sum exact (fsum), and the standard error is the sample standard
    deviation of the replica means -log P / n over sqrt(batches).  The
    estimate's mean is H_n / n, so it is biased upward by about E / n, E =
    lim (H_m - m h) the excess entropy: E is 0.054 nats on the binary
    symmetric chain (p = 0.3, eps = 0.05), so 30 replicas of L = 1e6 carry
    a bias of 1.6e-6 nats against a standard error of about 2.7e-4.
    ``length``, ``seed`` and ``batches`` must be whole numbers.

    No budget bounds the memory, which grows with L: 1 byte per symbol
    for the uint8 observed path (the hidden path is held one 2**16-symbol
    segment at a time), 8 per replica for its row, about 4/7 of a byte
    per symbol of the rows scored together for the likelihood's word
    codes at s = 2 (2 bytes per 7-symbol word, row-major and then
    chunk-major; at most ``_GROUP_CELLS`` / s**2 chunks of about sqrt(n)
    symbols), and under 2 MiB for one sampler segment.  On the binary
    symmetric chain numpy allocations peak at 3.2 MiB (tracemalloc,
    first call in a process; 2.5 MiB when repeated) for L = 1e6, 6.4 MiB
    for L = 4e6 and 12.9 MiB for L = 1e7; at L = 1e7 the likelihood adds
    2.6 MiB on top of the observed path.  sample_paths holds its two
    int64 paths, 16 bytes per symbol, and one uint8 observed path while
    it samples.  A path the machine cannot allocate raises MemoryError
    (CLI exit 3).
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
    batch_size = length // batches
    size = batches * batch_size  # the L mod batches leftover symbols are not drawn
    observed = _sample_arrays(model, eps, size, seed, batch_size)
    rows = _row_log_likelihoods(model, eps, observed, batch_size)
    estimate = -math.fsum(rows) / size
    rows /= -batch_size  # the replica means, i.i.d.
    se = float(rows.std(ddof=1)) / math.sqrt(batches)
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
