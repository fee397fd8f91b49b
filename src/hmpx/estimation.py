"""Statistical cross-checks, deliberately far from the enumeration engine.

A long sampled observation path gives a consistent entropy-rate estimate
-(1/L) log P(Y_1..Y_L) through the normalized linear-space forward pass,
with batch-means standard errors (the per-symbol log-likelihood
increments are dependent, so i.i.d. formulas would lie).  Conditional
entropies with and without knowledge of the first hidden state sandwich
the entropy rate from above and below.  By the blocking identity the
lower one is the conditional entropy of the process whose first site is
noiseless, so each comes from one trellis pass from the stationary start.

Sampling and likelihood are both blocked prefix scans (Blelloch 1990):
the L-1 steps after the first symbol are cut into about sqrt(L) chunks
that advance in lockstep, then are stitched together in order.  The
sampler composes maps of states, so its paths are bit for bit those of a
one-state-at-a-time walk.  The likelihood composes products of
non-negative matrices, normalized after every factor.  The chunk transfer
products advance k symbols per lockstep step, by a table of the products
of every k-symbol word; the forward pass that yields the increments then
steps one symbol at a time, with the arithmetic of the sequential pass.
Nothing cancels, each chunk's start differs from the sequential forward
vector by rounding only, and the normalized pass contracts such
differences instead of growing them, so the increments agree with the
sequential pass to a few ulps.  A path of probability zero raises
``UnreachableSequence``, from one check on the finished increments.

All randomness flows through numpy's seeded default generator (PCG64,
inverse-CDF draws); a run is a pure function of (model, eps, L, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import block_entropies, warn_workers
from .errors import UnreachableSequence
from .model import check_epsilon, check_symbols, emission_at

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


def _sample_arrays(model, eps, length, seed):
    """Hidden and observed paths, in the smallest unsigned dtype holding s.

    The hidden step map is x -> #{k < s-1 : cum_m[x, k] <= u_i}: the
    cumulative rows are non-decreasing, so this is the first k with
    u_i < cum_m[x, k], capped at s-1, and the path is bit for bit that of
    a one-state-at-a-time inverse-CDF walk.  Maps compose, so every chunk
    advances all s possible starts in lockstep with the other chunks; a
    loop over the chunks then takes each chunk's true start from the end
    state of the one before, and a gather reads the path.  Emissions
    count edges the same way, in the cumulative row of each hidden state.
    """
    rng = np.random.default_rng(seed)
    u_hidden = rng.random(length)
    u_obs = rng.random(length)
    s = model.size
    dtype = np.min_scalar_type(s)
    hidden = np.empty(length, dtype=dtype)
    hidden[0] = x = sum(int(edge <= u_hidden[0])
                        for edge in np.cumsum(model.transition.stationary)[:-1])
    count, size = _chunks(length - 1)
    cum_m = np.cumsum(model.transition.matrix, axis=1)
    step = np.empty((size, count, s), dtype=dtype)  # step j of chunk c from x
    moves = np.empty(count * size, dtype=dtype)
    for state in range(s):
        moves[:] = 0
        for edge in cum_m[state, :-1]:
            moves[: length - 1] += u_hidden[1:] >= edge
        step[:, :, state] = moves.reshape(count, size).T
    step = step.reshape(size, count * s)
    ends = np.empty((size, count, s), dtype=dtype)  # after step j, chunk c from x
    offsets = np.arange(0, count * s, s)[:, None]
    states = np.broadcast_to(np.arange(s, dtype=dtype), (count, s))
    for j in range(size):
        states = step[j].take(offsets + states, out=ends[j])
    starts = np.empty(count, dtype=dtype)
    for c, last in enumerate(ends[-1].tolist()):
        starts[c] = x
        x = last[x]
    path = np.take_along_axis(ends, starts[None, :, None], axis=2)
    hidden[1:] = path[:, :, 0].T.ravel()[: length - 1]
    observed = np.zeros(length, dtype=dtype)
    cum_r = np.cumsum(emission_at(model.noise, eps), axis=1)
    for edges in cum_r[:, :-1].T:  # edges[x]: one cumulative edge of row x
        observed += u_obs >= edges[hidden]
    return hidden, observed


def _check_reachable(total):
    # min propagates NaN, and NaN > 0 is false
    if not np.min(total) > 0.0:
        raise UnreachableSequence("observation path has probability zero")


_WORDS = 4096  # bound on the (s+1)**k words of the pass-1 table


def _word_length(s, size):
    """k: the largest word length with (s+1)**k <= _WORDS and k <= size,
    at least 1; a chunk of ``size`` steps is ceil(size / k) words."""
    k = 1
    while k < size and (s + 1) ** (k + 1) <= _WORDS:
        k += 1
    return k


def _word_table(a, k):
    """p[x, x', w]: the product A_{y_1} ... A_{y_k} normalized by its sum.

    ``a[x, x', y]`` holds A_y; the word w has base-(s+1) digits
    y_1 .. y_k, most significant first.  Each product is normalized after
    every factor, so words of small steps do not underflow early.
    """
    s = a.shape[0]
    p = a / a.sum(axis=(0, 1))
    for _ in range(k - 1):
        p = np.einsum("abw,bdy->adwy", p, a).reshape(s, s, -1)
        p /= p.sum(axis=(0, 1))
    return p


def _chunk_products(a, ys):
    """Pass 1: q[x, x', c], the transfer matrix of chunk c normalized by its sum.

    ``a[x, x', y]`` holds A_y and ``ys[c, j]`` the symbol of step j in
    chunk c.  Each chunk is padded with the identity symbol s to whole
    words of k steps; word i of every chunk is encoded, Horner-style, as
    its base-(s+1) code, and all chunks advance in lockstep by one word
    of the table per step.
    """
    s = a.shape[0]
    count, size = ys.shape
    k = _word_length(s, size)
    words = -(-size // k)
    padded = np.full((count, words * k), s, dtype=ys.dtype)
    padded[:, :size] = ys
    digits = padded.reshape(count, words, k).T  # digits[d, i, c]: digit d of word i
    codes = digits[0].astype(np.min_scalar_type((s + 1) ** k - 1))
    for digit in digits[1:]:
        codes *= s + 1
        codes += digit
    table = _word_table(a, k)
    q = table.take(codes[0], axis=2)
    for code in codes[1:]:
        q = np.einsum("abc,bdc->adc", q, table.take(code, axis=2))
        q /= q.sum(axis=(0, 1))
    return q


def _log_increments(model, eps, symbols):
    """Per-symbol log P(y_i | y_1..y_{i-1}) by the normalized forward pass.

    The L-1 steps after the first symbol run as C chunks of B steps (see
    ``_chunks``).  Step y takes a row vector v to v A_y with A_y[x, x'] =
    m[x, x'] r[x', y]; the padding symbol s steps by the identity.  Pass 1
    forms every chunk's transfer matrix Q_c = prod A_y, all chunks in
    lockstep, k symbols at a time: it multiplies by tabulated products of
    k-symbol words and normalizes Q_c by its sum after every word (see
    ``_chunk_products``).  Pass 2 walks the chunks in order:
    start_{c+1} = normalize(start_c Q_c).  Pass 3 runs the normalized
    forward pass of all chunks in lockstep from their true starts, one
    symbol at a time, and keeps the norms, whose logs are the increments.

    Reachability is checked once, on the finished norms.  A step of
    probability zero gives a zero norm, and the division by it 0/0 = NaN,
    which every later product carries along; the check refuses both.
    Pass 3 meets every step of the path itself, so a zero inside the
    padded last chunk, whose Q_c pass 2 never reads, is caught as well.
    """
    s = model.size
    length = len(symbols)
    r = emission_at(model.noise, eps)
    count, size = _chunks(length - 1)
    ys = np.full(count * size, s, dtype=np.min_scalar_type(s))
    ys[: length - 1] = symbols[1:]
    ys = ys.reshape(count, size)  # ys[c, j]: symbol of step j in chunk c
    a = np.empty((s, s, s + 1))  # a[x, x', y] = A_y[x, x']
    a[:, :, :s] = model.transition.matrix[:, :, None] * r[None, :, :]
    a[:, :, s] = np.eye(s)
    first = model.transition.stationary * r[:, symbols[0]]
    with np.errstate(invalid="ignore", divide="ignore"):
        q = _chunk_products(a, ys)  # q[x, x', c]
        ys = ys.T.copy()  # ys[j, c]
        increments = np.empty(1 + count * size)
        norms = increments[1:].reshape(count, size)
        increments[0] = norm = first.sum()
        alpha = np.empty((s, count))  # alpha[x, c]
        alpha[:, :1] = (first / norm)[:, None]
        for c in range(count - 1):
            start = alpha[:, c] @ q[:, :, c]
            alpha[:, c + 1] = start / start.sum()
        for j, y in enumerate(ys):
            alpha = np.einsum("xc,xyc->yc", alpha, a.take(y, axis=2))
            total = alpha.sum(axis=0)
            norms[:, j] = total
            alpha /= total
    increments = increments[:length]
    _check_reachable(increments)
    return np.log(increments, out=increments)


def path_log_likelihood(model, eps, symbols):
    """log P of an observation path; agrees with the enumeration engine's
    sequence probabilities up to float rounding.  The empty path has log
    probability 0.  Symbols are checked as in sequence_probability."""
    eps = check_epsilon(model.noise, eps)
    symbols = check_symbols(model.size, symbols)
    if symbols.size == 0:
        return 0.0
    return float(_log_increments(model, eps, symbols).sum())


def sample_paths(model, eps, length, seed) -> SampleRun:
    """Sample hidden and observed paths of the given length.

    The first hidden state follows the stationary distribution; identical
    (model, eps, length, seed) reproduce the run bit-exactly.  Both paths
    are read-only int64 arrays.
    """
    eps = check_epsilon(model.noise, eps)
    if length < 1:
        raise ValueError("need length >= 1")
    hidden, observed = _sample_arrays(model, eps, length, seed)
    loglik = float(_log_increments(model, eps, observed).sum())
    hidden = hidden.astype(np.int64)
    observed = observed.astype(np.int64)
    hidden.flags.writeable = False
    observed.flags.writeable = False
    return SampleRun(seed=int(seed), length=int(length), hidden=hidden,
                     observed=observed, loglik=loglik)


def mc_entropy_rate(model, eps, length, seed, batches=30) -> McEstimate:
    """Entropy-rate estimate -(1/L) log P(observed path), with batch-means SE."""
    eps = check_epsilon(model.noise, eps)
    if length < 10_000:
        raise ValueError("need length >= 10000 for a meaningful estimate")
    if batches < 30:
        raise ValueError("need at least 30 batches")
    if batches > length:
        raise ValueError(f"need batches <= length, got {batches} > {length}")
    _, observed = _sample_arrays(model, eps, length, seed)
    increments = _log_increments(model, eps, observed)
    estimate = -float(increments.sum()) / length
    batch_size = length // batches
    means = -increments[: batches * batch_size].reshape(batches, batch_size).mean(axis=1)
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    return McEstimate(estimate=estimate, standard_error=se, batches=int(batches),
                      batch_size=batch_size, length=int(length), seed=int(seed),
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
    return bounds_by_n(model, eps, n, budget=budget)[-1][1:]


def bounds_by_n(model, eps, n_max, *, budget=None):
    """[(n, upper, lower)] of conditional_bounds for n = 2..n_max, from two
    passes; the budget is checked at n_max before the first."""
    if n_max < 2:
        raise ValueError("need N >= 2")
    columns = []
    for profile in ([eps] * n_max, [0.0] + [eps] * (n_max - 1)):
        h = block_entropies(model, n_max, profile, budget=budget)
        columns.append([b - a for a, b in zip(h, h[1:])])
    # conditioning cannot raise entropy; keep the contract under rounding
    return [(n, u, min(lo, u)) for n, u, lo in zip(range(2, n_max + 1), *columns)]
