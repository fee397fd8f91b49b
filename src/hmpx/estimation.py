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
non-negative matrices, normalized after every step: nothing cancels, each
chunk's start differs from the sequential forward vector by rounding
only, and the normalized pass contracts such differences instead of
growing them, so the increments agree with the sequential pass to a few
ulps.  A path of probability zero raises ``UnreachableSequence`` before
any division by zero.

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
    if not np.all(total > 0.0):
        raise UnreachableSequence("observation path has probability zero")


def _log_increments(model, eps, symbols):
    """Per-symbol log P(y_i | y_1..y_{i-1}) by the normalized forward pass.

    The L-1 steps after the first symbol run as C chunks of B steps (see
    ``_chunks``).  Step y takes a row vector v to v A_y with A_y[x, x'] =
    m[x, x'] r[x', y]; the padding symbol s steps by the identity.  Pass 1
    forms every chunk's transfer matrix Q_c = prod A_y, normalized by its
    sum after each step, all chunks in lockstep.  Pass 2 walks the chunks
    in order: start_{c+1} = normalize(start_c Q_c).  Pass 3 runs the
    normalized forward pass of all chunks in lockstep from their true
    starts and keeps the norms, whose logs are the increments.
    """
    s = model.size
    length = len(symbols)
    r = emission_at(model.noise, eps)
    count, size = _chunks(length - 1)
    ys = np.full(count * size, s, dtype=np.min_scalar_type(s))
    ys[: length - 1] = symbols[1:]
    ys = ys.reshape(count, size).T.copy()  # ys[j, c]: symbol of step j in chunk c
    a = np.empty((s, s, s + 1))  # a[x, x', y] = A_y[x, x']
    a[:, :, :s] = model.transition.matrix[:, :, None] * r[None, :, :]
    a[:, :, s] = np.eye(s)
    increments = np.empty(1 + count * size)
    norms = increments[1:].reshape(count, size)
    first = model.transition.stationary * r[:, symbols[0]]
    increments[0] = norm = first.sum()
    _check_reachable(norm)
    q = np.broadcast_to(np.eye(s)[:, :, None], (s, s, count))  # q[x, x', c]
    for y in ys:
        q = np.einsum("abc,bdc->adc", q, a.take(y, axis=2))
        total = q.sum(axis=(0, 1))
        _check_reachable(total)
        q /= total
    alpha = np.empty((s, count))  # alpha[x, c]
    alpha[:, :1] = (first / norm)[:, None]
    for c in range(count - 1):
        start = alpha[:, c] @ q[:, :, c]
        total = start.sum()
        _check_reachable(total)
        alpha[:, c + 1] = start / total
    for j, y in enumerate(ys):
        alpha = np.einsum("xc,xyc->yc", alpha, a.take(y, axis=2))
        total = alpha.sum(axis=0)
        _check_reachable(total)
        norms[:, j] = total
        alpha /= total
    return np.log(increments, out=increments)[:length]


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
