"""Statistical cross-checks, deliberately far from the enumeration engine.

A long sampled observation path gives a consistent entropy-rate estimate
-(1/L) log P(Y_1..Y_L) through the scaled log-space forward algorithm,
with batch-means standard errors (the per-symbol log-likelihood
increments are dependent, so i.i.d. formulas would lie).  Conditional
entropies with and without knowledge of the first hidden state sandwich
the entropy rate from above and below.

All randomness flows through numpy's seeded default generator (PCG64,
inverse-CDF draws); a run is a pure function of (model, eps, L, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import block_entropies, warn_workers
from .errors import UnreachableSequence
from .model import check_epsilon, emission_at

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


def _pick(cum_row, u):
    for k, edge in enumerate(cum_row):
        if u < edge:
            return k
    return len(cum_row) - 1


def _sample_arrays(model, eps, length, seed):
    rng = np.random.default_rng(seed)
    u_hidden = rng.random(length)
    u_obs = rng.random(length)
    s = model.size
    cum_pi = np.cumsum(model.transition.stationary).tolist()
    cum_m = [row.tolist() for row in np.cumsum(model.transition.matrix, axis=1)]
    x = _pick(cum_pi, u_hidden[0])
    hidden = [x]
    append = hidden.append
    for i in range(1, length):
        x = _pick(cum_m[x], u_hidden[i])
        append(x)
    hidden = np.asarray(hidden, dtype=np.int64)
    observed = np.empty(length, dtype=np.int64)
    cum_r = np.cumsum(emission_at(model.noise, eps), axis=1)
    for state in range(s):
        mask = hidden == state
        observed[mask] = np.searchsorted(cum_r[state], u_obs[mask], side="right")
    np.minimum(observed, s - 1, out=observed)
    return hidden, observed


def _log_increments(model, eps, symbols):
    """Per-symbol log P(y_i | y_1..y_{i-1}) via the normalized forward pass."""
    s = model.size
    r = emission_at(model.noise, eps)
    m = model.transition.matrix
    # step matrices fused per symbol: A_y[x][x'] = m[x,x'] * r[x',y]
    step = [[[float(m[x, xp] * r[xp, y]) for xp in range(s)] for x in range(s)]
            for y in range(s)]
    pi = model.transition.stationary.tolist()
    first = [pi[x] * float(r[x, symbols[0]]) for x in range(s)]
    norm = sum(first)
    if norm <= 0.0:
        raise UnreachableSequence("observation path has probability zero")
    increments = [math.log(norm)]
    alpha = [v / norm for v in first]
    log = math.log
    for y in symbols[1:]:
        a = step[y]
        new = [sum(alpha[x] * a[x][xp] for x in range(s)) for xp in range(s)]
        norm = sum(new)
        if norm <= 0.0:
            raise UnreachableSequence("observation path has probability zero")
        increments.append(log(norm))
        alpha = [v / norm for v in new]
    return np.asarray(increments)


def path_log_likelihood(model, eps, symbols):
    """log P of an observation path; agrees with the enumeration engine's
    sequence probabilities up to float rounding."""
    check_epsilon(model.noise, eps)
    symbols = np.asarray(symbols, dtype=np.int64)
    return float(_log_increments(model, float(eps), symbols).sum())


def sample_paths(model, eps, length, seed) -> SampleRun:
    """Sample hidden and observed paths of the given length.

    The first hidden state follows the stationary distribution; identical
    (model, eps, length, seed) reproduce the run bit-exactly.
    """
    eps = check_epsilon(model.noise, eps)
    if length < 1:
        raise ValueError("need length >= 1")
    hidden, observed = _sample_arrays(model, eps, length, seed)
    loglik = float(_log_increments(model, eps, observed).sum())
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
    conditioned on the first hidden state, averaged over its stationary
    law.  Both tighten toward the rate as n grows.
    """
    warn_workers(workers)
    return bounds_by_n(model, eps, n, budget=budget)[-1][1:]


def bounds_by_n(model, eps, n_max, *, budget=None):
    """[(n, upper, lower)] of conditional_bounds for n = 2..n_max, from one
    pass per start; the budget is checked at n_max before the first."""
    if n_max < 2:
        raise ValueError("need N >= 2")
    h = block_entropies(model, n_max, eps, budget=budget)
    uppers = [b - a for a, b in zip(h, h[1:])]
    lowers = [0.0] * len(uppers)
    for x, weight in enumerate(model.transition.stationary.tolist()):
        h = block_entropies(model, n_max, eps, budget=budget,
                            initial=np.eye(model.size)[x])
        lowers = [lo + weight * (b - a) for lo, a, b in zip(lowers, h, h[1:])]
    # conditioning cannot raise entropy; keep the contract under rounding
    return [(n, u, min(lo, u)) for n, u, lo in zip(range(2, n_max + 1), uppers, lowers)]
