"""Entropy-rate Taylor coefficients from finite systems, plus identity checks.

The k-th expansion coefficient (in the noise level) of the conditional
entropy H(Y_N | Y_1..Y_{N-1}) is the same for every N >= ceil((k+3)/2)
and equals the entropy rate's coefficient.  settling_table lists the
coefficients of C_N = H_N - H_{N-1} for N = 2..n_max from one trellis
pass, and the expansion through order K is its settled row N* =
ceil((K+3)/2).  Rows N*+1 and ceil((k+3)/2) exist purely as numerical
cross-checks, and any settled disagreement is an error, not a warning.

The module also hosts numerical verifiers for the three identities the
settling rests on: blocking at a zero-noise site, invariance under
prepending zero sites, and vanishing of mixed partials with a "hole"
(a site of derivative order <= 1 strictly between an active site and the
end).  Each verifier reports an absolute residual against a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import (
    block_entropies,
    mixed_partial_F,
    multi_site_F,
    warn_workers,
)
from .errors import HypothesisNotMet, SettlingViolation
from .jets import UniJet
from .model import check_epsilon, check_whole, random_model

DEFAULT_SETTLE_TOL = 1e-8
DEFAULT_LEMMA_TOL = 1e-9


def _check_tolerance(name, tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


def settling_threshold(k):
    """Smallest system length whose k-th coefficient already equals the
    rate's; k must be a whole number >= 0, else ValueError."""
    k = check_whole("k", k)
    if k < 0:
        raise ValueError("k must be >= 0")
    return (k + 4) // 2  # == ceil((k+3)/2)


@dataclass(frozen=True)
class SeriesResult:
    """Entropy-rate Taylor coefficients with settling diagnostics (nats)."""

    order: int
    coefficients: tuple
    thresholds: tuple
    settle_residuals: tuple
    epsilon_max: float
    log_note: str = "natural log (nats)"


class SeriesEvaluation(NamedTuple):
    value: float
    # Heuristic tail guess |c_K| * eps^(K+1) / (1 - eps); no rigorous
    # convergence radius is certified.
    remainder_hint: float


@dataclass(frozen=True, eq=False)
class SettlingTable:
    """Coefficients of H_N - H_{N-1} for N = 2..n_max, with settled flags."""

    order: int
    n_values: tuple
    coefficients: np.ndarray      # shape (len(n_values), order+1)
    settled: np.ndarray           # same shape, bool
    thresholds: tuple
    column_disagreement: tuple    # max |difference| among settled cells, per k

    def rows(self):
        """Yield (N, k, coefficient, settled) per cell, row-major."""
        for i, n in enumerate(self.n_values):
            for k in range(self.order + 1):
                yield n, k, float(self.coefficients[i, k]), bool(self.settled[i, k])


@dataclass(frozen=True)
class LemmaReport:
    lemma: int
    instance: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.residual <= self.tolerance)


def entropy_rate_series(model, order, *, budget=None, workers=1,
                        settle_tol=DEFAULT_SETTLE_TOL) -> SeriesResult:
    """Entropy-rate Taylor coefficients through the given order.

    Coefficient k is read off row N* = ceil((order+3)/2) of the settling
    table to N*+1; the residual for k compares it against row N*+1 and,
    where N* exceeds k's own threshold, against that threshold's row too.
    Any residual above settle_tol * max(1, |coefficient|) raises
    SettlingViolation: under the settling guarantee the values are equal,
    so disagreement means numerical trouble or an invalid model.  A
    settle_tol that is not finite and >= 0 raises ValueError.
    """
    warn_workers(workers)
    order = check_whole("order", order)
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_tolerance("settle_tol", settle_tol)
    n_star = settling_threshold(order)
    table = settling_table(model, order, n_star + 1, budget=budget)
    coeffs = table.coefficients[n_star - 2]  # row i holds N = i + 2
    check = table.coefficients[n_star - 1]
    residuals = []
    for k, n_k in enumerate(table.thresholds):
        r = abs(coeffs[k] - check[k])
        if n_k < n_star:
            r = max(r, abs(coeffs[k] - table.coefficients[n_k - 2, k]))
        residuals.append(r)
        if not r <= settle_tol * max(1.0, abs(coeffs[k])):  # NaN fails too
            raise SettlingViolation(
                f"coefficient k={k}: settled runs disagree by {r:.3e} "
                f"(tolerance {settle_tol:.1e} relative)"
            )
    return SeriesResult(
        order=order,
        coefficients=tuple(float(c) for c in coeffs),
        thresholds=table.thresholds,
        settle_residuals=tuple(float(r) for r in residuals),
        epsilon_max=model.epsilon_max,
    )


def settling_table(model, order, n_max, *, budget=None, workers=1) -> SettlingTable:
    """Coefficients of H_N - H_{N-1} for N = 2..n_max, settled cells flagged.

    Cells below threshold are reported as computed, never extrapolated.
    order and n_max must be whole numbers, else ValueError."""
    warn_workers(workers)
    order, n_max = check_whole("order", order), check_whole("n_max", n_max)
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    h = block_entropies(model, n_max, UniJet.variable(order), budget=budget)
    n_values = tuple(range(2, n_max + 1))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, reported as such
        coef = np.array([(h[n - 1] - h[n - 2]).coeffs for n in n_values])
    thresholds = tuple(settling_threshold(k) for k in range(order + 1))
    settled = np.greater_equal.outer(n_values, thresholds)
    disagreement = []
    for k in range(order + 1):
        vals = coef[settled[:, k], k]
        disagreement.append(float(vals.max() - vals.min()) if vals.size >= 2 else 0.0)
    coef.flags.writeable = False
    settled.flags.writeable = False
    return SettlingTable(
        order=order,
        n_values=n_values,
        coefficients=coef,
        settled=settled,
        thresholds=thresholds,
        column_disagreement=tuple(disagreement),
    )


def evaluate_series(result: SeriesResult, eps) -> SeriesEvaluation:
    """Horner evaluation of the truncated series at eps, plus a tail hint."""
    eps = check_epsilon(result.epsilon_max, eps)
    tail = abs(result.coefficients[-1])
    hint = tail * eps ** (result.order + 1) / (1.0 - eps) if eps < 1.0 else math.inf
    return SeriesEvaluation(value=float(UniJet(result.coefficients)(eps)),
                            remainder_hint=hint)


# --- identity verifiers -----------------------------------------------------

def verify_lemma_blocking(model, n, j, profile, tol=DEFAULT_LEMMA_TOL, *,
                          budget=None) -> LemmaReport:
    """Zero noise at site j (1-based, 1 < j < N) screens off earlier sites.

    Compares the length-N per-site conditional entropy against the
    shorter system starting at site j, both evaluated at plain numbers.
    n and j must be whole numbers (4.0 is accepted), else ValueError.
    """
    _check_tolerance("tol", tol)
    n, j = check_whole("n", n), check_whole("j", j)
    if not (1 < j < n):
        raise HypothesisNotMet(f"need 1 < j < N, got j={j}, N={n}")
    profile = [float(v) for v in profile]
    if len(profile) != n:
        raise HypothesisNotMet(f"profile has {len(profile)} sites, expected {n}")
    if profile[j - 1] != 0.0:
        raise HypothesisNotMet(f"profile must have 0 at site j={j}")
    full = multi_site_F(model, profile, budget=budget)
    suffix = multi_site_F(model, profile[j - 1:], budget=budget)
    return LemmaReport(
        lemma=1,
        instance=f"s={model.size} N={n} j={j} profile={tuple(round(v, 6) for v in profile)}",
        residual=float(abs(full - suffix)),
        tolerance=tol,
    )


def verify_lemma_zero_prepend(model, kvec, r, tol=DEFAULT_LEMMA_TOL, *,
                              budget=None) -> LemmaReport:
    """Prepending r zero-derivative sites leaves the mixed partial unchanged.

    Requires the first entry of kvec to be 0 or 1.  kvec entries and r
    must be whole numbers, and kvec not empty (ValueError otherwise)."""
    _check_tolerance("tol", tol)
    kvec = [check_whole("kvec entry", k) for k in kvec]
    r = check_whole("r", r)
    if not kvec:
        raise ValueError("kvec must not be empty")
    if r < 1:
        raise ValueError("r must be >= 1")
    if kvec[0] > 1:
        raise HypothesisNotMet(f"first entry must be <= 1, got {kvec[0]}")
    base = mixed_partial_F(model, kvec, budget=budget)
    extended = mixed_partial_F(model, [0] * r + kvec, budget=budget)
    return LemmaReport(
        lemma=2,
        instance=f"s={model.size} kvec={tuple(kvec)} r={r}",
        residual=float(abs(base - extended)),
        tolerance=tol,
    )


def _has_hole(kvec):
    # 1-based positions: exists i < j < N with k_i >= 1 and k_j <= 1.
    n = len(kvec)
    seen_active = False
    for pos in range(n - 1):  # positions 1..N-1
        if seen_active and kvec[pos] <= 1:
            return True
        if kvec[pos] >= 1:
            seen_active = True
    return False


def verify_lemma_no_hole(model, kvec, tol=DEFAULT_LEMMA_TOL, *,
                         budget=None) -> LemmaReport:
    """Mixed partials with a low-order site after an active one vanish.

    kvec entries must be whole numbers (ValueError otherwise)."""
    _check_tolerance("tol", tol)
    kvec = [check_whole("kvec entry", k) for k in kvec]
    if not _has_hole(kvec):
        raise HypothesisNotMet(
            f"kvec={tuple(kvec)} has no positions i < j < N with k_i >= 1, k_j <= 1"
        )
    value = mixed_partial_F(model, kvec, budget=budget)
    return LemmaReport(
        lemma=3,
        instance=f"s={model.size} kvec={tuple(kvec)}",
        residual=float(abs(value)),
        tolerance=tol,
    )


# --- randomized batteries ---------------------------------------------------

def _random_kvec(rng, n, weight_max, *, first_max=None, need_hole=False):
    while True:
        kvec = rng.integers(0, 4, size=n)
        w = int(kvec.sum())
        if not (1 <= w <= weight_max):
            continue
        if first_max is not None and kvec[0] > first_max:
            continue
        if need_hole and not _has_hole(kvec):
            continue
        return [int(k) for k in kvec]


def run_lemma_battery(lemma, trials, seed, tol=DEFAULT_LEMMA_TOL, *, model=None,
                      sizes=(2, 3), n_max=6, weight_max=6, budget=None):
    """Randomized verifier instances; one report per trial.

    With ``model=None`` each trial draws a fresh random model, well
    conditioned (entries floored away from zero) since the identities
    hold for any valid model and ill conditioning only inflates float
    noise, not information.  Passing a model pins it for every trial and
    randomizes only the instance.  ``trials``, ``n_max``, ``weight_max``
    and the entries of ``sizes`` must be whole numbers (3.0 is accepted),
    with n_max >= 3, weight_max >= 1 and at least one size, each >= 2,
    else ValueError before anything is drawn.
    """
    if lemma not in (1, 2, 3):
        raise ValueError("lemma must be 1, 2, or 3")
    _check_tolerance("tol", tol)
    n_max = check_whole("n_max", n_max)
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    weight_max = check_whole("weight_max", weight_max)
    if weight_max < 1:
        raise ValueError(f"need weight_max >= 1, got {weight_max}")
    checked = (tuple(check_whole("sizes entry", size) for size in sizes)
               if np.iterable(sizes) else ())
    if not checked or min(checked) < 2:
        raise ValueError(f"sizes must list alphabet sizes >= 2, got {sizes!r}")
    rng = np.random.default_rng(seed)
    fixed = model
    reports = []
    for _ in range(check_whole("trials", trials)):
        if fixed is None:
            s = int(rng.choice(checked))
            model = random_model(rng, s)
        else:
            model = fixed
        if lemma == 1:
            n = int(rng.integers(3, n_max + 1))
            j = int(rng.integers(2, n))
            scale = 0.2 * min(model.epsilon_max, 1.0)  # finite even for T = 0
            profile = (scale * rng.random(n)).tolist()
            profile[j - 1] = 0.0
            reports.append(verify_lemma_blocking(model, n, j, profile, tol,
                                                 budget=budget))
        elif lemma == 2:
            n = int(rng.integers(2, n_max))
            r = int(rng.integers(1, n_max - n + 1))
            kvec = _random_kvec(rng, n, weight_max, first_max=1)
            reports.append(verify_lemma_zero_prepend(model, kvec, r, tol,
                                                     budget=budget))
        else:
            n = int(rng.integers(3, n_max + 1))
            kvec = _random_kvec(rng, n, weight_max, need_hole=True)
            reports.append(verify_lemma_no_hole(model, kvec, tol, budget=budget))
    return reports
