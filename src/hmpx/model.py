"""Model layer: hidden Markov chain plus near-identity emission noise.

A model is a pair (M, T).  M is a strictly positive row-stochastic
transition matrix over an alphabet of size s; it drives the hidden chain
and has a unique stationary distribution pi.  T is a generator-style
matrix (zero row sums, negative diagonal, nonnegative off-diagonal) that
deforms the identity into the emission matrix

    R(eps) = I + eps * T,

which stays row-stochastic for 0 <= eps <= epsilon_max = min_i 1/|t_ii|.
All validation happens at construction time; the resulting objects are
immutable.

Each row sum is one math.fsum (row_sum), correctly rounded in any order:
the validators check and repair each row with it, so rows that permute
one another stay permutations bit for bit and keep the exact symmetries.

Symmetry: ``symmetries`` G are the symbol permutations fixing M and T
exactly (float equality), searched once per model for s <= 7.  The
stationary law is G-invariant only up to rounding, so
``symmetric_stationary`` is its exact G-average.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import (
    EpsilonOutOfRange,
    NonPositiveEntry,
    NonSquare,
    RowSumViolation,
    SignViolation,
)

ROW_SUM_TOL = 1e-9
_MAX_SYMMETRY_SIZE = 7  # largest alphabet searched: 7! = 5040 permutations


def _as_square(raw, what):
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise NonSquare(f"{what} must be a square matrix with size >= 2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Validated transition matrix with its stationary distribution."""

    matrix: np.ndarray
    stationary: np.ndarray

    @property
    def size(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class NoiseGenerator:
    """Validated noise generator T and the admissible range of eps."""

    matrix: np.ndarray
    epsilon_max: float

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def is_zero(self):
        return not self.matrix.any()


@dataclass(frozen=True, eq=False)
class HmpModel:
    """A (transition, noise) pair of matching dimension; eps is supplied per call."""

    transition: StochasticMatrix
    noise: NoiseGenerator

    def __post_init__(self):
        if self.transition.size != self.noise.size:
            raise NonSquare(
                f"transition is {self.transition.size}x{self.transition.size} but "
                f"noise is {self.noise.size}x{self.noise.size}"
            )

    @property
    def size(self):
        return self.transition.size

    @property
    def epsilon_max(self):
        return self.noise.epsilon_max

    @cached_property
    def symmetries(self):
        """Symbol permutations fixing M and T exactly, one per row of a
        read-only (|G|, s) array, the identity first."""
        s, m, t = self.size, self.transition.matrix, self.noise.matrix
        dm, dt = m.diagonal(), t.diagonal()
        # a symmetry maps each symbol to one with the same diagonal entries;
        # when no two symbols agree on both, only the identity is left
        g = np.arange(s)[None]
        if s <= _MAX_SYMMETRY_SIZE and len(set(zip(dm.tolist(), dt.tolist()))) < s:
            g = _permutations(s)
            g = g[(dm[g] == dm).all(axis=1) & (dt[g] == dt).all(axis=1)]
            rows, cols = g[:, :, None], g[:, None, :]
            g = g[(m[rows, cols] == m).all(axis=(1, 2))
                  & (t[rows, cols] == t).all(axis=(1, 2))]
        g.flags.writeable = False
        return g

    @cached_property
    def symmetric_stationary(self):
        """The G-average of the stationary law, read-only: each entry an
        fsum over its orbit, correctly rounded in any order, so G-invariant
        bit for bit.  With G the identity alone it is the stationary law."""
        g, pi = self.symmetries, self.transition.stationary
        return pi if len(g) == 1 else _frozen([math.fsum(pi[o]) / len(g) for o in g.T])


def _permutations(s):
    # every permutation of range(s), one per row, the identity first
    return np.array(list(permutations(range(s))), dtype=np.intp)


def _stationary_distribution(rows):
    # GTH state reduction (Grassmann, Taksar & Heyman 1985): fold the last
    # state into the others, using sum_{j<n} p[n][j] for 1 - p[n][n]; then
    # back-substitute.  No subtraction, so every entry of pi keeps its
    # relative accuracy however slowly the chain mixes.
    p = [row[:] for row in rows]
    s = len(p)
    for n in range(s - 1, 0, -1):
        last = p[n]
        out = sum(last[:n])
        for row in p[:n]:
            row[n] /= out
            for j in range(n):
                row[j] += row[n] * last[j]
    pi = [1.0]
    for j in range(1, s):
        pi.append(sum(pi[i] * p[i][j] for i in range(j)))
    total = sum(pi)
    return np.array([v / total for v in pi])


def row_sum(row):
    """math.fsum of one row; inf when a partial sum leaves the float range."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _check_rows(rows, what, target):
    """Each row's row_sum, rows given as lists of floats; RowSumViolation
    names the first row off target by more than ROW_SUM_TOL."""
    sums = [row_sum(row) for row in rows]
    for i, total in enumerate(sums):
        if abs(total - target) > ROW_SUM_TOL:
            raise RowSumViolation(f"{what} row {i} sums to {total!r}, expected {target}")
    return sums


# The validators below check and repair small matrices on Python floats:
# for s of a few symbols that is cheaper than numpy's per-call overhead,
# and float division and subtraction round the same way in both.

def validate_transition(raw) -> StochasticMatrix:
    """Validate a raw transition matrix and compute its stationary distribution.

    Requires a square matrix of size >= 2 whose rows sum to 1 within 1e-9
    and whose entries are all strictly positive.  Each row is divided by
    its sum, so downstream arithmetic sees machine-exact row sums.
    """
    rows = _as_square(raw, "transition matrix").tolist()
    row_sums = _check_rows(rows, "transition", 1)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v <= 0.0:
                raise NonPositiveEntry(f"transition entry ({i},{j}) = {v!r} must be > 0")
    rows = [[v / total for v in row] for row, total in zip(rows, row_sums)]
    pi = _stationary_distribution(rows)
    return StochasticMatrix(matrix=_frozen(rows), stationary=_frozen(pi))


def validate_noise(raw) -> NoiseGenerator:
    """Validate a raw noise generator and compute epsilon_max.

    Rows must sum to 0 within 1e-9.  Either every diagonal entry is
    strictly negative with nonnegative off-diagonals, or the matrix is
    identically zero (a useful degenerate fixture: R(eps) = I for all eps,
    epsilon_max = inf).
    """
    t = _as_square(raw, "noise generator")
    rows = t.tolist()
    row_sums = _check_rows(rows, "noise", 0)
    if not any(map(any, rows)):
        return NoiseGenerator(matrix=_frozen(t), epsilon_max=float("inf"))
    diag = [row[i] for i, row in enumerate(rows)]
    if (any(v < 0.0 for i, row in enumerate(rows) for j, v in enumerate(row) if i != j)
            or any(d >= 0.0 for d in diag)):
        raise SignViolation("noise generator needs t_ii < 0 and t_ij >= 0 (or all zeros)")
    # Fold the (<= 1e-9) row-sum residual into the diagonal so R(eps) rows
    # sum to 1 at machine precision.
    diag = [d - total for d, total in zip(diag, row_sums)]
    if any(d >= 0.0 for d in diag):
        raise SignViolation("row-sum residual repair pushed a diagonal entry to >= 0")
    np.fill_diagonal(t, diag)
    return NoiseGenerator(matrix=_frozen(t), epsilon_max=min(1.0 / abs(d) for d in diag))


def emission_at(noise: NoiseGenerator, eps: float) -> np.ndarray:
    """Emission matrix R(eps) = I + eps*T; requires a finite eps in
    [0, epsilon_max]."""
    check_epsilon(noise.epsilon_max, eps)
    return _frozen(np.eye(noise.size) + eps * noise.matrix)


def check_epsilon(epsilon_max, eps):
    """eps as a float; EpsilonOutOfRange unless eps is finite and
    0 <= eps <= epsilon_max.  epsilon_max is inf for T = 0, and for a
    diagonal so small that 1/|t_ii| overflows; there inf * 0 would put
    nan into R(eps)."""
    eps = float(eps)
    if not math.isfinite(eps):
        raise EpsilonOutOfRange(f"eps = {eps!r} is not finite")
    if not (0.0 <= eps <= epsilon_max):
        raise EpsilonOutOfRange(f"eps = {eps!r} outside [0, {epsilon_max!r}]")
    return eps


def check_whole(name, value):
    """``value`` as an int; ValueError unless it is a whole number, such
    as 3 or 3.0 (not 3.5, nan, inf or "3")."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


def check_symbols(size, symbols):
    """Observation symbols as a 1-D integer array, without a copy where
    the caller's array already is one.

    Raises ValueError unless ``symbols`` is one-dimensional and every entry
    is an integer, of integer or integral float type, in [0, size).  An
    integer (or boolean) array is returned as it is; integral floats are
    converted to the smallest unsigned dtype that holds ``size``.
    """
    raw = np.asarray(symbols)
    if raw.ndim != 1:
        raise ValueError(f"symbols must be one-dimensional, got shape {raw.shape}")
    if not (raw.dtype.kind in "biu"
            or raw.dtype.kind == "f" and np.all(raw == np.trunc(raw))):
        raise ValueError("symbols must be integers")
    if raw.size and (raw.min() < 0 or raw.max() >= size):
        raise ValueError("symbol outside alphabet range")
    if raw.dtype.kind == "f":
        return raw.astype(np.min_scalar_type(size))
    return raw


def make_model(transition_raw, noise_raw) -> HmpModel:
    """Validate both matrices and pair them into a model."""
    return HmpModel(transition=validate_transition(transition_raw),
                    noise=validate_noise(noise_raw))


def model_from_dict(doc) -> HmpModel:
    """Build a model from the JSON document schema.

    The document must contain exactly the keys "transition" and "noise",
    each an s x s array of numbers; anything else is rejected.  A number
    is an int or a float, as json.load gives them, that a float holds: a
    string, bool, object or null entry, or an int past the float range,
    raises ValueError naming the key.
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    keys = set(doc)
    required = {"transition", "noise"}
    if keys != required:
        unknown = sorted(keys - required)
        missing = sorted(required - keys)
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise ValueError("model document rejected: " + ", ".join(parts))
    for key in ("transition", "noise"):
        _check_numbers(key, doc[key])
    return make_model(doc["transition"], doc["noise"])


def _check_numbers(key, raw):
    # every leaf of the nested lists raw must be a number a float holds;
    # bool is a subclass of int, so it is ruled out first
    leaves = [raw]
    while leaves:
        v = leaves.pop()
        if isinstance(v, (list, tuple)):
            leaves.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"model document rejected: {key} entry "
                             f"{json.dumps(v, default=repr)} is not a number")
        elif isinstance(v, int):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"model document rejected: {key} has an integer "
                                 "entry too large for a float") from None


def load_model(path) -> HmpModel:
    """Load a model from a JSON file (strict schema, see model_from_dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


# --- random instances (verification batteries, tests) ---

def random_transition(rng, s) -> StochasticMatrix:
    """Random strictly positive transition matrix.

    Rows are an even mix of a Dirichlet draw and the uniform distribution,
    which floors every entry at 1/(2s) and keeps the chain well conditioned.
    """
    rows = 0.5 * rng.dirichlet(np.ones(s), size=s) + 0.5 / s
    return validate_transition(rows)


def random_noise(rng, s) -> NoiseGenerator:
    """Random noise generator, scaled so epsilon_max == 1."""
    t = rng.uniform(0.1, 1.0, size=(s, s))
    np.fill_diagonal(t, 0.0)
    t[np.arange(s), np.arange(s)] = -t.sum(axis=1)
    t *= 1.0 / np.max(np.abs(np.diag(t)))
    return validate_noise(t)


def random_model(rng, s) -> HmpModel:
    return HmpModel(transition=random_transition(rng, s),
                    noise=random_noise(rng, s))
