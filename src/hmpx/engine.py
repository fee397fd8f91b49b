"""Exact entropy computations by full enumeration of observation sequences.

Every quantity here is a sum over all s**N observation sequences of a
forward-algorithm probability.  Plain-number, UniJet and MultiJet noise
all run through one prefix trellis: level n holds the forward variables
of all s**n prefixes as arrays of shape (prefixes, s, w), w the size of
the jets' exponent set (1 for plain numbers, K+1 for an order-K UniJet),
and each level yields its block entropy H_n as the walk passes it.  One
pass to depth N therefore gives H_1..H_N.  The emission step at a site
is a truncated jet product with the tensor R(eps) = I + eps*T; since R
has degree 1 in eps, it is a shift-and-add over the nonzero coefficients
of that site's jet.  The jet format, product and log live in jets.py.

The walk is depth-first over blocks of at most _CHUNK prefixes, so memory
stays bounded whatever s**N is, and the last level is never held whole.
sequence_probability keeps a per-sequence forward pass as the reference
the trellis is tested against.

Enumeration cost is exponential and deliberately explicit: any request
beyond the sequence budget (default 2**24) raises instead of grinding.
Summation order is fixed: each block's p*log(p) terms are summed exactly
(math.fsum per coefficient), and the block sums are added with Neumaier
compensation in lexicographic order.  Blocks depend only on the level, so
a given H_n is the same bits whichever call computes it.  Everything runs
serially in the calling process; the ``workers`` argument is deprecated,
ignored, and warns when not 1.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigMismatch,
    ProfileLengthMismatch,
    UnreachableSequence,
)
from .jets import Jet, MultiJet, exponent_set
from .model import HmpModel, check_epsilon

DEFAULT_BUDGET = 2 ** 24

_P_FLOOR = 1e-300  # constant terms below this mean the sum is corrupt

# Prefixes per trellis block.  The walk holds one block per level, so its
# working memory grows with N, not with s**N.
_CHUNK = 512


def warn_workers(workers):
    """Deprecation warning for ``workers != 1``; the argument changes nothing."""
    if workers != 1:
        warnings.warn("workers is deprecated and ignored: exact enumeration runs in "
                      "one process; the argument will be removed after 2026-12-31",
                      DeprecationWarning, stacklevel=3)


def _budget_or_default(budget):
    return DEFAULT_BUDGET if budget is None else int(budget)


def check_budget(s, n, budget=None):
    """Raise BudgetExceeded unless s**n sequences fit the budget.

    The budget bounds time; working memory grows with n, not with s**n.
    Per level the depth-first trellis walk holds one block of at most
    _CHUNK = 512 prefixes (s*(K+1) floats each) plus the propagated mass of
    its parents, about (s+1) * 512 * (K+1) * 8 bytes: 0.15 MB at s = 2,
    K = 11.  block_entropy at s = 2, K = 11 peaks at 1.1 MB of numpy
    allocations for n = 12 and 1.7 MB for n = 16.
    """
    budget = _budget_or_default(budget)
    if s ** n > budget:
        raise BudgetExceeded(
            f"N = {n} needs {s}**{n} = {s ** n} sequences, over the budget of {budget}"
        )


def enumerate_sequences(s, n, budget=None):
    """All length-n observation sequences over [0, s), lexicographically."""
    if s < 2 or n < 1:
        raise ValueError("need s >= 2 and N >= 1")
    check_budget(s, n, budget)
    return product(range(s), repeat=n)


# --- noise profiles -------------------------------------------------------

def resolve_profile(model, noise, n):
    """Expand a shared noise value or per-site profile to one value per site.

    Scalars are range-checked against epsilon_max.  Jet entries must agree
    on their configuration; univariate and multivariate jets cannot mix.
    """
    if isinstance(noise, (list, tuple)):
        values = list(noise)
        if len(values) != n:
            raise ProfileLengthMismatch(f"profile has {len(values)} sites, expected {n}")
    else:
        values = [noise] * n
    out = []
    first = {}  # first jet of each class, which later ones must match
    for v in values:
        if isinstance(v, Jet):
            first.setdefault(type(v), v)._coerce(v)
            out.append(v)
        else:
            out.append(check_epsilon(model.noise, v))
    if len(first) > 1:
        raise ConfigMismatch("profile mixes univariate and multivariate jets")
    return out


def _site_tables(model, profile):
    # Emission entries r[x][z] = kron(x,z) + eps_i * t[x][z], one table per site.
    t = model.noise.matrix
    s = model.size
    return [[[eps * float(t[x, z]) + (1.0 if x == z else 0.0) for z in range(s)]
             for x in range(s)] for eps in profile]


def _forward(tables, m_rows, init, symbols):
    s = len(init)
    alpha = [init[x] * tables[0][x][symbols[0]] for x in range(s)]
    for i in range(1, len(symbols)):
        tab = tables[i]
        yi = symbols[i]
        new = []
        for xp in range(s):
            inner = alpha[0] * m_rows[0][xp]
            for x in range(1, s):
                inner = inner + alpha[x] * m_rows[x][xp]
            new.append(inner * tab[xp][yi])
        alpha = new
    total = alpha[0]
    for x in range(1, s):
        total = total + alpha[x]
    return total


def sequence_probability(model, symbols, noise):
    """Probability of one observation sequence under the given noise.

    ``noise`` is a shared value (float or jet) or a per-site profile; the
    result has the corresponding number type.  Shared-noise results are
    polynomials of degree <= N in the noise variable.
    """
    symbols = [int(y) for y in symbols]
    if any(y < 0 or y >= model.size for y in symbols):
        raise ValueError("symbol outside alphabet range")
    profile = resolve_profile(model, noise, len(symbols))
    tables = _site_tables(model, profile)
    m_rows = model.transition.matrix.tolist()
    init = model.transition.stationary.tolist()
    return _forward(tables, m_rows, init, symbols)


# --- compensated accumulation --------------------------------------------

class _NeumaierArray:
    __slots__ = ("s", "c")

    def __init__(self, size):
        self.s = np.zeros(size)
        self.c = np.zeros(size)

    def add(self, x):
        t = self.s + x
        big = np.abs(self.s) >= np.abs(x)
        self.c += np.where(big, (self.s - t) + x, (x - t) + self.s)
        self.s = t

    def total(self):
        return self.s + self.c


# --- prefix trellis -------------------------------------------------------

def _emission(pred, r, space):
    """Map predicted state mass (P, s, w) to child forward variables (P, s, s, w).

    alpha[p, y, x] = pred[p, x] * R[x, y], a truncated jet product with the
    site's jet tensor R = I + eps*T, passed transposed as r[y, x].  With
    w = 1 it is the plain product pred * (I + eps*T).
    """
    return space.mul(pred[:, None], r)


def _xlogx_sum(p, first, n, s, jet, space):
    """Per-coefficient exact sum of p*log(p) over the rows of p, shape (P, w).

    Row i is the probability of the level-n prefix with index first + i.
    """
    low = p[:, 0] < _P_FLOOR
    if low.any():
        # A probability of exactly zero is a structurally unreachable
        # sequence (point-mass start, or a hard zero in the emission
        # pattern); its p*log(p) term is zero.  Tiny-but-nonzero constant
        # terms cannot occur for strictly positive M and mean the sum is
        # corrupt.  Plain-number emission entries may carry -1e-15 of
        # rounding at the eps boundary, so a vanishing probability can land
        # just below 0.
        if jet:
            vanished = ~p.any(axis=1)
        else:
            vanished = (p[:, 0] >= -1e-15) & (p[:, 0] <= 0.0)
        bad = np.flatnonzero(low & ~vanished)
        if bad.size:
            seq = tuple(int(d) for d in np.unravel_index(first + bad[0], (s,) * n))
            raise UnreachableSequence(f"P{seq} = {p[bad[0]].tolist()} underflowed")
        p = p[~low]
    term = space.mul(space.log(p), p)
    return np.array([math.fsum(col) for col in term.T.tolist()])


def _trellis_entropies(model, profile, levels):
    """{n: H_n} for each n in levels, from one depth-first walk of the trellis."""
    s = model.size
    depth = max(levels)
    profile = profile[:depth]
    jet = next((v for v in profile if isinstance(v, Jet)), None)
    space = exponent_set((), 0) if jet is None else jet.space
    w = space.size
    t = model.noise.matrix
    unit = np.eye(1, w)[0]
    # R(eps)[x, y] = delta_xy + eps * t[x, y] as a jet, stored as r[y, x]
    r = [np.eye(s)[:, :, None] * unit + t.T[:, :, None]
         * (eps.coeffs if isinstance(eps, Jet) else eps * unit) for eps in profile]
    mt = model.transition.matrix.T
    sums = {n: _NeumaierArray(w) for n in levels}
    width = max(1, _CHUNK // s)  # parents per block, so a block has <= _CHUNK rows

    def visit(pred, n, first):
        # pred: state mass of consecutive level-(n-1) prefixes, propagated
        # through M; their children at level n start at index `first`.
        alpha = _emission(pred, r[n - 1], space).reshape(-1, s, w)
        if n in sums:
            p = alpha.sum(axis=1)
            sums[n].add(_xlogx_sum(p, first, n, s, jet is not None, space))
        if n < depth:
            for lo in range(0, len(alpha), width):
                visit(mt @ alpha[lo:lo + width], n + 1, (first + lo) * s)

    root = np.zeros((1, s, w))
    root[0, :, 0] = model.transition.stationary
    visit(root, 1, 0)
    if jet is None:
        return {n: float(-acc.total()[0]) for n, acc in sums.items()}
    return {n: jet._like(-acc.total()) for n, acc in sums.items()}


def _entropies(model, profile, levels, *, budget=None, initial=None):
    """{n: H_n} over the first n sites of a resolved profile, n in levels."""
    check_budget(model.size, max(levels), budget)
    if initial is not None:
        model = _with_initial(model, initial)
    return _trellis_entropies(model, profile, levels)


def _with_initial(model, initial):
    # Conditioning device: swap the stationary start for an arbitrary one
    # (e.g. a point mass on X_1) without touching validation.
    init = np.asarray(initial, dtype=float)
    if init.shape != (model.size,) or abs(init.sum() - 1.0) > 1e-9 or np.any(init < 0):
        raise ValueError("initial distribution must be a length-s probability vector")
    sm = model.transition
    patched = type(sm)(matrix=sm.matrix, stationary=init)
    return HmpModel(transition=patched, noise=model.noise)


# --- public entropy surface -----------------------------------------------

def block_entropy(model, n, noise, *, budget=None, workers=1, initial=None):
    """Entropy of the length-n observation block, H_n = -sum_y P(y) log P(y).

    ``noise`` as in sequence_probability.  Natural log.  ``initial``
    optionally replaces the stationary start distribution.
    """
    warn_workers(workers)
    if n < 1:
        raise ValueError("need N >= 1")
    profile = resolve_profile(model, noise, n)
    return _entropies(model, profile, (n,), budget=budget, initial=initial)[n]


def block_entropies(model, n, noise, *, budget=None):
    """H_1..H_n as a list, all from one pass; ``noise`` as in block_entropy."""
    if n < 1:
        raise ValueError("need N >= 1")
    profile = resolve_profile(model, noise, n)
    h = _entropies(model, profile, range(1, n + 1), budget=budget)
    return [h[i] for i in range(1, n + 1)]


def conditional_entropy(model, n, noise, *, budget=None, workers=1, initial=None):
    """H(Y_n | Y_1..Y_{n-1}) = H_n - H_{n-1}, both terms from one pass."""
    warn_workers(workers)
    if n < 2:
        raise ValueError("need N >= 2")
    profile = resolve_profile(model, noise, n)
    h = _entropies(model, profile, (n - 1, n), budget=budget, initial=initial)
    return h[n] - h[n - 1]


def multi_site_F(model, profile, *, budget=None, workers=1):
    """Per-site-noise conditional entropy H(Z_1..Z_n) - H(Z_1..Z_{n-1}).

    With every profile entry equal this reduces to conditional_entropy.
    """
    warn_workers(workers)
    if not isinstance(profile, (list, tuple)) or len(profile) < 2:
        raise ProfileLengthMismatch("profile must list at least two sites")
    n = len(profile)
    profile = resolve_profile(model, profile, n)
    h = _entropies(model, profile, (n - 1, n), budget=budget)
    return h[n] - h[n - 1]


def mixed_partial_F(model, kvec, *, budget=None, workers=1):
    """Mixed partial of the per-site conditional entropy at zero noise.

    Site i gets its own expansion variable.  Higher powers of a variable
    cannot reach the target coefficient, so the multijet lives in the box
    e <= kvec; inside it the total degree never exceeds sum(kvec), so the
    total-degree cap plays no part.
    """
    warn_workers(workers)
    kvec = [int(k) for k in kvec]
    if len(kvec) < 2:
        raise ValueError("kvec must cover at least two sites")
    if any(k < 0 for k in kvec):
        raise ValueError("kvec entries must be >= 0")
    n = len(kvec)
    profile = [MultiJet.variable(i, n, sum(kvec), bounds=kvec) for i in range(n)]
    f = multi_site_F(model, profile, budget=budget)
    return f.mixed_partial(kvec)
