"""Exact entropy computations by full enumeration of observation sequences.

Every quantity here is a sum over all s**N observation sequences of a
forward-algorithm probability.  Plain-number, UniJet and MultiJet noise
all run through one prefix trellis: level n holds the forward variables
of all s**n prefixes as arrays of shape (w, s, prefixes), w the size of
the jets' exponent set (1 for plain numbers, K+1 for an order-K UniJet).
The Taylor-coefficient axis comes first everywhere, from the site tensors
to the p*log(p) sums, so each coefficient is one contiguous slab and the
jet kernel in jets.py works on whole slabs.  Each level yields its block
entropy H_n as the walk passes it, so one pass to depth N gives
H_1..H_N.  The walk's root is the start law (stationary, or
``initial``).  A step propagates through M and emits through the site
tensor R(eps) = I + eps*T: a truncated jet product, a shift-and-add over
the nonzero coefficients of the site's jet since R has degree 1 in eps.
sequence_probability takes the same steps along one path.  One builder,
_site_tensors, makes every site tensor: it takes an (n, w) matrix of
noise coefficients, one row per site, and returns all n tensors in one
broadcast.  _sites admits the noise once and stacks it into that matrix;
a shared value's one site tensor serves every site.

One vanishing rule serves every number type: a sequence whose
probability is exactly zero, every coefficient, is structurally
unreachable and adds nothing; any other constant term below 1e-300
raises UnreachableSequence.  No constant term is negative, not even by
rounding: eps, or a noise jet's constant term, is finite (check_epsilon)
and at most epsilon_max = fl(1/|t_ii|), and fl(x * fl(1/x)) <= 1, so
every entry of R(eps) is >= 0; M > 0, and the start law is >= 0.

Mixed partials need one coefficient, x**kvec, the highest of the box
{e <= kvec}, and take it through one derivative along a noisy site i;
_Slope states the identity.  When kvec[-1] > 0, i is the last site and
the walk stops at level N-1.  The slope is the walk's noise: it builds
its own site tensors from a one-hot noise matrix over the walked box, so
no jet is built and no noise is admitted.  The budget still counts s**N
sequences, and is checked before any exponent set or site tensor is
built.

Symmetry: let G be the symmetries of M and T (HmpModel.symmetries) that
also fix the start law.  Applying sigma to every site of a sequence keeps
its probability, for any per-site noise, so the sequences starting with
a and with sigma(a) contribute the same sum.  The walk therefore visits
only first symbols that are the smallest of their orbit, and weights
each one's block sums by the orbit size.  Without symmetry every symbol
is its own orbit, of weight 1.  The stationary start is the model's
symmetric_stationary; an explicit ``initial`` must be G-fixed bit for bit.

The walk is depth-first over blocks of at most _CHUNK prefixes, so its
working set grows with N, not with s**N, and the last level is never held
whole; of each block it keeps only the block sums (see check_budget).
A block's children come in (symbol, parent) order, which keeps the step
free of copies; each block carries its provenance (_row_indices), from
which an underflow alone names the true sequence.

Enumeration cost is exponential and deliberately explicit: any request
beyond the sequence budget (default 2**24) raises instead of grinding,
before any profile or site tensor is built (see check_budget).  The
p*log(p) terms are taken in batches.  Each summed block is checked for
underflow as the walk meets it, so the same sequence is named at the
same point; its live rows then wait, tagged with their level and orbit
weight, until at least _CHUNK rows of any levels are pending or the walk
ends; then one jet log and one jet product (or the slope's log and
reversed dot product) serve them all.
Both act row by row, so a row's terms have the same bits in any batch.
Numpy sums each block's own slice of the terms pairwise, per coefficient,
as if the block were alone; a level appends its block sums to one float
buffer and is their math.fsum, the correctly rounded sum, so H_n does not
depend on the order the walk visits the blocks in.  Blocks and their row
order depend only on the level and the start, so on one machine and numpy
build a given H_n is the same bits whichever call computes it.  Everything
runs serially in the calling process; the ``workers`` argument is
deprecated, ignored, and warns when not 1.
"""

from __future__ import annotations

import math
import warnings
from array import array
from itertools import product

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigMismatch,
    DegreeExceedsCap,
    ProfileLengthMismatch,
    UnreachableSequence,
)
from .jets import MULTIJET_MAX_DEGREE, MULTIJET_MAX_VARS, Jet, exponent_set
from .model import ROW_SUM_TOL, check_epsilon, check_symbols, check_whole, row_sum

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


def check_budget(s, n, budget=None):
    """Raise BudgetExceeded unless s**n sequences fit the budget.

    The trellis checks it before it builds any profile or site tensor, at
    a cost that does not grow with n: s >= 2, so n >= budget.bit_length()
    already means s**n > budget.

    The budget bounds time, and through it memory.  Per level the
    depth-first trellis walk holds one block of at most _CHUNK = 512
    prefixes, s*(K+1) floats each, about s * 512 * (K+1) * 8
    bytes: 0.1 MB at s = 2, K = 11.  Each summed level also appends w
    floats of block sums per block to one buffer that lives until the walk
    ends (w = K+1 for an order-K UniJet), at most about s**n / _CHUNK
    blocks at level n, so that it can add them exactly.  The p*log(p)
    batch holds fewer than 2 * _CHUNK rows of w floats, and its log and
    product a few arrays of that size while they run.  block_entropy at
    s = 2, K = 11 peaks at 0.75 MiB (tracemalloc) for n = 12, 1.12 MiB for
    n = 16 and 1.59 MiB for n = 20.  block_entropies on the binary
    symmetric chain at n = 24, the largest order the default budget admits,
    peaks at 5.0 MiB for K = 11 and 18.5 MiB for K = 45.  A budget that is
    not a whole number raises ValueError.
    """
    budget = DEFAULT_BUDGET if budget is None else check_whole("budget", budget)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n >= budget.bit_length() or s ** n > budget:
        raise BudgetExceeded(
            f"N = {n} needs {s}**{n} sequences, over the budget of {budget}")


def enumerate_sequences(s, n, budget=None):
    """All length-n observation sequences over [0, s), lexicographically."""
    s, n = check_whole("s", s), check_whole("n", n)
    if s < 2 or n < 1:
        raise ValueError("need s >= 2 and N >= 1")
    check_budget(s, n, budget)
    return product(range(s), repeat=n)


# --- noise admission ------------------------------------------------------

def _sites(model, noise, n):
    """Admit ``noise``, a shared value or n per-site values (a list, tuple
    or 1-d array, see _profile): the n site tensors r[i] (w, s, s, 1) from
    _site_tensors, w the size of its exponent set; that set; and the result
    type (its first jet, or None).  Checks, in order: the length; per
    value, a jet's configuration, finiteness, and the range of a scalar or
    a jet's constant term; then that univariate and multivariate jets do
    not mix.  The admitted values are stacked into an (n, w) matrix of
    noise coefficients: a jet's own, a float v as the constant jet v * e_0
    of the profile's width.  A shared value is checked once and its one
    tensor, listed n times, serves every site.
    """
    noise = _profile(noise)
    shared = not isinstance(noise, (list, tuple))
    values = [noise] if shared else list(noise)
    if not shared and len(values) != n:
        raise ProfileLengthMismatch(f"profile has {len(values)} sites, expected {n}")
    first = {}  # first jet of each class, which later ones must match
    for i, v in enumerate(values):
        if isinstance(v, Jet):
            first.setdefault(type(v), v)._coerce(v)
            if not np.isfinite(v.coeffs).all():
                raise ValueError(f"noise jet has a non-finite coefficient: {v!r}")
            check_epsilon(model.epsilon_max, v.coeffs[0])
        else:
            values[i] = check_epsilon(model.epsilon_max, v)
    if len(first) > 1:
        raise ConfigMismatch("profile mixes univariate and multivariate jets")
    jet = next(iter(first.values()), None)
    space = exponent_set((), 0) if jet is None else jet.space
    eps = np.zeros((len(values), space.size))
    for row, v in zip(eps, values):
        if isinstance(v, Jet):
            row[:] = v.coeffs
        else:
            row[0] = v
    r = _site_tensors(model, eps)
    return list(r) * n if shared else r, space, jet


def _profile(noise):
    # a 1-d array is a per-site profile, a 0-d one a shared value
    ndim = noise.ndim if isinstance(noise, np.ndarray) else 0
    if ndim > 1:
        raise ValueError(f"a noise array must be 0-d or 1-d, got shape {noise.shape}")
    return noise.tolist() if ndim else noise


def _site_tensors(model, eps):
    """Site tensors r[i][:, x, y, 0] = unit * delta_xy + eps[i] * t[x, y],
    shape (n, w, s, s, 1), for the rows of eps (n, w), each site's noise
    coefficients over an exponent set of w members (unit is its constant
    term 1): every site in one broadcast.  Slabs past the constant add
    0.0, which turns each -0.0 product into the 0.0 of 0*delta + t*eps."""
    r = model.noise.matrix[:, :, None] * eps[:, :, None, None, None]
    r[:, 0] += np.eye(model.size)[:, :, None]
    r[:, 1:] += 0.0
    return r


def _step(pred, site, space):
    """Children (w, s, c*P) of P prefixes with predicted state mass pred
    (w, s, P): alpha[x] = pred[x] * R[x, y] for the c symbols y of site
    (w, s, c, 1).  Child row y*P + p extends prefix p by the y-th symbol."""
    w, s, _ = pred.shape
    return space.mul(pred[:, :, None, :], site).reshape(w, s, -1)


def _root(start, space):
    # state mass at the root of the walk: the start law as constant jets
    root = np.zeros((space.size, len(start), 1))
    root[0, :, 0] = start
    return root


def sequence_probability(model, symbols, noise):
    """Probability of one observation sequence under the given noise.

    ``noise`` is a shared value (float or jet) or a per-site profile,
    admitted as in _sites, also for the empty sequence, whose probability
    is 1; the result has the noise's number type.  Shared-noise results are
    polynomials of degree <= N in the noise variable.  ``symbols`` must be
    one-dimensional with integer entries in [0, s), else ValueError.
    """
    symbols = check_symbols(model.size, symbols).tolist()
    r, space, jet = _sites(model, noise, len(symbols))
    mt = model.transition.matrix.T
    alpha = _root(model.transition.stationary, space)
    for i, y in enumerate(symbols):
        alpha = _step(mt @ alpha if i else alpha, r[i][:, :, y:y + 1], space)
    p = alpha.sum(axis=1)[:, 0]
    return float(p[0]) if jet is None else jet._like(p)


# --- symbol symmetry -----------------------------------------------------

def _symmetric_start(model, initial):
    """The start law and the symmetries of M and T that fix it.

    The start is ``initial`` if it is a length-s probability vector (every
    check is a comparison that NaN fails) over its row_sum, like a
    transition row, and only the symmetries that fix it bit for bit are
    kept.  Without ``initial`` every symmetry is kept and the start is
    model.symmetric_stationary.
    """
    g = model.symmetries
    if initial is None:
        return model.symmetric_stationary, g
    init = np.asarray(initial, dtype=float)
    if not (init.shape == (model.size,) and np.all(init >= 0)
            and abs((total := row_sum(init)) - 1.0) <= ROW_SUM_TOL):
        raise ValueError("initial distribution must be a length-s probability vector")
    init = init / total
    return init, g[(init[g] == init).all(axis=1)]


def _runs(g):
    """[a, c, size]: symbols a..a+c-1 are each the smallest of an orbit of
    that size.  The runs are maximal; together they meet every orbit once."""
    runs = []
    for a, orbit in enumerate(g.T.tolist()):
        if a == min(orbit):
            size = len(set(orbit))
            if runs and runs[-1][0] + runs[-1][1] == a and runs[-1][2] == size:
                runs[-1][1] += 1
            else:
                runs.append([a, 1, size])
    return runs


# --- prefix trellis -------------------------------------------------------

def _row_indices(origin, s):
    """Lexicographic indices of a block's rows, in _step's (symbol, parent)
    order, from its provenance: level-1 symbols, or (parent provenance, parents)."""
    if not isinstance(origin, tuple):
        return origin
    parent, parents = origin
    return (_row_indices(parent, s)[parents] * s + np.arange(s)[:, None]).ravel()


def _live(p, origin, n, s):
    """The rows of p (w, R) whose probability is not exactly zero.

    p holds the level-n prefixes of the block with provenance ``origin``;
    any other row whose constant term underflows raises
    UnreachableSequence naming that prefix, through _row_indices.
    """
    if p[0].min() >= _P_FLOOR:  # NaN fails it and is kept below
        return p
    low = p[0] < _P_FLOOR
    # A row that is exactly zero is a structurally unreachable sequence
    # (point-mass start, or a hard zero in the emission pattern); its
    # p*log(p) term is zero.  No constant term is negative, since R(eps) >= 0
    # at every admissible eps (see the module docstring).  Tiny-but-nonzero
    # constant terms cannot occur for strictly positive M and mean the sum
    # is corrupt.
    vanished = ~p.any(axis=0)
    bad = np.flatnonzero(low & ~vanished)
    if bad.size:
        index = _row_indices(origin, s)[bad[0]]
        seq = tuple(int(d) for d in np.unravel_index(index, (s,) * n))
        raise UnreachableSequence(f"P{seq} = {p[:, bad[0]].tolist()} underflowed")
    return p[:, ~low]


def _entropies(model, noise, levels, initial=None, budget=None):
    """{n: H_n} for each n in levels, from one depth-first walk rooted at
    the start law (see _symmetric_start) and reduced by its symmetries.

    levels ascend; the budget is checked at the last, the depth, before
    ``noise`` is admitted.  ``noise`` is a shared value or a per-site
    profile (_sites), or a _Slope: the walk then steps through the slope's
    own site tensors and exponent set, and each H_n is the float
    coefficient the slope takes of it.  Those tensors cover all but the
    last site when the slope is along the last site, whose probabilities
    the walk reads off instead (_Slope.read_off).
    """
    s = model.size
    depth = levels[-1]
    start, g = _symmetric_start(model, initial)
    check_budget(s, depth, budget)
    slope = noise if isinstance(noise, _Slope) else None
    r, space, jet = (_sites(model, noise, depth) if slope is None
                     else (slope.sites, slope.space, None))
    mt = model.transition.matrix.T
    # each level's block sums, w floats per block in walk order
    sums = {n: array("d") for n in levels}
    width = max(1, _CHUNK // s)  # parents per block, so a block has <= _CHUNK rows

    # (level, weight, live rows) of the blocks whose p*log(p) is not yet
    # taken, and how many rows they hold
    pending = []
    held = 0

    def flush():
        nonlocal held
        # log and product act row by row, so one call over the pending rows
        # of many blocks gives each row the bits it would get alone, and
        # numpy sums each block's own slice pairwise as if it were alone
        p = np.concatenate([rows for _, _, rows in pending], axis=1)
        terms = space.mul(space.log(p), p) if slope is None else slope(p)[None]
        lo = 0
        for n, weight, rows in pending:
            hi = lo + rows.shape[1]
            sums[n].frombytes((weight * terms[:, lo:hi].sum(axis=1)).tobytes())
            lo = hi
        pending.clear()
        held = 0

    def take(p, origin, n, weight):
        # p (w, R): probabilities of the level-n sequences of the block with
        # provenance origin, each standing for the `weight` sequences its
        # orbit maps it to
        nonlocal held
        rows = _live(p, origin, n, s)
        pending.append((n, weight, rows))
        held += rows.shape[1]
        if held >= _CHUNK:
            flush()

    def visit(alpha, origin, n, weight):
        # alpha (w, s, R): state mass of the level-n prefixes of block origin
        if n in sums:
            take(alpha.sum(axis=1), origin, n, weight)
        if n < depth:
            for lo in range(0, alpha.shape[2], width):
                parents = slice(lo, lo + width)
                # the predicted mass stays a temporary: a name holding it
                # across the recursion cost `expand` 3-9%
                if n < len(r):
                    child = _step(mt @ alpha[:, :, parents], r[n], space)
                    visit(child, (origin, parents), n + 1, weight)
                else:  # the last site, which has no site tensor
                    child = slope.read_off(mt @ alpha[:, :, parents])
                    take(child, (origin, parents), n + 1, weight)

    root = _root(start, space)
    for a, count, weight in _runs(g):
        visit(_step(root, r[0][:, :, a:a + count], space), np.arange(a, a + count),
              1, weight)
    if pending:
        flush()
    # each coefficient of H_n is the correctly rounded sum of its block sums
    w = space.size
    return {n: -math.fsum(buf) if jet is None else
            jet._like(-np.array([math.fsum(buf[k::w]) for k in range(w)]))
            for n, buf in sums.items()}


class _Slope:
    """The Taylor coefficient [x**kvec] (p log p) of sequence probabilities
    p, taken through one derivative along a noisy site i.

    Site i's emission I + x_i T has degree 1 in x_i, and no other factor
    of p holds x_i, so p = p0 + x_i p_i with p0, p_i free of x_i, and
    d/dx_i (p log p) = p_i (log p + 1).  Hence

        [x**kvec] (p log p) = [x**(kvec - e_i)] p_i (log p' + 1) / k_i,

    p' = p mod x_i**k_i, since no power of x_i past k_i - 1 reaches the
    coefficient.  The 1 drops out of the level's sum: the probabilities
    of a level sum to 1 at any noise, so their p_i sum to 0.  The log runs
    on the box with k_i lowered by one.  p_i has no x_i, so only the slab
    of the log at x_i**(k_i - 1) meets it, over the box {e <= t} without
    x_i, t = kvec with k_i set to 0.  Each box is capped at its own sum,
    so it is whole, and one box is one cached set whichever kvec walks it;
    a whole box's flat C order is its mixed-radix code, so e and
    t - e sit at mirrored flat indices, and the coefficient of x**t in
    the product is one reversed dot product per row.

    i is the last site when kvec[-1] >= 1: the walk then stops one level
    short and reads p0 = (M^T alpha)[y] and p_i = (T^T M^T alpha)[y] off
    the predicted state mass (read_off), so x_i never enters the trellis
    box.  Otherwise i is a noisy site of lowest order, whose log box is
    smallest relative to the whole box.

    The walk's noise is x_j at each site j it steps through, over the
    walked box (kvec, with the last entry 0 when i is the last site).
    The slope writes that as an (n, w) noise matrix, one-hot at x_j's flat
    index for each walked site with k_j >= 1 and 0 elsewhere, and keeps
    the exponent set in ``space`` and the tensors _site_tensors builds
    from the matrix in ``sites``.
    """

    def __init__(self, model, kvec):
        n = len(kvec)
        i = n - 1 if kvec[-1] else min(
            (j for j in range(n) if kvec[j]), key=kvec.__getitem__)
        self.order = k = kvec[i]
        radix = [b + 1 for b in kvec]
        # a jet array over the whole box, viewed along x_i
        self.shape = (math.prod(radix[:i]), k + 1, math.prod(radix[i + 1:]))
        lower = tuple(kvec[:i]) + (k - 1,) + tuple(kvec[i + 1:])
        self.lower = exponent_set(lower, sum(lower))
        walked = kvec[:-1] + [0] if i == n - 1 else kvec
        self.space = exponent_set(tuple(walked), sum(walked))
        # the sites the walk steps through, last one read off if it is i
        eps = np.zeros((n - (i == n - 1), self.space.size))
        for j, row in enumerate(eps):
            if walked[j]:
                row[self.space.index[(0,) * j + (1,) + (0,) * (n - 1 - j)]] = 1.0
        self.sites = _site_tensors(model, eps)
        self.noise_t = model.noise.matrix.T

    def read_off(self, pred):
        """The whole-box probabilities (w * (k+1), s*P) of the P prefixes
        with predicted state mass pred (w, s, P) extended by each symbol y,
        rows in the (symbol, parent) order of _step: p0 = pred[y] and
        p_i = (T^T pred)[y]."""
        w = pred.shape[0]
        p = np.zeros((w, self.order + 1, pred[0].size))
        p[:, 0] = pred.reshape(w, -1)
        p[:, 1] = (self.noise_t @ pred).reshape(w, -1)
        return p.reshape(w * (self.order + 1), -1)

    def __call__(self, p):
        """[x**(kvec - e_i)] p_i log p' for whole-box jet arrays p (w, R),
        one float per row: summed over a level, k_i [x**kvec] of its
        sum p log p."""
        outer, _, inner = self.shape
        p = p.reshape(*self.shape, -1)
        logp = self.lower.log(p[:, :-1].reshape(self.lower.size, -1))
        top = logp.reshape(outer, self.order, inner, -1)[:, -1]
        p_i = p[:, 1].reshape(outer * inner, -1)
        return (top.reshape(outer * inner, -1) * p_i[::-1]).sum(axis=0)


# --- public entropy surface -----------------------------------------------

def block_entropy(model, n, noise, *, budget=None, workers=1, initial=None):
    """Entropy of the length-n observation block, H_n = -sum_y P(y) log P(y).

    ``noise`` as in sequence_probability.  Natural log.  ``initial``
    optionally replaces the stationary start distribution.
    """
    warn_workers(workers)
    n = check_whole("n", n)
    if n < 1:
        raise ValueError("need N >= 1")
    return _entropies(model, noise, (n,), initial, budget)[n]


def block_entropies(model, n, noise, *, budget=None):
    """H_1..H_n from one pass from the stationary start; see block_entropy."""
    n = check_whole("n", n)
    if n < 1:
        raise ValueError("need N >= 1")
    h = _entropies(model, noise, range(1, n + 1), budget=budget)
    return [h[i] for i in range(1, n + 1)]


def conditional_entropy(model, n, noise, *, budget=None, workers=1, initial=None):
    """H(Y_n | Y_1..Y_{n-1}) = H_n - H_{n-1}, both terms from one pass."""
    warn_workers(workers)
    n = check_whole("n", n)
    if n < 2:
        raise ValueError("need N >= 2")
    h = _entropies(model, noise, (n - 1, n), initial, budget)
    return h[n] - h[n - 1]


def multi_site_F(model, profile, *, budget=None, workers=1):
    """Per-site-noise conditional entropy H(Z_1..Z_n) - H(Z_1..Z_{n-1}):
    conditional_entropy on the per-site profile, n = len(profile) >= 2."""
    warn_workers(workers)
    profile = _profile(profile)
    if not isinstance(profile, (list, tuple)) or len(profile) < 2:
        raise ProfileLengthMismatch("profile must list at least two sites")
    return conditional_entropy(model, len(profile), profile, budget=budget)


def mixed_partial_F(model, kvec, *, budget=None, workers=1):
    """Mixed partial of the per-site conditional entropy at zero noise.

    Site i gets its own expansion variable.  Higher powers of a variable
    cannot reach the target coefficient, so only the box e <= kvec
    matters, and of it only the top coefficient, x**kvec, is computed,
    through one derivative along a noisy site; _Slope states the identity
    and which site, and is the noise of the one _entropies walk.  When
    kvec[-1] > 0, H_{N-1} has no term in the last site's variable and adds
    exactly 0.  The budget counts s**N sequences all the same.  An
    all-zero kvec is F at zero noise: conditional_entropy(model, N, 0.0).

    Entries of kvec must be whole numbers >= 0 (1.0 is accepted), at
    least two of them, else ValueError.  kvec may have at most
    MULTIJET_MAX_VARS (10) entries summing to at most MULTIJET_MAX_DEGREE
    (12), else DegreeExceedsCap, raised after the budget check and before
    any exponent set is built.

    A sequence probability too small for the walk raises
    UnreachableSequence: below the 1e-300 floor, naming the sequence, and
    also when it passes the floor but the slope's log overflows, naming
    kvec, so no nan or inf is returned.  A finite value is not thereby
    accurate, and no error bar is computed: with a transition entry of
    1e-60, kvec (1, 1, 3) gives 1.08e222 and (1, 2, 1) gives -7.8e236.
    """
    warn_workers(workers)
    kvec = [check_whole("kvec entry", k) for k in kvec]
    if len(kvec) < 2:
        raise ValueError("kvec must cover at least two sites")
    if any(k < 0 for k in kvec):
        raise ValueError("kvec entries must be >= 0")
    n = len(kvec)
    check_budget(model.size, n, budget)  # before any exponent set is built
    if n > MULTIJET_MAX_VARS or sum(kvec) > MULTIJET_MAX_DEGREE:
        raise DegreeExceedsCap(
            f"kvec {tuple(kvec)} needs at most {MULTIJET_MAX_VARS} sites of total "
            f"order at most {MULTIJET_MAX_DEGREE}")
    if not any(kvec):
        return conditional_entropy(model, n, 0.0, budget=budget)
    slope = _Slope(model, kvec)
    levels = (n,) if kvec[-1] else (n - 1, n)
    # constant terms just above the floor may overflow the slope's log;
    # the value is then not finite, and refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h = _entropies(model, slope, levels, budget=budget)
    # the slope carries a factor k_i, which (k_i - 1)! leaves out
    factor = math.prod(math.factorial(k) for k in kvec) // slope.order
    value = (h[n] - h.get(n - 1, 0.0)) * factor
    if not math.isfinite(value):
        raise UnreachableSequence(
            f"mixed partial {tuple(kvec)} = {value!r}: a sequence probability is "
            "too small for the walk")
    return value
