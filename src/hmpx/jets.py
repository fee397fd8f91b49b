"""Truncated Taylor-series arithmetic ("jets").

A jet is a number-like value that carries a function's Taylor coefficients
up to a fixed truncation.  Feeding jet variables through ordinary
arithmetic propagates exact derivatives: if ``e = UniJet.variable(4)`` then
``(1 + e).log()`` holds the first five coefficients of log(1+x).

Every jet is a dense coefficient vector over a downward-closed exponent
set, and one kernel, ``ExponentSet``, owns that format: the flat order of
the exponents and one shift table, which drives both the truncated
product and the log (a triangular solve over the same shifts).  The table
is built per support pattern of the operand it sweeps, each row when it
is first read.  The sets in use are

* ``{()}`` for plain numbers (width 1, only the engine uses it);
* ``{0..K}`` for a ``UniJet`` of order K;
* ``{e <= bounds, sum(e) <= cap}`` for a ``MultiJet`` in nvars variables.

``mul`` and ``log`` shift only the coefficients of the operand they sweep
that are nonzero in some jet of the batch (``ExponentSet.shifts_on``).
The engine's jets are mostly zeros there: each site's emission I + x_i T
has degree 1 in its own variable, so a sequence probability is
multilinear, and a prefix's state mass holds only the variables of the
sites before it.  A skipped source is zero in every jet, so the cut drops
only terms b_j * (+-0) and no nonzero coefficient changes a bit.  Two
results can differ from the shift loop over every source: a zero all of
whose kept terms are -0, with a dropped term +0, stays -0 where that
loop gives +0 (they compare equal, and through +, *, fsum and the log's
division by a0 > 0 the sign of a zero reaches only the sign of another
zero); and a 0 * inf NaN, in a row that already overflowed, is not
formed.

There is one value type, ``Jet``: an immutable coefficient vector over an
ExponentSet, with +, -, * (with jets of its own class and configuration,
and with plain scalars) and log(), every jet product and log going
through the kernel.  No division or exp; the entropy sums only need the
(-p log p) calculus.  Its two classes differ only in constructors,
accessors and the error raised when configurations differ:

``UniJet``
    One expansion variable, fixed order K; mixing orders raises
    OrderMismatch.  Indexing and evaluation read the coefficients.

``MultiJet``
    n expansion variables truncated by *total* degree, optionally also
    per variable; mixing (nvars, cap, bounds) raises ConfigMismatch.
    Adds extraction of mixed partial derivatives and specialization of
    all variables to a single shared one (which must reproduce the
    UniJet result).  Storage is dense, so a configuration whose exponent
    set has more than MAX_EXPONENTS members is refused with
    DegreeExceedsCap before any table is built.

All operations return fresh jets; a mismatch is an error, never an
implicit resize, and a UniJet and a MultiJet do not combine (TypeError).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigMismatch,
    DegreeExceedsCap,
    NonPositiveConstantTerm,
    OrderMismatch,
)
from .model import check_whole

# Refusal caps for the multivariate layer; lemma checks only need tiny
# systems and anything larger would thrash.
MULTIJET_MAX_VARS = 10
MULTIJET_MAX_DEGREE = 12
# Largest exponent set a jet may span.  Tables and products grow with the
# square of the set; the mixed-partial boxes have at most 2304 members.
MAX_EXPONENTS = 4096
# Support patterns whose shift tables one exponent set keeps; the three
# 100-instance lemma batteries meet at most 5 per set.
MAX_SUPPORTS = 16

_SCALARS = (int, float, np.integer, np.floating)


# --- exponent-set kernel ----------------------------------------------------

def _set_size(bounds, cap):
    if len(bounds) == 1:
        return min(bounds[0], cap) + 1
    # ways[d] = exponent prefixes of total degree d
    ways = [1] + [0] * cap
    for b in bounds:
        ways = [sum(ways[d - v] for v in range(min(b, d) + 1)) for d in range(cap + 1)]
    return sum(ways)


def _exponent(exponents, nvars):
    """exponents as a tuple of ints; ValueError unless it has nvars whole
    entries >= 0."""
    if not np.iterable(exponents):
        raise ValueError(f"bad exponent vector {exponents!r} for nvars={nvars}")
    e = tuple(check_whole("exponent entry", k) for k in exponents)
    if len(e) != nvars or any(k < 0 for k in e):
        raise ValueError(f"bad exponent vector {e} for nvars={nvars}")
    return e


def _as_index(idx):
    """A non-empty ascending index run as a slice when its indices are
    consecutive, else idx itself."""
    start, stop = int(idx[0]), int(idx[-1]) + 1
    return slice(start, stop) if stop - start == idx.size else idx


class ExponentSet:
    """Index table of the exponent set {e <= bounds, sum(e) <= cap}.

    A jet over the set is a coefficient vector in flat C order of the
    exponents; in that order every divisor of an exponent comes before it.
    Arrays of jets keep the coefficients on axis 0, of length ``size``, and
    the jets on the trailing axes, so each coefficient is one contiguous
    slab.  The set holds the exponents as a matrix, their degrees, the
    largest exponent top = min(bounds, cap), the cap and the mixed-radix
    codes of the bounding box, and builds no shift row up front.

    The one table says where each coefficient lands when multiplied by
    x**e_j.  ``shifts_on(a)`` gives it over the support of the jet array
    a, the coefficients nonzero in some jet of the batch, and ``mul`` and
    ``log`` both read it there.  Its row j = (src, dst) lists the live
    exponents e with e + e_j in the set and the flat indices of those
    sums, or is () when no live e fits; see the module docstring for why
    every nonzero coefficient keeps its bits.  src and dst are ascending,
    and each is kept as a slice where its indices are consecutive.  dst is
    found from the mixed-radix codes: no digit carries, so code(e + e_j) =
    code(e) + code(e_j).  The set keeps one table per support pattern, at
    most MAX_SUPPORTS of them, and builds each row when it is first read.
    A width-1 set needs no table: its product and log are elementwise.
    Use ``exponent_set`` to get one: it caches the set and refuses
    oversized sets.
    """

    def __init__(self, bounds, cap):
        exps = [()]
        for b in bounds:
            exps = [e + (v,) for e in exps for v in range(min(b, cap - sum(e)) + 1)]
        self.size = len(exps)
        self.exponents = tuple(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        e = np.array(exps, dtype=np.int64).reshape(self.size, len(bounds))
        deg = e.sum(axis=1)
        self.degree = tuple(int(d) for d in deg)
        # C-order codes in the bounding box are ascending, so searchsorted
        # maps an exponent to its index.
        top = np.array([min(b, cap) for b in bounds], dtype=np.int64)
        strides = np.array([math.prod(top[d + 1:] + 1) for d in range(top.size)],
                           dtype=np.int64)
        # what _CutShifts builds each shift row from
        self.exps, self.deg, self.codes = e, deg, e @ strides
        self.top, self.cap = top, cap
        self._cut = {}  # support pattern of a swept operand -> _CutShifts

    def mul(self, a, b):
        """Truncated product of jet arrays, coefficients on axis 0 and the
        trailing axes broadcast (so a and b have the same number of axes).

        One shift-and-add per nonzero coefficient of b, so a sparse factor
        such as an emission tensor costs only its nonzero terms, each
        shifting only the nonzero coefficients of a (``shifts_on``).
        """
        out = a * b[:1]
        if self.size == 1:
            return out
        shifts = self.shifts_on(a)
        nonzero = np.flatnonzero(b.reshape(self.size, -1).any(axis=1))
        for j in nonzero[nonzero > 0].tolist():
            shift = shifts[j]
            if shift:
                src, dst = shift
                out[dst] += b[j] * a[src]
        return out

    def log(self, a):
        """Natural log of jet arrays, coefficients on axis 0, batched over
        the trailing axes.

        Needs a[0] > 0, which the caller checks.  Solves the triangular
        system a * E(b) = E(a) for b = log a, where the Euler operator E
        multiplies the coefficient of x**e by |e|; on {0..K} this is
        a * (log a)' = a'.  The solve is right-looking, in flat order: once
        b_k is known, shifts[k] adds a * |e_k| b_k into acc, the part of
        a * E(b) already known at every coefficient above it.
        """
        if self.size == 1:
            return np.log(a)
        shifts = self.shifts_on(a)
        b = np.empty_like(a)
        acc = np.zeros_like(a)
        a0 = a[0]
        b[0] = np.log(a0)
        # a tiny a0 may overflow a coefficient; the caller sees inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, self.size):
                d = self.degree[k]
                b[k] = (a[k] - acc[k] / d) / a0
                src, dst = shifts[k]
                acc[dst] += a[src] * (d * b[k])
        return b

    def shifts_on(self, a):
        """The shift table cut to the support of the jet array a, the
        coefficients nonzero in some jet of the batch: j -> (src, dst), or
        () when no source is left.  Kept per support pattern; past
        MAX_SUPPORTS patterns the oldest is dropped."""
        live = a.reshape(self.size, -1).any(axis=1)
        key = live.tobytes()
        table = self._cut.get(key)
        if table is None:
            if len(self._cut) == MAX_SUPPORTS:
                del self._cut[next(iter(self._cut))]
            table = self._cut[key] = _CutShifts(self, live)
        return table


class _CutShifts(dict):
    """The shift table of an ExponentSet over the sources in the boolean
    mask live, each row built when it is first read."""

    def __init__(self, space, live):
        super().__init__()
        self.space = space
        self.live = live

    def __missing__(self, j):
        space = self.space
        fits = ((space.exps <= space.top - space.exps[j]).all(axis=1)
                & (space.deg <= space.cap - space.deg[j]))
        src = np.flatnonzero(self.live & fits)
        if src.size:
            dst = np.searchsorted(space.codes, space.codes[src] + space.codes[j])
            shift = _as_index(src), _as_index(dst)
        else:
            shift = ()
        self[j] = shift
        return shift


@lru_cache(maxsize=256)
def exponent_set(bounds, cap):
    """Cached ExponentSet for a bounds tuple and total-degree cap.

    Raises DegreeExceedsCap when the set has more than MAX_EXPONENTS members.
    The cache keeps each set with the shift rows read so far.  The three
    100-instance lemma batteries of acceptance criterion 4 ask for 342
    sets (cache_info().misses), so the cache ends at its limit: 256 sets
    with at most 5 support patterns each, in under 2 MB (tracemalloc:
    about 1.66 MB).
    """
    size = _set_size(bounds, cap)
    if size > MAX_EXPONENTS:
        raise DegreeExceedsCap(f"exponent set bounds={bounds} cap={cap} has {size} "
                               f"members, over the limit of {MAX_EXPONENTS}")
    return ExponentSet(bounds, cap)


class Jet:
    """Immutable jet: a coefficient vector ``coeffs`` over ``space``.

    Holds the arithmetic both jet classes share.  ``_config`` identifies
    the truncation; jets of one class combine only when it matches, and
    otherwise raise the class's ``mismatch`` error.  Jets of different
    classes do not combine at all (TypeError).
    """

    __slots__ = ("_config", "space", "coeffs")
    __array_ufunc__ = None  # numpy scalars defer to __radd__/__rmul__

    def __init__(self, config, space, coeffs):
        coeffs.flags.writeable = False
        object.__setattr__(self, "_config", config)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, coeffs):
        jet = object.__new__(type(self))
        Jet.__init__(jet, self._config, self.space, coeffs)
        return jet

    def _coerce(self, other):
        """Coefficients of a scalar or same-class jet over self.space, else None."""
        if isinstance(other, type(self)):
            if other._config != self._config:
                raise self.mismatch(f"{type(self).__name__} configs {self._config} "
                                    f"and {other._config} differ")
            return other.coeffs
        if isinstance(other, _SCALARS):
            c = np.zeros(self.space.size)
            c[0] = other
            return c
        return None

    def __add__(self, other):
        c = self._coerce(other)
        return NotImplemented if c is None else self._like(self.coeffs + c)

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        return NotImplemented if c is None else self._like(self.coeffs - c)

    def __rsub__(self, other):
        c = self._coerce(other)
        return NotImplemented if c is None else self._like(c - self.coeffs)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._like(self.coeffs * float(other))
        c = self._coerce(other)
        return NotImplemented if c is None else self._like(self.space.mul(self.coeffs, c))

    __rmul__ = __mul__

    def log(self):
        """Taylor coefficients of log(self), natural log."""
        a0 = self.coeffs[0]
        if not a0 > 0.0:  # a comparison that NaN fails
            raise NonPositiveConstantTerm(
                f"log of {type(self).__name__} with constant term {float(a0)!r}")
        return self._like(self.space.log(self.coeffs))


class UniJet(Jet):
    """Univariate truncated Taylor series; coeffs[k] multiplies x**k."""

    __slots__ = ()
    mismatch = OrderMismatch

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("UniJet needs a nonempty 1-D coefficient array")
        order = c.size - 1
        super().__init__(order, exponent_set((order,), order), c)

    @staticmethod
    def _zeros(order):
        # order + 1 zero coefficients, the order refused before allocation
        order = check_whole("order", order)
        if order < 0:
            raise ValueError("order must be >= 0")
        exponent_set((order,), order)
        return np.zeros(order + 1)

    @classmethod
    def constant(cls, value, order):
        c = cls._zeros(order)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, order):
        c = cls._zeros(order)
        if c.size > 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self):
        return self._config

    def __len__(self):
        return self.coeffs.size

    def __getitem__(self, k):
        return float(self.coeffs[k])

    def __call__(self, x):
        """Evaluate the truncated polynomial at x (Horner)."""
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc

    def __reduce__(self):
        return (UniJet, (np.array(self.coeffs),))

    def __repr__(self):
        return f"UniJet({self.coeffs.tolist()})"


def _check_config(nvars, cap):
    """(nvars, cap) as ints; ValueError unless whole, DegreeExceedsCap
    outside the refusal caps."""
    nvars, cap = check_whole("nvars", nvars), check_whole("cap", cap)
    if not (1 <= nvars <= MULTIJET_MAX_VARS):
        raise DegreeExceedsCap(f"nvars = {nvars} outside [1, {MULTIJET_MAX_VARS}]")
    if not (0 <= cap <= MULTIJET_MAX_DEGREE):
        raise DegreeExceedsCap(f"cap = {cap} outside [0, {MULTIJET_MAX_DEGREE}]")
    return nvars, cap


class MultiJet(Jet):
    """Multivariate truncated Taylor series with a total-degree cap.

    An optional ``bounds`` tuple additionally caps each variable's
    exponent; that is a quotient by a monomial ideal, so coefficients
    inside the box stay exact while everything outside is discarded.
    A noise profile with bounds = kvec, read through mixed_partial, gives,
    up to rounding, the coefficient engine.mixed_partial_F computes without jets.

    ``coeffs`` is the dense coefficient vector over ``space``, the
    exponent set {e <= bounds, sum(e) <= cap}.  Sets with more than
    MAX_EXPONENTS members raise DegreeExceedsCap; without bounds that
    refuses, for example, nvars = 5 with cap >= 11 and nvars = 10 with
    cap >= 6.
    """

    __slots__ = ()
    mismatch = ConfigMismatch

    def __init__(self, nvars, cap, terms, bounds=None):
        nvars, cap = _check_config(nvars, cap)
        if bounds is not None:
            bounds = tuple(check_whole("bounds entry", b) for b in bounds)
            if len(bounds) != nvars or any(b < 0 for b in bounds):
                raise ValueError(f"bad bounds {bounds} for nvars={nvars}")
        box = (cap,) * nvars if bounds is None else tuple(min(b, cap) for b in bounds)
        space = exponent_set(box, cap)
        c = np.zeros(space.size)
        for e, v in terms.items():
            e = _exponent(e, nvars)
            if sum(e) > cap:
                raise DegreeExceedsCap(f"exponent {e} exceeds total-degree cap {cap}")
            i = space.index.get(e)
            if i is not None:
                c[i] = float(v)
        super().__init__((nvars, cap, bounds), space, c)

    nvars = property(lambda self: self._config[0])
    cap = property(lambda self: self._config[1])
    bounds = property(lambda self: self._config[2])

    @classmethod
    def constant(cls, value, nvars, cap, bounds=None):
        nvars = check_whole("nvars", nvars)
        return cls(nvars, cap, {(0,) * nvars: float(value)}, bounds)

    @classmethod
    def variable(cls, index, nvars, cap, bounds=None):
        """Jet for the index-th variable (0-based)."""
        nvars, index = check_whole("nvars", nvars), check_whole("index", index)
        if not (0 <= index < nvars):
            raise ValueError(f"variable index {index} outside [0, {nvars})")
        e = [0] * nvars
        e[index] = 1
        if sum(e) > cap:
            return cls(nvars, cap, {}, bounds)
        return cls(nvars, cap, {tuple(e): 1.0}, bounds)

    @property
    def terms(self):
        return {self.space.exponents[i]: float(self.coeffs[i])
                for i in np.flatnonzero(self.coeffs)}

    def coefficient(self, exponents):
        """Coefficient of x**exponents; DegreeExceedsCap outside the exponent set."""
        e = _exponent(exponents, self.nvars)
        i = self.space.index.get(e)
        if i is None:
            raise DegreeExceedsCap(f"exponent {e} is outside the jet's set "
                                   f"(cap {self.cap}, bounds {self.bounds})")
        return float(self.coeffs[i])

    @property
    def constant_term(self):
        return float(self.coeffs[0])

    def mixed_partial(self, exponents):
        """Mixed partial derivative at the origin for the given exponent vector.

        The stored value is a Taylor coefficient; the derivative multiplies
        back the product of factorials.  DegreeExceedsCap outside the set.
        """
        e = _exponent(exponents, self.nvars)
        return self.coefficient(e) * math.prod(math.factorial(k) for k in e)

    def specialize_to_univariate(self):
        """Set every variable to one shared variable; returns a UniJet of order cap."""
        return UniJet(np.bincount(self.space.degree, weights=self.coeffs,
                                  minlength=self.cap + 1))

    def __reduce__(self):
        return (MultiJet, (self.nvars, self.cap, self.terms, self.bounds))

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        bounds = "" if self.bounds is None else f", bounds={self.bounds}"
        return f"MultiJet(nvars={self.nvars}, cap={self.cap}, {{{body}}}{bounds})"
