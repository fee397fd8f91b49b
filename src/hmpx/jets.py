"""Truncated Taylor-series arithmetic ("jets").

A jet is a number-like value that carries a function's Taylor coefficients
up to a fixed truncation.  Feeding jet variables through ordinary
arithmetic propagates exact derivatives: if ``e = UniJet.variable(4)`` then
``(1 + e).log()`` holds the first five coefficients of log(1+x).

Every jet is a dense coefficient vector over a downward-closed exponent
set, and one kernel, ``ExponentSet``, owns that format: the flat order of
the exponents and one shift table, which drives both the truncated
product and the log (a triangular solve over the same shifts).  The sets
in use are

* ``{()}`` for plain numbers (width 1, only the engine uses it);
* ``{0..K}`` for a ``UniJet`` of order K;
* ``{e <= bounds, sum(e) <= cap}`` for a ``MultiJet`` in nvars variables.

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

# Refusal caps for the multivariate layer; lemma checks only need tiny
# systems and anything larger would thrash.
MULTIJET_MAX_VARS = 10
MULTIJET_MAX_DEGREE = 12
# Largest exponent set a jet may span.  Tables and products grow with the
# square of the set; the mixed-partial boxes have at most 2304 members.
MAX_EXPONENTS = 4096

_SCALARS = (int, float, np.integer, np.floating)


# --- exponent-set kernel ----------------------------------------------------

def _set_size(bounds, cap):
    # ways[d] = exponent prefixes of total degree d
    ways = [1] + [0] * cap
    for b in bounds:
        ways = [sum(ways[d - v] for v in range(min(b, d) + 1)) for d in range(cap + 1)]
    return sum(ways)


def _as_index(idx):
    """A slice where idx runs through consecutive indices, else idx itself."""
    if idx.size == 0:
        return slice(0, 0)
    step = 1 if idx.size == 1 or idx[1] > idx[0] else -1
    if not np.array_equal(idx, idx[0] + step * np.arange(idx.size)):
        return idx
    stop = int(idx[-1]) + step
    return slice(int(idx[0]), None if stop < 0 else stop, step)


class ExponentSet:
    """Index table of the exponent set {e <= bounds, sum(e) <= cap}.

    A jet over the set is a coefficient vector, trailing axis of length
    ``size``, in flat C order of the exponents.  In that order every
    divisor of an exponent comes before it.  The one table, ``shifts``,
    says where each coefficient lands when multiplied by x**e_j; ``mul``
    and ``log`` both read it.  Use ``exponent_set`` to get one: it caches
    the table and refuses oversized sets.
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
        codes = e @ strides
        # shifts[j] = (src, dst): times x**e_j, coefficient src lands in dst
        self.shifts = []
        for j in range(self.size):
            t = e + e[j]
            src = np.flatnonzero((t <= top).all(axis=1) & (deg + deg[j] <= cap))
            dst = np.searchsorted(codes, t[src] @ strides)
            self.shifts.append((_as_index(src), _as_index(dst)))

    def mul(self, a, b):
        """Truncated product of jet arrays, broadcast over leading axes.

        One shift-and-add per nonzero coefficient column of b, so a sparse
        factor such as an emission tensor costs only its nonzero terms.
        """
        out = a * b[..., :1]
        nonzero = np.flatnonzero(b.reshape(-1, self.size).any(axis=0))
        for j in nonzero[nonzero > 0]:
            src, dst = self.shifts[j]
            out[..., dst] += b[..., j:j + 1] * a[..., src]
        return out

    def log(self, a):
        """Natural log of jet arrays, batched over leading axes.

        Needs a[..., 0] > 0, which the caller checks.  Solves the triangular
        system a * E(b) = E(a) for b = log a, where the Euler operator E
        multiplies the coefficient of x**e by |e|; on {0..K} this is
        a * (log a)' = a'.  The solve is right-looking, in flat order: once
        b_k is known, shifts[k] adds a * |e_k| b_k into acc, the part of
        a * E(b) already known at every coefficient above it.
        """
        a = np.moveaxis(a, -1, 0).copy()  # coefficient axis first
        b = np.empty_like(a)
        acc = np.zeros_like(a)
        a0 = a[0]
        b[0] = np.log(a0)
        for k in range(1, self.size):
            d = self.degree[k]
            b[k] = (a[k] - acc[k] / d) / a0
            src, dst = self.shifts[k]
            acc[dst] += a[src] * (d * b[k])
        return np.moveaxis(b, 0, -1)


@lru_cache(maxsize=256)
def exponent_set(bounds, cap):
    """Cached ExponentSet for a bounds tuple and total-degree cap.

    Raises DegreeExceedsCap when the set has more than MAX_EXPONENTS members.
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
        if a0 <= 0.0:
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

    @classmethod
    def constant(cls, value, order):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, order):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = np.zeros(order + 1)
        if order >= 1:
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
    if not (1 <= nvars <= MULTIJET_MAX_VARS):
        raise DegreeExceedsCap(f"nvars = {nvars} outside [1, {MULTIJET_MAX_VARS}]")
    if not (0 <= cap <= MULTIJET_MAX_DEGREE):
        raise DegreeExceedsCap(f"cap = {cap} outside [0, {MULTIJET_MAX_DEGREE}]")


class MultiJet(Jet):
    """Multivariate truncated Taylor series with a total-degree cap.

    An optional ``bounds`` tuple additionally caps each variable's
    exponent; that is a quotient by a monomial ideal, so coefficients
    inside the box stay exact while everything outside is discarded.
    Mixed-partial extraction uses it to keep the exponent set tiny.

    ``coeffs`` is the dense coefficient vector over ``space``, the
    exponent set {e <= bounds, sum(e) <= cap}.  Sets with more than
    MAX_EXPONENTS members raise DegreeExceedsCap; without bounds that
    refuses, for example, nvars = 5 with cap >= 11 and nvars = 10 with
    cap >= 6.
    """

    __slots__ = ()
    mismatch = ConfigMismatch

    def __init__(self, nvars, cap, terms, bounds=None):
        _check_config(nvars, cap)
        if bounds is not None:
            bounds = tuple(int(b) for b in bounds)
            if len(bounds) != nvars or any(b < 0 for b in bounds):
                raise ValueError(f"bad bounds {bounds} for nvars={nvars}")
        box = (cap,) * nvars if bounds is None else tuple(min(b, cap) for b in bounds)
        space = exponent_set(box, cap)
        c = np.zeros(space.size)
        for e, v in terms.items():
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e} for nvars={nvars}")
            if sum(e) > cap:
                raise DegreeExceedsCap(f"exponent {e} exceeds total-degree cap {cap}")
            i = space.index.get(tuple(e))
            if i is not None:
                c[i] = float(v)
        super().__init__((nvars, cap, bounds), space, c)

    nvars = property(lambda self: self._config[0])
    cap = property(lambda self: self._config[1])
    bounds = property(lambda self: self._config[2])

    @classmethod
    def constant(cls, value, nvars, cap, bounds=None):
        return cls(nvars, cap, {(0,) * nvars: float(value)}, bounds)

    @classmethod
    def variable(cls, index, nvars, cap, bounds=None):
        """Jet for the index-th variable (0-based)."""
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
        e = tuple(int(k) for k in exponents)
        if len(e) != self.nvars or any(k < 0 for k in e):
            raise ValueError(f"bad exponent vector {exponents}")
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
        e = tuple(int(k) for k in exponents)
        return self.coefficient(e) * math.prod(math.factorial(k) for k in e)

    def specialize_to_univariate(self):
        """Set every variable to one shared variable; returns a UniJet of order cap."""
        return UniJet(np.bincount(self.space.degree, weights=self.coeffs,
                                  minlength=self.cap + 1))

    def __reduce__(self):
        return (MultiJet, (self.nvars, self.cap, self.terms, self.bounds))

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"MultiJet(nvars={self.nvars}, cap={self.cap}, {{{body}}})"
