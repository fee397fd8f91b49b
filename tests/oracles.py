"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's forward algorithm:
probabilities come from explicit joint sums over hidden paths or from the
per-sequence forward pass below, derivatives from finite differences,
entropies from closed forms.  The per-sequence forward pass is the
reference that sequence_probability and the trellis are tested against:
plain Python over lists, one sequence at a time, on any number type with
+ and *, so with jet noise it uses the jets' operators but none of the
package's trellis code.  Slow and only usable at tiny sizes, which is the
point.  The Monte Carlo sampler and likelihood have scalar references too:
one hidden state and one symbol at a time, in the order the chunked
versions in hmpx.estimation must reproduce.  The jet kernel's product
and log have their full shift loops here, every source of every shift,
which the support-restricted kernel must reproduce bit for bit.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from hmpx.errors import UnreachableSequence


def stationary_2x2(m):
    """pi = (m10, m01) / (m01 + m10) for a 2x2 chain."""
    m = np.asarray(m, dtype=float)
    total = m[0, 1] + m[1, 0]
    return np.array([m[1, 0] / total, m[0, 1] / total])


def markov_entropy_rate(m, pi):
    """-sum_i pi_i sum_j m_ij log m_ij."""
    m = np.asarray(m, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return float(-np.sum(pi[:, None] * m * np.log(m)))


def markov_block_entropy(m, pi, n):
    """Block entropy of the bare chain: H(pi) + (n-1) * rate (chain rule)."""
    pi = np.asarray(pi, dtype=float)
    h1 = float(-np.sum(pi * np.log(pi)))
    return h1 + (n - 1) * markov_entropy_rate(m, pi)


def joint_probability(m, pi, t, y, eps_by_site):
    """P(y) as an explicit sum over all hidden paths.

    P(y) = sum_x pi[x1] prod m[x_i, x_{i+1}] prod (kron + eps_i t)[x_i, y_i].
    """
    m = np.asarray(m, dtype=float)
    pi = np.asarray(pi, dtype=float)
    t = np.asarray(t, dtype=float)
    s = m.shape[0]
    n = len(y)
    total = 0.0
    for x in product(range(s), repeat=n):
        w = pi[x[0]]
        for i in range(n - 1):
            w *= m[x[i], x[i + 1]]
        for i in range(n):
            r = (1.0 if x[i] == y[i] else 0.0) + eps_by_site[i] * t[x[i], y[i]]
            w *= r
        total += w
    return total


def site_tables(model, profile):
    """Emission entries r[x][z] = kron(x, z) + eps_i * t[x][z], one table per site."""
    t = model.noise.matrix
    s = model.size
    return [[[eps * float(t[x, z]) + (1.0 if x == z else 0.0) for z in range(s)]
             for x in range(s)] for eps in profile]


def forward(tables, m_rows, init, symbols):
    """P(symbols) by the forward recursion, one sequence, any number type."""
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


def forward_probability(model, symbols, profile):
    """P(symbols) from the stationary start, one profile entry per site."""
    return forward(site_tables(model, profile), model.transition.matrix.tolist(),
                   model.transition.stationary.tolist(), list(symbols))


def _pick(cum_row, u):
    for k, edge in enumerate(cum_row):
        if u < edge:
            return k
    return len(cum_row) - 1


def walk(cum_m, u, x):
    """The hidden state after each step of ``u``, from state x, one
    inverse-CDF pick per step; ``cum_m`` holds the cumulative rows."""
    path = []
    for v in u:
        x = _pick(cum_m[x], v)
        path.append(x)
    return path


def sample_arrays(model, eps, length, seed):
    """Hidden and observed paths, one inverse-CDF pick per hidden step.

    The same two draws of numpy's default_rng(seed) as hmpx.estimation:
    u_hidden drives the chain, u_obs the emissions.
    """
    rng = np.random.default_rng(seed)
    u_hidden = rng.random(length)
    u_obs = rng.random(length)
    s = model.size
    cum_pi = np.cumsum(model.transition.stationary).tolist()
    cum_m = [row.tolist() for row in np.cumsum(model.transition.matrix, axis=1)]
    x = _pick(cum_pi, u_hidden[0])
    hidden = np.asarray([x] + walk(cum_m, u_hidden[1:], x), dtype=np.int64)
    observed = np.empty(length, dtype=np.int64)
    cum_r = np.cumsum(np.eye(s) + eps * model.noise.matrix, axis=1)
    for state in range(s):
        mask = hidden == state
        observed[mask] = np.searchsorted(cum_r[state], u_obs[mask], side="right")
    np.minimum(observed, s - 1, out=observed)
    return hidden, observed


def log_increments(model, eps, symbols):
    """Per-symbol log P(y_i | y_1..y_{i-1}) by the normalized forward pass."""
    s = model.size
    r = np.eye(s) + eps * model.noise.matrix
    m = model.transition.matrix
    step = [[[float(m[x, xp] * r[xp, y]) for xp in range(s)] for x in range(s)]
            for y in range(s)]
    pi = model.transition.stationary.tolist()
    first = [pi[x] * float(r[x, symbols[0]]) for x in range(s)]
    norm = sum(first)
    if norm <= 0.0:
        raise UnreachableSequence("observation path has probability zero")
    increments = [math.log(norm)]
    alpha = [v / norm for v in first]
    for y in symbols[1:]:
        a = step[y]
        new = [sum(alpha[x] * a[x][xp] for x in range(s)) for xp in range(s)]
        norm = sum(new)
        if norm <= 0.0:
            raise UnreachableSequence("observation path has probability zero")
        increments.append(math.log(norm))
        alpha = [v / norm for v in new]
    return np.asarray(increments)


def block_entropy_bruteforce(model, n, eps):
    """H_n over all observation sequences, probabilities via joint sums."""
    eps_by_site = [eps] * n if np.isscalar(eps) else list(eps)
    m = model.transition.matrix
    pi = model.transition.stationary
    t = model.noise.matrix
    total = 0.0
    for y in product(range(model.size), repeat=len(eps_by_site)):
        p = joint_probability(m, pi, t, y, eps_by_site)
        if p > 0.0:
            total += p * math.log(p)
    return -total


def multi_site_F_bruteforce(model, profile):
    profile = list(profile)
    return (block_entropy_bruteforce(model, len(profile), profile)
            - block_entropy_bruteforce(model, len(profile) - 1, profile[:-1]))


def central_difference(f, k, h):
    """k-th derivative of f at 0 by the (k+1)-point central stencil."""
    total = 0.0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k, i) * f((k / 2 - i) * h)
    return total / h ** k


def richardson_central(f, k, h):
    """Central k-th difference with one Richardson step (h^2 error removed)."""
    return (4 * central_difference(f, k, h / 2) - central_difference(f, k, h)) / 3


def richardson_first_derivative(f, h):
    """First derivative at 0: central differences at h and h/2, extrapolated."""
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4 * d2 - d1) / 3


def _in_set(e, cap, bounds):
    return sum(e) <= cap and (bounds is None or all(x <= b for x, b in zip(e, bounds)))


def multijet_product_naive(a, b, cap, bounds=None):
    """Truncated product of {exponent tuple: coefficient} dicts, term by term."""
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            g = tuple(x + y for x, y in zip(e, f))
            if _in_set(g, cap, bounds):
                out[g] = out.get(g, 0.0) + c * d
    return out


def multijet_log_naive(a, nvars, cap, bounds=None):
    """log(a0) + sum_j (-1)**(j+1) u**j / j with u = a/a0 - 1.

    u has no constant term, so u**j vanishes under truncation for j > cap.
    """
    zero = (0,) * nvars
    a0 = a[zero]
    u = {e: c / a0 for e, c in a.items() if e != zero}
    out = {zero: math.log(a0)}
    power = {zero: 1.0}
    for j in range(1, cap + 1):
        power = multijet_product_naive(power, u, cap, bounds)
        for e, c in power.items():
            out[e] = out.get(e, 0.0) + (-1) ** (j + 1) * c / j
    return out


def jet_log_exact(a, nvars, cap, bounds=None):
    """Exact Taylor coefficients of log(a) - log(a0), as Fractions.

    The series of multijet_log_naive in rational arithmetic: every float of
    ``a`` is converted exactly, so the only rounding left in a comparison is
    the jet's.  log(a0) is irrational and is left out (the zero exponent
    maps to 0).  Every sum starts at Fraction(0), so no float can creep in.
    """
    zero = (0,) * nvars
    a0 = Fraction(a[zero])
    u = {e: Fraction(c) / a0 for e, c in a.items() if e != zero}
    out = {zero: Fraction(0)}
    power = {zero: Fraction(1)}
    for j in range(1, cap + 1):
        nxt = {}
        for e, c in power.items():
            for f, d in u.items():
                g = tuple(x + y for x, y in zip(e, f))
                if _in_set(g, cap, bounds):
                    nxt[g] = nxt.get(g, Fraction(0)) + c * d
        power = nxt
        for e, c in power.items():
            out[e] = out.get(e, Fraction(0)) + Fraction((-1) ** (j + 1), j) * c
    return out


def shift_mul(space, a, b):
    """ExponentSet.mul as the full shift loop: every source of every shift,
    zero or not, in the kernel's order of operations."""
    out = a * b[:1]
    nonzero = np.flatnonzero(b.reshape(space.size, -1).any(axis=1))
    for j in nonzero[nonzero > 0]:
        src, dst = space.shifts[j]
        out[dst] += b[j] * a[src]
    return out


def shift_log(space, a):
    """ExponentSet.log as the full triangular solve over space.shifts."""
    b = np.empty_like(a)
    acc = np.zeros_like(a)
    a0 = a[0]
    b[0] = np.log(a0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, space.size):
            d = space.degree[k]
            b[k] = (a[k] - acc[k] / d) / a0
            src, dst = space.shifts[k]
            acc[dst] += a[src] * (d * b[k])
    return b
