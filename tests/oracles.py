"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's forward algorithm and
jet arithmetic: probabilities come from explicit joint sums over hidden
paths, derivatives from finite differences, entropies from closed forms.
Slow and only usable at tiny sizes, which is the point.
"""

import math
from itertools import product

import numpy as np


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
