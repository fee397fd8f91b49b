import math
import operator
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmpx import (
    ConfigMismatch,
    DegreeExceedsCap,
    MultiJet,
    NonPositiveConstantTerm,
    OrderMismatch,
    UniJet,
    block_entropy,
)
from hmpx.jets import exponent_set
from oracles import (
    jet_log_exact,
    multijet_log_naive,
    multijet_product_naive,
    richardson_central,
)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def coeff_lists(order):
    return st.lists(finite, min_size=order + 1, max_size=order + 1)


class TestUniJetBasics:
    def test_constant(self):
        np.testing.assert_array_equal(UniJet.constant(1.0, 3).coeffs, [1, 0, 0, 0])

    def test_variable(self):
        np.testing.assert_array_equal(UniJet.variable(3).coeffs, [0, 1, 0, 0])

    def test_variable_order_zero(self):
        np.testing.assert_array_equal(UniJet.variable(0).coeffs, [0.0])

    def test_product_identity(self):
        e = UniJet.variable(3)
        np.testing.assert_array_equal(((1 + e) * (1 - e)).coeffs, [1, 0, -1, 0])

    def test_square(self):
        e = UniJet.variable(2)
        np.testing.assert_array_equal(((1 + e) * (1 + e)).coeffs, [1, 2, 1])

    def test_truncation_drops_high_degree(self):
        x = UniJet.variable(1)
        np.testing.assert_array_equal((x * x).coeffs, [0, 0])

    def test_order_mismatch(self, bs):
        with pytest.raises(OrderMismatch):
            UniJet.variable(3) + UniJet.variable(4)
        with pytest.raises(OrderMismatch):
            UniJet.variable(3) * UniJet.variable(4)
        with pytest.raises(OrderMismatch):
            block_entropy(bs, 3, [UniJet.variable(3), 0.1, UniJet.variable(4)])

    def test_immutability(self):
        e = UniJet.variable(3)
        with pytest.raises(AttributeError):
            e.coeffs = np.zeros(4)
        with pytest.raises(ValueError):
            e.coeffs[1] = 5.0


class TestUniJetLog:
    def test_mercator_series(self):
        b = (1 + UniJet.variable(3)).log()
        np.testing.assert_allclose(b.coeffs, [0.0, 1.0, -0.5, 1 / 3], atol=1e-15)

    def test_log_constant(self):
        b = UniJet.constant(2.5, 4).log()
        np.testing.assert_allclose(b.coeffs, [math.log(2.5), 0, 0, 0, 0], atol=1e-15)

    def test_log_of_square_is_twice_log(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = UniJet(np.concatenate([[rng.uniform(0.5, 2.0)],
                                       rng.uniform(-1, 1, 7)]))
            lhs = (a * a).log()
            rhs = 2 * a.log()
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12, rtol=1e-12)

    def test_nonpositive_constant_term(self):
        with pytest.raises(NonPositiveConstantTerm):
            UniJet.variable(3).log()
        with pytest.raises(NonPositiveConstantTerm):
            UniJet([-1.0, 2.0]).log()


@given(a=coeff_lists(5), b=coeff_lists(5), c=coeff_lists(5))
@settings(max_examples=200)
def test_ring_axioms(a, b, c):
    ja, jb, jc = UniJet(a), UniJet(b), UniJet(c)
    np.testing.assert_allclose((ja * jb).coeffs, (jb * ja).coeffs, atol=1e-12)
    np.testing.assert_allclose(((ja + jb) + jc).coeffs, (ja + (jb + jc)).coeffs,
                               atol=1e-12)
    np.testing.assert_allclose(((ja * jb) * jc).coeffs, (ja * (jb * jc)).coeffs,
                               atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose((ja * (jb + jc)).coeffs, (ja * jb + ja * jc).coeffs,
                               atol=1e-12, rtol=1e-12)


@given(a=coeff_lists(6), b=coeff_lists(6),
       a0=st.floats(0.2, 3.0), b0=st.floats(0.2, 3.0))
@settings(max_examples=200)
def test_log_homomorphism(a, b, a0, b0):
    ja = UniJet([a0] + a[1:])
    jb = UniJet([b0] + b[1:])
    lhs = (ja * jb).log()
    rhs = ja.log() + jb.log()
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12, rtol=1e-12)


def test_derivative_cross_check_against_finite_differences():
    # f(x) = (c + d x) log(c + d x) + (g + x)^2 as both a jet and a scalar map
    c, d, g = 1.5, 0.7, 0.3

    def scalar(x):
        return (c + d * x) * math.log(c + d * x) + (g + x) ** 2

    e = UniJet.variable(6)
    lin = c + d * e
    jet = lin * lin.log() + (g + e) * (g + e)
    steps = {1: 0.02, 2: 0.02, 3: 0.04, 4: 0.04}
    for k, h in steps.items():
        fd = richardson_central(scalar, k, h)
        jet_derivative = jet[k] * math.factorial(k)
        assert abs(jet_derivative - fd) <= 1e-6 * abs(jet_derivative)


def test_evaluation_horner():
    e = UniJet.variable(4)
    f = (1 + e) * (1 + e)
    assert f(0.5) == pytest.approx(2.25, abs=1e-15)


class TestMultiJetBasics:
    def test_square_of_sum(self):
        x1 = MultiJet.variable(0, 2, 2)
        x2 = MultiJet.variable(1, 2, 2)
        sq = (x1 + x2) * (x1 + x2)
        assert sq.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    def test_total_degree_truncation(self):
        x1 = MultiJet.variable(0, 2, 1)
        x2 = MultiJet.variable(1, 2, 1)
        assert (x1 * x2).terms == {}

    def test_specialize_product(self):
        x1 = MultiJet.variable(0, 2, 2)
        x2 = MultiJet.variable(1, 2, 2)
        u = ((1 + x1) * (1 + x2)).specialize_to_univariate()
        np.testing.assert_array_equal(u.coeffs, [1, 2, 1])

    def test_mixed_partial_examples(self):
        x1 = MultiJet.variable(0, 2, 2)
        x2 = MultiJet.variable(1, 2, 2)
        sq = (x1 + x2) * (x1 + x2)
        assert sq.mixed_partial((1, 1)) == pytest.approx(2.0, abs=1e-15)
        assert sq.mixed_partial((2, 0)) == pytest.approx(2.0, abs=1e-15)
        five = MultiJet.constant(5.0, 2, 2)
        assert five.mixed_partial((0, 0)) == pytest.approx(5.0, abs=1e-15)

    def test_config_mismatch(self, bs):
        x, boxed = MultiJet.variable(0, 2, 2), MultiJet.variable(0, 2, 2, bounds=(2, 2))
        with pytest.raises(ConfigMismatch):
            x + MultiJet.variable(0, 2, 3)
        with pytest.raises(ConfigMismatch):
            x * MultiJet.variable(0, 3, 2)
        with pytest.raises(ConfigMismatch):
            x - boxed
        for profile in ([x, MultiJet.variable(1, 2, 3)], [x, boxed],
                        [boxed, MultiJet.variable(1, 2, 2, bounds=(1, 2))]):
            with pytest.raises(ConfigMismatch):
                block_entropy(bs, 2, profile)

    def test_caps_refused(self):
        with pytest.raises(DegreeExceedsCap):
            MultiJet.constant(1.0, 11, 2)
        with pytest.raises(DegreeExceedsCap):
            MultiJet.constant(1.0, 2, 13)

    def test_mixed_partial_beyond_cap(self):
        m = MultiJet.constant(1.0, 2, 2)
        with pytest.raises(DegreeExceedsCap):
            m.mixed_partial((2, 1))
        with pytest.raises(DegreeExceedsCap):
            m.coefficient((2, 1))
        # over a per-variable bound the coefficient was discarded, not zero:
        # the true d^2/dx^2 of (1+x+y)^2 is 2
        x, y = (MultiJet.variable(i, 2, 4, bounds=(1, 1)) for i in range(2))
        p = (1 + x + y) * (1 + x + y)
        assert p.mixed_partial((1, 1)) == 2.0
        with pytest.raises(DegreeExceedsCap):
            p.mixed_partial((2, 0))
        with pytest.raises(DegreeExceedsCap):
            p.coefficient((0, 2))

    def test_log_requires_positive_constant(self):
        with pytest.raises(NonPositiveConstantTerm):
            MultiJet.variable(0, 2, 2).log()


@pytest.mark.parametrize("first_uni", [True, False])
def test_profile_mixing_jet_classes_is_config_mismatch(bs, first_uni):
    jets = [UniJet.variable(2), MultiJet.variable(0, 2, 2)]
    if not first_uni:
        jets.reverse()
    with pytest.raises(ConfigMismatch):
        block_entropy(bs, 3, jets + [0.1])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_uni_and_multi_jets_do_not_combine(op):
    u, m = UniJet.variable(2), MultiJet.variable(0, 2, 2)
    for a, b in ((u, m), (m, u)):
        with pytest.raises(TypeError):
            op(a, b)


@pytest.mark.parametrize("jet", [
    UniJet([0.5, -1.0, 0.25]),
    MultiJet(2, 3, {(0, 0): 0.5, (1, 0): -1.0, (1, 2): 0.25}),
    MultiJet(2, 3, {(0, 0): 0.5, (1, 1): 2.0}, bounds=(1, 1)),
], ids=["uni", "multi", "multi-bounded"])
def test_pickle_round_trip(jet):
    def config(j):
        return j.order if isinstance(j, UniJet) else (j.nvars, j.cap, j.bounds)

    back = pickle.loads(pickle.dumps(jet))
    assert type(back) is type(jet)
    assert config(back) == config(jet)
    np.testing.assert_array_equal(back.coeffs, jet.coeffs)
    np.testing.assert_array_equal((back - jet).coeffs, 0.0)  # still combine
    with pytest.raises(AttributeError):
        back.coeffs = np.zeros(jet.coeffs.size)
    with pytest.raises(ValueError):
        back.coeffs[0] = 1.0


def _expression_params(rng, nvars, terms=3):
    return [(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5, nvars)) for _ in range(terms)]


def _build_multi(params, nvars, cap, bounds=None):
    xs = [MultiJet.variable(i, nvars, cap, bounds=bounds) for i in range(nvars)]
    total = MultiJet.constant(0.0, nvars, cap, bounds=bounds)
    for c0, ws in params:
        term = MultiJet.constant(c0, nvars, cap, bounds=bounds)
        for x, w in zip(xs, ws):
            term = term * (1 + w * x)
        total = total + term
    return total


def _build_uni(params, order):
    e = UniJet.variable(order)
    total = UniJet.constant(0.0, order)
    for c0, ws in params:
        term = UniJet.constant(c0, order)
        for w in ws:
            term = term * (1 + w * e)
        total = total + term
    return total


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_specialization_homomorphism(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(2, 5))
    cap = int(rng.integers(2, 6))
    params = _expression_params(rng, nvars)
    multi = _build_multi(params, nvars, cap)
    uni = _build_uni(params, cap)
    np.testing.assert_allclose(multi.specialize_to_univariate().coeffs, uni.coeffs,
                               atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(multi.log().specialize_to_univariate().coeffs,
                               uni.log().coeffs, atol=1e-12, rtol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exponent_box_restriction_is_exact(seed):
    # Coefficients inside a per-variable degree box must match the
    # unrestricted computation: the box is a quotient, not an approximation.
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(2, 4))
    cap = int(rng.integers(2, 5))
    bounds = tuple(int(b) for b in rng.integers(0, cap + 1, nvars))
    params = _expression_params(rng, nvars)
    full_log = _build_multi(params, nvars, cap).log()
    boxed_log = _build_multi(params, nvars, cap, bounds=bounds).log()
    for e, c in boxed_log.terms.items():
        assert c == pytest.approx(full_log.coefficient(e), abs=1e-13)
    for e, c in full_log.terms.items():
        if all(x <= b for x, b in zip(e, bounds)):
            assert boxed_log.coefficient(e) == pytest.approx(c, abs=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dense_product_and_log_match_term_by_term_reference(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(1, 5))
    cap = int(rng.integers(0, 6))
    bounds = (None if rng.random() < 0.5
              else tuple(int(b) for b in rng.integers(0, cap + 1, nvars)))
    zero = MultiJet.constant(0.0, nvars, cap, bounds=bounds)
    exps = zero.space.exponents

    def random_terms(c0):
        terms = {e: float(rng.uniform(-1, 1)) for e in exps if rng.random() < 0.7}
        terms[(0,) * nvars] = c0
        return terms

    a, b = random_terms(rng.uniform(0.5, 2.0)), random_terms(rng.uniform(-1, 1))
    ja = MultiJet(nvars, cap, a, bounds=bounds)
    jb = MultiJet(nvars, cap, b, bounds=bounds)
    for got, want in ((ja * jb, multijet_product_naive(a, b, cap, bounds)),
                      (ja.log(), multijet_log_naive(a, nvars, cap, bounds))):
        for e in exps:
            assert got.coefficient(e) == pytest.approx(want.get(e, 0.0), abs=1e-12)


def test_exponent_set_size_is_refused_before_tables():
    # 646,646 exponents for ten variables at degree 12
    with pytest.raises(DegreeExceedsCap, match="646646"):
        MultiJet.variable(0, 10, 12)
    assert MultiJet.variable(0, 10, 12, bounds=(2,) * 2 + (1,) * 8).space.size == 2304


def _assert_log_exact(jet, terms, nvars, cap, bounds=None):
    exact = jet_log_exact(terms, nvars, cap, bounds)
    got = jet.log()
    assert got.coeffs[0] == pytest.approx(math.log(jet.coeffs[0]), rel=1e-15)
    for i, e in enumerate(jet.space.exponents[1:], start=1):
        want = float(exact.get(e, 0))
        assert abs(got.coeffs[i] - want) <= 1e-13 * max(1.0, abs(want)), e


def test_uni_log_matches_exact_rationals_to_order_30():
    rng = np.random.default_rng(30)
    for order in range(5, 31):
        a = rng.uniform(-1, 1, order + 1)
        a[0] = rng.uniform(0.5, 2.0)
        _assert_log_exact(UniJet(a), {(k,): c for k, c in enumerate(a.tolist())},
                          1, order)


def test_multi_log_matches_exact_rationals_on_boxes():
    rng = np.random.default_rng(31)
    for _ in range(30):
        nvars = int(rng.integers(2, 5))
        cap = int(rng.integers(2, 7))
        bounds = tuple(int(b) for b in rng.integers(1, cap + 1, nvars))
        exps = exponent_set(bounds, cap).exponents
        terms = {e: float(rng.uniform(-1, 1)) for e in exps}
        terms[(0,) * nvars] = float(rng.uniform(0.5, 2.0))
        _assert_log_exact(MultiJet(nvars, cap, terms, bounds=bounds), terms,
                          nvars, cap, bounds)


def test_exponent_set_tables_stay_small():
    # The build holds one shift row at a time, so its memory grows with the
    # set size, not with its square: about 0.5 MB at order 1000.
    exponent_set.cache_clear()
    tracemalloc.start()
    try:
        exponent_set((1000,), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
