import gc
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
    run_lemma_battery,
)
from hmpx.jets import ExponentSet, exponent_set
from oracles import (
    jet_log_exact,
    multijet_log_naive,
    multijet_product_naive,
    richardson_central,
    shift_log,
    shift_mul,
    shift_table,
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
    for bounds, cap, size in (((7,), 7, 8), ((7,), 3, 4), ((2, 3), 4, 11)):
        assert exponent_set(bounds, cap).size == size


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
    # The build holds no shift rows, only per-member arrays, so its memory
    # grows with the set size, not with its square: about 0.5 MB at order
    # 1000 and 0.9 MB for the largest mixed-partial box.
    for bounds, cap in (((1000,), 1000), ((2, 2) + (1,) * 8, 12)):
        exponent_set.cache_clear()
        tracemalloc.start()
        try:
            exponent_set(bounds, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, bounds


def test_exponent_set_cache_stays_bounded_after_the_lemma_batteries():
    # the bound in exponent_set's docstring: patterns per set and the bytes
    # the cache holds once the criterion-4 batteries are done
    older = {id(o) for o in gc.get_objects() if isinstance(o, ExponentSet)}
    exponent_set.cache_clear()
    tracemalloc.start()
    try:
        for lemma in (1, 2, 3):
            run_lemma_battery(lemma, 100, seed=1000 + lemma, tol=1e-9,
                              sizes=(2, 3), n_max=6, weight_max=6)
        gc.collect()
        patterns = max(len(o._cut) for o in gc.get_objects()
                       if isinstance(o, ExponentSet) and id(o) not in older)
        held = tracemalloc.get_traced_memory()[0]
        exponent_set.cache_clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert patterns <= 6
    assert held < 4e6


@pytest.mark.parametrize("bounds, cap", [((11,), 11), ((2, 1, 3), 4)],
                         ids=["unijet", "multijet-box"])
def test_batched_kernel_is_one_jet_per_column(bounds, cap):
    # coefficients on axis 0, jets on the trailing axes, which broadcast:
    # a batch gives the 1-D results side by side, bit for bit
    space = exponent_set(bounds, cap)
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (space.size, 3, 1))
    a[0] = rng.uniform(0.5, 2.0, (3, 1))
    b = rng.uniform(-1, 1, (space.size, 1, 4))
    b[1, :, :2] = 0.0  # zero in some columns only
    b[2] = 0.0         # zero in every column
    c = rng.uniform(-1, 1, (space.size, 3, 4))
    c[0] = rng.uniform(0.5, 2.0, (3, 4))
    prod, log = space.mul(a, b), space.log(c)
    for i, j in np.ndindex(3, 4):
        assert prod[:, i, j].tobytes() == space.mul(a[:, i, 0], b[:, 0, j]).tobytes()
        assert log[:, i, j].tobytes() == space.log(c[:, i, j]).tobytes()


def _positions(idx, size):
    # a shift half (slice or index array) as the array of flat indices it reads
    return np.arange(size)[idx]


@pytest.mark.parametrize("sets", [
    [((k,), k) for k in range(46)],
    [((4, 4, 4), 4), ((3, 3, 3), 5), ((12,) * 3, 12), ((2, 1, 3), 4), ((6,) * 5, 6)],
    # full boxes, up to the 2304-member box
    [((1, 2), 3), ((2, 1, 3), 6), ((3, 0, 2, 1), 6), ((3, 3, 3, 3, 2, 2), 16)],
], ids=["unijet-0-45", "capped", "boxed"])
def test_shifts_are_nonempty_ascending_runs_of_exponent_sums(sets):
    # the table with every source live has, in row j = (src, dst), every e
    # with e + e_j in the set, in flat order, and the flat index of each
    # e + e_j, as ``shift_table`` builds it from the exponents alone
    for bounds, cap in sets:
        space = exponent_set(bounds, cap)
        shifts = space.shifts_on(np.ones(space.size))
        for j, (src, dst) in enumerate(shift_table(space)):
            assert src.size and np.all(np.diff(src) > 0) and np.all(np.diff(dst) > 0)
            got_src, got_dst = (_positions(idx, space.size) for idx in shifts[j])
            np.testing.assert_array_equal(got_src, src)
            np.testing.assert_array_equal(got_dst, dst)


@st.composite
def supported_jets(draw, nonnegative=False, signed_zeros=True):
    """(space, a, b): two jet arrays of 1 to 3 columns over a 1-D set or a
    box (capped or full), each coefficient zero in every column with a
    drawn probability, so the support need not be down-closed; a live
    coefficient is zero in some columns too.  Zeros have random signs
    unless signed_zeros is false; a[0] is in [0.5, 2] so a has a log."""
    if draw(st.booleans()):
        order = draw(st.integers(0, 12))
        space = exponent_set((order,), order)
    else:
        bounds = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
        space = exponent_set(bounds, max(0, sum(bounds) - draw(st.integers(0, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = draw(st.integers(1, 3))
    dead = draw(st.floats(0.0, 1.0))

    def jet():
        c = rng.uniform(0.0 if nonnegative else -1.0, 1.0, (space.size, cols))
        zero = (rng.random((space.size, 1)) < dead) | (rng.random(c.shape) < 0.25)
        sign = -1.0 if signed_zeros else 1.0
        c[zero] = np.where(rng.random(c.shape) < 0.5, 0.0, sign * 0.0)[zero]
        return c

    a, b = jet(), jet()
    a[0] = rng.uniform(0.5, 2.0, cols)
    return space, a, b


def _same_bits_up_to_zero_sign(x, y):
    return np.all((x.view(np.uint64) == y.view(np.uint64)) | ((x == 0) & (y == 0)))


@settings(max_examples=300, deadline=None)
@given(supported_jets())
def test_support_cut_kernel_matches_the_full_shift_loop(jets):
    # skipping a source that is zero in every column drops only terms
    # b_j * (+-0): every nonzero output keeps its bits, a zero may flip sign
    space, a, b = jets
    assert _same_bits_up_to_zero_sign(space.mul(a, b), shift_mul(space, a, b))
    assert _same_bits_up_to_zero_sign(space.log(a), shift_log(space, a))


@settings(max_examples=200, deadline=None)
@given(supported_jets(nonnegative=True, signed_zeros=False))
def test_support_cut_kernel_is_bit_for_bit_without_negative_zeros(jets):
    # with no -0 and no negative number among the inputs no term is -0, so
    # the product keeps every bit; the log keeps them while a has no -0
    space, a, b = jets
    assert space.mul(a, b).tobytes() == shift_mul(space, a, b).tobytes()
    assert space.log(a).tobytes() == shift_log(space, a).tobytes()
    signed = np.where(a != 0, a - 0.5, a)
    signed[0] = a[0]
    assert space.log(signed).tobytes() == shift_log(space, signed).tobytes()


@pytest.mark.parametrize("bounds, cap", [((), 0), ((0,), 0), ((0, 0), 3)])
def test_width_one_set_gives_the_same_bits(bounds, cap):
    space = exponent_set(bounds, cap)
    assert space.size == 1
    a = np.array([[0.75, -0.0, 0.0, 3e-300]])
    b = np.array([[-0.0, 2.0, -1.5, 1e-10]])
    p = np.array([[0.75, 1.0, 3e-300, 2.0]])
    assert space.mul(a, b).tobytes() == shift_mul(space, a, b).tobytes()
    assert space.log(p).tobytes() == shift_log(space, p).tobytes()


class TestErrorPaths:
    @pytest.mark.parametrize("coeffs", [[], [[1.0, 0.5]]], ids=["empty", "2d"])
    def test_unijet_needs_a_nonempty_vector(self, coeffs):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            UniJet(coeffs)

    @pytest.mark.parametrize("make", [lambda k: UniJet.constant(1.0, k),
                                      UniJet.variable], ids=["constant", "variable"])
    def test_unijet_order_is_a_whole_number_at_least_zero(self, make):
        with pytest.raises(ValueError, match="order must be >= 0"):
            make(-1)
        with pytest.raises(ValueError, match="order must be a whole number"):
            make(2.5)
        assert make(2.0).coeffs.tobytes() == make(2).coeffs.tobytes()
        assert make(2.0).order == 2
        # refused before allocation: 10**18 + 1 floats would be 8 EB
        with pytest.raises(DegreeExceedsCap, match="1000000000000000001 members"):
            make(10 ** 18)
        with pytest.raises(DegreeExceedsCap, match="4097 members"):
            make(4096)

    @pytest.mark.parametrize("bounds", [(1,), (1, -1), (1, 1, 1)])
    def test_bad_bounds(self, bounds):
        with pytest.raises(ValueError, match="bad bounds"):
            MultiJet(2, 2, {}, bounds=bounds)

    # a key that is not a vector at all, such as 1, is malformed the same way
    @pytest.mark.parametrize("e", [(1,), (1, -1), (0, 0, 0), 1, 2.0, None])
    def test_bad_exponent_tuple(self, e):
        with pytest.raises(ValueError, match="bad exponent"):
            MultiJet(2, 2, {e: 1.0})
        with pytest.raises(ValueError, match="bad exponent"):
            MultiJet.constant(1.0, 2, 2).coefficient(e)

    def test_exponent_over_the_cap(self):
        with pytest.raises(DegreeExceedsCap, match="total-degree cap"):
            MultiJet(2, 2, {(2, 1): 1.0})

    @pytest.mark.parametrize("index", [-1, 2])
    def test_variable_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="variable index"):
            MultiJet.variable(index, 2, 2)

    def test_log_refuses_a_nan_constant_term(self):
        for jet in (UniJet([math.nan, 1.0, 0.5]),
                    MultiJet(2, 2, {(0, 0): math.nan, (1, 0): 1.0})):
            with pytest.raises(NonPositiveConstantTerm):
                jet.log()


class TestWholeNumbers:
    # whole floats give the same bits as ints; anything else is ValueError
    def test_multijet_config(self):
        whole = MultiJet(2.0, 3.0, {(1.0, 0): 2.0, (0, 2): 1.0}, bounds=(2.0, 2))
        ref = MultiJet(2, 3, {(1, 0): 2.0, (0, 2): 1.0}, bounds=(2, 2))
        assert (whole.nvars, whole.cap, whole.bounds) == (2, 3, (2, 2))
        assert whole.coeffs.tobytes() == ref.coeffs.tobytes()
        assert repr(whole) == repr(ref)

    @pytest.mark.parametrize("call", [
        lambda: MultiJet(2.5, 3, {}),
        lambda: MultiJet(2, 3.5, {}),
        lambda: MultiJet(2, 3, {}, bounds=(1.5, 1)),
        lambda: MultiJet(2, 3, {(1.5, 0): 2.0}),
        lambda: MultiJet(2, 3, {(math.nan, 0): 2.0}),
        lambda: MultiJet.constant(1.0, 2.5, 2),
        lambda: MultiJet.variable(0, 2.5, 2),
        lambda: MultiJet.variable(0.5, 2, 2),
        lambda: MultiJet.variable(0, 2, 2).coefficient((1.5, 0)),
        lambda: MultiJet.variable(0, 2, 2).mixed_partial((0.5, 0)),
    ], ids=["nvars", "cap", "bounds", "term", "term-nan", "constant-nvars",
            "variable-nvars", "variable-index", "coefficient", "mixed-partial"])
    def test_non_whole_is_refused(self, call):
        with pytest.raises(ValueError, match="whole number"):
            call()

    def test_constructors_take_whole_floats(self):
        for whole, ref in [(MultiJet.constant(1.5, 2.0, 2.0), MultiJet.constant(1.5, 2, 2)),
                           (MultiJet.variable(1.0, 2.0, 2.0, bounds=(1.0, 1)),
                            MultiJet.variable(1, 2, 2, bounds=(1, 1)))]:
            assert whole.coeffs.tobytes() == ref.coeffs.tobytes()
            assert whole._config == ref._config
        x = MultiJet(2, 2, {(1, 1): 0.5})
        assert x.coefficient((1.0, 1.0)) == x.coefficient((1, 1)) == 0.5
        assert x.mixed_partial((1.0, 1)) == 0.5


class TestAccessors:
    def test_negation_length_and_constant_term(self):
        u = UniJet([0.5, -1.0, 0.25])
        assert (-u).coeffs.tolist() == [-0.5, 1.0, -0.25]
        assert len(u) == 3
        m = MultiJet(2, 2, {(0, 0): 1.5, (0, 1): -2.0})
        assert (-m).terms == {(0, 0): -1.5, (0, 1): 2.0}
        assert m.constant_term == 1.5

    def test_reprs(self):
        assert repr(UniJet([0.5, -1.0])) == "UniJet([0.5, -1.0])"
        assert repr(MultiJet(2, 3, {(1, 0): 2.0, (0, 0): 0.5})) == \
            "MultiJet(nvars=2, cap=3, {(0, 0): 0.5, (1, 0): 2.0})"

    def test_repr_shows_bounds(self):
        # these two do not combine, so they must not print alike
        boxed, free = MultiJet.variable(0, 2, 4, bounds=(1, 1)), MultiJet.variable(0, 2, 4)
        with pytest.raises(ConfigMismatch):
            boxed + free
        assert repr(boxed) == "MultiJet(nvars=2, cap=4, {(1, 0): 1.0}, bounds=(1, 1))"
        assert repr(free) == "MultiJet(nvars=2, cap=4, {(1, 0): 1.0})"
