import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmpx import (
    BudgetExceeded,
    EpsilonOutOfRange,
    MultiJet,
    ProfileLengthMismatch,
    UniJet,
    block_entropy,
    conditional_bounds,
    conditional_entropy,
    enumerate_sequences,
    mixed_partial_F,
    multi_site_F,
    random_model,
    sequence_probability,
    settling_table,
)
from hmpx.engine import block_entropies
from conftest import binary_symmetric
from oracles import (
    block_entropy_bruteforce,
    central_difference,
    forward_probability,
    markov_block_entropy,
    markov_entropy_rate,
    multi_site_F_bruteforce,
)


class TestEnumeration:
    def test_binary_pairs(self):
        assert list(enumerate_sequences(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_ternary_singletons(self):
        assert list(enumerate_sequences(3, 1)) == [(0,), (1,), (2,)]

    def test_lexicographic_and_complete(self):
        seqs = list(enumerate_sequences(2, 4))
        assert seqs == sorted(set(seqs))
        assert len(seqs) == 16

    def test_budget_default(self):
        with pytest.raises(BudgetExceeded):
            enumerate_sequences(2, 25)
        # 2**24 itself is admissible; just check the guard, don't consume it
        assert enumerate_sequences(2, 24) is not None

    def test_budget_override(self):
        with pytest.raises(BudgetExceeded):
            enumerate_sequences(2, 3, budget=7)
        assert len(list(enumerate_sequences(2, 3, budget=8))) == 8

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_value_error(self, budget):
        # not BudgetExceeded: no request fits a budget below one sequence
        with pytest.raises(ValueError, match="budget must be >= 1"):
            enumerate_sequences(2, 1, budget=budget)


class TestSequenceProbability:
    def test_markov_path_at_zero_noise(self, bs):
        assert sequence_probability(bs, (0, 0), 0.0) == pytest.approx(0.35, abs=1e-15)

    def test_uniform_marginal_jet(self, bs):
        p = sequence_probability(bs, (0,), UniJet.variable(2))
        np.testing.assert_allclose(p.coeffs, [0.5, 0.0, 0.0], atol=1e-15)

    def test_degree_bound(self, bs):
        p = sequence_probability(bs, (0, 1), UniJet.variable(6))
        assert np.max(np.abs(p.coeffs[3:])) <= 1e-14

    def test_profile_length_mismatch(self, bs):
        with pytest.raises(ProfileLengthMismatch):
            sequence_probability(bs, (0, 1, 0), [0.1, 0.1])

    def test_epsilon_out_of_range(self, bs):
        with pytest.raises(EpsilonOutOfRange):
            sequence_probability(bs, (0, 1), 1.5)

    def test_symbol_range(self, bs):
        with pytest.raises(ValueError):
            sequence_probability(bs, (0, 2), 0.1)

    def test_scalar_matches_jet_evaluation(self, bs):
        jet = sequence_probability(bs, (0, 1, 1), UniJet.variable(3))
        scalar = sequence_probability(bs, (0, 1, 1), 0.07)
        assert jet(0.07) == pytest.approx(scalar, rel=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalization_as_series(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.choice([2, 3]))
    n = int(rng.integers(2, 5))
    model = random_model(rng, s)
    var = UniJet.variable(6)
    total = UniJet.constant(0.0, 6)
    for y in enumerate_sequences(s, n):
        total = total + sequence_probability(model, y, var)
    expected = np.zeros(7)
    expected[0] = 1.0
    np.testing.assert_allclose(total.coeffs, expected, atol=1e-12)


class TestBlockEntropy:
    def test_single_site_is_ln2_for_symmetric_chain(self, bs):
        assert block_entropy(bs, 1, 0.2) == pytest.approx(math.log(2), abs=1e-14)
        jet = block_entropy(bs, 1, UniJet.variable(5))
        np.testing.assert_allclose(jet.coeffs, [math.log(2), 0, 0, 0, 0, 0],
                                   atol=1e-14)

    def test_zero_noise_closed_form(self, bs, t3):
        for model, n in ((bs, 2), (bs, 3), (t3, 2)):
            expected = markov_block_entropy(model.transition.matrix,
                                            model.transition.stationary, n)
            assert block_entropy(model, n, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_against_bruteforce_joint_sum(self, bs):
        # frozen expectation computed from the joint-sum reference
        got = block_entropy(bs, 3, 0.05)
        assert got == pytest.approx(1.9721701863929146, abs=1e-12)
        assert got == pytest.approx(block_entropy_bruteforce(bs, 3, 0.05), abs=1e-12)

    def test_jet_budget(self, bs):
        with pytest.raises(BudgetExceeded):
            block_entropy(bs, 4, 0.05, budget=8)


class TestConditionalEntropy:
    def test_zero_noise_is_markov_rate(self, bs, t3):
        for model in (bs, t3):
            expected = markov_entropy_rate(model.transition.matrix,
                                           model.transition.stationary)
            for n in (2, 3, 4):
                assert conditional_entropy(model, n, 0.0) == pytest.approx(
                    expected, abs=1e-12)

    def test_fair_coin_chain_is_ln2(self):
        model = binary_symmetric(0.5)
        for eps in (0.0, 0.1, 0.4):
            assert conditional_entropy(model, 3, eps) == pytest.approx(
                math.log(2), abs=1e-12)

    def test_nonincreasing_in_n(self, bs):
        values = [conditional_entropy(bs, n, 0.05) for n in (2, 3, 4, 5)]
        assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))

    def test_block_entropy_nondecreasing_in_n(self, bs):
        for eps in (0.0, 0.1, 0.2):
            values = [block_entropy(bs, n, eps) for n in (1, 2, 3, 4, 5)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_jet_evaluation_matches_scalar(self, bs):
        # small eps keeps the K=11 truncation tail below the tolerance
        # (the coefficients grow ~10x per order, so the expansion radius
        # is around 0.1 and larger eps is truncation-dominated)
        jet = conditional_entropy(bs, 4, UniJet.variable(11))
        for eps in (0.005, 0.01, 0.02):
            assert jet(eps) == pytest.approx(conditional_entropy(bs, 4, eps),
                                             abs=1e-10)

    def test_needs_two_sites(self, bs):
        with pytest.raises(ValueError):
            conditional_entropy(bs, 1, 0.05)


class TestMultiSiteF:
    def test_equal_profile_reduces_to_conditional(self, bs):
        f = multi_site_F(bs, [0.05] * 4)
        assert f == pytest.approx(conditional_entropy(bs, 4, 0.05), abs=1e-12)

    def test_zero_profile_is_markov_rate(self, bs):
        expected = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert multi_site_F(bs, [0.0] * 4) == pytest.approx(expected, abs=1e-12)

    def test_blocking_instance(self, bs):
        # frozen from the joint-sum reference; equality is the screening
        # identity for a zero noise site
        f4 = multi_site_F(bs, [0.02, 0.0, 0.03, 0.01])
        f3 = multi_site_F(bs, [0.0, 0.03, 0.01])
        assert f4 == pytest.approx(0.6234085739764643, abs=1e-12)
        assert f3 == pytest.approx(0.6234085739764645, abs=1e-12)
        assert f4 == pytest.approx(f3, abs=1e-12)

    def test_against_bruteforce(self, t3):
        profile = [0.03, 0.01, 0.04]
        got = multi_site_F(t3, profile)
        assert got == pytest.approx(multi_site_F_bruteforce(t3, profile), abs=1e-12)

    def test_profile_type(self, bs):
        with pytest.raises(ProfileLengthMismatch):
            multi_site_F(bs, [0.05])


class TestMixedPartialF:
    def test_zeroth_derivative_is_markov_rate(self, bs):
        expected = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert mixed_partial_F(bs, (0, 0, 0)) == pytest.approx(expected, abs=1e-12)

    def test_hole_vanishes_and_matches_finite_differences(self, bs):
        got = mixed_partial_F(bs, (1, 0, 0, 1))
        assert abs(got) <= 1e-9

        def f(h1, h4):
            return multi_site_F_bruteforce(bs, [h1, 0.0, 0.0, h4])

        h = 1e-3
        fd = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
        assert abs(fd - got) <= 1e-6

    def test_first_order_matches_finite_differences(self, bs):
        got = mixed_partial_F(bs, (0, 0, 1))

        def f(e3):
            return multi_site_F_bruteforce(bs, [0.0, 0.0, e3])

        fd = central_difference(f, 1, 1e-4)
        assert got == pytest.approx(fd, abs=1e-7)

    def test_zero_prepend_invariance(self, bs):
        a = mixed_partial_F(bs, (1, 1))
        b = mixed_partial_F(bs, (0, 1, 1))
        assert a == pytest.approx(b, abs=1e-9)

    def test_kvec_validation(self, bs):
        with pytest.raises(ValueError):
            mixed_partial_F(bs, (1,))
        with pytest.raises(ValueError):
            mixed_partial_F(bs, (1, -1))


class TestWorkers:
    def test_scalar_chunked_reduction_matches(self, bs):
        a = block_entropy(bs, 7, 0.05)
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            b = block_entropy(bs, 7, 0.05, workers=3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_uni_chunked_reduction_matches(self, bs):
        a = conditional_entropy(bs, 5, UniJet.variable(8))
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            b = conditional_entropy(bs, 5, UniJet.variable(8), workers=2)
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12, rtol=1e-12)

    def test_fixed_worker_count_is_deterministic(self, bs):
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            a = block_entropy(bs, 6, 0.03, workers=2)
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            b = block_entropy(bs, 6, 0.03, workers=2)
        assert a == b

    def test_workers_is_deprecated(self, bs, recwarn):
        block_entropy(bs, 3, 0.05)
        assert not recwarn.list
        with pytest.warns(DeprecationWarning, match="workers is deprecated"):
            block_entropy(bs, 3, 0.05, workers=2)


def test_permutation_symmetry_of_binary_symmetric(bs):
    # relabeling 0 <-> 1 maps the model to itself, so H_N is invariant
    m = bs.transition.matrix
    t = bs.noise.matrix
    perm = [1, 0]
    m_rel = np.array([[m[perm[i], perm[j]] for j in perm] for i in perm])
    np.testing.assert_array_equal(m_rel, m)
    t_rel = np.array([[t[perm[i], perm[j]] for j in perm] for i in perm])
    np.testing.assert_array_equal(t_rel, t)


def test_boundary_epsilon_with_rounded_generator():
    # t_ii = -1/3 is not exactly representable; at eps = eps_max some
    # emission entries sit within rounding of zero, and vanished sequences
    # must contribute nothing rather than abort
    from hmpx import make_model

    model = make_model([[0.7, 0.3], [0.3, 0.7]],
                       [[-1 / 3, 1 / 3], [1 / 3, -1 / 3]])
    # R(eps_max) deterministically flips the symbol, so the observation
    # process is a relabeled chain with the bare Markov rate
    rate = markov_entropy_rate(model.transition.matrix,
                               model.transition.stationary)
    got = conditional_entropy(model, 3, model.epsilon_max)
    assert got == pytest.approx(rate, abs=1e-12)


def test_mixed_scalar_and_jet_profile(bs):
    # scalar sites combine with a jet site; result expands in that site only
    var = MultiJet.variable(2, 3, 2)
    zero = MultiJet.constant(0.0, 3, 2)
    f_jet = multi_site_F(bs, [0.02 + zero, 0.01 + zero, var])
    f_mixed = multi_site_F(bs, [0.02, 0.01, var])
    for e, c in f_jet.terms.items():
        assert f_mixed.coefficient(e) == pytest.approx(c, abs=1e-12)


def _coeffs(value):
    return np.array([value]) if isinstance(value, float) else value.coeffs


def _block_entropy_oracle(model, profile):
    # per-sequence p*log(p), exactly summed per coefficient
    terms = []
    for y in enumerate_sequences(model.size, len(profile)):
        p = forward_probability(model, y, profile)
        terms.append([p * math.log(p)] if isinstance(p, float) else _coeffs(p * p.log()))
    return -np.array([math.fsum(col) for col in np.array(terms).T])


def _check_against_oracle(model, profile):
    for y in enumerate_sequences(model.size, len(profile)):
        want = forward_probability(model, y, profile)
        got = sequence_probability(model, y, profile)
        assert type(got) is type(want)
        scale = np.max(np.abs(_coeffs(want)))
        assert np.max(np.abs(_coeffs(got) - _coeffs(want))) <= 1e-14 * scale
    h_n = _block_entropy_oracle(model, profile)
    h_prev = _block_entropy_oracle(model, profile[:-1])
    h_prev = np.pad(h_prev, (0, h_n.size - h_prev.size))  # all-scalar prefix
    np.testing.assert_allclose(_coeffs(block_entropy(model, len(profile), profile)),
                               h_n, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(_coeffs(multi_site_F(model, profile)),
                               h_n - h_prev, rtol=1e-12, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["scalar", "variable", "polynomial"]),
                      min_size=2, max_size=5))
@settings(max_examples=25, deadline=None)
def test_trellis_matches_per_sequence_oracle(seed, kinds):
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.choice([2, 3])))
    v = UniJet.variable(6)
    # a jet that is not a plain variable exercises the general shift-and-add
    sites = {"variable": v, "polynomial": 0.02 + 0.5 * v + v * v}
    profile = [sites[k] if k in sites else float(0.2 * model.epsilon_max * rng.random())
               for k in kinds]
    _check_against_oracle(model, profile)


@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["scalar", "variable", "polynomial"]),
                      min_size=2, max_size=5))
@settings(max_examples=25, deadline=None)
def test_multijet_trellis_matches_per_sequence_oracle(seed, kinds):
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.choice([2, 3])))
    n = len(kinds)
    xs = [MultiJet.variable(i, n, 3) for i in range(n)]
    # a site that mixes two variables exercises shifts across the exponent set
    sites = {"variable": lambda i: xs[i],
             "polynomial": lambda i: 0.02 + 0.5 * xs[i] + xs[i] * xs[0]}
    profile = [sites[k](i) if k in sites
               else float(0.2 * model.epsilon_max * rng.random())
               for i, k in enumerate(kinds)]
    _check_against_oracle(model, profile)


@pytest.mark.parametrize("n", [3, 4])
def test_mixed_partials_sum_to_shared_noise_coefficients(bs, t3, n):
    # F(eps, ..., eps) = C_n(eps), so coefficient k of C_n is the sum of the
    # Taylor coefficients of F, d^kvec F / prod(kvec!), over |kvec| = k
    order = 4
    for model in (bs, t3):
        c_n = conditional_entropy(model, n, UniJet.variable(order)).coeffs
        for k in range(order + 1):
            total = math.fsum(
                mixed_partial_F(model, kvec) / math.prod(map(math.factorial, kvec))
                for kvec in itertools.product(range(k + 1), repeat=n) if sum(kvec) == k)
            assert total == pytest.approx(c_n[k], rel=1e-12, abs=1e-12)


def test_one_pass_is_bit_identical_to_separate_calls(bs):
    # N = 10 spans several trellis blocks at the deepest levels; the blocks
    # of a level do not depend on how deep the pass goes
    for noise in (0.05, UniJet.variable(8)):
        one_pass = block_entropies(bs, 10, noise)
        for n in range(1, 11):
            alone = block_entropy(bs, n, noise)
            assert _coeffs(one_pass[n - 1]).tobytes() == _coeffs(alone).tobytes()


def test_settling_table_pass_matches_separate_calls(bs):
    table = settling_table(bs, 11, 8)
    for row, n in zip(table.coefficients, table.n_values):
        expected = conditional_entropy(bs, n, UniJet.variable(11)).coeffs
        np.testing.assert_allclose(row, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("initial", [
    [1.0],                   # length
    [0.5, 0.3, 0.2],         # length
    [0.6, 0.6],              # sum
    [1.5, -0.5],             # sign
    [math.nan, 1.0],         # NaN fails every comparison
    [1.0, math.nan],
    [math.inf, -math.inf],
])
def test_initial_must_be_a_probability_vector(bs, initial):
    with pytest.raises(ValueError, match="initial distribution"):
        block_entropy(bs, 3, 0.05, initial=initial)
    with pytest.raises(ValueError, match="initial distribution"):
        conditional_entropy(bs, 3, 0.05, initial=initial)


class TestStructuralZeros:
    # T = 0 with a point-mass start: every sequence that leaves state 0 at
    # the first site has probability exactly zero and must be skipped.
    # Both rows of the chain have entropy h(0.3), so C_N is the Markov rate
    # whatever the start.
    def test_conditional_entropy_is_markov_rate(self, noiseless):
        rate = markov_entropy_rate(noiseless.transition.matrix,
                                   noiseless.transition.stationary)
        for n in range(2, 6):
            got = conditional_entropy(noiseless, n, 0.0, initial=[1.0, 0.0])
            assert got == pytest.approx(rate, abs=1e-12)
            jet = conditional_entropy(noiseless, n, UniJet.variable(4),
                                      initial=[1.0, 0.0])
            np.testing.assert_allclose(jet.coeffs, [rate, 0, 0, 0, 0], atol=1e-12)

    def test_bounds_sandwich_the_rate(self, noiseless):
        rate = markov_entropy_rate(noiseless.transition.matrix,
                                   noiseless.transition.stationary)
        upper, lower = conditional_bounds(noiseless, 0.0, 4)
        assert lower <= upper
        assert upper == pytest.approx(rate, abs=1e-12)
        assert lower == pytest.approx(rate, abs=1e-12)


def test_trellis_memory_is_bounded_in_depth(bs):
    # a depth-first walk holds one block per level; a breadth-first one
    # would hold a whole level, 16x more at N = 16 than at N = 12
    def peak(n):
        tracemalloc.start()
        try:
            block_entropy(bs, n, UniJet.variable(11))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) <= 2 * peak(12)
