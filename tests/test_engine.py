import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmpx import (
    BudgetExceeded,
    DegreeExceedsCap,
    EpsilonOutOfRange,
    HmpModel,
    MultiJet,
    ProfileLengthMismatch,
    UniJet,
    UnreachableSequence,
    block_entropy,
    conditional_bounds,
    conditional_entropy,
    emission_at,
    entropy_rate_series,
    enumerate_sequences,
    evaluate_series,
    make_model,
    mc_entropy_rate,
    mixed_partial_F,
    multi_site_F,
    path_log_likelihood,
    random_model,
    random_transition,
    run_lemma_battery,
    sample_paths,
    sequence_probability,
    settling_table,
    validate_noise,
)
import hmpx.engine
import hmpx.model
from hmpx.engine import _sites, _symmetric_start, block_entropies, check_budget
from hmpx.estimation import bounds_by_n
from hmpx.jets import ExponentSet, Jet, exponent_set
from conftest import binary_symmetric
from oracles import (
    block_entropy_bruteforce,
    central_difference,
    forward,
    forward_probability,
    markov_block_entropy,
    markov_entropy_rate,
    mixed_partial_exact,
    multi_site_F_bruteforce,
    site_tables,
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

    def test_budget_must_be_a_whole_number(self, bs):
        # truncating 2.5 to 2 would report a budget nobody gave
        with pytest.raises(ValueError, match="whole number, got 2.5"):
            block_entropy(bs, 3, 0.1, budget=2.5)
        for budget in (8.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="whole number"):
                enumerate_sequences(2, 3, budget=budget)
        assert len(list(enumerate_sequences(2, 3, budget=8.0))) == 8


# far over any budget; a profile of this many sites takes 8 MB to build
_HUGE = 10 ** 6

# every trellis entry, each asked for depth n
_ENTRIES = {
    "block_entropy": lambda m, n, **kw: block_entropy(m, n, 0.05, **kw),
    "block_entropies": lambda m, n, **kw: block_entropies(m, n, 0.05, **kw),
    "conditional_entropy": lambda m, n, **kw: conditional_entropy(m, n, 0.05, **kw),
    "settling_table": lambda m, n, **kw: settling_table(m, 3, n, **kw),
    "bounds_by_n": lambda m, n, **kw: bounds_by_n(m, 0.05, n, **kw),
}


class TestAdmission:
    """The budget is checked before any noise profile or site tensor."""

    @pytest.mark.parametrize("name", _ENTRIES)
    def test_over_budget_builds_nothing(self, bs, name):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=rf"N = {_HUGE} needs 2\*\*{_HUGE} "):
                _ENTRIES[name](bs, _HUGE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("name", _ENTRIES)
    def test_check_comes_before_the_profile(self, bs, name, monkeypatch):
        admit = hmpx.engine._sites
        calls = []

        def spy(model, noise, n):
            calls.append(n)
            return admit(model, noise, n)

        monkeypatch.setattr(hmpx.engine, "_sites", spy)
        with pytest.raises(BudgetExceeded):
            _ENTRIES[name](bs, 5, budget=16)
        assert calls == []
        _ENTRIES[name](bs, 4, budget=16)
        assert calls and set(calls) == {4}

    def test_mixed_partials_are_checked_before_the_profile(self, bs, monkeypatch):
        def refuse(*args):
            raise AssertionError("an over-budget request resolved its profile")

        monkeypatch.setattr(hmpx.engine, "_sites", refuse)
        with pytest.raises(BudgetExceeded):
            mixed_partial_F(bs, [1, 0, 1, 1, 1], budget=16)
        with pytest.raises(BudgetExceeded):
            multi_site_F(bs, [0.1] * 5, budget=16)

    @pytest.mark.parametrize("kvec", [(1, 0, 1, 2), (0, 1, 2, 1), (1, 2, 1, 0)])
    def test_mixed_partials_count_every_site(self, t3, monkeypatch, kvec):
        # reading the last site off level N-1 still costs s**N sequences,
        # and a refusal builds no exponent set, jet or site tensor
        def refuse(*args, **kwargs):
            raise AssertionError("built before the budget check")

        n = len(kvec)
        with monkeypatch.context() as patch:
            for owner, name in ((hmpx.engine, "_sites"), (hmpx.engine, "_site_tensors"),
                                (hmpx.engine, "exponent_set"), (MultiJet, "variable")):
                patch.setattr(owner, name, refuse)
            with pytest.raises(BudgetExceeded, match=rf"N = {n} needs 3\*\*{n} "):
                mixed_partial_F(t3, kvec, budget=3 ** n - 1)
        assert mixed_partial_F(t3, kvec, budget=3 ** n) == mixed_partial_F(t3, kvec)

    def test_shared_value_is_checked_once(self, bs, monkeypatch):
        calls = []
        check = hmpx.engine.check_epsilon
        monkeypatch.setattr(hmpx.engine, "check_epsilon",
                            lambda *args: calls.append(args) or check(*args))
        block_entropies(bs, 6, 0.05)
        sequence_probability(bs, [0, 1, 1, 0], UniJet.variable(3))
        assert len(calls) == 2

    def test_budget_comes_before_a_bad_profile(self, bs):
        # an over-budget request is refused whatever its profile holds
        with pytest.raises(BudgetExceeded):
            conditional_entropy(bs, 40, [0.1] * 3)
        with pytest.raises(BudgetExceeded):
            block_entropies(bs, 40, [2.0] * 40)
        with pytest.raises(ProfileLengthMismatch):
            conditional_entropy(bs, 4, [0.1] * 3)
        with pytest.raises(EpsilonOutOfRange):
            block_entropies(bs, 4, [2.0] * 4)

    def test_check_forms_no_huge_power(self):
        # 2**3_000_000 has 903,090 decimal digits, more than Python prints
        with pytest.raises(BudgetExceeded, match=r"2\*\*3000000 sequences"):
            check_budget(2, 3_000_000)

    def test_check_agrees_with_the_power(self):
        cases = itertools.product((2, 3, 7), (1, 7, 8, 9, 2 ** 24), range(1, 30))
        for s, budget, n in cases:
            if s ** n > budget:
                with pytest.raises(BudgetExceeded):
                    check_budget(s, n, budget)
            else:
                check_budget(s, n, budget)


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

    def test_non_integral_symbols_are_refused(self, bs):
        # int() would truncate these to (0, 1)
        with pytest.raises(ValueError, match="symbols must be integers"):
            sequence_probability(bs, [0.7, 1.2], 0.1)
        assert sequence_probability(bs, [0.0, 1.0], 0.1) == sequence_probability(
            bs, (0, 1), 0.1)

    def test_non_1d_symbols_are_refused(self, bs):
        with pytest.raises(ValueError, match="one-dimensional"):
            sequence_probability(bs, [[0, 1]], 0.1)

    def test_empty_sequence_keeps_the_number_type(self, bs):
        one = sequence_probability(bs, [], UniJet.variable(3))
        np.testing.assert_array_equal(one.coeffs, UniJet.constant(1.0, 3).coeffs)
        x = MultiJet.variable(0, 2, 2, bounds=(1, 2))
        one = sequence_probability(bs, [], x)
        assert type(one) is MultiJet and one.bounds == (1, 2)
        assert one.terms == {(0, 0): 1.0}
        # an empty per-site profile names no number type
        assert sequence_probability(bs, [], []) == 1.0
        assert sequence_probability(bs, [], 0.1) == 1.0

    def test_empty_sequence_admits_its_noise(self, bs):
        with pytest.raises(EpsilonOutOfRange):
            sequence_probability(bs, [], 5.0)
        with pytest.raises(EpsilonOutOfRange):
            sequence_probability(bs, [], UniJet([5.0, 1.0]))

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

    @pytest.mark.parametrize("kind", ["float", "unijet", "multijet"])
    def test_is_conditional_entropy_on_the_profile(self, t3, kind):
        profile = {
            "float": [0.03, 0.0, 0.01, 0.04],
            "unijet": [UniJet.variable(5)] * 4,
            "multijet": [MultiJet.variable(i, 4, 5) for i in range(4)],
        }[kind]
        got = multi_site_F(t3, profile)
        expected = conditional_entropy(t3, len(profile), profile)
        if kind == "float":
            assert got == expected
        else:
            assert type(got) is type(expected)
            assert got.coeffs.tobytes() == expected.coeffs.tobytes()


class TestArrayProfile:
    """A 1-d array is a per-site profile, read as its list; a 0-d array is
    a shared value; an array of more axes is refused."""

    _CALLS = {
        "sequence_probability": lambda m, e: sequence_probability(m, [0, 1, 1], e),
        "block_entropy": lambda m, e: block_entropy(m, 3, e),
        "block_entropies": lambda m, e: block_entropies(m, 3, e),
        "conditional_entropy": lambda m, e: conditional_entropy(m, 3, e),
        "multi_site_F": multi_site_F,
    }

    @pytest.mark.parametrize("name", _CALLS)
    @pytest.mark.parametrize("profile, dtype", [
        ([0.1, 0.2, 0.05], float),
        ([0.1, UniJet.variable(3), 0.0], object),
    ], ids=["float", "unijet"])
    def test_one_axis_is_the_list(self, bs, name, profile, dtype):
        call = self._CALLS[name]
        got, want = call(bs, np.array(profile, dtype=dtype)), call(bs, profile)
        if name != "block_entropies":
            got, want = [got], [want]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert _coeffs(a).tobytes() == _coeffs(b).tobytes()

    @pytest.mark.parametrize("name", list(_CALLS)[:4])
    def test_no_axis_is_a_shared_value(self, bs, name):
        call = self._CALLS[name]
        assert call(bs, np.array(0.05)) == call(bs, 0.05)

    @pytest.mark.parametrize("name", _CALLS)
    def test_two_axes_are_refused(self, bs, name):
        with pytest.raises(ValueError, match=r"shape \(1, 3\)"):
            self._CALLS[name](bs, np.array([[0.1, 0.2, 0.05]]))


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

    @pytest.mark.parametrize("kvec", [(1.5, 1), (1, 0.5), (1, math.nan), (1, "1")])
    def test_kvec_entries_must_be_whole(self, bs, kvec):
        with pytest.raises(ValueError, match="whole number"):
            mixed_partial_F(bs, kvec)

    def test_whole_floats_are_accepted(self, bs):
        assert mixed_partial_F(bs, (1.0, 1.0)) == mixed_partial_F(bs, (1, 1))

    @pytest.mark.parametrize("s", [2, 3])
    def test_corner_matches_the_whole_jet(self, s):
        # the corner read against the full jet of F = H_N - H_{N-1}, with
        # kvec[-1] > 0 (level N alone), kvec[-1] = 0 and the all-zero kvec
        rng = np.random.default_rng(40 + s)
        model = random_model(rng, s)
        for n in range(2, 7):
            kvecs = [(0,) * n, (1,) + (0,) * (n - 1)]
            while len(kvecs) < 4:
                kvec = tuple(int(k) for k in rng.integers(0, 3, size=n))
                if sum(kvec) <= 6 and kvec not in kvecs:
                    kvecs.append(kvec)
            kvecs.append(kvecs[-1][:-1] + (0,))
            kvecs.append(kvecs[-1][:-1] + (1,))
            for kvec in kvecs:
                profile = [MultiJet.variable(i, n, sum(kvec), bounds=kvec)
                           for i in range(n)]
                want = multi_site_F(model, profile).mixed_partial(kvec)
                got = mixed_partial_F(model, kvec)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (s, kvec)

    @pytest.mark.parametrize("name", ["bs", "random"])
    def test_matches_the_exact_oracle(self, bs, name):
        # the last site read off (kvec[-1] = 1 and >= 2), a slope along an
        # earlier site of order 1 or 2 over both levels, one along an
        # interior site with sites on both sides, and no slope at all
        model = {"bs": bs, "random": random_model(np.random.default_rng(3), 3)}[name]
        for kvec in [(1, 1), (0, 1, 1), (1, 2), (2, 0, 2), (2, 0), (1, 1, 0),
                     (2, 1, 0), (2, 1, 2, 0), (0, 0, 0)]:
            want = mixed_partial_exact(model, kvec)
            got = mixed_partial_F(model, kvec)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), kvec

    @pytest.mark.parametrize("name", ["bs", "random"])
    def test_builds_no_jet(self, bs, monkeypatch, name):
        # the slope writes its one-hot noise matrix itself, with zero-order
        # sites first, inside and last
        model = {"bs": bs, "random": random_model(np.random.default_rng(3), 3)}[name]
        kvecs = [(0, 0, 1, 2), (1, 0, 2, 0), (2, 1, 0), (0, 3, 3)]
        want = [mixed_partial_exact(model, kvec) for kvec in kvecs]

        def refuse(*args, **kwargs):
            raise AssertionError("mixed_partial_F built a MultiJet")

        monkeypatch.setattr(MultiJet, "__init__", refuse)
        for kvec, exact in zip(kvecs, want):
            got = mixed_partial_F(model, kvec)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), kvec

    def test_a_box_is_one_set_whichever_kvec_walks_it(self, bs):
        # both walk the box (1, 2, 0), whose own sum is its cap
        a, b = (hmpx.engine._Slope(bs, kvec) for kvec in ([1, 2, 1], [1, 2, 2]))
        assert a.space is b.space is exponent_set((1, 2, 0), 3)

    def test_the_criterion_4_batteries_fit_the_exponent_set_cache(self):
        exponent_set.cache_clear()
        for lemma in (1, 2, 3):
            run_lemma_battery(lemma, 100, seed=1000 + lemma, tol=1e-9,
                              sizes=(2, 3), n_max=6, weight_max=6)
        info = exponent_set.cache_info()
        assert info.misses <= info.maxsize and info.currsize < info.maxsize

    @pytest.mark.parametrize("kvec", [[0] * 9 + [1, 1], [7, 7]],
                             ids=["eleven-sites", "order-14"])
    def test_kvec_past_the_multijet_caps_is_refused_first(self, bs, kvec):
        # tiny boxes within budget, refused by name before any set is built
        before = exponent_set.cache_info()
        with pytest.raises(DegreeExceedsCap, match="kvec"):
            mixed_partial_F(bs, kvec)
        after = exponent_set.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    @pytest.mark.parametrize("kvec", [(1, 0, 2), (0, 2, 1, 1), (2, 1, 0, 1, 3)])
    def test_shorter_level_has_no_last_site_term(self, t3, kvec):
        # H_{N-1} never sees site N's variable, so every coefficient with
        # e_N > 0 is exactly zero and level N-1 adds nothing to x**kvec
        n = len(kvec)
        profile = [MultiJet.variable(i, n, sum(kvec), bounds=kvec) for i in range(n)]
        shorter = hmpx.engine._entropies(t3, profile, (n - 1, n))[n - 1]
        last = np.array([e[-1] > 0 for e in shorter.space.exponents])
        assert last.any()
        assert np.all(shorter.coeffs[last] == 0.0)

    @pytest.mark.parametrize("name", ["bs", "t3", "random"])
    def test_all_zero_kvec_is_the_noiseless_conditional_entropy(self, bs, t3, name):
        model = {"bs": bs, "t3": t3,
                 "random": random_model(np.random.default_rng(3), 3)}[name]
        for n in range(2, 6):
            got = mixed_partial_F(model, [0] * n)
            assert got.hex() == conditional_entropy(model, n, 0.0).hex(), n

    @pytest.mark.parametrize("name", ["bs", "t3", "random"])
    @pytest.mark.parametrize("kvec", [(0, 0, 0), (1, 0, 2), (1, 2, 0)],
                             ids=["all-zero", "last-site", "interior"])
    def test_one_walk_per_call(self, bs, t3, monkeypatch, name, kvec):
        # the slope is the walk's only input, and the all-zero kvec is one
        # conditional_entropy walk
        model = {"bs": bs, "t3": t3,
                 "random": random_model(np.random.default_rng(3), 3)}[name]
        walks = []
        entropies = hmpx.engine._entropies

        def counted(*args, **kwargs):
            walks.append(args[1])
            return entropies(*args, **kwargs)

        monkeypatch.setattr(hmpx.engine, "_entropies", counted)
        mixed_partial_F(model, kvec)
        assert len(walks) == 1
        assert isinstance(walks[0], hmpx.engine._Slope) == any(kvec)

    @pytest.mark.parametrize("kvec", [(1, 1, 2), (0, 2, 1), (1, 1, 1)])
    def test_an_overflowing_slope_is_refused(self, kvec):
        # P(2, 2, 2) is near 1e-210: above the floor, but the slope's log
        # overflows, which gave nan or inf and a numpy warning
        model = _underflowing([[-1, 0.5, 0.5], [0.5, -1, 0.5], [0.5, 0.5, -1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreachableSequence,
                               match=re.escape(f"mixed partial {kvec} = ")):
                mixed_partial_F(model, kvec)

    def test_a_finite_slope_on_the_same_model_is_returned(self):
        model = _underflowing([[-1, 0.5, 0.5], [0.5, -1, 0.5], [0.5, 0.5, -1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mixed_partial_F(model, (1, 0, 1))
        assert abs(value) <= 1e-12  # a hole: the partial vanishes


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


def _underflowing(t):
    # P(2, 2, 2, 2) = pi_2 * 1e-315 at zero noise; orbits {0, 1} and {2}
    return make_model([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.5, 0.5, 1e-105]], t)


def _coeffs(value):
    return np.array([value]) if isinstance(value, float) else value.coeffs


def _block_entropy_oracle(model, profile, initial=None):
    # per-sequence p*log(p), exactly summed per coefficient
    start = model.transition.stationary if initial is None else np.asarray(initial)
    tables = site_tables(model, profile)
    rows = model.transition.matrix.tolist()
    terms = []
    for y in enumerate_sequences(model.size, len(profile)):
        p = forward(tables, rows, start.tolist(), y)
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


def _circulant(s):
    # dyadic rows: every row sum is exact in any order, so the rotations
    # are symmetries bit for bit; row[k] != row[-k], so no reflection is
    row = [2.0 ** -(k + 1) for k in range(s - 1)] + [2.0 ** -(s - 1)]
    gen = [-(s - 1) / 8] + [1 / 8] * (s - 1)
    return make_model([row[-i:] + row[:-i] for i in range(s)],
                      [gen[-i:] + gen[:-i] for i in range(s)])


def _cyclic(m_row, t_row):
    # both matrices cycled from one row of two-decimal literals, whose sums
    # numpy's order-dependent sum gets wrong by an ulp in some rotations
    s = len(m_row)
    return make_model([m_row[-i:] + m_row[:-i] for i in range(s)],
                      [t_row[-i:] + t_row[:-i] for i in range(s)])


CYCLIC3 = ([0.5, 0.3, 0.2], [-0.4, 0.1, 0.3])
CYCLIC4 = ([0.6, 0.1, 0.1, 0.2], [-0.6, 0.1, 0.2, 0.3])


def _swap01():
    # symbols 0 and 1 are exchangeable, 2 is fixed: orbits {0, 1} and {2}
    return make_model([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]],
                      [[-1, 0.5, 0.5], [0.5, -1, 0.5], [0.25, 0.25, -0.5]])


def _full(s):
    # every symbol permutation is a symmetry: one orbit, |G| = s!
    return make_model([[0.5 if i == j else 0.5 / (s - 1) for j in range(s)]
                       for i in range(s)],
                      [[-1.0 if i == j else 1 / (s - 1) for j in range(s)]
                       for i in range(s)])


class TestOrbitReduction:
    """The walk visits one first symbol per orbit of the model's symmetries."""

    def test_groups_found(self, bs, t3):
        assert len(_symmetric_start(bs, None)[1]) == 2
        assert len(_symmetric_start(t3, None)[1]) == 3      # the rotations
        assert len(_symmetric_start(_swap01(), None)[1]) == 2
        rng = np.random.default_rng(0)
        assert len(_symmetric_start(random_model(rng, 3), None)[1]) == 1
        # a start must be fixed exactly: a point mass breaks the swap, the
        # uniform law keeps it
        assert len(_symmetric_start(bs, [1.0, 0.0])[1]) == 1
        assert len(_symmetric_start(bs, [0.5, 0.5])[1]) == 2

    def test_cyclic_generators_keep_their_rotations(self):
        assert len(_symmetric_start(_cyclic(*CYCLIC3), None)[1]) == 3
        assert len(_symmetric_start(_cyclic(*CYCLIC4), None)[1]) == 4

    def test_cyclic_expansion_matches_the_unreduced_walk(self, monkeypatch):
        model = _cyclic(*CYCLIC3)
        assert hmpx.engine._runs(_symmetric_start(model, None)[1]) == [[0, 1, 3]]
        reduced = entropy_rate_series(model, 11).coefficients
        monkeypatch.setattr(hmpx.engine, "_runs", lambda g: [[a, 1, 1] for a in range(3)])
        full = entropy_rate_series(model, 11).coefficients
        np.testing.assert_allclose(reduced, full, rtol=1e-13, atol=0)

    MODELS = ["bs", "bs-slow", "t3", "swap01"]

    @staticmethod
    def _model(name, t3):
        return {"bs": binary_symmetric(0.3), "bs-slow": binary_symmetric(0.05),
                "t3": t3, "swap01": _swap01()}[name]

    @pytest.mark.parametrize("name", MODELS)
    def test_stationary_start_is_averaged_over_the_group(self, t3, name):
        model = self._model(name, t3)
        start, g = _symmetric_start(model, None)
        assert len(g) > 1
        np.testing.assert_array_equal(start[g], np.broadcast_to(start, g.shape))
        np.testing.assert_allclose(start, model.transition.stationary,
                                   rtol=1e-15, atol=0)

    def test_search_is_cheap_or_skipped(self, monkeypatch):
        calls = []
        perms = hmpx.model._permutations
        monkeypatch.setattr(hmpx.model, "_permutations",
                            lambda s: calls.append(s) or perms(s))
        # distinct diagonals: rejected before any permutation is formed
        _symmetric_start(random_model(np.random.default_rng(1), 3), None)
        assert calls == []
        assert len(_symmetric_start(_circulant(7), None)[1]) == 7
        assert calls == [7]
        # s = 8 is symmetric too, but not searched
        assert len(_symmetric_start(_circulant(8), None)[1]) == 1
        assert calls == [7]

    def test_one_search_per_model(self, monkeypatch):
        calls = []
        perms = hmpx.model._permutations
        monkeypatch.setattr(hmpx.model, "_permutations",
                            lambda s: calls.append(s) or perms(s))
        model = _full(7)
        block_entropy(model, 2, 0.05)
        conditional_entropy(model, 3, 0.05)
        mixed_partial_F(model, (1, 1, 1))
        bounds_by_n(model, 0.05, 3)
        assert calls == [7]
        assert hmpx.engine._runs(model.symmetries) == [[0, 1, 7]]

    @pytest.mark.parametrize("name", MODELS + ["random"])
    def test_start_and_group_are_read_only(self, t3, name):
        model = (random_model(np.random.default_rng(0), 3) if name == "random"
                 else self._model(name, t3))
        start, g = _symmetric_start(model, None)
        assert start is model.symmetric_stationary and g is model.symmetries
        for a in (start, g):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("kind", ["float", "unijet", "multijet"])
    def test_reduced_walk_matches_oracle(self, t3, name, kind):
        model = self._model(name, t3)
        v = UniJet.variable(5)
        xs = [MultiJet.variable(i, 4, 3) for i in range(4)]
        profile = {"float": [0.05, 0.0, 0.03, 0.01],
                   "unijet": [v, 0.02 + 0.5 * v + v * v, v, 0.01],
                   "multijet": [xs[0], 0.02 + xs[1] * xs[0], 0.01, xs[3]]}[kind]
        _check_against_oracle(model, profile)

    @pytest.mark.parametrize("initial", [[0.5, 0.5], [0.6, 0.4], [1.0, 0.0]])
    def test_explicit_start_matches_oracle(self, bs, initial):
        # only the uniform start keeps the swap; the others must walk both
        # first symbols
        for profile in ([0.05, 0.02, 0.03, 0.01], [0.02, 0.0, 0.04]):
            got = block_entropy(bs, len(profile), profile, initial=initial)
            want = _block_entropy_oracle(bs, profile, initial)[0]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
        v = UniJet.variable(4)
        if initial[1]:  # a point mass has sequences of zero constant term
            got = block_entropy(bs, 3, [v, 0.02, v], initial=initial)
            np.testing.assert_allclose(
                got.coeffs, _block_entropy_oracle(bs, [v, 0.02, v], initial),
                rtol=1e-12, atol=1e-12)

    def test_underflow_names_the_true_sequence(self):
        # orbits {0, 1} and {2}: the reduced walk visits first symbols 0 and
        # 2 only; P(2, 2, 2, 2) = pi_2 * 1e-315 underflows at N = 4
        model = make_model([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                            [0.5, 0.5, 1e-105]], [[0] * 3] * 3)
        assert len(_symmetric_start(model, None)[1]) == 2
        assert block_entropy(model, 3, 0.0) > 0
        with pytest.raises(UnreachableSequence, match=r"P\(2, 2, 2, 2\)"):
            block_entropy(model, 4, 0.0)

    @pytest.mark.parametrize("kvec", [(0, 0, 0, 1), (1, 0, 2, 1), (1, 1, 1, 2)])
    def test_underflow_on_the_read_off_names_the_true_sequence(self, kvec):
        # kvec[-1] >= 1: the walk reads the last site's probabilities off
        # level 3, where P(2, 2, 2, 2) = pi_2 * 1e-315 underflows
        model = _underflowing([[-1, 0.5, 0.5], [0.5, -1, 0.5], [0.5, 0.5, -1]])
        with pytest.raises(UnreachableSequence, match=r"P\(2, 2, 2, 2\)"):
            mixed_partial_F(model, kvec)


def test_coefficients_pinned_to_fsum_reference(bs, t3):
    # taken from the engine that summed every block with math.fsum and
    # walked every first symbol; guards the block summation from now on
    pinned = {
        (19, "bs"): [
            0.6108643020548925, 0.6778382883097631, -2.4918972452258608,
            7.6648447234776995, -34.207667306456926, 209.58532272612433,
            -1543.8619760404745, 12977.374707806739, -119493.75758641085,
            1177500.0449958108, -12246683.095570445, 133160173.4332422,
            -1502935835.410902, 17511309129.032486, -209700766658.7859,
            2571829584098.5547, -32209707209073.47, 410959595724223.0,
            -5331155825148028.0, 7.019973905830099e+16],
        (11, "t3"): [
            1.029653014064574, 0.8351977102525225, -4.1654854542676745,
            13.987828164609056, -60.466133790196636, 383.74019611073436,
            -2898.719098022675, 24951.432513312568, -235968.12621853838,
            2391667.1963477405, -25613296.621431172, 286937044.01775336],
    }
    for (order, name), want in pinned.items():
        got = entropy_rate_series({"bs": bs, "t3": t3}[name], order).coefficients
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


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


def test_one_pass_is_bit_identical_to_separate_calls(bs, t3):
    # bs at N = 10 spans several trellis blocks at the deepest levels; the
    # blocks of a level do not depend on how deep the pass goes.  t3's
    # 510-row blocks never fill a p*log(p) batch alone, so its batches mix
    # blocks of different levels, and differ between the one pass and the
    # separate calls
    for model, n_max, noises in ((bs, 10, (0.05, UniJet.variable(8))),
                                 (t3, 8, (0.05, UniJet.variable(11)))):
        for noise in noises:
            one_pass = block_entropies(model, n_max, noise)
            for n in range(1, n_max + 1):
                alone = block_entropy(model, n, noise)
                assert _coeffs(one_pass[n - 1]).tobytes() == _coeffs(alone).tobytes()


@pytest.mark.parametrize("name, order, calls", [("bs", 19, 7), ("t3", 11, 4),
                                                ("random", 11, 11)])
def test_p_log_p_runs_in_full_batches(bs, t3, monkeypatch, name, order, calls):
    # the walk takes the p*log(p) of the pending blocks, of any levels, once
    # they hold _CHUNK rows, and of the rest at its end: every log but the
    # last sees at least _CHUNK rows (one call per block would be 16, 13, 25)
    rows = []
    log = ExponentSet.log

    def counted(self, a):
        rows.append(a[0].size)
        return log(self, a)

    monkeypatch.setattr(ExponentSet, "log", counted)
    model = {"bs": bs, "t3": t3,
             "random": random_model(np.random.default_rng(1), 3)}[name]
    entropy_rate_series(model, order)
    assert len(rows) == calls
    assert min(rows[:-1]) >= hmpx.engine._CHUNK


class TestSmallBlocks:
    """Blocks of at most 9 rows, so every level past the second spans
    several blocks whatever the production block size is."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(hmpx.engine, "_CHUNK", 9)

    @pytest.mark.parametrize("name", ["bs", "t3"])
    @pytest.mark.parametrize("kind", ["float", "unijet", "multijet"])
    def test_block_entropies_match_oracle(self, bs, t3, name, kind):
        model = {"bs": bs, "t3": t3}[name]
        n = 6 if model.size == 2 else 5
        xs = [MultiJet.variable(i, n, 2) for i in range(n)]
        profile = {"float": [0.05] * n, "unijet": [UniJet.variable(5)] * n,
                   "multijet": [0.02 + x for x in xs]}[kind]
        one_pass = block_entropies(model, n, profile)
        for k in range(1, n + 1):
            np.testing.assert_allclose(_coeffs(one_pass[k - 1]),
                                       _block_entropy_oracle(model, profile[:k]),
                                       rtol=1e-12, atol=1e-12)
            alone = block_entropy(model, k, profile[:k])
            assert _coeffs(one_pass[k - 1]).tobytes() == _coeffs(alone).tobytes()

    @pytest.mark.parametrize("initial, seq", [
        # the walk meets P(0, 2, 2, 2, 2) first, in the last block of the
        # first symbol's walk
        (None, "0, 2, 2, 2, 2"),
        # sequences of probability exactly zero share its block and are skipped
        ([0.0, 1.0, 0.0], "1, 2, 2, 2, 2"),
        # P(2, 2, 2, 2, y) for every y in one block of three parents, where
        # (symbol, parent) and lexicographic row order differ
        ([0.0, 0.0, 1.0], "2, 2, 2, 2, 0"),
    ])
    def test_underflow_in_a_later_block_names_the_true_sequence(self, initial, seq):
        # only P(x, 2, 2, 2, 2) and P(2, 2, 2, 2, y) underflow at N = 5
        model = make_model([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                            [0.5, 0.5, 1e-105]], [[0] * 3] * 3)
        for noise in (0.0, UniJet.variable(2)):
            with pytest.raises(UnreachableSequence, match=rf"P\({seq}\)"):
                block_entropy(model, 5, noise, initial=initial)

    @pytest.mark.parametrize("profile", [
        [0.1, 0.2, 0.05, 0.0, 0.3],
        [UniJet.variable(2), 0.0, UniJet.variable(2), 0.05, UniJet.variable(2)],
    ], ids=["float", "unijet"])
    @pytest.mark.parametrize("initial, seq", [(None, "0, 2, 2, 2, 2"),
                                              ([0.0, 1.0, 0.0], "1, 2, 2, 2, 2"),
                                              ([0.0, 0.0, 1.0], "2, 2, 2, 2, 0")])
    def test_underflow_under_a_profile_names_the_true_sequence(self, profile, initial,
                                                               seq):
        # T = 0, so every profile leaves the probabilities of the last test
        model = _underflowing([[0] * 3] * 3)
        with pytest.raises(UnreachableSequence, match=rf"P\({seq}\)"):
            block_entropy(model, 5, profile, initial=initial)

    def test_underflow_on_a_later_read_off_names_the_true_sequence(self):
        # the walk reads site 5 off level 4 in blocks of three parents and
        # meets P(0, 2, 2, 2, 2) in the last block of the first symbol's walk
        model = _underflowing([[-1, 0.5, 0.5], [0.5, -1, 0.5], [0.5, 0.5, -1]])
        with pytest.raises(UnreachableSequence, match=r"P\(0, 2, 2, 2, 2\)"):
            mixed_partial_F(model, (0, 1, 0, 0, 2))


def test_the_walk_names_rows_only_when_it_raises(bs, monkeypatch):
    # the rows' lexicographic indices are computed for an underflow alone
    def refuse(*args):
        raise AssertionError("row indices computed without an underflow")

    monkeypatch.setattr(hmpx.engine, "_row_indices", refuse)
    monkeypatch.setattr(hmpx.engine, "_CHUNK", 9)
    entropy_rate_series(bs, 11)
    bounds_by_n(bs, 0.05, 10)
    mixed_partial_F(bs, (1, 0, 2, 1))


class TestVisitOrder:
    """Each level is one correctly rounded sum of its block sums, so the
    order in which the walk meets the blocks cannot change a bit.  One-symbol
    runs give the same blocks whether the first symbols are walked upwards
    or downwards; only the visit order differs."""

    @pytest.fixture
    def model(self):
        model = random_model(np.random.default_rng(0), 3)
        assert len(_symmetric_start(model, None)[1]) == 1
        return model

    @staticmethod
    def _both_orders(monkeypatch, call):
        monkeypatch.setattr(hmpx.engine, "_CHUNK", 9)
        out = []
        for symbols in (range(3), reversed(range(3))):
            runs = [[a, 1, 1] for a in symbols]
            monkeypatch.setattr(hmpx.engine, "_runs", lambda g, runs=runs: runs)
            out.append(call())
        return out

    @pytest.mark.parametrize("kind", ["float", "unijet", "multijet"])
    def test_block_entropies(self, monkeypatch, model, kind):
        n = 7
        xs = [MultiJet.variable(i, n, 2) for i in range(n)]
        profile = {"float": [0.05] * n, "unijet": [UniJet.variable(5)] * n,
                   "multijet": [0.02 + x for x in xs]}[kind]
        up, down = self._both_orders(monkeypatch,
                                     lambda: block_entropies(model, n, profile))
        for a, b in zip(up, down):
            assert _coeffs(a).tobytes() == _coeffs(b).tobytes()

    @pytest.mark.parametrize("kvec", [(1, 0, 2), (2, 1, 0), (0, 1, 1, 1), (1, 2, 0, 1)])
    def test_mixed_partial_corners(self, monkeypatch, model, kvec):
        up, down = self._both_orders(monkeypatch, lambda: mixed_partial_F(model, kvec))
        assert _coeffs(up).tobytes() == _coeffs(down).tobytes()


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
    [1e308, 1e308],          # a sum past the float range
])
def test_initial_must_be_a_probability_vector(bs, initial):
    with pytest.raises(ValueError, match="initial distribution"):
        block_entropy(bs, 3, 0.05, initial=initial)
    with pytest.raises(ValueError, match="initial distribution"):
        conditional_entropy(bs, 3, 0.05, initial=initial)


def test_explicit_start_is_divided_by_its_sum(bs):
    start = _symmetric_start(bs, [0.6, 0.4 + 5e-10])[0]
    assert abs(math.fsum(start) - 1.0) <= math.ulp(1.0)


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
    # the summed level also keeps one 12-float block sum per block, 2**19 /
    # 512 of them at N = 20: measured 1.76 MiB against 0.76 MiB at N = 12
    assert peak(20) <= 3 * peak(12)


def test_block_sums_cost_their_floats_alone(bs, monkeypatch):
    # with 4-row blocks the summed level N holds 2**(N-3) block sums of
    # w = 12 floats each; from N = 12 to N = 14 that is 1536 more, and each
    # may add its 96 bytes plus half again for the buffer's growth, not an
    # array object of its own
    monkeypatch.setattr(hmpx.engine, "_CHUNK", 4)

    def peak(n):
        tracemalloc.start()
        try:
            block_entropy(bs, n, UniJet.variable(11))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra_blocks = 2 ** 11 - 2 ** 9
    assert peak(14) - peak(12) <= extra_blocks * 1.5 * 12 * 8


class TestSizeArguments:
    def test_enumeration_needs_two_symbols_and_one_site(self):
        for s, n in ((1, 3), (2, 0)):
            with pytest.raises(ValueError, match="need s >= 2 and N >= 1"):
                enumerate_sequences(s, n)

    def test_enumeration_alphabet_follows_the_whole_number_rule(self):
        assert list(enumerate_sequences(2.0, 2)) == list(enumerate_sequences(2, 2))
        with pytest.raises(ValueError, match="s must be a whole number"):
            enumerate_sequences(2.5, 2)

    @pytest.mark.parametrize("entropies", [block_entropy, block_entropies])
    def test_block_entropy_needs_one_site(self, bs, entropies):
        with pytest.raises(ValueError, match="need N >= 1"):
            entropies(bs, 0, 0.05)

    @pytest.mark.parametrize("call", [
        lambda bs, n: list(enumerate_sequences(2, n)),
        lambda bs, n: block_entropy(bs, n, 0.05),
        lambda bs, n: block_entropies(bs, n, UniJet.variable(3)),
        lambda bs, n: conditional_entropy(bs, n, 0.05),
        lambda bs, n: conditional_bounds(bs, 0.05, n),
    ], ids=["enumerate_sequences", "block_entropy", "block_entropies",
            "conditional_entropy", "conditional_bounds"])
    def test_n_follows_the_whole_number_rule(self, bs, call):
        # 3.0 gives the bits of 3; 3.5 and nan are refused, not truncated
        assert repr(call(bs, 3.0)) == repr(call(bs, 3))
        for n in (3.5, math.nan):
            with pytest.raises(ValueError, match="n must be a whole number"):
                call(bs, n)


# every public entry that takes eps, called at eps
_EPS_ENTRIES = {
    "block_entropy": lambda m, eps: block_entropy(m, 3, eps),
    "block_entropies": lambda m, eps: block_entropies(m, 3, eps),
    "conditional_entropy": lambda m, eps: conditional_entropy(m, 3, eps),
    "profile": lambda m, eps: conditional_entropy(m, 3, [0.0, eps, 0.0]),
    "multi_site_F": lambda m, eps: multi_site_F(m, [0.0, eps]),
    "sequence_probability": lambda m, eps: sequence_probability(m, (0, 1, 0), eps),
    "emission_at": lambda m, eps: emission_at(m.noise, eps),
    "evaluate_series": lambda m, eps: evaluate_series(entropy_rate_series(m, 2), eps),
    "conditional_bounds": lambda m, eps: conditional_bounds(m, eps, 3),
    "bounds_by_n": lambda m, eps: bounds_by_n(m, eps, 3),
    "path_log_likelihood": lambda m, eps: path_log_likelihood(m, eps, [0, 1, 0]),
    "sample_paths": lambda m, eps: sample_paths(m, eps, 100, seed=0),
    "mc_entropy_rate": lambda m, eps: mc_entropy_rate(m, eps, 10_000, seed=0),
}


@pytest.mark.parametrize("name", _EPS_ENTRIES)
@pytest.mark.parametrize("t", [
    [[0, 0], [0, 0]],
    [[-1e-320, 1e-320], [1e-320, -1e-320]],  # 1/1e-320 overflows
], ids=["zero", "subnormal"])
def test_an_infinite_eps_is_refused(name, t):
    # epsilon_max is inf, and inf * 0 would put nan into R(eps)
    model = make_model([[0.7, 0.3], [0.3, 0.7]], t)
    assert model.epsilon_max == math.inf
    with pytest.raises(EpsilonOutOfRange, match="eps = inf is not finite"):
        _EPS_ENTRIES[name](model, math.inf)
    _EPS_ENTRIES[name](model, 0.25)


class TestNoiseJets:
    # a noise jet's constant term is the expansion point, so it is
    # range-checked like a float noise level
    @pytest.mark.parametrize("call", [
        lambda m, v: block_entropy(m, 3, v),
        lambda m, v: block_entropy(m, 3, [0.05, v, 0.05]),
        lambda m, v: sequence_probability(m, (0, 1, 0), v),
    ], ids=["block_entropy", "profile", "sequence_probability"])
    @pytest.mark.parametrize("jet, error", [
        (UniJet([5.0, 1.0, 0.0]), EpsilonOutOfRange),
        (UniJet([-0.5, 1.0, 0.0]), EpsilonOutOfRange),
        (MultiJet(2, 2, {(0, 0): 5.0, (1, 0): 1.0}), EpsilonOutOfRange),
        (MultiJet(2, 2, {(0, 0): -0.5, (0, 1): 1.0}), EpsilonOutOfRange),
        (UniJet([0.05, math.nan, 0.0]), ValueError),
        (UniJet([0.05, math.inf, 0.0]), ValueError),
        (UniJet([math.nan, 1.0, 0.0]), ValueError),
        (MultiJet(2, 2, {(0, 0): 0.05, (1, 1): -math.inf}), ValueError),
    ], ids=["uni-above", "uni-below", "multi-above", "multi-below", "uni-nan",
            "uni-inf", "uni-nan-point", "multi-inf"])
    def test_bad_noise_jets_are_refused(self, bs, call, jet, error):
        with pytest.raises(error):
            call(bs, jet)

    def test_the_admissible_range_is_closed(self, bs):
        for eps in (0.0, bs.epsilon_max):
            jet = block_entropy(bs, 3, UniJet([eps, 1.0, 0.0]))
            assert jet[0] == block_entropy(bs, 3, eps)


def _wide_model(rng, s):
    # off-diagonal noise rates from 1e-6 to 1e6, some of them zero, and a
    # row-sum residual of up to 5e-10 for validate_noise to fold into the
    # diagonal
    t = 10.0 ** rng.uniform(-6, 6, (s, s))
    t[rng.random((s, s)) < 0.25] = 0.0
    np.fill_diagonal(t, 0.0)
    t[np.arange(s), (np.arange(s) + 1) % s] += 10.0 ** rng.uniform(-6, 6, s)
    t[np.arange(s), np.arange(s)] = -t.sum(axis=1) + rng.uniform(-5e-10, 5e-10, s)
    return HmpModel(transition=random_transition(rng, s), noise=validate_noise(t))


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_site_tensors_are_nonnegative_at_every_admissible_eps(s):
    # the trellis counts only all-zero rows as vanished, which is sound only
    # if no probability is negative: eps <= epsilon_max = fl(1/|t_ii|) and
    # fl(x * fl(1/x)) <= 1, so R(eps) = I + eps*T is >= 0 entrywise.  eps is
    # taken from the model under test, whose epsilon_max may differ by an
    # ulp from that of a re-validated generator.
    rng = np.random.default_rng(s)
    for _ in range(200):
        model = _wide_model(rng, s)
        top = model.epsilon_max
        for eps in (0.0, top, np.nextafter(top, 0.0), rng.uniform(0.0, top)):
            (plain,), _, _ = _sites(model, [eps], 1)
            (jet,), _, _ = _sites(model, [UniJet([eps, 1.0, -0.5])], 1)
            assert plain.shape[0] == 1 and np.all(plain >= 0.0)
            assert np.all(jet[0] >= 0.0)  # the constant term; the rest is T


_PROFILES = {
    "floats": ([0.0, 0.1, 0.05], 3),
    "shared float": (0.07, 4),
    "shared unijet": (UniJet([0.05, 1.0, 0.0, -0.5]), 3),
    "multijet": ([MultiJet.variable(i, 3, 3) for i in range(3)], 3),
    "floats and unijets": ([0.0, UniJet.variable(6), 0.05, UniJet.variable(6)], 4),
    "empty": ([], 0),
}


@pytest.mark.parametrize("case", _PROFILES)
def test_site_tensors_match_the_per_site_formula(t3, case):
    # one broadcast over the (n, w) noise matrix gives every site the bits,
    # zero signs included, of its own unit * I + T * coeffs; a float in a
    # jet profile is the constant jet v * e_0 of the profile's width, and
    # the empty profile gives no site
    noise, n = _PROFILES[case]
    r, space, _ = _sites(t3, noise, n)
    w, s = space.size, t3.size
    assert len(r) == n
    unit = np.eye(w, 1)[:, :, None, None]
    eye = np.eye(s)[:, :, None]
    t = t3.noise.matrix[:, :, None]
    for got, v in zip(r, noise if isinstance(noise, list) else [noise] * n):
        coeffs = v.coeffs if isinstance(v, Jet) else v * np.eye(w)[0]
        want = unit * eye + t * coeffs[:, None, None, None]
        assert got.shape == want.shape == (w, s, s, 1)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
