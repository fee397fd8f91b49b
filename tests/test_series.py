import math

import numpy as np
import pytest

from hmpx import (
    EpsilonOutOfRange,
    HypothesisNotMet,
    SettlingViolation,
    conditional_entropy,
    entropy_rate_series,
    evaluate_series,
    make_model,
    run_lemma_battery,
    settling_table,
    settling_threshold,
    verify_lemma_blocking,
    verify_lemma_no_hole,
    verify_lemma_zero_prepend,
)
from conftest import binary_symmetric
from oracles import (
    block_entropy_bruteforce,
    markov_entropy_rate,
    richardson_first_derivative,
)


class TestThreshold:
    def test_pinned_values(self):
        assert settling_threshold(0) == 2
        assert settling_threshold(2) == 3
        assert settling_threshold(11) == 7

    def test_formula(self):
        for k in range(0, 40):
            assert settling_threshold(k) == math.ceil((k + 3) / 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            settling_threshold(-1)


class TestEntropyRateSeries:
    def test_order_zero_closed_form(self, bs):
        res = entropy_rate_series(bs, 0)
        expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert res.coefficients[0] == pytest.approx(expected, abs=1e-12)
        assert res.thresholds == (2,)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_order_one_closed_form(self, p):
        # c_1 = 2(1 - 2p) ln((1 - p)/p) for the binary symmetric chain
        res = entropy_rate_series(binary_symmetric(p), 1)
        expected = 2 * (1 - 2 * p) * math.log((1 - p) / p)
        assert abs(res.coefficients[1] - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_zero_noise_generator_is_constant_series(self, noiseless):
        res = entropy_rate_series(noiseless, 5)
        rate = markov_entropy_rate(noiseless.transition.matrix,
                                   noiseless.transition.stationary)
        assert res.coefficients[0] == pytest.approx(rate, abs=1e-13)
        assert max(abs(c) for c in res.coefficients[1:]) <= 1e-14

    def test_first_order_against_finite_differences(self, bs):
        res = entropy_rate_series(bs, 1)

        def c5(eps):
            return (block_entropy_bruteforce(bs, 5, eps)
                    - block_entropy_bruteforce(bs, 4, eps))

        fd = richardson_first_derivative(c5, 1e-4)
        assert res.coefficients[1] == pytest.approx(fd, rel=1e-6)

    def test_thresholds_and_residuals(self, bs):
        res = entropy_rate_series(bs, 4)
        assert res.thresholds == (2, 2, 3, 3, 4)
        assert all(math.isfinite(c) for c in res.coefficients)
        assert all(r <= 1e-8 * max(1.0, abs(c))
                   for r, c in zip(res.settle_residuals, res.coefficients))

    def test_settling_violation_error_path(self, bs):
        with pytest.raises(SettlingViolation):
            entropy_rate_series(bs, 4, settle_tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_settle_tol_must_be_finite_and_nonnegative(self, bs, tol):
        with pytest.raises(ValueError, match="settle_tol"):
            entropy_rate_series(bs, 4, settle_tol=tol)


class TestSettlingTable:
    def test_settled_column_agreement(self, bs):
        table = settling_table(bs, 3, 5)
        k = 3
        settled_ns = [n for i, n in enumerate(table.n_values)
                      if table.settled[i, k]]
        assert settled_ns == [3, 4, 5]
        vals = [table.coefficients[table.n_values.index(n), k] for n in settled_ns]
        assert max(vals) - min(vals) <= 1e-9

    def test_order_zero_column_is_n_independent(self, bs):
        table = settling_table(bs, 3, 5)
        col = table.coefficients[:, 0]
        assert np.max(col) - np.min(col) <= 1e-12
        assert np.all(table.settled[:, 0])

    def test_below_threshold_cell_differs(self, bs):
        # the k = 3 coefficient at N = 2 has not settled yet; the gap to the
        # settled value is large, so the threshold is not vacuous
        table = settling_table(bs, 3, 5)
        unsettled = table.coefficients[0, 3]   # N = 2
        settled = table.coefficients[-1, 3]    # N = 5
        assert not table.settled[0, 3]
        assert abs(unsettled - settled) > 1e-6

    def test_rows_shape(self, bs):
        table = settling_table(bs, 2, 4)
        rows = list(table.rows())
        assert len(rows) == 3 * 3
        assert rows[0][:2] == (2, 0)


class TestEvaluateSeries:
    def test_at_zero(self, bs):
        res = entropy_rate_series(bs, 3)
        assert evaluate_series(res, 0.0).value == res.coefficients[0]

    def test_zero_generator_flat(self, noiseless):
        res = entropy_rate_series(noiseless, 3)
        assert evaluate_series(res, 5.0).value == pytest.approx(
            res.coefficients[0], abs=1e-13)

    def test_against_scalar_engine(self, bs):
        res = entropy_rate_series(bs, 7)
        # at eps = 0.01 the dominant neglected term is |C^(8)| eps^8 ~ 1.1e-11
        d1 = abs(evaluate_series(res, 0.01).value - conditional_entropy(bs, 6, 0.01))
        assert d1 <= 2e-11
        d2 = abs(evaluate_series(res, 0.005).value - conditional_entropy(bs, 6, 0.005))
        assert d2 <= 5e-13

    def test_out_of_range(self, bs):
        res = entropy_rate_series(bs, 2)
        with pytest.raises(EpsilonOutOfRange):
            evaluate_series(res, 1.5)
        with pytest.raises(EpsilonOutOfRange):
            evaluate_series(res, -0.1)

    def test_remainder_hint_positive(self, bs):
        res = entropy_rate_series(bs, 5)
        assert evaluate_series(res, 0.05).remainder_hint > 0


class TestLemmaBlocking:
    def test_spec_instance(self, bs):
        rep = verify_lemma_blocking(bs, 4, 2, [0.05, 0.0, 0.02, 0.07])
        assert rep.passed and rep.residual <= 1e-12

    def test_all_zero_profile(self, bs):
        rep = verify_lemma_blocking(bs, 4, 3, [0.0, 0.0, 0.0, 0.0])
        assert rep.residual <= 1e-14

    def test_ternary_instance(self, t3):
        rng = np.random.default_rng(5)
        profile = (0.2 * t3.epsilon_max * rng.random(5)).tolist()
        profile[2] = 0.0
        rep = verify_lemma_blocking(t3, 5, 3, profile)
        assert rep.residual <= 1e-12

    def test_hypothesis_guards(self, bs):
        with pytest.raises(HypothesisNotMet):
            verify_lemma_blocking(bs, 4, 1, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(HypothesisNotMet):
            verify_lemma_blocking(bs, 4, 4, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(HypothesisNotMet):
            verify_lemma_blocking(bs, 4, 2, [0.0, 0.01, 0.0, 0.0])


class TestLemmaZeroPrepend:
    def test_pair_instance(self, bs):
        rep = verify_lemma_zero_prepend(bs, (1, 1), 2)
        assert rep.passed and rep.residual <= 1e-9

    def test_second_order_instance(self, bs):
        rep = verify_lemma_zero_prepend(bs, (0, 2), 1)
        assert rep.passed and rep.residual <= 1e-9

    def test_all_zero_kvec(self, bs):
        rep = verify_lemma_zero_prepend(bs, (0, 0, 0), 2)
        assert rep.residual <= 1e-13

    def test_first_entry_guard(self, bs):
        with pytest.raises(HypothesisNotMet):
            verify_lemma_zero_prepend(bs, (2, 1), 1)


class TestLemmaNoHole:
    def test_spec_instances(self, bs):
        assert verify_lemma_no_hole(bs, (1, 0, 0, 1)).residual <= 1e-9
        assert verify_lemma_no_hole(bs, (2, 1, 0, 3)).residual <= 1e-9

    def test_hypothesis_guard(self, bs):
        with pytest.raises(HypothesisNotMet):
            verify_lemma_no_hole(bs, (1, 2))
        with pytest.raises(HypothesisNotMet):
            verify_lemma_no_hole(bs, (0, 0, 2))


def test_settling_holds_for_random_models():
    # the finite-N coefficients hit their limiting values for random
    # strictly positive chains too, not just the symmetric showcase model
    rng = np.random.default_rng(314)
    from hmpx import random_model

    for s in (2, 3):
        for _ in range(3):
            model = random_model(rng, s)
            table = settling_table(model, 7, 6)
            for k in range(8):
                vals = table.coefficients[table.settled[:, k], k]
                spread = float(np.max(vals) - np.min(vals))
                assert spread <= 1e-8 * max(1.0, float(np.max(np.abs(vals))))


def test_lemma_batteries_smoke():
    for lemma in (1, 2, 3):
        reports = run_lemma_battery(lemma, 5, seed=11)
        assert len(reports) == 5
        assert all(r.passed for r in reports)


def test_lemma_battery_fixed_model(bs):
    reports = run_lemma_battery(3, 5, seed=2, model=bs)
    assert all(r.passed for r in reports)
    assert all("s=2" in r.instance for r in reports)


def test_lemma_battery_fixed_degenerate_model(noiseless):
    # T = 0 has epsilon_max = inf; instances must stay finite
    for lemma in (1, 2, 3):
        reports = run_lemma_battery(lemma, 3, seed=0, model=noiseless)
        assert all(r.passed for r in reports)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_lemma_tol_must_be_finite_and_nonnegative(bs, tol):
    calls = [lambda: verify_lemma_blocking(bs, 3, 2, [0.01, 0.0, 0.02], tol),
             lambda: verify_lemma_zero_prepend(bs, (1, 1), 1, tol),
             lambda: verify_lemma_no_hole(bs, (1, 0, 1), tol)]
    calls += [lambda lemma=lemma: run_lemma_battery(lemma, 1, seed=0, tol=tol)
              for lemma in (1, 2, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="tol"):
            call()
    assert verify_lemma_no_hole(bs, (1, 0, 1), 0.0).tolerance == 0.0  # 0 is allowed


def test_series_result_is_plain_data(bs):
    res = entropy_rate_series(bs, 2)
    assert isinstance(res.coefficients, tuple)
    assert all(isinstance(c, float) for c in res.coefficients)
    assert res.epsilon_max == 1.0
    assert "nat" in res.log_note
