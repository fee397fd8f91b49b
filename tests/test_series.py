import math

import numpy as np
import pytest

from hmpx import (
    EpsilonOutOfRange,
    HypothesisNotMet,
    SettlingViolation,
    UniJet,
    conditional_entropy,
    entropy_rate_series,
    evaluate_series,
    make_model,
    random_model,
    run_lemma_battery,
    settling_table,
    settling_threshold,
    verify_lemma_blocking,
    verify_lemma_no_hole,
    verify_lemma_zero_prepend,
)
from hmpx.engine import block_entropies
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

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_order_one_closed_form(self, p):
        # for the binary symmetric chain, with L = ln((1 - p)/p):
        #   c_1 = 2(1 - 2p) L
        #   c_2 = -(1 - 2p)^2 / (2 p^2 (1 - p)^2) - 2(1 - 2p) L
        # at p = 3/10, c_2 = -800/441 - (4/5) ln(7/3)
        res = entropy_rate_series(binary_symmetric(p), 2)
        log = math.log((1 - p) / p)
        expected = [2 * (1 - 2 * p) * log,
                    -(1 - 2 * p) ** 2 / (2 * p ** 2 * (1 - p) ** 2) - 2 * (1 - 2 * p) * log]
        for c, e in zip(res.coefficients[1:], expected):
            assert abs(c - e) <= 1e-13 * max(1.0, abs(e))

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

    @pytest.mark.parametrize("p, order", [(1e-8, 19), (1e-5, 31)])
    def test_non_finite_coefficient_is_a_settling_violation(self, p, order):
        # the top coefficient overflows to NaN, and so does its residual; a
        # NaN residual is no pass
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SettlingViolation, match="disagree by nan"):
                entropy_rate_series(binary_symmetric(p), order)

    def test_settling_violation_error_path(self, bs):
        with pytest.raises(SettlingViolation):
            entropy_rate_series(bs, 4, settle_tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_settle_tol_must_be_finite_and_nonnegative(self, bs, tol):
        with pytest.raises(ValueError, match="settle_tol"):
            entropy_rate_series(bs, 4, settle_tol=tol)


@pytest.mark.parametrize("name, order, n_max", [("bs", 15, 9), ("random", 11, 6)])
def test_both_birch_bounds_settle_sharply(bs, name, order, n_max):
    # as jets in eps, the upper bound C_N has the rate's coefficients for
    # k <= 2N-3 and the lower bound (noiseless first site) for k <= 2N-4;
    # each differs at the next order
    model = {"bs": bs, "random": random_model(np.random.default_rng(1), 3)}[name]
    x = UniJet.variable(order)
    rate = np.array(entropy_rate_series(model, order).coefficients)
    upper = block_entropies(model, n_max, x)
    lower = block_entropies(model, n_max, [0.0] + [x] * (n_max - 1))
    for n in range(3, n_max + 1):
        for h, last in ((upper, 2 * n - 3), (lower, 2 * n - 4)):
            gap = np.abs((h[n - 1] - h[n - 2]).coeffs - rate)
            agree = gap <= 1e-9 * np.maximum(1.0, np.abs(rate))
            assert agree[:last + 1].all()
            assert not agree[last + 1:last + 2].any()


@pytest.mark.parametrize("name, order, n_max", [("bs", 15, 9), ("random", 11, 6)])
def test_birch_bounds_carry_the_rate_coefficients(bs, name, order, n_max):
    # the upper bound H(Y_N | Y_1..Y_{N-1}) has the rate's coefficients for
    # k <= 2N-3, the lower bound (noiseless first site, so conditioned on
    # X_1) for k <= 2N-4; each call is its own walk, and the two agree with
    # the expansion to rounding (measured worst 1.8e-14 relative)
    model = {"bs": bs, "random": random_model(np.random.default_rng(1), 3)}[name]
    x = UniJet.variable(order)
    rate = np.array(entropy_rate_series(model, order).coefficients)
    tol = 1e-12 * np.maximum(1.0, np.abs(rate))
    for n in range(3, n_max + 1):
        upper = conditional_entropy(model, n, x).coeffs
        lower = conditional_entropy(model, n, [0.0] + [x] * (n - 1)).coeffs
        assert (np.abs(upper - rate)[:2 * n - 2] <= tol[:2 * n - 2]).all()
        assert (np.abs(lower - rate)[:2 * n - 3] <= tol[:2 * n - 3]).all()


@pytest.mark.parametrize("name, order", [("bs", 0), ("bs", 1), ("bs", 11),
                                         ("bs", 19), ("random", 11)])
def test_series_is_the_settled_row_of_the_table(bs, name, order):
    # the expansion is row N* of the settling table to N* + 1, bit for bit;
    # each residual compares it with row N* + 1 and, where N* exceeds k's
    # own threshold n_k, with row n_k
    model = {"bs": bs, "random": random_model(np.random.default_rng(1), 3)}[name]
    res = entropy_rate_series(model, order)
    n_star = settling_threshold(order)
    table = settling_table(model, order, n_star + 1)
    row = dict(zip(table.n_values, table.coefficients.tolist()))
    assert res.coefficients == tuple(row[n_star])
    assert res.thresholds == table.thresholds
    for k, n_k in enumerate(table.thresholds):
        expected = abs(row[n_star][k] - row[n_star + 1][k])
        if n_k < n_star:
            expected = max(expected, abs(row[n_star][k] - row[n_k][k]))
        assert res.settle_residuals[k] == expected


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

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.01, 0.05, 0.1])
    def test_value_is_the_horner_float(self, bs, eps):
        res = entropy_rate_series(bs, 11)
        acc = 0.0
        for c in reversed(res.coefficients):
            acc = acc * eps + c
        value = evaluate_series(res, eps).value
        assert type(value) is float
        assert value == acc

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

    def test_n_and_j_must_be_whole(self, bs):
        profile = [0.01, 0.0, 0.02, 0.03]
        with pytest.raises(ValueError, match="j must be a whole number"):
            verify_lemma_blocking(bs, 4, 2.5, profile)
        with pytest.raises(ValueError, match="n must be a whole number"):
            verify_lemma_blocking(bs, 4.5, 2, profile)
        whole = verify_lemma_blocking(bs, 4.0, 2.0, profile)
        assert whole.residual == verify_lemma_blocking(bs, 4, 2, profile).residual
        assert "N=4 j=2 " in whole.instance


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

    def test_entries_and_r_must_be_whole(self, bs):
        with pytest.raises(ValueError, match="kvec entry"):
            verify_lemma_zero_prepend(bs, (1, 1.5), 1)
        with pytest.raises(ValueError, match="r must be a whole number"):
            verify_lemma_zero_prepend(bs, (1, 1), 1.5)
        with pytest.raises(ValueError, match="empty"):
            verify_lemma_zero_prepend(bs, (), 1)
        whole = verify_lemma_zero_prepend(bs, (1.0, 1.0), 2.0)
        assert whole.residual == verify_lemma_zero_prepend(bs, (1, 1), 2).residual


class TestLemmaNoHole:
    def test_spec_instances(self, bs):
        assert verify_lemma_no_hole(bs, (1, 0, 0, 1)).residual <= 1e-9
        assert verify_lemma_no_hole(bs, (2, 1, 0, 3)).residual <= 1e-9

    def test_entries_must_be_whole(self, bs):
        with pytest.raises(ValueError, match="kvec entry"):
            verify_lemma_no_hole(bs, (1, 0, 0.5, 1))
        assert (verify_lemma_no_hole(bs, (1.0, 0.0, 0.0, 1.0)).residual
                == verify_lemma_no_hole(bs, (1, 0, 0, 1)).residual)

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


@pytest.mark.parametrize("lemma", [1, 2, 3])
def test_lemma_batteries_reach_ten_sites_and_weight_ten(lemma):
    # the larger instances of the binary case: N <= 10, weight <= 10
    reports = run_lemma_battery(lemma, 4, seed=0, sizes=(2,), n_max=10,
                                weight_max=10)
    assert len(reports) == 4
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    assert all(r.tolerance == 1e-9 for r in reports)


def test_lemma_battery_trials_must_be_whole():
    with pytest.raises(ValueError, match="trials must be a whole number"):
        run_lemma_battery(3, 2.5, seed=0)
    assert run_lemma_battery(3, 3.0, seed=0) == run_lemma_battery(3, 3, seed=0)


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


class TestSizeArguments:
    # sizes follow the whole-number rule: 2.0 gives the bits of 2, 2.5 and
    # nan are refused rather than truncated
    def test_threshold_k(self):
        assert settling_threshold(3.0) == settling_threshold(3) == 3
        for k in (2.5, math.nan):
            with pytest.raises(ValueError, match="k must be a whole number"):
                settling_threshold(k)

    def test_series_order(self, bs):
        whole = entropy_rate_series(bs, 2.0)
        assert whole == entropy_rate_series(bs, 2)
        assert type(whole.order) is int
        with pytest.raises(ValueError, match="order must be a whole number"):
            entropy_rate_series(bs, 2.5)

    def test_table_order_and_n_max(self, bs):
        whole, ref = settling_table(bs, 2.0, 4.0), settling_table(bs, 2, 4)
        assert whole.coefficients.tobytes() == ref.coefficients.tobytes()
        assert (whole.order, whole.n_values) == (ref.order, ref.n_values)
        with pytest.raises(ValueError, match="order must be a whole number"):
            settling_table(bs, 2.5, 4)
        with pytest.raises(ValueError, match="n_max must be a whole number"):
            settling_table(bs, 2, 4.5)

    def test_table_needs_two_rows(self, bs):
        with pytest.raises(ValueError, match="need n_max >= 2"):
            settling_table(bs, 2, 1)


def test_lemma_argument_guards(bs):
    with pytest.raises(HypothesisNotMet, match="profile has 3 sites, expected 4"):
        verify_lemma_blocking(bs, 4, 2, [0.01, 0.0, 0.02])
    with pytest.raises(ValueError, match="r must be >= 1"):
        verify_lemma_zero_prepend(bs, (1, 1), 0)
    with pytest.raises(ValueError, match="lemma must be 1, 2, or 3"):
        run_lemma_battery(4, 1, seed=0)


def test_lemma_battery_sizes_are_checked_before_any_draw():
    # weight_max = 0 rejected every kvec draw, so the battery never
    # returned, and n_max < 3 failed inside numpy's draw of the length
    for n_max in (2, 2.5, math.nan):
        with pytest.raises(ValueError, match="n_max"):
            run_lemma_battery(3, 1, seed=0, n_max=n_max)
    for weight_max in (0, -1, 1.5):
        with pytest.raises(ValueError, match="weight_max"):
            run_lemma_battery(3, 1, seed=0, weight_max=weight_max)
    # (2.5,) ran as s = 2 and ("3",) as s = 3; () and (1,) failed inside
    # numpy's draw and the drawn model, without naming the argument
    for sizes in ((2.5,), ("3",), (), (1,)):
        with pytest.raises(ValueError, match="sizes"):
            run_lemma_battery(3, 1, seed=0, sizes=sizes)
    for lemma in (1, 2, 3):  # the smallest instances still run
        reports = run_lemma_battery(lemma, 3, seed=0, n_max=3, weight_max=1)
        assert len(reports) == 3 and all(r.passed for r in reports)
    assert (run_lemma_battery(3, 2, seed=0, n_max=6.0, weight_max=6.0)
            == run_lemma_battery(3, 2, seed=0))
    assert (run_lemma_battery(3, 4, seed=0, sizes=(2.0, 3.0))
            == run_lemma_battery(3, 4, seed=0, sizes=(2, 3)))


class TestBinarySymmetricClosedForms:
    """Known exact coefficients of the binary symmetric HMP, with flip
    probability p in the chain and in the channel (Jacquet, Seroussi &
    Szpankowski 2004; Ordentlich & Weissman 2004; Zuk, Kanter & Domany
    2005)."""

    @pytest.mark.parametrize("p", [1 / 10, 3 / 10, 2 / 5])
    def test_first_order(self, p):
        c = entropy_rate_series(binary_symmetric(p), 11).coefficients
        assert c[1] == pytest.approx(2 * (1 - 2 * p) * math.log((1 - p) / p),
                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.45])
    def test_third_order(self, p):
        c = entropy_rate_series(binary_symmetric(p), 11).coefficients
        exact = (-(1 - 2 * p) ** 2 * (10 * p**4 - 20 * p**3 + 10 * p**2 - 1)
                 / (6 * p**4 * (1 - p) ** 4))
        assert c[3] == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.4, 0.45])
    def test_symmetric_under_p_to_one_minus_p(self, p):
        # flipping every second hidden state turns flip probability p into
        # 1 - p; the channel is symmetric, so flipping every second
        # observation maps the two observed processes onto each other, a
        # bijection of sequences that keeps every block entropy
        a = entropy_rate_series(binary_symmetric(p), 11).coefficients
        b = entropy_rate_series(binary_symmetric(1 - p), 11).coefficients
        for k, (x, y) in enumerate(zip(a, b)):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), f"c_{k}"
