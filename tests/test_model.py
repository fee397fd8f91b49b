import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmpx import (
    EpsilonOutOfRange,
    HmpModel,
    NonPositiveEntry,
    NonSquare,
    RowSumViolation,
    SignViolation,
    emission_at,
    make_model,
    model_from_dict,
    random_model,
    validate_noise,
    validate_transition,
)
from hmpx.engine import _runs, _symmetric_start
from oracles import stationary_2x2


class TestValidateTransition:
    def test_doubly_stochastic(self):
        sm = validate_transition([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(sm.stationary, [0.5, 0.5], atol=1e-14)

    def test_symmetric(self):
        sm = validate_transition([[0.7, 0.3], [0.3, 0.7]])
        np.testing.assert_allclose(sm.stationary, [0.5, 0.5], atol=1e-14)

    def test_asymmetric_closed_form(self):
        m = [[0.7, 0.3], [0.2, 0.8]]
        sm = validate_transition(m)
        np.testing.assert_allclose(sm.stationary, stationary_2x2(m), atol=1e-14)
        np.testing.assert_allclose(sm.stationary, [0.4, 0.6], atol=1e-14)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            validate_transition([[0.5, 0.5]])
        with pytest.raises(NonSquare):
            validate_transition([[1.0]])

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolation):
            validate_transition([[0.6, 0.3], [0.5, 0.5]])

    def test_zero_entry_rejected(self):
        with pytest.raises(NonPositiveEntry):
            validate_transition([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(NonPositiveEntry):
            validate_transition([[1.1, -0.1], [0.5, 0.5]])

    def test_renormalizes_small_row_residue(self):
        m = [[0.7, 0.3 + 5e-10], [0.3, 0.7]]
        sm = validate_transition(m)
        np.testing.assert_allclose(sm.matrix.sum(axis=1), 1.0, atol=1e-15)

    def test_permuted_rows_stay_permuted_bit_for_bit(self):
        # numpy's row sum depends on the order of the entries, so dividing
        # by it gave rows 0-2 of this chain 0.7000000000000001 and
        # 0.10000000000000002 and row 3 0.7 and 0.1
        s = 4
        sm = validate_transition([[0.7 if i == j else 0.1 for j in range(s)]
                                  for i in range(s)])
        rows = np.sort(sm.matrix, axis=1)
        assert rows.tobytes() == np.tile(rows[0], (s, 1)).tobytes()
        model = make_model(sm.matrix, [[-3 if i == j else 1 for j in range(s)]
                                       for i in range(s)])
        _, g = _symmetric_start(model, None)
        assert len(g) == 24
        assert _runs(g) == [[0, 1, 4]]  # one first symbol stands for all four
        rng = np.random.default_rng(5)
        for _ in range(20):
            row = rng.dirichlet(np.ones(6))
            m = np.array([rng.permutation(row) for _ in range(6)])
            rows = np.sort(validate_transition(m).matrix, axis=1)
            assert rows.tobytes() == np.tile(rows[0], (6, 1)).tobytes()

    def test_balance_residual_tiny(self):
        sm = validate_transition([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]])
        residual = sm.stationary @ sm.matrix - sm.stationary
        assert np.max(np.abs(residual)) <= 1e-12
        assert abs(sm.stationary.sum() - 1.0) <= 1e-12
        assert np.all(sm.stationary > 0)



def _ulps(value, exact):
    """|value - exact| in units of the spacing of floats next to exact."""
    return abs(Fraction(value) - exact) / Fraction(float(np.spacing(float(exact))))


class TestStationaryLaw:
    """The stationary law keeps its relative accuracy as mixing slows."""

    @pytest.mark.parametrize("t", [1e-4, 1e-8, 1e-12, 1e-17, 1e-200])
    def test_slow_two_state_chain_matches_closed_form(self, t):
        sm = validate_transition([[1 - t, t], [3 * t, 1 - 3 * t]])
        m01, m10 = Fraction(sm.matrix[0, 1]), Fraction(sm.matrix[1, 0])
        exact = (m10 / (m01 + m10), m01 / (m01 + m10))
        for value, target in zip(sm.stationary.tolist(), exact):
            assert _ulps(value, target) <= 2

    @pytest.mark.parametrize("seed", range(12))
    def test_balance_holds_to_a_few_ulps(self, seed):
        rng = np.random.default_rng(seed)
        for s in range(2, 10):
            sm = random_model(rng, s).transition
            m = [[Fraction(v) for v in row] for row in sm.matrix.tolist()]
            pi = [Fraction(v) for v in sm.stationary.tolist()]
            for j in range(s):
                balance = sum(pi[i] * m[i][j] for i in range(s))
                assert _ulps(float(pi[j]), balance) <= 4


class TestValidateNoise:
    def test_symmetric_flip(self):
        ng = validate_noise([[-1, 1], [1, -1]])
        assert ng.epsilon_max == 1.0

    def test_epsilon_max_from_strongest_row(self):
        ng = validate_noise([[-2, 2], [1, -1]])
        assert ng.epsilon_max == 0.5

    def test_zero_generator_degenerate(self):
        ng = validate_noise([[0, 0], [0, 0]])
        assert ng.is_zero
        assert ng.epsilon_max == math.inf

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolation):
            validate_noise([[-1, 0.5], [1, -1]])

    def test_cyclic_rows_stay_rotations_bit_for_bit(self):
        # numpy's sum of a rotation of [-0.4, 0.1, 0.3] can be an ulp off
        # zero; folded into the diagonal, that broke the rotations
        for i, j in itertools.product(range(5, 100, 5), repeat=2):
            row = [-(i + j) / 100, i / 100, j / 100]
            t = validate_noise([row[-k:] + row[:-k] for k in range(3)]).matrix
            assert all(np.roll(t[0], k).tobytes() == t[k].tobytes() for k in range(3))

    def test_row_sum_past_the_float_range(self):
        with pytest.raises(RowSumViolation, match="row 0 sums to"):
            validate_noise([[1e308, 1e308], [1, -1]])
        with pytest.raises(RowSumViolation, match="row 1 sums to"):
            validate_transition([[0.5, 0.5], [1e308, 1e308]])

    def test_sign_violations(self):
        with pytest.raises(SignViolation):
            validate_noise([[1, -1], [-1, 1]])
        with pytest.raises(SignViolation):
            # one zero diagonal entry in a nonzero matrix
            validate_noise([[0, 0], [1, -1]])


class TestEmission:
    def test_identity_at_zero(self):
        ng = validate_noise([[-1, 1], [1, -1]])
        np.testing.assert_array_equal(emission_at(ng, 0.0), np.eye(2))

    def test_affine_formula(self):
        ng = validate_noise([[-1, 1], [1, -1]])
        np.testing.assert_allclose(emission_at(ng, 0.1), [[0.9, 0.1], [0.1, 0.9]])

    def test_boundary(self):
        ng = validate_noise([[-2, 2], [1, -1]])
        np.testing.assert_allclose(emission_at(ng, 0.5), [[0.0, 1.0], [0.5, 0.5]])

    def test_out_of_range(self):
        ng = validate_noise([[-2, 2], [1, -1]])
        with pytest.raises(EpsilonOutOfRange):
            emission_at(ng, 0.6)
        with pytest.raises(EpsilonOutOfRange):
            emission_at(ng, -0.01)

    def test_zero_generator_any_eps(self):
        ng = validate_noise([[0, 0], [0, 0]])
        np.testing.assert_array_equal(emission_at(ng, 7.5), np.eye(2))


def test_model_dimension_mismatch():
    sm = validate_transition([[0.7, 0.3], [0.3, 0.7]])
    ng = validate_noise([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    with pytest.raises(NonSquare):
        HmpModel(transition=sm, noise=ng)


class TestModelDocument:
    def test_round_trip(self):
        doc = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]]}
        model = model_from_dict(doc)
        assert model.size == 2
        assert model.epsilon_max == 1.0

    def test_unknown_key_rejected(self):
        doc = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]],
               "comment": "hi"}
        with pytest.raises(ValueError, match="unknown keys"):
            model_from_dict(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            model_from_dict({"transition": [[0.7, 0.3], [0.3, 0.7]]})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict([1, 2, 3])

    @pytest.mark.parametrize("key", ["transition", "noise"])
    @pytest.mark.parametrize("entry, message", [
        ("0.7", '"0.7" is not a number'), (True, "true is not a number"),
        ({"a": 1}, '{"a": 1} is not a number'), (None, "null is not a number"),
        (10 ** 400, "integer entry too large for a float"),
    ], ids=["string", "bool", "object", "null", "oversized-int"])
    def test_entries_must_be_numbers(self, key, entry, message):
        doc = {"transition": [[0.7, 0.3], [0.3, 0.7]], "noise": [[-1, 1], [1, -1]]}
        doc[key][1][0] = entry
        with pytest.raises(ValueError, match=f"rejected: {key} .*{re.escape(message)}"):
            model_from_dict(doc)


@given(seed=st.integers(0, 2**32 - 1), s=st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_random_model_properties(seed, s):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s)
    eps = rng.uniform(0.0, model.epsilon_max)
    r = emission_at(model.noise, eps)
    np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(r) >= -1e-15
    pi = model.transition.stationary
    residual = pi @ model.transition.matrix - pi
    assert np.max(np.abs(residual)) <= 1e-12


def test_model_make_convenience():
    model = make_model([[0.7, 0.3], [0.3, 0.7]], [[-1, 1], [1, -1]])
    assert model.size == 2
    assert model.epsilon_max == 1.0


@pytest.mark.parametrize("validate, raw", [
    (validate_transition, [[0.5, math.nan], [0.5, 0.5]]),
    (validate_noise, [[-math.inf, math.inf], [1, -1]]),
], ids=["transition-nan", "noise-inf"])
def test_non_finite_entries_are_refused(validate, raw):
    with pytest.raises(ValueError, match="non-finite"):
        validate(raw)


def test_residual_repair_cannot_zero_a_diagonal_entry():
    # row 0 sums to -1e-10, within tolerance; folding it into t_00 = -1e-10
    # leaves 0, which is not a generator
    with pytest.raises(SignViolation, match="residual repair"):
        validate_noise([[-1e-10, 0], [1, -1]])
