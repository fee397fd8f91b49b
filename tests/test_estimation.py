import math

import numpy as np
import pytest

from hmpx import (
    EpsilonOutOfRange,
    conditional_bounds,
    conditional_entropy,
    mc_entropy_rate,
    sample_paths,
    sequence_probability,
)
from hmpx.estimation import path_log_likelihood
from conftest import binary_symmetric
from oracles import markov_entropy_rate


class TestSamplePaths:
    def test_zero_noise_copies_hidden_path(self, bs):
        run = sample_paths(bs, 0.0, 2000, seed=42)
        np.testing.assert_array_equal(run.hidden, run.observed)

    def test_seeded_determinism(self, bs):
        a = sample_paths(bs, 0.07, 5000, seed=42)
        b = sample_paths(bs, 0.07, 5000, seed=42)
        np.testing.assert_array_equal(a.hidden, b.hidden)
        np.testing.assert_array_equal(a.observed, b.observed)
        assert a.loglik == b.loglik

    def test_different_seeds_differ(self, bs):
        a = sample_paths(bs, 0.07, 5000, seed=1)
        b = sample_paths(bs, 0.07, 5000, seed=2)
        assert not np.array_equal(a.observed, b.observed)

    def test_empirical_marginal_uniform(self, bs):
        length = 100_000
        run = sample_paths(bs, 0.05, length, seed=9)
        freq = float(np.mean(run.observed == 0))
        # stationary marginal is 1/2 by symmetry; allow 3 sigma times a
        # correlation factor of 3
        assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / length) * 3

    def test_range_checks(self, bs):
        with pytest.raises(EpsilonOutOfRange):
            sample_paths(bs, 1.5, 100, seed=0)
        with pytest.raises(ValueError):
            sample_paths(bs, 0.1, 0, seed=0)


class TestLogSpaceForward:
    def test_matches_linear_forward(self, bs):
        rng = np.random.default_rng(3)
        for n in (1, 4, 8, 12):
            y = rng.integers(0, 2, n)
            for eps in (0.0, 0.05, 0.3):
                p = sequence_probability(bs, y, eps)
                ll = path_log_likelihood(bs, eps, y)
                assert math.exp(ll) == pytest.approx(p, rel=1e-12)

    def test_ternary(self, t3):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, 10)
        p = sequence_probability(t3, y, 0.1)
        assert math.exp(path_log_likelihood(t3, 0.1, y)) == pytest.approx(
            p, rel=1e-12)


class TestMcEntropyRate:
    def test_fair_coin_chain_exact(self):
        model = binary_symmetric(0.5)
        est = mc_entropy_rate(model, 0.3, 20_000, seed=5)
        # observations are i.i.d. uniform bits: every path has probability
        # 2^-L, so the estimate is ln 2 up to rounding and the batches agree
        assert est.estimate == pytest.approx(math.log(2), abs=1e-12)
        assert est.standard_error <= 1e-12

    def test_zero_noise_matches_markov_rate(self, bs):
        est = mc_entropy_rate(bs, 0.0, 200_000, seed=6)
        rate = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert abs(est.estimate - rate) <= 4 * est.standard_error

    def test_metadata(self, bs):
        est = mc_entropy_rate(bs, 0.05, 10_000, seed=8, batches=40)
        assert est.batches == 40
        assert est.batch_size == 250
        assert "PCG64" in est.generator
        assert est.seed == 8

    def test_preconditions(self, bs):
        with pytest.raises(ValueError):
            mc_entropy_rate(bs, 0.05, 5000, seed=0)
        with pytest.raises(ValueError):
            mc_entropy_rate(bs, 0.05, 10_000, seed=0, batches=10)

    def test_more_batches_than_symbols_is_refused(self, bs):
        # batch_size would be 0 and the standard error NaN
        with pytest.raises(ValueError, match="batches <= length"):
            mc_entropy_rate(bs, 0.05, 10_000, seed=0, batches=20_000)

    def test_seeded_determinism(self, bs):
        a = mc_entropy_rate(bs, 0.05, 10_000, seed=3)
        b = mc_entropy_rate(bs, 0.05, 10_000, seed=3)
        assert a == b


class TestConditionalBounds:
    def test_zero_noise_collapses(self, bs):
        upper, lower = conditional_bounds(bs, 0.0, 4)
        rate = markov_entropy_rate(bs.transition.matrix, bs.transition.stationary)
        assert upper == pytest.approx(rate, abs=1e-12)
        assert lower == pytest.approx(rate, abs=1e-12)

    def test_sandwich_and_monotone(self, bs):
        uppers, lowers = [], []
        for n in range(2, 7):
            u, lo = conditional_bounds(bs, 0.05, n)
            assert lo <= u
            uppers.append(u)
            lowers.append(lo)
        assert all(a >= b - 1e-13 for a, b in zip(uppers, uppers[1:]))
        assert all(a <= b + 1e-13 for a, b in zip(lowers, lowers[1:]))
        assert uppers[-1] - lowers[-1] < uppers[0] - lowers[0]

    def test_upper_is_conditional_entropy(self, bs):
        upper, _ = conditional_bounds(bs, 0.08, 3)
        assert upper == pytest.approx(conditional_entropy(bs, 3, 0.08), abs=1e-13)

    def test_needs_two_sites(self, bs):
        with pytest.raises(ValueError):
            conditional_bounds(bs, 0.05, 1)

    def test_one_pass_per_start_equals_the_definition(self, bs, t3):
        # every N of the sandwich comes from s + 1 passes to the deepest N;
        # the bits are those of the per-N conditional entropies
        for model in (bs, t3):
            pi = model.transition.stationary.tolist()
            for n in range(2, 9):
                upper = conditional_entropy(model, n, 0.05)
                lower = 0.0
                for x, weight in enumerate(pi):
                    lower += weight * conditional_entropy(
                        model, n, 0.05, initial=np.eye(model.size)[x])
                assert conditional_bounds(model, 0.05, n) == (upper, min(lower, upper))
