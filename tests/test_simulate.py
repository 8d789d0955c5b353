import copy
import math

import numpy as np
import pytest
from scipy import stats

from recurjoint.model import (
    PiecewiseConstantHazard,
    PowerLawHazard,
    cumulative_baseline_hazard,
)
import recurjoint.simulate as sim
from conftest import engine_loglik, make_record, make_state
from recurjoint.simulate import (
    KAPPA_VALUES,
    sample_piecewise_nhpp,
    sample_terminal_times,
    simulate_dataset,
)


class TestNhppSampler:
    def test_zero_multiplier_gives_empty(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([2.0]))
        assert sample_piecewise_nhpp(0.0, base, 5.0, rng).size == 0

    def test_constant_rate_poisson_mean(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 10.0]), np.array([1.0]))
        rate, horizon = 1.3, 2.0
        counts = np.array([sample_piecewise_nhpp(rate, base, horizon, rng).size
                           for _ in range(10_000)])
        expected = rate * horizon
        assert counts.mean() == pytest.approx(expected, abs=3 * math.sqrt(expected / 10_000))

    def test_times_sorted_and_bounded(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 0.5, 1.5]), np.array([2.0, 3.0]))
        for _ in range(200):
            t = sample_piecewise_nhpp(2.0, base, 1.2, rng)
            assert np.all(np.diff(t) > 0)
            assert t.size == 0 or (t[0] > 0 and t[-1] <= 1.2)

    @pytest.mark.parametrize("baseline,horizon", [
        (PiecewiseConstantHazard(np.array([0.0, 0.4, 0.9, 1.3, 1.9, 2.5]),
                                 np.array([2.0, 2.3, 2.1, 2.4, 1.7])), 3700.0),
        (PowerLawHazard(1.5), 340.0),
    ])
    def test_time_rescaling(self, baseline, horizon, rng):
        # transformed gaps are exactly Exp(1); a long observation budget makes
        # the end-of-window truncation bias negligible
        multiplier = 1.7
        times = sample_piecewise_nhpp(multiplier, baseline, horizon, rng)
        assert times.size > 10_000
        transformed = multiplier * np.array(
            [cumulative_baseline_hazard(t, baseline) for t in times[:10_001]])
        gaps = np.diff(np.concatenate([[0.0], transformed]))[:10_000]
        p = stats.kstest(gaps, stats.expon.cdf).pvalue
        assert p > 0.01

    def test_rejects_absurd_budget(self, rng):
        with pytest.raises(ValueError, match="too large"):
            sample_piecewise_nhpp(1e6, PowerLawHazard(3.0), 1e3, rng)


class TestTerminalGenerator:
    def test_unit_exponential(self, rng):
        draws = sample_terminal_times(np.zeros(1_000_000), np.ones(1_000_000), rng)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_scalar_wrapper_matches_model(self, rng):
        # a one-element draw is exp(location + log(-log U) / kappa)
        _, truth = simulate_dataset(20, 2, seed=3)
        location = (truth.alpha0 + float(truth.alpha @ np.array([0.1, -0.2, 0.3]))
                    + truth.xi1 * math.log(1.4) + truth.xi2 * 0.2)
        replay = copy.deepcopy(rng)
        value = float(sample_terminal_times(np.array([location]), np.array([2.2]), rng)[0])
        expected = math.exp(location + math.log(-math.log(replay.random())) / 2.2)
        assert value > 0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_survival_matches_evaluator(self, rng):
        # generator/evaluator cross-check at three time points: in corrected
        # mode a no-event unsusceptible participant censored at t contributes
        # the terminal log survival alone
        z = np.array([0.05, -0.1, 0.08])
        gamma, mu, kappa = 1.3, 0.2, 2.2
        state = make_state(alpha=(0.2, 0.3, 0.4), alpha0=0.15, xi1=0.1, xi2=-0.5,
                           gamma=(gamma,), mu_atoms=(mu,), kappa_atoms=(kappa,),
                           unsusceptible=(1,))
        location = 0.15 + float(np.dot((0.2, 0.3, 0.4), z)) + 0.1 * math.log(gamma) - 0.5 * mu
        n = 100_000
        draws = sample_terminal_times(np.full(n, location), np.full(n, kappa), rng)

        for t in (0.5, 1.0, 2.0):
            expected = math.exp(engine_loglik([make_record(followup=t, z=z)], state)[0])
            observed = float((draws > t).mean())
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) <= 3 * se

    def test_xi1_zero_distribution_free_of_gamma(self, monkeypatch):
        # with xi1 = 0 the generator's terminal times of the lowest- and
        # highest-frailty participants share one distribution
        monkeypatch.setattr(sim, "TRUE_XI1", 0.0)
        _, truth = simulate_dataset(8000, 20, seed=3)
        order = np.argsort(truth.gamma)
        a = truth.uncensored_time[order[:4000]]
        b = truth.uncensored_time[order[4000:]]
        assert stats.ks_2samp(a, b).pvalue > 0.01


class TestSimulateDataset:
    def test_shapes_and_censoring(self):
        dataset, truth = simulate_dataset(600, 20, seed=42)
        assert len(dataset) == 600 and dataset.num_clusters == 20
        assert np.array_equal(dataset.cluster_sizes, [30] * 20)
        censored = np.mean([1 - r.event_indicator for r in dataset.records])
        assert censored == pytest.approx(0.5, abs=0.05)

    def test_rejects_uneven_clusters(self):
        with pytest.raises(ValueError, match="divide"):
            simulate_dataset(10, 3)

    def test_susceptibility_probability_centered(self):
        dataset, truth = simulate_dataset(600, 20, seed=7)
        assert truth.susceptibility_prob.mean() == pytest.approx(0.5, abs=0.03)

    def test_unsusceptible_have_no_events(self):
        dataset, truth = simulate_dataset(400, 20, seed=9)
        for rec, flag in zip(dataset.records, truth.unsusceptible):
            if flag:
                assert rec.num_events == 0

    def test_event_times_within_followup(self):
        dataset, truth = simulate_dataset(300, 10, seed=11)
        for rec, delta, r_time in zip(dataset.records,
                                      [r.event_indicator for r in dataset.records],
                                      truth.uncensored_time):
            if rec.num_events:
                assert rec.recurrent_times[-1] <= rec.followup_time
            if delta:
                assert rec.followup_time == pytest.approx(r_time)
            else:
                assert rec.followup_time <= r_time

    def test_cluster_effect_constant_within_cluster(self):
        dataset, truth = simulate_dataset(120, 6, seed=13)
        for rec in dataset.records:
            assert truth.cluster_mu[rec.cluster_index] == truth.cluster_mu[rec.cluster_index]
        assert truth.cluster_mu.size == 6

    def test_same_seed_bit_identical(self):
        a, ta = simulate_dataset(100, 5, seed=99)
        b, tb = simulate_dataset(100, 5, seed=99)
        for ra, rb in zip(a.records, b.records):
            assert ra.followup_time == rb.followup_time
            assert np.array_equal(ra.recurrent_times, rb.recurrent_times)
            assert np.array_equal(ra.covariates_x, rb.covariates_x)
        assert np.array_equal(ta.gamma, tb.gamma)

    def test_frailty_log_mean(self):
        dataset, truth = simulate_dataset(600, 20, seed=21)
        bound = 3 * math.sqrt(0.3 / 600)
        assert abs(np.log(truth.gamma).mean()) <= bound

    def test_kappa_values_from_discrete_set(self):
        _, truth = simulate_dataset(200, 10, seed=23)
        assert set(np.unique(truth.kappa)) <= set(KAPPA_VALUES)

    def test_covariate_union_structure(self):
        dataset, _ = simulate_dataset(50, 5, seed=25)
        for rec in dataset.records:
            np.testing.assert_array_equal(rec.covariates_x[:2], rec.covariates_z[:2])
            np.testing.assert_array_equal(
                rec.covariates_u, np.concatenate([rec.covariates_z, rec.covariates_x[2:]]))

    def test_powerlaw_variant(self):
        dataset, truth = simulate_dataset(100, 5, "powerlaw", seed=27)
        assert isinstance(truth.baseline, PowerLawHazard)
        assert truth.baseline.shape == 1.5
