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
import oracles
import recurjoint.simulate as sim
from conftest import engine_loglik, make_record, make_state
from recurjoint.simulate import (
    KAPPA_VALUES,
    sample_terminal_times,
    simulate_dataset,
)


class TestNhppSampler:
    """``simulate._sample_events`` on one record, or on many of one rate and
    horizon."""

    def test_zero_multiplier_gives_empty(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([2.0]))
        times, counts = sim._sample_events(np.zeros(1), base, np.array([5.0]), rng)
        assert times.size == 0 and counts.tolist() == [0]

    def test_constant_rate_poisson_mean(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 10.0]), np.array([1.0]))
        rate, horizon = 1.3, 2.0
        _, counts = sim._sample_events(np.full(10_000, rate), base, np.full(10_000, horizon),
                                       rng)
        expected = rate * horizon
        assert counts.mean() == pytest.approx(expected, abs=3 * math.sqrt(expected / 10_000))

    def test_times_sorted_and_bounded(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 0.5, 1.5]), np.array([2.0, 3.0]))
        times, counts = sim._sample_events(np.full(200, 2.0), base, np.full(200, 1.2), rng)
        for t in np.split(times, np.cumsum(counts)[:-1]):
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
        times, _ = sim._sample_events(np.array([multiplier]), baseline, np.array([horizon]), rng)
        assert times.size > 10_000
        transformed = multiplier * np.array(
            [cumulative_baseline_hazard(t, baseline) for t in times[:10_001]])
        gaps = np.diff(np.concatenate([[0.0], transformed]))[:10_000]
        p = stats.kstest(gaps, stats.expon.cdf).pvalue
        assert p > 0.01

    def test_rejects_absurd_budget(self, rng):
        with pytest.raises(ValueError, match="too large"):
            sim._sample_events(np.array([1e6]), PowerLawHazard(3.0), np.array([1e3]), rng)


PIECEWISE = PiecewiseConstantHazard(np.array([0.0, 0.4, 0.9, 1.3, 1.9, 2.5]),
                                    np.array([2.0, 2.3, 2.1, 2.4, 1.7]))
BASELINES = [PIECEWISE, PowerLawHazard(1.5)]


class _FixedDraws:
    """Stands in for a generator: the given Poisson counts and uniforms."""

    def __init__(self, counts, uniforms):
        self.counts, self.uniforms = np.asarray(counts), np.asarray(uniforms, dtype=float)

    def poisson(self, lam):
        return self.counts.copy()

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()


class TestEventSampler:
    """``simulate._sample_events``: every record's events in one call."""

    @staticmethod
    def spread_records(rng, n=10_000):
        # rates over 3 decades, horizons over 3 decades: before, inside and
        # past the piecewise grid (last knot 2.5)
        rates = 10.0 ** rng.uniform(-2.0, 1.0, n)
        horizons = 10.0 ** rng.uniform(-1.3, 1.7, n)
        return rates, horizons

    @pytest.mark.parametrize("baseline", BASELINES, ids=["piecewise", "powerlaw"])
    def test_counts_are_poisson(self, baseline, rng):
        rates, horizons = self.spread_records(rng)
        times, counts = sim._sample_events(rates, baseline, horizons, rng)
        assert counts.shape == rates.shape and counts.sum() == times.size
        mean = rates * np.array([cumulative_baseline_hazard(t, baseline) for t in horizons])
        # randomized probability integral transform: exactly U(0, 1) for
        # Poisson(mean) counts, whatever the means
        pit = stats.poisson.cdf(counts - 1, mean) + rng.random(counts.size) * stats.poisson.pmf(
            counts, mean)
        assert stats.kstest(pit, "uniform").pvalue > 1e-3
        # index of dispersion over the records that expect an event or more
        big = mean >= 1
        dispersion = np.sum((counts[big] - mean[big]) ** 2 / mean[big])
        sd = math.sqrt(2 * big.sum() + np.sum(1 / mean[big]))
        assert abs(dispersion - big.sum()) < 4 * sd
        assert abs(counts.sum() - mean.sum()) < 4 * math.sqrt(mean.sum())

    @pytest.mark.parametrize("baseline", BASELINES, ids=["piecewise", "powerlaw"])
    def test_rescaled_times_are_uniform(self, baseline, rng):
        # given its count, a record's Lambda0(t) / Lambda0(T) are iid U(0, 1)
        rates, horizons = self.spread_records(rng)
        times, counts = sim._sample_events(rates, baseline, horizons, rng)
        owner = np.repeat(np.arange(rates.size), counts)
        ratio = (cumulative_baseline_hazard(times, baseline)
                 / cumulative_baseline_hazard(horizons, baseline)[owner])
        assert times.size > 50_000
        assert stats.kstest(ratio, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("baseline", BASELINES, ids=["piecewise", "powerlaw"])
    def test_times_rise_within_each_record_and_lie_in_the_window(self, baseline, rng):
        rates, horizons = self.spread_records(rng, 2000)
        times, counts = sim._sample_events(rates, baseline, horizons, rng)
        owner = np.repeat(np.arange(rates.size), counts)
        same = owner[1:] == owner[:-1]
        assert np.all(np.diff(times)[same] > 0)
        assert np.all(times > 0) and np.all(times <= horizons[owner])

    @pytest.mark.parametrize("baseline", BASELINES, ids=["piecewise", "powerlaw"])
    def test_tie_at_the_horizon_is_removed_with_its_count(self, baseline):
        # uniforms of 1 put two events of record 0 at its horizon, which the
        # inversion rounds past, and record 1 draws the same uniform twice;
        # each keeps one of the tied times
        candidates = 10.0 ** np.linspace(-2.0, 2.0, 1001)
        overshoot = sim._inverse_cumulative(cumulative_baseline_hazard(candidates, baseline),
                                             baseline)
        assert np.any(overshoot > candidates)
        horizon = candidates[np.argmax(overshoot > candidates)]
        horizons = np.array([horizon, 3.1, 0.8])
        draws = _FixedDraws([3, 2, 1], [0.5, 0.0, 0.0, 0.3, 0.3, 0.25])
        times, counts = sim._sample_events(np.ones(3), baseline, horizons, draws)
        np.testing.assert_array_equal(counts, [2, 1, 1])
        assert times.size == 4
        assert times[0] < times[1] == horizon

    def test_order_within_a_record_is_exact_far_down_the_records(self):
        # two uniforms 1e-11 apart in the record at index 2**20, where a
        # float key such as owner + u cannot tell them apart
        n = 2**20 + 1
        counts = np.zeros(n, dtype=np.int64)
        counts[-1] = 2
        draws = _FixedDraws(counts, [0.3, 0.3 + 1e-11])
        times, got = sim._sample_events(np.ones(n), PowerLawHazard(1.5), np.ones(n), draws)
        assert got[-1] == 2 and times[0] < times[1]

    def test_zero_rate_records_get_no_events(self, rng):
        rates = np.tile([0.0, 50.0], 500)
        times, counts = sim._sample_events(rates, PIECEWISE, np.full(1000, 3.0), rng)
        assert np.all(counts[::2] == 0) and np.all(counts[1::2] > 0)
        assert times.size == counts.sum()

    @pytest.mark.parametrize("baseline", BASELINES, ids=["piecewise", "powerlaw"])
    def test_array_cumulative_and_inverse_match_the_scalar_form(self, baseline, rng):
        grid = PIECEWISE.grid
        t = np.concatenate([grid[1:], 10.0 ** rng.uniform(-4.0, 3.0, 2000),
                            rng.uniform(0.0, 2.5, 500)])
        scalar = [cumulative_baseline_hazard(v, baseline) for v in t]
        assert all(type(v) is float for v in scalar)
        scalar = np.array(scalar)
        # one implementation, so the array form is the scalar form entry by
        # entry up to the order of a matrix product's sums, and both match
        # the loop-based oracle
        np.testing.assert_allclose(cumulative_baseline_hazard(t, baseline), scalar,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(cumulative_baseline_hazard(t.reshape(-1, 5), baseline),
                                   scalar.reshape(-1, 5), rtol=1e-14, atol=0)
        reference = {"variant": "powerlaw", "shape": baseline.shape} \
            if isinstance(baseline, PowerLawHazard) else \
            {"variant": "piecewise", "grid": baseline.grid, "levels": baseline.levels}
        np.testing.assert_allclose(scalar, [oracles.cumulative_hazard(v, reference) for v in t],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(sim._inverse_cumulative(scalar, baseline), t,
                                   rtol=1e-12, atol=0)

    def test_budget_guard_names_the_record_before_any_draw(self, rng):
        before = copy.deepcopy(rng.bit_generator.state)
        rates = np.array([1.0, 1.0, 1.0, np.nan, 1e9])
        with pytest.raises(ValueError, match=r"^record 3 \(participant 1 in cluster 1\): "
                                             r"expected event count nan is too large"):
            sim._sample_events(rates, PowerLawHazard(1.5), np.full(5, 2.0), rng, per_cluster=2)
        assert rng.bit_generator.state == before

    def test_simulate_dataset_names_the_record_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(sim, "POWERLAW_SHAPE", 60.0)
        with pytest.raises(ValueError, match=r"record \d+ \(participant \d+ in cluster \d+\): "
                                             r"expected event count .* is too large to sample"):
            simulate_dataset(600, 20, "powerlaw", seed=4)


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
