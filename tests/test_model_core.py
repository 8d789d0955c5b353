import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from conftest import engine_for, engine_loglik, make_dataset, make_record, make_state
from recurjoint.model import (
    Dataset,
    Hyperparams,
    PiecewiseConstantHazard,
    PowerLawHazard,
    RecordError,
    cumulative_baseline_hazard,
)
from recurjoint.sampler import SamplerEngine
from recurjoint.simulate import simulate_dataset


def loglik(rec, state, mode="corrected"):
    return float(engine_loglik([rec], state, mode)[0])


def unsusceptible(state):
    return dataclasses.replace(state, unsusceptible=np.ones_like(state.unsusceptible))


def event_log_gain(t, rec, state):
    """The recurrent log intensity at ``t``: what one event at ``t`` adds to
    a participant's engine log likelihood."""
    with_event = dataclasses.replace(rec, recurrent_times=np.array([t]))
    return loglik(with_event, state) - loglik(rec, state)


def recurrent_surv(rec, state):
    """The recurrent log survival at follow-up: a no-event participant's
    log likelihood minus its unsusceptible, terminal-only value."""
    return loglik(rec, state) - loglik(rec, unsusceptible(state))


def terminal_ll(t, state, delta, z=(0.0, 0.0, 0.0)):
    """The terminal log density (``delta=1``) or log survival (``delta=0``)
    at ``t``: in corrected mode an unsusceptible participant with no events
    contributes the terminal factor alone."""
    return loglik(make_record(followup=t, delta=delta, z=z), unsusceptible(state))


def columns(n, **overrides):
    """Keyword arguments for a valid event-free Dataset of ``n`` records in
    one cluster, with ``overrides`` applied."""
    kwargs = dict(cluster_index=np.zeros(n, dtype=int), participant_index=np.arange(n),
                  followup_time=np.ones(n), event_indicator=np.zeros(n, dtype=int),
                  event_times=np.empty(0), event_offsets=np.zeros(n + 1, dtype=int),
                  covariates_x=np.zeros((n, 3)), covariates_z=np.zeros((n, 3)),
                  covariates_u=np.zeros((n, 4)), num_clusters=1 if n else 0)
    kwargs.update(overrides)
    return kwargs


class TestRecordValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(RecordError, match="strictly increasing") as err:
            make_dataset([make_record(participant=0), make_record(participant=1, times=(0.5, 0.3))],
                         1)
        assert (err.value.position, err.value.field) == (1, "event_times")
        assert "record 1 (participant 1 in cluster 0)" in str(err.value)

    def test_rejects_time_beyond_followup(self):
        with pytest.raises(ValueError, match="followup_time"):
            make_dataset([make_record(followup=1.0, times=(0.5, 1.2))], 1)

    def test_rejects_bad_indicator(self):
        with pytest.raises(ValueError, match="event_indicator"):
            make_dataset([make_record(delta=2)], 1)

    def test_dataset_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions"):
            Dataset(**columns(2, covariates_x=np.zeros((1, 3))))

    def test_empty_dataset_needs_dims(self):
        with pytest.raises(ValueError, match="dimensions"):
            Dataset(**columns(0, covariates_x=np.empty(0)))
        ds = Dataset(**columns(0))
        assert len(ds) == 0 and (ds.dim_x, ds.dim_z, ds.dim_u) == (3, 3, 4)

    @pytest.mark.parametrize("overrides, match", [
        ({"event_offsets": [0, 1, 1]}, "event_offsets"),
        ({"event_offsets": [0, 2, 1], "event_times": [0.5, 0.6]}, "event_offsets"),
        ({"event_offsets": [1, 1, 1], "event_times": [0.5]}, "event_offsets"),
        ({"event_indicator": np.zeros(3)}, "event_indicator"),
        ({"event_indicator": [0, 256]}, "must be 0 or 1, got 256"),
        ({"cluster_index": [0, 2], "num_clusters": 2}, "cluster_index"),
        ({"cluster_index": [0, 0], "num_clusters": 2}, "cluster 1 has none"),
        ({"participant_index": [4, 4]}, "duplicate"),
        ({"followup_time": [1.0, np.inf]}, "finite"),
        ({"event_times": [np.nan], "event_offsets": [0, 0, 1]}, "finite"),
    ])
    def test_every_rule_checked(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            Dataset(**columns(2, **overrides))

    def test_first_failing_record_named(self):
        # record 1 breaks two rules and record 2 one: the error names
        # record 1 and the first of its rules
        with pytest.raises(RecordError) as err:
            Dataset(**columns(3, followup_time=[1.0, -1.0, 1.0], event_indicator=[0, 2, 2]))
        assert (err.value.position, err.value.field) == (1, "followup_time")
        assert "must be positive, got -1.0" in str(err.value)

    def test_columns_read_only_and_records_view(self):
        ds = make_dataset([make_record(participant=0, times=(0.25, 0.5)),
                           make_record(participant=1, followup=2.0, delta=1)], 1)
        assert not ds.followup_time.flags.writeable
        assert ds.event_offsets.tolist() == [0, 2, 2]
        assert ds.event_indicator.dtype == np.int8
        rec = ds.records[1]
        assert (rec.participant_index, rec.followup_time, rec.event_indicator) == (1, 2.0, 1)
        assert rec.num_events == 0 and ds.records[0].recurrent_times.tolist() == [0.25, 0.5]
        assert ds.records is ds.records


class TestCumulativeBaselineHazard:
    def test_piecewise_forced_arithmetic(self):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.3]))
        assert cumulative_baseline_hazard(1.5, base) == pytest.approx(2.0 * 1 + 2.3 * 0.5, abs=1e-15)

    def test_zero_time_is_zero(self):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([3.0]))
        assert cumulative_baseline_hazard(0.0, base) == 0.0
        assert cumulative_baseline_hazard(0.0, PowerLawHazard(1.5)) == 0.0

    def test_power_law_value(self):
        assert cumulative_baseline_hazard(4.0, PowerLawHazard(1.5)) == pytest.approx(8.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cumulative_baseline_hazard(-0.1, PowerLawHazard(1.0))

    def test_extends_last_level(self):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.3]))
        assert cumulative_baseline_hazard(3.0, base) == pytest.approx(2.0 + 2.3 + 2.3, abs=1e-12)

    def test_finite_difference_recovers_level(self, rng):
        grid = np.array([0.0, 0.5, 1.1, 2.0, 2.8, 3.5])
        levels = np.array([2.0, 2.3, 2.1, 2.4, 1.7])
        base = PiecewiseConstantHazard(grid, levels)
        h = 1e-7
        for _ in range(100):
            t = float(rng.uniform(0.01, 4.5))
            while np.any(np.abs(grid - t) < 1e-3):
                t = float(rng.uniform(0.01, 4.5))
            deriv = (cumulative_baseline_hazard(t + h, base)
                     - cumulative_baseline_hazard(t - h, base)) / (2 * h)
            level = oracles.hazard_level(t, {"variant": "piecewise", "grid": grid,
                                             "levels": levels})
            assert deriv == pytest.approx(level, abs=1e-6)

    def test_monotone_nondecreasing(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.3]))
        ts = np.sort(rng.uniform(0, 5, size=200))
        values = [cumulative_baseline_hazard(t, base) for t in ts]
        assert np.all(np.diff(values) >= 0)


class TestRecurrentProcess:
    def test_intensity_identity_modifiers(self):
        base = PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([2.0]))
        state = make_state(baseline=base)
        rec = make_record()
        assert event_log_gain(0.5, rec, state) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_intensity_composition(self):
        state = make_state(gamma=(math.e,), beta=(1.0, 0.0, 0.0), mu_atoms=(-1.0,))
        rec = make_record(x=(1.0, 0.0, 0.0))
        assert event_log_gain(0.5, rec, state) == pytest.approx(1.0, abs=1e-12)

    def test_intensity_random_oracle(self, rng):
        grid = np.array([0.0, 0.4, 1.0])
        levels = np.array([2.0, 2.3])
        base = PiecewiseConstantHazard(grid, levels)
        for _ in range(25):
            x = rng.normal(0, 1, 3)
            gamma = float(rng.uniform(0.2, 3.0))
            mu = float(rng.normal(0, 0.5))
            t = float(rng.uniform(0.01, 0.99))
            state = make_state(beta=(0.4, 0.3, 0.2), gamma=(gamma,), mu_atoms=(mu,), baseline=base)
            rec = make_record(x=x)
            expected = math.log(oracles.recurrent_intensity(
                t, gamma, [0.4, 0.3, 0.2], x, mu,
                {"variant": "piecewise", "grid": grid, "levels": levels}))
            assert event_log_gain(t, rec, state) == pytest.approx(expected, abs=1e-12)

    def test_intensity_rejects_unsusceptible(self):
        # an unsusceptible participant has no recurrent intensity: the engine
        # refuses a state that gives one an event
        state = make_state(unsusceptible=(1,))
        with pytest.raises(ValueError, match="unsusceptible"):
            event_log_gain(0.5, make_record(), state)

    def test_survival_unit_case(self):
        state = make_state()
        assert recurrent_surv(make_record(followup=1.0), state) == pytest.approx(-1.0, abs=1e-15)

    def test_survival_unsusceptible_branch_is_one(self):
        # the recurrent branch contributes exactly nothing: the log
        # likelihood is the terminal factor, whatever beta, mu and the levels
        rec = make_record(x=(0.3, -0.2, 0.1))
        a = unsusceptible(make_state())
        b = unsusceptible(make_state(beta=(1.0, 2.0, 3.0), mu_atoms=(0.7,),
                                     baseline=PiecewiseConstantHazard(np.array([0.0, 1.0]),
                                                                      np.array([5.0]))))
        assert loglik(rec, a) == loglik(rec, b) == -1.0

    def test_survival_compositional_oracle(self, rng):
        base = PiecewiseConstantHazard(np.array([0.0, 0.7, 1.8]), np.array([1.4, 0.9]))
        for _ in range(25):
            gamma = float(rng.uniform(0.2, 3.0))
            mu = float(rng.normal(0, 0.5))
            x = rng.normal(0, 1, 3)
            followup = float(rng.uniform(0.1, 2.5))
            state = make_state(beta=(0.4, 0.3, 0.2), gamma=(gamma,), mu_atoms=(mu,), baseline=base)
            rec = make_record(followup=followup, x=x)
            expected = (-gamma * math.exp(float(np.dot((0.4, 0.3, 0.2), x)) + mu)
                        * cumulative_baseline_hazard(followup, base))
            assert recurrent_surv(rec, state) == pytest.approx(expected, abs=1e-12)


class TestTerminalProcess:
    def test_standard_exponential(self):
        assert terminal_ll(1.0, make_state(), 0) == pytest.approx(-1.0, abs=1e-15)

    def test_xi1_zero_removes_frailty(self):
        a = make_state(gamma=(0.5,), xi1=0.0)
        b = make_state(gamma=(2.7,), xi1=0.0)
        assert terminal_ll(1.7, a, 0) == terminal_ll(1.7, b, 0)
        assert terminal_ll(1.7, a, 1) == terminal_ll(1.7, b, 1)

    def test_survival_formula_oracle(self, rng):
        for _ in range(25):
            z = rng.normal(0, 1, 3)
            gamma = float(rng.uniform(0.2, 3.0))
            mu = float(rng.normal(0, 0.5))
            t = float(rng.uniform(0.05, 3.0))
            state = make_state(alpha=(0.2, 0.3, 0.4), alpha0=0.15, xi1=0.1, xi2=-0.5,
                               gamma=(gamma,), mu_atoms=(mu,), kappa_atoms=(2.2,))
            expected = math.log(oracles.terminal_survival(
                t, 2.2, gamma, 0.15, [0.2, 0.3, 0.4], z, 0.1, -0.5, mu))
            assert terminal_ll(t, state, 0, z) == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_time(self):
        # the engine takes log(t) of every follow-up time; Dataset guards it
        with pytest.raises(ValueError, match="positive"):
            make_dataset([make_record(followup=0.0)], 1)
        with pytest.raises(ValueError, match="positive"):
            make_dataset([make_record(followup=-1.0, delta=1)], 1)

    def test_survival_tends_to_one_and_decreases(self):
        state = make_state(alpha=(0.2, 0.3, 0.4), alpha0=0.15, xi1=0.1, xi2=-0.5,
                           gamma=(1.4,), mu_atoms=(0.3,), kappa_atoms=(2.2,))
        z = (0.1, -0.2, 0.05)
        assert abs(terminal_ll(1e-9, state, 0, z)) < 1e-6
        ts = np.linspace(0.01, 5.0, 200)
        values = [terminal_ll(t, state, 0, z) for t in ts]
        assert np.all(np.diff(values) < 0)
        assert terminal_ll(50.0, state, 0, z) < -100.0

    def test_density_exp1_at_one(self):
        assert terminal_ll(1.0, make_state(), 1) == pytest.approx(-1.0, abs=1e-15)

    def test_density_integrates_to_one_at_truth(self):
        state = make_state(alpha=(0.2, 0.3, 0.4), alpha0=0.15, xi1=0.1, xi2=-0.5,
                           gamma=(1.3,), mu_atoms=(0.2,), kappa_atoms=(2.2,))
        z = (0.05, -0.1, 0.08)
        total, err = integrate.quad(lambda t: math.exp(terminal_ll(t, state, 1, z)), 0.0, 200.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_integrates_to_one_random_draws(self, rng):
        for _ in range(10):
            state = make_state(alpha=tuple(rng.normal(0, 0.3, 3)),
                               alpha0=float(rng.normal(0, 0.3)),
                               xi1=float(rng.normal(0, 0.2)), xi2=float(rng.normal(0, 0.2)),
                               gamma=(float(rng.uniform(0.3, 2.0)),),
                               mu_atoms=(float(rng.normal(0, 0.4)),),
                               kappa_atoms=(float(rng.uniform(0.6, 8.2)),))
            z = rng.normal(0, 0.3, 3)
            total, _ = integrate.quad(lambda t: math.exp(terminal_ll(t, state, 1, z)),
                                      0.0, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_is_hazard_times_survival(self, rng):
        state = make_state(alpha=(0.2, 0.3, 0.4), alpha0=0.15, xi1=0.1, xi2=-0.5,
                           gamma=(0.8,), mu_atoms=(-0.2,), kappa_atoms=(3.3,))
        z = (0.1, 0.2, -0.1)
        for _ in range(20):
            t = float(rng.uniform(0.05, 4.0))
            log_hazard = math.log(oracles.terminal_hazard(
                t, 3.3, 0.8, 0.15, [0.2, 0.3, 0.4], z, 0.1, -0.5, -0.2))
            combined = log_hazard + terminal_ll(t, state, 0, z)
            assert terminal_ll(t, state, 1, z) == pytest.approx(combined, abs=1e-12)


def _random_tiny_instance(rng):
    grid = np.array([0.0, 0.5, 1.2])
    levels = np.asarray(rng.uniform(0.5, 3.0, 2))
    base = PiecewiseConstantHazard(grid, levels)
    followup = float(rng.uniform(0.2, 2.0))
    n_events = int(rng.integers(0, 4))
    times = np.sort(rng.uniform(0.01, followup, n_events)) if n_events else np.empty(0)
    delta = int(rng.integers(0, 2))
    d_flag = int(rng.integers(0, 2)) if n_events == 0 else 0
    x = rng.normal(0, 0.5, 3)
    z = rng.normal(0, 0.5, 3)
    rec = make_record(followup=followup, delta=delta, times=times, x=x, z=z)
    params = {
        "beta": rng.normal(0, 0.4, 3), "alpha": rng.normal(0, 0.4, 3),
        "alpha0": float(rng.normal(0, 0.3)), "xi1": float(rng.normal(0, 0.2)),
        "xi2": float(rng.normal(0, 0.2)), "gamma": float(rng.uniform(0.3, 2.5)),
        "mu": float(rng.normal(0, 0.4)), "kappa": float(rng.uniform(0.5, 6.0)),
        "d_flag": d_flag,
        "baseline": {"variant": "piecewise", "grid": grid, "levels": levels},
    }
    state = make_state(beta=params["beta"], alpha=params["alpha"], alpha0=params["alpha0"],
                       xi1=params["xi1"], xi2=params["xi2"], gamma=(params["gamma"],),
                       unsusceptible=(d_flag,), mu_atoms=(params["mu"],),
                       kappa_atoms=(params["kappa"],), baseline=base)
    return rec, state, params


class TestParticipantLikelihood:
    def test_forced_arithmetic_survivor(self):
        state = make_state()
        rec = make_record(followup=1.0, delta=0)
        assert loglik(rec, state) == pytest.approx(-2.0, abs=1e-15)

    def test_unsusceptible_keeps_terminal_factor(self):
        state = make_state(unsusceptible=(1,))
        rec = make_record(followup=1.0, delta=1)
        assert loglik(rec, state) == pytest.approx(-1.0, abs=1e-15)

    def test_literal_mode_drops_unsusceptible_contribution(self):
        state = make_state(unsusceptible=(1,))
        rec = make_record(followup=1.0, delta=1)
        assert loglik(rec, state, "literal") == 0.0

    def test_rejects_unsusceptible_with_events(self):
        records = [make_record(cluster=c, participant=i, times=(0.4,) if (c, i) == (1, 3) else ())
                   for c in range(2) for i in range(5)]
        flags = np.zeros(10, dtype=np.int8)
        flags[8] = 1
        state = make_state(n=10, j=2, gamma=np.ones(10), unsusceptible=flags, mu_assign=(0, 0),
                           kappa_assign=np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="unsusceptible: participant 3 in cluster 1"):
            engine_for(records, state, num_clusters=2)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rec, state, params = _random_tiny_instance(rng)
            record_tuple = (rec.followup_time, rec.event_indicator,
                            list(rec.recurrent_times), rec.covariates_x, rec.covariates_z)
            for mode in ("corrected", "literal"):
                expected = math.log(oracles.participant_likelihood(record_tuple, params, mode))
                got = loglik(rec, state, mode)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_order_normalized_times(self, rng):
        times = rng.uniform(0.05, 0.9, 5)
        rec = make_record(times=np.sort(times))
        rec2 = make_record(times=np.sort(times[::-1]))
        state = make_state(beta=(0.2, 0.1, -0.1), gamma=(1.3,))
        assert loglik(rec, state) == loglik(rec2, state)


class TestTotalLikelihood:
    def test_empty_dataset(self):
        state = make_state(n=0, j=0, gamma=(), tau2=(), unsusceptible=(),
                           mu_assign=np.empty(0, dtype=int), kappa_assign=np.empty(0, dtype=int))
        ds = make_dataset((), 0)
        eng = SamplerEngine(ds, Hyperparams(fixed_p=0.5))
        eng.load_state(state)
        assert eng.participant_loglik().shape == (0,)
        assert eng.total_loglik() == 0.0

    def test_two_identical_records_double(self):
        a = make_record(followup=0.8, delta=1, times=(0.2, 0.5), participant=0)
        b = make_record(followup=0.8, delta=1, times=(0.2, 0.5), participant=1)
        state = make_state(n=2, beta=(0.3, 0.1, 0.0), gamma=(1.2, 1.2),
                           kappa_atoms=(1.7,), kappa_assign=(0, 0))
        eng = engine_for((a, b), state)
        single, second = eng.participant_loglik()
        assert single == second
        assert eng.total_loglik() == single + single

    def test_sum_matches_per_record_oracle(self):
        rng = np.random.default_rng(13)
        records, gammas, kappas, dflags = [], [], [], []
        for i in range(30):
            rec, _, params = _random_tiny_instance(rng)
            rec = dataclasses.replace(rec, participant_index=i)
            records.append(rec)
            gammas.append(params["gamma"])
            kappas.append(params["kappa"])
            dflags.append(params["d_flag"])
        grid = np.array([0.0, 0.5, 1.2])
        levels = np.array([1.1, 2.2])
        base = PiecewiseConstantHazard(grid, levels)
        state = make_state(n=30, beta=(0.4, 0.3, 0.2), alpha=(0.2, 0.3, 0.4), alpha0=0.15,
                           xi1=0.1, xi2=-0.5, gamma=gammas, unsusceptible=dflags,
                           mu_atoms=(0.25,), kappa_atoms=kappas,
                           kappa_assign=np.arange(30), baseline=base)
        ll = engine_loglik(records, state)
        expected = 0.0
        for i, rec in enumerate(records):
            params = {"beta": state.beta, "alpha": state.alpha, "alpha0": 0.15, "xi1": 0.1,
                      "xi2": -0.5, "gamma": gammas[i], "mu": 0.25, "kappa": kappas[i],
                      "d_flag": dflags[i],
                      "baseline": {"variant": "piecewise", "grid": grid, "levels": levels}}
            record_tuple = (rec.followup_time, rec.event_indicator,
                            list(rec.recurrent_times), rec.covariates_x, rec.covariates_z)
            expected_i = math.log(oracles.participant_likelihood(record_tuple, params))
            assert ll[i] == pytest.approx(expected_i, abs=1e-10)
            expected += expected_i
        assert float(ll.sum()) == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        cases = [
            ("gamma", make_state(n=2, gamma=(1.0, 1.0), unsusceptible=(0,), kappa_assign=(0,))),
            ("unsusceptible", make_state(unsusceptible=(0, 0))),
            ("shape-mixture assignments", make_state(kappa_assign=(0, 0))),
            ("tau2", make_state(j=2, tau2=(1.0, 1.0), mu_assign=(0,))),
        ]
        for field, state in cases:
            with pytest.raises(ValueError, match=f"dimensions do not match the dataset: {field} "):
                engine_for((make_record(),), state)

    @pytest.mark.parametrize("variant", ["BMZ-DP", "BM-DP", "BMZ"])
    @pytest.mark.parametrize("extra", [3, -2])
    def test_cluster_effect_size_mismatch_rejected(self, variant, extra):
        dataset, _ = simulate_dataset(60, 6, seed=4)
        eng = SamplerEngine(dataset, Hyperparams(fixed_p=0.5), variant=variant)
        kwargs = dict(n=60, j=6, kappa_atoms=(1.5,))
        if variant == "BMZ":
            kwargs.update(mu_atoms=np.zeros(6), mu_assign=np.arange(6))
        got = 6 + extra
        wrong_assign = make_state(**{**kwargs, "mu_assign": np.zeros(got, dtype=int)})
        with pytest.raises(ValueError, match="dimensions do not match the dataset: cluster-effect "
                                             f"assignments has {got} entries, expected 6"):
            eng.load_state(wrong_assign)
        if variant == "BMZ":
            wrong_atoms = make_state(**{**kwargs, "mu_atoms": np.zeros(got),
                                        "mu_assign": np.zeros(6, dtype=int)})
            with pytest.raises(ValueError, match="dimensions do not match the dataset: "
                                                 f"cluster-effect atoms has {got} entries"):
                eng.load_state(wrong_atoms)
        eng.load_state(make_state(**kwargs))
        assert np.isfinite(eng.total_loglik())

    def test_factorization_without_shared_effects(self):
        rng = np.random.default_rng(3)
        records = [make_record(followup=float(rng.uniform(0.5, 1.5)),
                               delta=int(rng.integers(0, 2)),
                               times=np.sort(rng.uniform(0.05, 0.45, rng.integers(0, 3))),
                               x=rng.normal(0, 0.3, 3), z=rng.normal(0, 0.3, 3),
                               participant=i)
                   for i in range(12)]

        def total(beta, alpha, alpha0, kappa):
            state = make_state(n=12, beta=beta, alpha=alpha, alpha0=alpha0, xi1=0.0, xi2=0.0,
                               gamma=np.full(12, 1.1), mu_atoms=(0.0,),
                               kappa_atoms=(kappa,), kappa_assign=np.zeros(12, dtype=int))
            return engine_for(records, state).total_loglik()

        beta_a, beta_b = (0.4, 0.3, 0.2), (-0.1, 0.6, 0.0)
        term_a, term_b = ((0.2, 0.3, 0.4), 0.15, 2.2), ((0.0, -0.2, 0.1), -0.3, 1.1)
        # with xi1 = xi2 = 0 and mu = 0 the likelihood factorizes, so the
        # terminal-block difference cannot depend on the recurrent block
        diff_1 = total(beta_a, *term_a) - total(beta_a, *term_b)
        diff_2 = total(beta_b, *term_a) - total(beta_b, *term_b)
        assert diff_1 == pytest.approx(diff_2, abs=1e-9)
