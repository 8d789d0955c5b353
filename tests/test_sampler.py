import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import engine_for, make_dataset, make_dp, make_record, make_state
from recurjoint import sampler
from recurjoint.diagnostics import cpo_accumulate
from recurjoint.model import (
    LIKELIHOOD_MODES,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
)
from recurjoint.sampler import (
    McmcConfig,
    ProposalScales,
    SamplerEngine,
    adapt_scale,
    metropolis_decision,
    mh_step,
    run_chain,
)
from recurjoint.simulate import KAPPA_VALUES, simulate_dataset
from recurjoint.study import build_summary, fit_manifest


def truth_state(dataset, truth, tau2=0.3):
    """Whole-state container pinned at the generator's values."""
    j = dataset.num_clusters
    atoms = KAPPA_VALUES.copy()
    v = np.searchsorted(atoms, truth.kappa)
    kdp = make_dp(atoms, v)
    mdp = make_dp(truth.cluster_mu, np.arange(j))
    return ParamState(
        beta=truth.beta, alpha=truth.alpha, alpha0=truth.alpha0, xi1=truth.xi1,
        xi2=truth.xi2, zeta=truth.zeta, gamma=truth.gamma,
        tau2=np.full(j, tau2), unsusceptible=truth.unsusceptible,
        cluster_effects=mdp, kappa_dp=kdp, baseline=truth.baseline)


class TestMetropolisRule:
    def test_decision_replay(self, rng):
        ratios = np.concatenate([rng.normal(0, 2, 1000), [np.inf, -np.inf, np.nan]])
        uniforms = rng.random(ratios.size)
        got = metropolis_decision(ratios, uniforms)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.log(uniforms) < np.minimum(0.0, ratios)
        np.testing.assert_array_equal(got, expected)
        assert not metropolis_decision(np.nan, 0.5)
        assert not metropolis_decision(-np.inf, 0.5)
        assert metropolis_decision(np.inf, 0.999999)


class TestMhStep:
    def test_equal_target_always_accepts(self, rng):
        for _ in range(200):
            _, accepted = mh_step(0.3, 1.0, lambda x: 5.0, rng)
            assert accepted

    def test_flat_target_statistics(self, rng):
        x = 0.0
        accepted = 0
        values = np.empty(100_000)
        for i in range(values.size):
            x, ok = mh_step(x, 1.0, lambda v: 0.0, rng)
            accepted += ok
            values[i] = x
        assert accepted == values.size
        increments = np.diff(np.concatenate([[0.0], values]))
        assert abs(increments.mean()) < 3.0 / math.sqrt(values.size)

    def test_standard_normal_stationary(self, rng):
        target = lambda v: -0.5 * v * v
        x = 0.0
        draws = np.empty(1_000_000)
        for i in range(draws.size):
            x, _ = mh_step(x, 2.4, target, rng)
            draws[i] = x
        assert draws.mean() == pytest.approx(0.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0, abs=0.02)

    def test_positivity_rejects_outright(self, rng):
        calls = []

        def target(v):
            calls.append(v)
            return 0.0

        value, accepted = mh_step(1e-9, 10.0, target, rng, positive=True)
        if not accepted:
            assert value == 1e-9
            assert not calls  # the target is never evaluated for invalid moves

    def test_requires_finite_current_target(self, rng):
        with pytest.raises(ValueError, match="not finite"):
            mh_step(0.0, 1.0, lambda v: -np.inf, rng)

    def test_vector_proposal(self, rng):
        cur = np.zeros(3)
        new, ok = mh_step(cur, 0.5, lambda v: -0.5 * float(v @ v), rng)
        assert new.shape == (3,)


class TestAdaptScale:
    def test_on_target_unchanged(self):
        assert adapt_scale(0.44, 1.7) == pytest.approx(1.7)

    def test_full_acceptance_grows(self):
        assert adapt_scale(1.0, 2.0) == pytest.approx(2.0 * math.exp(0.5 * 0.56))

    def test_adaptation_tames_pathological_scale(self, rng):
        scale = 1e3
        x = 0.0
        target = lambda v: -0.5 * v * v
        rate = 0.0
        for window in range(40):  # 2000 sweeps of window 50
            hits = 0
            for _ in range(50):
                x, ok = mh_step(x, scale, target, rng)
                hits += ok
            rate = hits / 50
            scale = adapt_scale(rate, scale)
        assert 0.2 <= rate <= 0.6


def tau2_draws(cluster_log_gammas, a0, b0, clusters, calls, rng):
    """``calls`` engine tau2 updates over ``clusters`` clusters that each
    hold the log frailties ``cluster_log_gammas``: clusters x calls draws."""
    lg = np.asarray(cluster_log_gammas, dtype=float)
    records = [make_record(cluster=c, participant=i)
               for c in range(clusters) for i in range(lg.size)]
    n = len(records)
    state = make_state(n=n, j=clusters, gamma=np.tile(np.exp(lg), clusters),
                       kappa_assign=np.zeros(n, dtype=int))
    eng = engine_for(records, state, num_clusters=clusters,
                     hyper=Hyperparams(a0=a0, b0=b0, fixed_p=0.5))
    draws = []
    for _ in range(calls):
        eng.update_tau2(rng)
        draws.append(eng.tau2.copy())
    return np.concatenate(draws)


class TestGibbsTau2:
    def test_conjugate_mean(self, rng):
        draws = tau2_draws(np.zeros(2), 1.0, 1.0, clusters=500, calls=200, rng=rng)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_log_frailties_add_only_shape(self, rng):
        # a cluster always holds a record (Dataset rejects an empty one), and
        # log frailties of zero leave the rate at b0: IG(3 + 1/2, 2), mean 0.8
        with pytest.raises(ValueError, match="at least one record"):
            make_dataset([make_record(cluster=1)], 2)
        draws = tau2_draws(np.zeros(1), 3.0, 2.0, clusters=500, calls=100, rng=rng)
        assert draws.mean() == pytest.approx(0.8, abs=0.02)

    def test_distribution_ks(self, rng):
        lg = rng.normal(0, 0.6, 7)
        a0, b0 = 1.5, 0.8
        draws = tau2_draws(lg, a0, b0, clusters=500, calls=20, rng=rng)
        dist = stats.invgamma(a0 + 3.5, scale=b0 + 0.5 * float(lg @ lg))
        assert stats.kstest(draws, dist.cdf).pvalue > 0.01


def susceptibility_draws(rec, n, rng):
    """One engine susceptibility update over ``n`` copies of ``rec`` (one per
    participant index) under unit frailty, zero predictors, a unit hazard
    and p = 0.5: n draws."""
    state = make_state(n=n, gamma=np.ones(n), kappa_assign=np.zeros(n, dtype=int))
    eng = engine_for([dataclasses.replace(rec, participant_index=i) for i in range(n)], state)
    eng.update_susceptibility(rng)
    return eng.d_flags


class TestGibbsSusceptibility:
    def test_events_force_susceptible(self, rng):
        assert np.all(susceptibility_draws(make_record(times=(0.3,)), 20, rng) == 0)

    def test_forced_probability(self, rng):
        # gamma=1, zero linear predictors, unit hazard over unit follow-up:
        # S = exp(-1), so P(D=1) = 1 / (1 + exp(-1))
        draws = susceptibility_draws(make_record(followup=1.0), 100_000, rng)
        assert draws.mean() == pytest.approx(1 / (1 + math.exp(-1)), abs=0.01)

    def test_no_hazard_means_prior(self, rng):
        draws = susceptibility_draws(make_record(followup=1e-12), 100_000, rng)
        assert draws.mean() == pytest.approx(0.5, abs=0.01)


class TestMuBlock:
    def test_dominant_atom_counts_and_stick(self, rng):
        dataset, truth = simulate_dataset(40, 4, seed=5)
        state = truth_state(dataset, truth)
        state = ParamState(**{**state.__dict__,
                              "cluster_effects": make_dp([0.0, 40.0, 41.0],
                                                         np.zeros(4, dtype=int))})
        eng = SamplerEngine(dataset, Hyperparams(update_concentrations=False), variant="BMZ-DP")
        first_sticks = []
        for _ in range(800):
            eng.load_state(state)
            eng.update_mu_block(rng)
            assert np.all(eng.m == 0)
            first_sticks.append(eng.mu_sticks[0])
        # counts (J, 0, 0) make the first stick Beta(1 + J, phi)
        assert np.mean(first_sticks) == pytest.approx(5 / 6, abs=0.01)

    def test_two_cluster_recovery(self, rng):
        # synthetic two-cluster data generated directly at mu = (+0.4, -0.4)
        import recurjoint.simulate as sim

        true_mu = np.array([0.4, -0.4])
        gen = np.random.default_rng(21)
        n_per, kappa = 30, 2.2
        base = PiecewiseConstantHazard(np.array([0.0, 2.0]), np.array([2.0]))
        records, gammas = [], []
        for c in range(2):
            for i in range(n_per):
                gamma = float(np.exp(math.sqrt(0.3) * gen.standard_normal()))
                loc = 0.15 + 0.1 * math.log(gamma) - 0.5 * true_mu[c]
                r_time = float(sim.sample_terminal_times([loc], [kappa], gen)[0])
                censor = float(gen.uniform(0.2, 2.0))
                followup = max(min(r_time, censor), 1e-9)
                times = sim.sample_piecewise_nhpp(gamma * math.exp(true_mu[c]), base,
                                                  followup, gen)
                records.append(make_record(followup=followup, delta=int(r_time <= censor),
                                           times=times, cluster=c, participant=i))
                gammas.append(gamma)
        dataset = make_dataset(records, 2)
        state = make_state(n=2 * n_per, j=2, alpha0=0.15, xi1=0.1, xi2=-0.5,
                           gamma=gammas, tau2=(0.3, 0.3),
                           mu_atoms=(0.1, -0.1, 0.0, 0.0), mu_assign=(0, 1),
                           kappa_atoms=(kappa,), baseline=base)
        eng = SamplerEngine(dataset, Hyperparams(fixed_p=0.5), variant="BMZ-DP")
        eng.load_state(state)
        kept = []
        for i in range(5000):
            eng.update_mu_block(rng)
            if (i + 1) % 50 == 0 and i < 1000:
                eng.adapt_all()
            if i >= 1000:
                kept.append(eng.eta[eng.m].copy())
        post = np.mean(kept, axis=0)
        assert post[0] > 0 > post[1]
        assert np.all(np.abs(post - true_mu) < 0.15)

    def test_zero_information_prior_recovery(self, rng):
        records = tuple(make_record(followup=1e-6, cluster=c, participant=i)
                        for c in range(3) for i in range(2))
        dataset = make_dataset(records, 3)
        hyper = Hyperparams(truncation_mu=5, fixed_p=0.5)
        eng = SamplerEngine(dataset, hyper, variant="BMZ-DP")
        eng.init_state(rng)
        atoms = []
        for i in range(4000):
            eng.update_mu_block(rng)
            if i >= 500:
                atoms.append(eng.eta.copy())
        pooled = np.concatenate(atoms)
        assert pooled.mean() == pytest.approx(0.0, abs=3 * pooled.std() / math.sqrt(200))
        assert pooled.std() == pytest.approx(1.0, abs=0.05)

    def test_bz_dp_has_no_block(self, rng):
        dataset, truth = simulate_dataset(20, 2, seed=1)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BZ-DP")
        eng.load_state(dataclasses.replace(truth_state(dataset, truth), cluster_effects=None))
        before = rng.bit_generator.state
        eng.update_mu_block(rng, post=True)
        assert rng.bit_generator.state == before
        assert eng.eta.size == 0 and "eta" not in eng.acceptance_rates()
        np.testing.assert_array_equal(eng.mu_rec, np.zeros(20))


class TestKappaBlock:
    def test_single_atom_assignment(self, rng):
        dataset, truth = simulate_dataset(10, 2, seed=9)
        state = truth_state(dataset, truth)
        state = ParamState(**{**state.__dict__,
                              "kappa_dp": make_dp(np.array([1.5]), np.zeros(10, dtype=int))})
        eng = SamplerEngine(dataset, Hyperparams(truncation_kappa=1), variant="BMZ-DP")
        eng.load_state(state)
        eng.update_kappa_block(rng)
        assert np.all(eng.v == 0)

    def test_recovery_of_discrete_shape_set(self, rng):
        dataset, truth = simulate_dataset(600, 20, seed=31)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        st = truth_state(dataset, truth)
        eng.load_state(st)
        # start the mixture from scratch so recovery is genuine
        eng.theta = np.maximum(rng.gamma(1.0, 1.0, eng.level_kappa), 1e-6)
        eng.v = rng.integers(0, eng.level_kappa, eng.n)
        eng.refresh_caches()
        for i in range(3000):
            eng.update_kappa_block(rng)
            if (i + 1) % 50 == 0 and i < 1500:
                eng.adapt_all()
        counts = np.bincount(eng.v, minlength=eng.level_kappa)
        top = eng.theta[np.argsort(-counts)[:4]]
        matched = {float(t) for t in KAPPA_VALUES
                   for atom in top if abs(atom - t) <= 0.25 * t}
        assert len(matched) >= 2

    def test_no_deaths_reverts_to_base(self, rng):
        records = tuple(make_record(followup=1e-6, delta=0, participant=i) for i in range(8))
        dataset = make_dataset(records, 1)
        hyper = Hyperparams(truncation_kappa=6, fixed_p=0.5)
        eng = SamplerEngine(dataset, hyper, variant="BMZ-DP")
        eng.init_state(rng)
        atoms = []
        for i in range(4000):
            eng.update_kappa_block(rng)
            if (i + 1) % 50 == 0 and i < 500:
                eng.adapt_all()
            if i >= 500:
                atoms.append(eng.theta.copy())
        pooled = np.concatenate(atoms)
        assert pooled.mean() == pytest.approx(1.0, abs=0.1)
        assert pooled.var() == pytest.approx(1.0, abs=0.2)


    def test_envelope_bounds_every_score_in_its_bin(self, rng):
        # atoms from 1e-12 to 1e12; bins all negative, straddling 0, all
        # positive, past the exp cap, and at the routing limit on each side
        theta = np.concatenate(([1e-12], np.sort(rng.gamma(1.0, 1.0, 6)), [350.0, 1e6, 1e12]))
        limit = sampler._KAPPA_ROUTE_LIMIT / theta.max()
        lo = np.array([-5.0, -1e-3, 0.5, 2.0, -limit, 0.5 * limit])
        hi = np.array([-3.0, 2e-3, 0.7, 3.0, -0.5 * limit, limit])
        n = 4
        eng = engine_for([make_record(participant=i) for i in range(n)],
                         make_state(n=n, kappa_atoms=theta))
        eng.kappa_weights = rng.dirichlet(np.ones(theta.size))
        bound, cdf = eng._kappa_envelope(lo, hi)
        rows = 2 * lo.size
        bound = bound.reshape(rows, -1)
        cdf = cdf.reshape(rows, -1)
        k = theta.size
        assert np.all(np.isinf(cdf[:, k:]))
        for flag in (0, 1):
            for b in range(lo.size):
                row = flag * lo.size + b
                x = np.outer(np.linspace(lo[b], hi[b], 202), theta)
                assert (np.abs(x) <= sampler._KAPPA_ROUTE_LIMIT).all()
                e = np.exp(np.minimum(x, sampler._EXP_CAP))
                score = flag * x - e
                rounding = 8 * np.finfo(float).eps * (1.0 + np.abs(x) + e)
                assert np.all(score <= bound[row, :k] + rounding), (flag, b)
                # proposals proportional to w theta^flag exp(bound)
                log_p = bound[row, :k] + np.log(eng.kappa_weights) + flag * np.log(theta)
                p = np.exp(log_p - log_p.max())
                np.testing.assert_allclose(np.diff(cdf[row, :k], prepend=0.0), p / p.sum(),
                                           rtol=1e-9, atol=1e-15)
                assert cdf[row, k - 1] == 1.0

    # the module's settings, one round, and one bin over the whole range,
    # where the bounds are loose and the acceptance step shapes the draws;
    # max_left caps the share of susceptible records left to the dense draw
    @pytest.mark.parametrize("rounds,bin_records,max_left", [
        (sampler._KAPPA_ROUNDS, None, 0.01), (1, None, 0.1), (sampler._KAPPA_ROUNDS, 10**9, 0.8)])
    @pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
    def test_rejection_draws_match_exact_softmax(self, mode, rounds, bin_records, max_left,
                                                 monkeypatch):
        monkeypatch.setattr(sampler, "_KAPPA_ROUNDS", rounds)
        if bin_records is not None:
            monkeypatch.setattr(sampler, "_KAPPA_BIN_RECORDS", bin_records)
        # record types (offset d = log followup, terminal flag, unsusceptible);
        # from d = 3 on, the largest atom's theta d is past the exp cap
        offsets = (-4.0, -1.0, -0.2, 0.3, 1.2, 3.0)
        types = [(d, delta, 0) for d in offsets for delta in (0, 1)]
        if mode == "literal":
            types += [(0.3, 0, 1), (-1.0, 1, 1)]
        reps = 400
        records = [make_record(followup=math.exp(d), delta=delta, participant=i)
                   for i, (d, delta, _) in enumerate(t for t in types for _ in range(reps))]
        flags = np.repeat([flag for _, _, flag in types], reps)
        n = len(records)
        eng = engine_for(records, make_state(n=n, kappa_atoms=(1e-12, 0.005, 0.3, 1.0, 2.5, 300.0),
                                             unsusceptible=flags), mode)
        # atom 3 has zero weight
        eng.kappa_weights = np.array([0.1, 0.2, 0.25, 0.0, 0.2, 0.25])
        assert (eng.theta.max() * eng.d_scale > sampler._EXP_CAP).any()

        # the rounds draw nearly every susceptible record; in the literal
        # mode the unsusceptible ones, whose scores are all 0, go dense
        left = eng._kappa_rejection_rounds(np.random.default_rng(1), np.empty(n, dtype=np.int64))
        assert left[flags == 0].mean() < max_left
        assert left[flags == 1].all()
        v = eng._kappa_assignments(np.random.default_rng(2))
        tested = 0
        for t in range(len(types)):
            counts = np.bincount(v[t * reps:(t + 1) * reps], minlength=eng.level_kappa)
            expected = reps * np.array(oracles.kappa_probabilities(eng, t * reps))
            assert counts[expected == 0].sum() == 0, types[t]
            # pool the least likely atoms until every cell expects 5 draws
            order = np.argsort(expected)
            cut = max(np.searchsorted(np.cumsum(expected[order]), 5.0) + 1,
                      np.searchsorted(expected[order], 5.0))
            observed = [counts[order[:cut]].sum(), *counts[order[cut:]]]
            wanted = [expected[order[:cut]].sum(), *expected[order[cut:]]]
            if len(wanted) > 1:
                tested += 1
                p = stats.chisquare(observed, wanted).pvalue
                assert p > 1e-6, (types[t], counts, expected)
        assert tested >= 8


class TestBaselineBlock:
    def test_no_events_smaller_levels_always_accepted(self, rng):
        # with zero events the level likelihood is pure survival, monotone
        # decreasing, so a down-move always passes the Metropolis rule
        records = tuple(make_record(followup=1.0, participant=i) for i in range(10))
        state = make_state(n=10, gamma=np.ones(10), kappa_assign=np.zeros(10, dtype=int),
                           baseline=PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([2.0])))

        class StingyRng:
            """Real proposals; uniforms at 1 so only nonnegative ratios pass."""

            def standard_normal(self, size=None):
                return rng.standard_normal(size)

            def random(self, size=None):
                return np.full(size, 1.0 - 1e-16) if size is not None else 1.0 - 1e-16

        eng = engine_for(records, state)
        for _ in range(300):
            eng.load_state(state)
            eng.update_baseline_block(StingyRng())
            assert float(eng.lam[0]) <= 2.0
        drift = []
        for _ in range(400):
            eng.load_state(state)
            eng.update_baseline_block(rng)
            drift.append(float(eng.lam[0]))
        assert np.mean(drift) < 2.0

    def test_piecewise_recovery(self, rng):
        dataset, truth = simulate_dataset(1200, 40, seed=17)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP",
                            grid=truth.baseline.grid)
        eng.load_state(truth_state(dataset, truth))
        kept = []
        for i in range(2500):
            eng.update_baseline_block(rng)
            if (i + 1) % 50 == 0 and i < 1000:
                eng.adapt_all()
            if i >= 1000:
                kept.append(eng.lam.copy())
        post = np.mean(kept, axis=0)
        true_levels = np.asarray(truth.baseline.levels)
        assert np.all(np.abs(post - true_levels) <= 0.2 * true_levels)

    def test_powerlaw_recovery(self, rng):
        dataset, truth = simulate_dataset(600, 20, "powerlaw", seed=23)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP",
                            baseline_variant="powerlaw")
        eng.load_state(truth_state(dataset, truth))
        kept = []
        for i in range(2500):
            eng.update_baseline_block(rng)
            if (i + 1) % 50 == 0 and i < 1000:
                eng.adapt_all()
            if i >= 1000:
                kept.append(eng.psi)
        assert 1.3 <= np.mean(kept) <= 1.7


class TestRunChain:
    def test_same_seed_identical_traces(self):
        dataset, _ = simulate_dataset(60, 4, seed=2)
        config = McmcConfig(iterations=120, burn_in=60, seed=9, adapt_window=20)
        a = run_chain(dataset, config, Hyperparams())
        b = run_chain(dataset, config, Hyperparams())
        assert a.draws.tobytes() == b.draws.tobytes()
        assert a.neg_loglik_lse.tobytes() == b.neg_loglik_lse.tobytes()
        assert a.total_loglik.tobytes() == b.total_loglik.tobytes()

    def test_trace_holds_no_draws_by_participants_array(self):
        # draws has a row and total_loglik an entry per kept draw; every
        # other array must not grow with the number of kept draws
        dataset, _ = simulate_dataset(30, 3, seed=4)
        sizes = []
        for kept in (40, 400):
            config = McmcConfig(iterations=kept + 10, burn_in=10, seed=2, adapt_window=10)
            trace = run_chain(dataset, config, Hyperparams())
            assert trace.draws.shape[0] == trace.total_loglik.size == kept
            assert trace.neg_loglik_lse.shape == (30,)
            sizes.append({name: value.size for name, value in vars(trace).items()
                          if isinstance(value, np.ndarray)
                          and name not in ("draws", "total_loglik")})
        assert sizes[0] == sizes[1]

    def test_two_chain_lpml_matches_dense_oracle(self, monkeypatch):
        # record each kept draw's log likelihoods as the chain folds them in
        kept = []

        def recording(lse, loglik, draw):
            kept[-1].append(np.array(loglik))
            return cpo_accumulate(lse, loglik, draw)

        monkeypatch.setattr(sampler, "cpo_accumulate", recording)
        dataset, _ = simulate_dataset(48, 4, seed=6)
        config = McmcConfig(iterations=90, burn_in=30, seed=5, adapt_window=10, chains=2)
        traces = []
        for k in range(2):
            kept.append([])
            traces.append(run_chain(dataset, config, Hyperparams(), chain_index=k))
        summary = build_summary(traces, fit_manifest(traces, config, Hyperparams()))
        dense = oracles.dense_cpo_lpml(np.vstack(kept[0] + kept[1]))[1]
        assert len(kept[0]) == len(kept[1]) == 60
        assert summary["lpml"] == pytest.approx(dense, rel=1e-12)

    def test_nonfinite_loglik_names_draw_and_participant(self, monkeypatch):
        # init_state evaluates the likelihood once, so call 8 is kept draw 6
        calls = []
        original = SamplerEngine.participant_loglik

        def poisoned(self):
            ll = original(self)
            calls.append(None)
            if len(calls) == 8:
                ll[3] = np.nan
            return ll

        monkeypatch.setattr(SamplerEngine, "participant_loglik", poisoned)
        dataset, _ = simulate_dataset(20, 2, seed=1)
        config = McmcConfig(iterations=20, burn_in=10, seed=1, adapt_window=10)
        with pytest.raises(ValueError, match="non-finite log likelihood at draw 6, participant 3"):
            run_chain(dataset, config, Hyperparams())

    def test_chain_index_changes_stream(self):
        dataset, _ = simulate_dataset(60, 4, seed=2)
        config = McmcConfig(iterations=60, burn_in=30, seed=9, adapt_window=20)
        a = run_chain(dataset, config, Hyperparams(), chain_index=0)
        b = run_chain(dataset, config, Hyperparams(), chain_index=1)
        assert a.draws.tobytes() != b.draws.tobytes()

    def test_variant_column_contracts(self):
        dataset, _ = simulate_dataset(40, 4, seed=3)
        hyper = Hyperparams()
        config = McmcConfig(iterations=30, burn_in=10, seed=1, adapt_window=10)

        bz = run_chain(dataset, dataclasses.replace(config, variant="BZ-DP"), hyper)
        assert not any(c.startswith("mu_") or c.startswith("eta_") for c in bz.columns)
        bm = run_chain(dataset, dataclasses.replace(config, variant="BM-DP"), hyper)
        assert not any(c.startswith("zeta_") for c in bm.columns)
        assert np.all(bm.column("n_unsusceptible") == 0)
        bmz = run_chain(dataset, dataclasses.replace(config, variant="BMZ"), hyper)
        assert not any(c.startswith("eta_") or c == "phi_mu" for c in bmz.columns)
        assert any(c.startswith("mu_") for c in bmz.columns)

    def test_unsusceptible_never_set_with_events(self, rng):
        dataset, _ = simulate_dataset(80, 4, seed=8)
        has_events = np.array([r.num_events > 0 for r in dataset.records])
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        eng.init_state(rng)
        for _ in range(150):
            eng.sweep(rng)
            assert not np.any(eng.d_flags[has_events])

    def test_scales_frozen_after_burn_in(self):
        # same-seed chains that differ only in their post-burn-in length end
        # with the scales adapted during burn-in
        dataset, _ = simulate_dataset(40, 4, seed=4)
        short, long = (run_chain(dataset, McmcConfig(iterations=iterations, burn_in=150, seed=2,
                                                     adapt_window=25), Hyperparams())
                       for iterations in (200, 300))
        assert short.final_scales == long.final_scales
        defaults = {name.removeprefix("rho_"): value
                    for name, value in vars(ProposalScales()).items()}
        assert short.final_scales.keys() == defaults.keys()
        assert short.final_scales != defaults

    def test_init_abort_names_participant(self):
        bad = make_record(x=(np.inf, 0.0, 0.0), cluster=0, participant=7)
        ok = make_record(cluster=0, participant=1)
        dataset = make_dataset([ok, bad], 1)
        config = McmcConfig(iterations=10, burn_in=5, seed=0)
        with pytest.raises(RuntimeError, match="participant 7 in cluster 0"):
            run_chain(dataset, config, Hyperparams())

    def test_tau2_conditional_distribution(self, rng):
        dataset, truth = simulate_dataset(60, 3, seed=6)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        eng.load_state(truth_state(dataset, truth))
        draws = []
        for _ in range(10_000):
            eng.update_tau2(rng)
            draws.append(eng.tau2[0])
        lg = np.log(truth.gamma[:20])
        dist = stats.invgamma(1.0 + 10.0, scale=1.0 + 0.5 * float(lg @ lg))
        assert stats.kstest(np.asarray(draws), dist.cdf).pvalue > 0.01


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=5, thin=2)  # kept count not integral
        with pytest.raises(ValueError):
            McmcConfig(variant="BOGUS")
        with pytest.raises(ValueError):
            ProposalScales(rho_beta=0.0)

    @pytest.mark.parametrize("field", ["truncation_kappa", "truncation_mu"])
    def test_truncation_must_be_a_positive_integer(self, field):
        for bad in (0, -3, 2.5, True, "3"):
            with pytest.raises(ValueError, match=f"{field} must be None or an integer of at "
                                                 "least 1"):
                Hyperparams(**{field: bad})
        for good in (None, 1, np.int64(7)):
            assert getattr(Hyperparams(**{field: good}), field) == good

    def test_grid_count_must_be_a_positive_integer(self):
        for bad in (0, -3, 2.5, True, "3", None):
            with pytest.raises(ValueError, match="grid_count must be an integer of at least 1"):
                Hyperparams(grid_count=bad)
        for good in (1, 5, np.int64(7)):
            assert Hyperparams(grid_count=good).grid_count == good
