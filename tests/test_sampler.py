import ast
import copy
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import engine_for, make_dataset, make_dp, make_record, make_state
from recurjoint import sampler
from recurjoint.diagnostics import cpo_accumulate
from recurjoint.model import (
    BASELINE_VARIANTS,
    LIKELIHOOD_MODES,
    VARIANTS,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
    PowerLawHazard,
)
from recurjoint.sampler import (
    McmcConfig,
    ProposalScales,
    SamplerEngine,
    adapt_scale,
    metropolis_decision,
    run_chain,
)
from recurjoint.simulate import KAPPA_VALUES, simulate_dataset
from recurjoint.study import build_summary, fit_manifest
from test_load_state import valid_state


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


def prior_only_engine(sigma2_xi1=1.0):
    """An engine whose records say nothing about xi1: unit frailties make
    the terminal shift xi1 * log(gamma) zero, so xi1's full conditional is
    its N(0, sigma2_xi1) prior."""
    records = [make_record(participant=i) for i in range(4)]
    return engine_for(records, make_state(n=4),
                      hyper=Hyperparams(fixed_p=0.5, sigma2_xi1=sigma2_xi1))


class TestScalarStep:
    """The engine's one scalar Metropolis step, ``_step``, and the scalar
    random-walk blocks that decide through it."""

    def test_zero_log_ratio_always_accepts(self, rng):
        eng = prior_only_engine()
        for _ in range(200):
            before = copy.deepcopy(rng.bit_generator.state)
            assert eng._step(rng, "xi1", 0.0)
            # one uniform per decision
            assert rng.bit_generator.state != before
        assert eng.take_acceptance()["xi1"] == 1.0

    def test_flat_target_statistics(self, rng):
        # a prior variance of 1e300 leaves the ratio far above any log(u)
        eng = prior_only_engine(sigma2_xi1=1e300)
        values = np.empty(20_000)
        for i in range(values.size):
            eng.update_xi1(rng)
            values[i] = eng.xi1
        assert eng.take_acceptance()["xi1"] == 1.0
        increments = np.diff(np.concatenate([[0.0], values]))
        scale = eng.scales["xi1"]
        assert abs(increments.mean()) < 4.0 * scale / math.sqrt(values.size)
        assert increments.std() == pytest.approx(scale, rel=0.03)

    def test_standard_normal_stationary(self, rng):
        eng = prior_only_engine()
        eng.scales["xi1"] = 2.4
        draws = np.empty(200_000)
        for i in range(draws.size):
            eng.update_xi1(rng)
            draws[i] = eng.xi1
        assert draws.mean() == pytest.approx(0.0, abs=0.025)
        assert draws.var() == pytest.approx(1.0, abs=0.04)

    def test_vector_block_keeps_its_shape(self, rng):
        eng = prior_only_engine()
        for _ in range(50):
            eng.update_beta(rng)
            assert eng.beta.shape == (3,)
        # one decision, 0 or 1, per call
        rate = eng.take_acceptance()["beta"]
        assert 0.0 < rate < 1.0 and (rate * 50).is_integer()


class TestAdaptScale:
    def test_on_target_unchanged(self):
        assert adapt_scale(0.44, 1.7) == pytest.approx(1.7)

    def test_full_acceptance_grows(self):
        assert adapt_scale(1.0, 2.0) == pytest.approx(2.0 * math.exp(0.5 * 0.56))

    def test_adaptation_tames_pathological_scale(self, rng):
        # the engine's xi1 block on a standard normal conditional, adapted
        # by adapt_all after every window of 50 updates
        eng = prior_only_engine()
        eng.scales["xi1"] = 1e3
        rate = 0.0
        for window in range(40):  # 2000 sweeps of window 50
            for _ in range(50):
                eng.update_xi1(rng)
            total, count = eng._accept["xi1"]
            rate = total / count
            eng.adapt_all()
        assert 0.2 <= rate <= 0.6
        assert eng.scales["xi1"] < 10.0

    def test_adapt_all_adapts_to_the_tally_and_restarts_it(self, rng):
        dataset, _ = simulate_dataset(40, 4, seed=3)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        eng.init_state(rng)
        for _ in range(7):
            eng.sweep(rng)
        means = {name: total / count for name, (total, count) in eng._accept.items() if count}
        assert means.keys() == {*eng.scales, "lambda"} - {"psi"}
        expected = {name: adapt_scale(means[name], scale, eng.targets[name]) if name in means
                    else scale for name, scale in eng.scales.items()}
        eng.adapt_all()
        assert eng.scales == expected
        assert eng.take_acceptance() == {}


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


def pooled_chisquare(counts, expected):
    """The chi-square p-value of the draws ``counts`` against the
    ``expected`` counts, the least likely cells pooled until every cell
    expects 5 draws; None when that leaves one cell."""
    order = np.argsort(expected)
    cut = max(np.searchsorted(np.cumsum(expected[order]), 5.0) + 1,
              np.searchsorted(expected[order], 5.0))
    observed = [counts[order[:cut]].sum(), *counts[order[cut:]]]
    wanted = [expected[order[:cut]].sum(), *expected[order[cut:]]]
    return stats.chisquare(observed, wanted).pvalue if len(wanted) > 1 else None


class TestMuBlock:
    @pytest.mark.parametrize("variant,mode",
                             itertools.product(("BMZ-DP", "BM-DP"), LIKELIHOOD_MODES))
    def test_assignment_draws_match_dense_softmax(self, variant, mode):
        # a frozen state whose four atoms share each cluster's probability,
        # and, in BMZ-DP, whose eventless records are unsusceptible, so that
        # the literal mode differs: every cluster's assignment, redrawn from
        # the state each time, so with the atoms, sticks and concentration
        # fixed, against the softmax of its dense scores plus log weights
        dataset, _ = simulate_dataset(24, 6, seed=8)
        effects = make_dp([-0.6, -0.1, 0.3, 0.8], np.arange(6) % 4, sticks=[0.3, 0.4, 0.5])
        state = dataclasses.replace(valid_state(dataset, variant, shift=1),
                                    cluster_effects=effects)
        eng = SamplerEngine(dataset, Hyperparams(), variant=variant, likelihood_mode=mode)
        eng.load_state(state)
        scores = oracles.dense_mu_cluster_loglik(eng, eng.eta) + np.log(eng.mu_weights)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        reps = 4000
        counts = np.zeros(p.shape, dtype=int)
        rng = np.random.default_rng(17)
        for _ in range(reps):
            eng.load_state(state)
            eng.update_mu_block(rng)
            counts[np.arange(eng.j), eng.m] += 1
        for c in range(eng.j):
            pvalue = pooled_chisquare(counts[c], reps * p[c])
            assert pvalue is not None and pvalue > 1e-6, (c, counts[c], reps * p[c])

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
            first_sticks.append(eng.mu_weights[0])
        # counts (J, 0, 0) make the first stick, which is the first weight,
        # Beta(1 + J, phi)
        assert np.mean(first_sticks) == pytest.approx(5 / 6, abs=0.01)

    def test_two_cluster_recovery(self, rng):
        # synthetic two-cluster data generated directly at mu = (+0.4, -0.4);
        # 240 records per cluster: with 30, a third of the data seeds missed
        # the tolerance, so the test judged the draw rather than the sampler
        import recurjoint.simulate as sim

        true_mu = np.array([0.4, -0.4])
        gen = np.random.default_rng(21)
        n_per, kappa = 240, 2.2
        base = PiecewiseConstantHazard(np.array([0.0, 2.0]), np.array([2.0]))
        records, gammas = [], []
        for c in range(2):
            for i in range(n_per):
                gamma = float(np.exp(math.sqrt(0.3) * gen.standard_normal()))
                loc = 0.15 + 0.1 * math.log(gamma) - 0.5 * true_mu[c]
                r_time = float(sim.sample_terminal_times([loc], [kappa], gen)[0])
                censor = float(gen.uniform(0.2, 2.0))
                followup = max(min(r_time, censor), 1e-9)
                times, _ = sim._sample_events(np.array([gamma * math.exp(true_mu[c])]), base,
                                              np.array([followup]), gen)
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
        eng.update_mu_block(rng)
        assert rng.bit_generator.state == before
        assert eng.eta.size == 0 and "eta" not in eng.take_acceptance()
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
        # a true shape is recovered when one of the four most occupied atoms
        # lies within 25% of it in at least half of the snapshots taken over
        # the second half of the run; one snapshot, or N = 600, judged where
        # the chain happened to be rather than what it recovers
        dataset, truth = simulate_dataset(1200, 20, seed=31)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        st = truth_state(dataset, truth)
        eng.load_state(st)
        # start the mixture from scratch so recovery is genuine
        eng.theta = np.maximum(rng.gamma(1.0, 1.0, eng.level_kappa), 1e-6)
        eng.v = rng.integers(0, eng.level_kappa, eng.n)
        eng.refresh_caches()
        hits = np.zeros(KAPPA_VALUES.size)
        snapshots = 0
        for i in range(3000):
            eng.update_kappa_block(rng)
            if (i + 1) % 50 == 0 and i < 1500:
                eng.adapt_all()
            if (i + 1) % 50 == 0 and i >= 1500:
                counts = np.bincount(eng.v, minlength=eng.level_kappa)
                top = eng.theta[np.argsort(-counts)[:4]]
                hits += np.any(np.abs(top[:, None] - KAPPA_VALUES) <= 0.25 * KAPPA_VALUES, axis=0)
                snapshots += 1
        assert np.sum(hits >= snapshots / 2) >= 2

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


    @pytest.mark.parametrize("case", ["spread", "outlier", "edges", "repeated", "route limit",
                                      "subnormal range"])
    def test_equal_width_bins_cover_their_offsets(self, case, rng):
        # from _KAPPA_SORT_LIMIT offsets on, the bins are cut in asinh(d) and
        # mapped back; the envelope bounds the scores over a bin's [lo, hi],
        # so every offset must lie inside the bin it is routed to
        m = 5000
        assert m >= sampler._KAPPA_SORT_LIMIT
        bins = m // sampler._KAPPA_BIN_RECORDS
        if case == "spread":
            span = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-300, 300, m)
        elif case == "outlier":
            span = np.append(rng.normal(0.0, 1.5, m - 1), 110.0)
        elif case == "edges":
            # offsets at and next to the edges of asinh bins over [-3, 5]
            at = np.sinh(np.linspace(-3.0, 5.0, bins + 1))
            span = np.resize(np.concatenate((at, np.nextafter(at, -np.inf),
                                             np.nextafter(at, np.inf))), m)
        elif case == "repeated":
            span, bins = np.full(m, -0.7), 1
        elif case == "route limit":
            limit = sampler._KAPPA_ROUTE_LIMIT
            span = np.concatenate(([-limit, limit], rng.normal(0.0, 2.0, m - 2)))
        else:
            # a range narrower than the smallest normal width per bin
            span, bins = np.resize([0.0, 5e-324, 1e-323], m), 1
        eng = engine_for([make_record(participant=0)], make_state(n=1))
        lo, hi, todo, got, key, ordered = eng._kappa_bins(None, span)
        assert not ordered and todo is None and got is span
        assert lo.size == hi.size == bins
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        b = key >> 53
        assert (key == b << 53).all() and b.min() >= 0 and b.max() < bins
        inside = (lo[b] <= span) & (span <= hi[b])
        assert inside.all(), span[~inside][:5]

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

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_one_round_leaves_few_records_at_paper_scale(self, seed):
        # the paper's design point after 200 sweeps: the envelope is tight
        # enough that one proposal per record is accepted for at least 90%
        dataset, _ = simulate_dataset(600, 20, "piecewise", seed=seed)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        rng = np.random.default_rng(seed)
        eng.init_state(rng)
        for _ in range(200):
            eng.sweep(rng)
        assert eng._kappa_rejection(rng).mean() <= 0.10

    # the module's settings, and one bin over the whole range, where the
    # bounds are loose and the acceptance step shapes the draws; max_left
    # caps the share of susceptible records the pass leaves to the dense draw
    @pytest.mark.parametrize("bin_records,max_left", [(None, 0.1), (10**9, 0.8)])
    @pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
    def test_rejection_draws_match_exact_softmax(self, mode, bin_records, max_left, monkeypatch):
        # 400 records per type, at least _KAPPA_SORT_LIMIT: equal-width bins
        assert 12 * 400 >= sampler._KAPPA_SORT_LIMIT
        self._check_rejection_draws(mode, bin_records, max_left, 400, monkeypatch)

    @pytest.mark.parametrize("bin_records,max_left", [(None, 0.1), (10**9, 0.8)])
    @pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
    def test_sorted_bin_draws_match_exact_softmax(self, mode, bin_records, max_left, monkeypatch):
        # 200 records per type, fewer than _KAPPA_SORT_LIMIT: sorted bins
        assert 14 * 200 < sampler._KAPPA_SORT_LIMIT
        self._check_rejection_draws(mode, bin_records, max_left, 200, monkeypatch)

    def test_one_outlying_offset_keeps_the_bins_tight(self, monkeypatch):
        # the types above and one at d = 110, 400 records each: bins of
        # equal width in d would be 16 times wider than without it, and the
        # pass would leave about half the records to the dense draw
        assert 14 * 400 >= sampler._KAPPA_SORT_LIMIT
        self._check_rejection_draws("corrected", None, 0.1, 400, monkeypatch, outlier=110.0)

    @staticmethod
    def _check_rejection_draws(mode, bin_records, max_left, reps, monkeypatch, outlier=None):
        if bin_records is not None:
            # one bin in either binning
            monkeypatch.setattr(sampler, "_KAPPA_BIN_RECORDS", bin_records)
            monkeypatch.setattr(sampler, "_KAPPA_SORTED_BINS", 1)
        # record types (offset d = log followup, terminal flag, unsusceptible);
        # from d = 3 on, the largest atom's theta d is past the exp cap
        offsets = (-4.0, -1.0, -0.2, 0.3, 1.2, 3.0) + (() if outlier is None else (outlier,))
        types = [(d, delta, 0) for d in offsets for delta in (0, 1)]
        if mode == "literal":
            types += [(0.3, 0, 1), (-1.0, 1, 1)]
        records = [make_record(followup=math.exp(d), delta=delta, participant=i)
                   for i, (d, delta, _) in enumerate(t for t in types for _ in range(reps))]
        flags = np.repeat([flag for _, _, flag in types], reps)
        n = len(records)
        eng = engine_for(records, make_state(n=n, kappa_atoms=(1e-12, 0.005, 0.3, 1.0, 2.5, 300.0),
                                             unsusceptible=flags), mode)
        # atom 3 has zero weight
        eng.kappa_weights = np.array([0.1, 0.2, 0.25, 0.0, 0.2, 0.25])
        assert (eng.theta.max() * eng.d_scale > sampler._EXP_CAP).any()

        # the pass accepts nearly every susceptible record; in the literal
        # mode the unsusceptible ones, whose scores are all 0, go dense
        left = eng._kappa_rejection(np.random.default_rng(1))
        assert left[flags == 0].mean() < max_left
        assert left[flags == 1].all()
        v = eng._kappa_assignments(np.random.default_rng(2))
        tested = 0
        for t in range(len(types)):
            counts = np.bincount(v[t * reps:(t + 1) * reps], minlength=eng.level_kappa)
            expected = reps * np.array(oracles.kappa_probabilities(eng, t * reps))
            assert counts[expected == 0].sum() == 0, types[t]
            p = pooled_chisquare(counts, expected)
            if p is not None:
                tested += 1
                assert p > 1e-6, (types[t], counts, expected)
        assert tested >= 8


def gamma_conditional(dataset, state):
    """Each piecewise level's full conditional Gamma(n_g + 1, E_g) under the
    flat prior, recomputed record by record from the dataset and the state:
    n_g counts the events in (grid[g], grid[g + 1]], the last interval
    extended, and E_g sums su gamma exp(x beta + mu) times the record's time
    in interval g.  Both likelihood modes weigh the recurrent terms alike.
    Returns (shapes, rates)."""
    grid, levels = state.baseline.grid, state.baseline.levels
    shapes, rates = np.ones(levels.size), np.zeros(levels.size)
    effects = state.cluster_effects
    for i, rec in enumerate(dataset.records):
        for t in rec.recurrent_times:
            g = next((g for g in range(levels.size) if grid[g] < t <= grid[g + 1]),
                     levels.size - 1)
            shapes[g] += 1
        mu = float(effects.atoms[effects.assignments[rec.cluster_index]])
        weight = ((1 - int(state.unsusceptible[i])) * float(state.gamma[i])
                  * math.exp(float(np.dot(rec.covariates_x, state.beta)) + mu))
        for g in range(levels.size):
            hi = math.inf if g == levels.size - 1 else grid[g + 1]
            rates[g] += weight * max(0.0, min(rec.followup_time, hi) - grid[g])
    return shapes, rates


def piecewise_reference(eng):
    """The engine's Lambda0(T_i), each level's exposure E_g and each
    record's summed log hazard at its events, recomputed record by record
    from its grid, levels and weights r = su gamma erx: E_g sums r_i times
    the record's time in (grid[g], grid[g + 1]], the last interval extended.
    Returns (hazards, exposures, event log sums)."""
    grid, levels = eng.grid.tolist(), eng.lam.tolist()
    weights = eng.su * eng.gamma * eng.erx
    times, offsets = eng.dataset.event_times.tolist(), eng.dataset.event_offsets.tolist()
    hazards, log_sums = np.empty(eng.n), np.zeros(eng.n)
    exposures = np.zeros(len(levels))
    for i, t in enumerate(eng.dataset.followup_time.tolist()):
        hazards[i] = oracles.cumulative_hazard_piecewise(t, grid, levels)
        for g in range(len(levels)):
            hi = math.inf if g == len(levels) - 1 else grid[g + 1]
            exposures[g] += weights[i] * max(0.0, min(t, hi) - grid[g])
        log_sums[i] = sum(math.log(oracles.baseline_level(s, grid, levels))
                          for s in times[offsets[i]:offsets[i + 1]])
    return hazards, exposures, log_sums


class TestBaselineBlock:
    @pytest.mark.parametrize("levels", [1, 5, 40])
    def test_hazards_and_exposures_match_record_by_record_reference(self, levels, rng):
        # follow-ups in the first interval, on every knot and past the last
        # one; the caches follow each exact draw of the levels
        grid = np.cumsum(np.concatenate(([0.0], rng.uniform(0.05, 0.3, levels))))
        followups = np.concatenate((0.5 * grid[1:2], grid[1:], [1.5 * grid[-1]],
                                    rng.uniform(0.0, 1.2 * grid[-1], 20)))
        records = []
        for i, f in enumerate(followups.tolist()):
            times = np.sort(rng.uniform(0.0, f, i % 4)) if i % 3 else ()
            records.append(make_record(followup=f, times=times, x=rng.normal(0, 0.5, 3),
                                       participant=i))
        dataset = make_dataset(records, 1)
        eng = SamplerEngine(dataset, Hyperparams(fixed_p=0.5), variant="BMZ-DP", grid=grid)
        eng.init_state(rng)
        assert eng.n_levels == levels
        for _ in range(3):
            hazards, exposures, log_sums = piecewise_reference(eng)
            np.testing.assert_allclose(eng.lam0_followup, hazards, rtol=1e-13)
            np.testing.assert_allclose(eng._level_exposures(), exposures, rtol=1e-13)
            np.testing.assert_allclose(eng._event_log_hazards(), log_sums, rtol=1e-13, atol=1e-14)
            eng.update_baseline_block(rng)

    def test_engine_memory_grows_with_levels_not_records_times_levels(self):
        # 35 more levels add a few level-sized arrays to the engine, not a
        # records-by-levels matrix (2000 x 35 float64 would be 560 KB)
        dataset, _ = simulate_dataset(2000, 20, seed=5)

        def engine_bytes(grid_count):
            eng = SamplerEngine(dataset, Hyperparams(grid_count=grid_count), variant="BMZ-DP")
            eng.init_state(np.random.default_rng(1))
            assert eng.n_levels == grid_count
            return sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))

        extra = engine_bytes(40) - engine_bytes(5)
        assert 0 < extra <= 8 * 8 * (40 - 5), extra

    @pytest.mark.parametrize("case", ["corrected", "literal", "no-events"])
    def test_level_draws_match_gamma_conditional(self, case, rng):
        # the exact draw: 20k draws of the levels from one loaded state,
        # each level's mean and variance against its Gamma(n_g + 1, E_g)
        mode = "corrected" if case == "no-events" else case
        if case == "no-events":
            # pure survival: Gamma(1, E_g), an exponential of rate E_g
            records = [make_record(followup=f, x=(0.3 * f, -0.2, 0.1), participant=i)
                       for i, f in enumerate(np.linspace(0.2, 3.0, 12))]
            dataset = make_dataset(records, 1)
            state = make_state(n=12, beta=(0.4, 0.3, 0.2), gamma=np.linspace(0.5, 2.0, 12),
                               unsusceptible=np.arange(12) % 5 == 0,
                               baseline=PiecewiseConstantHazard(np.array([0.0, 0.5, 1.2, 2.0]),
                                                                np.array([2.0, 1.0, 3.0])))
        else:
            dataset, truth = simulate_dataset(60, 4, seed=8)
            state = truth_state(dataset, truth)
            assert state.unsusceptible.any()
        shapes, rates = gamma_conditional(dataset, state)
        if case == "no-events":
            assert np.all(shapes == 1.0)
        eng = SamplerEngine(dataset, Hyperparams(fixed_p=0.5), variant="BMZ-DP",
                            likelihood_mode=mode)
        eng.load_state(state)
        draws = np.empty((20_000, shapes.size))
        for s in range(draws.shape[0]):
            eng.update_baseline_block(rng)
            draws[s] = eng.lam
        mean, var = shapes / rates, shapes / rates ** 2
        reps = draws.shape[0]
        # standard errors of the sample mean and variance of a Gamma(a) sample
        se_mean = np.sqrt(var / reps)
        se_var = var * np.sqrt((2.0 + 6.0 / shapes) / reps)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se_mean), (draws.mean(axis=0), mean)
        assert np.all(np.abs(draws.var(axis=0) - var) < 5 * se_var), (draws.var(axis=0), var)
        # the exact draw records an acceptance of 1
        assert eng.take_acceptance()["lambda"] == 1.0

    def test_zero_exposure_interval_keeps_its_level(self, rng):
        # the grid's last interval is reached only by eventless records, all
        # flagged unsusceptible: E_g = 0, an improper conditional
        records = [make_record(followup=1.0, times=(0.3, 0.7), participant=0),
                   make_record(followup=0.8, times=(0.5,), participant=1),
                   make_record(followup=3.0, participant=2),
                   make_record(followup=2.5, participant=3)]
        state = make_state(n=4, unsusceptible=(0, 0, 1, 1),
                           baseline=PiecewiseConstantHazard(np.array([0.0, 1.0, 2.0]),
                                                            np.array([1.5, 0.7])))
        eng = engine_for(records, state)
        for _ in range(50):
            eng.update_baseline_block(rng)
            assert eng.lam[1] == 0.7 and eng.lam[0] != 1.5
            for name in ("lam", "lam0_followup"):
                assert np.all(np.isfinite(getattr(eng, name))), name
            assert np.all(np.isfinite(eng._event_log_hazards()))
        np.testing.assert_allclose(eng.lam0_followup, piecewise_reference(eng)[0], rtol=1e-14)

    def test_nonpositive_psi_rejected_outright(self):
        # a proposal at or below 0 records a rejection and draws no uniform
        dataset, truth = simulate_dataset(20, 2, "powerlaw", seed=4)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP", baseline_variant="powerlaw")
        eng.load_state(truth_state(dataset, truth))

        class NegativeRng:
            def standard_normal(self, size=None):
                return -1e6

            def random(self, size=None):
                raise AssertionError("a uniform was drawn for an invalid move")

        caches = eng.lam0_followup.copy(), eng.participant_loglik()
        eng.update_baseline_block(NegativeRng())
        assert eng.psi == truth.baseline.shape
        assert eng.take_acceptance()["psi"] == 0.0
        np.testing.assert_array_equal(eng.lam0_followup, caches[0])
        np.testing.assert_array_equal(eng.participant_loglik(), caches[1])

    def test_psi_requires_finite_current_target(self, rng):
        # follow-up 1e10 at psi = 40: the current risk overflows
        records = [make_record(followup=1e10, participant=i) for i in range(3)]
        eng = engine_for(records, make_state(n=3, baseline=PowerLawHazard(40.0)))
        assert np.isinf(eng.lam0_followup).all()
        with pytest.raises(ValueError, match="log target is not finite at psi = 40.0"):
            eng.update_baseline_block(rng)

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

    @pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_columns_hold_no_mixture_atoms(self, variant, baseline):
        # every column the trace held with the raw atoms theta_* and eta_*,
        # in the same order, less those atoms
        dataset, _ = simulate_dataset(40, 4, baseline, seed=3)
        eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline)
        eng.init_state(np.random.default_rng(1))

        def numbered(name, count):
            return [f"{name}{i + 1}" for i in range(count)]

        expected = [*numbered("beta_", 3), *numbered("alpha_", 3), "alpha0", "xi1", "xi2"]
        if variant != "BM-DP":
            expected += numbered("zeta_", 4)
        expected += ["sigma2_beta", "sigma2_alpha"]
        expected += numbered("lambda_0", 5) if baseline == "piecewise" else ["psi"]
        expected += numbered("tau2_", 4)
        if variant != "BZ-DP":
            expected += numbered("mu_", 4)
        if variant in ("BMZ-DP", "BM-DP"):
            expected.append("phi_mu")
        expected += ["phi_kappa", "n_unsusceptible"]
        columns = eng.trace_columns()
        assert not any(c.startswith(("theta_", "eta_")) for c in columns)
        assert columns == expected
        assert eng.trace_row().shape == (len(columns),)

    def test_unsusceptible_never_set_with_events(self, rng):
        dataset, _ = simulate_dataset(80, 4, seed=8)
        has_events = np.array([r.num_events > 0 for r in dataset.records])
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        eng.init_state(rng)
        for _ in range(150):
            eng.sweep(rng)
            assert not np.any(eng.d_flags[has_events])

    @pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_acceptance_is_the_mean_over_the_sampling_sweeps(self, variant, baseline,
                                                             monkeypatch):
        # burn-in ends 5 sweeps past its last full window, and thin is 3: the
        # trace's acceptance is each block's sequential mean over the 30
        # sampling sweeps alone, and the first of them and every third after
        # it are kept
        sweeps, recorded, kept_at = [0], [], []
        sweep, record_accept, trace_row = (SamplerEngine.sweep, SamplerEngine._record_accept,
                                           SamplerEngine.trace_row)

        def counting_sweep(self, rng):
            sweeps[0] += 1
            sweep(self, rng)

        def recording(self, name, rate):
            recorded.append((sweeps[0], name, rate))
            record_accept(self, name, rate)

        def keeping(self):
            kept_at.append(sweeps[0])
            return trace_row(self)

        monkeypatch.setattr(SamplerEngine, "sweep", counting_sweep)
        monkeypatch.setattr(SamplerEngine, "_record_accept", recording)
        monkeypatch.setattr(SamplerEngine, "trace_row", keeping)
        dataset, _ = simulate_dataset(40, 4, baseline, seed=3)
        config = McmcConfig(iterations=55, burn_in=25, thin=3, seed=1, adapt_window=10,
                            variant=variant, baseline_variant=baseline)
        trace = run_chain(dataset, config, Hyperparams())
        totals = {}
        for at, name, rate in recorded:
            if at > config.burn_in:
                total, count = totals.get(name, (0.0, 0))
                totals[name] = total + rate, count + 1
        assert trace.acceptance == {name: total / count for name, (total, count) in totals.items()}
        assert totals["alpha0"][1] == 30
        assert kept_at == list(range(26, 56, 3))

    @pytest.mark.parametrize("baseline,level", [("piecewise", "lambda"), ("powerlaw", "psi")])
    def test_acceptance_keys_are_the_benchmark_blocks(self, baseline, level):
        # the benchmark's layers read a BMZ-DP fit's rates by these names, its
        # "baseline" from "lambda" or "psi"; a renamed tally would leave its
        # acceptance metric empty
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "layers.py").read_text())
        (names,) = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "ACCEPT_BLOCKS"]
        dataset, _ = simulate_dataset(40, 4, baseline, seed=5)
        config = McmcConfig(iterations=6, burn_in=2, adapt_window=2, baseline_variant=baseline)
        trace = run_chain(dataset, config, Hyperparams())
        assert trace.acceptance.keys() == {*names} - {"baseline"} | {level}

    def test_memory_stays_bounded_over_the_sweeps(self, rng):
        # nothing is kept per sweep: 2000 sweeps add no more than 100 KB of
        # traced memory, where keeping every block's rate of every sweep
        # would add about 700 KB.  The first 1000 sweeps are not traced: the
        # interpreter's tuple free lists fill during them
        dataset, _ = simulate_dataset(60, 6, seed=12)
        eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP")
        eng.init_state(rng)
        for _ in range(1000):
            eng.sweep(rng)
        tracemalloc.start()
        try:
            for _ in range(2000):
                eng.sweep(rng)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown < 100_000, grown

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
