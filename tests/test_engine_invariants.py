"""Whole-engine invariants, pinned for every variant, baseline and
likelihood mode: the engine's per-participant log likelihood agrees with
the brute-force oracle, and every incremental cache agrees with a full
recomputation after each block update.  Also pinned: the two mixture
assignment steps against their dense references, the overflow guards,
engine memory linear in the number of records, and the peak memory of
the shape-assignment step."""

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import engine_for, make_dataset, make_record, make_state
from recurjoint import sampler
from recurjoint.model import BASELINE_VARIANTS, LIKELIHOOD_MODES, VARIANTS, Hyperparams
from recurjoint.sampler import _CHUNK_ELEMENTS, _EXP_CAP, _SCORE_CLIP, SamplerEngine
from recurjoint.simulate import simulate_dataset

CASES = list(itertools.product(VARIANTS, BASELINE_VARIANTS, LIKELIHOOD_MODES))

# the oracle multiplies on the natural scale, so a log likelihood near 0
# carries ~1e-16 absolute rounding; below the floor agreement is absolute
ORACLE_REL_TOL = 1e-10
ORACLE_ABS_TOL = 1e-12
# a cache such as d_scale is a difference of O(1) terms, so an entry near 0
# carries absolute rounding: each cache's floor is CACHE_REL_TOL times its
# largest entry
CACHE_REL_TOL = 1e-12
# the factored cluster-effect scores add per-record terms in another order
MU_SCORE_REL_TOL = 1e-12

CACHES = ("lin_x", "lin_z", "mu_rec", "lgam", "kap", "d_scale", "ekd", "erx",
          "lam0_followup", "ev_logsum", "su", "tm", "logit_p")
BLOCKS = ("update_beta", "update_alpha", "update_alpha0", "update_tau2", "update_gamma",
          "update_mu_block", "update_susceptibility", "update_baseline_block",
          "update_kappa_block", "update_xi1", "update_xi2", "update_zeta",
          "update_coef_variances")


def _engine(variant, baseline, mode, seed):
    dataset, _ = simulate_dataset(60, 4, baseline, seed=seed)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline,
                        likelihood_mode=mode)
    eng.init_state(np.random.default_rng(seed))
    return eng


def _oracle_loglik(eng, i, mode):
    """The oracle's log likelihood of participant ``i``, built from the
    engine's primary state (never from its caches)."""
    rec = eng.dataset.records[i]
    if eng.baseline_variant == "piecewise":
        baseline = {"variant": "piecewise", "grid": [float(g) for g in eng.grid],
                    "levels": [float(v) for v in eng.lam]}
    else:
        baseline = {"variant": "powerlaw", "shape": float(eng.psi)}
    mu = 0.0 if eng.mu_mode == "none" else float(eng.eta[eng.m[rec.cluster_index]])
    params = {
        "beta": list(eng.beta), "alpha": list(eng.alpha), "alpha0": float(eng.alpha0),
        "xi1": float(eng.xi1), "xi2": float(eng.xi2), "gamma": float(eng.gamma[i]),
        "mu": mu, "kappa": float(eng.theta[eng.v[i]]), "d_flag": int(eng.d_flags[i]),
        "baseline": baseline,
    }
    record = (rec.followup_time, rec.event_indicator, list(rec.recurrent_times),
              list(rec.covariates_x), list(rec.covariates_z))
    likelihood = oracles.participant_likelihood(record, params, mode)
    return math.log(likelihood) if likelihood > 0 else -math.inf


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_engine_matches_oracle(variant, baseline, mode):
    eng = _engine(variant, baseline, mode, seed=101)
    rng = np.random.default_rng(7)
    for _ in range(30):
        eng.sweep(rng)
    ll = eng.participant_loglik()
    assert ll.shape == (eng.n,)
    for i in range(eng.n):
        expected = _oracle_loglik(eng, i, mode)
        assert math.isclose(float(ll[i]), expected, rel_tol=ORACLE_REL_TOL,
                            abs_tol=ORACLE_ABS_TOL), (i, float(ll[i]), expected)
    assert eng.total_loglik() == float(ll.sum())


def _assert_caches_fresh(eng, present, label):
    incremental = {name: np.array(getattr(eng, name), dtype=float) for name in present}
    eng.refresh_caches()
    for name in present:
        fresh = np.asarray(getattr(eng, name), dtype=float)
        floor = CACHE_REL_TOL * float(np.abs(fresh).max(initial=0.0))
        np.testing.assert_allclose(incremental[name], fresh, rtol=CACHE_REL_TOL, atol=floor,
                                   err_msg=f"{name} after {label}")


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_caches_match_full_refresh_after_every_block(variant, baseline, mode):
    eng = _engine(variant, baseline, mode, seed=202)
    rng = np.random.default_rng(11)
    present = [name for name in CACHES if hasattr(eng, name)]
    assert ("logit_p" in present) == eng.logistic
    for _ in range(20):
        eng.refresh_caches()
        for block in BLOCKS:
            getattr(eng, block)(rng)
            _assert_caches_fresh(eng, present, block)


# log priors of the scalar-ratio blocks, written out here rather than read
# from the engine; the zeta entry adds the Bernoulli likelihood of the flags,
# the only term of the target that zeta enters
def _zeta_log_target(eng):
    t = eng.u @ eng.zeta
    return (float(eng.d_flags @ t) - float(np.logaddexp(0.0, t).sum())
            - float(eng.zeta @ eng.zeta) / (2.0 * eng.hyper.sigma2_zeta))


SCALAR_PRIORS = {
    "update_beta": lambda e: -float(e.beta @ e.beta) / (2.0 * e.s2b),
    "update_alpha": lambda e: -float(e.alpha @ e.alpha) / (2.0 * e.s2a),
    "update_alpha0": lambda e: 0.0,  # flat
    "update_xi1": lambda e: -e.xi1 ** 2 / (2.0 * e.hyper.sigma2_xi1),
    "update_xi2": lambda e: -e.xi2 ** 2 / (2.0 * e.hyper.sigma2_xi2),
    "update_zeta": _zeta_log_target,
    "update_baseline_block": lambda e: (0.0 if e.psi is None else  # flat on the levels
                                        (e.hyper.a_psi - 1.0) * math.log(e.psi)
                                        - e.hyper.b_psi * e.psi),
}
# a log ratio and a difference of two summed log likelihoods each round at
# about eps times the summed magnitudes; the bound scales with them
RATIO_TOL = 1e-10


def _gamma_log_prior(eng):
    lg = np.log(eng.gamma)
    return -lg - lg * lg / (2.0 * eng.tau2[eng.cluster_of])


def _atom_log_prior(eng, name, atoms):
    if name == "eta":
        return -atoms ** 2 / (2.0 * eng.hyper.sigma2_mu)
    h = eng.hyper
    return (h.a_kappa - 1.0) * np.log(atoms) - h.b_kappa * atoms


def _assert_ratio(ratio, d_target, scale, label):
    assert math.isclose(ratio, d_target, rel_tol=0.0, abs_tol=RATIO_TOL * scale), \
        (label, ratio, d_target)


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_block_log_ratio_is_change_of_log_target(variant, baseline, mode, monkeypatch):
    """Every Metropolis block's log ratio equals the change of the summed
    per-participant log likelihood plus the change of its log prior, found
    by accepting every proposal and recomputing both from a refreshed state."""
    eng = _engine(variant, baseline, mode, seed=404)
    rng = np.random.default_rng(19)
    for _ in range(10):
        eng.sweep(rng)

    ratios = []

    def accept_all(log_ratio, uniform):
        ratios.append(np.array(log_ratio, dtype=float))
        # a ratio of -inf marks an invalid proposal: it stays rejected
        return np.asarray(log_ratio) > -np.inf

    monkeypatch.setattr(sampler, "metropolis_decision", accept_all)
    moves = []
    move_atoms = eng._move_atoms

    def recorded_move(rng, name, atoms, assignments, *rest):
        # the likelihood before the atom move alone, after the assignment draw
        eng.refresh_caches()
        moves.append((name, atoms.copy(), np.array(assignments), eng.participant_loglik()))
        return move_atoms(rng, name, atoms, assignments, *rest)

    monkeypatch.setattr(eng, "_move_atoms", recorded_move)

    checked = set()
    for _ in range(3):
        for block in BLOCKS:
            eng.refresh_caches()
            before = copy.deepcopy(eng)
            ll0 = before.participant_loglik()
            ratios.clear()
            moves.clear()
            getattr(eng, block)(rng)
            eng.refresh_caches()
            ll1 = eng.participant_loglik()
            scale = 1.0 + np.abs(ll0).sum() + np.abs(ll1).sum()
            if not ratios:  # a Gibbs block, or one with nothing to move
                continue
            (ratio,) = ratios
            checked.add(block)
            if block == "update_gamma":
                moved = eng.gamma != before.gamma
                d_target = (ll1 - ll0 + _gamma_log_prior(eng) - _gamma_log_prior(before))[moved]
                for r, d, i in zip(ratio[moved], d_target, np.flatnonzero(moved)):
                    _assert_ratio(r, d, 1.0 + abs(ll0[i]) + abs(ll1[i]), (block, i))
            elif block in ("update_mu_block", "update_kappa_block"):
                ((name, atoms0, assignments, ll_before),) = moves
                atoms1 = eng.eta if name == "eta" else eng.theta
                moved = (np.bincount(assignments, minlength=atoms0.size) > 0) & (atoms1 != atoms0)
                d_prior = (_atom_log_prior(eng, name, atoms1[moved])
                           - _atom_log_prior(eng, name, atoms0[moved])).sum()
                _assert_ratio(ratio[moved].sum(), (ll1 - ll_before).sum() + d_prior,
                              1.0 + np.abs(ll_before).sum() + np.abs(ll1).sum(), block)
            elif ratio.ndim:  # the baseline levels, under their flat prior
                moved = eng.lam != before.lam
                _assert_ratio(ratio[moved].sum(), (ll1 - ll0).sum(), scale, block)
            else:
                d_prior = SCALAR_PRIORS[block](eng) - SCALAR_PRIORS[block](before)
                _assert_ratio(float(ratio), (ll1 - ll0).sum() + d_prior, scale, block)
    expected = set(SCALAR_PRIORS) | {"update_gamma", "update_kappa_block"}
    if not eng.logistic:
        expected.discard("update_zeta")
    if eng.mu_mode != "none":
        expected.add("update_mu_block")
    assert checked == expected


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_factored_mu_scores_match_dense_reference(variant, baseline, mode):
    eng = _engine(variant, baseline, mode, seed=303)
    rng = np.random.default_rng(13)
    for _ in range(5):
        eng.sweep(rng)
    atoms = np.concatenate([eng.eta, np.linspace(-2.0, 2.0, 9)])
    factored = eng._cluster_mu_loglik(eng._mu_coefficients(), atoms)
    dense = oracles.dense_mu_cluster_loglik(eng, atoms)
    assert factored.shape == (eng.j, atoms.size)
    np.testing.assert_allclose(factored, dense, rtol=MU_SCORE_REL_TOL, atol=0)


# rows per shape-score chunk at the 50 shape atoms used below
ROWS = _CHUNK_ELEMENTS // 50


@pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
@pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 17])
def test_chunked_kappa_block_matches_dense_reference(n, mode, monkeypatch):
    dataset = make_dataset(simulate_dataset(3 * ROWS + 17, 1, seed=19)[0].records[:n], 1)
    chunked, dense = (SamplerEngine(dataset, Hyperparams(truncation_kappa=50),
                                    likelihood_mode=mode) for _ in range(2))
    for eng in (chunked, dense):
        eng.init_state(np.random.default_rng(n))
    monkeypatch.setattr(dense, "_kappa_assignments",
                        lambda rng: oracles.dense_kappa_assignments(dense, rng))
    monkeypatch.setattr(sampler, "_KAPPA_ROUNDS", 0)
    rng_chunked = np.random.default_rng(5)
    rng_dense = copy.deepcopy(rng_chunked)
    for _ in range(3):
        chunked.sweep(rng_chunked)
        dense.sweep(rng_dense)
        np.testing.assert_array_equal(chunked.v, dense.v)
        np.testing.assert_array_equal(chunked.theta, dense.theta)
        assert rng_chunked.bit_generator.state == rng_dense.bit_generator.state


@pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
def test_overflow_guards_keep_both_mixture_blocks_finite(mode):
    # long follow-up, shape atom 1e305 and |eta| = 30 under xi2 = 40: in
    # both blocks the exp cap fires and scores pass +-_SCORE_CLIP, and a
    # cluster's summed linear term times eta overflows
    records = [make_record(followup=40.0, delta=int(i % 4 < 2), times=(1.0, 9.0, 20.0)[:i % 4],
                           cluster=i // 4, participant=i) for i in range(12)]
    state = make_state(n=12, j=3, xi2=40.0, mu_atoms=(-30.0, 0.0, 30.0), mu_assign=(0, 1, 2),
                       kappa_atoms=(0.5, 2.0, 1e305), kappa_assign=[2, 2, 0, 1] * 3)
    eng = engine_for(records, state, mode, num_clusters=3)
    rng = np.random.default_rng(17)
    present = [name for name in CACHES if hasattr(eng, name)]

    powers = np.outer(eng.d_scale, eng.theta)
    assert (powers > _EXP_CAP).any() and (np.abs(powers) > _SCORE_CLIP).any()
    lin, _, term_scale = eng._mu_coefficients()
    assert (np.outer(-eng.theta * eng.xi2, eng.eta) > _EXP_CAP).any()
    lin_c = np.bincount(eng.cluster_of, weights=lin, minlength=eng.j)
    with np.errstate(over="ignore"):
        assert (term_scale[:, None] * np.exp(np.minimum(np.outer(-eng.kap * eng.xi2, eng.eta),
                                                         _EXP_CAP)) > _SCORE_CLIP).any()
        assert not np.isfinite(np.outer(lin_c, eng.eta)).all()

    for _ in range(5):
        for block in ("update_mu_block", "update_kappa_block"):
            getattr(eng, block)(rng)
            for name in present:
                assert not np.isnan(getattr(eng, name)).any(), (name, block)
            assert np.all((eng.m >= 0) & (eng.m < eng.level_mu))
            assert np.all((eng.v >= 0) & (eng.v < eng.level_kappa))
            _assert_caches_fresh(eng, present, block)


def test_engine_reads_dataset_columns_in_place():
    dataset, _ = simulate_dataset(60, 4, seed=3)
    eng = SamplerEngine(dataset, Hyperparams())
    for name, column in (("x", "covariates_x"), ("z", "covariates_z"), ("u", "covariates_u"),
                         ("followup", "followup_time"), ("ev_times", "event_times"),
                         ("cluster_of", "cluster_index")):
        assert np.shares_memory(getattr(eng, name), getattr(dataset, column)), name


def test_engine_memory_linear_in_records():
    dataset, _ = simulate_dataset(4000, 400, seed=3)
    eng = SamplerEngine(dataset, Hyperparams())
    rng = np.random.default_rng(3)
    eng.init_state(rng)
    eng.sweep(rng)
    nbytes = sum(v.nbytes for v in vars(eng).values() if isinstance(v, np.ndarray))
    assert nbytes < 1000 * eng.n


def test_kappa_assignments_peak_memory_stays_small():
    # one shape-assignment step at N=20000, K=50 allocates far less than
    # the 8 MB of an N x K score matrix
    dataset, _ = simulate_dataset(20000, 500, seed=3)
    eng = SamplerEngine(dataset, Hyperparams(truncation_kappa=50))
    rng = np.random.default_rng(3)
    eng.init_state(rng)
    eng.sweep(rng)
    tracemalloc.start()
    try:
        eng._kappa_assignments(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
