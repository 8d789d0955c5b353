"""Whole-engine invariants, pinned for every variant, baseline and
likelihood mode: the engine's per-participant log likelihood agrees with
the brute-force oracle, and every incremental cache agrees with a full
recomputation after each block update and after thousands of sweeps with
no recomputation between them.  Also pinned: the two mixture
assignment steps against their dense references, the overflow guards,
engine memory linear in the number of records, the engine's ownership of
its per-record arrays, the transient memory of each block and of the
initial draw, the sweep's blocks against the sampler's table, the peak
memory of the shape-assignment step, and the draws of the frailty block and
of the alpha0, xi1, xi2 and psi blocks against their full conditionals
integrated on a grid."""

import copy
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from conftest import engine_for, make_dataset, make_record, make_state
from recurjoint import sampler
from recurjoint.model import BASELINE_VARIANTS, LIKELIHOOD_MODES, VARIANTS, Hyperparams
from recurjoint.sampler import (
    _CHUNK_ELEMENTS,
    _EXP_CAP,
    _RECORD_CACHES,
    _SCORE_CLIP,
    _SWEEP,
    ProposalScales,
    SamplerEngine,
)
from recurjoint.simulate import simulate_dataset
from test_load_state import valid_state

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

# a cache's drift over many sweeps: each incremental update of d_scale
# rounds once, and the errors add up
DRIFT_REL_TOL = 1e-9

CACHES = ("lin_x", "lin_z", "mu_rec", "lgam", "kap", "delta_kap", "d_scale", "ekd", "erx",
          "lam0_followup", "su", "logit_p", "softplus_sum")
BLOCKS = ("update_beta", "update_alpha", "update_alpha0", "update_tau2", "update_gamma",
          "update_mu_block", "update_susceptibility", "update_baseline_block",
          "update_kappa_block", "update_xi1", "update_xi2", "update_zeta",
          "update_coef_variances")


def test_blocks_are_the_sweep_table():
    # a block added to the table fails here until it is listed in BLOCKS,
    # with a transient bound, and so meets every invariant below
    assert BLOCKS == tuple(name for name, _ in _SWEEP)
    assert BLOCK_TRANSIENTS.keys() == set(BLOCKS)
    scaled = {name for _, tallies in _SWEEP for name, target in tallies if target is not None}
    assert scaled == {f.name.removeprefix("rho_") for f in dataclasses.fields(ProposalScales)}


def test_each_block_replaced_on_the_class_runs_once_per_sweep(monkeypatch):
    # the benchmark's tracer wraps the block methods on the class after the
    # module is imported: a sweep that held the methods themselves would
    # bypass every wrapper, and each traced block would read 0
    calls = dict.fromkeys(BLOCKS, 0)
    for block in BLOCKS:
        def counted(self, rng, block=block, method=getattr(SamplerEngine, block)):
            calls[block] += 1
            method(self, rng)
        monkeypatch.setattr(SamplerEngine, block, counted)
    eng = _engine("BMZ-DP", "piecewise", "corrected", seed=909)
    rng = np.random.default_rng(41)
    for _ in range(3):
        eng.sweep(rng)
    assert calls == dict.fromkeys(BLOCKS, 3)


def _engine(variant, baseline, mode, seed, hyper=Hyperparams()):
    dataset, _ = simulate_dataset(60, 4, baseline, seed=seed)
    eng = SamplerEngine(dataset, hyper, variant=variant, baseline_variant=baseline,
                        likelihood_mode=mode)
    eng.init_state(np.random.default_rng(seed))
    return eng


def _oracle_loglik(eng, i, mode):
    """The oracle's log likelihood of participant ``i``, built from the
    engine's primary state (never from its caches)."""
    likelihood = oracles.participant_likelihood(*_oracle_inputs(eng, i), mode)
    return math.log(likelihood) if likelihood > 0 else -math.inf


def _oracle_inputs(eng, i):
    """Participant ``i``'s record and parameters in the oracle's form, from
    the engine's primary state."""
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
    return record, params


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


def _assert_caches_fresh(eng, present, label, tol=CACHE_REL_TOL):
    incremental = {name: np.array(getattr(eng, name), dtype=float) for name in present}
    eng.refresh_caches()
    for name in present:
        fresh = np.asarray(getattr(eng, name), dtype=float)
        floor = tol * float(np.abs(fresh).max(initial=0.0))
        np.testing.assert_allclose(incremental[name], fresh, rtol=tol, atol=floor,
                                   err_msg=f"{name} after {label}")


def _grid_moments(u, log_p, what):
    """The mean and variance of the density ``exp(log_p)`` on the grid
    ``u``, whose ends must lie below 1e-12 of its peak."""
    p = np.exp(log_p - log_p.max())
    assert p[0] < 1e-12 and p[-1] < 1e-12, f"{what}'s conditional runs past the grid"
    p /= p.sum()
    mean = p @ u
    return mean, p @ (u - mean) ** 2


def _assert_draws_match(draw, exact, batches, calls):
    """Make ``batches`` batches of ``calls`` draws, ``draw(out)`` writing one
    draw of the coordinates into ``out``, and compare each coordinate's
    batch means of itself and of its squared deviation from ``exact[0]``
    with its exact mean and variance ``exact``, by batch-means standard
    errors."""
    draws = np.empty((calls, exact.shape[1]))
    stat = np.empty((2, batches, exact.shape[1]))
    for b in range(batches):
        for s in range(calls):
            draw(draws[s])
        stat[0, b] = draws.mean(axis=0)
        stat[1, b] = ((draws - exact[0]) ** 2).mean(axis=0)
    z = (stat.mean(axis=1) - exact) / (stat.std(axis=1, ddof=1) / math.sqrt(batches))
    # Bonferroni over the statistics: all stay within the bound with
    # probability 0.999 when each z is t-distributed
    bound = stats.t.ppf(1.0 - 1e-3 / (2 * z.size), batches - 1)
    worst = np.unravel_index(np.abs(z).argmax(), z.shape)
    assert np.abs(z).max() <= bound, (("mean", "variance")[worst[0]], int(worst[1]), z[worst])


# the frailty block's exactness check: batches of update_gamma calls, and
# per record the batch means of log gamma and of its squared deviation
GAMMA_BATCHES, GAMMA_BATCH_CALLS = 50, 2000


@pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
def test_gamma_draws_match_quadrature_of_their_full_conditionals(mode):
    # a frozen 60-record BZ-DP state on the power-law baseline: with the rest
    # fixed, record i's u = log gamma has the full conditional
    # L_i(e^u) exp(-u^2 / (2 tau2_c)), L_i the oracle's likelihood (the
    # log-normal prior's 1/gamma cancels the Jacobian of u).  Each record's
    # draws of u meet its mean and variance on a grid
    eng = _engine("BZ-DP", "powerlaw", mode, seed=61)
    rng = np.random.default_rng(61)
    for _ in range(20):
        eng.sweep(rng)
    # near the block's acceptance target the walk mixes several times
    # faster than at the default scale; the block is exact at any scale
    eng.scales["gamma"] = 0.8
    u = np.linspace(-10.0, 10.0, 801)
    exact = np.empty((2, eng.n))
    for i in range(eng.n):
        record, params = _oracle_inputs(eng, i)
        half_precision = 0.5 / float(eng.tau2[eng.cluster_of[i]])
        log_p = np.empty(u.size)
        for k, uk in enumerate(u.tolist()):
            params["gamma"] = math.exp(uk)
            likelihood = oracles.participant_likelihood(record, params, mode)
            log_l = math.log(likelihood) if likelihood > 0 else -math.inf
            log_p[k] = log_l - half_precision * uk * uk
        exact[:, i] = _grid_moments(u, log_p, f"record {i}")
    for _ in range(1000):
        eng.update_gamma(rng)

    def draw(out):
        eng.update_gamma(rng)
        np.log(eng.gamma, out=out)

    _assert_draws_match(draw, exact, GAMMA_BATCHES, GAMMA_BATCH_CALLS)


# priors set so that each block's prior term moves its conditional: xi1's
# and xi2's N(0, sigma2) about as wide as their likelihoods, and psi's
# Gamma(a_psi, b_psi) far from flat (alpha0's prior is flat)
SCALAR_HYPER = Hyperparams(sigma2_xi1=0.02, sigma2_xi2=0.05, a_psi=20.0, b_psi=10.0)
SCALAR_LOG_PRIORS = {
    "alpha0": lambda x: 0.0,
    "xi1": lambda x: -x * x / (2.0 * SCALAR_HYPER.sigma2_xi1),
    "xi2": lambda x: -x * x / (2.0 * SCALAR_HYPER.sigma2_xi2),
    "psi": lambda x: (SCALAR_HYPER.a_psi - 1.0) * math.log(x) - SCALAR_HYPER.b_psi * x,
}
SCALAR_BATCHES, SCALAR_BATCH_CALLS = 50, 1000


@pytest.mark.parametrize("name,variant,baseline,mode", [
    *(("alpha0", "BZ-DP", "powerlaw", mode) for mode in LIKELIHOOD_MODES),
    *(("xi1", "BZ-DP", "powerlaw", mode) for mode in LIKELIHOOD_MODES),
    *(("xi2", "BMZ-DP", "piecewise", mode) for mode in LIKELIHOOD_MODES),
    ("psi", "BZ-DP", "powerlaw", "corrected"),
])
def test_scalar_draws_match_quadrature_of_their_full_conditionals(name, variant, baseline, mode):
    # a frozen 60-record state, about half its records with delta = 1: with
    # the rest fixed, the scalar's full conditional is the product of the
    # oracle's likelihoods times its prior.  Its block, run alone, meets
    # the conditional's mean and variance on a grid
    eng = _engine(variant, baseline, mode, seed=62, hyper=SCALAR_HYPER)
    rng = np.random.default_rng(62)
    for _ in range(20):
        eng.sweep(rng)
    current = float(getattr(eng, name))
    u = np.linspace(0.1, 6.1, 201) if name == "psi" else np.linspace(-3.0, 3.0, 201)
    log_p = np.empty(u.size)
    for k, uk in enumerate(u.tolist()):
        setattr(eng, name, uk)
        log_p[k] = SCALAR_LOG_PRIORS[name](uk) + sum(_oracle_loglik(eng, i, mode)
                                                    for i in range(eng.n))
    setattr(eng, name, current)
    exact = np.array(_grid_moments(u, log_p, name)).reshape(2, 1)
    # about the acceptance-optimal scale of a walk on a normal target
    eng.scales[name] = 2.4 * math.sqrt(exact[1, 0])
    block = getattr(eng, "update_baseline_block" if name == "psi" else f"update_{name}")
    for _ in range(500):
        block(rng)

    def draw(out):
        block(rng)
        out[0] = getattr(eng, name)

    _assert_draws_match(draw, exact, SCALAR_BATCHES, SCALAR_BATCH_CALLS)


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_caches_match_full_refresh_after_every_block(variant, baseline, mode):
    eng = _engine(variant, baseline, mode, seed=202)
    rng = np.random.default_rng(11)
    present = [name for name in CACHES if hasattr(eng, name)]
    assert ("logit_p" in present) == ("softplus_sum" in present) == eng.logistic
    for _ in range(20):
        eng.refresh_caches()
        for block in BLOCKS:
            getattr(eng, block)(rng)
            _assert_caches_fresh(eng, present, block)


def _state_arrays(value, name="state"):
    """(name, array) for every array of a state, its mixtures' and its
    baseline's included."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _state_arrays(getattr(value, f.name), f"{name}.{f.name}")


@pytest.mark.parametrize("variant,baseline", itertools.product(VARIANTS, BASELINE_VARIANTS))
def test_engine_owns_its_record_arrays(variant, baseline):
    # the engine copies a loaded state's per-record arrays and writes its
    # own in place: sweeps leave the state as it was and read-only, and
    # each per-record array the engine holds is the same object after
    # every block
    dataset, _ = simulate_dataset(60, 4, baseline, seed=808)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline)
    state = valid_state(dataset, variant, baseline, shift=1)
    loaded = copy.deepcopy(state)
    eng.load_state(state)
    # the state's 3 shape atoms, 2 effect atoms or 4 clusters, and its 3
    # levels, are not 60 long
    held = {name: value for name, value in vars(eng).items()
            if isinstance(value, np.ndarray) and value.shape[:1] == (eng.n,)}
    owned = {*_RECORD_CACHES, "gamma", "d_flags", "v"} | ({"logit_p"} if eng.logistic else set())
    assert owned <= set(held)
    rng = np.random.default_rng(47)
    for _ in range(3):
        for block in BLOCKS:
            getattr(eng, block)(rng)
            for name, value in held.items():
                assert getattr(eng, name) is value, (name, block)
    arrays = dict(_state_arrays(state))
    assert arrays.keys() == dict(_state_arrays(loaded)).keys()
    for name, value in _state_arrays(loaded):
        assert not arrays[name].flags.writeable, name
        np.testing.assert_array_equal(arrays[name], value, err_msg=name)


# each block's traced peak above its starting size at N = 5000, in arrays of
# N float64, for every variant, baseline and likelihood mode; measured:
# beta 4, alpha 4, alpha0 2, tau2 2, gamma 7.3, cluster effects 5.0,
# susceptibility 4, baseline 3 (piecewise) and 2 (power law), shapes 10.3
# (corrected) and 13.1 (literal), xi1 3, xi2 3, zeta 3, variances 0.  The
# shapes' dense draw works in chunks of fixed size, 3.3 such arrays each
BLOCK_TRANSIENTS = {"update_beta": 4.5, "update_alpha": 4.5, "update_alpha0": 2.5,
                    "update_tau2": 2.5, "update_gamma": 7.5, "update_mu_block": 5.5,
                    "update_susceptibility": 4.5, "update_baseline_block": 3.5,
                    "update_kappa_block": 13.5, "update_xi1": 3.5, "update_xi2": 3.5,
                    "update_zeta": 3.5, "update_coef_variances": 0.5}
# init_state's traced peak above the engine it leaves, in the same arrays;
# measured 5.3: the check of the first likelihood, once the draws are freed
INIT_TRANSIENT = 5.5


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_block_transients_stay_within_their_bounds(variant, baseline, mode):
    dataset, _ = simulate_dataset(5000, 50, baseline, seed=3)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline,
                        likelihood_mode=mode)
    rng = np.random.default_rng(3)
    eng.init_state(rng)
    for _ in range(3):
        eng.sweep(rng)
    record_array = 8 * eng.n
    for _ in range(3):
        for block in BLOCKS:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                getattr(eng, block)(rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - start <= BLOCK_TRANSIENTS[block] * record_array, \
                (block, (peak - start) / record_array)


@pytest.mark.parametrize("variant,baseline,mode", CASES)
def test_init_state_transient_stays_within_its_bound(variant, baseline, mode):
    dataset, _ = simulate_dataset(5000, 50, baseline, seed=3)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline,
                        likelihood_mode=mode)
    tracemalloc.start()
    try:
        eng.init_state(np.random.default_rng(3))
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - left <= INIT_TRANSIENT * 8 * eng.n, (peak - left) / (8 * eng.n)


# BZ-DP has no cluster-effect block, the one block that rebuilds d_scale
# from the primary state, so its d_scale drifts the most
@pytest.mark.parametrize("variant,sweeps", [("BZ-DP", 10_000), ("BMZ-DP", 1_000),
                                            ("BM-DP", 1_000), ("BMZ", 1_000)])
def test_caches_do_not_drift_over_many_sweeps(variant, sweeps):
    dataset, _ = simulate_dataset(32, 4, seed=505)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant)
    rng = np.random.default_rng(23)
    eng.init_state(rng)
    present = [name for name in CACHES if hasattr(eng, name)]
    for _ in range(sweeps):
        eng.sweep(rng)
    _assert_caches_fresh(eng, present, f"{sweeps} sweeps", tol=DRIFT_REL_TOL)


@pytest.mark.parametrize("block,unit", [
    ("update_kappa_block", "score row of participant 1 in cluster 2 (shape mixture)"),
    ("update_mu_block", "score row of cluster 2 (cluster-effect mixture)")])
def test_nan_terminal_offset_names_its_unit(block, unit):
    eng = _engine("BMZ-DP", "piecewise", "corrected", seed=606)
    i = int(np.flatnonzero(eng.cluster_of == 2)[1])
    eng.d_scale[i] = np.nan
    assert eng.dataset.participant_index[i] == 1
    with pytest.raises(ValueError, match=f"{re.escape(unit)} contains NaN"):
        getattr(eng, block)(np.random.default_rng(29))


# log priors of the scalar-ratio blocks, written out here rather than read
# from the engine; the zeta entry adds the Bernoulli likelihood of the flags,
# the only term of the target that zeta enters
def _zeta_log_target(eng):
    t = eng.u @ eng.zeta
    return (float(eng.d_flags @ t) - float(np.logaddexp(0.0, t).sum())
            - float(eng.zeta @ eng.zeta) / (2.0 * eng.hyper.sigma2_zeta))


SCALAR_PRIORS = {
    "update_beta": lambda e: -float(e.beta @ e.beta) / (2.0 * e.sigma2_beta),
    "update_alpha": lambda e: -float(e.alpha @ e.alpha) / (2.0 * e.sigma2_alpha),
    "update_alpha0": lambda e: 0.0,  # flat
    "update_xi1": lambda e: -e.xi1 ** 2 / (2.0 * e.hyper.sigma2_xi1),
    "update_xi2": lambda e: -e.xi2 ** 2 / (2.0 * e.hyper.sigma2_xi2),
    "update_zeta": _zeta_log_target,
    # the power-law shape; the piecewise levels are a Gibbs block
    "update_baseline_block": lambda e: ((e.hyper.a_psi - 1.0) * math.log(e.psi)
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
    by accepting every proposal and recomputing both from a refreshed state.
    The piecewise baseline levels are drawn exactly and make no decision."""
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
            else:
                d_prior = SCALAR_PRIORS[block](eng) - SCALAR_PRIORS[block](before)
                _assert_ratio(float(ratio), (ll1 - ll0).sum() + d_prior, scale, block)
    expected = set(SCALAR_PRIORS) | {"update_gamma", "update_kappa_block"}
    if eng.baseline_variant == "piecewise":
        expected.discard("update_baseline_block")
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
    factored = eng._cluster_mu_loglik(eng._mu_sums(eng._mu_coefficients()), atoms)
    dense = oracles.dense_mu_cluster_loglik(eng, atoms)
    assert factored.shape == (eng.j, atoms.size)
    np.testing.assert_allclose(factored, dense, rtol=MU_SCORE_REL_TOL, atol=0)


@pytest.mark.parametrize("mode", LIKELIHOOD_MODES)
@pytest.mark.parametrize("variant", ["BMZ-DP", "BM-DP", "BMZ"])
def test_mu_atom_move_ratio_matches_per_record_reference(variant, mode, monkeypatch):
    """The cluster-effect atom move's log ratio, built from per-cluster
    sums, equals the former per-record formula: in the mixtures, whose
    clusters span several shape atoms, and with BMZ's one effect per
    cluster."""
    eng = _engine(variant, "piecewise", mode, seed=707)
    rng = np.random.default_rng(31)
    for _ in range(5):
        eng.sweep(rng)
    # every cluster's records on three shape atoms
    eng.v = np.arange(eng.n) % 3
    eng.refresh_caches()
    assert all(np.unique(eng.v[eng.cluster_of == c]).size >= 2 for c in range(eng.j))
    pairs = []
    move_atoms = eng._move_atoms

    def recorded_move(rng, name, atoms, assignments, prop, log_ratio, *rest):
        pairs.append((log_ratio, oracles.mu_atom_log_ratio(eng, prop, assignments)))
        return move_atoms(rng, name, atoms, assignments, prop, log_ratio, *rest)

    monkeypatch.setattr(eng, "_move_atoms", recorded_move)
    for _ in range(3):
        eng.update_mu_block(rng)
    assert len(pairs) == 3
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=MU_SCORE_REL_TOL,
                                   atol=MU_SCORE_REL_TOL * (1.0 + np.abs(want).max()))


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
    # the engine draws the assignments into its own v
    monkeypatch.setattr(dense, "_kappa_assignments",
                        lambda rng: np.copyto(dense.v, oracles.dense_kappa_assignments(dense, rng)))
    # every record of the engine under test takes the dense draw, and the
    # envelope pass draws no uniforms
    monkeypatch.setattr(chunked, "_kappa_rejection", lambda rng: np.ones(chunked.n, dtype=bool))
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


@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_without_records_sweeps(variant):
    # every block, the two mixtures included, has nothing to do and must
    # not fail on its empty arrays
    eng = SamplerEngine(make_dataset([], 0), Hyperparams(), variant=variant,
                        baseline_variant="powerlaw")
    rng = np.random.default_rng(37)
    eng.init_state(rng)
    for _ in range(3):
        eng.sweep(rng)
    assert eng.v.size == 0 and eng.participant_loglik().size == 0


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
