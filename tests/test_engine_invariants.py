"""Whole-engine invariants, pinned for every variant, baseline and
likelihood mode: the engine's per-participant log likelihood agrees with
the brute-force oracle, and every incremental cache agrees with a full
recomputation after each block update."""

import itertools
import math

import numpy as np
import pytest

import oracles
from recurjoint.model import BASELINE_VARIANTS, LIKELIHOOD_MODES, VARIANTS, Hyperparams
from recurjoint.sampler import SamplerEngine
from recurjoint.simulate import simulate_dataset

CASES = list(itertools.product(VARIANTS, BASELINE_VARIANTS, LIKELIHOOD_MODES))

# the oracle multiplies on the natural scale, so a log likelihood near 0
# carries ~1e-16 absolute rounding; below the floor agreement is absolute
ORACLE_REL_TOL = 1e-10
ORACLE_ABS_TOL = 1e-12
CACHE_REL_TOL = 1e-12

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
            incremental = {name: np.array(getattr(eng, name), dtype=float) for name in present}
            eng.refresh_caches()
            for name in present:
                fresh = np.asarray(getattr(eng, name), dtype=float)
                np.testing.assert_allclose(incremental[name], fresh, rtol=CACHE_REL_TOL, atol=0,
                                           err_msg=f"{name} after {block}")
