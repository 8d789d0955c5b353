"""Independent brute-force evaluators used as oracles.

Everything down to ``participant_likelihood`` is deliberately coded from
the printed model formulas with plain Python floats and no shared helpers
from the package, so agreement with the library is a genuine
dual-implementation check.

The dense references at the end keep the sampler's former numpy scoring of
the two mixture assignment steps: a full records-by-atoms matrix, summed
over each cluster's records by a clusters-by-records one-hot for the
cluster effects.  They read only the engine's state and caches, and so
does the exact shape-atom softmax of one record.  The dense CPO/LPML
keeps the former computation from a whole draws-by-participants matrix
of log likelihoods.
"""

import math

import numpy as np

from recurjoint.sampler import _EXP_CAP


def baseline_level(t, grid, levels):
    """Hazard level at time t for a left-open/right-closed piecewise grid,
    extending the last level beyond the grid."""
    for g in range(len(levels)):
        if grid[g] < t <= grid[g + 1]:
            return levels[g]
    return levels[-1]


def cumulative_hazard_piecewise(t, grid, levels):
    total = 0.0
    for g in range(len(levels)):
        lo, hi = grid[g], grid[g + 1]
        if t > lo:
            total += levels[g] * (min(t, hi) - lo)
    if t > grid[-1]:
        total += levels[-1] * (t - grid[-1])
    return total


def cumulative_hazard(t, baseline):
    if baseline["variant"] == "powerlaw":
        return t ** baseline["shape"]
    return cumulative_hazard_piecewise(t, baseline["grid"], baseline["levels"])


def hazard_level(t, baseline):
    if baseline["variant"] == "powerlaw":
        psi = baseline["shape"]
        return psi * t ** (psi - 1.0)
    return baseline_level(t, baseline["grid"], baseline["levels"])


def recurrent_intensity(t, gamma, beta, x, mu, baseline):
    lin = sum(b * xv for b, xv in zip(beta, x))
    return gamma * hazard_level(t, baseline) * math.exp(lin + mu)


def recurrent_survival(t, gamma, beta, x, mu, baseline):
    lin = sum(b * xv for b, xv in zip(beta, x))
    return math.exp(-gamma * math.exp(lin + mu) * cumulative_hazard(t, baseline))


def terminal_survival(t, kappa, gamma, alpha0, alpha, z, xi1, xi2, mu):
    lin = alpha0 + sum(a * zv for a, zv in zip(alpha, z)) + xi2 * mu
    return math.exp(-(gamma ** (-kappa * xi1)) * t ** kappa * math.exp(-kappa * lin))


def terminal_hazard(t, kappa, gamma, alpha0, alpha, z, xi1, xi2, mu):
    lin = alpha0 + sum(a * zv for a, zv in zip(alpha, z)) + xi2 * mu
    return (gamma ** (-kappa * xi1)) * t ** (kappa - 1.0) * kappa * math.exp(-kappa * lin)


def terminal_density(t, kappa, gamma, alpha0, alpha, z, xi1, xi2, mu):
    return (terminal_hazard(t, kappa, gamma, alpha0, alpha, z, xi1, xi2, mu)
            * terminal_survival(t, kappa, gamma, alpha0, alpha, z, xi1, xi2, mu))


def participant_likelihood(record, params, mode="corrected"):
    """Observed-data likelihood of one participant from the printed display.

    ``record`` is (followup, delta, times, x, z) and ``params`` holds
    (beta, alpha, alpha0, xi1, xi2, gamma, mu, kappa, d_flag, baseline).
    Returns the likelihood on the natural scale.
    """
    followup, delta, times, x, z = record
    beta = params["beta"]
    kwargs = dict(kappa=params["kappa"], gamma=params["gamma"], alpha0=params["alpha0"],
                  alpha=params["alpha"], z=z, xi1=params["xi1"], xi2=params["xi2"],
                  mu=params["mu"])
    surv_r = recurrent_survival(followup, params["gamma"], beta, x, params["mu"],
                                params["baseline"])
    dens_t = terminal_density(followup, **kwargs)
    surv_t = terminal_survival(followup, **kwargs)
    d_flag = params["d_flag"]

    if len(times) == 0:
        if mode == "literal":
            return (d_flag
                    + (1 - d_flag) * (1 - delta) * surv_r * surv_t
                    + (1 - d_flag) * delta * surv_r * dens_t)
        terminal = dens_t if delta else surv_t
        return terminal * (surv_r if not d_flag else 1.0)
    prod = 1.0
    for t in times:
        prod *= recurrent_intensity(t, params["gamma"], beta, x, params["mu"],
                                    params["baseline"])
    terminal = dens_t if delta else surv_t
    return prod * surv_r * terminal


def _dense_exp_capped(x):
    return np.exp(np.minimum(x, _EXP_CAP))


def dense_mu_cluster_loglik(eng, atoms):
    """J x K cluster-effect log likelihoods: per-record N x K values, each
    clipped to +-1e306, summed per cluster by a J x N one-hot product."""
    atoms = np.asarray(atoms, dtype=float)
    kap = eng.theta[eng.v]
    lin = eng.su * eng.q_events - eng.tm * eng.delta * kap * eng.xi2
    rec_scale = eng.su * eng.gamma * _dense_exp_capped(eng.lin_x) * eng.lam0_followup
    term_scale = eng.tm * _dense_exp_capped(kap * (eng.d_scale + eng.xi2 * eng.mu_rec))
    e_term = _dense_exp_capped(np.outer(-kap * eng.xi2, atoms))
    ll = (lin[:, None] * atoms[None, :] - rec_scale[:, None] * _dense_exp_capped(atoms)[None, :]
          - term_scale[:, None] * e_term)
    np.clip(ll, -1e306, 1e306, out=ll)
    onehot = np.zeros((eng.j, eng.n))
    onehot[eng.cluster_of, np.arange(eng.n)] = 1.0
    return onehot @ ll


def dense_kappa_assignments(eng, rng):
    """Shape-atom draws from the whole N x K score matrix: max-shifted
    softmax, one uniform per record drawn after the scores."""
    powers = np.outer(eng.d_scale, eng.theta)
    expo = np.exp(np.minimum(powers, _EXP_CAP))
    ll = eng.delta[:, None] * (np.log(eng.theta)[None, :] - eng.log_followup[:, None] + powers)
    ll -= expo
    if eng.literal:
        ll *= eng.tm[:, None]
    np.clip(ll, -1e306, 1e306, out=ll)
    with np.errstate(divide="ignore"):
        ll += np.log(eng.kappa_weights)[None, :]
    ll -= ll.max(axis=1)[:, None]
    np.exp(ll, out=ll)
    cum = np.cumsum(ll, axis=1)
    u = rng.random(ll.shape[0]) * cum[:, -1]
    return (cum < u[:, None]).sum(axis=1)


def kappa_probabilities(eng, i):
    """Exact shape-atom probabilities of record ``i`` under the engine's
    state, from its offset ``d_scale``: the softmax of the clipped, capped
    terminal scores plus the log mixture weights, in plain floats."""
    d, delta = float(eng.d_scale[i]), float(eng.delta[i])
    tm, log_t = float(eng.tm[i]), math.log(float(eng.followup[i]))
    scores = []
    for theta, w in zip(eng.theta.tolist(), eng.kappa_weights.tolist()):
        if w == 0.0:
            scores.append(-math.inf)
            continue
        x = theta * d
        s = tm * (delta * (math.log(theta) - log_t + x) - math.exp(min(x, _EXP_CAP)))
        scores.append(min(max(s, -1e306), 1e306) + math.log(w))
    top = max(scores)
    p = [math.exp(s - top) for s in scores]
    total = sum(p)
    return [q / total for q in p]


def dense_cpo_lpml(log_likelihoods):
    """Harmonic-mean log CPOs and LPML from a draws x participants matrix:
    ``log CPO_i = log S - logsumexp_s(-l_si)``, max-shifted per participant."""
    ll = np.asarray(log_likelihoods, dtype=float)
    neg = -ll
    top = neg.max(axis=0)
    lse = top + np.log(np.exp(neg - top).sum(axis=0))
    log_cpo = np.log(ll.shape[0]) - lse
    return log_cpo, float(log_cpo.sum())
