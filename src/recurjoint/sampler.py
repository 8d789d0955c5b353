"""MH-within-Gibbs kernel for the joint zero-inflated recurrent/terminal
event model, plus the chain driver and proposal adaptation.

:class:`SamplerEngine` is the only library code that evaluates the
observed-data likelihood (:meth:`SamplerEngine.participant_loglik`) or takes
a block step; the chain driver, traces and CPO/LPML all read it.

One sweep visits, in a fixed order: beta; alpha; alpha0; tau2; gamma;
(cluster-effect assignments, sticks, concentration, atoms); the latent
susceptibility indicators; the baseline hazard; (shape assignments, sticks,
concentration, atoms); xi1; xi2; zeta; coefficient prior variances.

A single chain is strictly sequential.  Blocks whose coordinates are
conditionally independent given the rest of the state (frailties, mixture
atoms, baseline levels) are updated as simultaneous ensembles of
random-walk Metropolis moves, which leaves the invariant distribution
unchanged while keeping the per-sweep cost a handful of vectorized passes.

Memory stays linear in the number of records N: no array spans clusters
by records (J x N), and a records-by-atoms (N x K) matrix exists only as a
row chunk of at most ``_CHUNK_ELEMENTS`` entries.  The two mixture
assignment steps are blocked-Gibbs categorical draws (Ishwaran & James
2001) scored without either:

* cluster effects: every record of cluster c shares the candidate atom
  eta_k, and a record's shape enters only through its atom theta[v], so
  the cluster's score factors into per-cluster sums,
  ``eta_k L_c - exp(eta_k) R_c - sum_h T[c, h] exp(-theta_h xi2 eta_k)
  + log w_k``, with L, R the bincounts of the per-record linear and
  recurrent coefficients and T the bincount of the terminal coefficient
  over (cluster, shape atom): O(N + J K_kappa K_mu) work;
* shapes: per-record scores are built, max-shifted, exponentiated and
  drawn from in cache-sized row chunks, from uniforms drawn once for all
  N rows, so the draws do not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dp import posterior_stick_update, stick_to_weights, update_concentration
from .model import (
    BASELINE_VARIANTS,
    LIKELIHOOD_MODES,
    VARIANTS,
    Dataset,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
    piecewise_durations,
)

__all__ = [
    "ProposalScales",
    "metropolis_decision",
    "McmcConfig",
    "ChainTrace",
    "mh_step",
    "adapt_scale",
    "run_chain",
    "SamplerEngine",
]

ADAPT_RATE_COEF = 0.5
TARGET_SCALAR = 0.44
TARGET_VECTOR = 0.30

# exp arguments are capped so that transient overflow regions produce huge
# finite penalties instead of inf - inf = nan inside vectorized updates
_EXP_CAP = 700.0
# assignment scores, and each term of a cluster-effect score, are clipped to
# +-_SCORE_CLIP so that an overflowing term cannot meet another as inf - inf
_SCORE_CLIP = 1e306

# entries per row chunk of a records-by-atoms score matrix: 128 KB of
# float64, so a chunk's few temporaries stay in a per-core L2 cache
_CHUNK_ELEMENTS = 16_384


def _exp_capped(x):
    return np.exp(np.minimum(x, _EXP_CAP))


# ---------------------------------------------------------------------------
# Configuration containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProposalScales:
    """Random-walk standard deviations, one per Metropolis block."""

    rho_beta: float = 0.1
    rho_alpha: float = 0.1
    rho_alpha0: float = 0.1
    rho_gamma: float = 0.3
    rho_eta: float = 0.3
    rho_theta: float = 0.5
    rho_xi1: float = 0.2
    rho_xi2: float = 0.2
    rho_zeta: float = 0.1
    rho_lambda: float = 0.3
    rho_psi: float = 0.2

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 10_000
    burn_in: int = 5_000
    thin: int = 1
    chains: int = 1
    seed: int = 0
    variant: str = "BMZ-DP"
    baseline_variant: str = "piecewise"
    likelihood_mode: str = "corrected"
    adapt_window: int = 50
    grid: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if (self.iterations - self.burn_in) % self.thin:
            raise ValueError("iterations - burn_in must be divisible by thin")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.baseline_variant not in BASELINE_VARIANTS:
            raise ValueError(f"unknown baseline_variant {self.baseline_variant!r}")
        if self.likelihood_mode not in LIKELIHOOD_MODES:
            raise ValueError(f"unknown likelihood_mode {self.likelihood_mode!r}")
        if self.adapt_window < 1:
            raise ValueError("adapt_window must be at least 1")

    @property
    def kept_draws(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainTrace:
    """Post-burn-in draws of the flattened parameter vector, per-draw
    participant log likelihoods, and per-block acceptance rates."""

    columns: list
    draws: np.ndarray
    participant_loglik: np.ndarray
    total_loglik: np.ndarray
    acceptance: dict
    final_scales: dict
    chain_index: int
    grid: np.ndarray | None

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no trace column named {name!r}") from None
        return self.draws[:, idx]


# ---------------------------------------------------------------------------
# Elementary kernels
# ---------------------------------------------------------------------------

def metropolis_decision(log_ratio, uniform):
    """The Metropolis rule: accept iff ``log(u) < min(0, log_ratio)``.

    Works for scalars and arrays; a NaN ratio (overflowing target at the
    proposal) rejects.  Every accept/reject decision in this module flows
    through this predicate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(uniform) < log_ratio


def _accept(log_ratio, rng: np.random.Generator):
    log_ratio = np.asarray(log_ratio)
    u = rng.random(log_ratio.shape) if log_ratio.shape else rng.random()
    return metropolis_decision(log_ratio, u)


def mh_step(current, scale: float, target_log_density: Callable, rng: np.random.Generator,
            positive: bool = False):
    """One Gaussian random-walk Metropolis step.

    Proposes ``current + scale * N(0, I)`` and accepts with probability
    ``min(1, exp(target(prop) - target(current)))``.  With ``positive`` any
    nonpositive proposal is rejected outright, matching the truncated
    conditionals used for frailties, hazard levels and shape atoms.

    Returns ``(new_value, accepted)``.
    """
    if isinstance(current, np.ndarray):
        proposal = current + scale * rng.standard_normal(current.shape)
    else:
        proposal = float(current) + scale * rng.standard_normal()
    if positive and np.any(np.asarray(proposal) <= 0.0):
        return current, False
    cur_target = target_log_density(current)
    if not np.isfinite(cur_target):
        raise ValueError("target log density is not finite at the current value")
    log_ratio = target_log_density(proposal) - cur_target
    if bool(_accept(log_ratio, rng)):
        return proposal, True
    return current, False


def adapt_scale(rate: float, scale: float, target: float = TARGET_SCALAR) -> float:
    """Burn-in proposal-scale adaptation: ``scale * exp(0.5 * (rate - target))``."""
    return scale * math.exp(ADAPT_RATE_COEF * (rate - target))


def _categorical_rows(scores: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Row-wise softmax sampling with max-shifted exponentiation: row i
    draws with the uniform ``uniforms[i]``.

    Mutates ``scores`` in place; callers pass a scratch matrix.
    """
    mx = scores.max(axis=1)
    if not np.all(np.isfinite(mx)):
        kind = "contains NaN" if np.isnan(mx).any() else "is entirely -inf"
        raise ValueError(f"a row of assignment scores {kind}")
    scores -= mx[:, None]
    np.exp(scores, out=scores)
    cum = np.cumsum(scores, axis=1, out=scores)
    u = uniforms * cum[:, -1]
    return np.count_nonzero(cum < u[:, None], axis=1)


def _clip_sticks(sticks: np.ndarray) -> np.ndarray:
    # Beta draws can round to the closed boundary; keep them strictly inside
    return np.clip(sticks, 1e-12, 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

class SamplerEngine:
    """Vectorized state of one chain.

    Holds the data design arrays, current parameter values and the derived
    per-record caches that every block update shares.  Public block methods
    mirror the update schedule; :meth:`sweep` runs them all once.
    """

    def __init__(self, dataset: Dataset, hyper: Hyperparams, *, variant: str = "BMZ-DP",
                 baseline_variant: str = "piecewise", likelihood_mode: str = "corrected",
                 scales: ProposalScales | None = None, grid=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if baseline_variant not in BASELINE_VARIANTS:
            raise ValueError(f"unknown baseline_variant {baseline_variant!r}")
        if likelihood_mode not in LIKELIHOOD_MODES:
            raise ValueError(f"unknown likelihood_mode {likelihood_mode!r}")
        self.dataset = dataset
        self.hyper = hyper
        self.variant = variant
        self.baseline_variant = baseline_variant
        self.literal = likelihood_mode == "literal"
        self.has_d = variant != "BM-DP"
        self.mu_mode = {"BMZ-DP": "dp", "BM-DP": "dp", "BZ-DP": "none", "BMZ": "param"}[variant]
        self.logistic = self.has_d and hyper.fixed_p is None

        n = len(dataset)
        self.n = n
        self.j = dataset.num_clusters
        self.x = dataset.covariates_x
        self.z = dataset.covariates_z
        self.u = dataset.covariates_u
        self.followup = dataset.followup_time
        self.log_followup = np.log(self.followup)
        self.delta = dataset.event_indicator.astype(float)
        counts = np.diff(dataset.event_offsets)
        self.q_events = counts.astype(float)
        self.cluster_of = dataset.cluster_index
        self.cluster_sizes = dataset.cluster_sizes.astype(float)
        self.ev_times = dataset.event_times
        self.ev_record = np.repeat(np.arange(n), counts)

        if baseline_variant == "piecewise":
            self.grid = self._build_grid(grid)
            self._set_piecewise_design()
        else:
            self.grid = None
            self.slog_ev = np.bincount(self.ev_record, weights=np.log(self.ev_times), minlength=n) \
                if self.ev_times.size else np.zeros(n)
            self.total_events = float(self.q_events.sum())
            self.total_log_ev = float(np.log(self.ev_times).sum()) if self.ev_times.size else 0.0

        self.level_kappa = hyper.kappa_truncation(n)
        self.level_mu = hyper.mu_truncation(self.j)

        sc = scales or ProposalScales()
        self.scales = {
            "beta": sc.rho_beta, "alpha": sc.rho_alpha, "alpha0": sc.rho_alpha0,
            "gamma": sc.rho_gamma, "eta": sc.rho_eta, "theta": sc.rho_theta,
            "xi1": sc.rho_xi1, "xi2": sc.rho_xi2, "zeta": sc.rho_zeta,
            "lambda": sc.rho_lambda, "psi": sc.rho_psi,
        }
        self.targets = {name: TARGET_SCALAR for name in self.scales}
        for name in ("beta", "alpha", "zeta"):
            self.targets[name] = TARGET_VECTOR
        self._window_accept = {name: [] for name in self.scales}
        self._accept_totals = {name: [0.0, 0] for name in self.scales}

    # -- design helpers ------------------------------------------------------

    def _build_grid(self, explicit) -> np.ndarray:
        g = self.hyper.grid_count
        if explicit is not None:
            grid = np.asarray(explicit, dtype=float)
        elif self.ev_times.size >= 2 and np.unique(self.ev_times).size >= 2:
            cuts = np.quantile(self.ev_times, np.arange(1, g) / g)
            grid = np.unique(np.concatenate(([0.0], cuts, [self.ev_times.max()])))
        else:
            horizon = float(self.followup.max()) if self.n else 1.0
            grid = np.linspace(0.0, horizon, g + 1)
        if grid.size < 2:
            raise ValueError("piecewise grid must contain at least one interval")
        return grid

    def _set_piecewise_design(self) -> None:
        self.n_levels = self.grid.size - 1
        ref = PiecewiseConstantHazard(self.grid, np.ones(self.n_levels))
        self.durations = piecewise_durations(self.followup, ref) if self.n \
            else np.empty((0, self.n_levels))
        self.ev_interval = np.clip(np.searchsorted(self.grid, self.ev_times, side="left") - 1,
                                   0, self.n_levels - 1)
        self.events_per_interval = np.bincount(self.ev_interval, minlength=self.n_levels).astype(float)

    # -- initialization --------------------------------------------------------

    def init_state(self, rng: np.random.Generator) -> None:
        """Draw the starting point: coefficients as small normal jitter,
        mixture atoms from their base measures, indicators from the prior."""
        h = self.hyper
        n, j = self.n, self.j
        self.beta = 0.1 * rng.standard_normal(self.x.shape[1])
        self.alpha = 0.1 * rng.standard_normal(self.z.shape[1])
        self.alpha0 = 0.1 * rng.standard_normal()
        self.xi1 = 0.1 * rng.standard_normal()
        self.xi2 = 0.1 * rng.standard_normal()
        self.zeta = 0.1 * rng.standard_normal(self.u.shape[1]) if self.logistic else None
        self.tau2 = np.full(j, h.b0 / (h.a0 + 1.0))
        self.gamma = np.exp(0.1 * rng.standard_normal(n))
        self.s2b = h.sigma2_beta
        self.s2a = h.sigma2_alpha

        if self.mu_mode == "dp":
            self.phi_mu = max(float(rng.gamma(h.a_phi, 1.0 / h.b_phi)), 1e-8)
            self.mu_sticks = _clip_sticks(rng.beta(1.0, self.phi_mu, size=self.level_mu - 1))
            self.mu_weights = stick_to_weights(self.mu_sticks, self.level_mu)
            self.eta = math.sqrt(h.sigma2_mu) * rng.standard_normal(self.level_mu)
            if j:
                self.m = np.searchsorted(np.cumsum(self.mu_weights),
                                         rng.random(j), side="right").astype(np.int64)
                self.m = np.clip(self.m, 0, self.level_mu - 1)
            else:
                self.m = np.empty(0, dtype=np.int64)
        elif self.mu_mode == "param":
            self.phi_mu = None
            self.mu_sticks = None
            self.mu_weights = None
            self.eta = math.sqrt(h.sigma2_mu) * rng.standard_normal(j)
            self.m = np.arange(j, dtype=np.int64)
        else:
            self.phi_mu = None
            self.mu_sticks = None
            self.mu_weights = None
            self.eta = np.empty(0)
            self.m = np.empty(0, dtype=np.int64)

        self.phi_kappa = max(float(rng.gamma(h.a_phi, 1.0 / h.b_phi)), 1e-8)
        self.kappa_sticks = _clip_sticks(rng.beta(1.0, self.phi_kappa, size=self.level_kappa - 1))
        self.kappa_weights = stick_to_weights(self.kappa_sticks, self.level_kappa)
        self.theta = np.maximum(rng.gamma(h.a_kappa, 1.0 / h.b_kappa, size=self.level_kappa), 1e-12)
        if n:
            self.v = np.searchsorted(np.cumsum(self.kappa_weights),
                                     rng.random(n), side="right").astype(np.int64)
            self.v = np.clip(self.v, 0, self.level_kappa - 1)
        else:
            self.v = np.empty(0, dtype=np.int64)

        if self.baseline_variant == "piecewise":
            exposure = float(self.followup.sum())
            base = max(float(self.q_events.sum()) / exposure, 0.1) if exposure > 0 else 1.0
            self.lam = np.full(self.n_levels, base)
            self.psi = None
        else:
            self.lam = None
            self.psi = 1.0

        if self.has_d:
            p = self._susceptibility_probs()
            self.d_flags = ((rng.random(n) < p) & (self.q_events == 0)).astype(np.int8)
        else:
            self.d_flags = np.zeros(n, dtype=np.int8)

        self.refresh_caches()
        ll = self.participant_loglik()
        if n and not np.all(np.isfinite(ll)):
            pos = int(np.flatnonzero(~np.isfinite(ll))[0])
            raise RuntimeError(
                "non-finite log likelihood at initialization for participant "
                f"{self.dataset.participant_index[pos]} in cluster {self.cluster_of[pos]}")

    # -- caches -------------------------------------------------------------------

    def refresh_caches(self) -> None:
        self.lin_x = self.x @ self.beta
        self.lin_z = self.z @ self.alpha
        self.cluster_mu = self.eta[self.m] if self.mu_mode != "none" else np.zeros(self.j)
        self.mu_rec = self.cluster_mu[self.cluster_of] if self.n else np.empty(0)
        self.lgam = np.log(self.gamma)
        self.kap = self.theta[self.v]
        self.d_scale = (self.log_followup - self.xi1 * self.lgam
                        - (self.alpha0 + self.lin_z + self.xi2 * self.mu_rec))
        self.ekd = _exp_capped(self.kap * self.d_scale)
        self.erx = _exp_capped(self.lin_x + self.mu_rec)
        self._refresh_baseline_caches()
        self.su = 1.0 - self.d_flags.astype(float)
        self.tm = self.su if self.literal else np.ones(self.n)
        if self.logistic:
            self.logit_p = self.u @ self.zeta

    def _refresh_baseline_caches(self) -> None:
        if self.baseline_variant == "piecewise":
            self.lam0_followup = self.durations @ self.lam
            log_levels = np.log(self.lam)
            self.ev_logsum = np.bincount(self.ev_record, weights=log_levels[self.ev_interval],
                                         minlength=self.n) if self.ev_times.size else np.zeros(self.n)
        else:
            with np.errstate(over="ignore"):
                self.lam0_followup = self.followup ** self.psi
            self.ev_logsum = self.q_events * math.log(self.psi) + (self.psi - 1.0) * self.slog_ev

    def participant_loglik(self) -> np.ndarray:
        """Per-record observed-data log likelihood under the current state."""
        with np.errstate(invalid="ignore"):
            terminal = self.tm * (self.delta * (np.log(self.kap) - self.log_followup
                                                + self.kap * self.d_scale) - self.ekd)
            recurrent = self.su * (self.q_events * (self.lgam + self.lin_x + self.mu_rec)
                                   + self.ev_logsum - self.gamma * self.erx * self.lam0_followup)
        return terminal + recurrent

    def total_loglik(self) -> float:
        return float(self.participant_loglik().sum())

    # -- acceptance bookkeeping ------------------------------------------------------

    def _record_accept(self, name: str, rate: float, post_burn_in: bool) -> None:
        self._window_accept[name].append(rate)
        if post_burn_in:
            tot = self._accept_totals[name]
            tot[0] += rate
            tot[1] += 1

    def acceptance_rates(self) -> dict:
        return {name: tot[0] / tot[1] for name, tot in self._accept_totals.items() if tot[1]}

    def adapt_all(self) -> None:
        for name, rates in self._window_accept.items():
            if rates:
                self.scales[name] = adapt_scale(float(np.mean(rates)), self.scales[name],
                                                self.targets[name])
        self._window_accept = {name: [] for name in self.scales}

    # -- regression blocks --------------------------------------------------------------

    def update_beta(self, rng, post=False) -> None:
        if self.beta.size == 0:
            return
        prop = self.beta + self.scales["beta"] * rng.standard_normal(self.beta.size)
        lin2 = self.x @ prop
        erx2 = _exp_capped(lin2 + self.mu_rec)
        logr = (float(self.su @ (self.q_events * (lin2 - self.lin_x)))
                - float((self.su * self.gamma * self.lam0_followup) @ (erx2 - self.erx))
                + (self.beta @ self.beta - prop @ prop) / (2.0 * self.s2b))
        ok = bool(_accept(logr, rng))
        if ok:
            self.beta = prop
            self.lin_x = lin2
            self.erx = erx2
        self._record_accept("beta", float(ok), post)

    def update_alpha(self, rng, post=False) -> None:
        if self.alpha.size == 0:
            return
        prop = self.alpha + self.scales["alpha"] * rng.standard_normal(self.alpha.size)
        lin2 = self.z @ prop
        shift = lin2 - self.lin_z
        d2 = self.d_scale - shift
        ekd2 = _exp_capped(self.kap * d2)
        logr = (-float((self.tm * self.delta * self.kap) @ shift)
                - float(self.tm @ (ekd2 - self.ekd))
                + (self.alpha @ self.alpha - prop @ prop) / (2.0 * self.s2a))
        ok = bool(_accept(logr, rng))
        if ok:
            self.alpha = prop
            self.lin_z = lin2
            self.d_scale = d2
            self.ekd = ekd2
        self._record_accept("alpha", float(ok), post)

    def update_alpha0(self, rng, post=False) -> None:
        prop = self.alpha0 + self.scales["alpha0"] * rng.standard_normal()
        shift = prop - self.alpha0
        d2 = self.d_scale - shift
        ekd2 = _exp_capped(self.kap * d2)
        # flat prior: the full conditional is proportional to the likelihood
        logr = (-shift * float((self.tm * self.delta) @ self.kap)
                - float(self.tm @ (ekd2 - self.ekd)))
        ok = bool(_accept(logr, rng))
        if ok:
            self.alpha0 = prop
            self.d_scale = d2
            self.ekd = ekd2
        self._record_accept("alpha0", float(ok), post)

    def update_tau2(self, rng) -> None:
        if self.j == 0:
            return
        ssq = np.bincount(self.cluster_of, weights=self.lgam * self.lgam, minlength=self.j)
        shape = self.hyper.a0 + 0.5 * self.cluster_sizes
        rate = self.hyper.b0 + 0.5 * ssq
        self.tau2 = rate / np.maximum(rng.gamma(shape, 1.0), 1e-300)

    def update_gamma(self, rng, post=False) -> None:
        if self.n == 0:
            return
        prop = self.gamma + self.scales["gamma"] * rng.standard_normal(self.n)
        u = rng.random(self.n)
        valid = prop > 0.0
        safe = np.where(valid, prop, 1.0)
        lg2 = np.log(safe)
        dlg = lg2 - self.lgam
        d2 = self.d_scale - self.xi1 * dlg
        ekd2 = _exp_capped(self.kap * d2)
        tau2_rec = self.tau2[self.cluster_of]
        logr = (self.su * (self.q_events * dlg - self.erx * self.lam0_followup * (prop - self.gamma))
                + self.tm * (self.delta * self.kap * (d2 - self.d_scale) - (ekd2 - self.ekd))
                - dlg - (lg2 * lg2 - self.lgam * self.lgam) / (2.0 * tau2_rec))
        accept = valid & metropolis_decision(logr, u)
        self.gamma = np.where(accept, prop, self.gamma)
        self.lgam = np.where(accept, lg2, self.lgam)
        self.d_scale = np.where(accept, d2, self.d_scale)
        self.ekd = np.where(accept, ekd2, self.ekd)
        self._record_accept("gamma", float(accept.mean()), post)

    # -- cluster-effect block -----------------------------------------------------------

    def _mu_coefficients(self):
        """Per-record coefficients of the log likelihood as a function of the
        cluster effect: the linear term, the -exp(mu) factor and the
        -exp(-kappa*xi2*mu) factor."""
        lin = self.su * self.q_events - self.tm * self.delta * self.kap * self.xi2
        rec_scale = self.su * self.gamma * _exp_capped(self.lin_x) * self.lam0_followup
        d_without_mu = self.d_scale + self.xi2 * self.mu_rec
        term_scale = self.tm * _exp_capped(self.kap * d_without_mu)
        return lin, rec_scale, term_scale

    def _cluster_mu_loglik(self, coefficients, atoms: np.ndarray) -> np.ndarray:
        """J x K matrix: the log likelihood of cluster c's records with their
        shared effect set to ``atoms[k]``, up to terms free of it.

        Summed per cluster from :meth:`_mu_coefficients`; the terminal
        coefficient is summed per (cluster, shape atom), since a record's
        shape is ``theta[v]``.  The sums and each of the three terms are
        clipped to +-_SCORE_CLIP.
        """
        lin, rec_scale, term_scale = coefficients
        k_kappa = self.level_kappa
        sums = (np.bincount(self.cluster_of, weights=lin, minlength=self.j),
                np.bincount(self.cluster_of, weights=rec_scale, minlength=self.j),
                np.bincount(self.cluster_of * k_kappa + self.v, weights=term_scale,
                            minlength=self.j * k_kappa).reshape(self.j, k_kappa))
        lin_c, rec_c, term_c = (np.clip(x, -_SCORE_CLIP, _SCORE_CLIP) for x in sums)
        e_term = _exp_capped(np.outer(-self.theta * self.xi2, atoms))
        with np.errstate(over="ignore"):
            ll = np.clip(np.outer(lin_c, atoms), -_SCORE_CLIP, _SCORE_CLIP)
            ll -= np.minimum(np.outer(rec_c, _exp_capped(atoms)), _SCORE_CLIP)
            ll -= np.minimum(term_c @ e_term, _SCORE_CLIP)
        return np.clip(ll, -_SCORE_CLIP, _SCORE_CLIP, out=ll)

    def update_mu_block(self, rng, post=False) -> None:
        """Assignments, sticks, concentration and atom moves for the cluster
        effects (plain per-cluster Metropolis steps in the parametric
        variant)."""
        if self.mu_mode == "none":
            return
        if self.mu_mode == "dp":
            coefficients = self._mu_coefficients()
            if self.j:
                scores = self._cluster_mu_loglik(coefficients, self.eta)
                with np.errstate(divide="ignore"):
                    scores += np.log(self.mu_weights)
                self.m = _categorical_rows(scores, rng.random(self.j))
            counts = np.bincount(self.m, minlength=self.level_mu).astype(float)
            self.mu_sticks = _clip_sticks(posterior_stick_update(counts, self.phi_mu, rng))
            self.mu_weights = stick_to_weights(self.mu_sticks, self.level_mu)
            if self.hyper.update_concentrations:
                self.phi_mu = update_concentration(self.mu_sticks, self.hyper.a_phi,
                                                   self.hyper.b_phi, rng)
            self._update_mu_atoms(rng, coefficients, refresh_empty=True, post=post)
        else:
            self._update_mu_atoms(rng, self._mu_coefficients(), refresh_empty=False, post=post)
        self.cluster_mu = self.eta[self.m] if self.j else np.zeros(0)
        self.mu_rec = self.cluster_mu[self.cluster_of]
        self.d_scale = (self.log_followup - self.xi1 * self.lgam
                        - (self.alpha0 + self.lin_z + self.xi2 * self.mu_rec))
        self.ekd = _exp_capped(self.kap * self.d_scale)
        self.erx = _exp_capped(self.lin_x + self.mu_rec)

    def _update_mu_atoms(self, rng, coefficients, refresh_empty: bool, post=False) -> None:
        size = self.eta.size
        if size == 0:
            return
        h = self.hyper
        prop = self.eta + self.scales["eta"] * rng.standard_normal(size)
        u = rng.random(size)
        fresh = math.sqrt(h.sigma2_mu) * rng.standard_normal(size)
        lin, rec_scale, term_scale = coefficients
        counts = np.bincount(self.m, minlength=size)
        if self.n:
            atom_of_rec = self.m[self.cluster_of]
            cur_r = self.eta[atom_of_rec]
            new_r = prop[atom_of_rec]
            d_ll = (lin * (new_r - cur_r)
                    - rec_scale * (_exp_capped(new_r) - _exp_capped(cur_r))
                    - term_scale * (_exp_capped(-self.kap * self.xi2 * new_r)
                                    - _exp_capped(-self.kap * self.xi2 * cur_r)))
            atom_delta = np.bincount(atom_of_rec, weights=d_ll, minlength=size)
        else:
            atom_delta = np.zeros(size)
        atom_delta += (self.eta ** 2 - prop ** 2) / (2.0 * h.sigma2_mu)
        accept = metropolis_decision(atom_delta, u)
        occupied = counts > 0
        self.eta = np.where(occupied & accept, prop, self.eta)
        if refresh_empty:
            self.eta = np.where(occupied, self.eta, fresh)
        if occupied.any():
            self._record_accept("eta", float(accept[occupied].mean()), post)

    # -- susceptibility block ----------------------------------------------------------

    def _susceptibility_probs(self) -> np.ndarray:
        if self.hyper.fixed_p is not None:
            return np.full(self.n, self.hyper.fixed_p)
        t = self.u @ self.zeta
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-t))

    def update_susceptibility(self, rng) -> None:
        if not self.has_d or self.n == 0:
            return
        if self.hyper.fixed_p is not None:
            p = self.hyper.fixed_p
            logit_p = np.full(self.n, math.log(p) - math.log1p(-p))
        else:
            logit_p = self.logit_p
        log_s = -self.gamma * self.erx * self.lam0_followup
        logit = logit_p - log_s
        if self.literal:
            terminal = (self.delta * (np.log(self.kap) - self.log_followup
                                      + self.kap * self.d_scale) - self.ekd)
            logit = logit - terminal
        with np.errstate(over="ignore"):
            prob_one = 1.0 / (1.0 + np.exp(-logit))
        draws = rng.random(self.n)
        self.d_flags = ((draws < prob_one) & (self.q_events == 0)).astype(np.int8)
        self.su = 1.0 - self.d_flags.astype(float)
        if self.literal:
            self.tm = self.su

    # -- baseline block -------------------------------------------------------------------

    def update_baseline_block(self, rng, post=False) -> None:
        if self.baseline_variant == "piecewise":
            self._update_levels(rng, post)
        else:
            self._update_psi(rng, post)

    def _update_levels(self, rng, post=False) -> None:
        g = self.n_levels
        prop = self.lam + self.scales["lambda"] * rng.standard_normal(g)
        u = rng.random(g)
        valid = prop > 0.0
        safe = np.where(valid, prop, 1.0)
        weights = self.su * self.gamma * self.erx
        exposure = weights @ self.durations
        # uniform (0, inf) prior on each level: likelihood-only ratio
        logr = (self.events_per_interval * (np.log(safe) - np.log(self.lam))
                - (prop - self.lam) * exposure)
        accept = valid & metropolis_decision(logr, u)
        if accept.any():
            self.lam = np.where(accept, prop, self.lam)
            self._refresh_baseline_caches()
        self._record_accept("lambda", float(accept.mean()), post)

    def _update_psi(self, rng, post=False) -> None:
        h = self.hyper
        weights = self.su * self.gamma * self.erx

        def target(psi: float) -> float:
            if psi <= 0:
                return -np.inf
            with np.errstate(over="ignore"):
                risk = float(weights @ self.followup ** psi)
            if not np.isfinite(risk):
                return -np.inf
            return (self.total_events * math.log(psi) + (psi - 1.0) * self.total_log_ev
                    - risk + (h.a_psi - 1.0) * math.log(psi) - h.b_psi * psi)

        self.psi, ok = mh_step(self.psi, self.scales["psi"], target, rng, positive=True)
        if ok:
            self._refresh_baseline_caches()
        self._record_accept("psi", float(ok), post)

    # -- shape-parameter block ---------------------------------------------------------------

    def _kappa_assignments(self, rng) -> np.ndarray:
        """Draw every record's shape atom, scoring ``_CHUNK_ELEMENTS``-sized
        row chunks of the records-by-atoms matrix one at a time."""
        uniforms = rng.random(self.n)
        log_theta = np.log(self.theta)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.kappa_weights)
        rows = max(1, _CHUNK_ELEMENTS // self.level_kappa)
        v = np.empty(self.n, dtype=np.int64)
        for start in range(0, self.n, rows):
            r = slice(start, start + rows)
            powers = np.multiply.outer(self.d_scale[r], self.theta)
            expo = np.minimum(powers, _EXP_CAP)
            np.exp(expo, out=expo)
            ll = log_theta - self.log_followup[r, None]
            ll += powers
            ll *= self.delta[r, None]
            ll -= expo
            if self.literal:
                ll *= self.tm[r, None]
            np.clip(ll, -_SCORE_CLIP, _SCORE_CLIP, out=ll)
            ll += log_w
            v[r] = _categorical_rows(ll, uniforms[r])
        return v

    def update_kappa_block(self, rng, post=False) -> None:
        if self.n:
            self.v = self._kappa_assignments(rng)
        counts = np.bincount(self.v, minlength=self.level_kappa).astype(float)
        self.kappa_sticks = _clip_sticks(posterior_stick_update(counts, self.phi_kappa, rng))
        self.kappa_weights = stick_to_weights(self.kappa_sticks, self.level_kappa)
        if self.hyper.update_concentrations:
            self.phi_kappa = update_concentration(self.kappa_sticks, self.hyper.a_phi,
                                                  self.hyper.b_phi, rng)
        self._update_theta_atoms(rng, post)
        self.kap = self.theta[self.v]
        self.ekd = _exp_capped(self.kap * self.d_scale)

    def _update_theta_atoms(self, rng, post=False) -> None:
        h = self.hyper
        size = self.level_kappa
        prop = self.theta + self.scales["theta"] * rng.standard_normal(size)
        u = rng.random(size)
        fresh = np.maximum(rng.gamma(h.a_kappa, 1.0 / h.b_kappa, size=size), 1e-12)
        counts = np.bincount(self.v, minlength=size)
        valid = prop > 0.0
        safe = np.where(valid, prop, 1.0)
        if self.n:
            kc = self.theta[self.v]
            kp = safe[self.v]
            d_ll = self.tm * (self.delta * (np.log(kp) - np.log(kc) + (kp - kc) * self.d_scale)
                              - (_exp_capped(kp * self.d_scale) - _exp_capped(kc * self.d_scale)))
            atom_delta = np.bincount(self.v, weights=d_ll, minlength=size)
        else:
            atom_delta = np.zeros(size)
        # Gamma(a_kappa, b_kappa) base density keeps the conditional proper
        atom_delta += ((h.a_kappa - 1.0) * (np.log(safe) - np.log(self.theta))
                       - h.b_kappa * (prop - self.theta))
        accept = valid & metropolis_decision(atom_delta, u)
        occupied = counts > 0
        self.theta = np.where(occupied & accept, prop, self.theta)
        self.theta = np.where(occupied, self.theta, fresh)
        if occupied.any():
            self._record_accept("theta", float(accept[occupied].mean()), post)

    # -- frailty-loading blocks ------------------------------------------------------------------

    def update_xi1(self, rng, post=False) -> None:
        prop = self.xi1 + self.scales["xi1"] * rng.standard_normal()
        shift = prop - self.xi1
        d2 = self.d_scale - shift * self.lgam
        ekd2 = _exp_capped(self.kap * d2)
        logr = (-shift * float((self.tm * self.delta * self.kap) @ self.lgam)
                - float(self.tm @ (ekd2 - self.ekd))
                + (self.xi1 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi1))
        ok = bool(_accept(logr, rng))
        if ok:
            self.xi1 = prop
            self.d_scale = d2
            self.ekd = ekd2
        self._record_accept("xi1", float(ok), post)

    def update_xi2(self, rng, post=False) -> None:
        prop = self.xi2 + self.scales["xi2"] * rng.standard_normal()
        shift = prop - self.xi2
        d2 = self.d_scale - shift * self.mu_rec
        ekd2 = _exp_capped(self.kap * d2)
        logr = (-shift * float((self.tm * self.delta * self.kap) @ self.mu_rec)
                - float(self.tm @ (ekd2 - self.ekd))
                + (self.xi2 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi2))
        ok = bool(_accept(logr, rng))
        if ok:
            self.xi2 = prop
            self.d_scale = d2
            self.ekd = ekd2
        self._record_accept("xi2", float(ok), post)

    def update_zeta(self, rng, post=False) -> None:
        if not self.logistic or self.zeta.size == 0:
            return
        prop = self.zeta + self.scales["zeta"] * rng.standard_normal(self.zeta.size)
        t2 = self.u @ prop
        d = self.d_flags.astype(float)
        logr = (float(d @ (t2 - self.logit_p))
                - float(np.logaddexp(0.0, t2).sum() - np.logaddexp(0.0, self.logit_p).sum())
                + (self.zeta @ self.zeta - prop @ prop) / (2.0 * self.hyper.sigma2_zeta))
        ok = bool(_accept(logr, rng))
        if ok:
            self.zeta = prop
            self.logit_p = t2
        self._record_accept("zeta", float(ok), post)

    def update_coef_variances(self, rng) -> None:
        if not self.hyper.resample_coef_variances:
            return
        rate_b = 0.5 + 0.5 * float(self.beta @ self.beta)
        self.s2b = rate_b / max(float(rng.gamma(0.5 + 0.5 * self.beta.size, 1.0)), 1e-300)
        rate_a = 0.5 + 0.5 * float(self.alpha @ self.alpha)
        self.s2a = rate_a / max(float(rng.gamma(0.5 + 0.5 * self.alpha.size, 1.0)), 1e-300)

    # -- sweep ------------------------------------------------------------------------------

    def sweep(self, rng: np.random.Generator, post_burn_in: bool = False) -> None:
        self.refresh_caches()
        self.update_beta(rng, post_burn_in)
        self.update_alpha(rng, post_burn_in)
        self.update_alpha0(rng, post_burn_in)
        self.update_tau2(rng)
        self.update_gamma(rng, post_burn_in)
        self.update_mu_block(rng, post_burn_in)
        self.update_susceptibility(rng)
        self.update_baseline_block(rng, post_burn_in)
        self.update_kappa_block(rng, post_burn_in)
        self.update_xi1(rng, post_burn_in)
        self.update_xi2(rng, post_burn_in)
        self.update_zeta(rng, post_burn_in)
        self.update_coef_variances(rng)

    # -- state loading --------------------------------------------------------------------------

    def load_state(self, state: ParamState) -> None:
        """Replace the chain state by ``state`` and rebuild every cache.

        Rejects a state sized for another dataset, and one that flags a
        participant with recurrent events as unsusceptible."""
        if self.mu_mode != "none" and state.mu_dp is None:
            raise ValueError("state has no cluster-effect mixture for this variant")
        sizes = [("gamma", state.gamma.size, self.n),
                 ("unsusceptible", state.unsusceptible.size, self.n),
                 ("shape-mixture assignments", state.kappa_dp.assignments.size, self.n),
                 ("tau2", state.tau2.size, self.j)]
        if self.mu_mode != "none":
            sizes.append(("cluster-effect assignments", state.mu_dp.assignments.size, self.j))
        if self.mu_mode == "param":
            sizes.append(("cluster-effect atoms", state.mu_dp.atoms.size, self.j))
        for name, got, want in sizes:
            if got != want:
                raise ValueError(f"state dimensions do not match the dataset: {name} has "
                                 f"{got} entries, expected {want}")
        with_events = np.flatnonzero((state.unsusceptible == 1) & (self.q_events > 0))
        if with_events.size:
            pos = with_events[0]
            raise ValueError("participants with recurrent events cannot be unsusceptible: "
                             f"participant {self.dataset.participant_index[pos]} in cluster "
                             f"{self.cluster_of[pos]}")
        self.beta = np.array(state.beta, dtype=float)
        self.alpha = np.array(state.alpha, dtype=float)
        self.alpha0 = float(state.alpha0)
        self.xi1 = float(state.xi1)
        self.xi2 = float(state.xi2)
        self.zeta = None if state.zeta is None else np.array(state.zeta, dtype=float)
        if self.logistic and self.zeta is None:
            raise ValueError("state has no zeta but the logistic model is active")
        self.gamma = np.array(state.gamma, dtype=float)
        self.tau2 = np.array(state.tau2, dtype=float)
        self.d_flags = np.array(state.unsusceptible, dtype=np.int8)
        if self.mu_mode != "none":
            self.eta = np.array(state.mu_dp.atoms, dtype=float)
            self.m = np.array(state.mu_dp.assignments, dtype=np.int64)
            if self.mu_mode == "dp":
                self.mu_sticks = np.array(state.mu_dp.raw_sticks, dtype=float)
                self.mu_weights = np.array(state.mu_dp.weights, dtype=float)
                self.phi_mu = float(state.mu_dp.concentration)
                self.level_mu = self.eta.size
        else:
            self.eta = np.empty(0)
            self.m = np.empty(0, dtype=np.int64)
        self.theta = np.array(state.kappa_dp.atoms, dtype=float)
        self.v = np.array(state.kappa_dp.assignments, dtype=np.int64)
        self.kappa_sticks = np.array(state.kappa_dp.raw_sticks, dtype=float)
        self.kappa_weights = np.array(state.kappa_dp.weights, dtype=float)
        self.phi_kappa = float(state.kappa_dp.concentration)
        self.level_kappa = self.theta.size
        if isinstance(state.baseline, PiecewiseConstantHazard):
            if self.baseline_variant != "piecewise":
                raise ValueError("state baseline variant does not match the engine")
            self.grid = np.array(state.baseline.grid, dtype=float)
            self.lam = np.array(state.baseline.levels, dtype=float)
            self._set_piecewise_design()
        else:
            if self.baseline_variant != "powerlaw":
                raise ValueError("state baseline variant does not match the engine")
            self.psi = float(state.baseline.shape)
        self.s2b = float(state.sigma2_beta)
        self.s2a = float(state.sigma2_alpha)
        self.refresh_caches()

    # -- trace assembly ----------------------------------------------------------------------------

    def trace_columns(self) -> list:
        cols = [f"beta_{i + 1}" for i in range(self.x.shape[1])]
        cols += [f"alpha_{i + 1}" for i in range(self.z.shape[1])]
        cols += ["alpha0", "xi1", "xi2"]
        if self.logistic:
            cols += [f"zeta_{i + 1}" for i in range(self.u.shape[1])]
        cols += ["sigma2_beta", "sigma2_alpha"]
        if self.baseline_variant == "piecewise":
            cols += [f"lambda_0{i + 1}" for i in range(self.n_levels)]
        else:
            cols += ["psi"]
        cols += [f"tau2_{i + 1}" for i in range(self.j)]
        if self.mu_mode != "none":
            cols += [f"mu_{i + 1}" for i in range(self.j)]
        if self.mu_mode == "dp":
            cols += ["phi_mu"] + [f"eta_{i + 1}" for i in range(self.level_mu)]
        cols += ["phi_kappa"] + [f"theta_{i + 1}" for i in range(self.level_kappa)]
        cols += ["n_unsusceptible"]
        return cols

    def trace_row(self) -> np.ndarray:
        parts = [self.beta, self.alpha, [self.alpha0, self.xi1, self.xi2]]
        if self.logistic:
            parts.append(self.zeta)
        parts.append([self.s2b, self.s2a])
        parts.append(self.lam if self.baseline_variant == "piecewise" else [self.psi])
        parts.append(self.tau2)
        if self.mu_mode != "none":
            parts.append(self.eta[self.m])
        if self.mu_mode == "dp":
            parts.append([self.phi_mu])
            parts.append(self.eta)
        parts.append([self.phi_kappa])
        parts.append(self.theta)
        parts.append([float(self.d_flags.sum())])
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------

def run_chain(dataset: Dataset, config: McmcConfig, hyper: Hyperparams,
              seed: int | None = None, chain_index: int = 0,
              scales: ProposalScales | None = None) -> ChainTrace:
    """Run one chain and return its post-burn-in trace.

    Identical (seed, config, data) inputs yield a bit-identical trace.  The
    generator stream is derived from (seed, chain_index) so multiple chains
    are independent.  Proposal scales adapt during burn-in only; the
    post-burn-in kernel is fixed.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng([seed, chain_index])
    eng = SamplerEngine(dataset, hyper, variant=config.variant,
                        baseline_variant=config.baseline_variant,
                        likelihood_mode=config.likelihood_mode,
                        scales=scales, grid=config.grid)
    eng.init_state(rng)

    columns = eng.trace_columns()
    kept = config.kept_draws
    draws = np.empty((kept, len(columns)))
    part_ll = np.empty((kept, eng.n))
    total_ll = np.empty(kept)

    row = 0
    for it in range(config.iterations):
        post = it >= config.burn_in
        eng.sweep(rng, post_burn_in=post)
        if not post and (it + 1) % config.adapt_window == 0:
            eng.adapt_all()
        if post and (it - config.burn_in) % config.thin == 0:
            draws[row] = eng.trace_row()
            ll = eng.participant_loglik()
            part_ll[row] = ll
            total_ll[row] = ll.sum()
            row += 1
    assert row == kept

    return ChainTrace(
        columns=columns, draws=draws, participant_loglik=part_ll, total_loglik=total_ll,
        acceptance=eng.acceptance_rates(), final_scales=dict(eng.scales),
        chain_index=chain_index,
        grid=None if eng.grid is None else eng.grid.copy())
