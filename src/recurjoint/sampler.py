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
The scalar-decision blocks (beta, alpha, alpha0, xi1, xi2, zeta) share one
accept-and-record step, :meth:`SamplerEngine._step`, and every block that
moves the terminal offset ``d_scale`` (alpha, alpha0, gamma, xi1, xi2) takes
its change of terminal log density from one move,
:meth:`SamplerEngine._terminal_shift`.

Memory stays linear in the number of records N: no array spans clusters
by records (J x N), and an atoms-by-records (K x N) matrix exists only as a
chunk of at most ``_CHUNK_ELEMENTS`` entries.  The two mixture
assignment steps are blocked-Gibbs categorical draws (Ishwaran & James
2001) made without either:

* cluster effects: every record of cluster c shares the candidate atom
  eta_k, and a record's shape enters only through its atom theta[v], so
  the cluster's score factors into per-cluster sums,
  ``eta_k L_c - exp(eta_k) R_c - sum_h T[c, h] exp(-theta_h xi2 eta_k)
  + log w_k``, with L, R the bincounts of the per-record linear and
  recurrent coefficients and T the bincount of the terminal coefficient
  over (cluster, shape atom): O(N + J K_kappa K_mu) work;
* shapes: record i takes atom k with probability proportional to
  ``exp(s_k(d_i))``, ``s_k(d) = log w_k + delta (log theta_k + theta_k d)
  - exp(theta_k d)`` (exp argument capped; the record's own -delta log t
  cancels), d_i its terminal offset ``d_scale``.  The draw is exact
  rejection from an envelope (Devroye 1986, II.3) at about one score per
  record, not K.  Once per sweep the range of d is cut into
  B = N / ``_KAPPA_BIN_RECORDS`` equal-width bins, and for each terminal
  flag, bin and atom an upper bound U of s_k over the bin is tabulated
  (2B rows of K entries).  In each of up to ``_KAPPA_ROUNDS`` rounds a
  record proposes k with probability proportional to ``exp(U)`` of its
  row and accepts it with probability ``exp(s_k(d_i) - U)``; an accepted
  k is distributed exactly as the target, whatever the bound's slack.
  The records no round accepted, and those whose scores the dense draw
  would clip or reject (non-finite d, theta_max |d| near overflow, zero
  terminal weight in the literal mode), are drawn from their full scores,
  built in cache-sized chunks laid out atoms by records, one uniform each
  in record order.  The number of uniforms drawn depends on the
  acceptances, and which record reads which uniform on ``_KAPPA_BLOCK``;
  the chunk size does not change the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import cpo_accumulate
from .dp import posterior_stick_update, stick_to_weights, update_concentration
from .model import (
    BASELINE_VARIANTS,
    LIKELIHOOD_MODES,
    VARIANTS,
    Dataset,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
    TruncatedDP,
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

# entries per chunk of an atoms-by-records score matrix: 128 KB of
# float64, so a chunk's few temporaries stay in a per-core L2 cache
_CHUNK_ELEMENTS = 16_384

# the shape step's rejection sampler: records per bin of the envelope, so
# that for up to 64 atoms each of its two tables (2 rows per bin, 64 wide)
# is no larger than a per-record array; rounds before the dense draw takes
# the records left; and records per block of a round, which bounds its
# temporaries
_KAPPA_BIN_RECORDS = 128
_KAPPA_ROUNDS = 3
_KAPPA_BLOCK = 4096
# a record with |theta d| possibly past this takes the dense draw, since its
# scores may reach the +-_SCORE_CLIP clip
_KAPPA_ROUTE_LIMIT = 1e300


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
    """Post-burn-in draws of the flattened parameter vector and their total
    log likelihoods, each participant's ``log sum_s exp(-l_si)`` over those
    draws (the input of :func:`~recurjoint.diagnostics.cpo_lpml`), and
    per-block acceptance rates."""

    columns: list
    draws: np.ndarray
    neg_loglik_lse: np.ndarray
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
    proposal) rejects.  Every Metropolis accept/reject decision in this
    module flows through this predicate; the shape step's rejection sampler
    is not a Metropolis step and does not.
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


def _categorical_columns(scores: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Column-wise softmax sampling with max-shifted exponentiation: scores
    are categories by units, and unit i draws from column i with the
    uniform ``uniforms[i]``.

    Mutates ``scores`` in place; callers pass a scratch matrix.
    """
    mx = scores.max(axis=0)
    if not np.all(np.isfinite(mx)):
        kind = "contains NaN" if np.isnan(mx).any() else "is entirely -inf"
        raise ValueError(f"a unit's assignment scores {kind}")
    scores -= mx
    np.exp(scores, out=scores)
    cum = np.cumsum(scores, axis=0, out=scores)
    u = uniforms * cum[-1]
    return np.count_nonzero(cum < u, axis=0)


def _clip_sticks(sticks: np.ndarray) -> np.ndarray:
    # Beta draws can round to the closed boundary; keep them strictly inside
    return np.clip(sticks, 1e-12, 1.0 - 1e-12)


def _mixture_arrays(dp: TruncatedDP) -> tuple:
    """Writable copies of a mixture state, with its weights: (atoms,
    assignments, sticks, weights, concentration)."""
    sticks = np.array(dp.raw_sticks, dtype=float)
    return (np.array(dp.atoms, dtype=float), np.array(dp.assignments, dtype=np.int64), sticks,
            stick_to_weights(sticks, dp.atoms.size), float(dp.concentration))


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
            self.eta, self.m, self.mu_sticks, self.mu_weights, self.phi_mu = \
                self._prior_mixture(rng, self.level_mu, j, self._draw_mu_atoms)
        else:
            # BMZ: one effect per cluster; BZ-DP: none
            self.eta = self._draw_mu_atoms(rng, j) if self.mu_mode == "param" else np.empty(0)
            self.m = np.arange(self.eta.size, dtype=np.int64)
        self.theta, self.v, self.kappa_sticks, self.kappa_weights, self.phi_kappa = \
            self._prior_mixture(rng, self.level_kappa, n, self._draw_kappa_atoms)

        if self.baseline_variant == "piecewise":
            exposure = float(self.followup.sum())
            base = max(float(self.q_events.sum()) / exposure, 0.1) if exposure > 0 else 1.0
            self.lam = np.full(self.n_levels, base)
            self.psi = None
        else:
            self.lam = None
            self.psi = 1.0

        if self.has_d:
            with np.errstate(over="ignore"):
                p = (1.0 / (1.0 + np.exp(-(self.u @ self.zeta))) if self.logistic
                     else self.hyper.fixed_p)
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

    def _draw_mu_atoms(self, rng, size: int) -> np.ndarray:
        return math.sqrt(self.hyper.sigma2_mu) * rng.standard_normal(size)

    def _draw_kappa_atoms(self, rng, size: int) -> np.ndarray:
        return np.maximum(rng.gamma(self.hyper.a_kappa, 1.0 / self.hyper.b_kappa, size=size),
                          1e-12)

    def _prior_mixture(self, rng, size: int, units: int, draw_atoms: Callable) -> tuple:
        """A prior draw of a truncated stick-breaking mixture of ``size``
        atoms over ``units`` units, in this order: concentration, sticks,
        atoms (``draw_atoms(rng, size)``), assignments.  Returns (atoms,
        assignments, sticks, weights, concentration)."""
        h = self.hyper
        phi = max(float(rng.gamma(h.a_phi, 1.0 / h.b_phi)), 1e-8)
        sticks = _clip_sticks(rng.beta(1.0, phi, size=size - 1))
        weights = stick_to_weights(sticks, size)
        atoms = draw_atoms(rng, size)
        assignments = np.searchsorted(np.cumsum(weights), rng.random(units), side="right")
        return atoms, np.minimum(assignments, size - 1).astype(np.int64), sticks, weights, phi

    def _update_sticks(self, assignments: np.ndarray, size: int, concentration: float,
                       rng) -> tuple:
        """Conjugate stick fractions given the assignment counts, then the
        concentration's Gibbs draw (kept fixed unless ``update_concentrations``).
        Returns (sticks, weights, concentration)."""
        counts = np.bincount(assignments, minlength=size).astype(float)
        sticks = _clip_sticks(posterior_stick_update(counts, concentration, rng))
        if self.hyper.update_concentrations:
            concentration = update_concentration(sticks, self.hyper.a_phi, self.hyper.b_phi, rng)
        return sticks, stick_to_weights(sticks, size), concentration

    def _move_atoms(self, rng, name: str, atoms: np.ndarray, assignments: np.ndarray,
                    draw_atoms: Callable, log_ratio: Callable, post: bool) -> np.ndarray:
        """One simultaneous random-walk Metropolis move of every occupied atom
        of a mixture, accepted with the per-atom log ratio ``log_ratio(prop)``;
        every empty atom is redrawn from its base measure.  Returns the atoms."""
        size = atoms.size
        prop = atoms + self.scales[name] * rng.standard_normal(size)
        u = rng.random(size)
        fresh = draw_atoms(rng, size)
        accept = metropolis_decision(log_ratio(prop), u)
        occupied = np.bincount(assignments, minlength=size) > 0
        if occupied.any():
            self._record_accept(name, float(accept[occupied].mean()), post)
        return np.where(occupied, np.where(accept, prop, atoms), fresh)

    # -- caches -------------------------------------------------------------------

    def refresh_caches(self) -> None:
        self.lin_x = self.x @ self.beta
        self.lin_z = self.z @ self.alpha
        self.lgam = np.log(self.gamma)
        self.kap = self.theta[self.v]
        self._refresh_mu_caches()
        self._refresh_baseline_caches()
        self.su = 1.0 - self.d_flags.astype(float)
        self.tm = self.su if self.literal else np.ones(self.n)
        if self.logistic:
            self.logit_p = self.u @ self.zeta

    def _refresh_mu_caches(self) -> None:
        """The caches that read the cluster effects."""
        self.cluster_mu = self.eta[self.m] if self.mu_mode != "none" else np.zeros(self.j)
        self.mu_rec = self.cluster_mu[self.cluster_of]
        self.d_scale = (self.log_followup - self.xi1 * self.lgam
                        - (self.alpha0 + self.lin_z + self.xi2 * self.mu_rec))
        self.ekd = _exp_capped(self.kap * self.d_scale)
        self.erx = _exp_capped(self.lin_x + self.mu_rec)

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

    def _terminal_loglik(self) -> np.ndarray:
        """Per-record terminal log density, before the ``tm`` weight."""
        return (self.delta * (np.log(self.kap) - self.log_followup + self.kap * self.d_scale)
                - self.ekd)

    def participant_loglik(self) -> np.ndarray:
        """Per-record observed-data log likelihood under the current state."""
        with np.errstate(invalid="ignore"):
            terminal = self.tm * self._terminal_loglik()
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

    def _step(self, rng, name: str, log_ratio: float, post: bool) -> bool:
        """The Metropolis decision on block ``name``'s scalar ``log_ratio``,
        recorded as its acceptance; the caller commits on True."""
        ok = bool(_accept(log_ratio, rng))
        self._record_accept(name, float(ok), post)
        return ok

    def _terminal_shift(self, shift):
        """Lower every record's terminal offset ``d_scale`` by ``shift``.
        Returns the new offsets, their capped ``exp(kappa * d)`` and each
        record's change of terminal log density."""
        d2 = self.d_scale - shift
        ekd2 = _exp_capped(self.kap * d2)
        d_ll = self.tm * (self.delta * self.kap * (d2 - self.d_scale) - (ekd2 - self.ekd))
        return d2, ekd2, d_ll

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
        if self._step(rng, "beta", logr, post):
            self.beta, self.lin_x, self.erx = prop, lin2, erx2

    def update_alpha(self, rng, post=False) -> None:
        if self.alpha.size == 0:
            return
        prop = self.alpha + self.scales["alpha"] * rng.standard_normal(self.alpha.size)
        lin2 = self.z @ prop
        d2, ekd2, d_ll = self._terminal_shift(lin2 - self.lin_z)
        logr = float(d_ll.sum()) + (self.alpha @ self.alpha - prop @ prop) / (2.0 * self.s2a)
        if self._step(rng, "alpha", logr, post):
            self.alpha, self.lin_z, self.d_scale, self.ekd = prop, lin2, d2, ekd2

    def update_alpha0(self, rng, post=False) -> None:
        prop = self.alpha0 + self.scales["alpha0"] * rng.standard_normal()
        d2, ekd2, d_ll = self._terminal_shift(prop - self.alpha0)
        # flat prior: the full conditional is proportional to the likelihood
        if self._step(rng, "alpha0", float(d_ll.sum()), post):
            self.alpha0, self.d_scale, self.ekd = prop, d2, ekd2

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
        d2, ekd2, d_ll = self._terminal_shift(self.xi1 * dlg)
        tau2_rec = self.tau2[self.cluster_of]
        # log-normal prior: -log(gamma) is its Jacobian term
        logr = (self.su * (self.q_events * dlg - self.erx * self.lam0_followup * (prop - self.gamma))
                + d_ll - dlg - (lg2 * lg2 - self.lgam * self.lgam) / (2.0 * tau2_rec))
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
        coefficients = self._mu_coefficients()
        if self.mu_mode == "dp":
            scores = self._cluster_mu_loglik(coefficients, self.eta)
            with np.errstate(divide="ignore"):
                scores += np.log(self.mu_weights)
            self.m = _categorical_columns(scores.T, rng.random(self.j))
            self.mu_sticks, self.mu_weights, self.phi_mu = self._update_sticks(
                self.m, self.level_mu, self.phi_mu, rng)
        self.eta = self._move_atoms(rng, "eta", self.eta, self.m, self._draw_mu_atoms,
                                    lambda prop: self._mu_atom_log_ratio(coefficients, prop), post)
        self._refresh_mu_caches()

    def _mu_atom_log_ratio(self, coefficients, prop: np.ndarray) -> np.ndarray:
        lin, rec_scale, term_scale = coefficients
        atom_of_rec = self.m[self.cluster_of]
        cur_r, new_r = self.eta[atom_of_rec], prop[atom_of_rec]
        d_ll = (lin * (new_r - cur_r)
                - rec_scale * (_exp_capped(new_r) - _exp_capped(cur_r))
                - term_scale * (_exp_capped(-self.kap * self.xi2 * new_r)
                                - _exp_capped(-self.kap * self.xi2 * cur_r)))
        return (np.bincount(atom_of_rec, weights=d_ll, minlength=prop.size)
                + (self.eta ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_mu))

    # -- susceptibility block ----------------------------------------------------------

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
            logit = logit - self._terminal_loglik()
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
        """Draw every record's shape atom: rejection rounds from the binned
        envelope, then the dense draw for the records they leave."""
        v = np.empty(self.n, dtype=np.int64)
        left = np.flatnonzero(self._kappa_rejection_rounds(rng, v))
        v[left] = self._kappa_dense(rng, left)
        return v

    def _kappa_rejection_rounds(self, rng, v: np.ndarray) -> np.ndarray:
        """Up to ``_KAPPA_ROUNDS`` rounds of envelope rejection for each
        record whose dense scores would not be clipped, each round in blocks
        of ``_KAPPA_BLOCK`` records; writes each accepted atom into ``v``.
        Returns the mask of the records left to the dense draw."""
        d = self.d_scale
        # false for a non-finite offset, so the dense draw raises on NaN
        dense = ~(np.abs(d) <= _KAPPA_ROUTE_LIMIT / max(float(self.theta.max()), 1.0))
        if self.literal:
            dense |= self.tm == 0.0
        todo = np.flatnonzero(~dense)
        if not todo.size:
            return dense
        span = d[todo]
        lo, hi = float(span.min()), float(span.max())
        bins = max(1, todo.size // _KAPPA_BIN_RECORDS)
        width = (hi - lo) / bins
        # a single value of d, or a range too narrow to cut, is one bin
        if not width >= np.finfo(float).tiny:
            bins, width = 1, 1.0
        edges = np.linspace(lo, hi, bins + 1)
        # the rounding of a record's bin index and of the edges stays within
        # `slack` of its bin, so the bin's bound covers the record's d
        slack = 2.0 ** -48 * (abs(lo) + abs(hi))
        bound, cdf = self._kappa_envelope(edges[:-1] - slack, edges[1:] + slack)
        stride = cdf.size // (2 * bins)
        # (step, view) pairs of the binary search: view[pos] is cdf[pos + step - 1]
        probes = [(1 << s, cdf[(1 << s) - 1:]) for s in reversed(range(stride.bit_length() - 1))]
        for _ in range(_KAPPA_ROUNDS):
            left = []
            for start in range(0, todo.size, _KAPPA_BLOCK):
                idx = todo[start:start + _KAPPA_BLOCK]
                di, flag = d[idx], self.delta[idx]
                row = (np.minimum(((di - lo) / width).astype(np.int64), bins - 1)
                       + bins * flag.astype(np.int64))
                u = rng.random((2, idx.size))
                # inverse CDF by a branchless binary search within each row
                base = row * stride
                pos = base.copy()
                for step, probe in probes:
                    np.add(pos, step, out=pos, where=probe[pos] <= u[0])
                k = pos - base
                x = self.theta[k] * di
                log_ratio = flag * x - _exp_capped(x) - bound[pos]
                with np.errstate(divide="ignore"):
                    ok = np.log(u[1]) < log_ratio
                v[idx[ok]] = k[ok]
                left.append(idx[~ok])
            todo = np.concatenate(left)
            if not todo.size:
                break
        dense[todo] = True
        return dense

    def _kappa_envelope(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """The shape step's rejection envelope over the bins [lo, hi]: two
        row-major tables of rows (terminal flag, bin), each row padded to a
        power-of-two stride.

        ``bound`` holds each atom's upper bound, over the bin, of the term
        ``flag x - exp(x)``, ``x = theta d`` with the exp argument capped,
        which with ``log w + flag log theta`` makes the atom's score.
        ``cdf`` holds the cumulative proposal probabilities, proportional
        to ``w theta^flag exp(bound)``, padded with +inf.  Without the flag
        the term falls in d, so its bound is at the bin's lower edge; with
        it, ``x - exp(x)`` is concave up to the cap with its peak at x = 0
        and rises past the cap, so its bound is the larger of its values at
        the point of the bin nearest 0 and at the upper edge.
        """
        lo, hi = lo[:, None], hi[:, None]

        def peak(x):
            return x - _exp_capped(x)

        k_atoms, bins = self.theta.size, lo.shape[0]
        stride = 1 << (k_atoms - 1).bit_length()
        bound = np.zeros((2 * bins, stride))
        bound[:bins, :k_atoms] = -_exp_capped(lo * self.theta)
        bound[bins:, :k_atoms] = np.maximum(peak(np.clip(0.0, lo, hi) * self.theta),
                                            peak(hi * self.theta))
        with np.errstate(divide="ignore"):
            p = bound[:, :k_atoms] + np.log(self.kappa_weights)
        p[bins:] += np.log(self.theta)
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        np.cumsum(p, axis=1, out=p)
        cdf = np.full_like(bound, np.inf)
        np.divide(p, p[:, -1:], out=cdf[:, :k_atoms])
        return bound.ravel(), cdf.ravel()

    def _kappa_dense(self, rng, records: np.ndarray) -> np.ndarray:
        """Draw the shape atoms of ``records`` from their full scores, one
        uniform each in record order, scoring ``_CHUNK_ELEMENTS``-sized
        chunks of the atoms-by-records matrix one at a time."""
        uniforms = rng.random(records.size)
        log_theta = np.log(self.theta)[:, None]
        with np.errstate(divide="ignore"):
            log_w = np.log(self.kappa_weights)[:, None]
        rows = max(1, _CHUNK_ELEMENTS // self.level_kappa)
        v = np.empty(records.size, dtype=np.int64)
        for start in range(0, records.size, rows):
            c = slice(start, start + rows)
            r = records[c]
            powers = np.multiply.outer(self.theta, self.d_scale[r])
            expo = np.minimum(powers, _EXP_CAP)
            np.exp(expo, out=expo)
            ll = log_theta - self.log_followup[r]
            ll += powers
            ll *= self.delta[r]
            ll -= expo
            if self.literal:
                ll *= self.tm[r]
            np.clip(ll, -_SCORE_CLIP, _SCORE_CLIP, out=ll)
            ll += log_w
            v[c] = _categorical_columns(ll, uniforms[c])
        return v

    def update_kappa_block(self, rng, post=False) -> None:
        self.v = self._kappa_assignments(rng)
        self.kappa_sticks, self.kappa_weights, self.phi_kappa = self._update_sticks(
            self.v, self.level_kappa, self.phi_kappa, rng)
        self.theta = self._move_atoms(rng, "theta", self.theta, self.v, self._draw_kappa_atoms,
                                      self._theta_atom_log_ratio, post)
        self.kap = self.theta[self.v]
        self.ekd = _exp_capped(self.kap * self.d_scale)

    def _theta_atom_log_ratio(self, prop: np.ndarray) -> np.ndarray:
        h = self.hyper
        valid = prop > 0.0
        safe = np.where(valid, prop, 1.0)
        kc, kp = self.theta[self.v], safe[self.v]
        d_ll = self.tm * (self.delta * (np.log(kp) - np.log(kc) + (kp - kc) * self.d_scale)
                          - (_exp_capped(kp * self.d_scale) - _exp_capped(kc * self.d_scale)))
        # Gamma(a_kappa, b_kappa) base density keeps the conditional proper
        ratio = (np.bincount(self.v, weights=d_ll, minlength=prop.size)
                 + ((h.a_kappa - 1.0) * (np.log(safe) - np.log(self.theta))
                    - h.b_kappa * (prop - self.theta)))
        # a nonpositive shape is rejected outright
        return np.where(valid, ratio, -np.inf)

    # -- frailty-loading blocks ------------------------------------------------------------------

    def update_xi1(self, rng, post=False) -> None:
        prop = self.xi1 + self.scales["xi1"] * rng.standard_normal()
        d2, ekd2, d_ll = self._terminal_shift((prop - self.xi1) * self.lgam)
        logr = float(d_ll.sum()) + (self.xi1 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi1)
        if self._step(rng, "xi1", logr, post):
            self.xi1, self.d_scale, self.ekd = prop, d2, ekd2

    def update_xi2(self, rng, post=False) -> None:
        prop = self.xi2 + self.scales["xi2"] * rng.standard_normal()
        d2, ekd2, d_ll = self._terminal_shift((prop - self.xi2) * self.mu_rec)
        logr = float(d_ll.sum()) + (self.xi2 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi2)
        if self._step(rng, "xi2", logr, post):
            self.xi2, self.d_scale, self.ekd = prop, d2, ekd2

    def update_zeta(self, rng, post=False) -> None:
        if not self.logistic or self.zeta.size == 0:
            return
        prop = self.zeta + self.scales["zeta"] * rng.standard_normal(self.zeta.size)
        t2 = self.u @ prop
        d = self.d_flags.astype(float)
        logr = (float(d @ (t2 - self.logit_p))
                - float(np.logaddexp(0.0, t2).sum() - np.logaddexp(0.0, self.logit_p).sum())
                + (self.zeta @ self.zeta - prop @ prop) / (2.0 * self.hyper.sigma2_zeta))
        if self._step(rng, "zeta", logr, post):
            self.zeta, self.logit_p = prop, t2

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

        This is the one place a state is checked: every rule of
        :meth:`_check_state` is checked before any field is written, so a
        rejected state leaves the engine as it was."""
        self._check_state(state)
        self.beta = np.array(state.beta, dtype=float)
        self.alpha = np.array(state.alpha, dtype=float)
        self.alpha0 = float(state.alpha0)
        self.xi1 = float(state.xi1)
        self.xi2 = float(state.xi2)
        self.zeta = None if state.zeta is None else np.array(state.zeta, dtype=float)
        self.gamma = np.array(state.gamma, dtype=float)
        self.tau2 = np.array(state.tau2, dtype=float)
        self.d_flags = np.array(state.unsusceptible, dtype=np.int8)
        if self.mu_mode == "dp":
            self.eta, self.m, self.mu_sticks, self.mu_weights, self.phi_mu = \
                _mixture_arrays(state.cluster_effects)
            self.level_mu = self.eta.size
        else:
            self.eta = np.array(state.cluster_effects if self.mu_mode == "param" else (),
                                dtype=float)
            self.m = np.arange(self.eta.size, dtype=np.int64)
        self.theta, self.v, self.kappa_sticks, self.kappa_weights, self.phi_kappa = \
            _mixture_arrays(state.kappa_dp)
        self.level_kappa = self.theta.size
        if self.baseline_variant == "piecewise":
            self.grid = np.array(state.baseline.grid, dtype=float)
            self.lam = np.array(state.baseline.levels, dtype=float)
            self._set_piecewise_design()
        else:
            self.psi = float(state.baseline.shape)
        self.s2b = float(state.sigma2_beta)
        self.s2a = float(state.sigma2_alpha)
        self.refresh_caches()

    def _check_state(self, state: ParamState) -> None:
        """Raise ValueError, naming the field (and its first bad index), at
        the first rule ``state`` breaks for this engine's dataset and
        variant."""
        effects = state.cluster_effects
        form = {"dp": (TruncatedDP, "a TruncatedDP mixture"),
                "param": (np.ndarray, f"an array of {self.j} effects"),
                "none": (type(None), "None")}[self.mu_mode]
        if not isinstance(effects, form[0]):
            raise ValueError(f"cluster_effects must be {form[1]} for the {self.variant} "
                             f"variant, got {type(effects).__name__}")
        if isinstance(state.baseline, PiecewiseConstantHazard) != (self.baseline_variant
                                                                   == "piecewise"):
            raise ValueError("state baseline variant does not match the engine")
        if self.logistic and state.zeta is None:
            raise ValueError("state has no zeta but the logistic model is active")

        mixtures = [("shape-mixture", state.kappa_dp, self.n)]
        if self.mu_mode == "dp":
            mixtures.append(("cluster-effect", effects, self.j))
        sizes = [("beta", state.beta, self.x.shape[1]), ("alpha", state.alpha, self.z.shape[1]),
                 ("gamma", state.gamma, self.n), ("unsusceptible", state.unsusceptible, self.n),
                 ("tau2", state.tau2, self.j)]
        if self.logistic:
            sizes.append(("zeta", state.zeta, self.u.shape[1]))
        if self.mu_mode == "param":
            sizes.append(("cluster-effect atoms", effects, self.j))
        sizes += [(f"{name} assignments", dp.assignments, units) for name, dp, units in mixtures]
        for name, values, want in sizes:
            if values.size != want:
                raise ValueError(f"state dimensions do not match the dataset: {name} has "
                                 f"{values.size} entries, expected {want}")
        for name, dp, _ in mixtures:
            if dp.raw_sticks.size != dp.atoms.size - 1:
                raise ValueError(f"{name} sticks has {dp.raw_sticks.size} entries, expected "
                                 f"one fewer than its {dp.atoms.size} atoms")

        flags, kappa = state.unsusceptible, state.kappa_dp
        # (field, rule, values, mask of the entries that break it); values
        # None names the participant instead of the value
        rules = [("gamma", "must be positive", state.gamma, ~(state.gamma > 0)),
                 ("tau2", "must be positive", state.tau2, ~(state.tau2 > 0)),
                 ("unsusceptible", "must be 0 or 1", flags, ~np.isin(flags, (0, 1))),
                 ("unsusceptible", f"must be 0 in the {self.variant} variant, which has no "
                  "zero-inflation", flags, (flags != 0) & (not self.has_d)),
                 ("unsusceptible", "participants with recurrent events cannot be unsusceptible",
                  None, (flags == 1) & (self.q_events > 0)),
                 ("shape-mixture atoms", "must be positive", kappa.atoms, ~(kappa.atoms > 0))]
        for name, dp, _ in mixtures:
            sticks, assignments, k = dp.raw_sticks, dp.assignments, dp.atoms.size
            concentration = np.asarray(dp.concentration, dtype=float)
            rules += [(f"{name} sticks", "must lie in (0, 1)", sticks,
                       ~((sticks > 0) & (sticks < 1))),
                      (f"{name} assignments", "must be integers", assignments,
                       assignments != np.round(assignments)),
                      (f"{name} assignments", f"must lie in [0, {k})", assignments,
                       (assignments < 0) | (assignments >= k)),
                      (f"{name} concentration", "must be positive", concentration,
                       ~(concentration > 0))]
        for name, rule, values, bad in rules:
            if np.any(bad):
                pos = int(np.argmax(bad))
                field = f"{name}[{pos}]" if np.ndim(bad) else name
                detail = (f", got {values.flat[pos]}" if values is not None else
                          f": participant {self.dataset.participant_index[pos]} in cluster "
                          f"{self.cluster_of[pos]}")
                raise ValueError(f"{field}: {rule}{detail}")

    # -- trace assembly ----------------------------------------------------------------------------

    def _trace_parts(self) -> list:
        """(name, value) pairs in trace order: a scalar fills the column
        ``name``, an array the columns ``name`` + "1", "2", ..."""
        parts = [("beta_", self.beta), ("alpha_", self.alpha), ("alpha0", self.alpha0),
                 ("xi1", self.xi1), ("xi2", self.xi2)]
        if self.logistic:
            parts.append(("zeta_", self.zeta))
        parts += [("sigma2_beta", self.s2b), ("sigma2_alpha", self.s2a),
                  ("lambda_0", self.lam) if self.baseline_variant == "piecewise"
                  else ("psi", self.psi), ("tau2_", self.tau2)]
        if self.mu_mode != "none":
            parts.append(("mu_", self.eta[self.m]))
        if self.mu_mode == "dp":
            parts += [("phi_mu", self.phi_mu), ("eta_", self.eta)]
        return parts + [("phi_kappa", self.phi_kappa), ("theta_", self.theta),
                        ("n_unsusceptible", float(self.d_flags.sum()))]

    def trace_columns(self) -> list:
        return [name if np.ndim(value) == 0 else f"{name}{i + 1}"
                for name, value in self._trace_parts() for i in range(np.size(value))]

    def trace_row(self) -> np.ndarray:
        return np.concatenate([np.asarray(value, dtype=float).ravel()
                               for _, value in self._trace_parts()])


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
    neg_loglik_lse = np.full(eng.n, -np.inf)
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
            cpo_accumulate(neg_loglik_lse, ll, row)
            total_ll[row] = ll.sum()
            row += 1
    assert row == kept

    return ChainTrace(
        columns=columns, draws=draws, neg_loglik_lse=neg_loglik_lse, total_loglik=total_ll,
        acceptance=eng.acceptance_rates(), final_scales=dict(eng.scales),
        chain_index=chain_index,
        grid=None if eng.grid is None else eng.grid.copy())
