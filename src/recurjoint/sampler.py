"""MH-within-Gibbs kernel for the joint zero-inflated recurrent/terminal
event model, plus the chain driver and proposal adaptation.

:class:`SamplerEngine` is the only library code that evaluates the
observed-data likelihood (:meth:`SamplerEngine.participant_loglik`) or takes
a block step; the chain driver, traces and CPO/LPML all read it.

One sweep runs the blocks of one table, ``_SWEEP``, in its order.  Each
block adds its acceptance rates to [sum, count] tallies that the table
names with their adaptation targets; the engine's proposal scales, targets
and tallies are built from it.

A single chain is strictly sequential.  Blocks whose coordinates are
conditionally independent given the rest of the state (frailties, mixture
atoms) are updated as simultaneous ensembles of random-walk Metropolis
moves, which leaves the invariant distribution unchanged while keeping the
per-sweep cost a handful of vectorized passes.  The piecewise baseline
levels are drawn exactly from their Gamma full conditionals.  The engine
keeps each follow-up's grid interval (int32) and its offset into it, and
shares the knots H of :func:`recurjoint.model.piecewise_knots` with the
simulator: ``Lambda0(T_i) = H[g_i] + lambda_{g_i} o_i``, and two bincounts
over the records give every level's exposure, so the baseline block costs
O(N + G).  The scalar-decision blocks (beta, alpha, alpha0, xi1, xi2, zeta
and the power-law shape psi) share one accept-and-record step,
:meth:`SamplerEngine._step`, and every block that moves the terminal offset
``d_scale`` (alpha, alpha0, gamma, xi1, xi2) takes its change of terminal
log density from one move, :meth:`SamplerEngine._terminal_shift`.
:meth:`SamplerEngine.take_acceptance` reads and restarts the tallies.  A
chain (:func:`run_chain`) has two phases: burn-in adapts the random-walk
scales to the tallies after each full window of sweeps, and sampling holds
them fixed, so that the kernel is stationary while draws are kept.

The engine holds a ParamState's plain fields under their own names, from one
table, ``_STATE_FIELDS``, and per-record caches of the state (linear
predictors, log frailties, shapes and their products with the terminal
flags, terminal offsets, capped exponentials, baseline integrals,
susceptibility weights, the susceptibility logit: the logistic predictor,
with its summed softplus, or the fixed probability's logit).
Only the one state writer, behind :meth:`SamplerEngine.load_state` and
:meth:`SamplerEngine.init_state`, rebuilds them, through
:meth:`SamplerEngine.refresh_caches`; each block keeps current the caches
its moves change, so a sweep rebuilds none.
The terminal offset is moved by increments, so it carries rounding that
grows slowly with the sweeps wherever no cluster-effect block rebuilds it.

Memory stays linear in the number of records N: no array spans clusters
by records (J x N) or records by piecewise levels (N x G), and an
atoms-by-records (K x N) matrix exists only as a chunk of at most
``_CHUNK_ELEMENTS`` entries.  The engine owns its per-record arrays: the
state writer copies a state's (frailties, susceptibility flags, shape
assignments) and allocates each per-record cache once, with two spare
buffers for the terminal shift's proposal.  From then on the blocks write
into them in place (``out=`` arguments, a masked copy for per-record
accepts, a copy for a whole-vector accept), so that no block rebinds a
per-record array and old and new copies of one are never alive together;
each record's summed log baseline hazard at its events, which only the
likelihood reads, is computed there.  The two mixture
assignment steps are blocked-Gibbs categorical draws (Ishwaran & James
2001) made without either:

* cluster effects: every record of cluster c shares the candidate atom
  eta_k, and a record's shape enters only through its atom theta[v], so
  the cluster's score factors into per-cluster sums,
  ``eta_k L_c - exp(eta_k) R_c - sum_h T[c, h] exp(-theta_h xi2 eta_k)
  + log w_k``, with L, R the bincounts of the per-record linear and
  recurrent coefficients and T the bincount of the terminal coefficient
  over (cluster, shape atom): O(N + J K_kappa K_mu) work.  The atoms'
  random-walk proposal is drawn before the assignments, and one pass
  scores every cluster at each current and each proposed atom: the
  assignment draw reads the current atoms' scores, and an atom's move
  ratio is the change from the current to the proposed score summed over
  the clusters it then holds.  With one effect per cluster (BMZ) the move
  ratio comes from the same per-cluster sums at each cluster's own effect.
  Neither revisits the records;
* shapes: record i takes atom k with probability proportional to
  ``exp(s_k(d_i))``, ``s_k(d) = log w_k + delta (log theta_k + theta_k d)
  - exp(theta_k d)`` (exp argument capped; the record's own -delta log t
  cancels), d_i its terminal offset ``d_scale``.  The draw is exact
  rejection from an envelope (Devroye 1986, II.3) at about one score per
  record, not K.  Once per sweep the records' offsets are cut into B
  bins (from ``d_scale`` itself when every record is routed, as outside the
  literal mode).  Below ``_KAPPA_SORT_LIMIT`` records a bin is a run
  of the sorted offsets, and its edges are the least and greatest offset
  it holds: up to ``_KAPPA_SORTED_BINS`` runs, no more than one per
  ``_KAPPA_SORTED_BIN_RECORDS`` records, starting at Chebyshev-spaced
  ranks, so that they are shortest, down to single records, in the sparse
  tails of d.  From ``_KAPPA_SORT_LIMIT`` records on the range of asinh(d)
  is cut into B = N / ``_KAPPA_BIN_RECORDS`` equal-width bins, which need
  no sort, and their edges are mapped back with sinh, widened so that each
  bin holds its offsets.  Near 0 a bin is about as wide in d as in
  asinh(d), and far from 0 it widens in proportion to |d|, so that one
  outlying offset widens the bins with the log of its distance, not with
  the distance.  For each terminal flag, bin and atom an upper bound U of
  s_k over the bin is tabulated (2B rows of K entries).  A record proposes
  k with probability proportional to ``exp(U)`` of its row, by searching
  its row of the table's CDF, held as integers in units of 2^-53, with a
  53-bit uniform: sorted records search the whole table at once, the
  others take a branchless binary search.  It accepts k with probability
  ``exp(s_k(d_i) - U)``; an accepted k is distributed exactly as the
  target p, whatever the bound's slack.  One pass makes one proposal per
  record, in blocks of ``_KAPPA_BLOCK``; the records it rejects are drawn
  from p again, so every draw is from p.  They, and the records whose
  scores would be clipped (non-finite d, theta_max |d| near overflow) or
  are log w (zero terminal weight in the literal mode: one shared column),
  take the dense draw: full scores in cache-sized chunks, atoms by
  records, one uniform each in record order.  Which record reads which
  uniform depends on the acceptances and ``_KAPPA_BLOCK`` only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import cpo_accumulate, log_add_exp, sorted_unique, type7_quantiles
from .dp import posterior_stick_update, stick_to_weights, update_concentration
from .model import (
    BASELINE_VARIANTS,
    LIKELIHOOD_MODES,
    VARIANTS,
    Dataset,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
    PowerLawHazard,
    TruncatedDP,
    check_grid,
    piecewise_intervals,
    piecewise_knots,
)

__all__ = [
    "ProposalScales",
    "metropolis_decision",
    "McmcConfig",
    "ChainTrace",
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

# the shape step's rejection sampler.  Below _KAPPA_SORT_LIMIT records the
# envelope has up to _KAPPA_SORTED_BINS bins, and no more than one per
# _KAPPA_SORTED_BIN_RECORDS records; from there on, bins of equal width in
# asinh(d), one per _KAPPA_BIN_RECORDS records, so that for up to 64 atoms
# each of the envelope's two tables (2 rows per bin) is no larger than a
# per-record array, and at most _KAPPA_MAX_BINS of them, so that a row
# number shifted past a 53-bit uniform fits an int64.  Then the records per
# block of the envelope pass, which bounds its temporaries
_KAPPA_SORT_LIMIT = 4096
_KAPPA_SORTED_BINS = 40
_KAPPA_SORTED_BIN_RECORDS = 8
_KAPPA_BIN_RECORDS = 128
_KAPPA_MAX_BINS = 511
_KAPPA_BLOCK = 4096
_TWO_53 = 2.0 ** 53
# a record with |theta d| possibly past this takes the dense draw, since its
# scores may reach the +-_SCORE_CLIP clip
_KAPPA_ROUTE_LIMIT = 1e300


# the plain fields of a ParamState, held by the engine under their names: each
# with the axis it spans (x, z or u columns, records, clusters; None: a
# scalar) and whether it must be positive
_STATE_FIELDS = (("beta", "x", False), ("alpha", "z", False), ("alpha0", None, False),
                 ("xi1", None, False), ("xi2", None, False), ("zeta", "u", False),
                 ("gamma", "records", True), ("tau2", "clusters", True),
                 ("sigma2_beta", None, True), ("sigma2_alpha", None, True))
# the per-record float caches: the state writer allocates them, and from then
# on they are written in place (so is logit_p, an array in the logistic model)
_RECORD_CACHES = ("lin_x", "lin_z", "lgam", "kap", "delta_kap", "mu_rec", "d_scale", "ekd",
                  "erx", "lam0_followup", "su")
# the sweep: each block's method, in order, with the tallies it records and
# each tally's adaptation target.  A tally with a target has the proposal
# scale rho_<tally> of ProposalScales; None: the levels' exact draw (always 1)
_SWEEP = (("update_beta", (("beta", TARGET_VECTOR),)),
          ("update_alpha", (("alpha", TARGET_VECTOR),)),
          ("update_alpha0", (("alpha0", TARGET_SCALAR),)),
          ("update_tau2", ()),
          ("update_gamma", (("gamma", TARGET_SCALAR),)),
          ("update_mu_block", (("eta", TARGET_SCALAR),)),
          ("update_susceptibility", ()),
          ("update_baseline_block", (("psi", TARGET_SCALAR), ("lambda", None))),
          ("update_kappa_block", (("theta", TARGET_SCALAR),)),
          ("update_xi1", (("xi1", TARGET_SCALAR),)),
          ("update_xi2", (("xi2", TARGET_SCALAR),)),
          ("update_zeta", (("zeta", TARGET_VECTOR),)),
          ("update_coef_variances", ()))


def _exp_capped(x, out=None):
    """``exp(min(x, _EXP_CAP))``, written into ``out`` (which may be ``x``)
    when given."""
    x = np.minimum(x, _EXP_CAP, out=out)
    return np.exp(x, out=x)


def _outer(a, b):
    """``np.multiply.outer(a, b)`` of two vectors, as a BLAS product with an
    inner dimension of 1: each entry is one product, so the bits are the
    same, without the ufunc's per-row overhead."""
    return np.dot(a[:, None], b[None, :])


def _clip_scores(x):
    """Clip ``x`` to +-_SCORE_CLIP in place; NaN stays NaN."""
    return np.minimum(np.maximum(x, -_SCORE_CLIP, out=x), _SCORE_CLIP, out=x)


@functools.lru_cache(maxsize=16)
def _rank_bins(m: int, bins: int) -> tuple:
    """Up to ``bins`` runs of ``m`` ranks that start at the Chebyshev-spaced
    ranks ``m (1 - cos(pi j / bins)) / 2``: short, down to single ranks,
    at both ends and longest in the middle.  Returns (each run's first
    rank, each run's last rank, each rank's run shifted left by 53 bits),
    read-only."""
    first = sorted_unique((0.5 * m * (1.0 - np.cos(np.arange(bins) * (math.pi / bins))))
                          .astype(np.int64))
    ends = np.append(first[1:], m)
    parts = first, ends - 1, np.arange(first.size).repeat(ends - first) << 53
    for part in parts:
        part.flags.writeable = False
    return parts


# ---------------------------------------------------------------------------
# Configuration containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProposalScales:
    """Random-walk standard deviations, ``rho_<tally>`` for each tally of
    ``_SWEEP`` that has an adaptation target."""

    rho_beta: float = 0.1
    rho_alpha: float = 0.1
    rho_alpha0: float = 0.1
    rho_gamma: float = 0.3
    rho_eta: float = 0.3
    rho_theta: float = 0.5
    rho_xi1: float = 0.2
    rho_xi2: float = 0.2
    rho_zeta: float = 0.1
    rho_psi: float = 0.2

    def __post_init__(self):
        for name, value in self.__dict__.items():
            number = isinstance(value, (int, float, np.integer, np.floating))
            if isinstance(value, bool) or not (number and value > 0):
                raise ValueError(f"{name} must be a strictly positive number, got {value!r}")


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
        if self.grid is not None:
            object.__setattr__(self, "grid", tuple(check_grid(self.grid).tolist()))

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
    if isinstance(uniform, float):
        # a scalar step's uniform: plain floats, no array machinery
        return (math.log(uniform) if uniform > 0.0 else -math.inf) < log_ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(uniform) < log_ratio


def adapt_scale(rate: float, scale: float, target: float = TARGET_SCALAR) -> float:
    """Burn-in proposal-scale adaptation: ``scale * exp(0.5 * (rate - target))``."""
    return scale * math.exp(ADAPT_RATE_COEF * (rate - target))


def _categorical_columns(scores: np.ndarray, uniforms: np.ndarray,
                         unit: Callable = "unit {}".format) -> np.ndarray:
    """Column-wise softmax sampling with max-shifted exponentiation: scores
    are categories by units, and unit i draws from column i with the
    uniform ``uniforms[i]``.  A column holding NaN, or only -inf, raises a
    ValueError naming the first such unit as ``unit(i)``.

    Mutates ``scores`` in place; callers pass a scratch matrix.
    """
    mx = np.maximum.reduce(scores, axis=0)
    if not np.logical_and.reduce(np.isfinite(mx)):
        pos = int(np.flatnonzero(~np.isfinite(mx))[0])
        kind = "contains NaN" if np.isnan(mx[pos]) else "is entirely -inf"
        raise ValueError(f"the assignment score row of {unit(pos)} {kind}")
    scores -= mx
    np.exp(scores, out=scores)
    cum = np.add.accumulate(scores, axis=0, out=scores)
    return np.add.reduce(cum < uniforms * cum[-1], axis=0)


def _mixture_arrays(dp: TruncatedDP) -> tuple:
    """The arrays of a mixture state, with its weights: (atoms, a writable
    copy of the assignments, weights, concentration)."""
    return (dp.atoms, np.array(dp.assignments, dtype=np.int64),
            stick_to_weights(dp.raw_sticks), float(dp.concentration))


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

class SamplerEngine:
    """Vectorized state of one chain.

    Holds the data design arrays, current parameter values and the derived
    per-record caches that every block update shares.  The public block
    methods are the entries of ``_SWEEP``; :meth:`sweep` runs them all once.
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
        # only a record without recurrent events can be unsusceptible, so
        # su * q_events is q_events
        self.eventless = counts == 0
        self.cluster_of = dataset.cluster_index
        self.cluster_sizes = dataset.cluster_sizes.astype(float)
        shapes = hyper.a0 + 0.5 * self.cluster_sizes
        # clusters of one size share one shape, which standard_gamma takes
        # as a scalar: the same variates, without the checks it makes of an
        # array of shapes on every call
        self.tau2_shape = (float(shapes[0]) if shapes.size and (shapes == shapes[0]).all()
                           else shapes)
        self.ev_times = dataset.event_times
        self.ev_record = np.repeat(np.arange(n, dtype=np.int32), counts)

        if baseline_variant == "piecewise":
            self.grid = self._build_grid(grid)
        else:
            self.grid = None
            self.slog_ev = np.bincount(self.ev_record, weights=np.log(self.ev_times), minlength=n) \
                if self.ev_times.size else np.zeros(n)
            self.total_events = float(self.q_events.sum())
            self.total_log_ev = float(np.log(self.ev_times).sum()) if self.ev_times.size else 0.0

        tallies = [tally for _, block_tallies in _SWEEP for tally in block_tallies]
        self.targets = {name: target for name, target in tallies if target is not None}
        sc = scales or ProposalScales()
        self.scales = {name: getattr(sc, f"rho_{name}") for name in self.targets}
        self._accept = {name: [0.0, 0] for name, _ in tallies}

    # -- design helpers ------------------------------------------------------

    def _build_grid(self, explicit) -> np.ndarray:
        g = self.hyper.grid_count
        if explicit is not None:
            return check_grid(explicit)
        if self.ev_times.size >= 2 and self.ev_times.min() < self.ev_times.max():
            cuts = type7_quantiles(self.ev_times, np.arange(1, g) / g)
            return sorted_unique(np.concatenate(([0.0], cuts, [self.ev_times.max()])))
        horizon = float(self.followup.max()) if self.n else 1.0
        return np.linspace(0.0, horizon, g + 1)

    # -- initialization --------------------------------------------------------

    def init_state(self, rng: np.random.Generator) -> None:
        """Draw a starting point and write it as a state, as
        :meth:`load_state` does: coefficients as small normal jitter,
        mixture atoms from their base measures, indicators from the prior."""
        # the draws are freed before the engine copies them, and the state
        # once it has, before the likelihood is checked
        self._set_state(self._prior_state(rng))
        ll = self.participant_loglik()
        if self.n and not np.all(np.isfinite(ll)):
            pos = int(np.flatnonzero(~np.isfinite(ll))[0])
            raise RuntimeError("non-finite log likelihood at initialization for "
                               + self._record_name(pos))

    def _prior_state(self, rng) -> ParamState:
        """The starting point :meth:`init_state` draws."""
        h = self.hyper
        n, j = self.n, self.j
        beta = 0.1 * rng.standard_normal(self.x.shape[1])
        alpha = 0.1 * rng.standard_normal(self.z.shape[1])
        alpha0, xi1, xi2 = 0.1 * rng.standard_normal(3)
        zeta = 0.1 * rng.standard_normal(self.u.shape[1]) if self.logistic else None
        gamma = np.exp(0.1 * rng.standard_normal(n))
        if self.mu_mode == "dp":
            effects = self._prior_mixture(rng, h.mu_truncation(j), j, self._draw_mu_atoms)
        else:
            # BMZ: one effect per cluster; BZ-DP: none
            effects = self._draw_mu_atoms(rng, j) if self.mu_mode == "param" else None
        kappa = self._prior_mixture(rng, h.kappa_truncation(n), n, self._draw_kappa_atoms)

        if self.baseline_variant == "piecewise":
            exposure = float(self.followup.sum())
            base = max(float(self.q_events.sum()) / exposure, 0.1) if exposure > 0 else 1.0
            baseline = PiecewiseConstantHazard(self.grid, np.full(self.grid.size - 1, base))
        else:
            baseline = PowerLawHazard(1.0)

        if self.has_d:
            with np.errstate(over="ignore"):
                p = 1.0 / (1.0 + np.exp(-(self.u @ zeta))) if self.logistic else h.fixed_p
            flags = ((rng.random(n) < p) & self.eventless).astype(np.int8)
        else:
            flags = np.zeros(n, dtype=np.int8)

        return ParamState(
            beta=beta, alpha=alpha, alpha0=alpha0, xi1=xi1, xi2=xi2, zeta=zeta, gamma=gamma,
            tau2=np.full(j, h.b0 / (h.a0 + 1.0)), unsusceptible=flags, cluster_effects=effects,
            kappa_dp=kappa, baseline=baseline, sigma2_beta=h.sigma2_beta,
            sigma2_alpha=h.sigma2_alpha)

    def _draw_mu_atoms(self, rng, size: int) -> np.ndarray:
        return math.sqrt(self.hyper.sigma2_mu) * rng.standard_normal(size)

    def _draw_kappa_atoms(self, rng, size: int) -> np.ndarray:
        return np.maximum(rng.gamma(self.hyper.a_kappa, 1.0 / self.hyper.b_kappa, size=size),
                          1e-12)

    def _prior_mixture(self, rng, size: int, units: int, draw_atoms: Callable) -> TruncatedDP:
        """A prior draw of a truncated stick-breaking mixture of ``size``
        atoms over ``units`` units, in this order: concentration, sticks,
        atoms (``draw_atoms(rng, size)``), assignments."""
        h = self.hyper
        phi = max(float(rng.gamma(h.a_phi, 1.0 / h.b_phi)), 1e-8)
        sticks = posterior_stick_update(np.zeros(size), phi, rng)
        atoms = draw_atoms(rng, size)
        assignments = stick_to_weights(sticks).cumsum().searchsorted(rng.random(units),
                                                                     side="right")
        return TruncatedDP(atoms, sticks, np.minimum(assignments, size - 1), phi)

    def _update_sticks(self, assignments: np.ndarray, size: int, concentration: float,
                       rng) -> tuple:
        """Conjugate stick fractions given the assignment counts, then the
        concentration's Gibbs draw from them (kept fixed unless
        ``update_concentrations``).  Returns (weights, concentration)."""
        sticks = posterior_stick_update(np.bincount(assignments, minlength=size), concentration,
                                        rng)
        if self.hyper.update_concentrations:
            concentration = update_concentration(sticks, self.hyper.a_phi, self.hyper.b_phi, rng)
        return stick_to_weights(sticks), concentration

    def _propose_atoms(self, rng, name: str, atoms: np.ndarray) -> np.ndarray:
        """A random-walk proposal for every atom of a mixture."""
        return atoms + self.scales[name] * rng.standard_normal(atoms.size)

    def _move_atoms(self, rng, name: str, atoms: np.ndarray, assignments: np.ndarray,
                    prop: np.ndarray, log_ratio: np.ndarray, draw_atoms: Callable) -> np.ndarray:
        """One simultaneous Metropolis move of every occupied atom of a
        mixture to ``prop``, accepted with the per-atom ``log_ratio``;
        every empty atom is redrawn from its base measure.  Returns the atoms."""
        size = atoms.size
        u = rng.random(size)
        fresh = draw_atoms(rng, size)
        accept = metropolis_decision(log_ratio, u)
        occupied = np.bincount(assignments, minlength=size) > 0
        n_occupied = np.count_nonzero(occupied)
        if n_occupied:
            self._record_accept(name, np.count_nonzero(accept & occupied) / n_occupied)
        return np.where(occupied, np.where(accept, prop, atoms), fresh)

    # -- caches -------------------------------------------------------------------

    def refresh_caches(self) -> None:
        """Rebuild every per-record cache from the primary state, in place.

        Only the state writer calls it; after that, each block keeps
        current the caches its moves change.  Code that writes a primary
        field directly calls it afterwards."""
        np.matmul(self.x, self.beta, out=self.lin_x)
        np.matmul(self.z, self.alpha, out=self.lin_z)
        np.log(self.gamma, out=self.lgam)
        self._refresh_shapes()
        self._refresh_mu_caches()
        self._refresh_baseline_caches()
        np.subtract(1.0, self.d_flags, out=self.su)
        if self.logistic:
            np.matmul(self.u, self.zeta, out=self.logit_p)
            self.softplus_sum = float(log_add_exp(0.0, self.logit_p).sum())
        elif self.has_d:
            p = self.hyper.fixed_p
            self.logit_p = math.log(p) - math.log1p(-p)

    def _refresh_shapes(self) -> None:
        """Each record's shape ``kap`` and its product with the terminal flag.
        A gather into a cache takes mode "clip" (here and in the other
        refreshes): its indices are in range by construction, and in the
        default mode numpy gathers into a buffer of its own, then copies
        that into ``out``."""
        self.theta.take(self.v, out=self.kap, mode="clip")
        np.multiply(self.delta, self.kap, out=self.delta_kap)

    def _refresh_mu_caches(self) -> None:
        """The caches that read the cluster effects.  The terminal shift's
        spare buffers hold the parts of ``d_scale``."""
        self.cluster_mu = self.eta[self.m] if self.mu_mode != "none" else np.zeros(self.j)
        self.cluster_mu.take(self.cluster_of, out=self.mu_rec, mode="clip")
        # log_followup - xi1 lgam - (alpha0 + lin_z + xi2 mu_rec)
        d, rest = self.d_scale, self._d_spare
        np.multiply(self.lgam, self.xi1, out=d)
        np.subtract(self.log_followup, d, out=d)
        np.add(self.lin_z, self.alpha0, out=rest)
        rest += np.multiply(self.mu_rec, self.xi2, out=self._ekd_spare)
        d -= rest
        _exp_capped(np.multiply(self.kap, d, out=self.ekd), out=self.ekd)
        _exp_capped(np.add(self.lin_x, self.mu_rec, out=self.erx), out=self.erx)

    def _refresh_baseline_caches(self) -> None:
        if self.baseline_variant == "piecewise":
            # take() gathers by an int32 index without first casting it
            g = self.followup_interval
            piecewise_knots(self.level_widths, self.lam).take(g, out=self.lam0_followup,
                                                             mode="clip")
            ramp = self.lam.take(g)
            ramp *= self.followup_offset
            self.lam0_followup += ramp
        else:
            with np.errstate(over="ignore"):
                np.power(self.followup, self.psi, out=self.lam0_followup)

    def _event_log_hazards(self) -> np.ndarray:
        """Each record's summed log baseline hazard at its recurrent events."""
        if self.baseline_variant == "powerlaw":
            return self.q_events * math.log(self.psi) + (self.psi - 1.0) * self.slog_ev
        if not self.ev_times.size:
            return np.zeros(self.n)
        return np.bincount(self.ev_record, weights=np.log(self.lam).take(self.ev_interval),
                           minlength=self.n)

    def _terminal_loglik(self) -> np.ndarray:
        """Per-record terminal log density, before the literal mode weights it
        by ``su``."""
        return (self.delta * (np.log(self.kap) - self.log_followup + self.kap * self.d_scale)
                - self.ekd)

    def _record_name(self, i: int) -> str:
        return (f"participant {self.dataset.participant_index[i]} in cluster "
                f"{self.cluster_of[i]}")

    def participant_loglik(self) -> np.ndarray:
        """Per-record observed-data log likelihood under the current state."""
        with np.errstate(invalid="ignore"):
            terminal = self._terminal_loglik()
            if self.literal:
                terminal *= self.su
            recurrent = self.su * (self.q_events * (self.lgam + self.lin_x + self.mu_rec)
                                   + self._event_log_hazards()
                                   - self.gamma * self.erx * self.lam0_followup)
        return terminal + recurrent

    # -- acceptance bookkeeping ------------------------------------------------------

    def _record_accept(self, name: str, rate: float) -> None:
        tally = self._accept[name]
        tally[0] += rate
        tally[1] += 1

    def _step(self, rng, name: str, log_ratio: float) -> bool:
        """The Metropolis decision on block ``name``'s scalar ``log_ratio``,
        recorded as its acceptance; the caller commits on True."""
        ok = bool(metropolis_decision(log_ratio, rng.random()))
        self._record_accept(name, float(ok))
        return ok

    def _terminal_shift(self, shift) -> np.ndarray:
        """Lower every record's terminal offset ``d_scale`` by ``shift``, into
        the spare buffers: the new offsets and their capped ``exp(kappa * d)``,
        which :meth:`_commit_shift` commits.  Returns each record's change of
        terminal log density."""
        d2 = np.subtract(self.d_scale, shift, out=self._d_spare)
        ekd2 = _exp_capped(np.multiply(self.kap, d2, out=self._ekd_spare), out=self._ekd_spare)
        d_ll = self.ekd - ekd2
        d_ll -= self.delta_kap * shift
        if self.literal:
            d_ll *= self.su
        return d_ll

    def _commit_shift(self, accept=None) -> None:
        """Copy the last :meth:`_terminal_shift`'s offsets and exponentials
        into ``d_scale`` and ``ekd``: every record's, or those ``accept``
        marks."""
        if accept is None:
            np.copyto(self.d_scale, self._d_spare)
            np.copyto(self.ekd, self._ekd_spare)
        else:
            # putmask writes a masked copy at about np.where's speed, where
            # copyto's where= takes nearly twice as long
            np.putmask(self.d_scale, accept, self._d_spare)
            np.putmask(self.ekd, accept, self._ekd_spare)

    def take_acceptance(self) -> dict:
        """Each recording block's mean acceptance since the last read; restarts the tally."""
        rates = {name: total / count for name, (total, count) in self._accept.items() if count}
        self._accept = {name: [0.0, 0] for name in self._accept}
        return rates

    def adapt_all(self) -> None:
        """Adapt each proposal scale to its block's rate from :meth:`take_acceptance`."""
        rates = self.take_acceptance()
        for name, scale in self.scales.items():
            if name in rates:
                self.scales[name] = adapt_scale(rates[name], scale, self.targets[name])

    # -- regression blocks --------------------------------------------------------------

    def update_beta(self, rng) -> None:
        if self.beta.size == 0:
            return
        prop = self.beta + self.scales["beta"] * rng.standard_normal(self.beta.size)
        lin2 = self.x @ prop
        erx2 = _exp_capped(lin2 + self.mu_rec)
        logr = (float(self.q_events @ (lin2 - self.lin_x))
                - float((self.su * self.gamma * self.lam0_followup) @ (erx2 - self.erx))
                + (self.beta @ self.beta - prop @ prop) / (2.0 * self.sigma2_beta))
        if self._step(rng, "beta", logr):
            self.beta = prop
            np.copyto(self.lin_x, lin2)
            np.copyto(self.erx, erx2)

    def update_alpha(self, rng) -> None:
        if self.alpha.size == 0:
            return
        prop = self.alpha + self.scales["alpha"] * rng.standard_normal(self.alpha.size)
        lin2 = self.z @ prop
        d_ll = self._terminal_shift(lin2 - self.lin_z)
        logr = (float(d_ll.sum())
                + (self.alpha @ self.alpha - prop @ prop) / (2.0 * self.sigma2_alpha))
        if self._step(rng, "alpha", logr):
            self.alpha = prop
            np.copyto(self.lin_z, lin2)
            self._commit_shift()

    def update_alpha0(self, rng) -> None:
        prop = self.alpha0 + self.scales["alpha0"] * rng.standard_normal()
        d_ll = self._terminal_shift(prop - self.alpha0)
        # flat prior: the full conditional is proportional to the likelihood
        if self._step(rng, "alpha0", float(d_ll.sum())):
            self.alpha0 = prop
            self._commit_shift()

    def update_tau2(self, rng) -> None:
        if self.j == 0:
            return
        ssq = np.bincount(self.cluster_of, weights=self.lgam * self.lgam, minlength=self.j)
        rate = self.hyper.b0 + 0.5 * ssq
        self.tau2 = rate / np.maximum(rng.standard_gamma(self.tau2_shape, size=self.j), 1e-300)

    def update_gamma(self, rng) -> None:
        if self.n == 0:
            return
        prop = rng.standard_normal(self.n)
        prop *= self.scales["gamma"]
        prop += self.gamma
        valid = prop > 0.0
        lg2 = np.where(valid, prop, 1.0)
        np.log(lg2, out=lg2)
        dlg = lg2 - self.lgam
        d_ll = self._terminal_shift(self.xi1 * dlg)
        # the log ratio, into d_ll through two scratch arrays a and b:
        # q dlg - su erx lam0 (prop - gamma) + d_ll - dlg - dlg (lg2 + lgam) / (2 tau2),
        # where -dlg is the log-normal prior's Jacobian term
        a = np.subtract(prop, self.gamma)
        b = np.multiply(self.su, self.erx)
        b *= self.lam0_followup
        b *= a
        np.multiply(self.q_events, dlg, out=a)
        a -= b
        d_ll += a
        d_ll -= dlg
        np.add(lg2, self.lgam, out=a)
        np.multiply(dlg, a, out=a)
        a *= (0.5 / self.tau2).take(self.cluster_of, out=b, mode="clip")
        d_ll -= a
        # no other draw comes between the proposal and the uniforms
        accept = valid & metropolis_decision(d_ll, rng.random(out=a))
        np.putmask(self.gamma, accept, prop)
        np.putmask(self.lgam, accept, lg2)
        self._commit_shift(accept)
        self._record_accept("gamma", np.count_nonzero(accept) / self.n)

    # -- cluster-effect block -----------------------------------------------------------

    def _mu_coefficients(self):
        """Per-record coefficients of the log likelihood as a function of the
        cluster effect: the linear term, the -exp(mu) factor and the
        -exp(-kappa*xi2*mu) factor."""
        lin_term = self.delta_kap * self.xi2
        term_scale = _exp_capped(self.kap * (self.d_scale + self.xi2 * self.mu_rec))
        if self.literal:
            lin_term *= self.su
            term_scale *= self.su
        rec_scale = self.su * self.gamma * _exp_capped(self.lin_x) * self.lam0_followup
        return self.q_events - lin_term, rec_scale, term_scale

    def _mu_sums(self, coefficients) -> tuple:
        """The per-cluster sums of :meth:`_mu_coefficients`: the linear term
        and the -exp(mu) factor over each cluster's records (length J), and
        the -exp(-kappa*xi2*mu) factor over each cluster's records of each
        shape atom (J x K_kappa), since a record's shape is ``theta[v]``.
        None of them reads the cluster effects.  Each is clipped to
        +-_SCORE_CLIP."""
        lin, rec_scale, term_scale = coefficients
        j, k_kappa = self.j, self.level_kappa
        # side by side, so that one clip covers the three
        sums = _clip_scores(np.concatenate((
            np.bincount(self.cluster_of, weights=lin, minlength=j),
            np.bincount(self.cluster_of, weights=rec_scale, minlength=j),
            np.bincount(self.cluster_of * k_kappa + self.v, weights=term_scale,
                        minlength=j * k_kappa)), dtype=float))
        return sums[:j], sums[j:2 * j], sums[2 * j:].reshape(j, k_kappa)

    def _cluster_mu_loglik(self, sums, atoms: np.ndarray) -> np.ndarray:
        """J x K matrix: the log likelihood of cluster c's records with their
        shared effect set to ``atoms[k]``, up to terms free of it, from the
        per-cluster sums of :meth:`_mu_sums`.  Each of the three terms and
        the result are clipped to +-_SCORE_CLIP.
        """
        lin_c, rec_c, term_c = sums
        e_term = _exp_capped(_outer(self.theta * -self.xi2, atoms))
        with np.errstate(over="ignore"):
            ll = _clip_scores(_outer(lin_c, atoms))
            ll -= np.minimum(_outer(rec_c, _exp_capped(atoms)), _SCORE_CLIP)
            ll -= np.minimum(term_c @ e_term, _SCORE_CLIP)
        return _clip_scores(ll)

    def update_mu_block(self, rng) -> None:
        """Assignments, sticks, concentration and atom moves for the cluster
        effects (plain per-cluster Metropolis steps in the parametric
        variant).  The atoms' proposal is drawn first: in the mixture, one
        pass scores every cluster at every current and proposed atom, and
        the assignment draw and the atom move read the same scores."""
        if self.mu_mode == "none":
            return
        sums = self._mu_sums(self._mu_coefficients())
        size = self.eta.size
        prop = self._propose_atoms(rng, "eta", self.eta)
        if self.mu_mode == "dp":
            ll = self._cluster_mu_loglik(sums, np.concatenate((self.eta, prop)))
            with np.errstate(divide="ignore"):
                scores = ll[:, :size] + np.log(self.mu_weights)
            self.m = _categorical_columns(scores.T, rng.random(self.j),
                                          "cluster {} (cluster-effect mixture)".format)
            self.mu_weights, self.phi_mu = self._update_sticks(
                self.m, self.level_mu, self.phi_mu, rng)
            # each cluster's change of score at its new atom
            d_ll = (ll[:, size:] - ll[:, :size])[np.arange(self.j), self.m]
        else:
            d_ll = self._mu_own_atom_change(sums, prop)
        ratio = (np.bincount(self.m, weights=d_ll, minlength=size)
                 + (self.eta ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_mu))
        self.eta = self._move_atoms(rng, "eta", self.eta, self.m, prop, ratio,
                                    self._draw_mu_atoms)
        self._refresh_mu_caches()

    def _mu_own_atom_change(self, sums, prop: np.ndarray) -> np.ndarray:
        """One effect per cluster: each cluster's change of log likelihood
        when its effect moves from ``eta`` to ``prop``, from the per-cluster
        sums of :meth:`_mu_sums`.  An overflowing change is inf or NaN, and
        its move is rejected."""
        lin_c, rec_c, term_c = sums
        size = prop.size
        both = np.concatenate((self.eta, prop))
        e_mu = _exp_capped(both)
        # rows: the current effects, then the proposed ones
        e_term = _exp_capped(_outer(both, self.theta * -self.xi2))
        with np.errstate(over="ignore", invalid="ignore"):
            return (lin_c * (prop - self.eta) - rec_c * (e_mu[size:] - e_mu[:size])
                    - np.add.reduce(term_c * (e_term[size:] - e_term[:size]), axis=1))

    # -- susceptibility block ----------------------------------------------------------

    def update_susceptibility(self, rng) -> None:
        if not self.has_d or self.n == 0:
            return
        # log_s = -gamma * erx * lam0 is the log survival of the recurrent process
        logit = self.logit_p + self.gamma * self.erx * self.lam0_followup
        if self.literal:
            logit -= self._terminal_loglik()
        with np.errstate(over="ignore"):
            prob_one = 1.0 / (1.0 + np.exp(-logit))
        draws = rng.random(self.n)
        np.copyto(self.d_flags, (draws < prob_one) & self.eventless)
        np.subtract(1.0, self.d_flags, out=self.su)

    # -- baseline block -------------------------------------------------------------------

    def update_baseline_block(self, rng) -> None:
        if self.baseline_variant == "piecewise":
            self._update_levels(rng)
        else:
            self._update_psi(rng)

    def _update_levels(self, rng) -> None:
        # uniform (0, inf) prior on each level: its full conditional is
        # Gamma(n_g + 1, E_g).  Where E_g is not finite and positive the
        # conditional is improper, and the level keeps its value
        exposure = self._level_exposures()
        draws = rng.standard_gamma(self.level_shapes)
        np.divide(draws, exposure, out=self.lam, where=(exposure > 0.0) & (exposure < np.inf))
        self._refresh_baseline_caches()
        self._record_accept("lambda", 1.0)

    def _level_exposures(self) -> np.ndarray:
        """Each level's exposure E_g: the records' weights r = su gamma erx
        times their time in interval g, which is its width w_g for a record
        followed past it and the offset o_i for one whose follow-up ends in
        it, E_g = w_g sum_{g_i > g} r_i + sum_{g_i = g} r_i o_i."""
        weights = self.su * self.gamma * self.erx
        g, size = self.followup_interval, self.n_levels
        ending = np.bincount(g, weights=weights, minlength=size)
        exposure = np.bincount(g, weights=weights * self.followup_offset, minlength=size)
        # sum_{g_i > g} r_i for every interval but the last, which extends
        exposure[:-1] += self.level_widths[:-1] * np.add.accumulate(ending[:0:-1])[::-1]
        return exposure

    def _update_psi(self, rng) -> None:
        prop = self.psi + self.scales["psi"] * rng.standard_normal()
        if prop <= 0.0:
            # a nonpositive shape is rejected outright, with no uniform drawn
            self._record_accept("psi", 0.0)
            return
        h = self.hyper
        weights = self.su * self.gamma * self.erx

        def log_target(psi: float, log_psi: float, risk: float) -> float:
            return (self.total_events * log_psi + (psi - 1.0) * self.total_log_ev
                    - risk + (h.a_psi - 1.0) * log_psi - h.b_psi * psi)

        current = log_target(self.psi, math.log(self.psi), float(weights @ self.lam0_followup))
        if not math.isfinite(current):
            raise ValueError(f"the power-law shape's log target is not finite at psi = {self.psi}")
        with np.errstate(over="ignore"):
            powered = self.followup ** prop
        log_prop = math.log(prop)
        # an overflowing risk makes the ratio -inf or NaN, which rejects
        logr = log_target(prop, log_prop, float(weights @ powered)) - current
        if self._step(rng, "psi", logr):
            self.psi = prop
            np.copyto(self.lam0_followup, powered)

    # -- shape-parameter block ---------------------------------------------------------------

    def _kappa_assignments(self, rng) -> np.ndarray:
        """Draw every record's shape atom into ``v``, which it returns: one
        pass of rejection from the binned envelope, then the dense draw for
        the records it leaves."""
        left = self._kappa_rejection(rng).nonzero()[0]
        if left.size:
            self.v[left] = self._kappa_dense(rng, left)
        return self.v

    def _kappa_bins(self, todo: np.ndarray | None, span: np.ndarray) -> tuple:
        """Cut the offsets ``span`` of the records ``todo`` (None: every
        record) into the envelope's bins.  Returns (lower edges, upper
        edges, the records, their offsets, the bin of each shifted left by
        53 bits in an array of its own, whether the records are in order of
        offset).  The bins are the module docstring's: below
        ``_KAPPA_SORT_LIMIT`` offsets, the runs of :func:`_rank_bins` over the
        sorted offsets, whose records come back in order of offset; from
        there on, equal widths in asinh(d), whose records (None included)
        come back as they were given."""
        m = span.size
        if m < _KAPPA_SORT_LIMIT:
            first, last, run_key = _rank_bins(
                m, max(1, min(_KAPPA_SORTED_BINS, m // _KAPPA_SORTED_BIN_RECORDS)))
            order = span.argsort()
            span = span[order]
            todo = order if todo is None else todo[order]
            return span[first], span[last], todo, span, run_key.copy(), True
        a = np.arcsinh(span)
        lo, hi = float(a.min()), float(a.max())
        bins = min(_KAPPA_MAX_BINS, max(1, m // _KAPPA_BIN_RECORDS))
        width = (hi - lo) / bins
        # a single value of d, or a range too narrow to cut, is one bin
        if not width >= np.finfo(float).tiny:
            bins, width = 1, 1.0
        # the rounding of asinh, of an offset's bin index and of the edges
        # stays within `slack` of its bin.  Mapped back, the slack widens an
        # edge e by at least 2^-48 |sinh(e)| (as |e| cosh(e) >= |sinh(e)|),
        # more than the rounding of sinh, so the bin's bound covers the offset
        slack = 2.0 ** -48 * (abs(lo) + abs(hi))
        edges = lo + width * np.arange(bins + 1)
        a -= lo
        a /= width
        which = a.astype(np.int64)
        np.minimum(which, bins - 1, out=which)
        which <<= 53
        return np.sinh(edges[:-1] - slack), np.sinh(edges[1:] + slack), todo, span, which, False

    def _kappa_rejection(self, rng) -> np.ndarray:
        """One envelope proposal, in blocks of ``_KAPPA_BLOCK`` records, for
        each record whose dense scores would not be clipped, written into
        ``v``.  Returns the mask of the records the dense draw then takes:
        those rejected, whose ``v`` it overwrites, and those not routed."""
        d, theta = self.d_scale, self.theta
        limit = _KAPPA_ROUTE_LIMIT / max(float(theta.max()), 1.0)
        # NaN fails the comparison, so a non-finite offset is not routed and
        # the dense draw raises on it; without records there is none to route
        if self.literal or not (d.size and np.abs(d).max() <= limit):
            dense = ~(np.abs(d) <= limit)
            if self.literal:
                dense |= self.su == 0.0
            todo = (~dense).nonzero()[0]
            if not todo.size:
                return dense
            span = d[todo]
        else:
            dense, todo, span = np.zeros(self.n, dtype=bool), None, d
        lo, hi, todo, span, flag_key, ordered = self._kappa_bins(todo, span)
        flag = self.delta if todo is None else self.delta[todo]
        bound, cdf = self._kappa_envelope(lo, hi)
        rows, k_atoms = cdf.shape
        # row r's cumulative probabilities in units of 2^-53, offset by
        # r * 2^53: sorted across rows, and row r ends at (r + 1) * 2^53.  A
        # record's 53-bit uniform in those units, offset by its row, is at
        # or above exactly the entries of its row that its draw passes
        cdf *= _TWO_53
        keys = np.ceil(cdf, out=cdf).astype(np.int64)
        keys += np.arange(0, rows << 53, 1 << 53, dtype=np.int64)[:, None]
        keys, bound = keys.ravel(), bound.ravel()
        if not ordered:
            # (step, view) pairs of a branchless binary search within a row:
            # view[pos] is keys[pos + step - 1].  The steps reach the row's
            # last entry; a probe past it reads a greater key of the next
            # row, or one of the padding keys after the last row
            top = (k_atoms - 1).bit_length()
            keys = np.concatenate((keys, np.full(1 << top, np.iinfo(np.int64).max)))
            probes = [(1 << s, keys[(1 << s) - 1:]) for s in reversed(range(top))]
        # a flagged record's row is its bin's row plus the number of bins
        np.add(flag_key, lo.size << 53, out=flag_key, where=flag != 0.0)
        # the acceptance test takes the log of a uniform, which may be 0
        with np.errstate(divide="ignore"):
            for start in range(0, span.size, _KAPPA_BLOCK):
                block = slice(start, start + _KAPPA_BLOCK)
                di = span[block]
                u = rng.random((2, di.size))
                query = (u[0] * _TWO_53).astype(np.int64)
                query += flag_key[block]
                if ordered:
                    # records in order of d: their queries rise with their
                    # bins, so one search of the whole table branches
                    # predictably; on unordered queries it mispredicts
                    # enough to cost several times the branchless search
                    pos = keys.searchsorted(query, side="right")
                else:
                    pos = (query >> 53) * k_atoms
                    for step, probe in probes:
                        pos += step * (probe[pos] <= query)
                # the atom: the position past its row's start (a remainder
                # by k_atoms costs several times as much)
                k = pos - (query >> 53) * k_atoms
                x = theta[k]
                x *= di
                log_ratio = flag[block] * x
                log_ratio -= _exp_capped(x, out=x)
                log_ratio -= bound[pos]
                idx = block if todo is None else todo[block]
                self.v[idx] = k
                dense[idx] = ~(np.log(u[1], out=u[1]) < log_ratio)
        return dense

    def _kappa_envelope(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """The shape step's rejection envelope over the bins [lo, hi]: two
        tables of rows (terminal flag, bin) by atoms.

        ``bound`` holds each atom's upper bound, over the bin, of the term
        ``flag x - exp(x)``, ``x = theta d`` with the exp argument capped,
        which with ``log w + flag log theta`` makes the atom's score.
        ``cdf`` holds the cumulative proposal probabilities, proportional
        to ``w theta^flag exp(bound)``; each row ends at 1.  Without the flag
        the term falls in d, so its bound is at the bin's lower edge; with
        it, ``x - exp(x)`` is concave up to the cap with its peak at x = 0
        and rises past the cap, so its bound is the larger of its values at
        the point of the bin nearest 0 and at the upper edge.
        """
        theta, bins = self.theta, lo.size
        x = _outer(np.concatenate((lo, np.minimum(np.maximum(lo, 0.0), hi))), theta)
        bound = _exp_capped(x)
        np.negative(bound[:bins], out=bound[:bins])
        np.subtract(x[bins:], bound[bins:], out=bound[bins:])
        if float(hi.max()) * float(theta.max()) > _EXP_CAP:
            x = _outer(hi, theta)
            np.maximum(bound[bins:], x - _exp_capped(x), out=bound[bins:])
        with np.errstate(divide="ignore"):
            cdf = bound + np.log(self.kappa_weights)
        cdf[bins:] += np.log(theta)
        cdf -= np.maximum.reduce(cdf, axis=1, keepdims=True)
        np.exp(cdf, out=cdf)
        np.add.accumulate(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:].copy()
        return bound, cdf

    def _kappa_dense(self, rng, records: np.ndarray) -> np.ndarray:
        """Draw the shape atoms of ``records`` from their full scores, one
        uniform each in record order, scoring ``_CHUNK_ELEMENTS``-sized
        chunks of the atoms-by-records matrix one at a time.  A literal-mode
        record with su = 0 and its offset within the route limit scores
        exactly log w: all such records search one column of the weights."""
        uniforms = rng.random(records.size)
        log_theta = np.log(self.theta)[:, None]
        with np.errstate(divide="ignore"):
            log_w = np.log(self.kappa_weights)[:, None]
        v, todo = np.empty(records.size, dtype=np.int64), np.arange(records.size)
        if self.literal and np.isfinite(top := log_w.max()):
            limit = _KAPPA_ROUTE_LIMIT / max(float(self.theta.max()), 1.0)
            shared = (self.su[records] == 0.0) & (np.abs(self.d_scale[records]) <= limit)
            # the count that _categorical_columns takes, on the one column
            cum = np.add.accumulate(np.exp(log_w[:, 0] - top))
            v[shared] = cum.searchsorted(uniforms[shared] * cum[-1], side="left")
            todo = (~shared).nonzero()[0]
        rows = max(1, _CHUNK_ELEMENTS // self.level_kappa)
        for start in range(0, todo.size, rows):
            c = todo[start:start + rows]
            r = records[c]
            # two chunk-sized matrices: the powers become their exponentials
            powers = np.multiply.outer(self.theta, self.d_scale[r])
            ll = log_theta - self.log_followup[r]
            ll += powers
            ll *= self.delta[r]
            ll -= _exp_capped(powers, out=powers)
            if self.literal:
                ll *= self.su[r]
            _clip_scores(ll)
            ll += log_w
            v[c] = _categorical_columns(ll, uniforms[c],
                                        lambda i: f"{self._record_name(r[i])} (shape mixture)")
        return v

    def update_kappa_block(self, rng) -> None:
        self._kappa_assignments(rng)
        self.kappa_weights, self.phi_kappa = self._update_sticks(
            self.v, self.level_kappa, self.phi_kappa, rng)
        prop = self._propose_atoms(rng, "theta", self.theta)
        self.theta = self._move_atoms(rng, "theta", self.theta, self.v, prop,
                                      self._theta_atom_log_ratio(prop), self._draw_kappa_atoms)
        self._refresh_shapes()
        _exp_capped(np.multiply(self.kap, self.d_scale, out=self.ekd), out=self.ekd)

    def _theta_atom_log_ratio(self, prop: np.ndarray) -> np.ndarray:
        h = self.hyper
        valid = prop > 0.0
        safe = np.where(valid, prop, 1.0)
        # log(kp / kc) per atom
        d_log = np.log(safe) - np.log(self.theta)
        # d_ll = delta (d_log[v] + (kp - kc) d) - (exp(kp d) - exp(kc d)),
        # exp capped, from each record's proposed and current shape kp, kc
        d, v = self.d_scale, self.v
        kp, kc = safe.take(v), self.theta.take(v)
        e = _exp_capped(kp * d)
        kp -= kc
        e -= _exp_capped(np.multiply(kc, d, out=kc), out=kc)
        d_ll = d_log.take(v, out=kc)
        d_ll += kp * d
        d_ll *= self.delta
        d_ll -= e
        if self.literal:
            d_ll *= self.su
        # Gamma(a_kappa, b_kappa) base density keeps the conditional proper
        ratio = (np.bincount(self.v, weights=d_ll, minlength=prop.size)
                 + ((h.a_kappa - 1.0) * d_log - h.b_kappa * (prop - self.theta)))
        # a nonpositive shape is rejected outright
        return np.where(valid, ratio, -np.inf)

    # -- frailty-loading blocks ------------------------------------------------------------------

    def update_xi1(self, rng) -> None:
        prop = self.xi1 + self.scales["xi1"] * rng.standard_normal()
        d_ll = self._terminal_shift((prop - self.xi1) * self.lgam)
        logr = float(d_ll.sum()) + (self.xi1 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi1)
        if self._step(rng, "xi1", logr):
            self.xi1 = prop
            self._commit_shift()

    def update_xi2(self, rng) -> None:
        prop = self.xi2 + self.scales["xi2"] * rng.standard_normal()
        d_ll = self._terminal_shift((prop - self.xi2) * self.mu_rec)
        logr = float(d_ll.sum()) + (self.xi2 ** 2 - prop ** 2) / (2.0 * self.hyper.sigma2_xi2)
        if self._step(rng, "xi2", logr):
            self.xi2 = prop
            self._commit_shift()

    def update_zeta(self, rng) -> None:
        if not self.logistic or self.zeta.size == 0:
            return
        prop = self.zeta + self.scales["zeta"] * rng.standard_normal(self.zeta.size)
        t2 = self.u @ prop
        softplus2 = float(log_add_exp(0.0, t2).sum())
        d = self.d_flags.astype(float)
        logr = (float(d @ (t2 - self.logit_p)) - (softplus2 - self.softplus_sum)
                + (self.zeta @ self.zeta - prop @ prop) / (2.0 * self.hyper.sigma2_zeta))
        if self._step(rng, "zeta", logr):
            self.zeta, self.softplus_sum = prop, softplus2
            np.copyto(self.logit_p, t2)

    def update_coef_variances(self, rng) -> None:
        if not self.hyper.resample_coef_variances:
            return
        rate_b = 0.5 + 0.5 * float(self.beta @ self.beta)
        self.sigma2_beta = rate_b / max(float(rng.gamma(0.5 + 0.5 * self.beta.size, 1.0)), 1e-300)
        rate_a = 0.5 + 0.5 * float(self.alpha @ self.alpha)
        self.sigma2_alpha = rate_a / max(float(rng.gamma(0.5 + 0.5 * self.alpha.size, 1.0)), 1e-300)

    # -- sweep ------------------------------------------------------------------------------

    def sweep(self, rng: np.random.Generator) -> None:
        # by name at the call, so that a method replaced on the class runs
        for name, _ in _SWEEP:
            getattr(self, name)(rng)

    # -- state loading --------------------------------------------------------------------------

    def load_state(self, state: ParamState) -> None:
        """Replace the chain state by ``state``, checked first against every
        rule of :meth:`_check_state`, so a rejected state leaves the engine
        as it was: the one place a state is checked."""
        self._check_state(state)
        self._set_state(state)

    def _set_state(self, state: ParamState) -> None:
        """Write ``state``, build the piecewise design from its baseline and
        rebuild every cache: the one state writer, behind :meth:`load_state`
        and :meth:`init_state` (whose prior draw is valid by construction)."""
        # the engine owns every per-record array, which the blocks write in
        # place: a state's are copied (its other arrays, which the blocks
        # replace, are shared), and the caches are allocated here, once
        for name, axis, _ in _STATE_FIELDS:
            value = getattr(state, name)
            setattr(self, name, value.copy() if axis == "records" else value)
        self.d_flags = np.array(state.unsusceptible, dtype=np.int8)
        for name in _RECORD_CACHES:
            setattr(self, name, np.empty(self.n))
        # the terminal shift's new offsets and exponentials, before a commit
        self._d_spare, self._ekd_spare = np.empty(self.n), np.empty(self.n)
        if self.logistic:
            self.logit_p = np.empty(self.n)
        if self.mu_mode == "dp":
            self.eta, self.m, self.mu_weights, self.phi_mu = _mixture_arrays(state.cluster_effects)
        else:
            self.eta = state.cluster_effects if self.mu_mode == "param" else np.zeros(0)
            self.m = np.arange(self.eta.size, dtype=np.int64)
        self.level_mu = self.eta.size
        self.theta, self.v, self.kappa_weights, self.phi_kappa = _mixture_arrays(state.kappa_dp)
        self.level_kappa = self.theta.size
        if self.baseline_variant == "piecewise":
            self.grid = state.baseline.grid
            self.lam, self.psi = state.baseline.levels.copy(), None
            self.n_levels = self.lam.size
            self.level_widths = np.diff(self.grid)
            self.followup_interval, self.followup_offset = piecewise_intervals(
                self.grid[:-1], self.followup)
            self.ev_interval = piecewise_intervals(self.grid[:-1], self.ev_times)[0]
            # the shapes of the levels' Gamma full conditionals, n_g + 1
            self.level_shapes = np.bincount(self.ev_interval, minlength=self.n_levels) + 1.0
        else:
            self.lam, self.psi = None, float(state.baseline.shape)
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
        # the length of each axis; zeta's counts only in the logistic model
        lengths = {"x": self.x.shape[1], "z": self.z.shape[1], "records": self.n,
                   "clusters": self.j}
        if self.logistic:
            lengths["u"] = self.u.shape[1]
        sizes = [(name, getattr(state, name), lengths[axis])
                 for name, axis, _ in _STATE_FIELDS if axis in lengths]
        sizes.append(("unsusceptible", state.unsusceptible, self.n))
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
        # (field, rule, values, mask of the entries that keep it); values
        # None names the participant instead of the value
        positive = [(name, np.asarray(getattr(state, name)))
                    for name, _, must_be_positive in _STATE_FIELDS if must_be_positive]
        rules = [(name, "must be positive", values, values > 0) for name, values in positive]
        rules += [("unsusceptible", "must be 0 or 1", flags, (flags == 0) | (flags == 1)),
                  ("unsusceptible", f"must be 0 in the {self.variant} variant, which has no "
                   "zero-inflation", flags, (flags == 0) | self.has_d),
                  ("unsusceptible", "participants with recurrent events cannot be unsusceptible",
                   None, (flags != 1) | self.eventless),
                  ("shape-mixture atoms", "must be positive", kappa.atoms, kappa.atoms > 0)]
        for name, dp, _ in mixtures:
            sticks, assignments, k = dp.raw_sticks, dp.assignments, dp.atoms.size
            concentration = np.asarray(dp.concentration, dtype=float)
            rules += [(f"{name} sticks", "must lie in (0, 1)", sticks, (sticks > 0) & (sticks < 1)),
                      (f"{name} assignments", "must be integers", assignments,
                       assignments == np.round(assignments)),
                      (f"{name} assignments", f"must lie in [0, {k})", assignments,
                       (assignments >= 0) & (assignments < k)),
                      (f"{name} concentration", "must be positive", concentration,
                       concentration > 0)]
        # one test of every entry; only a state that fails it is searched
        if not np.concatenate([ok for *_, ok in rules], axis=None).all():
            name, rule, values, ok = next(entry for entry in rules if not entry[3].all())
            pos = int(ok.argmin())
            field = f"{name}[{pos}]" if ok.ndim else name
            detail = (f", got {values.flat[pos]}" if values is not None else
                      f": {self._record_name(pos)}")
            raise ValueError(f"{field}: {rule}{detail}")

    # -- trace assembly ----------------------------------------------------------------------------

    def _trace_parts(self) -> list:
        """(name, value) pairs in trace order: a scalar fills the column
        ``name``, an array the columns ``name`` + "1", "2", ...  Mixture atoms are
        left out: their labels switch, and an empty atom is a prior draw."""
        parts = [("beta_", self.beta), ("alpha_", self.alpha), ("alpha0", self.alpha0),
                 ("xi1", self.xi1), ("xi2", self.xi2)]
        if self.logistic:
            parts.append(("zeta_", self.zeta))
        parts += [("sigma2_beta", self.sigma2_beta), ("sigma2_alpha", self.sigma2_alpha),
                  ("lambda_0", self.lam) if self.baseline_variant == "piecewise"
                  else ("psi", self.psi), ("tau2_", self.tau2)]
        if self.mu_mode != "none":
            parts.append(("mu_", self.eta[self.m]))
        if self.mu_mode == "dp":
            parts.append(("phi_mu", self.phi_mu))
        return parts + [("phi_kappa", self.phi_kappa), ("n_unsusceptible", float(self.d_flags.sum()))]

    def trace_columns(self) -> list:
        return [name if np.ndim(value) == 0 else f"{name}{i + 1}"
                for name, value in self._trace_parts() for i in range(np.size(value))]

    def trace_row(self) -> np.ndarray:
        # every array part is a float vector; a scalar part fills one column
        return np.concatenate([value if isinstance(value, np.ndarray) else (value,)
                               for _, value in self._trace_parts()])


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------

def run_chain(dataset: Dataset, config: McmcConfig, hyper: Hyperparams,
              chain_index: int = 0, scales: ProposalScales | None = None) -> ChainTrace:
    """Run one chain and return its post-burn-in trace.

    Identical (config, data) inputs yield a bit-identical trace; the
    generator stream comes from (config.seed, chain_index), so chains are
    independent.  Burn-in adapts the scales at each full window of sweeps;
    the sampling sweeps hold them fixed, keep the first draw and every
    ``thin``-th after it, and report their own mean acceptance.
    """
    rng = np.random.default_rng([config.seed, chain_index])
    eng = SamplerEngine(dataset, hyper, variant=config.variant,
                        baseline_variant=config.baseline_variant,
                        likelihood_mode=config.likelihood_mode,
                        scales=scales, grid=config.grid)
    eng.init_state(rng)

    columns = eng.trace_columns()
    kept = config.kept_draws
    try:
        draws = np.empty((kept, len(columns)))
    except (ValueError, MemoryError) as err:
        raise ValueError(f"the trace of {kept} kept draws by {len(columns)} columns cannot be "
                         f"allocated: lower mcmc iterations, or raise burn_in or thin") from err
    neg_loglik_lse = np.full(eng.n, -np.inf)
    total_ll = np.empty(kept)

    for it in range(config.burn_in):
        eng.sweep(rng)
        if (it + 1) % config.adapt_window == 0:
            eng.adapt_all()
    eng.take_acceptance()  # the sampling phase's tally starts empty
    for row in range(kept):
        eng.sweep(rng)
        draws[row] = eng.trace_row()
        ll = eng.participant_loglik()
        cpo_accumulate(neg_loglik_lse, ll, row)
        total_ll[row] = ll.sum()
        for _ in range(config.thin - 1):
            eng.sweep(rng)

    return ChainTrace(
        columns=columns, draws=draws, neg_loglik_lse=neg_loglik_lse, total_loglik=total_ll,
        acceptance=eng.take_acceptance(), final_scales=dict(eng.scales),
        chain_index=chain_index,
        grid=None if eng.grid is None else eng.grid.copy())
