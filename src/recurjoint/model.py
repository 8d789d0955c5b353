"""Domain types of the joint recurrent/terminal event model: participant
records and datasets, baseline hazards, mixture and parameter states,
hyperparameters, and the names of the model variants, baseline hazards and
likelihood modes.

The observed-data likelihood is evaluated in one place only, the
vectorized :class:`recurjoint.sampler.SamplerEngine`.  The closed-form
baseline-hazard integrals here are shared by the engine and the simulator.
Every type is an immutable value object, safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ParticipantRecord",
    "Dataset",
    "PiecewiseConstantHazard",
    "PowerLawHazard",
    "BaselineHazard",
    "TruncatedDP",
    "ParamState",
    "Hyperparams",
    "VARIANTS",
    "BASELINE_VARIANTS",
    "LIKELIHOOD_MODES",
    "cumulative_baseline_hazard",
]

VARIANTS = ("BMZ-DP", "BM-DP", "BZ-DP", "BMZ")
BASELINE_VARIANTS = ("piecewise", "powerlaw")
LIKELIHOOD_MODES = ("corrected", "literal")


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.asarray(a, dtype=dtype).copy()
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticipantRecord:
    """Observed data for one participant.

    Attributes
    ----------
    cluster_index : int
        Practice (cluster) the participant belongs to, in ``[0, J)``.
    participant_index : int
        Index of the participant within its cluster.
    followup_time : float
        Observed follow-up time (terminal event or censoring), > 0.
    event_indicator : int
        1 if the terminal event was observed, 0 if censored.
    recurrent_times : ndarray
        Strictly increasing recurrent event times, each in
        ``(0, followup_time]``.
    covariates_x, covariates_z, covariates_u : ndarray
        Covariate vectors for the recurrent, terminal and susceptibility
        submodels respectively.
    """

    cluster_index: int
    participant_index: int
    followup_time: float
    event_indicator: int
    recurrent_times: np.ndarray
    covariates_x: np.ndarray
    covariates_z: np.ndarray
    covariates_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "recurrent_times", _readonly(self.recurrent_times))
        object.__setattr__(self, "covariates_x", _readonly(self.covariates_x))
        object.__setattr__(self, "covariates_z", _readonly(self.covariates_z))
        object.__setattr__(self, "covariates_u", _readonly(self.covariates_u))
        if not self.followup_time > 0:
            raise ValueError(f"followup_time must be positive, got {self.followup_time}")
        if self.event_indicator not in (0, 1):
            raise ValueError(f"event_indicator must be 0 or 1, got {self.event_indicator}")
        t = self.recurrent_times
        if t.size:
            if np.any(np.diff(t) <= 0):
                raise ValueError("recurrent_times must be strictly increasing")
            if t[0] <= 0 or t[-1] > self.followup_time:
                raise ValueError("recurrent_times must lie in (0, followup_time]")

    @property
    def num_events(self) -> int:
        return int(self.recurrent_times.size)


@dataclass(frozen=True)
class Dataset:
    """A clustered collection of participant records."""

    records: tuple
    num_clusters: int
    dim_x: int = field(default=-1)
    dim_z: int = field(default=-1)
    dim_u: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.records:
            r0 = self.records[0]
            dims = (r0.covariates_x.size, r0.covariates_z.size, r0.covariates_u.size)
            object.__setattr__(self, "dim_x", dims[0])
            object.__setattr__(self, "dim_z", dims[1])
            object.__setattr__(self, "dim_u", dims[2])
            for r in self.records:
                if (r.covariates_x.size, r.covariates_z.size, r.covariates_u.size) != dims:
                    raise ValueError("covariate dimensions differ across records")
                if not 0 <= r.cluster_index < self.num_clusters:
                    raise ValueError(f"cluster_index {r.cluster_index} out of range [0, {self.num_clusters})")
            sizes = self.cluster_sizes
            if any(s < 1 for s in sizes):
                raise ValueError("every cluster must contain at least one record")
        else:
            if self.num_clusters != 0:
                raise ValueError("an empty dataset must declare num_clusters = 0")
            if min(self.dim_x, self.dim_z, self.dim_u) < 0:
                raise ValueError("an empty dataset must declare covariate dimensions")

    @property
    def cluster_sizes(self) -> list:
        sizes = [0] * self.num_clusters
        for r in self.records:
            sizes[r.cluster_index] += 1
        return sizes

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class PiecewiseConstantHazard:
    """Piecewise-constant baseline hazard on a grid ``0 = s_0 < ... < s_G``.

    Beyond ``s_G`` the last level is extended, since the grid is built from
    observed recurrent times while follow-up times can exceed it.
    """

    grid: np.ndarray      # length G+1, grid[0] == 0
    levels: np.ndarray    # length G, all > 0

    def __post_init__(self):
        object.__setattr__(self, "grid", _readonly(self.grid))
        object.__setattr__(self, "levels", _readonly(self.levels))
        if self.grid.size != self.levels.size + 1:
            raise ValueError("grid must have one more point than levels")
        if self.grid[0] != 0.0 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing and start at 0")
        if np.any(self.levels <= 0):
            raise ValueError("all hazard levels must be strictly positive")


@dataclass(frozen=True)
class PowerLawHazard:
    """Power-law baseline hazard ``shape * t**(shape - 1)``."""

    shape: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")


BaselineHazard = Union[PiecewiseConstantHazard, PowerLawHazard]


@dataclass(frozen=True)
class TruncatedDP:
    """Truncated stick-breaking mixture state.

    ``raw_sticks`` holds the first K-1 stick fractions; the final one is
    implicitly 1.  ``assignments`` are 0-based atom indices, one per latent
    unit.
    """

    atoms: np.ndarray
    raw_sticks: np.ndarray
    weights: np.ndarray
    assignments: np.ndarray
    concentration: float

    def __post_init__(self):
        object.__setattr__(self, "atoms", _readonly(self.atoms))
        object.__setattr__(self, "raw_sticks", _readonly(self.raw_sticks))
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "assignments", _readonly(self.assignments, dtype=np.int64))
        k = self.atoms.size
        if k < 1:
            raise ValueError("truncation level must be at least 1")
        if self.raw_sticks.size != k - 1:
            raise ValueError("raw_sticks must have length K - 1")
        if self.weights.size != k:
            raise ValueError("weights must have length K")
        from .dp import stick_to_weights

        ref = stick_to_weights(self.raw_sticks, k)
        if not np.allclose(self.weights, ref, rtol=0.0, atol=1e-12):
            raise ValueError("weights are not the stick-breaking transform of raw_sticks")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if self.assignments.size and (self.assignments.min() < 0 or self.assignments.max() >= k):
            raise ValueError("assignments must index existing atoms")
        if not self.concentration > 0:
            raise ValueError("concentration must be positive")


@dataclass(frozen=True)
class ParamState:
    """A full parameter vector, the input to
    :meth:`recurjoint.sampler.SamplerEngine.load_state`.

    ``unsusceptible`` is the latent zero-inflation indicator (1 marks a
    participant whose recurrent intensity is identically zero).  ``mu_dp``
    is None for the variant that removes cluster effects; for the fully
    parametric variant it carries identity assignments and is used only as
    an atom container.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha0: float
    xi1: float
    xi2: float
    zeta: np.ndarray | None
    gamma: np.ndarray
    tau2: np.ndarray
    unsusceptible: np.ndarray
    mu_dp: TruncatedDP | None
    kappa_dp: TruncatedDP
    baseline: BaselineHazard
    sigma2_beta: float = 1.0
    sigma2_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _readonly(self.beta))
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        if self.zeta is not None:
            object.__setattr__(self, "zeta", _readonly(self.zeta))
        object.__setattr__(self, "gamma", _readonly(self.gamma))
        object.__setattr__(self, "tau2", _readonly(self.tau2))
        object.__setattr__(self, "unsusceptible", _readonly(self.unsusceptible, dtype=np.int8))
        if np.any(self.gamma <= 0):
            raise ValueError("all frailties must be strictly positive")
        if np.any(self.tau2 <= 0):
            raise ValueError("all frailty variances must be strictly positive")
        if np.any(self.kappa_dp.atoms <= 0):
            raise ValueError("all shape atoms must be strictly positive")
        if not np.all(np.isin(self.unsusceptible, (0, 1))):
            raise ValueError("unsusceptible flags must be 0 or 1")


@dataclass(frozen=True)
class Hyperparams:
    """Fixed prior settings.

    ``sigma2_beta``/``sigma2_alpha`` are the current (or fixed) coefficient
    prior variances; with ``resample_coef_variances`` they receive conjugate
    inverse-gamma IG(1/2, 1/2) Gibbs updates each sweep.  ``fixed_p`` set to
    a constant disables the logistic susceptibility model.
    """

    sigma2_beta: float = 1.0
    sigma2_alpha: float = 1.0
    resample_coef_variances: bool = True
    sigma2_zeta: float = 10.0
    sigma2_xi1: float = 10.0
    sigma2_xi2: float = 10.0
    a0: float = 1.0
    b0: float = 1.0
    a_kappa: float = 1.0
    b_kappa: float = 1.0
    sigma2_mu: float = 1.0
    a_phi: float = 1.0
    b_phi: float = 1.0
    update_concentrations: bool = True
    truncation_kappa: int | None = None
    truncation_mu: int | None = None
    grid_count: int = 5
    fixed_p: float | None = None
    a_psi: float = 1.0
    b_psi: float = 1.0

    def __post_init__(self):
        for name in ("sigma2_beta", "sigma2_alpha", "sigma2_zeta", "sigma2_xi1",
                     "sigma2_xi2", "a0", "b0", "a_kappa", "b_kappa", "sigma2_mu",
                     "a_phi", "b_phi", "a_psi", "b_psi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.grid_count < 1:
            raise ValueError("grid_count must be at least 1")
        if self.fixed_p is not None and not 0.0 < self.fixed_p < 1.0:
            raise ValueError("fixed_p must lie in (0, 1)")

    def kappa_truncation(self, n_participants: int) -> int:
        if self.truncation_kappa is not None:
            return self.truncation_kappa
        return max(1, min(50, n_participants))

    def mu_truncation(self, n_clusters: int) -> int:
        if self.truncation_mu is not None:
            return self.truncation_mu
        return max(1, min(30, n_clusters))


# ---------------------------------------------------------------------------
# Baseline hazard
# ---------------------------------------------------------------------------

def cumulative_baseline_hazard(t: float, baseline: BaselineHazard) -> float:
    """Closed-form integral of the baseline hazard over ``(0, t]``.

    For the piecewise variant, times beyond the last grid point extend the
    final level.  Monotone nondecreasing in t with value 0 at t = 0.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if isinstance(baseline, PowerLawHazard):
        return float(t) ** baseline.shape
    grid, levels = baseline.grid, baseline.levels
    overlap = np.clip(np.minimum(t, grid[1:]) - grid[:-1], 0.0, None)
    total = float(overlap @ levels)
    if t > grid[-1]:
        total += (t - float(grid[-1])) * float(levels[-1])
    return total


def piecewise_durations(followups: np.ndarray, baseline: PiecewiseConstantHazard) -> np.ndarray:
    """Per-record time spent in each grid interval, extension folded into the
    last column.  Shape (N, G); ``durations @ levels`` gives the cumulative
    hazard at each follow-up time.
    """
    r = np.asarray(followups, dtype=float)[:, None]
    grid = baseline.grid
    dur = np.clip(np.minimum(r, grid[None, 1:]) - grid[None, :-1], 0.0, None)
    dur[:, -1] += np.clip(r[:, 0] - grid[-1], 0.0, None)
    return dur
