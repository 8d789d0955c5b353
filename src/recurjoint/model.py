"""Domain types of the joint recurrent/terminal event model: the dataset,
baseline hazards, mixture and parameter states, hyperparameters, and the
names of the model variants, baseline hazards and likelihood modes.

A :class:`Dataset` holds covariate matrices and CSR event times that the
loader, simulator and sampler engine share; its data rules are checked once,
when it is built.  :attr:`Dataset.records` is a derived per-participant
view, kept for the benchmark's likelihood oracle check and the tests.

The observed-data likelihood is evaluated in one place only, the
vectorized :class:`recurjoint.sampler.SamplerEngine`.  The closed-form
baseline-hazard integrals here are shared by the engine and the simulator.
Every type is an immutable value object, safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ParticipantRecord",
    "Dataset",
    "RecordError",
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

class RecordError(ValueError):
    """Record ``position`` breaks the rule ``reason`` on column ``field``."""

    def __init__(self, position: int, field: str, reason: str, participant: int, cluster: int):
        super().__init__(f"record {position} (participant {participant} in cluster {cluster}), "
                         f"{field}: {reason}")
        self.position, self.field, self.reason = position, field, reason


@dataclass(frozen=True)
class ParticipantRecord:
    """One participant's row of a :class:`Dataset`, as :attr:`Dataset.records`
    builds it; ``recurrent_times`` are the participant's event times."""

    cluster_index: int
    participant_index: int
    followup_time: float
    event_indicator: int
    recurrent_times: np.ndarray
    covariates_x: np.ndarray
    covariates_z: np.ndarray
    covariates_u: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.recurrent_times.size)


@dataclass(frozen=True, eq=False)
class Dataset:
    """N participants nested in ``num_clusters`` clusters, stored by column.

    ``cluster_index``, ``participant_index`` (within the cluster),
    ``followup_time`` and ``event_indicator`` (1 if the terminal event was
    observed) hold one entry per record; the recurrent, terminal and
    susceptibility covariates are (N, p), (N, q) and (N, r) matrices; record
    i's event times are ``event_times[event_offsets[i]:event_offsets[i + 1]]``.

    Every data rule on the records is checked here, once; the first record
    that breaks one raises :class:`RecordError`.  Covariates are not checked.
    Arrays of the right type and layout are taken without a copy, read-only.
    """

    cluster_index: np.ndarray
    participant_index: np.ndarray
    followup_time: np.ndarray
    event_indicator: np.ndarray
    event_times: np.ndarray
    event_offsets: np.ndarray
    covariates_x: np.ndarray
    covariates_z: np.ndarray
    covariates_u: np.ndarray
    num_clusters: int

    def __post_init__(self):
        n = np.size(self.followup_time)
        # checked as int64, so that no value wraps when stored as int8
        indicator = np.asarray(self.event_indicator, dtype=np.int64)
        object.__setattr__(self, "event_indicator", indicator)
        for name, dtype in (("cluster_index", np.int64), ("participant_index", np.int64),
                            ("followup_time", float), ("event_indicator", np.int8),
                            ("covariates_x", float), ("covariates_z", float),
                            ("covariates_u", float), ("event_times", float),
                            ("event_offsets", np.int64)):
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("cluster_index", "participant_index", "followup_time", "event_indicator",
                     "covariates_x", "covariates_z", "covariates_u"):
            shape = getattr(self, name).shape
            if shape[:1] != (n,) or len(shape) != (2 if name.startswith("covariates") else 1):
                raise ValueError(f"{name} has shape {shape}: its dimensions must give one row "
                                 f"per record, N = {n}")
        offsets = self.event_offsets
        if (self.event_times.ndim != 1 or offsets.shape != (n + 1,) or offsets[0] != 0
                or offsets[-1] != self.event_times.size or np.any(np.diff(offsets) < 0)):
            raise ValueError("event_offsets must rise from 0 to len(event_times) in N steps")

        # per-record rules, in the order a record is checked: the first
        # failing record raises, naming the first rule it breaks
        cluster, participant = self.cluster_index, self.participant_index
        followup, times = self.followup_time, self.event_times
        owner = np.repeat(np.arange(n), np.diff(offsets))

        def records_of(bad_events):
            return np.bincount(owner[bad_events], minlength=n) > 0

        duplicate = np.ones(n, dtype=bool)
        duplicate[np.unique(np.column_stack([cluster, participant]), axis=0,
                            return_index=True)[1]] = False
        unordered = np.zeros(times.size, dtype=bool)
        unordered[1:] = (owner[1:] == owner[:-1]) & ~(times[1:] > times[:-1])
        rules = (
            ("cluster_index", f"must lie in [0, {self.num_clusters})", cluster,
             (cluster < 0) | (cluster >= self.num_clusters)),
            ("participant_index", "duplicate (cluster, participant) key", None, duplicate),
            ("followup_time", "must be finite", followup, ~np.isfinite(followup)),
            ("followup_time", "must be positive", followup, ~(followup > 0)),
            ("event_indicator", "must be 0 or 1", indicator, (indicator != 0) & (indicator != 1)),
            ("event_times", "times must be finite", None, records_of(~np.isfinite(times))),
            ("event_times", "times are not strictly increasing", None, records_of(unordered)),
            ("event_times", "times must lie in (0, followup_time]", None,
             records_of((times <= 0) | (times > followup[owner]))),
        )
        bad = np.logical_or.reduce([mask for *_, mask in rules])
        if bad.any():
            pos = int(np.argmax(bad))
            name, reason, values = next((f, r, v) for f, r, v, mask in rules if mask[pos])
            if values is not None:
                reason = f"{reason}, got {values[pos].item()}"
            raise RecordError(pos, name, reason, int(participant[pos]), int(cluster[pos]))
        empty = np.flatnonzero(self.cluster_sizes == 0)
        if empty.size:
            raise ValueError(f"every cluster must contain at least one record; "
                             f"cluster {empty[0]} has none")

    dim_x = property(lambda self: self.covariates_x.shape[1])
    dim_z = property(lambda self: self.covariates_z.shape[1])
    dim_u = property(lambda self: self.covariates_u.shape[1])

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.cluster_index, minlength=self.num_clusters)

    @cached_property
    def records(self) -> tuple:
        """The rows as :class:`ParticipantRecord` views of the columns, built on
        first access for the benchmark's likelihood oracle check and the tests."""
        o = self.event_offsets.tolist()
        return tuple(
            ParticipantRecord(c, p, f, d, self.event_times[o[i]:o[i + 1]], self.covariates_x[i],
                              self.covariates_z[i], self.covariates_u[i])
            for i, (c, p, f, d) in enumerate(zip(
                self.cluster_index.tolist(), self.participant_index.tolist(),
                self.followup_time.tolist(), self.event_indicator.tolist())))

    def __len__(self) -> int:
        return self.followup_time.size


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
