"""Domain types of the joint recurrent/terminal event model: the dataset,
baseline hazards, mixture and parameter states, hyperparameters, and the
names of the model variants, baseline hazards and likelihood modes.

A :class:`Dataset` holds covariate matrices and CSR event times that the
loader, simulator and sampler engine share; its data rules are checked once,
when it is built.  :attr:`Dataset.records` is a derived per-participant
view, kept for the benchmark's likelihood oracle check and the tests.

The observed-data likelihood is evaluated in one place only, the
vectorized :class:`recurjoint.sampler.SamplerEngine`.  A piecewise
baseline has one representation, shared by the engine, the simulator and
:func:`cumulative_baseline_hazard`: the knots ``H[g]``, the cumulative
hazard at each interval's start (:func:`piecewise_knots`), and each time's
interval with its offset from that interval's start
(:func:`piecewise_intervals`), so that ``Lambda0(t) = H[g] + lambda_g o``
costs O(1) per time and no array spans records by levels.
Every type is an immutable value object, safe to share across workers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

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
    out = np.array(a, dtype=dtype)
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

        # every occurrence of a (cluster, participant) key after its first:
        # lexsort is stable, so each run of equal keys keeps record order
        order = np.lexsort((participant, cluster))
        by_cluster, by_participant = cluster[order], participant[order]
        duplicate = np.zeros(n, dtype=bool)
        duplicate[order[1:]] = ((by_cluster[1:] == by_cluster[:-1])
                                & (by_participant[1:] == by_participant[:-1]))
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
    def records(self) -> "_Records":
        """The rows as :class:`ParticipantRecord` views of the columns, for
        the benchmark's likelihood oracle check and the tests: a sequence
        that builds a row only when it is read."""
        return _Records(self)

    def __len__(self) -> int:
        return self.followup_time.size


@dataclass(frozen=True, eq=False)
class _Records(Sequence):
    """The rows of a :class:`Dataset`, built one at a time on indexing."""

    _dataset: Dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = range(len(self))[index]  # normalizes a negative index, raises IndexError
        ds = self._dataset
        start, stop = ds.event_offsets[i:i + 2].tolist()
        return ParticipantRecord(
            int(ds.cluster_index[i]), int(ds.participant_index[i]), float(ds.followup_time[i]),
            int(ds.event_indicator[i]), ds.event_times[start:stop], ds.covariates_x[i],
            ds.covariates_z[i], ds.covariates_u[i])


@dataclass(frozen=True)
class PiecewiseConstantHazard:
    """Piecewise-constant baseline hazard on a grid ``0 = s_0 < ... < s_G``:
    level g holds on ``(s_g, s_{g+1}]``.

    Beyond ``s_G`` the last level is extended, since the grid is built from
    observed recurrent times while follow-up times can exceed it.  Grid
    points and levels must be finite; a rule broken is named with its field
    and first bad index.
    """

    grid: np.ndarray      # length G+1, grid[0] == 0
    levels: np.ndarray    # length G, all > 0

    def __post_init__(self):
        object.__setattr__(self, "grid", check_grid(self.grid))
        object.__setattr__(self, "levels", _readonly(self.levels))
        if self.grid.size != self.levels.size + 1:
            raise ValueError("grid must have one more point than levels")
        bad = np.flatnonzero(~(np.isfinite(self.levels) & (self.levels > 0)))
        if bad.size:
            raise ValueError(f"levels[{bad[0]}] must be finite and strictly positive, "
                             f"got {self.levels[bad[0]]}")


@dataclass(frozen=True)
class PowerLawHazard:
    """Power-law baseline hazard ``shape * t**(shape - 1)``."""

    shape: float

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be finite and positive, got {self.shape}")


BaselineHazard = Union[PiecewiseConstantHazard, PowerLawHazard]


@dataclass(frozen=True)
class TruncatedDP:
    """Truncated stick-breaking mixture state (Ishwaran & James 2001).

    ``atoms`` holds the K atoms, ``raw_sticks`` the first K-1 stick
    fractions (the last is implicitly 1), ``assignments`` one 0-based atom
    index per latent unit.  The weights are not stored: they are
    :func:`recurjoint.dp.stick_to_weights` of the sticks.  No rule is
    checked here; :meth:`recurjoint.sampler.SamplerEngine.load_state` checks
    a mixture against the engine it is loaded into.
    """

    atoms: np.ndarray
    raw_sticks: np.ndarray
    assignments: np.ndarray
    concentration: float

    def __post_init__(self):
        # assignments keep their type, so that load_state sees an index of 1.7
        for name, dtype in (("atoms", float), ("raw_sticks", float), ("assignments", None)):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))


@dataclass(frozen=True)
class ParamState:
    """A full parameter vector, the input to
    :meth:`recurjoint.sampler.SamplerEngine.load_state`.

    ``unsusceptible`` is the latent zero-inflation indicator (1 marks a
    participant whose recurrent intensity is identically zero).
    ``cluster_effects`` takes the variant's form: a :class:`TruncatedDP`
    mixture over the clusters for BMZ-DP and BM-DP, an array of one normal
    effect per cluster for BMZ, and None for BZ-DP, which has none.

    Fields annotated as arrays are stored read-only, ``float`` ones as
    floats.  The engine holds the plain fields under these names, from one
    table, ``recurjoint.sampler._STATE_FIELDS``.  It copies the per-record
    arrays (frailties, flags, shape assignments), which its blocks write in
    place, and shares the others, which they replace; ``load_state`` checks
    a state against the engine before loading it.
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
    cluster_effects: TruncatedDP | np.ndarray | None
    kappa_dp: TruncatedDP
    baseline: BaselineHazard
    sigma2_beta: float = 1.0
    sigma2_alpha: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    raise ValueError(f"{f.name} must be a number, got {value!r}") from None
            elif "np.ndarray" in f.type and not isinstance(value, (TruncatedDP, type(None))):
                # flags keep their type, so that load_state sees a flag of 0.5 or 2
                value = _readonly(value, None if f.name == "unsusceptible" else float)
            object.__setattr__(self, f.name, value)


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
        # each field is checked against its annotation: a bool is true or
        # false, an int at least 1, a float a number, positive unless optional
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if kind != f.type and value is None:
                continue
            is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if kind == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
            if kind == "int" and not (is_int and value >= 1):
                raise ValueError(f"{f.name} must be {'None or ' if kind != f.type else ''}an "
                                 f"integer of at least 1, got {value!r}")
            if kind == "float" and not (is_int or isinstance(value, (float, np.floating))):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.type == "float" and not value > 0:
                raise ValueError(f"{f.name} must be strictly positive")
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

def check_grid(grid) -> np.ndarray:
    """``grid`` as a read-only float array, once it is checked to be a
    piecewise grid: at least two finite points, the first 0, strictly
    increasing.  The first point that breaks a rule is named by its index."""
    grid = _readonly(grid)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"grid must be a list of at least two points, got shape {grid.shape}")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"grid[{bad[0]}] must be finite, got {grid[bad[0]]}")
    if grid[0] != 0.0:
        raise ValueError(f"grid[0] must be 0, got {grid[0]}")
    bad = np.flatnonzero(np.diff(grid) <= 0)
    if bad.size:
        raise ValueError(f"grid must be strictly increasing: grid[{bad[0] + 1}] = "
                         f"{grid[bad[0] + 1]} does not exceed grid[{bad[0]}] = {grid[bad[0]]}")
    return grid


def piecewise_knots(widths: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The cumulative hazard at the start of each of the G intervals,
    ``H[g] = sum_{h<g} levels[h] * widths[h]``, from the interval widths
    ``np.diff(grid)``.  With :func:`piecewise_intervals` it is the one
    representation of a piecewise baseline that the engine,
    :func:`cumulative_baseline_hazard` and the simulator's inverse share:
    ``Lambda0(t) = H[g] + levels[g] * o`` for a time t in interval g at
    offset o."""
    knots = np.zeros(levels.size)
    np.add.accumulate(levels[:-1] * widths[:-1], out=knots[1:])
    return knots


def piecewise_intervals(starts: np.ndarray, values) -> tuple:
    """The interval holding each of ``values`` among the intervals that
    begin at the rising ``starts`` (``starts[0] = 0``), as int32, and each
    value's offset from its interval's start.  Interval g is
    ``(starts[g], starts[g + 1]]``; the first also holds what lies at or
    below its start and the last extends without end.  The starts are a
    grid's points but its last (a follow-up or an event time to place) or
    :func:`piecewise_knots` (a cumulative hazard to invert)."""
    interval = np.searchsorted(starts[1:], values, side="left").astype(np.int32)
    return interval, values - starts[interval]


def cumulative_baseline_hazard(t, baseline: BaselineHazard):
    """Closed-form integral of the baseline hazard over ``(0, t]``, at each
    of the times ``t``: a float for a scalar ``t``, else an array of its shape.

    For the piecewise variant, times beyond the last grid point extend the
    final level.  Monotone nondecreasing in t with value 0 at t = 0; a
    negative time raises ValueError.
    """
    times = np.asarray(t, dtype=float)
    if (times < 0).any():
        raise ValueError(f"time must be nonnegative, got {times[times < 0].flat[0]}")
    if isinstance(baseline, PowerLawHazard):
        total = times ** baseline.shape
    else:
        grid, levels = baseline.grid, baseline.levels
        interval, offset = piecewise_intervals(grid[:-1], times)
        total = piecewise_knots(np.diff(grid), levels)[interval] + levels[interval] * offset
    return float(total) if total.ndim == 0 else total
