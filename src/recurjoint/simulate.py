"""Synthetic clustered datasets with zero-inflated recurrent events and a
censored terminal event, with all generating values and per-participant
latents retained for bias/coverage scoring.

The generator draws, per participant: three terminal-model covariates
(N(0, 0.1^2)), recurrent-model covariates sharing the first two, a
susceptibility covariate vector as the union of the two, a log-normal
frailty, a cluster effect from a five-component normal mixture, a shape
parameter uniform over a four-value set, and a latent unsusceptibility
indicator from the logistic model.  Censoring flips a fair coin and, when
censored, truncates the survival time uniformly.

Recurrent events follow a Poisson process with intensity
``r_i * lambda0(t)`` on the follow-up window ``(0, T_i]``, where ``r_i`` is
the frailty times the exponentiated recurrent predictor and cluster effect,
and 0 for an unsusceptible participant.  All records are drawn at once: a
Poisson(``r_i * Lambda0(T_i)``) count each, then the order statistics of iid
draws with density ``lambda0 / Lambda0(T_i)`` on ``(0, T_i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import type7_quantiles
from .model import (
    BASELINE_VARIANTS,
    BaselineHazard,
    Dataset,
    PiecewiseConstantHazard,
    PowerLawHazard,
    cumulative_baseline_hazard,
    piecewise_intervals,
    piecewise_knots,
)

__all__ = [
    "SimTruth",
    "check_design",
    "sample_terminal_times",
    "simulate_dataset",
    "TRUE_BETA",
    "TRUE_ALPHA",
    "TRUE_ALPHA0",
    "TRUE_XI1",
    "TRUE_XI2",
    "TRUE_ZETA",
    "PIECEWISE_LEVELS",
    "POWERLAW_SHAPE",
    "KAPPA_VALUES",
]

TRUE_BETA = np.array([0.4, 0.3, 0.2])
TRUE_ALPHA = np.array([0.2, 0.3, 0.4])
TRUE_ALPHA0 = 0.15
TRUE_XI1 = 0.1
TRUE_XI2 = -0.5
TRUE_ZETA = np.array([1.0, 1.0, 1.0, 1.0])
FRAILTY_LOG_VARIANCE = 0.3  # variance of log gamma
MU_MEANS = np.array([-0.4, -0.2, 0.0, 0.2, 0.4])
MU_SD = 0.1
KAPPA_VALUES = np.array([0.7, 2.2, 5.2, 8.2])
PIECEWISE_LEVELS = np.array([2.0, 2.3, 2.1, 2.4, 1.7])
POWERLAW_SHAPE = 1.5
COVARIATE_SD = 0.1
CENSOR_PROB = 0.5


@dataclass(frozen=True)
class SimTruth:
    """Everything the generator used.  The fields marked ``latent`` are
    per-participant (``cluster_mu``: per-cluster) draws; the rest are the
    generating values."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha0: float
    xi1: float
    xi2: float
    zeta: np.ndarray
    frailty_log_variance: float
    mu_means: np.ndarray
    mu_sd: float
    kappa_values: np.ndarray
    baseline: BaselineHazard
    baseline_variant: str
    seed: int
    gamma: np.ndarray = field(metadata={"latent": True})
    kappa: np.ndarray = field(metadata={"latent": True})
    unsusceptible: np.ndarray = field(metadata={"latent": True})
    cluster_mu: np.ndarray = field(metadata={"latent": True})
    uncensored_time: np.ndarray = field(metadata={"latent": True})
    susceptibility_prob: np.ndarray = field(metadata={"latent": True})


# ---------------------------------------------------------------------------
# Point-process and survival-time generators
# ---------------------------------------------------------------------------

def _inverse_cumulative(a: np.ndarray, baseline: BaselineHazard) -> np.ndarray:
    """The times at which the cumulative baseline hazard reaches each of
    ``a``; past the last grid point the last level extends."""
    if isinstance(baseline, PowerLawHazard):
        return a ** (1.0 / baseline.shape)
    grid, levels = baseline.grid, baseline.levels
    interval, excess = piecewise_intervals(piecewise_knots(np.diff(grid), levels), a)
    return grid[interval] + excess / levels[interval]


def _sample_events(rates: np.ndarray, baseline: BaselineHazard, horizons: np.ndarray,
                   rng: np.random.Generator, per_cluster: int = 1) -> tuple:
    """Event times of independent Poisson processes, one per record, with
    intensity ``rates[i] * lambda0(t)`` on ``(0, horizons[i]]``.

    Record i's count is Poisson(``rates[i] * Lambda0(horizons[i])``); given
    the counts, its times are the order statistics of iid draws with density
    ``lambda0 / Lambda0(horizons[i])``, made by inverting the cumulative
    baseline at ``U * Lambda0(horizons[i])`` for sorted uniforms U on (0, 1].
    A time that rounds past the horizon is set to it, and a time equal to
    the one before it in its record is dropped.  Records are laid out
    ``per_cluster`` to a cluster, which only names a record in the error for
    an expected count too large to sample.  Returns ``(times, counts)``, the
    times record by record, rising within each.
    """
    hazard = cumulative_baseline_hazard(horizons, baseline)
    budget = rates * hazard
    bad = np.flatnonzero(~(budget < 1e7))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"record {i} (participant {i % per_cluster} in cluster "
                         f"{i // per_cluster}): expected event count {budget[i]:.3g} "
                         f"is too large to sample")
    counts = rng.poisson(budget)
    owner = np.repeat(np.arange(rates.size), counts)
    total = owner.size
    if rates.size * total >= 2 ** 63:
        raise ValueError(f"{rates.size} records and {total} events overflow the int64 "
                         f"sort key record * events + rank")
    u = 1.0 - rng.random(total)
    # sorted within each record by one exact integer key, record * total +
    # the rank of u among all draws (a float key such as owner + u loses the
    # low bits of u at large owner values); owner already rises, so the
    # sorted keys' records line up with it and their remainders are ranks
    by_value = np.argsort(u)
    rank = np.empty(total, dtype=np.int64)
    rank[by_value] = np.arange(total)
    base = owner * total
    u = u[by_value[np.sort(base + rank) - base]]
    times = np.minimum(_inverse_cumulative(u * hazard[owner], baseline), horizons[owner])
    keep = np.ones(times.size, dtype=bool)
    keep[1:] = (times[1:] > times[:-1]) | (owner[1:] != owner[:-1])
    if not keep.all():
        times = times[keep]
        counts = np.bincount(owner[keep], minlength=rates.size)
    return times, counts


def sample_terminal_times(location: np.ndarray, kappa: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Vector of survival times ``exp(location + eps / kappa)`` with eps a
    standard minimum-type extreme value draw (``log(-log U)``)."""
    location = np.asarray(location, dtype=float)
    u = np.clip(rng.random(location.shape), 1e-300, None)
    eps = np.log(-np.log(u))
    return np.exp(location + eps / np.asarray(kappa, dtype=float))


# ---------------------------------------------------------------------------
# Full study generator
# ---------------------------------------------------------------------------

def check_design(n: int, j: int) -> None:
    """Reject a design of ``n`` participants in ``j`` clusters that
    :func:`simulate_dataset` cannot make, naming ``n`` or ``j``."""
    if n < 1:
        raise ValueError(f"n (participants) must be at least 1, got {n}")
    if j < 1:
        raise ValueError(f"j (clusters) must be at least 1, got {j}")
    if n % j:
        raise ValueError(f"n ({n} participants) must divide evenly into j ({j} clusters)")


def simulate_dataset(n: int, j: int, baseline_variant: str = "piecewise",
                     seed: int = 0) -> tuple:
    """Generate one clustered dataset of ``n`` participants in ``j``
    equal-size clusters together with its ground truth.

    The piecewise generator places the published level values on quintile
    grids of the realized follow-up times; the power-law generator uses
    shape 1.5.  Unsusceptible participants keep their terminal time and get
    recurrent-event rate 0, so no events.  Each susceptible participant's
    events are a Poisson(``r_i * Lambda0(T_i)``) count, then the order
    statistics of iid draws with density ``lambda0 / Lambda0(T_i)`` on the
    follow-up window ``(0, T_i]``, all participants in one pass.
    """
    check_design(n, j)
    if baseline_variant not in BASELINE_VARIANTS:
        raise ValueError(f"unknown baseline_variant {baseline_variant!r}")
    rng = np.random.default_rng(seed)
    per_cluster = n // j

    z = COVARIATE_SD * rng.standard_normal((n, 3))
    x_new = COVARIATE_SD * rng.standard_normal(n)
    x = np.column_stack([z[:, 0], z[:, 1], x_new])
    u_cov = np.column_stack([z, x_new])

    components = rng.integers(0, MU_MEANS.size, size=j)
    cluster_mu = MU_MEANS[components] + MU_SD * rng.standard_normal(j)
    cluster_of = np.repeat(np.arange(j), per_cluster)
    mu = cluster_mu[cluster_of]

    gamma = np.exp(math.sqrt(FRAILTY_LOG_VARIANCE) * rng.standard_normal(n))
    kappa = KAPPA_VALUES[rng.integers(0, KAPPA_VALUES.size, size=n)]
    p_unsusceptible = 1.0 / (1.0 + np.exp(-(u_cov @ TRUE_ZETA)))
    unsusceptible = (rng.random(n) < p_unsusceptible).astype(np.int8)

    location = (TRUE_ALPHA0 + z @ TRUE_ALPHA + TRUE_XI1 * np.log(gamma) + TRUE_XI2 * mu)
    survival = sample_terminal_times(location, kappa, rng)
    observed_event = (rng.random(n) < CENSOR_PROB).astype(np.int8)
    censor_frac = np.clip(rng.random(n), 1e-300, None)
    followup = np.where(observed_event == 1, survival, censor_frac * survival)

    if baseline_variant == "piecewise":
        g = PIECEWISE_LEVELS.size
        cuts = type7_quantiles(followup, np.arange(1, g) / g)
        grid = np.concatenate(([0.0], cuts, [followup.max()]))
        baseline = PiecewiseConstantHazard(grid, PIECEWISE_LEVELS)
    else:
        baseline = PowerLawHazard(POWERLAW_SHAPE)

    rate = np.where(unsusceptible == 0, gamma * np.exp(x @ TRUE_BETA + mu), 0.0)
    event_times, counts = _sample_events(rate, baseline, followup, rng, per_cluster)

    dataset = Dataset(cluster_index=cluster_of, participant_index=np.arange(n) % per_cluster,
                      followup_time=followup, event_indicator=observed_event,
                      event_times=event_times,
                      event_offsets=np.concatenate(([0], np.cumsum(counts))),
                      covariates_x=x, covariates_z=z, covariates_u=u_cov, num_clusters=j)
    truth = SimTruth(
        beta=TRUE_BETA.copy(), alpha=TRUE_ALPHA.copy(), alpha0=TRUE_ALPHA0,
        xi1=TRUE_XI1, xi2=TRUE_XI2, zeta=TRUE_ZETA.copy(),
        frailty_log_variance=FRAILTY_LOG_VARIANCE, mu_means=MU_MEANS.copy(),
        mu_sd=MU_SD, kappa_values=KAPPA_VALUES.copy(), baseline=baseline,
        baseline_variant=baseline_variant, seed=seed,
        gamma=gamma, kappa=kappa, unsusceptible=unsusceptible,
        cluster_mu=cluster_mu, uncensored_time=survival,
        susceptibility_prob=p_unsusceptible)
    return dataset, truth
