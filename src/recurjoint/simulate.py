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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BASELINE_VARIANTS,
    BaselineHazard,
    Dataset,
    PiecewiseConstantHazard,
    PowerLawHazard,
    cumulative_baseline_hazard,
)

__all__ = [
    "SimTruth",
    "sample_piecewise_nhpp",
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
    """Everything the generator used, including per-participant latents."""

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
    gamma: np.ndarray
    kappa: np.ndarray
    unsusceptible: np.ndarray
    cluster_mu: np.ndarray
    uncensored_time: np.ndarray
    susceptibility_prob: np.ndarray


# ---------------------------------------------------------------------------
# Point-process and survival-time generators
# ---------------------------------------------------------------------------

def _inverse_cumulative(a: float, baseline: BaselineHazard) -> float:
    if isinstance(baseline, PowerLawHazard):
        return a ** (1.0 / baseline.shape)
    grid, levels = baseline.grid, baseline.levels
    knots = np.cumsum(levels * np.diff(grid))
    i = int(np.searchsorted(knots, a, side="left"))
    if i >= knots.size:
        return float(grid[-1]) + (a - float(knots[-1])) / float(levels[-1])
    lower = 0.0 if i == 0 else float(knots[i - 1])
    return float(grid[i]) + (a - lower) / float(levels[i])


def sample_piecewise_nhpp(rate_multiplier: float, baseline: BaselineHazard,
                          horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Exact inversion sampler for a Poisson process with intensity
    ``rate_multiplier * lambda0(t)`` on ``(0, horizon]``.

    Unit-rate exponential gaps in transformed time are mapped back through
    the closed-form inverse of the cumulative baseline, so time-rescaled
    gaps of the output are exactly Exp(1).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if rate_multiplier <= 0.0:
        return np.empty(0)
    budget = rate_multiplier * cumulative_baseline_hazard(horizon, baseline)
    if not budget < 1e7:
        raise ValueError(f"expected event count {budget:.3g} is too large to sample")
    times = []
    total = rng.exponential()
    while total <= budget:
        times.append(_inverse_cumulative(total / rate_multiplier, baseline))
        total += rng.exponential()
    out = np.minimum(np.asarray(times), horizon)
    if out.size > 1:
        out = out[np.concatenate(([True], np.diff(out) > 0))]
    return out


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

def simulate_dataset(n: int, j: int, baseline_variant: str = "piecewise",
                     seed: int = 0) -> tuple:
    """Generate one clustered dataset of ``n`` participants in ``j``
    equal-size clusters together with its ground truth.

    The piecewise generator places the published level values on quintile
    grids of the realized follow-up times; the power-law generator uses
    shape 1.5.  Unsusceptible participants keep their terminal time but
    have their recurrent events removed.
    """
    if n % j:
        raise ValueError(f"participants ({n}) must divide evenly into clusters ({j})")
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
        cuts = np.quantile(followup, np.arange(1, g) / g)
        grid = np.concatenate(([0.0], cuts, [followup.max()]))
        baseline = PiecewiseConstantHazard(grid, PIECEWISE_LEVELS)
    else:
        baseline = PowerLawHazard(POWERLAW_SHAPE)

    rate = gamma * np.exp(x @ TRUE_BETA + mu)
    counts = np.zeros(n, dtype=np.int64)
    times = [np.empty(0)]
    for i in np.flatnonzero(unsusceptible == 0):
        times.append(sample_piecewise_nhpp(float(rate[i]), baseline, float(followup[i]), rng))
        counts[i] = times[-1].size

    dataset = Dataset(cluster_index=cluster_of, participant_index=np.arange(n) % per_cluster,
                      followup_time=followup, event_indicator=observed_event,
                      event_times=np.concatenate(times),
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
