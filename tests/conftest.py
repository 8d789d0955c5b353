import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from recurjoint.model import (
    Dataset,
    Hyperparams,
    ParamState,
    ParticipantRecord,
    PiecewiseConstantHazard,
    TruncatedDP,
)
from recurjoint.sampler import SamplerEngine


def make_record(followup=1.0, delta=0, times=(), x=(0.0, 0.0, 0.0), z=(0.0, 0.0, 0.0),
                u=(0.0, 0.0, 0.0, 0.0), cluster=0, participant=0):
    return ParticipantRecord(
        cluster_index=cluster, participant_index=participant,
        followup_time=followup, event_indicator=delta,
        recurrent_times=np.asarray(times, dtype=float),
        covariates_x=np.asarray(x, dtype=float),
        covariates_z=np.asarray(z, dtype=float),
        covariates_u=np.asarray(u, dtype=float))


def make_dataset(records, num_clusters, dims=(3, 3, 4)):
    """Stack ``make_record`` rows into a columnar Dataset; ``dims`` gives the
    covariate widths of an empty one."""
    records = list(records)
    n = len(records)

    def matrix(name, width):
        return (np.array([getattr(r, name) for r in records], dtype=float).reshape(n, -1)
                if n else np.empty((0, width)))

    times = [np.asarray(r.recurrent_times, dtype=float) for r in records]
    return Dataset(
        cluster_index=[r.cluster_index for r in records],
        participant_index=[r.participant_index for r in records],
        followup_time=[r.followup_time for r in records],
        event_indicator=[r.event_indicator for r in records],
        event_times=np.concatenate([np.empty(0)] + times),
        event_offsets=np.cumsum([0] + [t.size for t in times]),
        covariates_x=matrix("covariates_x", dims[0]),
        covariates_z=matrix("covariates_z", dims[1]),
        covariates_u=matrix("covariates_u", dims[2]),
        num_clusters=num_clusters)


def uniform_sticks(k):
    return 1.0 / np.arange(k, 1, -1, dtype=float)


def make_dp(atoms, assignments, sticks=None, concentration=1.0):
    atoms = np.asarray(atoms, dtype=float)
    if sticks is None:
        sticks = uniform_sticks(atoms.size)
    return TruncatedDP(atoms, sticks, assignments, concentration)


def make_state(n=1, j=1, beta=(0.0, 0.0, 0.0), alpha=(0.0, 0.0, 0.0), alpha0=0.0,
               xi1=0.0, xi2=0.0, zeta=None, gamma=None, tau2=None, unsusceptible=None,
               mu_atoms=(0.0,), mu_assign=None, kappa_atoms=(1.0,), kappa_assign=None,
               baseline=None, mu_effects=None):
    """A state with a cluster-effect mixture of ``mu_atoms``, as the DP
    variants take it, or with the BMZ variant's array ``mu_effects``."""
    if mu_effects is not None:
        cluster_effects = np.asarray(mu_effects, dtype=float)
    else:
        cluster_effects = make_dp(mu_atoms, np.zeros(j, dtype=int) if mu_assign is None
                                  else mu_assign)
    if baseline is None:
        baseline = PiecewiseConstantHazard(np.array([0.0, 1.0]), np.array([1.0]))
    return ParamState(
        beta=np.asarray(beta, dtype=float),
        alpha=np.asarray(alpha, dtype=float),
        alpha0=alpha0, xi1=xi1, xi2=xi2,
        zeta=None if zeta is None else np.asarray(zeta, dtype=float),
        gamma=np.ones(n) if gamma is None else np.asarray(gamma, dtype=float),
        tau2=np.ones(j) if tau2 is None else np.asarray(tau2, dtype=float),
        unsusceptible=np.zeros(n, dtype=np.int8) if unsusceptible is None
        else np.asarray(unsusceptible, dtype=np.int8),
        cluster_effects=cluster_effects,
        kappa_dp=make_dp(kappa_atoms, np.zeros(n, dtype=int) if kappa_assign is None
                         else kappa_assign),
        baseline=baseline)


def engine_for(records, state, mode="corrected", num_clusters=1, hyper=None):
    """A BMZ-DP sampler engine over ``records`` holding ``state``."""
    dataset = make_dataset(records, num_clusters)
    piecewise = isinstance(state.baseline, PiecewiseConstantHazard)
    eng = SamplerEngine(dataset, hyper or Hyperparams(fixed_p=0.5), variant="BMZ-DP",
                        baseline_variant="piecewise" if piecewise else "powerlaw",
                        likelihood_mode=mode)
    eng.load_state(state)
    return eng


def engine_loglik(records, state, mode="corrected", num_clusters=1):
    """Per-record observed-data log likelihood of ``state``, as the sampler
    engine evaluates it."""
    return engine_for(records, state, mode, num_clusters).participant_loglik()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
