"""Bayesian joint modeling of clustered, zero-inflated recurrent events
with a terminal event: simulation, MCMC inference for the full model and
its ablations, and diagnostic tooling."""

from .diagnostics import cpo_accumulate, cpo_lpml, gelman_rubin_psrf, replicate_aggregate
from .dp import posterior_stick_update, stick_to_weights, update_concentration
from .model import (
    BaselineHazard,
    Dataset,
    Hyperparams,
    ParamState,
    ParticipantRecord,
    PiecewiseConstantHazard,
    PowerLawHazard,
    TruncatedDP,
    cumulative_baseline_hazard,
)
from .sampler import (
    ChainTrace,
    McmcConfig,
    ProposalScales,
    SamplerEngine,
    adapt_scale,
    run_chain,
)
from .simulate import SimTruth, sample_terminal_times, simulate_dataset

__all__ = [
    "cpo_accumulate", "cpo_lpml", "gelman_rubin_psrf", "replicate_aggregate",
    "posterior_stick_update", "stick_to_weights", "update_concentration",
    "BaselineHazard", "Dataset", "Hyperparams", "ParamState", "ParticipantRecord",
    "PiecewiseConstantHazard", "PowerLawHazard", "TruncatedDP", "cumulative_baseline_hazard",
    "ChainTrace", "McmcConfig", "ProposalScales", "SamplerEngine", "adapt_scale", "run_chain",
    "SimTruth", "sample_terminal_times", "simulate_dataset",
]

__version__ = "0.1.0"
