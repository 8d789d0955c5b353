"""File formats: the events CSV, the truth sidecar, JSON configs, chain
trace files and summary documents.

Decimal values are serialized with 17 significant digits so every format
round-trips losslessly at full double precision.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .model import Dataset, Hyperparams, ParticipantRecord
from .sampler import ChainTrace, McmcConfig, ProposalScales
from .simulate import SimTruth

__all__ = [
    "write_dataset",
    "load_dataset",
    "write_truth",
    "truth_to_dict",
    "parse_config",
    "load_config",
    "config_to_dict",
    "write_chain_trace",
    "read_chain_trace",
    "write_json",
    "read_json",
]

_FLOAT_FMT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


# ---------------------------------------------------------------------------
# Events CSV
# ---------------------------------------------------------------------------

def _dataset_header(dataset: Dataset) -> list:
    return (["cluster_id", "participant_id", "followup_time", "event_indicator", "event_times"]
            + [f"x_{i + 1}" for i in range(dataset.dim_x)]
            + [f"z_{i + 1}" for i in range(dataset.dim_z)]
            + [f"u_{i + 1}" for i in range(dataset.dim_u)])


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_dataset_header(dataset))
        for rec in dataset.records:
            row = [str(rec.cluster_index), str(rec.participant_index),
                   _fmt(rec.followup_time), str(rec.event_indicator),
                   ";".join(_fmt(t) for t in rec.recurrent_times)]
            row += [_fmt(v) for v in rec.covariates_x]
            row += [_fmt(v) for v in rec.covariates_z]
            row += [_fmt(v) for v in rec.covariates_u]
            writer.writerow(row)


def _count_prefixed(header: list, prefix: str) -> int:
    return sum(1 for h in header if h.startswith(prefix))


def load_dataset(path) -> Dataset:
    """Parse and validate an events file, reporting the row and column of
    the first violation."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty events file") from None
        fixed = ["cluster_id", "participant_id", "followup_time", "event_indicator", "event_times"]
        if header[: len(fixed)] != fixed:
            raise ValueError(f"{path}: malformed header, expected leading columns {fixed}")
        p = _count_prefixed(header, "x_")
        q = _count_prefixed(header, "z_")
        r = _count_prefixed(header, "u_")
        expected_cols = len(fixed) + p + q + r
        if len(header) != expected_cols:
            raise ValueError(f"{path}: unrecognized columns in header")

        raw_rows = []
        seen = set()
        for line_no, row in enumerate(reader, start=2):
            if len(row) != expected_cols:
                raise ValueError(f"{path}: row {line_no}: expected {expected_cols} columns, "
                                 f"got {len(row)}")

            def _floats(values, col0, label):
                out = []
                for k, v in enumerate(values):
                    try:
                        out.append(float(v))
                    except ValueError:
                        raise ValueError(f"{path}: row {line_no}, column {col0 + k + 1} "
                                         f"({label}): not a number: {v!r}") from None
                return out

            cluster = int(row[0])
            participant = int(row[1])
            if (cluster, participant) in seen:
                raise ValueError(f"{path}: row {line_no}: duplicate (cluster, participant) "
                                 f"key ({cluster}, {participant})")
            seen.add((cluster, participant))
            followup = _floats([row[2]], 2, "followup_time")[0]
            if row[3] not in ("0", "1"):
                raise ValueError(f"{path}: row {line_no}, column 4 (event_indicator): "
                                 f"must be 0 or 1, got {row[3]!r}")
            times = _floats(row[4].split(";"), 4, "event_times") if row[4] else []
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise ValueError(f"{path}: row {line_no}, column 5 (event_times): "
                                 "times are not strictly increasing")
            if times and (times[0] <= 0 or times[-1] > followup):
                raise ValueError(f"{path}: row {line_no}, column 5 (event_times): "
                                 "times must lie in (0, followup_time]")
            if followup <= 0:
                raise ValueError(f"{path}: row {line_no}, column 3 (followup_time): "
                                 "must be positive")
            x = _floats(row[5:5 + p], 5, "x")
            z = _floats(row[5 + p:5 + p + q], 5 + p, "z")
            u = _floats(row[5 + p + q:], 5 + p + q, "u")
            raw_rows.append((cluster, participant, followup, int(row[3]), times, x, z, u))

    cluster_ids = sorted({row[0] for row in raw_rows})
    remap = {cid: i for i, cid in enumerate(cluster_ids)}
    records = [ParticipantRecord(
        cluster_index=remap[cluster], participant_index=participant,
        followup_time=followup, event_indicator=event,
        recurrent_times=np.asarray(times), covariates_x=np.asarray(x),
        covariates_z=np.asarray(z), covariates_u=np.asarray(u))
        for cluster, participant, followup, event, times, x, z, u in raw_rows]
    if not records:
        return Dataset(records=(), num_clusters=0, dim_x=p, dim_z=q, dim_u=r)
    return Dataset(records=tuple(records), num_clusters=len(cluster_ids))


# ---------------------------------------------------------------------------
# Truth sidecar
# ---------------------------------------------------------------------------

def truth_to_dict(truth: SimTruth) -> dict:
    from .model import PiecewiseConstantHazard

    if isinstance(truth.baseline, PiecewiseConstantHazard):
        baseline = {"variant": "piecewise",
                    "grid": [float(v) for v in truth.baseline.grid],
                    "levels": [float(v) for v in truth.baseline.levels]}
    else:
        baseline = {"variant": "powerlaw", "shape": float(truth.baseline.shape)}
    return {
        "beta": [float(v) for v in truth.beta],
        "alpha": [float(v) for v in truth.alpha],
        "alpha0": float(truth.alpha0),
        "xi1": float(truth.xi1),
        "xi2": float(truth.xi2),
        "zeta": [float(v) for v in truth.zeta],
        "frailty_log_variance": float(truth.frailty_log_variance),
        "mu_means": [float(v) for v in truth.mu_means],
        "mu_sd": float(truth.mu_sd),
        "kappa_values": [float(v) for v in truth.kappa_values],
        "baseline": baseline,
        "baseline_variant": truth.baseline_variant,
        "seed": int(truth.seed),
        "latents": {
            "gamma": [float(v) for v in truth.gamma],
            "kappa": [float(v) for v in truth.kappa],
            "unsusceptible": [int(v) for v in truth.unsusceptible],
            "cluster_mu": [float(v) for v in truth.cluster_mu],
            "uncensored_time": [float(v) for v in truth.uncensored_time],
            "susceptibility_prob": [float(v) for v in truth.susceptibility_prob],
        },
    }


def write_truth(truth: SimTruth, path) -> None:
    write_json(truth_to_dict(truth), path)


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------

def parse_config(doc: dict) -> tuple:
    """Build (McmcConfig, Hyperparams, ProposalScales) from a config
    document with ``model``, ``hyper``, ``mcmc`` and optional ``scales``
    sections."""
    model = dict(doc.get("model", {}))
    hyper_doc = dict(doc.get("hyper", {}))
    mcmc = dict(doc.get("mcmc", {}))
    scales_doc = dict(doc.get("scales", {}))

    if "fixed_p" in model:
        hyper_doc.setdefault("fixed_p", model.pop("fixed_p"))
    grid = model.pop("grid", None)
    config = McmcConfig(
        iterations=int(mcmc.get("iterations", 10_000)),
        burn_in=int(mcmc.get("burn_in", 5_000)),
        thin=int(mcmc.get("thin", 1)),
        chains=int(mcmc.get("chains", 1)),
        seed=int(mcmc.get("seed", 0)),
        variant=model.get("variant", "BMZ-DP"),
        baseline_variant=model.get("baseline_variant", "piecewise"),
        likelihood_mode=model.get("likelihood_mode", "corrected"),
        adapt_window=int(mcmc.get("adapt_window", 50)),
        record_scales=bool(mcmc.get("record_scales", False)),
        grid=None if grid is None else tuple(float(v) for v in grid),
    )
    hyper = Hyperparams(**hyper_doc)
    scales = ProposalScales(**scales_doc)
    return config, hyper, scales


def load_config(path) -> tuple:
    return parse_config(read_json(path))


def config_to_dict(config: McmcConfig, hyper: Hyperparams) -> dict:
    """The fully resolved configuration, embedded in every output document."""
    return {
        "model": {
            "variant": config.variant,
            "baseline_variant": config.baseline_variant,
            "likelihood_mode": config.likelihood_mode,
            "grid": None if config.grid is None else [float(v) for v in config.grid],
        },
        "mcmc": {
            "iterations": config.iterations,
            "burn_in": config.burn_in,
            "thin": config.thin,
            "chains": config.chains,
            "seed": config.seed,
            "adapt_window": config.adapt_window,
        },
        "hyper": {k: v for k, v in vars(hyper).items()},
    }


# ---------------------------------------------------------------------------
# Chain traces
# ---------------------------------------------------------------------------

def write_chain_trace(trace: ChainTrace, prefix) -> None:
    """Write one chain as ``<prefix>.csv`` (parameter draws plus the total
    log likelihood) and ``<prefix>_loglik.npy`` (per-draw per-participant
    log likelihoods)."""
    prefix = Path(prefix)
    with open(prefix.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace.columns + ["total_loglik"])
        for row, total in zip(trace.draws, trace.total_loglik):
            writer.writerow([_fmt(v) for v in row] + [_fmt(total)])
    np.save(str(prefix) + "_loglik.npy", trace.participant_loglik)


def read_chain_trace(prefix, manifest: dict, chain_index: int) -> ChainTrace:
    """Re-read chain ``chain_index`` of a fit written by
    :func:`write_chain_trace`; the acceptance rates, final proposal scales
    and piecewise grid come from the fit's manifest."""
    prefix = Path(prefix)
    with open(prefix.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    part = np.load(str(prefix) + "_loglik.npy")
    grid = manifest["grid"]
    return ChainTrace(columns=header[:-1], draws=data[:, :-1], participant_loglik=part,
                      total_loglik=data[:, -1],
                      acceptance=manifest["acceptance"][chain_index],
                      final_scales=manifest["final_scales"][chain_index],
                      chain_index=chain_index, grid=None if grid is None else np.asarray(grid))


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
