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

from .model import Dataset, Hyperparams, RecordError
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

_FIXED_COLUMNS = ["cluster_id", "participant_id", "followup_time", "event_indicator",
                  "event_times"]
# file column of each per-record Dataset field
_FIELD_COLUMN = {"cluster_index": 0, "participant_index": 1, "followup_time": 2,
                 "event_indicator": 3, "event_times": 4}


def _dataset_header(dataset: Dataset) -> list:
    return (_FIXED_COLUMNS
            + [f"x_{i + 1}" for i in range(dataset.dim_x)]
            + [f"z_{i + 1}" for i in range(dataset.dim_z)]
            + [f"u_{i + 1}" for i in range(dataset.dim_u)])


def write_dataset(dataset: Dataset, path) -> None:
    offsets = dataset.event_offsets.tolist()
    times = [_fmt(t) for t in dataset.event_times.tolist()]
    covariates = np.hstack([dataset.covariates_x, dataset.covariates_z, dataset.covariates_u])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_dataset_header(dataset))
        for i, row in enumerate(covariates.tolist()):
            writer.writerow([str(dataset.cluster_index[i]), str(dataset.participant_index[i]),
                             _fmt(dataset.followup_time[i]), str(dataset.event_indicator[i]),
                             ";".join(times[offsets[i]:offsets[i + 1]])] + [_fmt(v) for v in row])


def _int64(text: str) -> int:
    """An integer cell; out of the int64 range of the Dataset columns it
    does not parse."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def _cell_error(path, line_no: int, header: list, row: list) -> ValueError:
    """The error for the first cell of ``row`` that does not parse."""
    for col, cell in enumerate(row):
        parse, kind = (_int64, "a 64-bit integer") if col in (0, 1, 3) else (float, "a number")
        for value in (cell.split(";") if cell else []) if col == 4 else [cell]:
            try:
                parse(value)
            except ValueError:
                return ValueError(f"{path}: row {line_no}, column {col + 1} ({header[col]}): "
                                  f"not {kind}: {value!r}")


def load_dataset(path) -> Dataset:
    """Parse an events file; a cell that does not parse and a record that
    breaks a :class:`Dataset` data rule are both reported by file row and
    column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty events file")
        if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
            raise ValueError(f"{path}: malformed header, expected leading columns "
                             f"{_FIXED_COLUMNS}")
        p, q, r = (sum(h.startswith(prefix) for h in header) for prefix in ("x_", "z_", "u_"))
        expected_cols = len(_FIXED_COLUMNS) + p + q + r
        if len(header) != expected_cols:
            raise ValueError(f"{path}: unrecognized columns in header")

        cluster, participant, followup, event, counts, times, covariates = ([] for _ in range(7))
        for line_no, row in enumerate(reader, start=2):
            if len(row) != expected_cols:
                raise ValueError(f"{path}: row {line_no}: expected {expected_cols} columns, "
                                 f"got {len(row)}")
            try:
                cluster.append(_int64(row[0]))
                participant.append(_int64(row[1]))
                followup.append(float(row[2]))
                event.append(_int64(row[3]))
                row_times = row[4].split(";") if row[4] else []
                times.extend(map(float, row_times))
                counts.append(len(row_times))
                covariates.extend(map(float, row[5:]))
            except ValueError:
                raise _cell_error(path, line_no, header, row) from None

    cluster_ids, cluster_index = np.unique(np.array(cluster, dtype=np.int64), return_inverse=True)
    covariates = np.array(covariates, dtype=float).reshape(len(followup), p + q + r)
    try:
        return Dataset(
            cluster_index=cluster_index, participant_index=participant,
            followup_time=followup, event_indicator=event, event_times=times,
            event_offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            covariates_x=np.ascontiguousarray(covariates[:, :p]),
            covariates_z=np.ascontiguousarray(covariates[:, p:p + q]),
            covariates_u=np.ascontiguousarray(covariates[:, p + q:]),
            num_clusters=cluster_ids.size)
    except RecordError as err:
        col = _FIELD_COLUMN[err.field]
        raise ValueError(f"{path}: row {err.position + 2}, column {col + 1} ({header[col]}): "
                         f"{err.reason}") from None


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
