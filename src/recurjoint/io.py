"""File formats: the events CSV, the truth sidecar, JSON configs, chain
trace files and summary documents.

Decimal values are serialized with 17 significant digits so every format
round-trips losslessly at full double precision.

The events file is a header row (``cluster_id, participant_id,
followup_time, event_indicator, event_times``, then the ``x_*``, then the
``z_*``, then the ``u_*`` covariate columns) and one row per record.  Each
covariate group is read in file order, whatever follows its prefix
(``x_age`` is an x column); a header whose groups interleave is refused,
naming the first column out of place.  Its grammar:

- cells are separated by commas; a cell may be wrapped in double quotes,
  inside which a doubled quote stands for one, but it may not span lines
  and must be closed, also at the end of the file;
- lines end in LF, CRLF or CR, and the last one may lack an ending;
- a number may have whitespace around it and a leading ``+`` or ``-``;
  the id and indicator cells are integers in the int64 range, the others
  decimals as Python's ``float`` spells them (``nan`` and ``inf`` parse,
  and the :class:`Dataset` rules then reject them where they are not
  allowed), in ASCII digits without digit separators such as ``1_000``;
- ``event_times`` holds the record's times joined by ``;``, or nothing;
- a blank line is an error, as is any row with the wrong number of cells.

A chain trace is a header row and one row of decimals per kept draw, under
the same rules.  Both readers hand numpy's C reader the file one line at a
time, holding neither its text nor a Python object per cell; a row-by-row
loop in Python re-reads the file only when the reader rejects it, to name
the first bad row and cell.

A fit config is a JSON object of four sections, each optional; a key left
out takes the default of the dataclass field it sets:

- ``model``: McmcConfig's ``variant``, ``baseline_variant`` and
  ``likelihood_mode`` (strings) and ``grid`` (a list of numbers, or null),
  and ``fixed_p``;
- ``mcmc``: McmcConfig's other fields, all integers: ``iterations`` (10000),
  ``burn_in`` (5000), ``thin`` (1), ``chains`` (1), ``seed`` (0) and
  ``adapt_window`` (50);
- ``hyper``: Hyperparams's fields, of the types it annotates; ``fixed_p``
  may be set here or in the model section, not in both;
- ``scales``: ProposalScales's fields, positive numbers.

A study config holds the integers ``n`` (600), ``j`` (20), ``replicates``
(25, at least 1) and ``seed`` (0), ``variants`` (distinct model variants,
["BMZ-DP"]), ``baseline_variant`` ("piecewise"), and a fit config's
``mcmc``, ``hyper`` and ``scales`` sections, but its mcmc section takes
``likelihood_mode`` and no ``seed``: each cell's comes from the study seed.

An integer setting (a field annotated ``int`` or ``int | None``) may be
written as an integral float such as 100.0.  A document or section that is
not a JSON object, an unknown key and a wrong type are refused by name.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import Dataset, Hyperparams, PowerLawHazard, RecordError
from .sampler import ChainTrace, McmcConfig, ProposalScales
from .simulate import SimTruth

__all__ = [
    "write_dataset",
    "load_dataset",
    "truth_to_dict",
    "read_settings",
    "config_objects",
    "parse_config",
    "config_to_dict",
    "MCMC_TYPES",
    "write_chain_trace",
    "read_chain_trace",
    "write_json",
    "read_json",
]

# ---------------------------------------------------------------------------
# Events CSV
# ---------------------------------------------------------------------------

_FIXED_COLUMNS = ["cluster_id", "participant_id", "followup_time", "event_indicator",
                  "event_times"]
# the prefixes of the x, z and u covariate columns, in file order
_PREFIXES = ("x_", "z_", "u_")
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
    # "%.17g" writes the same text as format(v, ".17g"), nan and -0 included
    times = ["%.17g" % t for t in dataset.event_times.tolist()]
    covariates = np.hstack([dataset.covariates_x, dataset.covariates_z, dataset.covariates_u])
    line = "%d,%d,%.17g,%d,%s" + ",%.17g" * covariates.shape[1] + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(_dataset_header(dataset))
        for cluster, participant, followup, event, start, stop, row in zip(
                dataset.cluster_index.tolist(), dataset.participant_index.tolist(),
                dataset.followup_time.tolist(), dataset.event_indicator.tolist(),
                offsets, offsets[1:], covariates.tolist()):
            fh.write(line % (cluster, participant, followup, event,
                             ";".join(times[start:stop]), *row))


def _int64(text: str) -> int:
    """An integer cell; out of the int64 range of the Dataset columns it
    does not parse."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def _record_error(path, header: list, line_no: int, row: list) -> ValueError | None:
    """The error for an events row that is short, long or holds a cell
    Python's ``int`` or ``float`` does not parse; None when it has none."""
    if len(row) != len(header):
        return ValueError(f"{path}: row {line_no}: expected {len(header)} columns, got {len(row)}")
    for col, cell in enumerate(row):
        parse, kind = (_int64, "a 64-bit integer") if col in (0, 1, 3) else (float, "a number")
        for value in (cell.split(";") if cell else []) if col == 4 else [cell]:
            try:
                parse(value)
            except ValueError:
                return ValueError(f"{path}: row {line_no}, column {col + 1} "
                                  f"({header[col]}): not {kind}: {value!r}")
    return None


def _ends_in_quote(line: str) -> bool:
    """Whether ``line``, a whole row of a CSV file, ends inside a quoted
    cell.  Quotes come in pairs in a row of closed cells (the opening and
    closing ones, and each doubled one); a quote inside an unquoted cell
    leaves the cell no number, which the readers name."""
    return line.count('"') % 2 == 1


def _numpy_rows(fh, empty: np.ndarray) -> np.ndarray:
    """The rows of the lines left in the open CSV file ``fh``, parsed by
    numpy's C reader one line at a time into an array like ``empty``, which
    is returned when no line is left.  numpy skips a blank line and joins a
    quoted cell that spans lines, so the lines are counted, and fewer rows
    than lines raise ValueError.  It ends a quoted cell left open at the end
    of the file there, so a last line that ends inside one raises ValueError
    too.  A warning is raised as well: numpy < 2 reads "1.5" in an integer
    column as 1 with only a DeprecationWarning."""
    count, last = 0, ""

    def lines():
        nonlocal count, last
        for count, last in enumerate(fh, start=1):
            yield last

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines(), empty.dtype, delimiter=",", comments=None,
                              quotechar='"', ndmin=empty.ndim)
        except UserWarning:  # numpy warns that an input without lines has no data
            if count:
                raise
    if not count:
        return empty
    if len(rows) != count:
        raise ValueError(f"{len(rows)} rows in {count} lines")
    if _ends_in_quote(last):
        raise ValueError("the last line ends inside a quoted cell")
    return rows


def _raise_row_error(fh, path, err: Exception, row_error) -> None:
    """Raise the error ``row_error(path, header, line_no, row)`` gives for
    the first bad row of the open CSV file ``fh``, which numpy's reader
    rejected with ``err``, numbered by the file line it starts on; with
    none, name the first record whose quoted cell spans lines.  It re-reads
    the file from the top, parsing each cell in Python, so it runs only to
    name an error.  Past the last row, it names a quoted cell left open at
    the end of the file, which Python's reader also ends there."""
    fh.seek(0)
    last = ""

    def lines():
        nonlocal last
        for last in fh:
            yield last

    reader = csv.reader(lines())
    header = next(reader)
    start, spanning, row = reader.line_num + 1, None, None
    for row in reader:
        error = row_error(path, header, start, row)
        if error is not None:
            raise error from None
        if spanning is None and reader.line_num > start:
            col = next(k for k, cell in enumerate(row) if "\n" in cell or "\r" in cell)
            spanning = ValueError(f"{path}: row {start}, column {col + 1} ({header[col]}): "
                                  f"a quoted cell spans lines {start} to {reader.line_num}")
        first, start = start, reader.line_num + 1
    if spanning is None and row is not None and _ends_in_quote(last):
        # the row has a cell per column, so the open one is the last column
        spanning = ValueError(f"{path}: row {first}, column {len(row)} ({header[-1]}): "
                              f"a quoted cell is not closed before the end of the file")
    raise spanning or ValueError(
        f"{path}: numpy's reader rejects a cell that Python's int and float accept, such as one "
        f"with a digit separator (1_000) or non-ASCII digits (numpy.loadtxt, whose rows count "
        f"the data lines from 0: {err})") from err


def _covariate_counts(path, header: list) -> tuple:
    """The numbers of x_, z_ and u_ columns after the fixed ones of an events
    header.  ValueError names the first column that has none of the prefixes
    or follows a column of a later group."""
    group = 0
    counts = [0, 0, 0]
    for col, name in enumerate(header[len(_FIXED_COLUMNS):], start=len(_FIXED_COLUMNS) + 1):
        own = next((k for k, prefix in enumerate(_PREFIXES) if name.startswith(prefix)), None)
        if own is None:
            raise ValueError(f"{path}: unrecognized column {col} ({name}) in header; covariate "
                             f"columns start with x_, z_ or u_")
        if own < group:
            raise ValueError(f"{path}: column {col} ({name}) follows a {_PREFIXES[group]} "
                             f"column; the covariate columns must be the x_ columns, then "
                             f"the z_, then the u_")
        group = own
        counts[own] += 1
    return tuple(counts)


def load_dataset(path) -> Dataset:
    """Parse an events file in the module docstring's grammar; a cell that
    does not parse and a record that breaks a :class:`Dataset` data rule
    are both reported by file row and column.  numpy's C reader parses the
    rows a line at a time, and the event times in one more call."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty events file")
        if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
            raise ValueError(f"{path}: malformed header, expected leading columns "
                             f"{_FIXED_COLUMNS}")
        p, q, r = _covariate_counts(path, header)

        dtype = np.dtype([("cluster", "i8"), ("participant", "i8"), ("followup", "f8"),
                          ("event", "i8"), ("times", "O"), ("covariates", "f8", (p + q + r,))])
        try:
            rows = _numpy_rows(fh, np.empty(0, dtype))
            cells = rows["times"].tolist()
            # the strings are freed with the list, before the times are
            # parsed and the row fields copied
            rows["times"] = None
            joined = ";".join(filter(None, cells))
            counts = [cell.count(";") + 1 if cell else 0 for cell in cells]
            del cells
            times = (np.loadtxt([joined], delimiter=";", comments=None, ndmin=1) if joined
                     else np.empty(0))
            del joined
        except (ValueError, Warning) as err:
            _raise_row_error(fh, path, err, _record_error)

    cluster_ids, cluster_index = np.unique(rows["cluster"], return_inverse=True)
    covariates = rows["covariates"]
    try:
        return Dataset(
            cluster_index=cluster_index, participant_index=rows["participant"],
            followup_time=rows["followup"], event_indicator=rows["event"], event_times=times,
            event_offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            covariates_x=covariates[:, :p], covariates_z=covariates[:, p:p + q],
            covariates_u=covariates[:, p + q:], num_clusters=cluster_ids.size)
    except RecordError as err:
        col = _FIELD_COLUMN[err.field]
        raise ValueError(f"{path}: row {err.position + 2}, column {col + 1} ({header[col]}): "
                         f"{err.reason}") from None


# ---------------------------------------------------------------------------
# Truth sidecar
# ---------------------------------------------------------------------------

def truth_to_dict(truth: SimTruth) -> dict:
    """``truth`` as plain JSON values, one key per field, with the fields
    :class:`SimTruth` marks latent under ``"latents"``."""
    doc = {"latents": {}}
    for f in fields(truth):
        value = getattr(truth, f.name)
        if f.name == "baseline":
            value = ({"variant": "powerlaw", "shape": float(value.shape)}
                     if isinstance(value, PowerLawHazard) else
                     {"variant": "piecewise", "grid": value.grid.tolist(),
                      "levels": value.levels.tolist()})
        else:
            value = np.asarray(value).tolist()
        (doc["latents"] if f.metadata.get("latent") else doc)[f.name] = value
    return doc


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------

_SECTIONS = ("model", "hyper", "mcmc", "scales")
# the McmcConfig fields a fit config's model section holds; its mcmc section
# holds the others, which are all integers
_MODEL_FIELDS = ("variant", "baseline_variant", "likelihood_mode", "grid")
MCMC_TYPES = {name: kind for name, kind in McmcConfig.__annotations__.items()
              if name not in _MODEL_FIELDS}


def read_settings(doc, types: dict, where: str) -> dict:
    """The settings of ``doc``, found in ``where``: a JSON object keyed by
    keys of ``types``, their annotations (None: checked elsewhere).  A
    ``dict`` must be a JSON object, an ``int`` an integer (100.0 is read as
    100) and an ``int | None`` one or null; ValueError names what is not."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    read = dict(doc)
    for key, value in doc.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r} in {where}; known keys: "
                             f"{', '.join(sorted(types))}")
        kind = types[key]
        if kind == "dict" and not isinstance(value, dict):
            raise ValueError(f"{key} in {where} must be a JSON object, got {value!r}")
        if kind == "int" or kind == "int | None" and value is not None:
            if not (type(value) is int or isinstance(value, float) and value.is_integer()):
                raise ValueError(f"{key} in {where} must be an integer, got {value!r}")
            read[key] = int(value)
    return read


def config_objects(hyper: dict, scales: dict, where: str) -> tuple:
    """Hyperparams and ProposalScales from the hyper and scales sections of
    the config ``where``, read by :func:`read_settings`."""
    return tuple(cls(**read_settings(doc, cls.__annotations__, f"{where}'s {section} section"))
                 for doc, cls, section in ((hyper, Hyperparams, "hyper"),
                                           (scales, ProposalScales, "scales")))


def parse_config(doc: dict) -> tuple:
    """Build (McmcConfig, Hyperparams, ProposalScales) from a fit config, as
    the module docstring sets it out; ``fixed_p`` in both sections that may
    hold it raises ValueError."""
    sections = read_settings(doc, dict.fromkeys(_SECTIONS, "dict"), "the config")
    model, hyper, mcmc, scales = (sections.get(name, {}) for name in _SECTIONS)
    model = read_settings(model, dict.fromkeys((*_MODEL_FIELDS, "fixed_p")),
                          "the config's model section")
    mcmc = read_settings(mcmc, MCMC_TYPES, "the config's mcmc section")
    if "fixed_p" in model:
        if "fixed_p" in hyper:
            raise ValueError("fixed_p is set in both the config's model and hyper sections")
        hyper = {**hyper, "fixed_p": model.pop("fixed_p")}
    return (McmcConfig(**model, **mcmc), *config_objects(hyper, scales, "the config"))


def config_to_dict(config: McmcConfig, hyper: Hyperparams) -> dict:
    """The fully resolved configuration, embedded in every output document:
    a fit config that :func:`parse_config` reads back to ``config`` and
    ``hyper``."""
    mcmc = {f.name: getattr(config, f.name) for f in fields(config)}
    model = {name: mcmc.pop(name) for name in _MODEL_FIELDS}
    return {"model": model, "mcmc": mcmc, "hyper": dict(vars(hyper))}


# ---------------------------------------------------------------------------
# Chain traces
# ---------------------------------------------------------------------------

def write_chain_trace(trace: ChainTrace, prefix) -> None:
    """Write one chain as ``<prefix>.csv`` (parameter draws plus the total
    log likelihood) and ``<prefix>_loglik.npy`` (a length-N vector: each
    participant's ``log sum_s exp(-l_si)`` over the kept draws, from which
    its CPO follows)."""
    prefix = Path(prefix)
    # "%.17g" writes the same text as format(v, ".17g"), nan and -0 included
    line = ",".join(["%.17g"] * (len(trace.columns) + 1)) + "\n"
    with open(prefix.with_suffix(".csv"), "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(trace.columns + ["total_loglik"])
        for row, total in zip(trace.draws, trace.total_loglik.tolist()):
            fh.write(line % (*row.tolist(), total))
    np.save(str(prefix) + "_loglik.npy", trace.neg_loglik_lse)


def _trace_row_error(path, header: list, line_no: int, row: list) -> ValueError | None:
    """The error for a trace row with more or fewer cells than its header,
    naming the first column missing from it or the first one past the
    header, or for a cell Python's ``float`` does not parse; None when the
    row has neither."""
    if len(row) != len(header):
        col = min(len(row), len(header))
        name = f" ({header[col]}): missing" if col < len(header) else ": not in the header"
        return ValueError(f"{path}: row {line_no}, column {col + 1}{name}; the row has "
                          f"{len(row)} cells, the header {len(header)} columns")
    for col, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            return ValueError(f"{path}: row {line_no}, column {col + 1} ({header[col]}): "
                              f"not a number: {cell!r}")
    return None


def read_chain_trace(prefix, manifest: dict, chain_index: int) -> ChainTrace:
    """Re-read chain ``chain_index`` of a fit written by
    :func:`write_chain_trace`; the acceptance rates, final proposal scales
    and piecewise grid come from the fit's manifest.  The draws are parsed
    as the module docstring sets out."""
    prefix = Path(prefix)
    path = prefix.with_suffix(".csv")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty trace file, expected a header row")
        try:
            data = _numpy_rows(fh, np.empty((0, len(header))))
            if data.shape[1] != len(header):
                raise ValueError(f"{data.shape[1]} columns under a header of {len(header)}")
        except (ValueError, Warning) as err:
            _raise_row_error(fh, path, err, _trace_row_error)
    loglik_path = str(prefix) + "_loglik.npy"
    neg_loglik_lse = np.load(loglik_path)
    if neg_loglik_lse.ndim != 1:
        raise ValueError(f"{loglik_path}: expected one value per participant, found an array "
                         f"of shape {neg_loglik_lse.shape}; a draws-by-participants matrix "
                         f"comes from an older version, so refit to rebuild it")
    grid = manifest["grid"]
    return ChainTrace(columns=header[:-1], draws=data[:, :-1], neg_loglik_lse=neg_loglik_lse,
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
