"""Fit orchestration and the replicate-study harness: simulate, fit and
score many replicates per model variant, in parallel across workers."""

from __future__ import annotations

import time
import traceback
from dataclasses import replace

import numpy as np

from . import simulate as sim
from .diagnostics import cpo_lpml, gelman_rubin_psrf, replicate_aggregate, summarize_columns
from .io import MCMC_TYPES, config_objects, config_to_dict, read_settings
from .model import Dataset, Hyperparams, PowerLawHazard
from .sampler import McmcConfig, ProposalScales, run_chain

__all__ = [
    "run_fit",
    "build_summary",
    "fit_manifest",
    "scored_parameters",
    "run_replicate_study",
]

# the generating values a study scores, named as SimTruth and the trace name
# them: a vector's elements are the columns <name>_1, <name>_2, ...; "psi" is
# the power-law baseline's shape
_SCORED_NAMES = ("beta", "alpha", "zeta", "alpha0", "xi1", "xi2", "psi")


def scored_parameters(columns) -> list:
    """The columns scored against a generating truth: vector elements, then scalars."""
    elements = [c for c in columns
                if c.rpartition("_")[0] in _SCORED_NAMES and c.rpartition("_")[2].isdigit()]
    return elements + [name for name in _SCORED_NAMES if name in columns]


def _scored_truth(truth: sim.SimTruth) -> dict:
    """The generating values of ``truth`` that :func:`scored_parameters`
    can score, by trace column."""
    psi = truth.baseline.shape if isinstance(truth.baseline, PowerLawHazard) else None
    scored = {}
    for name in _SCORED_NAMES:
        value = psi if name == "psi" else getattr(truth, name)
        if np.ndim(value):
            scored.update((f"{name}_{i + 1}", float(v)) for i, v in enumerate(value))
        elif value is not None:
            scored[name] = float(value)
    return scored


# ---------------------------------------------------------------------------
# Single fit
# ---------------------------------------------------------------------------

def _workers(threads: int, count: int) -> int:
    """The worker processes that run ``count`` tasks given ``threads``: a
    pool of ``min(threads, count)`` when that is more than one, else 1, this
    process.  ``threads`` below 1 raises ValueError."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return max(1, min(threads, count))


def _map(fn, tasks: list, threads: int) -> list:
    """``[fn(t) for t in tasks]``, on the :func:`_workers` processes;
    results keep the order of ``tasks``."""
    workers = _workers(threads, len(tasks))
    if workers > 1:
        # imported here: the pool brings in multiprocessing, which a
        # single-worker command never needs
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at the first task, so no more than
        # there are tasks
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _chain_task(args):
    dataset, config, hyper, scales, index = args
    return run_chain(dataset, config, hyper, chain_index=index, scales=scales)


def run_fit(dataset: Dataset, config: McmcConfig, hyper: Hyperparams,
            scales: ProposalScales | None = None, threads: int = 1) -> list:
    """Run the configured number of independent chains."""
    tasks = [(dataset, config, hyper, scales, k) for k in range(config.chains)]
    return _map(_chain_task, tasks, threads)


def fit_manifest(traces, config: McmcConfig, hyper: Hyperparams) -> dict:
    first = traces[0]
    return {
        "config": config_to_dict(config, hyper),
        "seed": config.seed,
        "chains": len(traces),
        "columns": list(first.columns),
        "grid": None if first.grid is None else [float(v) for v in first.grid],
        "acceptance": [{k: float(v) for k, v in t.acceptance.items()} for t in traces],
        "final_scales": [{k: float(v) for k, v in t.final_scales.items()} for t in traces],
    }


def build_summary(traces, manifest: dict) -> dict:
    """Merged posterior summary across chains plus convergence and
    model-comparison scalars.  Works on in-memory or re-read traces."""
    columns = manifest["columns"]
    for t in traces:
        if t.columns != columns:
            raise ValueError(f"chain {t.chain_index}: trace columns differ from the manifest's")
    multi = len(traces) > 1
    entries = summarize_columns(np.concatenate([t.draws for t in traces]))
    parameters = {}
    for k, (name, entry) in enumerate(zip(columns, entries)):
        entry["psrf"] = gelman_rubin_psrf([t.draws[:, k] for t in traces]) if multi else None
        parameters[name] = entry

    total = [np.asarray(t.total_loglik) for t in traces]
    first = traces[0]
    for t in traces[1:]:
        if t.neg_loglik_lse.size != first.neg_loglik_lse.size:
            raise ValueError(f"chain {t.chain_index}: {t.neg_loglik_lse.size} per-participant "
                             f"CPO sums, but chain {first.chain_index} has "
                             f"{first.neg_loglik_lse.size}")
    neg_loglik_lse = np.logaddexp.reduce([t.neg_loglik_lse for t in traces])
    draws = sum(t.draws.shape[0] for t in traces)
    lpml = cpo_lpml(neg_loglik_lse, draws)[1] if neg_loglik_lse.size else None

    acceptance = {k: float(np.mean([rates[k] for rates in manifest["acceptance"]]))
                  for k in manifest["acceptance"][0]}

    return {
        "config": manifest["config"],
        "seed": manifest["seed"],
        "chains": manifest["chains"],
        "draws_per_chain": int(np.asarray(traces[0].draws).shape[0]),
        "grid": manifest["grid"],
        "parameters": parameters,
        "lpml": lpml,
        "total_loglik_psrf": gelman_rubin_psrf(total) if multi else None,
        "acceptance": acceptance,
    }


# ---------------------------------------------------------------------------
# Replicate study
# ---------------------------------------------------------------------------

# a study config's keys, each with its annotation and its default; the report
# records the config with the defaults filled in
_STUDY_KEYS = {"n": ("int", 600), "j": ("int", 20), "replicates": ("int", 25), "seed": ("int", 0),
               "variants": ("list", [McmcConfig.variant]),
               "baseline_variant": ("str", McmcConfig.baseline_variant),
               "mcmc": ("dict", {"iterations": McmcConfig.iterations,
                                 "burn_in": McmcConfig.burn_in}),
               "hyper": ("dict", {}), "scales": ("dict", {})}
_STUDY_TYPES = {key: kind for key, (kind, _) in _STUDY_KEYS.items()}
_STUDY_DEFAULTS = {key: default for key, (_, default) in _STUDY_KEYS.items()}
# a study's mcmc section takes a fit config's mcmc settings but the seed,
# which the study seed sets per cell, and the likelihood mode
_STUDY_MCMC_TYPES = {**{k: v for k, v in MCMC_TYPES.items() if k not in _STUDY_TYPES},
                     "likelihood_mode": McmcConfig.__annotations__["likelihood_mode"]}


def _resolve_study(study: dict) -> tuple:
    """The study config with its defaults filled in, as the report records
    it, and the objects every cell fits with: a McmcConfig per variant (its
    seed set per cell), the Hyperparams and the ProposalScales.  An unknown
    key or a bad value raises here, before any cell runs."""
    resolved = {**_STUDY_DEFAULTS, **read_settings(study, _STUDY_TYPES, "the study config")}
    resolved["mcmc"] = {**_STUDY_DEFAULTS["mcmc"], **read_settings(
        resolved["mcmc"], _STUDY_MCMC_TYPES, "the study config's mcmc section")}
    sim.check_design(resolved["n"], resolved["j"])
    if resolved["replicates"] < 1:
        raise ValueError(f"replicates in the study config must be at least 1, "
                         f"got {resolved['replicates']}")
    variants = resolved["variants"]
    if not (isinstance(variants, list) and all(isinstance(v, str) for v in variants)):
        raise ValueError(f"variants in the study config must be a list of variant names, "
                         f"got {variants!r}")
    if not variants:
        raise ValueError("variants in the study config is empty")
    for k, variant in enumerate(variants):
        if variant in variants[:k]:
            raise ValueError(f"variants in the study config names {variant!r} twice")
    configs = {variant: McmcConfig(**resolved["mcmc"], variant=variant,
                                   baseline_variant=resolved["baseline_variant"])
               for variant in variants}
    hyper, scales = config_objects(resolved["hyper"], resolved["scales"], "the study config")
    # recorded as read: an integral float as an integer
    resolved["hyper"] = {key: getattr(hyper, key) for key in resolved["hyper"]}
    return resolved, configs, hyper, scales


def _task_seed(study_seed: int, *key) -> int:
    return int(np.random.SeedSequence([study_seed, *key]).generate_state(1)[0])


def _study_task(args) -> dict:
    study, replicate, config, hyper, scales = args
    variant = config.variant
    try:
        data_seed = _task_seed(study["seed"], 1, replicate)
        dataset, truth = sim.simulate_dataset(study["n"], study["j"],
                                              study["baseline_variant"], seed=data_seed)
        variant_index = study["variants"].index(variant)
        config = replace(config, seed=_task_seed(study["seed"], 2, replicate, variant_index))
        traces = run_fit(dataset, config, hyper, scales=scales)
        manifest = fit_manifest(traces, config, hyper)
        summary = build_summary(traces, manifest)
        scored = scored_parameters(manifest["columns"])
        return {
            "ok": True, "replicate": replicate, "variant": variant,
            "summaries": {name: summary["parameters"][name] for name in scored},
            "truth": _scored_truth(truth),
            "lpml": summary["lpml"],
        }
    except Exception as exc:  # a failed replicate is recorded, not fatal
        return {"ok": False, "replicate": replicate, "variant": variant,
                "error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def run_replicate_study(study: dict, threads: int = 1) -> tuple:
    """Simulate, fit and score every (replicate, variant) cell.

    Returns ``(report, timing)``; the report is fully determined by the
    study config and seed, while wall-clock accounting goes into the
    separate timing document.  The report scores against the generating
    values of the :class:`~recurjoint.simulate.SimTruth` the cells simulate
    from, by trace column, and holds no truth when no cell succeeded.
    """
    study, configs, hyper, scales = _resolve_study(study)
    tasks = [(study, r, configs[v], hyper, scales) for r in range(study["replicates"])
             for v in study["variants"]]
    started = time.monotonic()
    results = _map(_study_task, tasks, threads)
    elapsed = time.monotonic() - started

    # every cell's generating values are the same
    truth = next((res["truth"] for res in results if res["ok"]), {})
    variants = {}
    failures = []
    for variant in study["variants"]:
        # one row per replicate, in replicate order
        rows = [res for res in results if res["variant"] == variant]
        failures += [{k: v for k, v in res.items() if k != "ok"} for res in rows if not res["ok"]]
        per_param = {}
        for res in rows:
            for name, summary in res.get("summaries", {}).items():
                per_param.setdefault(name, []).append(summary)
        variants[variant] = {
            "aggregate": replicate_aggregate(per_param, truth),
            "lpml": [res.get("lpml") for res in rows],
            "replicate_means": {name: [s["mean"] for s in summaries]
                                for name, summaries in per_param.items()},
            "failures": sum(not res["ok"] for res in rows),
        }

    report = {"study": study, "truth": truth, "variants": variants, "failures": failures}
    timing = {"total_seconds": elapsed, "tasks": len(tasks),
              "threads": _workers(threads, len(tasks)),
              "seconds_per_task": elapsed / max(len(tasks), 1)}
    return report, timing
