"""Fit orchestration and the replicate-study harness: simulate, fit and
score many replicates per model variant, in parallel across workers."""

from __future__ import annotations

import re
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import simulate as sim
from .diagnostics import cpo_lpml, gelman_rubin_psrf, replicate_aggregate, summarize_columns
from .model import Dataset, Hyperparams
from .sampler import McmcConfig, ProposalScales, run_chain

__all__ = [
    "run_fit",
    "build_summary",
    "fit_manifest",
    "scored_parameters",
    "generator_truth",
    "run_replicate_study",
]

_SCORED_RE = re.compile(r"^(beta|alpha|zeta)_\d+$")


def scored_parameters(columns) -> list:
    """Regression-type parameters with a known generating truth."""
    out = [c for c in columns if _SCORED_RE.match(c)]
    out += [c for c in ("alpha0", "xi1", "xi2", "psi") if c in columns]
    return out


def generator_truth(baseline_variant: str = "piecewise") -> dict:
    truth = {f"beta_{i + 1}": float(v) for i, v in enumerate(sim.TRUE_BETA)}
    truth.update({f"alpha_{i + 1}": float(v) for i, v in enumerate(sim.TRUE_ALPHA)})
    truth["alpha0"] = sim.TRUE_ALPHA0
    truth["xi1"] = sim.TRUE_XI1
    truth["xi2"] = sim.TRUE_XI2
    truth.update({f"zeta_{i + 1}": float(v) for i, v in enumerate(sim.TRUE_ZETA)})
    if baseline_variant == "powerlaw":
        truth["psi"] = sim.POWERLAW_SHAPE
    return truth


# ---------------------------------------------------------------------------
# Single fit
# ---------------------------------------------------------------------------

def _map(fn, tasks: list, threads: int) -> list:
    """``[fn(t) for t in tasks]``, on a pool of ``threads`` worker processes
    when there is more than one of each; results keep the order of ``tasks``."""
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _chain_task(args):
    dataset, config, hyper, scales, seed, index = args
    return run_chain(dataset, config, hyper, seed=seed, chain_index=index, scales=scales)


def run_fit(dataset: Dataset, config: McmcConfig, hyper: Hyperparams,
            scales: ProposalScales | None = None, threads: int = 1) -> list:
    """Run the configured number of independent chains."""
    tasks = [(dataset, config, hyper, scales, config.seed, k) for k in range(config.chains)]
    return _map(_chain_task, tasks, threads)


def fit_manifest(traces, config: McmcConfig, hyper: Hyperparams) -> dict:
    from .io import config_to_dict

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

    acceptance = {}
    for rates in manifest["acceptance"]:
        for k, v in rates.items():
            acceptance.setdefault(k, []).append(v)
    acceptance = {k: float(np.mean(v)) for k, v in acceptance.items()}

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

def _resolve_study(study: dict) -> dict:
    resolved = {
        "n": int(study.get("n", 600)),
        "j": int(study.get("j", 20)),
        "replicates": int(study.get("replicates", 25)),
        "variants": list(study.get("variants", ["BMZ-DP"])),
        "baseline_variant": study.get("baseline_variant", "piecewise"),
        "seed": int(study.get("seed", 0)),
        "mcmc": dict(study.get("mcmc", {})),
        "hyper": dict(study.get("hyper", {})),
        "scales": dict(study.get("scales", {})),
    }
    resolved["mcmc"].setdefault("iterations", 10_000)
    resolved["mcmc"].setdefault("burn_in", 5_000)
    return resolved


def _task_seed(study_seed: int, *key) -> int:
    return int(np.random.SeedSequence([study_seed, *key]).generate_state(1)[0])


def _study_task(args) -> dict:
    study, replicate, variant = args
    try:
        data_seed = _task_seed(study["seed"], 1, replicate)
        dataset, truth = sim.simulate_dataset(study["n"], study["j"],
                                              study["baseline_variant"], seed=data_seed)
        variant_index = study["variants"].index(variant)
        mcmc = study["mcmc"]
        config = McmcConfig(
            iterations=int(mcmc["iterations"]), burn_in=int(mcmc["burn_in"]),
            thin=int(mcmc.get("thin", 1)), chains=int(mcmc.get("chains", 1)),
            seed=_task_seed(study["seed"], 2, replicate, variant_index),
            variant=variant, baseline_variant=study["baseline_variant"],
            likelihood_mode=mcmc.get("likelihood_mode", "corrected"),
            adapt_window=int(mcmc.get("adapt_window", 50)))
        hyper = Hyperparams(**study["hyper"])
        scales = ProposalScales(**study["scales"])
        traces = run_fit(dataset, config, hyper, scales=scales)
        manifest = fit_manifest(traces, config, hyper)
        summary = build_summary(traces, manifest)
        scored = scored_parameters(manifest["columns"])
        return {
            "ok": True, "replicate": replicate, "variant": variant,
            "summaries": {name: summary["parameters"][name] for name in scored},
            "lpml": summary["lpml"],
        }
    except Exception as exc:  # a failed replicate is recorded, not fatal
        return {"ok": False, "replicate": replicate, "variant": variant,
                "error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def run_replicate_study(study: dict, threads: int = 1) -> tuple:
    """Simulate, fit and score every (replicate, variant) cell.

    Returns ``(report, timing)``; the report is fully determined by the
    study config and seed, while wall-clock accounting goes into the
    separate timing document.
    """
    study = _resolve_study(study)
    tasks = [(study, r, v) for r in range(study["replicates"]) for v in study["variants"]]
    started = time.monotonic()
    results = _map(_study_task, tasks, threads)
    elapsed = time.monotonic() - started

    truth = generator_truth(study["baseline_variant"])
    variants = {}
    failures = []
    for variant in study["variants"]:
        rows = [res for res in results if res["variant"] == variant]
        ok_rows = [res for res in rows if res["ok"]]
        failures += [{"replicate": res["replicate"], "variant": variant, "error": res["error"],
                      "traceback": res["traceback"]}
                     for res in rows if not res["ok"]]
        per_param = {}
        for res in sorted(ok_rows, key=lambda r: r["replicate"]):
            for name, summary in res["summaries"].items():
                per_param.setdefault(name, []).append(summary)
        lpml = [None] * study["replicates"]
        means = {}
        for res in ok_rows:
            lpml[res["replicate"]] = res["lpml"]
        for name, summaries in per_param.items():
            means[name] = [s["mean"] for s in summaries]
        variants[variant] = {
            "aggregate": replicate_aggregate(per_param, truth),
            "lpml": lpml,
            "replicate_means": means,
            "failures": len(rows) - len(ok_rows),
        }

    report = {
        "study": study,
        "truth": truth,
        "variants": variants,
        "failures": failures,
    }
    timing = {
        "total_seconds": elapsed,
        "tasks": len(tasks),
        "threads": threads,
        "seconds_per_task": elapsed / max(len(tasks), 1),
    }
    return report, timing
