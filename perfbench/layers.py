"""Which program layers the traced run wraps, and how its spans and counts
become the per-layer metrics listed in BENCHMARK.json."""

from __future__ import annotations

import os
import statistics

import numpy as np

from ess import bulk_ess
from tracer import self_times_ns

# the 14 blocks one SamplerEngine.sweep runs, in schedule order
BLOCKS = (
    "refresh_caches", "update_beta", "update_alpha", "update_alpha0", "update_tau2",
    "update_gamma", "update_mu_block", "update_susceptibility", "update_baseline_block",
    "update_kappa_block", "update_xi1", "update_xi2", "update_zeta", "update_coef_variances",
)
# Metropolis blocks by their proposal-scale name; "baseline" is lambda
# (piecewise levels) or psi (power-law shape)
ACCEPT_BLOCKS = ("beta", "alpha", "alpha0", "gamma", "eta", "theta", "xi1", "xi2", "zeta",
                 "baseline")

# layer metric -> span name whose mean duration (ms) it reports
MEAN_SPAN_MS = {
    "sampler.engine_init_ms": "engine_init",
    "io.load_dataset_ms": "load_dataset",
    "io.write_chain_trace_ms": "write_chain_trace",
    "io.read_chain_trace_ms": "read_chain_trace",
    "study.build_summary_ms": "build_summary",
    "diagnostics.cpo_lpml_ms": "cpo_lpml",
    "cli.summarize_ms": "cli.summarize",
}


def _occupancy(tracer, counter: str, assignments: str, truncation: str):
    def hook(args, _kwargs, _result):
        eng = args[0]
        k = getattr(eng, truncation)
        used = np.count_nonzero(np.bincount(getattr(eng, assignments), minlength=k))
        tracer.count(counter, used / k)
    return hook


def instrument(tracer, chains: list) -> None:
    """Wrap the engine's methods at class level and the module functions at
    the sites that call them.  Every chain run_chain returns is appended to
    ``chains`` together with its inputs."""
    from recurjoint import cli, simulate, study
    from recurjoint.sampler import SamplerEngine

    kappa_hook = _occupancy(tracer, "kappa_occupied_frac", "v", "level_kappa")
    mu_hook = _occupancy(tracer, "mu_occupied_frac", "m", "level_mu")

    def mu_block_hook(args, kwargs, result):
        if args[0].variant in ("BMZ-DP", "BM-DP") and args[0].j:
            mu_hook(args, kwargs, result)

    def engine_mb(args, _kwargs, _result):
        nbytes = sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))
        tracer.count("engine_mb", nbytes / 2**20)

    def trace_mb(args, _kwargs, _result):
        prefix = str(args[1])
        size = sum(os.stat(prefix + suffix).st_size for suffix in (".csv", "_loglik.npy"))
        tracer.count("trace_mb", size / 2**20)

    def keep_chain(args, kwargs, trace):
        chains.append({"dataset": args[0], "config": args[1], "hyper": args[2], "trace": trace})

    hooks = {"update_kappa_block": kappa_hook, "update_mu_block": mu_block_hook}
    for name in BLOCKS:
        tracer.wrap(SamplerEngine, name, name, hooks.get(name))
    tracer.wrap(SamplerEngine, "sweep", "sweep")
    tracer.wrap(SamplerEngine, "__init__", "engine_init")
    tracer.wrap(SamplerEngine, "init_state", "init_state", engine_mb)
    tracer.wrap(SamplerEngine, "trace_row", "trace_row")
    tracer.wrap(SamplerEngine, "participant_loglik", "participant_loglik")
    tracer.wrap(study, "run_chain", "run_chain", keep_chain)
    tracer.wrap(study, "build_summary", "build_summary")
    tracer.wrap(study, "cpo_lpml", "cpo_lpml")
    tracer.wrap(simulate, "simulate_dataset", "simulate_dataset")
    tracer.wrap(cli, "build_summary", "build_summary")
    tracer.wrap(cli, "load_dataset", "load_dataset")
    tracer.wrap(cli, "write_chain_trace", "write_chain_trace", trace_mb)
    tracer.wrap(cli, "read_chain_trace", "read_chain_trace")
    tracer.wrap(cli, "cmd_fit", "cli.fit")
    tracer.wrap(cli, "cmd_summarize", "cli.summarize")
    tracer.wrap(cli, "cmd_replicate_study", "cli.replicate_study")


def chain_stats(chains: list) -> list:
    """The scored parameters' draws and the acceptance rates of each chain,
    as plain lists; ESS is computed later, outside the timed command."""
    from recurjoint.study import scored_parameters

    out = []
    for entry in chains:
        trace = entry["trace"]
        draws = {name: trace.column(name).tolist() for name in scored_parameters(trace.columns)}
        acceptance = dict(trace.acceptance)
        acceptance["baseline"] = acceptance.pop("lambda", acceptance.pop("psi", None))
        out.append({"draws": draws, "acceptance": acceptance})
    return out


def _mean(values, what: str) -> float:
    if not values:
        raise RuntimeError(f"the traced run recorded no {what}")
    return float(statistics.fmean(values))


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics from the span documents of the traced commands."""
    block_ns = dict.fromkeys(BLOCKS, 0)
    sweep_ns = sweep_self_ns = sweeps = 0
    record_ns = kept = 0
    durations = {}
    counts = {}
    chains = []
    for doc in docs:
        spans = doc["spans"]
        self_ns = self_times_ns(spans)
        names = {s[0]: s[1] for s in spans}
        for sid, name, start, end, parent, _run in spans:
            parent_name = names.get(parent)
            durations.setdefault(name, []).append(end - start)
            if name == "sweep":
                sweeps += 1
                sweep_ns += end - start
                sweep_self_ns += self_ns[sid]
            elif parent_name == "sweep" and name in block_ns:
                block_ns[name] += self_ns[sid]
            elif parent_name == "run_chain" and name in ("trace_row", "participant_loglik"):
                record_ns += end - start
                kept += name == "trace_row"
        for name, values in doc["counts"].items():
            counts.setdefault(name, []).extend(values)
        chains.extend(doc["chains"])
    if not sweeps or not kept:
        raise RuntimeError("the traced run recorded no sweeps or no kept draws")

    metrics = {f"sampler.{name}_us": block_ns[name] / sweeps / 1e3 for name in BLOCKS}
    metrics["sampler.sweep_us"] = sweep_ns / sweeps / 1e3
    metrics["sampler.sweep_self_us"] = sweep_self_ns / sweeps / 1e3
    metrics["sampler.record_us"] = record_ns / kept / 1e3
    metrics["sampler.kappa_occupied_frac"] = _mean(counts.get("kappa_occupied_frac"), "kappa blocks")
    metrics["sampler.mu_occupied_frac"] = _mean(counts.get("mu_occupied_frac"), "DP mu blocks")
    metrics["sampler.engine_mb"] = _mean(counts.get("engine_mb"), "engine states")
    metrics["io.trace_mb"] = _mean(counts.get("trace_mb"), "trace writes")
    for metric, span in MEAN_SPAN_MS.items():
        metrics[metric] = _mean(durations.get(span), f"{span} calls") / 1e6
    if "simulate_dataset" in durations:
        metrics["simulate.simulate_dataset_ms"] = _mean(durations["simulate_dataset"], "") / 1e6

    for block in ACCEPT_BLOCKS:
        rates = [c["acceptance"][block] for c in chains if c["acceptance"].get(block) is not None]
        metrics[f"sampler.accept.{block}"] = _mean(rates, f"{block} acceptance")
    ess = [bulk_ess(draws) for c in chains for draws in c["draws"].values()]
    ess = [v for v in ess if v == v]
    if not ess:
        raise RuntimeError("no scored parameter has a finite ESS")
    metrics["sampler.ess_bulk_min"] = min(ess)
    metrics["sampler.ess_bulk_median"] = float(statistics.median(ess))
    return metrics
