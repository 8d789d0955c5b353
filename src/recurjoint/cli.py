"""Command-line surface: simulate datasets, fit the model, run replicate
studies and re-summarize stored fits."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .io import (
    load_dataset,
    parse_config,
    read_chain_trace,
    read_json,
    truth_to_dict,
    write_chain_trace,
    write_dataset,
    write_json,
)
from .model import BASELINE_VARIANTS, VARIANTS
from .sampler import McmcConfig
from .simulate import simulate_dataset
from .study import build_summary, fit_manifest, run_fit, run_replicate_study


def _apply_overrides(config: McmcConfig, args) -> McmcConfig:
    """``config`` with the fields the fit flags set; each flag's dest is the
    name of the field it sets."""
    return replace(config, **{f.name: getattr(args, f.name) for f in fields(config)
                              if getattr(args, f.name, None) is not None})


def cmd_simulate(args) -> int:
    dataset, truth = simulate_dataset(args.n, args.j, args.baseline or "piecewise",
                                      seed=args.seed or 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out / "events.csv")
    write_json(truth_to_dict(truth), out / "truth.json")
    print(f"wrote {len(dataset)} records in {dataset.num_clusters} clusters to {out}")
    return 0


def cmd_fit(args) -> int:
    # the config first: a bad key is refused before the data are read
    config, hyper, scales = parse_config(read_json(args.config) if args.config else {})
    config = _apply_overrides(config, args)
    dataset = load_dataset(args.data)

    traces = run_fit(dataset, config, hyper, scales=scales, threads=args.threads)
    # made once the fit has run, so that a failed fit leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        write_chain_trace(trace, out / f"chain{trace.chain_index:02d}")
    manifest = fit_manifest(traces, config, hyper, scales)
    write_json(manifest, out / "manifest.json")
    summary = build_summary(traces, manifest)
    write_json(summary, out / "summary.json")
    lpml = summary["lpml"]
    print(f"fit {config.variant} ({config.chains} chain(s), {config.iterations} iterations); "
          f"lpml={'n/a' if lpml is None else format(lpml, '.4f')}; wrote {out}/summary.json")
    return 0


def cmd_replicate_study(args) -> int:
    study = read_json(args.config)
    report, timing = run_replicate_study(study, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report, out / "report.json")
    # wall-clock accounting lives outside the deterministic report
    write_json(timing, out / "timing.json")
    n_fail = len(report["failures"])
    print(f"replicate study complete: {timing['tasks']} fits in "
          f"{timing['total_seconds']:.1f}s, {n_fail} failure(s); wrote {out}/report.json")
    return 0


def cmd_summarize(args) -> int:
    fit_dir = Path(args.fit_dir)
    manifest = read_json(fit_dir / "manifest.json")
    traces = [read_chain_trace(fit_dir / f"chain{k:02d}", manifest, k)
              for k in range(manifest["chains"])]
    summary = build_summary(traces, manifest)
    write_json(summary, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurjoint",
        description="Joint modeling of clustered zero-inflated recurrent and terminal events")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--n", type=int, default=600, help="number of participants")
    p_sim.add_argument("--j", type=int, default=20, help="number of clusters")
    p_sim.add_argument("--baseline", choices=BASELINE_VARIANTS, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run MCMC on an events file")
    p_fit.add_argument("--data", required=True, help="events CSV")
    p_fit.add_argument("--config", default=None, help="JSON config (model/hyper/mcmc)")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--chains", type=int, default=None)
    p_fit.add_argument("--variant", choices=VARIANTS, default=None)
    p_fit.add_argument("--baseline", choices=BASELINE_VARIANTS, dest="baseline_variant")
    p_fit.add_argument("--threads", type=int, default=1)
    p_fit.set_defaults(func=cmd_fit)

    p_study = sub.add_parser("replicate-study", help="simulate/fit/score many replicates")
    p_study.add_argument("--config", required=True, help="JSON study config")
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--threads", type=int, default=1)
    p_study.set_defaults(func=cmd_replicate_study)

    p_sum = sub.add_parser("summarize", help="rebuild the summary from stored traces")
    p_sum.add_argument("--fit-dir", required=True, help="directory written by fit")
    p_sum.add_argument("--out", required=True, help="summary JSON path")
    p_sum.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
