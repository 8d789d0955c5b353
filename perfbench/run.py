"""recurjoint benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload paper_fit --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The workload's inputs are made
from ``--seed``; every measured command runs ``recurjoint.cli.main`` in a
fresh process (``perfbench/child.py``), closed loop, one caller.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of BENCHMARK.json.  The process exits
non-zero when an output check fails.  See perfbench/METRICS.md.

numpy and recurjoint are imported inside functions: only main() puts the
checkout's ``src`` on the path and sets numpy's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
CHECK_SWEEPS = 3
ORACLE_SAMPLE = 40
VARIANTS = ["BMZ-DP", "BM-DP", "BZ-DP", "BMZ"]

# Why each workload exists is recorded in perfbench/METRICS.md.
WORKLOADS = {
    "paper_fit": {"kind": "fit", "n": 600, "j": 20, "iterations": 400, "burn_in": 200,
                  "setups_per_round": 10},
    "large_fit": {"kind": "fit", "n": 20000, "j": 500, "iterations": 30, "burn_in": 10,
                  "setups_per_round": 1},
    "replicate_study": {"kind": "study", "n": 600, "j": 20, "replicates": 3,
                        "iterations": 150, "burn_in": 75, "setups_per_round": 10},
}
# toy sizes for the benchmark's own tests: every workload in a few seconds
SMOKE = {
    "paper_fit": {"n": 60, "j": 6, "iterations": 40, "burn_in": 20, "setups_per_round": 1},
    "large_fit": {"n": 200, "j": 10, "iterations": 20, "burn_in": 10, "setups_per_round": 1},
    "replicate_study": {"n": 60, "j": 6, "replicates": 1, "iterations": 30, "burn_in": 15,
                        "setups_per_round": 1},
}


def _seed(seed: int, stream: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed operations: commands, study cells and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, problems: list, count: int = 1, failed: int | None = None):
        self.attempted += count
        failed = (count if problems else 0) if failed is None else failed
        self.failed += failed
        self.problems += [f"{what}: {p}" for p in problems]


def run_child(cli_args: list, trace_path: Path | None = None) -> tuple:
    """Run one recurjoint command in a fresh process.

    Returns (problems, wall seconds, peak RSS in MB)."""
    argv = [sys.executable, str(HERE / "child.py")]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv += ["--", *cli_args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"timed out after {CHILD_TIMEOUT_S}s"], time.perf_counter() - start, 0.0
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        status = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"], wall, 0.0
    if status["rc"] != 0:
        return [f"recurjoint returned {status['rc']}: {proc.stderr.strip()[-2000:]}"], wall, \
            status["rss_mb"]
    return [], wall, status["rss_mb"]


# ---------------------------------------------------------------------------
# Set-up and the likelihood check
# ---------------------------------------------------------------------------

def time_setup(workload) -> tuple:
    """Seconds of the three calls before the first sweep can run: the
    workload's dataset, ``SamplerEngine(...)`` and ``init_state``."""
    import numpy as np
    from recurjoint.model import Hyperparams
    from recurjoint.sampler import SamplerEngine

    t0 = time.perf_counter()
    dataset = workload.make_dataset()
    t1 = time.perf_counter()
    engine = SamplerEngine(dataset, Hyperparams(), variant="BMZ-DP",
                           baseline_variant=workload.baseline)
    t2 = time.perf_counter()
    engine.init_state(np.random.default_rng(workload.seeds["setup"]))
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def check_likelihood(ledger: Ledger, dataset, variants: list, baseline: str, seed: int):
    """A few sweeps on the workload's data, then the engine's per-participant
    log likelihood against ``tests/oracles.py`` on a fixed subsample."""
    import numpy as np
    from checks import load_oracles, oracle_mismatches
    from recurjoint.model import Hyperparams
    from recurjoint.sampler import SamplerEngine

    oracles = load_oracles(ROOT)
    n = len(dataset)
    sample = np.unique(np.linspace(0, n - 1, min(ORACLE_SAMPLE, n)).astype(int))
    for variant in variants:
        rng = np.random.default_rng(seed)
        engine = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline)
        engine.init_state(rng)
        for _ in range(CHECK_SWEEPS):
            engine.sweep(rng)
        ledger.record(f"likelihood oracle ({variant})", oracle_mismatches(oracles, engine, sample))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class FitWorkload:
    """``recurjoint fit`` then ``recurjoint summarize`` on a simulated
    events file (BMZ-DP, piecewise baseline, one chain)."""

    def __init__(self, spec: dict, seed: int, work: Path, ledger: Ledger):
        from recurjoint.io import load_dataset, write_dataset, write_json
        from recurjoint.simulate import simulate_dataset

        self.spec, self.work, self.ledger = spec, work, ledger
        self.seeds = {"data": _seed(seed, 1), "mcmc": _seed(seed, 2), "setup": _seed(seed, 3)}
        t0 = time.perf_counter()
        dataset, _truth = simulate_dataset(spec["n"], spec["j"], "piecewise", seed=self.seeds["data"])
        self.simulate_ms = (time.perf_counter() - t0) * 1e3
        self.events = work / "events.csv"
        write_dataset(dataset, self.events)
        self.config = work / "config.json"
        write_json({"model": {"variant": "BMZ-DP", "baseline_variant": "piecewise"},
                    "mcmc": {"iterations": spec["iterations"], "burn_in": spec["burn_in"],
                             "chains": 1, "seed": self.seeds["mcmc"]}}, self.config)
        self.make_dataset = lambda: load_dataset(self.events)
        self.baseline = "piecewise"
        check_likelihood(ledger, self.make_dataset(), ["BMZ-DP"], "piecewise", self.seeds["setup"])
        self.out = work / "fit"

    def round(self, trace_stem: Path | None, summarize: bool) -> dict:
        """One fit, then a summarize when ``summarize`` is set; returns fit
        seconds, peak RSS, the summary digest and the span files written."""
        from checks import sha256, summary_problems
        from recurjoint.io import read_json

        spans = [] if trace_stem is None else [Path(f"{trace_stem}_fit.json"),
                                               Path(f"{trace_stem}_sum.json")]
        problems, fit_s, fit_rss = run_child(
            ["fit", "--data", str(self.events), "--config", str(self.config), "--out", str(self.out)],
            spans[0] if spans else None)
        self.ledger.record("fit", problems)
        if problems:
            return {"fit_s": fit_s, "rss_mb": fit_rss, "digest": None, "spans": []}
        summary_path = self.out / "summary.json"
        self.ledger.record("summary.json", summary_problems(read_json(summary_path)))
        if not summarize:
            return {"fit_s": fit_s, "rss_mb": fit_rss, "digest": sha256(summary_path), "spans": []}
        resummary = self.out / "resummary.json"
        problems, _sum_s, sum_rss = run_child(
            ["summarize", "--fit-dir", str(self.out), "--out", str(resummary)],
            spans[1] if spans else None)
        if not problems and resummary.read_bytes() != summary_path.read_bytes():
            problems = ["re-summarized document differs from summary.json"]
        self.ledger.record("summarize", problems)
        return {"fit_s": fit_s, "rss_mb": max(fit_rss, sum_rss), "digest": sha256(summary_path),
                "spans": [] if problems else spans}


class StudyWorkload:
    """``recurjoint replicate-study`` over all four variants with the
    power-law baseline."""

    def __init__(self, spec: dict, seed: int, work: Path, ledger: Ledger, threads: int):
        from recurjoint.io import write_json
        from recurjoint.simulate import simulate_dataset

        self.spec, self.work, self.ledger, self.threads = spec, work, ledger, threads
        self.seeds = {"study": _seed(seed, 4), "data": _seed(seed, 1), "setup": _seed(seed, 3)}
        self.cells = spec["replicates"] * len(VARIANTS)
        self.config = work / "study.json"
        write_json({"n": spec["n"], "j": spec["j"], "replicates": spec["replicates"],
                    "variants": VARIANTS, "baseline_variant": "powerlaw",
                    "seed": self.seeds["study"],
                    "mcmc": {"iterations": spec["iterations"], "burn_in": spec["burn_in"]}},
                   self.config)
        self.simulate_ms = None
        self.make_dataset = lambda: simulate_dataset(spec["n"], spec["j"], "powerlaw",
                                                     seed=self.seeds["data"])[0]
        self.baseline = "powerlaw"
        check_likelihood(ledger, self.make_dataset(), VARIANTS, "powerlaw", self.seeds["setup"])
        self.out = work / "study"

    def round(self, trace_stem: Path | None, summarize: bool) -> dict:
        """One study command; ``summarize`` does not apply, a study has no
        summarize step (the traced child summarizes its first cell)."""
        from checks import report_problems, sha256
        from recurjoint.io import read_json

        span = None if trace_stem is None else Path(f"{trace_stem}_study.json")
        problems, wall, rss = run_child(
            ["replicate-study", "--config", str(self.config), "--out", str(self.out),
             "--threads", str(self.threads)], span)
        result = {"fit_s": wall / self.cells, "rss_mb": rss, "digest": None, "spans": []}
        if problems:
            self.ledger.record("replicate-study", problems, count=self.cells)
            return result
        report = read_json(self.out / "report.json")
        failures = [f"replicate {f['replicate']} {f['variant']}: {f['error']}"
                    for f in report["failures"]]
        self.ledger.record("study cell", failures, count=self.cells, failed=len(failures))
        self.ledger.record("report.json", report_problems(report))
        result["digest"] = sha256(self.out / "report.json")
        result["spans"] = [] if span is None else [span]
        return result


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu() -> dict:
    info = {"cpu_model": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_size"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def provenance(args, seeds: dict, threads: int) -> dict:
    import numpy as np

    return {"git_commit": _git_commit(ROOT), "nproc": os.cpu_count(), **_cpu(),
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed, "input_seeds": seeds,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "study_threads": threads}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _median(values: list) -> float:
    return float(statistics.median(values))


def measure(workload, seconds: float, traced: bool) -> tuple:
    """Closed loop for ``seconds``, after one warm-up round that fills the
    page and bytecode caches and summarizes (its outputs are checked, its
    times are not kept).  Untraced: rounds back to back, each followed by
    set-ups and a host-speed probe, so all are sampled across the whole
    window.  Traced: an untraced and a traced round in turn, both
    summarizing.  A step is not started when the median step so far would
    overrun the window."""
    from probe import probe_s

    warm = workload.round(None, summarize=True)
    plain, spans_rounds, setups, steps = [], [], [], []
    probes = [] if traced else [probe_s()]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(workload.round(None, summarize=traced))
        if traced:
            spans_rounds.append(workload.round(workload.work / f"spans{len(steps)}", True))
        else:
            setups.append([time_setup(workload) for _ in range(workload.spec["setups_per_round"])])
            probes.append(probe_s())
        steps.append(time.perf_counter() - t0)
        if time.perf_counter() - start + _median(steps) > seconds:
            return warm, plain, spans_rounds, setups, probes


def _end_to_end(plain: list, setups: list, probes: list) -> dict:
    """Times are divided by the mean of the probes taken before and after
    their round and rescaled to the reference host (see perfbench/probe.py)."""
    from probe import REFERENCE_S

    scales = [REFERENCE_S / ((before + after) / 2) for before, after in zip(probes, probes[1:])]
    fits = [r["fit_s"] * scale for r, scale in zip(plain, scales)]
    setup = [sum(parts) * scale for round_setups, scale in zip(setups, scales)
             for parts in round_setups]
    return {"fit_s": _median(fits), "setup_s": _median(setup),
            "peak_rss_mb": _median([r["rss_mb"] for r in plain])}


def _per_layer(workload, plain: list, traced: list) -> dict:
    from layers import layer_metrics

    docs = []
    for r in traced:
        for path in r["spans"]:
            with open(path) as fh:
                docs.append(json.load(fh))
    metrics = layer_metrics(docs)
    if workload.simulate_ms is not None:
        metrics["simulate.simulate_dataset_ms"] = workload.simulate_ms
    plain_fit = _median([r["fit_s"] for r in plain])
    metrics["sampler.ess_bulk_min_per_s"] = metrics["sampler.ess_bulk_min"] / plain_fit
    metrics["trace_overhead_frac"] = _median([r["fit_s"] for r in traced]) / plain_fit - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    # numpy asks for transparent huge pages for arrays of 4 MB and more;
    # whether the kernel grants them depends on the host's memory
    # fragmentation, which moved the peak RSS of one large_fit command
    # between 196 and 268 MB.  Commands inherit this setting.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # One BLAS thread per process: the study's pool already runs one worker
    # per core, and BLAS threads on top of it (or beside a fit) made the
    # timings depend on how the host scheduled them.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "recurjoint").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a recurjoint source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    spec = dict(WORKLOADS[args.workload], **(SMOKE[args.workload] if args.smoke else {}))
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    # a traced study runs in-process so that all spans land in one process;
    # its untraced rounds match, so the overhead compares like with like
    threads = 1 if args.trace else min(2, os.cpu_count() or 1)
    ledger = Ledger()
    try:
        if spec["kind"] == "fit":
            workload = FitWorkload(spec, args.seed, work, ledger)
        else:
            workload = StudyWorkload(spec, args.seed, work, ledger, threads)
        warm, plain, traced, setups, probes = measure(workload, args.seconds, bool(args.trace))
        digests = {r["digest"] for r in [warm] + plain + traced}
        ledger.record("same-seed output digest",
                      [] if len(digests) == 1 and None not in digests
                      else [f"{len(digests)} distinct digests across repeats"])
        metrics = (_per_layer(workload, plain, traced) if args.trace
                   else _end_to_end(plain, setups, probes))
        missing = {m["name"] for m in wanted} ^ set(metrics)
        if missing:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
        prov = provenance(args, workload.seeds, threads)
        if args.trace and spec["kind"] == "study":
            print(f"note: traced replicate_study runs with threads={threads}")
        doc = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
               "failed": ledger.failed,
               "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                           for m in wanted}}
        (results / f"{work.name}.json").write_text(json.dumps(
            {"provenance": prov, "result": doc, "problems": ledger.problems,
             "rounds": [{k: r[k] for k in ("fit_s", "rss_mb", "digest")} for r in plain + traced],
             "setup_parts_s": setups, "probes_s": probes},
            indent=2))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
