"""One user command in a fresh process: ``recurjoint.cli.main(argv)``.

    python3 perfbench/child.py [--trace SPANS.json] -- <recurjoint arguments>

The last stdout line is ``{"rc": ..., "rss_mb": ...}``, where ``rss_mb`` is
the larger peak resident size of this process image and of its waited-for
children (the replicate study's pool workers).  With ``--trace`` the
program is instrumented and the spans are written to SPANS.json at the end.
A traced ``replicate-study`` also persists its first cell as a fit
directory and summarizes it, so the I/O layers are measured on study data.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _self_peak_kib() -> int:
    """Peak resident size of this process image.  Linux carries
    ``ru_maxrss`` over fork and exec, so for this process it would report
    the benchmark process's peak whenever that one is larger; the high-water
    mark of the current address space does not."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_mb() -> float:
    # pool workers fork from this process, so their ru_maxrss is theirs or ours
    peaks = [_self_peak_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    return max(peaks) / 1024.0  # both are in KiB on Linux


def _summarize_first_cell(cli, chain: dict, fit_dir: Path) -> None:
    from recurjoint.io import write_dataset, write_json
    from recurjoint.study import fit_manifest

    fit_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(chain["dataset"], fit_dir / "events.csv")
    cli.load_dataset(fit_dir / "events.csv")
    cli.write_chain_trace(chain["trace"], fit_dir / "chain00")
    write_json(fit_manifest([chain["trace"]], chain["config"], chain["hyper"]),
               fit_dir / "manifest.json")
    if cli.main(["summarize", "--fit-dir", str(fit_dir), "--out",
                 str(fit_dir / "resummary.json")]) != 0:
        raise RuntimeError("summarize of the first study cell failed")


def main(argv: list) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from recurjoint import cli

    if trace_path is None:
        rc = cli.main(argv)
    else:
        from layers import chain_stats, instrument
        from tracer import Tracer

        tracer, chains = Tracer(run_id=os.getpid()), []
        instrument(tracer, chains)
        try:
            rc = cli.main(argv)
            if rc == 0 and argv[0] == "replicate-study":
                _summarize_first_cell(cli, chains[0], trace_path.with_name(trace_path.stem + "_fit"))
        finally:
            tracer.restore()
        tracer.dump(trace_path, chains=chain_stats(chains))
    print(json.dumps({"rc": rc, "rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
