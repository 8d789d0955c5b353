"""Print the sha256 of every file a fixed set of small command-line runs
writes, one ``<sha256>  <relative/path>`` line per file, sorted by path.

Run it on two versions of the package and diff the listings to check that a
change leaves every output byte-identical::

    PYTHONPATH=src python tests/output_digest.py OUT_DIR

The runs, each through ``recurjoint.cli.main`` in this process:

* ``simulate``: N = 120 in 6 clusters, piecewise and power-law;
* ``fit``: every model variant on both datasets (the piecewise BMZ-DP fit
  with two chains), plus one literal-likelihood BMZ-DP fit with a fixed
  susceptibility probability and fixed concentrations, 30 sweeps each;
* ``summarize`` of the two-chain fit;
* ``replicate-study``: 2 replicates of all four variants, N = 60.

``timing.json`` holds wall-clock seconds, so it is left out.  The CLI's own
messages are discarded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from recurjoint.cli import main
from recurjoint.model import BASELINE_VARIANTS, VARIANTS

MCMC = {"iterations": 30, "burn_in": 10, "adapt_window": 10, "seed": 3}


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"recurjoint {' '.join(map(str, argv))} exited with {code}")


def _config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def run_all(out: Path) -> None:
    """Write every output of the fixed runs under ``out``."""
    out = Path(out)
    for seed, baseline in enumerate(BASELINE_VARIANTS, start=11):
        _run("simulate", "--out", out / "data" / baseline, "--n", 120, "--j", 6,
             "--baseline", baseline, "--seed", seed)
    fits = [(variant, baseline, "corrected") for variant in VARIANTS
            for baseline in BASELINE_VARIANTS] + [("BMZ-DP", "piecewise", "literal")]
    for variant, baseline, mode in fits:
        name = f"{variant}_{baseline}_{mode}"
        chains = 2 if (variant, baseline, mode) == fits[0] else 1
        config = _config(out / "configs" / f"{name}.json", {
            "model": {"variant": variant, "baseline_variant": baseline, "likelihood_mode": mode},
            "mcmc": {**MCMC, "chains": chains},
            # the literal fit also fixes p and the concentrations
            "hyper": {"fixed_p": 0.4, "update_concentrations": False} if mode == "literal" else {}})
        _run("fit", "--data", out / "data" / baseline / "events.csv", "--config", config,
             "--out", out / "fit" / name)
    first = "_".join(fits[0])
    _run("summarize", "--fit-dir", out / "fit" / first, "--out", out / "summarize.json")
    study = _config(out / "configs" / "study.json", {
        "n": 60, "j": 4, "replicates": 2, "variants": list(VARIANTS),
        "baseline_variant": "powerlaw", "seed": 7,
        "mcmc": {"iterations": 20, "burn_in": 10, "adapt_window": 10}})
    _run("replicate-study", "--config", study, "--out", out / "study")


def digest(out: Path) -> list:
    """Run everything into ``out`` and return the sorted digest lines."""
    out = Path(out)
    run_all(out)
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "timing.json"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_digest.py OUT_DIR")
    print("\n".join(digest(Path(sys.argv[1]))))
