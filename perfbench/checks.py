"""Output checks: each returns a list of problems, empty when the output
is right."""

from __future__ import annotations

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np

ORACLE_REL_TOL = 1e-10
# The oracle multiplies on the natural scale, so the log of a likelihood
# near 1 carries an absolute rounding error of ~1e-16 that is large
# relative to the log itself; below this floor agreement is absolute.
ORACLE_ABS_TOL = 1e-12


def load_oracles(root: Path):
    """The repository's brute-force likelihood oracle, ``tests/oracles.py``."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("recurjoint_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_mismatches(oracles, engine, sample: np.ndarray) -> list:
    """Compare ``engine.participant_loglik()`` with the oracle's
    likelihood, on the log scale, for the participants in ``sample``."""
    if engine.baseline_variant == "piecewise":
        baseline = {"variant": "piecewise", "grid": [float(g) for g in engine.grid],
                    "levels": [float(v) for v in engine.lam]}
    else:
        baseline = {"variant": "powerlaw", "shape": float(engine.psi)}
    ll = engine.participant_loglik()
    problems = []
    for i in sample:
        rec = engine.dataset.records[i]
        record = (rec.followup_time, rec.event_indicator, list(rec.recurrent_times),
                  list(rec.covariates_x), list(rec.covariates_z))
        params = {
            "beta": list(engine.beta), "alpha": list(engine.alpha),
            "alpha0": float(engine.alpha0), "xi1": float(engine.xi1), "xi2": float(engine.xi2),
            "gamma": float(engine.gamma[i]), "mu": float(engine.mu_rec[i]),
            "kappa": float(engine.kap[i]), "d_flag": int(engine.d_flags[i]),
            "baseline": baseline,
        }
        likelihood = oracles.participant_likelihood(record, params)
        expected = math.log(likelihood) if likelihood > 0 else -math.inf
        if not math.isclose(float(ll[i]), expected, rel_tol=ORACLE_REL_TOL,
                            abs_tol=ORACLE_ABS_TOL):
            problems.append(f"{engine.variant}: participant {rec.participant_index} in cluster "
                            f"{rec.cluster_index}: engine {ll[i]!r} != oracle {expected!r}")
    return problems


def _nonfinite(value, where: str) -> list:
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in _nonfinite(v, f"{where}.{key}")]
    if isinstance(value, list):
        return [p for k, v in enumerate(value) for p in _nonfinite(v, f"{where}[{k}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is {value}"]
    return []


def summary_problems(summary: dict) -> list:
    """Every parameter summary and the LPML of a fit are finite numbers."""
    problems = _nonfinite(summary["parameters"], "parameters")
    if not isinstance(summary["lpml"], float):
        problems.append(f"lpml is {summary['lpml']!r}")
    return problems + _nonfinite(summary["lpml"], "lpml")


def report_problems(report: dict) -> list:
    """Every study cell has a finite LPML and every aggregate is finite."""
    problems = []
    for variant, cell in report["variants"].items():
        if any(v is None for v in cell["lpml"]):
            problems.append(f"{variant}: a replicate has no lpml")
        problems += _nonfinite(cell, variant)
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
