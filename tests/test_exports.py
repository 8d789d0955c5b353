import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("recurjoint", "recurjoint.diagnostics", "recurjoint.dp", "recurjoint.io",
           "recurjoint.model", "recurjoint.sampler", "recurjoint.simulate", "recurjoint.study")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _run_python(code, *argv, cwd=None):
    """The stripped stdout of ``python -c code argv...`` in a fresh process
    that imports this checkout's package."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    # a single-worker fit or summarize never starts a pool, so importing
    # the CLI must not pull in multiprocessing and what it loads
    code = ("import sys, recurjoint.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    assert _run_python(code) == "[]"


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # the quantiles and uniques are written out because np.quantile and a
    # plain np.unique import numpy.ma, which nothing here uses; numpy 1.x
    # imports it with numpy itself
    if _run_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.ma on import")
    (tmp_path / "fit.json").write_text(
        '{"model": {"variant": "BMZ-DP", "baseline_variant": "piecewise"}, '
        '"mcmc": {"iterations": 20, "burn_in": 10, "chains": 2}}')
    (tmp_path / "study.json").write_text(
        '{"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP", "BMZ"], '
        '"mcmc": {"iterations": 20, "burn_in": 10}}')
    code = ("import sys; from recurjoint.cli import main; code = main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules); sys.exit(code)")
    commands = [
        ("simulate", "--n", 40, "--j", 4, "--baseline", "piecewise", "--out", "data"),
        ("fit", "--data", "data/events.csv", "--config", "fit.json", "--out", "fit"),
        ("summarize", "--fit-dir", "fit", "--out", "summary.json"),
        ("replicate-study", "--config", "study.json", "--out", "study", "--threads", 1),
    ]
    loaded = [argv[0] for argv in commands
              if _run_python(code, *argv, cwd=tmp_path).splitlines()[-1] != "False"]
    assert not loaded, f"numpy.ma imported by: {loaded}"
