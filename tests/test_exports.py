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


def test_cli_import_leaves_the_process_pool_unloaded():
    # a single-worker fit or summarize never starts a pool, so importing
    # the CLI must not pull in multiprocessing and what it loads
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys, recurjoint.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
