import importlib

import pytest

MODULES = ("recurjoint", "recurjoint.diagnostics", "recurjoint.dp", "recurjoint.io",
           "recurjoint.model", "recurjoint.sampler", "recurjoint.simulate", "recurjoint.study")


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
