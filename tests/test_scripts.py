import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    # every script loads as a module, without running its main: the private
    # names a script imports from slipdyn must still exist
    assert callable(getattr(_load(path), "main", None))


def test_run_examples_covers_every_config():
    # the goldens cover exactly the shipped configs: a config added to
    # configs/ without a command in run_examples.py would have no hashes
    module = _load(next(p for p in SCRIPTS if p.name == "run_examples.py"))
    assert sorted(module.COMMANDS) == sorted(p.name for p in module.CONFIGS.glob("*.json"))
