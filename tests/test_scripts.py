import importlib.util
import subprocess
import sys
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


def _compare(ref, new):
    """Exit code and output of ``compare_outputs.py REF NEW``."""
    script = next(p for p in SCRIPTS if p.name == "compare_outputs.py")
    done = subprocess.run([sys.executable, str(script), str(ref), str(new)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout + done.stderr


def test_compare_outputs_exit_codes(tmp_path):
    # 0 for byte-identical trees; 1 for a changed table, naming each changed
    # column with its largest absolute deviation (positions element by
    # element), and for a file on one side only; 2 for a missing directory
    # or two trees without files, which would otherwise read as unchanged
    head = '# slipdyn\nt,positions,energy\n'
    rows = ['0.0,"[[0.4, 0.5], [0.6, 0.5]]",0.25\n', '0.5,"[[0.4, 0.5], [0.7, 0.5]]",0.125\n']
    ref, new = tmp_path / "ref", tmp_path / "new"
    for root in (ref, new):
        (root / "run").mkdir(parents=True)
        (root / "run" / "trace.csv").write_text(head + "".join(rows))
    assert _compare(ref, new)[0] == 0
    (new / "run" / "trace.csv").write_text(
        head + rows[0] + '0.5,"[[0.4, 0.5], [0.7003, 0.5]]",0.1255\n')
    code, out = _compare(ref, new)
    assert code == 1
    assert "energy: 1 rows differ, max abs 0.0005," in out
    assert "positions: 1 rows differ, max abs 0.0003," in out
    assert "t:" not in out
    (new / "run" / "trace.csv").write_text(head + "".join(rows))
    (new / "run" / "summary.csv").write_text(head)
    code, out = _compare(ref, new)
    assert code == 1 and "only in" in out
    assert _compare(ref, tmp_path / "no_such_tree")[0] == 2
    assert _compare(tmp_path / "no_such_tree", new)[0] == 2
    (tmp_path / "empty_a").mkdir()
    (tmp_path / "empty_b").mkdir()
    assert _compare(tmp_path / "empty_a", tmp_path / "empty_b")[0] == 2
