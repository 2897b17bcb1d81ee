import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracing_installs():
    # the benchmark's traced pass patches slipdyn names by attribute lookup; a
    # refactor that renames one of them must fail here, not in the traced run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c",
                    "import tracing; tracing.install(tracing.Recorder())"],
                   cwd=ROOT / "perfbench", env=env, check=True, timeout=60)


def test_bench_names_resolve():
    # the benchmark's passes and checks import slipdyn names and call the
    # runners; a rename would pass the suite and fail every op of a run
    import ast
    import importlib
    import inspect

    from slipdyn import experiments
    from slipdyn.evolution import EnergyContext

    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slipdyn"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
    for name in ("interaction_of_points", "corrector_energy_of_points"):
        assert callable(getattr(EnergyContext, name))
    for runner in experiments.RUNNERS.values():
        inspect.signature(runner).bind(None, None, 0, None)
