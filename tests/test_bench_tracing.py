import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["bounded", "freespace"])
def test_bench_traced_pass_checks(tmp_path, workload):
    # one traced and checked benchmark pass (perfbench/child.py) of the
    # workload at seed 1: a traced name whose call drifts fails an op, and a
    # force that drifts from the energy differences fails a check
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = []
    for k, raw in enumerate(workloads.GENERATORS[workload](1)):
        configs.append(tmp_path / f"{k:03d}.json")
        configs[-1].write_text(json.dumps(raw))
    job, env = tmp_path / "job.json", dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    job.write_text(json.dumps({"configs": [str(p) for p in configs],
                               "outdir": str(tmp_path / "out"), "trace": 1, "check": 1,
                               "spans": None}))
    res = subprocess.run([sys.executable, "child.py", str(job), repr(time.monotonic())],
                         cwd=ROOT / "perfbench", env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, res.stderr
    assert out["checks"] and all(c["ok"] for c in out["checks"].values()), out["checks"]


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
