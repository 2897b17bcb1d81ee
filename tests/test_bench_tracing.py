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
