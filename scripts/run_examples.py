#!/usr/bin/env python3
"""Run every shipped example config and summarize the outputs.

Prints the sha256 of every output file, so golden hashes of the shipped
configs can be recorded before a change and compared after it.  The CLI runs
with one BLAS thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1): the last bits of the energies depend on the BLAS
thread count, so the hashes are comparable only at a fixed count.  The CLI
runs on this checkout's ``src`` (prepended to PYTHONPATH), never on an
installed slipdyn.

Usage: python scripts/run_examples.py [OUTPUT_ROOT]
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

COMMANDS = {
    "ramp_single.json": "simulate",
    "spreading_pair.json": "simulate",
    "zero_load.json": "simulate",
    "bounded_pair.json": "simulate",
    "bounded_ramp.json": "simulate",
    "gamma_uniform.json": "gamma",
    "distance_pair.json": "distance",
    "kernel_check.json": "kernel-check",
}

#: BLAS thread pinning for every CLI run; the goldens hold at this count
BLAS_ENV = {name: "1" for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def main():
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "runs"
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": src + os.pathsep + path if path else src}
    print("BLAS threads pinned to 1: " + ", ".join(f"{k}=1" for k in BLAS_ENV))
    for name, command in COMMANDS.items():
        out = out_root / Path(name).stem
        print(f"== {command} {name} -> {out}")
        subprocess.run([sys.executable, "-m", "slipdyn.cli", command,
                        str(CONFIGS / name), "--out", str(out)], check=True, env=env)
        meta = json.loads((out / "metadata.json").read_text())
        print(f"   config {meta['config_sha256'][:12]}..., seed {meta['seed']}")
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"   {digest}  {out.name}/{path.name}")


if __name__ == "__main__":
    main()
