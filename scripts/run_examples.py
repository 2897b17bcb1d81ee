#!/usr/bin/env python3
"""Run every shipped example config and summarize the outputs.

Prints the sha256 of every output file, so golden hashes of the shipped
configs can be recorded before a change and compared after it.

Usage: python scripts/run_examples.py [OUTPUT_ROOT]
"""
import hashlib
import json
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
    "gamma_uniform.json": "gamma",
    "distance_pair.json": "distance",
    "kernel_check.json": "kernel-check",
}


def main():
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "runs"
    for name, command in COMMANDS.items():
        out = out_root / Path(name).stem
        print(f"== {command} {name} -> {out}")
        subprocess.run([sys.executable, "-m", "slipdyn.cli", command,
                        str(CONFIGS / name), "--out", str(out)], check=True)
        meta = json.loads((out / "metadata.json").read_text())
        print(f"   config {meta['config_sha256'][:12]}..., seed {meta['seed']}")
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"   {digest}  {out.name}/{path.name}")


if __name__ == "__main__":
    main()
