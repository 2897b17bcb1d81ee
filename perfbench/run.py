"""slipdyn benchmark: seeded CLI-experiment workloads, end to end and per layer.

Usage (from the root of a slipdyn checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each pass runs the experiment runners on the workload's generated configs in
a fresh child process, one pass at a time, with BLAS threads capped at the
CPU count.  Passes repeat until the time budget is spent.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  ``--workload all`` runs every
workload with and without tracing.  Each run also writes a result record to
``.perfbench/results/`` and the spans of its first traced pass to
``.perfbench/spans/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import BUSY, COUNTERS, MODULES  # noqa: E402
from workloads import GENERATORS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# op latencies drift by more than the largest bound between runs on a
# 2-vCPU machine, so they are reported next to the layers, without a gate
PER_LAYER = {
    "experiments.op_p50_s": "s",
    "experiments.op_p90_s": "s",
    **{c: "count" for c in COUNTERS},
    **{f"{b}.busy_s": "s" for b in BUSY},
    **{f"{m}.self_s": "s" for m in MODULES},
    "evolution.force_evals_per_moving_step": "evals/step",
    "trace.overhead_frac": "ratio",
}
RUN_LIMIT_S = 170.0       # a run must end well within the 180 s budget


def _env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _git_sha() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _run_pass(job: dict, job_path: Path, env: dict, timeout: float) -> dict | None:
    job_path.write_text(json.dumps(job))
    spawn = time.monotonic()
    try:
        res = subprocess.run([sys.executable, str(HERE / "child.py"),
                              str(job_path), repr(spawn)],
                             capture_output=True, text=True, env=env,
                             timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if res.stderr:
        sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        print(f"pass exited with code {res.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds`` and aggregate them into one result."""
    root = Path.cwd()
    nproc = len(os.sched_getaffinity(0))
    work = root / ".perfbench" / "work" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    spans_path = root / ".perfbench" / "spans" / f"{workload}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    configs = []
    for k, raw in enumerate(GENERATORS[workload](seed)):
        p = work / "configs" / f"{k:03d}.json"
        p.write_text(json.dumps(raw, indent=1))
        configs.append(str(p))
    env = _env(nproc)

    passes: list[dict] = []
    attempted = failed = 0
    broken = False
    ops_per_pass = None
    start = time.monotonic()
    min_passes = 4 if trace else 3
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        job = {"configs": configs, "outdir": str(work / f"pass{k}"),
               "trace": traced, "check": k == 0,
               "spans": str(spans_path) if traced and k == 1 else None}
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        res = _run_pass(job, work / "job.json", env, remaining)
        if res is None:
            broken = True
            failed += ops_per_pass or 1
            attempted += ops_per_pass or 1
            break
        ops_per_pass = res["attempted"]
        if k > 0 and res["hashes"] != passes[0]["hashes"]:
            res["failed"] = res["attempted"]       # outputs must be byte-stable
        attempted += res["attempted"]
        failed += res["failed"]
        res["traced"] = traced
        passes.append(res)
        shutil.rmtree(job["outdir"], ignore_errors=True)
        elapsed = time.monotonic() - start
        typical = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break
        if elapsed + typical > RUN_LIMIT_S - 10:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics = {}
    ops = [t for p in plain for t in p["op_s"]]
    op_latency = {"experiments.op_p50_s": _percentile(ops, 50),
                  "experiments.op_p90_s": _percentile(ops, 90)}
    if plain:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    layers = {}
    if traced_passes:
        first = traced_passes[0]["layers"]
        for name in first:
            if name in COUNTERS or name == "evolution.force_evals_per_moving_step":
                layers[name] = first[name]      # counts repeat exactly
            else:
                layers[name] = statistics.median(p["layers"][name]
                                                 for p in traced_passes)
        layers.update(op_latency)
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_passes)
            / metrics["wall_s"] - 1.0) if metrics else 0.0
    checks = passes[0].get("checks", {}) if passes else {}
    correct = (not broken and failed == 0 and bool(checks)
               and all(c["ok"] for c in checks.values()))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": _git_sha(),
        "versions": passes[0]["versions"] if passes else {},
        "nproc": nproc, "blas_threads": nproc,
        "passes": len(passes), "traced_passes": len(traced_passes),
        "ops_timed": len(ops), "op_latency": op_latency,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "correct": correct, "checks": checks,
        "metrics": metrics, "layers": layers,
        "per_pass": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                                        "traced", "attempted", "failed")}
                     for p in passes],
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return record


def _print_record(rec: dict) -> None:
    v = rec["versions"]
    print(f"== {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"git {rec['git_sha'][:12]}, python {v.get('python')}, "
          f"numpy {v.get('numpy')}, scipy {v.get('scipy')}, nproc {rec['nproc']}, "
          f"blas threads {rec['blas_threads']}, {rec['passes']} passes "
          f"({rec['traced_passes']} traced), {rec['ops_timed']} timed ops")
    for name, c in sorted(rec["checks"].items()):
        print(f"check {name}: worst {c['worst']:.3e} (tol {c['tol']:.1e}, "
              f"{c['n']} samples) {'ok' if c['ok'] else 'FAILED'}")
    print(f"fail_frac = {rec['fail_frac']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} ops)")
    if rec["trace"]:
        units, values = PER_LAYER, rec["layers"]
    else:
        units = {**END_TO_END, **{n: "s" for n in rec["op_latency"]}}
        values = {**rec["metrics"], **rec["op_latency"]}
    for name, unit in units.items():
        print(f"{name} = {values.get(name, float('nan')):.6g} {unit}")
    if rec["trace"] and rec["layers"]:
        ev = rec["layers"]
        print(f"  (evolution.force_evals_per_moving_step: base "
              f"{ev['evolution.moving_steps']:.0f} moving steps; "
              f"trace.overhead_frac: base untraced wall_s "
              f"{rec['metrics'].get('wall_s', float('nan')):.6g} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "slipdyn" / "__init__.py").is_file():
        print("error: run from the root of a slipdyn checkout "
              "(src/slipdyn not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = {}
        for wl in GENERATORS:
            for trace in (False, True):
                rec = run_workload(wl, args.seed, args.seconds, trace)
                _print_record(rec)
                summary[f"{wl}/trace{int(trace)}"] = {
                    "correct": rec["correct"], "attempted": rec["attempted"],
                    "failed": rec["failed"]}
        print(json.dumps(summary))
        return 0
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(rec)
    units = PER_LAYER if args.trace else END_TO_END
    values = rec["layers"] if args.trace else rec["metrics"]
    if set(values) != set(units):
        print("error: no pass completed; metrics are missing", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
