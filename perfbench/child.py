"""One benchmark pass, run in a fresh process.

Usage: python3 child.py JOB.json SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, importing slipdyn, loading
the configs and building the corrector solver.  The pass then times the
runner calls, records peak RSS, optionally checks the outputs, and prints one
JSON line with its measurements.
"""
import json
import sys
import time


def _output_hash(outdir):
    import hashlib
    from pathlib import Path
    h = hashlib.sha256()
    for p in sorted(Path(outdir).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(outdir)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _expected_ops(cfg):
    if cfg.experiment == "simulate":
        return int(cfg.section["steps"]) + 1
    if cfg.experiment == "gamma":
        return len(cfg.section["n_ladder"])
    return 1


def main():
    job = json.loads(open(sys.argv[1]).read())
    spawn = float(sys.argv[2])

    import resource
    from pathlib import Path

    import numpy as np
    import scipy
    import slipdyn.evolution as evolution
    import slipdyn.experiments as experiments
    from slipdyn.config import load_config
    from slipdyn.corrector import get_solver

    cfgs = [load_config(p) for p in job["configs"]]
    for cfg in cfgs:
        bounded = (cfg.experiment == "simulate" and cfg.solver.mode == "bounded") or (
            cfg.experiment == "gamma" and cfg.section["mode"] == "bounded")
        if bounded:
            evolution.EnergyContext(mode="bounded", mat=cfg.material,
                                    geom=cfg.geometry, quad=cfg.quadrature,
                                    basis=cfg.basis)
            get_solver(cfg.geometry, cfg.material, cfg.basis, cfg.quadrature)
    setup_s = time.monotonic() - spawn

    rec = None
    if job["trace"]:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)

    # op boundaries: a time step (simulate), a ladder rung (gamma) or a whole
    # runner call (distance); these wrappers run in untraced passes as well
    op_s: list[float] = []
    rung_starts: list[float] = []

    def op_started():
        if rec is not None:
            rec.op += 1

    step = evolution.incremental_step

    def timed_step(*args, **kwargs):
        op_started()
        t0 = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            op_s.append(time.perf_counter() - t0)

    evolution.incremental_step = timed_step
    discretize = experiments.discretize_grid

    def timed_rung(*args, **kwargs):
        op_started()
        rung_starts.append(time.perf_counter())
        return discretize(*args, **kwargs)

    experiments.discretize_grid = timed_rung

    wall_s = 0.0
    attempted = failed = 0
    results = []
    outroot = Path(job["outdir"])
    for k, cfg in enumerate(cfgs):
        outdir = outroot / f"{k:03d}"
        outdir.mkdir(parents=True, exist_ok=True)
        n_ops = _expected_ops(cfg)
        attempted += n_ops
        rung_starts.clear()
        if cfg.experiment == "distance":
            op_started()
        runner = experiments.RUNNERS[cfg.experiment]
        t0 = time.perf_counter()
        try:
            if rec is None:
                rows = runner(cfg, outdir, cfg.seed, None)
            else:
                rows = rec.call(f"experiments.{cfg.experiment}", runner,
                                (cfg, outdir, cfg.seed, None), {})
        except Exception as exc:          # a failing op is counted, not fatal
            print(f"op failure in config {k}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += n_ops
            results.append(None)
            continue
        t1 = time.perf_counter()
        wall_s += t1 - t0
        if cfg.experiment == "distance":
            op_s.append(t1 - t0)
        elif cfg.experiment == "gamma":
            op_s.extend(np.diff(rung_starts + [t1]).tolist())
        results.append((cfg, rows, outdir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "op_s": op_s, "attempted": attempted, "failed": failed,
           "hashes": [None if r is None else _output_hash(r[2]) for r in results],
           "versions": {"python": sys.version.split()[0],
                        "numpy": np.__version__, "scipy": scipy.__version__}}
    if rec is not None:
        out["layers"] = rec.layer_metrics()
        if job.get("spans"):
            rec.write(job["spans"])
    if job["check"]:
        # the oracles run unpatched, outside the timed region
        evolution.incremental_step = step
        experiments.discretize_grid = discretize
        from checks import CHECKS, Report
        report = Report()
        op_ok = []
        for r in results:
            if r is not None:
                cfg, rows, _ = r
                op_ok += CHECKS[cfg.experiment](cfg, rows, report)
        out["failed"] += op_ok.count(False)
        out["checks"] = report.checks
    print(json.dumps(out))


if __name__ == "__main__":
    main()
