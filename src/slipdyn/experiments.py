"""Experiment runners behind the CLI subcommands.

Each runner consumes a validated :class:`~slipdyn.config.ExperimentConfig`,
writes CSV tables plus a JSON metadata sidecar into the output directory, and
returns the primary table as a list of row dicts.  Outputs are byte-stable for
a fixed config and seed: rows are emitted in deterministic order and floats
use shortest round-trip formatting.
"""
from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .evolution import (EnergyContext, energy_balance_series,
                        flow_rule_steps, run_quasistatic, stability_excess)
from .geometry import Rect
# the energies stay bound here: perfbench/tracing.py patches them
from .interaction import (continuum_interaction, continuum_interaction_freespace,  # noqa: F401
                          interaction_sum)
from .kernels import (CoreRadius, apply_C, circulation, divergence_residual,
                      eval_K, eval_Kn)
from .measures import DislocationConfig, group_by_plane
from .recovery import (ClassParams, UniformDensity, grid_approximation,
                       discretize_grid, snap_modification)
from .transport import (dual_lower_bound, eps_relaxed_distance,
                        horizontal_marginal_w1, slip_distance, w1_distance)

OUTPUT_ENV = "SLIPDYN_OUT"


def resolve_outdir(cfg: ExperimentConfig, override: str | None) -> Path:
    base = override or cfg.output_dir or os.environ.get(OUTPUT_ENV) or "runs"
    out = Path(base)
    if override is None and cfg.output_dir is None:
        out = out / cfg.experiment
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows, cfg: ExperimentConfig):
    with open(path, "w", newline="") as fh:
        fh.write(f"# slipdyn {__version__} schema 1 config {cfg.sha}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row[h]) for h in header])


def _write_metadata(outdir: Path, cfg: ExperimentConfig, seed: int,
                    threads: int | None, extra=None):
    meta = {
        "schema": 1,
        "version": __version__,
        "experiment": cfg.experiment,
        "config_sha256": cfg.sha,
        "seed": seed,
        "threads": threads,
    }
    if extra:
        meta.update(extra)
    (outdir / "metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def cmd_simulate(cfg: ExperimentConfig, outdir: Path, seed: int,
                 threads: int | None = None):
    """Quasi-static run: trace table with per-time diagnostics."""
    sec = cfg.section
    ctx = EnergyContext(mode=cfg.solver.mode, mat=cfg.material,
                        geom=cfg.geometry, quad=cfg.quadrature, basis=cfg.basis)
    init = DislocationConfig(sec["initial_points"], cfg.schedule, cfg.geometry.r_box)
    times = np.linspace(0.0, cfg.loading.time_horizon, sec["steps"] + 1)
    trace = run_quasistatic(init, times, cfg.loading, cfg.solver, ctx,
                            pre_relax=sec["pre_relax"])
    balance = energy_balance_series(trace, cfg.loading)
    flow = flow_rule_steps(trace)
    diss = trace.dissipation
    rows = []
    for k, t in enumerate(trace.times):
        c = trace.configs[k]
        stab = stability_excess(c, trace.forces[k])
        rows.append({
            "t": float(t),
            "positions": json.dumps(np.round(c.points, 15).tolist()),
            "energy": float(trace.energies[k]),
            "load": float(np.mean(cfg.loading.potential(float(t), c.points))),
            "step_d": float(trace.step_d[k]),
            "cumulative_d": float(diss[k]),
            "stability_excess": stab,
            "flow_residual": float(flow[k]),
            "balance_residual": float(balance[k]),
        })
    header = ["t", "positions", "energy", "load", "step_d", "cumulative_d",
              "stability_excess", "flow_residual", "balance_residual"]
    _write_csv(outdir / "trace.csv", header, rows, cfg)
    summary = {
        "final_positions": trace.configs[-1].points.tolist(),
        "total_dissipation": float(diss[-1]),
        "max_balance_residual": float(np.max(balance)),
        "max_flow_residual": float(np.max(flow)),
    }
    (outdir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write_metadata(outdir, cfg, seed, threads)
    return rows


def cmd_gamma(cfg: ExperimentConfig, outdir: Path, seed: int,
              threads: int | None = None):
    """Convergence ladder: |F_n(recovery config) - F(limit measure)| per n."""
    sec = cfg.section
    geom, mat, q = cfg.geometry, cfg.material, cfg.quadrature
    (cx, cy), s = sec["target"]["center"], sec["target"]["side"]
    target = UniformDensity(Rect(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    density = grid_approximation(target, sec["h"], geom, origin=sec["origin"])
    params = ClassParams(*sec["gamma_c"])

    ctx = EnergyContext(mode=sec["mode"], mat=mat, geom=geom, quad=q, basis=cfg.basis)
    f_limit = ctx.renormalized_energy(density)

    rows = []
    for n in sec["n_ladder"]:
        config_n = discretize_grid(density, n, cfg.schedule, geom)
        f_n = ctx.renormalized_energy(config_n)
        # snap pitch follows the class spacing, clamped into the feasible range
        eta = min(params.min_plane_spacing(n), 0.5 * geom.r_box.width)
        snapped = snap_modification(config_n, eta)
        d_snap = slip_distance(config_n.measure(), snapped.measure())
        rows.append({
            "n": n,
            "f_n": float(f_n),
            "f_limit": float(f_limit),
            "error": abs(float(f_n) - float(f_limit)),
            "snap_eta": float(eta),
            "d_snap": float(d_snap),
        })
    header = ["n", "f_n", "f_limit", "error", "snap_eta", "d_snap"]
    _write_csv(outdir / "gamma.csv", header, rows, cfg)
    _write_metadata(outdir, cfg, seed, threads)
    return rows


def cmd_distance(cfg: ExperimentConfig, outdir: Path, seed: int,
                 threads: int | None = None):
    """Distance suite for a measure pair: d, relaxation ladder, dual bounds."""
    sec = cfg.section
    mu, nu = sec["mu"], sec["nu"]
    rng = np.random.default_rng(seed)
    rows = []
    d = slip_distance(mu, nu)
    rows.append({"quantity": "slip_distance", "parameter": "", "value":
                 ("inf" if math.isinf(d) else float(d))})
    for eps in sec["eps_ladder"]:
        de = eps_relaxed_distance(mu, nu, eps)
        rows.append({"quantity": "eps_relaxed", "parameter": repr(eps),
                     "value": float(de)})
    rows.append({"quantity": "w1", "parameter": "", "value": float(w1_distance(mu, nu))})
    rows.append({"quantity": "horizontal_marginal_w1", "parameter": "",
                 "value": float(horizontal_marginal_w1(mu, nu))})
    lo = min(mu.points[:, 0].min(), nu.points[:, 0].min()) - 1.0
    hi = max(mu.points[:, 0].max(), nu.points[:, 0].max()) + 1.0
    for name, phi in (("x1", lambda p: min(max(p[0], lo), hi)),
                      ("neg_x1", lambda p: -min(max(p[0], lo), hi))):
        rows.append({"quantity": "dual_bound", "parameter": name,
                     "value": float(dual_lower_bound(mu, nu, phi))})
    # per-plane affine test functions, keyed by transport's plane grouping
    atoms = np.concatenate([mu.points, nu.points])
    planes = group_by_plane(atoms)
    plane_of = {float(y): k for k, (_, idx) in enumerate(planes) for y in atoms[idx, 1]}
    for k in range(3):
        slopes = [rng.uniform(-1, 1) for _ in planes]
        offs = [rng.uniform(-1, 1) for _ in planes]

        def phi(p, slopes=slopes, offs=offs):
            i = plane_of[float(p[1])]
            return slopes[i] * p[0] + offs[i]

        rows.append({"quantity": "dual_bound", "parameter": f"random_{k}",
                     "value": float(dual_lower_bound(mu, nu, phi))})
    header = ["quantity", "parameter", "value"]
    _write_csv(outdir / "distance.csv", header, rows, cfg)
    _write_metadata(outdir, cfg, seed, threads)
    return rows


def cmd_kernel_check(cfg: ExperimentConfig, outdir: Path, seed: int,
                     threads: int | None = None):
    """Field identity suite: circulation, equilibrium, core traction."""
    sec = cfg.section
    mat = cfg.material
    z, quad_n, eps = sec["source"], sec["quad_n"], sec["eps"]
    core = CoreRadius(eps)
    rng = np.random.default_rng(seed)
    rows = []

    def record(check, parameter, value, threshold):
        rows.append({"check": check, "parameter": parameter, "value": float(value),
                     "threshold": float(threshold),
                     "passed": bool(value <= threshold)})

    for r in sec["radii"]:
        for check, n in (("circulation_K", quad_n), ("circulation_K_refined", quad_n * 2)):
            c = circulation(z, r, lambda p: eval_K(p, z, mat), n)
            record(check, repr(r), float(np.max(np.abs(c - np.array([1.0, 0.0])))), 1e-8)

    h = sec["div_h"]
    worst_k = worst_kn = 0.0
    for _ in range(sec["div_points"]):
        # safe points: far enough that the finite-difference truncation of the
        # singular field stays below the identity threshold
        th = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.4, 1.0)
        x = z + r * np.array([math.cos(th), math.sin(th)])
        worst_k = max(worst_k, divergence_residual(
            lambda p: eval_K(p, z, mat), x, mat, h))
        worst_kn = max(worst_kn, divergence_residual(
            lambda p: eval_Kn(p, z, core, mat), x, mat, h))
    record("div_CK", "random_safe_points", worst_k, 1e-5)
    record("div_CKn", "random_safe_points", worst_kn, 1e-5)

    radius = 2 * eps if sec["break_traction"] else eps
    worst_t = 0.0
    for th in np.linspace(0, 2 * math.pi, sec["traction_samples"], endpoint=False):
        nu = np.array([math.cos(th), math.sin(th)])
        t = apply_C(eval_Kn(z + radius * nu, z, core, mat), mat) @ nu
        worst_t = max(worst_t, float(np.max(np.abs(t))))
    record("core_traction_Kn",
           "broken_radius" if sec["break_traction"] else "core_radius",
           worst_t, 1e-8)

    # refinement drop: on a circle centered at the source the integrand is a
    # trigonometric polynomial and the trapezoid rule is exact at any count, so
    # the convergence order is demonstrated on an off-center enclosing circle
    center = z + np.array([0.04, 0.02])
    errs = []
    for qn in (12, 24):
        c = circulation(center, 0.1, lambda p: eval_K(p, z, mat), qn)
        errs.append(float(np.max(np.abs(c - np.array([1.0, 0.0])))))
    record("circulation_refinement_drop", "off_center_quad_doubling", errs[1],
           max(0.5 * errs[0], 1e-13))

    header = ["check", "parameter", "value", "threshold", "passed"]
    _write_csv(outdir / "kernel_check.csv", header, rows, cfg)
    _write_metadata(outdir, cfg, seed, threads,
                    extra={"all_passed": all(r["passed"] for r in rows)})
    return rows


RUNNERS = {
    "simulate": cmd_simulate,
    "gamma": cmd_gamma,
    "distance": cmd_distance,
    "kernel_check": cmd_kernel_check,
}
