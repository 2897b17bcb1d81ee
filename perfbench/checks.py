"""Output checks of one pass, run after its timed region.

Each check returns the worst deviation it saw and its tolerance.  Checks on a
single op (a trace row, a gamma rung, a distance query) fail that op; checks
on the run as a whole fail every op of the pass.  Tolerances are those of the
repository's tests for the same property.
"""
from __future__ import annotations

import json
import math

import numpy as np

ORACLE_TOL = 2e-5      # test_boundary_route_matches_quadrature
FORCE_TOL = 1e-5       # test_bounded_force_matches_energy_gradient
FORCE_DELTA = 1e-5
LADDER_TOL = 1e-6      # A4: eps=1e-3 relaxation against the slip distance
DUAL_TOL = 1e-12       # A4: dual bounds never exceed the slip distance
MIN_PAIR_SEP = 0.03    # pairs closer than this make the quadrature oracle slow


class Report:
    """Worst deviation and tolerance per named check."""

    def __init__(self):
        self.checks: dict[str, dict] = {}

    def add(self, name: str, value: float, tol: float) -> bool:
        ok = bool(value <= tol)          # NaN fails
        c = self.checks.setdefault(name, {"worst": -math.inf, "tol": tol,
                                          "n": 0, "ok": True})
        c["worst"] = max(c["worst"], value) if not math.isnan(value) else math.nan
        c["n"] += 1
        c["ok"] = c["ok"] and ok
        return ok


def _oracle_pairs(report, point_sets, cfg):
    """Boundary-route V of two sampled pairs against the 2-D quadrature oracle."""
    from slipdyn.interaction import interaction_cross_matrix, v_pair
    geom, mat, q = cfg.geometry, cfg.material, cfg.quadrature
    ok = True
    done = 0
    for pts in point_sets:
        for i in range(len(pts)):
            for j in range(len(pts) - 1, i, -1):
                y, z = pts[i], pts[j]
                if done == 2 or np.hypot(*(y - z)) < MIN_PAIR_SEP:
                    continue
                fast = interaction_cross_matrix(y[None, :], z[None, :], geom,
                                                mat, q)[0, 0]
                ok &= report.add("cross_matrix_vs_v_pair",
                                 abs(fast - v_pair(y, z, geom, mat, q)), ORACLE_TOL)
                done += 1
    return ok


def _energy(ctx, pts, t, load):
    return (ctx.interaction_of_points(pts) + ctx.corrector_energy_of_points(pts)
            - float(np.mean(load.potential(t, pts))))


def _forces_vs_fd(report, cfg, samples):
    """Program forces against central differences of the total energy."""
    from slipdyn.evolution import EnergyContext, driving_force
    from slipdyn.measures import DislocationConfig
    ctx = EnergyContext(mode=cfg.solver.mode, mat=cfg.material,
                        geom=cfg.geometry, quad=cfg.quadrature, basis=cfg.basis)
    load = cfg.loading
    ok = True
    for t, pts, i in samples:
        f = driving_force(DislocationConfig(pts, cfg.schedule, cfg.geometry.r_box),
                          t, load, ctx).values[i]
        ep = pts.copy(); ep[i, 0] += FORCE_DELTA
        em = pts.copy(); em[i, 0] -= FORCE_DELTA
        fd = -len(pts) * (_energy(ctx, ep, t, load)
                          - _energy(ctx, em, t, load)) / (2 * FORCE_DELTA)
        ok &= report.add("force_vs_energy_fd", abs(f - fd), FORCE_TOL)
    return ok


def _gauge(report, cfg, pts):
    from slipdyn.corrector import solve_corrector
    from slipdyn.measures import DiscreteMeasure
    sol = solve_corrector(DiscreteMeasure.equal_weights(pts), cfg.geometry,
                          cfg.material, cfg.basis, cfg.quadrature)
    return report.add("corrector_gauge_residual", sol.gauge_residual,
                      cfg.quadrature.tol)


def check_simulate(cfg, rows, report: Report):
    """Per row: stability excess within sweep_tol (A8) and a finite energy."""
    op_ok = []
    for r in rows:
        ok = report.add("stability_excess", float(r["stability_excess"]),
                        cfg.solver.sweep_tol)
        ok &= report.add("energy_not_finite", 0.0 if math.isfinite(r["energy"])
                         else math.inf, 0.0)
        op_ok.append(ok)
    positions = [np.array(json.loads(r["positions"])) for r in rows]
    box = cfg.geometry.r_box
    # up to two dislocations clear of the box edges, where the corrector
    # force switches to one-sided differences
    samples = [(rows[k]["t"], positions[k], i) for k in (len(rows) - 1, 0)
               for i, p in enumerate(positions[k])
               if min(p[0] - box.x0, box.x1 - p[0]) > 1e-3][:2]
    whole = _forces_vs_fd(report, cfg, samples)
    if cfg.solver.mode == "bounded":
        whole &= _oracle_pairs(report, (positions[0], positions[-1]), cfg)
        whole &= _gauge(report, cfg, positions[-1])
    return op_ok if whole else [False] * len(op_ok)


def check_gamma(cfg, rows, report: Report):
    """Per rung: finite energies and snap cost within eta."""
    from slipdyn.geometry import Rect
    from slipdyn.recovery import UniformDensity, discretize_grid, grid_approximation
    op_ok = []
    for r in rows:
        finite = all(math.isfinite(r[k]) for k in ("f_n", "f_limit", "error"))
        ok = report.add("f_n_not_finite", 0.0 if finite else math.inf, 0.0)
        ok &= report.add("d_snap_over_eta", r["d_snap"] - r["snap_eta"],
                         1e-12 * r["snap_eta"])
        op_ok.append(ok)
    sec = cfg.section
    cx, cy = sec["target"]["center"]
    s = sec["target"]["side"]
    target = UniformDensity(Rect(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    density = grid_approximation(target, float(sec["h"]), cfg.geometry,
                                 origin=tuple(sec["origin"]))
    pts = discretize_grid(density, int(sec["n_ladder"][0]), cfg.schedule,
                          cfg.geometry).points
    whole = True
    if sec["mode"] == "bounded":
        whole &= _oracle_pairs(report, (pts,), cfg)
        whole &= _gauge(report, cfg, pts)
    return op_ok if whole else [False] * len(op_ok)


def check_distance(cfg, rows, report: Report):
    """The eps=1e-3 LP equals the slip distance; dual bounds stay below it."""
    d = next(r["value"] for r in rows if r["quantity"] == "slip_distance")
    finite = isinstance(d, float) and math.isfinite(d)
    ok = report.add("slip_distance_not_finite", 0.0 if finite else math.inf, 0.0)
    if not finite:
        return [False]
    for r in rows:
        if r["quantity"] == "eps_relaxed" and float(r["parameter"]) == 1e-3:
            ok &= report.add("eps_1e-3_lp_vs_slip_distance", abs(r["value"] - d),
                             LADDER_TOL)
        elif r["quantity"] == "dual_bound":
            ok &= report.add("dual_bound_over_distance", r["value"] - d, DUAL_TOL)
    return [ok]


CHECKS = {"simulate": check_simulate, "gamma": check_gamma,
          "distance": check_distance}
