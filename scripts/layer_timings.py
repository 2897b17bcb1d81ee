#!/usr/bin/env python3
"""Time single layers alone: medians of repeated calls and peak RSS.

Sections:

* one ``K_offsets`` batch of 4096 offsets, per offset;
* one source's boundary row and column (``_boundary_sums`` of one source);
* blocks of 16, 64 and 256 sources through the same sum, per source;
* one source's and one in-place block of 16 sources' rows, columns and
  derivative rows (``interaction._boundary_data`` with ``dy1``), per source;
* one build of a sweep step's bounded arrays
  (``evolution._StepTable._bounded_arrays``: every atom's weighted row and
  column and its derivative row) and, apart from it, one bounded force probe
  (``evolution._StepTable.probe``: the moved dislocation's row, column and
  derivative row, the sums run on from the table's arrays and one corrector
  solve) at n = 2, 16 and 64 dislocations;
* one landing's update of those arrays and the step's next all-rows force
  (``evolution._StepTable.moved(i)``, then its ``forces()``: one atom's
  boundary data, the arrays' sums, one corrector solve and the kept
  derivative rows' dot products) at n = 2, 16 and 64;
* one 48-point bounded march to the box edge (``evolution._land_position``
  at n = 2, under a shear that keeps the force above 1 all the way), on the
  probe's block method (chunks of 1, 2, 4, 8 and 16 points) and on the same
  probe one point at a time;
* one free-space force probe (one row of the sweep's pair table, in its
  ``evolution._StepTable``, against the live abscissae) and one build of that
  pair table (``evolution._pair_table``) at n = 16 and 64, on 4 and 8 slip
  planes;
* one landing search (``evolution._land_position``) on such a free-space
  probe: the leftmost dislocation of the lowest plane, under a shear set so
  that its force is 1.5 where it stands, toward its right neighbour;
* the free-space lattice ramps of ROADMAP item 6, 4 x 4 and 8 x 8
  dislocations (x and y in [0.3, 0.7], ``r_coef`` 0.05, sigma from 0.9 to
  1.6 over 100 steps, ``pre_relax``, the default solver; a 25th of the
  repeats, at least 1), each printed with its sweeps per step and landings
  and with its Newton finishes (``evolution._newton_finish`` calls) and
  iterations (its ``np.linalg.solve`` calls); the sweeps are counted as the
  sweep's passes over its plane orders;
* one bounded sweep step: the first moving ``evolution.incremental_step`` of
  the 16-dislocation ramp of ROADMAP item 2 (4 planes from y = 0.35 to 0.65,
  4 lattice abscissae from 0.4 to 0.6 each, sigma = t, the step to t = 0.8,
  ``sweep_tol`` 1e-6) on a fresh ``EnergyContext`` each time (a tenth of the
  repeats, at least 3), printed with its landings (``_StepTable.moved``
  calls) and placements (all-rows vectors, ``_StepTable.parts`` calls);
* one all-rows bounded force (``evolution._forces_at``: one build of a step
  table's arrays, with every atom's derivative row, their sums and one
  corrector solve) at
  n = 2, 16 and 64, on a fresh ``EnergyContext`` each time, which has kept no
  pass;
* one corrector build (``CorrectorSolver``: stiffness, factorization and the
  resolution check; a tenth of the repeats, at least 3), the tracemalloc
  peak of one build, and one corrector solve (``CorrectorSolver._solve`` of a
  fixed linear form) at degrees 8, 16, 24 and 28;
* one ``slip_distance`` between two 64-atom configurations on the same 8
  slip planes;
* one ``snap_modification`` of the ``discretize_grid`` configuration of
  ``configs/gamma_uniform.json`` at n = 256 and 1024, with the snap pitch eta of
  the ``gamma`` experiment, per atom, and at n = 1024 with the nearest-node
  shortcut switched off, so every plane runs the dynamic program;
* one continuum energy (``EnergyContext.renormalized_energy``) of that config's
  cell density, bounded and in free space, per cell.

Unit square, Material(1, 1), default quadrature (128 points per edge) and
Ritz degree 8, as in ``configs/bounded_pair.json`` and
``configs/gamma_uniform.json``.  Peak RSS is the process
maximum after each section, so it never decreases down the table and cannot
isolate one build; the traced peaks (10^6 bytes) can.  Nothing is
asserted.  Pin the BLAS threads for comparable numbers:

Usage: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_timings.py [--repeat N]
"""
import argparse
import os
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from slipdyn.config import load_config
from slipdyn.corrector import CorrectorSolver, RitzBasis, get_solver
from slipdyn import evolution
from slipdyn.evolution import (EnergyContext, LoadingProgram, SolverConfig, _StepTable,
                               _forces_at, _land_position, _pair_table, incremental_step,
                               run_quasistatic)
from slipdyn.geometry import Rect, unit_geometry
from slipdyn import recovery
from slipdyn.interaction import QuadratureConfig, _boundary_data, _boundary_grid, _boundary_sums
from slipdyn.kernels import K_offsets, Material
from slipdyn.measures import DiscreteMeasure, DislocationConfig, ScalingSchedule
from slipdyn.recovery import (ClassParams, UniformDensity, discretize_grid,
                              grid_approximation, snap_modification)
from slipdyn.transport import slip_distance

GAMMA_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gamma_uniform.json"


def _median_s(fn, repeat):
    """Median wall time of ``fn()`` over ``repeat`` calls, after one warm-up."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_peak_mb(fn):
    """tracemalloc peak of one call of ``fn()``, in 10^6 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _report(label, seconds, per):
    print(f"{label:<34} {seconds * 1e6:12.1f} {seconds / per * 1e6:12.1f}"
          f" {_peak_rss_mb():10.1f}")


def _lattice_ramp(planes, geom, ctx, repeat):
    """Median time of one free-space lattice ramp of planes x planes
    dislocations, and the counts of its last run: steps, sweeps, landings,
    Newton finishes and their iterations, from wrappers of the evolution's
    functions that this script installs and removes."""
    xs = np.linspace(0.3, 0.7, planes)
    init = DislocationConfig(np.column_stack([np.tile(xs, planes), np.repeat(xs, planes)]),
                             ScalingSchedule(r_coef=0.05), geom.r_box)
    load = LoadingProgram(lambda t: 0.9 + 0.7 * t, 1.0, lambda t: 0.7)
    counts = {}

    class Orders(tuple):                # a sweep is one pass over the plane orders
        def __iter__(self):
            counts["sweeps"] += 1
            return super().__iter__()

    sweep, finish, residual = (evolution._sweep_to_stability, evolution._newton_finish,
                               evolution._residual_from_forces)
    land, solve = evolution._land_position, np.linalg.solve

    def counted_sweep(pts, shear, ctx, solver_cfg, box, r_n, orders):
        counts["steps"] += 1
        return sweep(pts, shear, ctx, solver_cfg, box, r_n, Orders(orders))

    def counted_land(*args):
        counts["landings"] += 1
        return land(*args)

    def counted_solve(*args):
        counts["iterations"] += 1
        return solve(*args)

    def counted_finish(table, movers, orders, box, r_n):
        counts["finishes"] += 1
        np.linalg.solve = counted_solve
        try:
            return finish(table, movers, orders[:], box, r_n)     # a slice is a plain tuple
        finally:
            np.linalg.solve = solve

    def run():
        counts.update(steps=0, sweeps=0, landings=0, finishes=0, iterations=0)
        run_quasistatic(init, np.linspace(0.0, 1.0, 101), load, SolverConfig(), ctx,
                        pre_relax=True)

    evolution._sweep_to_stability, evolution._land_position = counted_sweep, counted_land
    evolution._newton_finish = counted_finish
    evolution._residual_from_forces = lambda x, f, orders, *rest: residual(x, f, orders[:], *rest)
    try:
        return _median_s(run, repeat), counts
    finally:
        evolution._sweep_to_stability, evolution._land_position = sweep, land
        evolution._newton_finish, evolution._residual_from_forces = finish, residual


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()

    geom, mat, quad, basis = unit_geometry(), Material(1.0, 1.0), QuadratureConfig(), RitzBasis(8)
    grid = _boundary_grid(geom.omega, quad.boundary_points)
    ctx = EnergyContext("bounded", mat, geom, quad, basis)
    get_solver(geom, mat, basis, quad)          # built once, outside the timings
    shear = 0.05                                # sigma(t) of the step tables below
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.3, 0.7, (256, 2))

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"OPENBLAS_NUM_THREADS={threads}, {args.repeat} repeats, "
          f"{len(grid['gauss_w'])} boundary points")
    print(f"{'section':<34} {'median_us':>12} {'per_src_us':>12} {'peak_rss_mb':>10}")
    offsets = rng.uniform(-0.5, 0.5, (4096, 2))
    t = _median_s(lambda: K_offsets(offsets, mat), args.repeat)
    _report("K_offsets, 4096 offsets", t, len(offsets))
    for m in (1, 16, 64, 256):
        weights = np.full(m, 1.0 / m)
        t = _median_s(lambda: _boundary_sums(grid, pts[:m], weights, mat), args.repeat)
        _report(f"row + column, {m} source(s)", t, m)
    for m in (1, 16):
        t = _median_s(lambda: _boundary_data(grid, pts[:m], mat, dy1=True), args.repeat)
        _report(f"in-place data + dy1, {m} source(s)", t, m)
    for n in (2, 16, 64):
        t = _median_s(lambda: _StepTable(pts[:n], shear, ctx)._bounded_arrays(),
                      args.repeat)
        _report(f"bounded step arrays, n = {n}", t, n)
        probe = _StepTable(pts[:n].copy(), shear, ctx).probe(0)
        x = pts[0, 0] + 1e-3
        t = _median_s(lambda: probe(x), args.repeat)
        _report(f"bounded probe, n = {n}", t, n)
        live = pts[:n].copy()
        table, spots = _StepTable(live, shear, ctx), (live[0, 0], live[0, 0] + 1e-3)
        table.forces()

        def landing():               # alternate spots: the kept pass never serves it
            live[0, 0] = spots[1] if live[0, 0] == spots[0] else spots[0]
            table.moved(0)
            return table.forces()
        t = _median_s(landing, args.repeat)
        _report(f"bounded landing update, n = {n}", t, n)
    pair = np.array([[0.4, 0.35], [0.6, 0.65]])
    probe = _StepTable(pair, 10.0, ctx).probe(0)
    f0, edge = probe(pair[0, 0]), geom.r_box.x1
    for label, march in (("block", probe), ("one-point", lambda x: probe(x))):
        t = _median_s(lambda: _land_position(march, pair[0, 0], f0, 1.0, edge,
                                             SolverConfig().line_grid), args.repeat)
        _report(f"bounded 48-point march, {label}", t, SolverConfig().line_grid)
    fctx = EnergyContext("freespace", mat)
    for n, planes in ((16, 4), (64, 8)):
        free = np.column_stack([pts[:n, 0], np.repeat(np.linspace(0.3, 0.7, planes),
                                                      n // planes)])
        probe = _StepTable(free, shear, fctx).probe(0)
        x = free[0, 0] + 1e-3
        t = _median_s(lambda: probe(x), args.repeat)
        _report(f"free-space probe, n = {n}", t, n)
        t = _median_s(lambda: _pair_table(free), args.repeat)
        _report(f"free-space pair table, n = {n}", t, n)
        plane = np.arange(n // planes)
        i, right = plane[np.argsort(free[plane, 0])[:2]]
        pull = _StepTable(free, 0.0, fctx).probe(i)(free[i, 0])
        probe = _StepTable(free, 1.5 - pull, fctx).probe(i)
        f0, barrier = probe(free[i, 0]), free[right, 0] - 1e-3
        t = _median_s(lambda: _land_position(probe, free[i, 0], f0, 1.0, barrier,
                                             SolverConfig().line_grid), args.repeat)
        _report(f"free-space landing, n = {n}", t, 1)
    for planes in (4, 8):
        t, counts = _lattice_ramp(planes, geom, fctx, max(1, args.repeat // 25))
        _report(f"free-space lattice ramp, {planes} x {planes}", t, planes * planes)
        print(f"{'  its sweeps/step, landings':<34} {counts['sweeps'] / counts['steps']:12.2f}"
              f" {counts['landings']:12d}")
        print(f"{'  its Newton finishes, iterations':<34} {counts['finishes']:12d}"
              f" {counts['iterations']:12d}")
    ramp = DislocationConfig(np.column_stack([np.tile(np.linspace(0.4, 0.6, 4), 4),
                                              np.repeat(np.linspace(0.35, 0.65, 4), 4)]),
                             ScalingSchedule(), geom.r_box)
    unit_ramp = LoadingProgram(lambda t: t, 1.0, lambda t: 1.0)
    counts, moved, parts = [0, 0], _StepTable.moved, _StepTable.parts

    def counted_moved(table, i):
        counts[0] += 1
        return moved(table, i)

    def counted_parts(table):
        counts[1] += 1
        return parts(table)

    def sweep_step():
        counts[:] = [0, 0]
        incremental_step(ramp, 0.8, unit_ramp, SolverConfig(sweep_tol=1e-6, mode="bounded"),
                         EnergyContext("bounded", mat, geom, quad, basis))
    _StepTable.moved, _StepTable.parts = counted_moved, counted_parts
    try:
        t = _median_s(sweep_step, max(3, args.repeat // 10))
    finally:
        _StepTable.moved, _StepTable.parts = moved, parts
    _report("bounded sweep step, n = 16", t, 16)
    print(f"{'  its landings, placements':<34} {counts[0]:12d} {counts[1]:12d}")
    for n in (2, 16, 64):
        t = _median_s(lambda: _forces_at(pts[:n], 0.5, unit_ramp, EnergyContext(
            "bounded", mat, geom, quad, basis)), args.repeat)
        _report(f"all-rows bounded force, n = {n}", t, n)
    measure = DiscreteMeasure.equal_weights(pts[:16])
    for degree in (8, 16, 24, 28):
        t = _median_s(lambda: CorrectorSolver(geom, mat, RitzBasis(degree), quad),
                      max(3, args.repeat // 10))
        _report(f"corrector build, degree {degree}", t, 1)
        peak = _traced_peak_mb(lambda: CorrectorSolver(geom, mat, RitzBasis(degree), quad))
        print(f"{'  its tracemalloc peak, MB':<34} {peak:12.1f}")
        solver = CorrectorSolver(geom, mat, RitzBasis(degree), quad)
        b = solver.linear_form(measure)
        t = _median_s(lambda: solver._solve(b), args.repeat)
        _report(f"corrector solve, degree {degree}", t, 1)
    ys = np.repeat(np.linspace(0.3, 0.7, 8), 8)
    mu = DiscreteMeasure.equal_weights(np.column_stack([pts[:64, 0], ys]))
    nu = DiscreteMeasure.equal_weights(np.column_stack([pts[64:128, 0], ys]))
    t = _median_s(lambda: slip_distance(mu, nu), args.repeat)
    _report("slip_distance, 64 atoms", t, 64)

    # the gamma experiment's cell density, recovery configurations and snap pitch
    cfg = load_config(GAMMA_CONFIG)
    sec = cfg.section
    (cx, cy), s = sec["target"]["center"], sec["target"]["side"]
    target = UniformDensity(Rect(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    density = grid_approximation(target, sec["h"], cfg.geometry, origin=sec["origin"])
    params = ClassParams(*sec["gamma_c"])
    for n in (256, 1024):
        config_n = discretize_grid(density, n, cfg.schedule, cfg.geometry)
        eta = min(params.min_plane_spacing(n), 0.5 * cfg.geometry.r_box.width)
        t = _median_s(lambda: snap_modification(config_n, eta), args.repeat)
        _report(f"snap_modification, n = {n}", t, n)
    nearest, recovery._nearest_assignment = recovery._nearest_assignment, lambda xs, nodes: None
    try:
        t = _median_s(lambda: snap_modification(config_n, eta), args.repeat)
        _report("snap_modification, n = 1024, DP", t, 1024)
    finally:
        recovery._nearest_assignment = nearest
    for mode in ("bounded", "freespace"):
        ctx_c = EnergyContext(mode, cfg.material, cfg.geometry, cfg.quadrature, cfg.basis)
        t = _median_s(lambda: ctx_c.renormalized_energy(density), args.repeat)
        _report(f"continuum energy, {mode}", t, density.n_cells)


if __name__ == "__main__":
    main()
