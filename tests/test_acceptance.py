"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
and timings.  Budgets are asserted with the stated limits.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import random_config
from slipdyn.config import load_config
from slipdyn.evolution import (EnergyContext, LoadingProgram, SolverConfig,
                               energy_balance_residual, incremental_step,
                               run_quasistatic)
from slipdyn.experiments import cmd_gamma, cmd_simulate
from slipdyn.kernels import (CoreRadius, apply_C, circulation,
                             divergence_residual, eval_K, eval_Kn)
from slipdyn.interaction import v_pair
from slipdyn.measures import DiscreteMeasure, DislocationConfig, ScalingSchedule
from slipdyn.geometry import Rect
from slipdyn.recovery import (ClassParams, LineDensity, UniformDensity,
                              class_membership, slipclass_discretize,
                              snap_modification)
from slipdyn.transport import (dual_lower_bound, eps_relaxed_distance,
                               horizontal_marginal_w1, slip_distance,
                               w1_distance)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(name, ok, detail, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if budget is not None:
        timing = f" [{elapsed:.2f}s / {budget:.0f}s]"
    print(f"{name} {status}: {detail}{timing}")


def test_A1_kernel_identities(mat):
    t0 = time.perf_counter()
    z = np.array([0.5, 0.5])
    worst_circ = 0.0
    for r in (0.05, 0.1, 0.5):
        c = circulation(z, r, lambda p: eval_K(p, z, mat), 512)
        worst_circ = max(worst_circ, float(np.max(np.abs(c - np.array([1.0, 0.0])))))
    rng = np.random.default_rng(0)
    worst_div = 0.0
    for _ in range(50):
        th = rng.uniform(0, 2 * math.pi)
        rr = rng.uniform(0.4, 1.0)
        x = z + rr * np.array([math.cos(th), math.sin(th)])
        worst_div = max(worst_div, divergence_residual(
            lambda p: eval_K(p, z, mat), x, mat, 1e-4))
    eps = 0.05
    core = CoreRadius(eps)
    worst_trac = 0.0
    for th in np.linspace(0, 2 * math.pi, 64, endpoint=False):
        nu = np.array([math.cos(th), math.sin(th)])
        t = apply_C(eval_Kn(z + eps * nu, z, core, mat), mat) @ nu
        worst_trac = max(worst_trac, float(np.max(np.abs(t))))
    elapsed = time.perf_counter() - t0
    ok = worst_circ <= 1e-8 and worst_div <= 1e-5 and worst_trac <= 1e-8 \
        and elapsed < 1.0
    report("A1", ok, f"circ={worst_circ:.2e} div={worst_div:.2e} "
                     f"traction={worst_trac:.2e}", 1.0, elapsed)
    assert ok


def test_A2_v_asymptotics(geom, mat, quad):
    t0 = time.perf_counter()
    coef = 2 / (3 * math.pi)
    c = np.array([0.5, 0.5])
    devs = {}
    for s in (1e-2, 1e-3):
        y = c - [s / 2, 0.0]
        z = c + [s / 2, 0.0]
        ratio = v_pair(y, z, geom, mat, quad) / (-math.log(s))
        devs[s] = abs(ratio - coef) / coef
    elapsed = time.perf_counter() - t0
    ok = devs[1e-2] <= 0.05 and devs[1e-3] <= 0.05 and devs[1e-3] < devs[1e-2] \
        and elapsed < 30.0
    report("A2", ok, f"rel dev at 1e-2: {devs[1e-2]:.3f}, at 1e-3: {devs[1e-3]:.3f} "
                     f"(stated bound 0.05; the domain's regular part, about "
                     f"-0.088, keeps these near 0.09/0.06 -- the bound first "
                     f"holds near separation 2e-4)", 30.0, elapsed)
    assert ok


def test_A3_gamma_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "gamma_uniform.json")
    rows = cmd_gamma(cfg, tmp_path, seed=0)
    errors = [r["error"] for r in rows]
    elapsed = time.perf_counter() - t0
    ok = errors[0] > errors[1] > errors[2] \
        and errors[2] <= 0.25 * errors[0] and elapsed < 300.0
    report("A3", ok, "errors " + " > ".join(f"{e:.2e}" for e in errors)
           + f", ratio {errors[2] / errors[0]:.3f} <= 0.25", 300.0, elapsed)
    assert ok


def test_A4_distance_suite():
    t0 = time.perf_counter()
    mu = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[1.0, 0.0], [3.0, 0.0]], [0.5, 0.5])
    ok = slip_distance(mu, nu) == 1.0
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    for _ in range(20):
        planes = np.cumsum(rng.uniform(0.3, 0.6, 2))
        a = DiscreteMeasure.equal_weights(
            [[rng.uniform(0, 1), y] for y in planes for _ in range(2)])
        b = DiscreteMeasure.equal_weights(
            [[rng.uniform(0, 1), y] for y in planes for _ in range(2)])
        gap = abs(eps_relaxed_distance(a, b, 1e-3) - slip_distance(a, b))
        worst_gap = max(worst_gap, gap)
    ok &= worst_gap <= 1e-6
    duals_ok = True
    chain_ok = True
    for _ in range(100):
        planes = [0.0, 0.5]
        a = DiscreteMeasure.equal_weights(
            [[rng.uniform(0, 1), y] for y in planes for _ in range(2)])
        b = DiscreteMeasure.equal_weights(
            [[rng.uniform(0, 1), y] for y in planes for _ in range(2)])
        d = slip_distance(a, b)
        slope = {y: rng.uniform(-1, 1) for y in planes}
        phi = lambda p: slope[round(float(p[1]), 9)] * p[0]
        duals_ok &= dual_lower_bound(a, b, phi) <= d + 1e-12
        h1 = horizontal_marginal_w1(a, b)
        w1 = w1_distance(a, b)
        chain_ok &= h1 <= w1 + 1e-10 and w1 <= d + 1e-10
    elapsed = time.perf_counter() - t0
    ok = ok and duals_ok and chain_ok and elapsed < 10.0
    report("A4", ok, f"worked example d=1, ladder gap {worst_gap:.1e} <= 1e-6, "
                     f"duals dominated: {duals_ok}, chain: {chain_ok}",
           10.0, elapsed)
    assert ok


def test_A5_single_dislocation_ramp(geom, mat, small_schedule):
    t0 = time.perf_counter()
    ctx = EnergyContext(mode="freespace", mat=mat)
    load = LoadingProgram(lambda t: t, 2.0, sigma_dot=lambda t: 1.0)
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    times = np.linspace(0, 2, 201)
    trace = run_quasistatic(cfg, times, load, SolverConfig(), ctx)
    pos = trace.positions()[:, 0, 0]
    static = bool(np.all(pos[times <= 1.0 + 1e-12] == 0.5))
    jump = pos[int(np.argmax(times > 1.0))] == geom.r_box.x1
    r200 = energy_balance_residual(trace, load)
    trace400 = run_quasistatic(cfg, np.linspace(0, 2, 401), load,
                               SolverConfig(), ctx)
    r400 = energy_balance_residual(trace400, load)
    elapsed = time.perf_counter() - t0
    ok = static and jump and r200 <= 0.05 and r400 <= 0.6 * r200 and elapsed < 5.0
    report("A5", ok, f"static below threshold: {static}, jump to edge: {jump}, "
                     f"balance {r200:.2e} -> {r400:.2e}", 5.0, elapsed)
    assert ok


def test_A6_two_dislocation_spreading(geom, mat, small_schedule):
    t0 = time.perf_counter()
    ctx = EnergyContext(mode="freespace", mat=mat)
    load = LoadingProgram(lambda t: 0.0, 1.0, sigma_dot=lambda t: 0.0)
    cfg = DislocationConfig([[0.475, 0.5], [0.525, 0.5]], small_schedule,
                            geom.r_box)
    new = incremental_step(cfg, 0.0, load, SolverConfig(), ctx)
    sep = new.points[1, 0] - new.points[0, 0]
    target = 1 / (3 * math.pi)
    rel = abs(sep - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.02 and elapsed < 10.0
    report("A6", ok, f"final separation {sep:.6f} vs 1/(3 pi) = {target:.6f} "
                     f"(rel {rel:.2e})", 10.0, elapsed)
    assert ok


def test_A7_rate_independence(geom, mat, small_schedule):
    ctx = EnergyContext(mode="freespace", mat=mat)
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    a = run_quasistatic(cfg, np.linspace(0, 2, 201),
                        LoadingProgram(lambda t: t, 2.0, sigma_dot=lambda t: 1.0),
                        SolverConfig(), ctx)
    b = run_quasistatic(cfg, np.linspace(0, 1, 201),
                        LoadingProgram(lambda t: 2 * t, 1.0, sigma_dot=lambda t: 2.0),
                        SolverConfig(), ctx)
    diff = float(np.max(np.abs(a.positions() - b.positions())))
    ok = diff <= 1e-12
    report("A7", ok, f"max position difference between reparameterized ramps: "
                     f"{diff:.2e}")
    assert ok


def test_A8_trace_invariants_on_shipped_configs(tmp_path):
    import csv
    results = []
    for name in ("ramp_single", "spreading_pair", "zero_load", "bounded_pair",
                 "bounded_ramp"):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        out = tmp_path / name
        out.mkdir()
        cmd_simulate(cfg, out, seed=cfg.seed)
        with open(out / "trace.csv") as fh:
            fh.readline()
            parsed = list(csv.DictReader(fh))
        positions = [np.array(json.loads(r["positions"])) for r in parsed]
        planes0 = positions[0][:, 1]
        planes_ok = all(np.array_equal(p[:, 1], planes0) for p in positions)
        r_n = cfg.schedule.r(len(planes0))
        sep_ok = all(
            len(p) < 2 or
            np.min([np.hypot(*(p[i] - p[j])) for i in range(len(p))
                    for j in range(i + 1, len(p))]) >= r_n * (1 - 1e-9)
            for p in positions)
        box = cfg.geometry.r_box
        conf_ok = all(box.contains(q, tol=1e-12) for p in positions for q in p)
        stab_ok = all(float(r["stability_excess"]) <= cfg.solver.sweep_tol
                      for r in parsed)
        # per-step minimality from the recorded energies and loads
        minimality_ok = True
        for k in range(1, len(parsed)):
            t = float(parsed[k]["t"])
            e_new = float(parsed[k]["energy"])
            e_old = float(parsed[k - 1]["energy"])
            sig = cfg.loading.sigma(t)
            load_new = sig * float(np.mean(positions[k][:, 0]))
            load_old = sig * float(np.mean(positions[k - 1][:, 0]))
            lhs = e_new - load_new + float(parsed[k]["step_d"])
            rhs = e_old - load_old
            minimality_ok &= lhs <= rhs + 1e-9
        results.append((name, planes_ok and sep_ok and conf_ok and stab_ok
                        and minimality_ok))
    ok = all(r[1] for r in results)
    report("A8", ok, "; ".join(f"{n}: {'ok' if v else 'VIOLATED'}"
                               for n, v in results))
    assert ok


def test_A9_constructor_contracts(geom, wide_geom, schedule):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    sched = ScalingSchedule(r_coef=0.05)
    snap_ok = True
    for _ in range(100):
        cfg = random_config(rng, geom, sched, int(rng.integers(1, 4)),
                            int(rng.integers(1, 5)))
        eta = float(rng.uniform(0.02, 0.3))
        snapped = snap_modification(cfg, eta)
        m = max(len(idx) for _, idx in cfg.planes())
        snap_ok &= [y for y, _ in snapped.planes()] == [y for y, _ in cfg.planes()]
        snap_ok &= slip_distance(cfg.measure(), snapped.measure()) <= eta + 1e-12
        snap_ok &= all(geom.r_box.contains(p, tol=1e-12) for p in snapped.points)
        for _, idx in snapped.planes():
            xs = np.sort(snapped.points[idx, 0])
            if len(xs) > 1:
                snap_ok &= bool(np.min(np.diff(xs)) >= eta / m - 1e-12)
    class_ok = True
    for n in (64, 256):
        cfg0 = slipclass_discretize(
            UniformDensity(Rect(0.5, 0.5, 1.5, 1.5)),
            n, ClassParams(0.0, 1.0), schedule, wide_geom)
        class_ok &= class_membership(cfg0, ClassParams(0.0, 1.0)).ok
        cfg5 = slipclass_discretize(
            LineDensity(planes=((1.0, 1.0, 0.5, 1.5),)),
            n, ClassParams(0.5, 0.5), schedule, wide_geom)
        class_ok &= class_membership(cfg5, ClassParams(0.5, 0.5)).ok
    elapsed = time.perf_counter() - t0
    ok = snap_ok and class_ok and elapsed < 10.0
    report("A9", ok, f"snap contract on 100 random configs: {snap_ok}, "
                     f"class membership at (0,1) and (1/2,1/2): {class_ok}",
           10.0, elapsed)
    assert ok
