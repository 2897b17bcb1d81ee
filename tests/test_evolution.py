import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slipdyn.evolution as evolution
from slipdyn.config import load_config
from slipdyn.experiments import RUNNERS
from slipdyn.kernels import Material
from slipdyn.measures import DislocationConfig, ScalingSchedule, group_by_plane, left_to_right
from slipdyn.evolution import (EnergyContext, LoadingProgram, SolverConfig,
                               _force_single, _land_position, driving_force,
                               energy_balance_residual, flow_rule_residual,
                               flow_rule_steps, incremental_step,
                               run_quasistatic, stability_excess, stability_residual)


LINE_GRID = SolverConfig().line_grid
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: the finish's largest per-step move off the plain sweep on the ramps of
#: test_newton_finish_stays_in_the_stable_set, 1.7e-12, with a margin
NEWTON_DRIFT = 1e-11


@pytest.fixture(scope="module")
def fctx(mat):
    return EnergyContext(mode="freespace", mat=mat)


def ramp_load(rate=1.0, horizon=2.0):
    return LoadingProgram.uniform_shear(lambda t: rate * t, horizon,
                                        sigma_dot=lambda t: rate)


def zero_load():
    return LoadingProgram.uniform_shear(lambda t: 0.0, 1.0, sigma_dot=lambda t: 0.0)


def test_single_dislocation_force(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    f = driving_force(cfg, 0.5, ramp_load(), fctx)
    assert f.values == pytest.approx([0.5])


def test_pair_force_magnitude(fctx, geom, small_schedule, mat):
    s = 0.05
    cfg = DislocationConfig([[0.5 - s / 2, 0.5], [0.5 + s / 2, 0.5]],
                            small_schedule, geom.r_box)
    f = driving_force(cfg, 0.0, zero_load(), fctx)
    expected = 1 / (3 * math.pi * s)
    assert f.values == pytest.approx([-expected, expected], rel=1e-12)


def test_force_matches_energy_gradient(fctx, geom, small_schedule, mat):
    # oracle: central finite differences of n * (total energy with load)
    rng = np.random.default_rng(17)
    load = ramp_load()
    done = 0
    while done < 20:
        n = int(rng.integers(1, 5))
        pts = rng.uniform(0.3, 0.7, (n, 2))
        try:
            cfg = DislocationConfig(pts, small_schedule, geom.r_box)
        except ValueError:
            continue
        done += 1
        t = float(rng.uniform(0, 0.9))
        f = driving_force(cfg, t, load, fctx)
        delta = 1e-5
        for i in range(n):
            ep = pts.copy(); ep[i, 0] += delta
            em = pts.copy(); em[i, 0] -= delta
            Ep = fctx.interaction_of_points(ep) - np.mean(load.potential(t, ep))
            Em = fctx.interaction_of_points(em) - np.mean(load.potential(t, em))
            fd = -n * (Ep - Em) / (2 * delta)
            assert abs(fd - f.values[i]) <= 1e-5


def test_bounded_force_matches_energy_gradient(geom, mat, quad, basis):
    ctx = EnergyContext(mode="bounded", mat=mat, geom=geom, quad=quad, basis=basis)
    sched = ScalingSchedule(r_coef=0.05)
    pts = np.array([[0.3, 0.4], [0.6, 0.4], [0.5, 0.62]])
    cfg = DislocationConfig(pts, sched, geom.r_box)
    load = ramp_load()
    f = driving_force(cfg, 0.4, load, ctx)
    delta = 1e-5
    n = 3
    for i in range(n):
        ep = pts.copy(); ep[i, 0] += delta
        em = pts.copy(); em[i, 0] -= delta
        Ep = (ctx.interaction_of_points(ep) + ctx.corrector_energy_of_points(ep)
              - np.mean(load.potential(0.4, ep)))
        Em = (ctx.interaction_of_points(em) + ctx.corrector_energy_of_points(em)
              - np.mean(load.potential(0.4, em)))
        fd = -n * (Ep - Em) / (2 * delta)
        assert abs(fd - f.values[i]) <= 1e-5


@pytest.mark.parametrize("domain", ["unit", "wide"])
def test_corrector_force_matches_energy_differences(domain, geom, wide_geom, mat,
                                                    quad, basis):
    # oracle: finite differences of the corrector energy; inward second-order
    # one-sided differences for atoms on the box edges, where a central
    # difference would step outside the boundary margin
    g, m = (geom, mat) if domain == "unit" else (wide_geom, Material(0.7, 1.3))
    ctx = EnergyContext(mode="bounded", mat=m, geom=g, quad=quad, basis=basis)
    box = g.r_box
    rng = np.random.default_rng(23)
    h = 1e-5 * box.diam
    for n in (1, 3, 5):
        pts = np.column_stack([rng.uniform(box.x0 + 0.1, box.x1 - 0.1, n),
                               rng.uniform(box.y0, box.y1, n)])
        if n > 1:
            pts[0, 0], pts[-1, 0] = box.x0, box.x1
        forces = ctx.corrector_forces(pts)

        def energy(i, dx):
            moved = pts.copy()
            moved[i, 0] += dx
            return ctx.corrector_energy_of_points(moved)

        for i in range(n):
            assert ctx.corrector_force_single(pts, i) == forces[i]
            x = pts[i, 0]
            if x == box.x0 or x == box.x1:
                s = 1.0 if x == box.x0 else -1.0
                grad = s * (-3 * energy(i, 0.0) + 4 * energy(i, s * h)
                            - energy(i, 2 * s * h)) / (2 * h)
            else:
                grad = (energy(i, h) - energy(i, -h)) / (2 * h)
            assert abs(-n * grad - forces[i]) <= 1e-6 * abs(forces[i])


def _pair_route_forces(pts, ctx):
    """Oracle: the interaction and corrector parts of the forces by the pair
    route.  The dV/dy_1 matrix (``oracles.dy1_matrix``) summed by rows and
    divided by n, and minus each derivative row's traction against the
    displacement of ``CorrectorSolver.solve`` of the equal-weight measure."""
    from oracles import dy1_matrix
    from slipdyn.corrector import get_solver
    from slipdyn.interaction import _boundary_data, _boundary_grid
    from slipdyn.measures import DiscreteMeasure
    grid = _boundary_grid(ctx.geom.omega, ctx.quad.boundary_points)
    solver = get_solver(ctx.geom, ctx.mat, ctx.basis, ctx.quad)
    u = solver.solve(DiscreteMeasure.equal_weights(pts)).coefficients
    disp = solver._vals @ u.reshape(2, -1).T
    rows = _boundary_data(grid, pts, ctx.mat, dy1=True)[:, 2]
    return (-dy1_matrix(pts, pts, ctx.geom, ctx.mat, ctx.quad).sum(axis=1) / len(pts),
            -np.einsum("iqk,qk->i", rows[:, :, :2], disp))


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("domain", ["unit", "wide"])
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_fused_forces_match_pair_route(n, domain, lam, mu, geom, wide_geom, quad, basis):
    # the one-pass bounded forces (summed rows and columns, one solve) against
    # the pair-matrix route they replaced, part by part
    g = geom if domain == "unit" else wide_geom
    ctx = EnergyContext("bounded", Material(lam, mu), g, quad, basis)
    box, rng = g.r_box, np.random.default_rng(n)
    pts = []
    while len(pts) < n:
        p = rng.uniform((box.x0, box.y0), (box.x1, box.y1))
        if all(np.hypot(*(p - q)) >= 0.02 for q in pts):
            pts.append(p)
    pts = np.array(pts)
    for got, ref in zip(ctx._force_parts(pts), _pair_route_forces(pts, ctx)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _bits(value):
    return np.float64(value).tobytes()


def _fresh_probe(pts, i, t, load, ctx):
    """The probe of dislocation i on a new step table of ``pts``."""
    return evolution._StepTable(pts, t, load, ctx).probe(i)


@pytest.mark.parametrize("mode", ["freespace", "bounded"])
def test_probe_equals_moved_force_single(mode, fctx, geom, mat, quad, basis):
    # oracle: _force_single of the configuration with dislocation i moved to
    # x, compared bit for bit (the sign of a zero included); a load of -0.0
    # makes the sign of a zero force depend on every term of the sum
    ctx = fctx if mode == "freespace" else EnergyContext(
        mode="bounded", mat=mat, geom=geom, quad=quad, basis=basis)
    loads = [ramp_load(),
             LoadingProgram.uniform_shear(lambda t: -0.0, 1.0,
                                          sigma_dot=lambda t: 0.0),
             LoadingProgram.custom(
                 f=None, f_dot=None, time_horizon=1.0,
                 f_x1=lambda t, p: t * np.sin(7 * p[:, 0]) * p[:, 1])]
    rng = np.random.default_rng(31)
    planes = [0.3, 0.45, 0.6, 0.75]
    for n in (1, 2, 16):
        pts = np.column_stack([rng.uniform(0.3, 0.7, n), np.resize(planes, n)])
        rows = range(n) if mode == "freespace" or n < 16 else (0, 9)
        for load in loads:
            for i in rows:
                probe = _fresh_probe(pts, i, 0.7, load, ctx)
                x0 = pts[i, 0]
                for x in (x0, x0 - 1e-3, x0 + 0.02, rng.uniform(0.2, 0.8)):
                    trial = pts.copy()
                    trial[i, 0] = x
                    assert _bits(probe(x)) == _bits(
                        _force_single(trial, i, 0.7, load, ctx))


def _count_sources(monkeypatch, modules):
    """Patch the boundary evaluator ``_boundary_data`` seen from ``modules``
    to count the sources it is given; returns the counter, [sources, of
    which with their derivative rows]."""
    import slipdyn.interaction as interaction
    sources, evaluate = [0, 0], interaction._boundary_data

    def counted(grid, zs, mat, dy1=False):
        m = len(np.reshape(zs, (-1, 2)))
        sources[0] += m
        sources[1] += m if dy1 else 0
        return evaluate(grid, zs, mat, dy1=dy1)

    for mod in modules:
        monkeypatch.setattr(mod, "_boundary_data", counted, raising=False)
    return sources


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("domain", ["unit", "wide"])
def test_bounded_probe_evaluates_one_source(domain, lam, mu, geom, wide_geom, quad,
                                            basis, monkeypatch):
    # a bounded probe evaluates the boundary data of its own dislocation only,
    # so it hands the same number of sources to the boundary evaluators at
    # n = 16 and at n = 64; and it equals _force_single of the moved
    # configuration bit for bit
    import slipdyn.interaction as interaction
    from slipdyn.corrector import get_solver
    g = geom if domain == "unit" else wide_geom
    m = Material(lam, mu)
    ctx = EnergyContext("bounded", m, g, quad, basis)
    get_solver(g, m, basis, quad)                 # built before counting
    sources = _count_sources(monkeypatch, (interaction, evolution))
    box, rng = g.r_box, np.random.default_rng(64)
    loads = [ramp_load(),
             LoadingProgram.custom(f=None, f_dot=None, time_horizon=1.0,
                                   f_x1=lambda t, p: t * np.sin(7 * p[:, 0]) * p[:, 1])]
    per_probe = {}
    for n in (16, 64):
        planes = np.linspace(box.y0, box.y1, n // 8)
        pts = np.column_stack([
            np.concatenate([np.sort(rng.choice(np.linspace(box.x0, box.x1, 40), 8,
                                               replace=False)) for _ in planes]),
            np.repeat(planes, 8)])
        for load in loads:
            for i in (0, n // 2 + 3, n - 1):
                probe = _fresh_probe(pts, i, 0.3, load, ctx)
                for x in (pts[i, 0], pts[i, 0] + 1e-3, rng.uniform(box.x0, box.x1)):
                    sources[0] = 0
                    f = probe(x)
                    per_probe.setdefault(n, set()).add(sources[0])
                    trial = pts.copy()
                    trial[i, 0] = x
                    assert _bits(f) == _bits(evolution._force_single(trial, i, 0.3, load, ctx))
    assert per_probe[16] == per_probe[64] == {1}


def test_landing_costs_one_evaluation(geom, mat, quad, basis, monkeypatch):
    # after a landing of dislocation i the step's _StepTable re-evaluates only
    # i: moved(i) hands one source, with its derivative row, to the boundary
    # evaluator and the step's next all-rows force none, and that force equals
    # _forces_at of the moved points on a fresh context bit for bit
    import slipdyn.interaction as interaction
    from slipdyn.corrector import get_solver
    get_solver(geom, mat, basis, quad)            # built before counting
    sources = _count_sources(monkeypatch, (interaction, evolution))
    rng = np.random.default_rng(16)
    pts = np.column_stack([rng.uniform(0.3, 0.7, 16), np.repeat([0.3, 0.45, 0.6, 0.75], 4)])
    load = ramp_load()
    ctx = EnergyContext("bounded", mat, geom, quad, basis)
    table = evolution._StepTable(pts, 0.5, load, ctx)
    table.forces()
    for i in (0, 9, 15):
        pts[i, 0] += 0.004
        sources[:] = [0, 0]
        table.moved(i)
        assert sources == [1, 1]
        got = table.forces()
        assert sources == [1, 1]
        fresh = EnergyContext("bounded", mat, geom, quad, basis)
        assert np.array_equal(got, evolution._forces_at(pts, 0.5, load, fresh))


def test_static_steps_make_no_boundary_pass(geom, mat, quad, basis, small_schedule,
                                            monkeypatch):
    # a bounded run whose load passes yield in its first step and then holds:
    # every later step is a static re-check, whose start check, driving_force
    # and renormalized_energy read the context's kept pass, so the run makes
    # the same boundary evaluations over 3 steps as over 8.  Its records equal
    # a fresh context's bit for bit, and a one-ulp move of any coordinate is
    # evaluated afresh
    import slipdyn.interaction as interaction
    from slipdyn.corrector import get_solver
    get_solver(geom, mat, basis, quad)            # built before counting
    sources = _count_sources(monkeypatch, (interaction, evolution))
    load = LoadingProgram.uniform_shear(lambda t: min(3.0, 60.0 * t), 1.0,
                                        sigma_dot=lambda t: 60.0 if t < 0.05 else 0.0)
    cfg = DislocationConfig([[0.45, 0.4], [0.55, 0.6]], small_schedule, geom.r_box)
    solver_cfg = SolverConfig(sweep_tol=1e-6, mode="bounded")
    counts, runs = [], []
    for steps in (3, 8):
        ctx = EnergyContext("bounded", mat, geom, quad, basis)
        sources[0] = 0
        trace = run_quasistatic(cfg, np.linspace(0.0, 1.0, steps + 1), load,
                                solver_cfg, ctx, pre_relax=True)
        counts.append(sources[0])
        runs.append((ctx, trace))
    assert counts[0] == counts[1]
    ctx, trace = runs[1]
    final = trace.configs[-1]
    assert not np.array_equal(final.points, trace.configs[0].points)
    assert all(np.array_equal(c.points, final.points) for c in trace.configs[2:])
    for t, c, record, energy in zip(trace.times, trace.configs, trace.forces,
                                    trace.energies):
        fresh = EnergyContext("bounded", mat, geom, quad, basis)
        assert np.array_equal(record.values, driving_force(c, t, load, fresh).values)
        assert _bits(energy) == _bits(fresh.renormalized_energy(c))
    for i in range(2):
        for k in range(2):
            moved = final.points.copy()
            moved[i, k] = np.nextafter(moved[i, k], np.inf)
            cfg_moved = final.with_points(moved)
            fresh = EnergyContext("bounded", mat, geom, quad, basis)
            sources[0] = 0
            got = driving_force(cfg_moved, 1.0, load, ctx).values
            assert sources[0] == 2                   # rows, columns and derivative rows
            assert np.array_equal(got, driving_force(cfg_moved, 1.0, load, fresh).values)
            assert _bits(ctx.renormalized_energy(cfg_moved)) == _bits(
                fresh.renormalized_energy(cfg_moved))
            driving_force(final, 1.0, load, ctx)     # the kept pass is the final points'
    # a moving step hands the pass of its end points to the context, so their
    # driving_force and renormalized_energy evaluate nothing
    ctx = EnergyContext("bounded", mat, geom, quad, basis)
    new = incremental_step(cfg, 0.5, load, solver_cfg, ctx)
    assert not np.array_equal(new.points, cfg.points)
    sources[0] = 0
    driving_force(new, 0.5, load, ctx)
    ctx.renormalized_energy(new)
    assert sources[0] == 0


def test_probe_reads_the_live_table(fctx):
    # the sweep builds one _StepTable (its _pair_table and sigma(t)) per step,
    # and its probes read the live abscissae: after in-place moves of a
    # same-plane neighbour and of a dislocation on another plane, a probe built
    # before them still equals _force_single of the current points bit for bit
    loads = [ramp_load(),
             LoadingProgram.custom(
                 f=None, f_dot=None, time_horizon=1.0,
                 f_x1=lambda t, p: t * np.sin(7 * p[:, 0]) * p[:, 1])]
    rng = np.random.default_rng(44)
    start = np.column_stack([np.tile(np.linspace(0.35, 0.65, 4), 4)
                             + rng.uniform(-0.02, 0.02, 16),
                             np.repeat([0.3, 0.45, 0.6, 0.75], 4)])
    i, neighbour, other = 5, 6, 13
    for load in loads:
        pts = start.copy()
        table = evolution._StepTable(pts, 0.7, load, fctx)
        assert np.array_equal(table.pairs[i], evolution._pair_table(pts)[i])
        probe = table.probe(i)
        pts[neighbour, 0] += 0.013
        pts[other, 0] -= 0.021
        for x in (pts[i, 0], pts[i, 0] + 0.004, rng.uniform(0.3, 0.7)):
            trial = pts.copy()
            trial[i, 0] = x
            assert _bits(probe(x)) == _bits(_force_single(trial, i, 0.7, load, fctx))


def test_landing_passes_its_own_threshold(fctx, geom):
    # a dislocation landed short of its barrier must see a force magnitude
    # within the sweep's threshold 1 + 1e-12, or the next sweep lands it again
    box = geom.r_box
    landed = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([np.sort(rng.uniform(0.35, 0.65, 2)), [0.5, 0.5]])
        sigma = float(rng.uniform(-1.5, 1.5))
        load = LoadingProgram.uniform_shear(lambda t, s=sigma: s, 1.0,
                                            sigma_dot=lambda t: 0.0)
        for i in range(2):
            f = _force_single(pts, i, 0.0, load, fctx)
            if abs(f) <= 1.0 + 1e-12:
                continue
            d = 1.0 if f > 0 else -1.0
            if (i == 1) == (d > 0):
                barrier = box.x1 if d > 0 else box.x0
            else:
                barrier = pts[1 - i, 0] - d * 0.05
            if (barrier - pts[i, 0]) * d <= 0:
                continue
            trial = pts.copy()
            trial[i, 0] = _land_position(
                _fresh_probe(pts, i, 0.0, load, fctx), pts[i, 0], f,
                d, barrier, LINE_GRID)
            if trial[i, 0] == barrier:
                continue
            landed += 1
            assert abs(_force_single(trial, i, 0.0, load, fctx)) <= 1.0 + 1e-12
    assert landed >= 100


def _landing_cases(fctx, geom):
    """The 2-atom landings of ``test_landing_passes_its_own_threshold``."""
    box = geom.r_box
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([np.sort(rng.uniform(0.35, 0.65, 2)), [0.5, 0.5]])
        sigma = float(rng.uniform(-1.5, 1.5))
        load = LoadingProgram.uniform_shear(lambda t, s=sigma: s, 1.0,
                                            sigma_dot=lambda t: 0.0)
        for i in range(2):
            f = _force_single(pts, i, 0.0, load, fctx)
            if abs(f) <= 1.0 + 1e-12:
                continue
            d = 1.0 if f > 0 else -1.0
            if (i == 1) == (d > 0):
                barrier = box.x1 if d > 0 else box.x0
            else:
                barrier = pts[1 - i, 0] - d * 0.05
            if (barrier - pts[i, 0]) * d > 0:
                yield pts, i, f, d, barrier, load


def _bisection_landing(probe, x0, f0, direction, barrier, line_grid):
    """Oracle: the march-then-bisect landing that regula falsi replaced; like
    it, it never probes x0, whose force ``f0`` it does not need."""
    grid = np.linspace(x0, barrier, line_grid + 1)[1:]

    def f_at(x):
        return probe(x) * direction

    lo = x0
    hi = None
    for g in grid:
        if f_at(g) >= 1.0:
            lo = g
        else:
            hi = g
            break
    if hi is None:
        return barrier
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f_at(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-13 * max(1.0, abs(hi)):
            break
    return hi


class _Counted:
    """A force probe that counts its calls."""

    def __init__(self, probe):
        self.probe, self.calls = probe, 0

    def __call__(self, x):
        self.calls += 1
        return self.probe(x)


def test_landing_matches_bisection_oracle(fctx, geom):
    # same landing as the bisection to 1e-12, past the threshold and never
    # more probes; over the landings short of the barrier (the others march
    # all 48 points in both) at most half as many probes in total.  The
    # totals are pinned.
    totals = np.zeros(2, dtype=int)
    overall = np.zeros(2, dtype=int)
    landed = 0
    for pts, i, f, d, barrier, load in _landing_cases(fctx, geom):
        x, n = [], []
        for land in (_land_position, _bisection_landing):
            probe = _Counted(_fresh_probe(pts, i, 0.0, load, fctx))
            x.append(land(probe, pts[i, 0], f, d, barrier, LINE_GRID))
            n.append(probe.calls)
        assert abs(x[0] - x[1]) <= 1e-12 * max(1.0, abs(x[1]))
        assert 0 < n[0] <= n[1]
        overall += n
        if x[1] == barrier:
            continue
        totals += n
        landed += 1
        trial = pts.copy()
        trial[i, 0] = x[0]
        assert abs(_force_single(trial, i, 0.0, load, fctx)) <= 1.0 + 1e-12
    assert landed >= 100
    assert 2 * totals[0] <= totals[1]
    assert totals.tolist() == [3007, 7690]
    assert overall.tolist() == [8335, 13018]


def test_landing_marches_on_linspace_points():
    # the march points are made one at a time, with the bits of np.linspace
    for x0, barrier in [(0.5, 0.8), (0.5, 0.2), (0.3127, 0.41), (0.7, 0.2 + 1e-9)]:
        seen = []

        def probe(x):
            seen.append(x)
            return 2.0 if barrier > x0 else -2.0
        assert _land_position(probe, x0, 2.0 * np.sign(barrier - x0),
                              np.sign(barrier - x0), barrier, LINE_GRID) == barrier
        grid = np.linspace(x0, barrier, LINE_GRID + 1)[1:]
        assert [_bits(x) for x in seen] == [_bits(x) for x in grid]


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("left,right", [(1 + 1e-9, -1e6), (1e6, 1 - 1e-9)])
@pytest.mark.parametrize("offset", [0.1 / 3, 1e-3])
def test_landing_safeguards_on_a_force_jump(geom, direction, left, right, offset):
    # the force jumps at xj from `left` (>= 1) to `right` (< 1) along the
    # direction, a lopsided jump on which plain secant steps crawl along one
    # end.  The offset puts xj after six march points or before the first
    # (lo = x0).
    x0 = 0.5
    xj = x0 + direction * offset
    probe = _Counted(lambda x: direction * (left if direction * (x - xj) < 0
                                            else right))
    barrier = geom.r_box.x1 if direction > 0 else geom.r_box.x0
    hi = _land_position(probe, x0, probe.probe(x0), direction, barrier, LINE_GRID)
    assert probe.probe(hi) * direction < 1
    # f(lo) >= 1 puts lo on the near side of xj, so hi - xj bounds the bracket
    assert 0 <= (hi - xj) * direction < 1e-13
    assert probe.calls <= 60


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_landing_on_a_linear_force(geom, direction):
    # the force falls linearly through 1 at xr, between the first two march
    # points: one secant step lands on xr to rounding, and one step half the
    # tolerance past it closes the bracket, so 2 march + 2 root probes
    x0 = 0.5
    xr = x0 + direction * 0.01
    probe = _Counted(lambda x: direction * (1 - 3 * direction * (x - xr)))
    barrier = geom.r_box.x1 if direction > 0 else geom.r_box.x0
    hi = _land_position(probe, x0, probe.probe(x0), direction, barrier, LINE_GRID)
    assert 0 < (hi - xr) * direction < 1e-13
    assert probe.calls == 4


class _Recorded:
    """A force probe that records every value it returns, as x -> f; it
    keeps the probe's ``block`` method when ``block`` is set."""

    def __init__(self, probe, block):
        self.probe, self.seen = probe, {}
        if block:
            self.block = self._block

    def __call__(self, x):
        f = self.seen[x] = self.probe(x)
        return f

    def _block(self, xs):
        fs = self.probe.block(xs)
        self.seen.update(zip(xs, fs))
        return fs


def _two_to_one_geometry():
    from slipdyn.geometry import Disk, Geometry, Rect
    return Geometry(omega=Rect(0.0, 0.0, 2.0, 1.0), r_box=Rect(0.3, 0.25, 1.7, 0.75),
                    ball=Disk(0.08, 0.5, 0.04))


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("domain", ["unit", "two_to_one"])
def test_block_march_matches_one_point_march(domain, lam, mu, geom, quad, basis):
    # a bounded probe offers a block method, and the landing marches it in
    # chunks of 1, 2, 4, 8 and 16 points; the landing equals the one-point
    # march's bit for bit, the chunks hold every point that march probed,
    # and every value at a point probed by both is the same bits
    g = geom if domain == "unit" else _two_to_one_geometry()
    ctx = EnergyContext("bounded", Material(lam, mu), g, quad, basis)
    chunked = short = 0
    for pts, i, f, d, barrier, load in itertools.islice(_landing_cases(ctx, g), 20):
        runs = []
        for block in (True, False):
            probe = _Recorded(_fresh_probe(pts, i, 0.0, load, ctx), block)
            x = _land_position(probe, pts[i, 0], f, d, barrier, LINE_GRID)
            runs.append((x, probe.seen))
        (x_block, seen_block), (x_point, seen_point) = runs
        assert _bits(x_block) == _bits(x_point)
        short += x_point != barrier
        assert set(seen_point) <= set(seen_block)
        chunked += len(seen_block) - len(seen_point)
        for x in seen_point:
            assert _bits(seen_block[x]) == _bits(seen_point[x])
    assert short > 0 and chunked > 0      # some chunk ran past a crossing


def test_probe_block_equals_points(fctx, geom, mat, quad, basis):
    # probe.block(xs) is [probe(x) for x in xs] bit for bit, for chunks of
    # 1, 5 and 16 points, under loads whose zero signs and custom gradients
    # depend on every term; a free-space probe has no block method
    ctx = EnergyContext(mode="bounded", mat=mat, geom=geom, quad=quad, basis=basis)
    loads = [ramp_load(),
             LoadingProgram.uniform_shear(lambda t: -0.0, 1.0, sigma_dot=lambda t: 0.0),
             LoadingProgram.custom(f=None, f_dot=None, time_horizon=1.0,
                                   f_x1=lambda t, p: t * np.sin(7 * p[:, 0]) * p[:, 1])]
    rng = np.random.default_rng(23)
    planes = [0.3, 0.45, 0.6, 0.75]
    for n in (1, 2, 16):
        pts = np.column_stack([rng.uniform(0.3, 0.7, n), np.resize(planes, n)])
        assert not hasattr(_fresh_probe(pts, 0, 0.7, loads[0], fctx), "block")
        for load in loads:
            for i in sorted({0, n // 2, n - 1}):
                probe = _fresh_probe(pts, i, 0.7, load, ctx)
                for m in (1, 5, 16):
                    xs = list(rng.uniform(0.2, 0.8, m))
                    assert [_bits(f) for f in probe.block(xs)] == \
                        [_bits(probe(x)) for x in xs]


def _checked_sweep(pts, t, load, ctx, solver_cfg, box, r_n, planes):
    """Oracle: the sweep that checked every dislocation with ``_force_single``
    and took each sweep's residual from a fresh ``_forces_at``."""
    for _ in range(solver_cfg.max_sweeps):
        moved = False
        for _, idx in planes:
            order = np.argsort(pts[idx, 0])
            ordered = idx[order]
            for k, i in enumerate(ordered):
                f = evolution._force_single(pts, i, t, load, ctx)
                direction = 1.0 if f > 0 else -1.0
                if abs(f) <= 1.0 + 1e-12:
                    continue
                if direction > 0:
                    barrier = box.x1 if k == len(ordered) - 1 else \
                        pts[ordered[k + 1], 0] - r_n
                else:
                    barrier = box.x0 if k == 0 else pts[ordered[k - 1], 0] + r_n
                if (barrier - pts[i, 0]) * direction <= 1e-15:
                    continue
                pts[i, 0] = _land_position(
                    _fresh_probe(pts, i, t, load, ctx), pts[i, 0], f,
                    direction, barrier, solver_cfg.line_grid)
                moved = True
        resid = _group_residual_oracle(pts, evolution._forces_at(pts, t, load, ctx),
                                       planes, box, r_n)
        if resid <= solver_cfg.sweep_tol and not moved:
            return resid
    return _group_residual_oracle(pts, evolution._forces_at(pts, t, load, ctx), planes, box, r_n)


def _barrier_oracle(pts, planes, box, r_n):
    """Oracle: each dislocation's (lower, upper) barriers, written out per
    dislocation from its plane's order, as the oracle sweep takes them."""
    lower, upper = np.empty(len(pts)), np.empty(len(pts))
    for _, idx in planes:
        ordered = idx[np.argsort(pts[idx, 0])]
        for k, i in enumerate(ordered):
            lower[i] = box.x0 if k == 0 else pts[ordered[k - 1], 0] + r_n
            upper[i] = box.x1 if k == len(ordered) - 1 else pts[ordered[k + 1], 0] - r_n
    return lower, upper


def _group_residual_oracle(pts, forces, planes, box, r_n):
    """Oracle: the stability residual over every group of consecutive
    dislocations of a plane, each pair of them in contact (at most EDGE_TOL
    beyond r_n apart): pushed left, the group moves if no contact or box edge
    holds its first dislocation; pushed right, if none holds its last.  Each
    such group counts its mean force toward that side less 1."""
    if np.isnan(forces).any():
        return math.nan
    tol, worst = evolution.EDGE_TOL, 0.0
    for _, idx in planes:
        ordered = idx[np.argsort(pts[idx, 0], kind="stable")]
        x, f, m = pts[ordered, 0], forces[ordered], len(ordered)
        contact = [x[k + 1] - r_n - x[k] <= tol for k in range(m - 1)]
        for a in range(m):
            for b in range(a, m):
                if not all(contact[a:b]):
                    break
                mean = np.mean(f[a:b + 1])
                held_left = x[a] - box.x0 <= tol if a == 0 else contact[a - 1]
                held_right = box.x1 - x[b] <= tol if b == m - 1 else contact[b]
                if not held_left:
                    worst = max(worst, -mean - 1.0)
                if not held_right:
                    worst = max(worst, mean - 1.0)
    return float(worst)


def _copy_probe(table, i):
    """Oracle probe: copy the table's points, move atom i and call
    ``_force_single``."""
    def probe(x):
        trial = table.pts.copy()
        trial[i, 0] = x
        return evolution._force_single(trial, i, table.t, table.load, table.ctx)
    return probe


def test_step_matches_checked_sweep(fctx, geom, mat, quad, basis, small_schedule,
                                    monkeypatch):
    # 20 free-space ramps of 16 dislocations on 4 planes past yield and 3
    # bounded ones of 6 on 2 planes: every step lands every dislocation
    # exactly where the oracle sweep lands it, on a fresh context, with its
    # _force_single checks, so the step table's per-placement vectors are
    # pinned bit for bit.  In free space the oracle probes by copy and
    # _force_single, and the step makes fewer single-dislocation force
    # evaluations: probe calls plus _force_single calls (free-space probes
    # make none, and the oracle's uncounted probes one each); bounded, it
    # lands on fresh _StepTable.probe probes, equal to _force_single bit for bit.
    # The free-space Newton finish is off, as the oracle has none; its own
    # guard is test_newton_finish_stays_in_the_stable_set
    calls = [0]
    single = evolution._force_single
    build = evolution._StepTable.probe

    def counted(*args):
        calls[0] += 1
        return single(*args)

    def counted_build(*args):
        probe = build(*args)

        def counted_probe(x):
            calls[0] += 1
            return probe(x)
        if hasattr(probe, "block"):
            def block(xs):
                calls[0] += len(xs)
                return probe.block(xs)
            counted_probe.block = block
        return counted_probe

    monkeypatch.setattr(evolution, "_force_single", counted)
    monkeypatch.setattr(evolution._StepTable, "probe", counted_build)
    monkeypatch.setattr(evolution, "_newton_finish", lambda *args: None)
    load = ramp_load()
    solver_cfg = SolverConfig()
    bctx = EnergyContext("bounded", mat, geom, quad, basis)
    cases = [(fctx, [0.3, 0.4333, 0.5667, 0.7], 4, range(20), (0.9, 1.15, 1.4)),
             (bctx, [0.4, 0.6], 3, range(3), (0.9, 1.15))]
    for ctx, planes, per_plane, seeds, times in cases:
        ys = np.repeat(planes, per_plane)
        moves = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            xs = (np.tile(np.linspace(0.3, 0.7, per_plane), len(planes))
                  + rng.uniform(-0.02, 0.02, len(ys)))
            cfg = DislocationConfig(np.column_stack([xs, ys]), small_schedule,
                                    geom.r_box)
            for t in times:
                calls[0] = 0
                new = incremental_step(cfg, t, load, solver_cfg, ctx)
                fast = calls[0]
                prev = cfg.canonical_order()
                pts = prev.points.copy()
                fresh = EnergyContext(ctx.mode, mat, ctx.geom, quad, ctx.basis)
                calls[0] = 0
                with monkeypatch.context() as m:
                    m.setattr(evolution._StepTable, "probe",
                              _copy_probe if ctx is fctx else build)
                    resid = _checked_sweep(pts, t, load, fresh, solver_cfg, prev.box,
                                           prev.r_n, prev.planes())
                assert resid <= solver_cfg.sweep_tol
                assert np.array_equal(new.points, pts)
                assert fast < calls[0] or ctx is bctx
                moves += not np.array_equal(new.points, prev.points)
                cfg = new
        assert moves >= (40 if ctx is fctx else 6)


def test_newton_finish_stays_in_the_stable_set(fctx, geom, small_schedule, monkeypatch):
    # the free-space ramps of test_step_matches_checked_sweep with the Newton
    # finish on: from each step's start, the step ends stable (by the
    # residual and by its group oracle) and within NEWTON_DRIFT of where the
    # plain sweep (the finish off) ends; the finish engages, and the ramps
    # take fewer landings than with the plain sweep
    counts, land, finish = [0, 0], evolution._land_position, evolution._newton_finish

    def counted_land(*args):
        counts[0] += 1
        return land(*args)

    def counted_finish(*args):
        counts[1] += 1
        return finish(*args)

    monkeypatch.setattr(evolution, "_land_position", counted_land)
    monkeypatch.setattr(evolution, "_newton_finish", counted_finish)
    load, solver_cfg = ramp_load(), SolverConfig()
    ys = np.repeat([0.3, 0.4333, 0.5667, 0.7], 4)
    landings, drift = [0, 0], 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = np.tile(np.linspace(0.3, 0.7, 4), 4) + rng.uniform(-0.02, 0.02, len(ys))
        cfg = DislocationConfig(np.column_stack([xs, ys]), small_schedule, geom.r_box)
        for t in (0.9, 1.15, 1.4):
            counts[0] = 0
            new = incremental_step(cfg, t, load, solver_cfg, fctx)
            landings[0] += counts[0]
            counts[0] = 0
            with monkeypatch.context() as m:
                m.setattr(evolution, "_newton_finish", lambda *args: None)
                plain = incremental_step(cfg, t, load, solver_cfg, fctx)
            landings[1] += counts[0]
            forces = evolution._forces_at(new.points, t, load, fctx)
            assert stability_residual(new, t, load, fctx) <= solver_cfg.sweep_tol
            assert _group_residual_oracle(new.points, forces, new.planes(), new.box,
                                          new.r_n) <= solver_cfg.sweep_tol
            drift = max(drift, np.max(np.abs(new.points - plain.points)))
            cfg = new
    assert drift <= NEWTON_DRIFT
    assert counts[1] > 0 and landings[0] < landings[1]


def test_newton_finish_idle_on_shipped_configs(tmp_path, monkeypatch):
    # every shipped simulate config runs as before: the finish never engages
    def engaged(*args):
        raise AssertionError("the Newton finish engaged")
    monkeypatch.setattr(evolution, "_newton_finish", engaged)
    paths = [p for p in sorted(CONFIGS.glob("*.json"))
             if json.loads(p.read_text())["experiment"] == "simulate"]
    assert len(paths) >= 4
    for path in paths:
        cfg, outdir = load_config(path), tmp_path / path.stem
        outdir.mkdir()
        RUNNERS["simulate"](cfg, outdir, cfg.seed, None)


def test_every_probe_lands(fctx, geom, mat, quad, basis, small_schedule, monkeypatch):
    # the sweep checks against its table's vector and builds a probe
    # (_StepTable.probe) only to land: as many builds as landings, in both modes
    counts, build, land = [0, 0], evolution._StepTable.probe, evolution._land_position

    def counted_build(*args):
        counts[0] += 1
        return build(*args)

    def counted_land(*args):
        counts[1] += 1
        return land(*args)

    monkeypatch.setattr(evolution._StepTable, "probe", counted_build)
    monkeypatch.setattr(evolution, "_land_position", counted_land)
    load = ramp_load()
    ctxs = (fctx, EnergyContext("bounded", mat, geom, quad, basis))
    for ctx, per_plane in zip(ctxs, (4, 3)):
        xs = np.tile(np.linspace(0.3, 0.7, per_plane), 2) + np.random.default_rng(5).uniform(
            -0.02, 0.02, 2 * per_plane)
        cfg = DislocationConfig(np.column_stack([xs, np.repeat([0.4, 0.6], per_plane)]),
                                small_schedule, geom.r_box)
        counts[:] = [0, 0]
        for t in (0.9, 1.15):
            cfg = incremental_step(cfg, t, load, SolverConfig(), ctx)
        assert counts[1] >= 4
        assert counts[0] == counts[1]


def test_step_below_threshold_is_static(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    new = incremental_step(cfg, 0.5, ramp_load(), SolverConfig(), fctx)
    assert np.array_equal(new.points, cfg.points)


def test_step_above_threshold_hits_edge(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    new = incremental_step(cfg, 2.0, ramp_load(), SolverConfig(), fctx)
    assert new.points[0, 0] == geom.r_box.x1
    assert new.points[0, 1] == 0.5


def test_spreading_pair_stationary_separation(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.475, 0.5], [0.525, 0.5]], small_schedule,
                            geom.r_box)
    new = incremental_step(cfg, 0.0, zero_load(), SolverConfig(), fctx)
    sep = new.points[1, 0] - new.points[0, 0]
    assert abs(sep - 1 / (3 * math.pi)) <= 1e-9


def test_zero_loading_constant_trace(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.35, 0.45], [0.65, 0.55]], small_schedule,
                            geom.r_box)
    trace = run_quasistatic(cfg, np.linspace(0, 1, 11), zero_load(),
                            SolverConfig(), fctx)
    assert all(np.array_equal(c.points, cfg.points) for c in trace.configs)
    assert trace.dissipation[-1] == 0.0


def test_ramp_run_jump(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    times = np.linspace(0, 2, 201)
    trace = run_quasistatic(cfg, times, ramp_load(), SolverConfig(), fctx)
    pos = trace.positions()[:, 0, 0]
    below = times <= 1.0 + 1e-12
    assert np.all(pos[below] == 0.5)              # static while sigma <= 1
    first_above = int(np.argmax(times > 1.0))
    assert pos[first_above] == geom.r_box.x1      # jumps at the first step past 1
    assert math.isclose(trace.dissipation[-1], geom.r_box.x1 - 0.5)


def test_energy_balance_and_refinement(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    load = ramp_load()
    r200 = energy_balance_residual(
        run_quasistatic(cfg, np.linspace(0, 2, 201), load, SolverConfig(), fctx),
        load)
    r400 = energy_balance_residual(
        run_quasistatic(cfg, np.linspace(0, 2, 401), load, SolverConfig(), fctx),
        load)
    assert r200 <= 0.05
    assert r400 <= 0.6 * r200


def test_flow_rule_residuals(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    load = ramp_load()
    trace = run_quasistatic(cfg, np.linspace(0, 2, 201), load, SolverConfig(), fctx)
    assert flow_rule_residual(trace) <= 1e-10
    cfg2 = DislocationConfig([[0.475, 0.5], [0.525, 0.5]], small_schedule,
                             geom.r_box)
    trace2 = run_quasistatic(cfg2, np.linspace(0, 1, 5), zero_load(),
                             SolverConfig(), fctx, pre_relax=True)
    assert flow_rule_residual(trace2) <= 1e-3


def test_stability_residual_values(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    assert stability_residual(cfg, 0.5, ramp_load(), fctx) == 0.0
    assert stability_residual(cfg, 1.2, ramp_load(), fctx) == pytest.approx(0.2)
    # pinned at the right edge: outward force beyond threshold is admissible
    edge = DislocationConfig([[0.8, 0.5]], small_schedule, geom.r_box)
    assert stability_residual(edge, 1.7, ramp_load(), fctx) == 0.0


def _edge_state_oracle(x, box):
    """Oracle: the per-dislocation edge state the clamp helper replaced."""
    if x - box.x0 <= evolution.EDGE_TOL:
        return -1
    if box.x1 - x <= evolution.EDGE_TOL:
        return 1
    return 0


def _residual_oracle(pts, forces, box):
    """Oracle: the one-sided excess written out per edge."""
    x = pts[:, 0]
    excess = np.where(x - box.x0 <= evolution.EDGE_TOL, forces - 1.0,
                      np.where(box.x1 - x <= evolution.EDGE_TOL, -forces - 1.0,
                               np.abs(forces) - 1.0))
    return float(np.max(np.maximum(excess, 0.0), initial=0.0))


def _lone_config(points, box):
    """A trace state whose dislocations each sit alone on a slip plane, so
    that their barriers are the box edges."""
    lone = [[k] for k in range(len(points))]
    return SimpleNamespace(points=points, box=box, r_n=0.0, plane_orders=lambda: lone)


def _flow_rule_oracle(trace, motion_tol=1e-9):
    """Oracle: the per-dislocation flow-rule loop."""
    box = trace.configs[0].box
    out = np.zeros(len(trace.times))
    for k in range(1, len(trace.times)):
        prev_pts = trace.configs[k - 1].points
        new_pts = trace.configs[k].points
        f = trace.forces[k].values
        worst = 0.0
        for i in range(len(new_pts)):
            dx = new_pts[i, 0] - prev_pts[i, 0]
            if abs(dx) <= motion_tol:
                continue
            e = _edge_state_oracle(new_pts[i, 0], box)
            fi = f[i]
            if e == 1:
                fi = min(fi, 1.0)
            elif e == -1:
                fi = max(fi, -1.0)
            worst = max(worst, abs(fi * dx - abs(dx)))
        out[k] = worst
    return out


def test_edge_clamp_matches_oracles(geom):
    # dislocations alone on their planes: the stability residual and the
    # flow-rule clamp, bit for bit against the per-edge formulas they
    # replaced, on both edges, within and just beyond EDGE_TOL of them, in
    # the interior, at exactly +-1 and its neighbours, signed zeros, and NaN
    # (residual only).  Then planes shared by up to 6, with runs of contacts
    # (r_n apart, within and just beyond EDGE_TOL) that may stand at a box
    # edge: the barriers against the per-dislocation loop, and the residual
    # against the oracle over every group of consecutive dislocations
    box = geom.r_box
    tol = evolution.EDGE_TOL
    xs = np.array([box.x0, box.x0 + 0.5 * tol, box.x0 + 2 * tol, 0.5,
                   box.x1 - 2 * tol, box.x1 - 0.5 * tol, box.x1])
    fs = np.array([-3.0, np.nextafter(-1.0, -2.0), -1.0, np.nextafter(-1.0, 0.0),
                   -0.5, -0.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0,
                   np.nextafter(1.0, 2.0), 3.0])
    dxs = [0.0, 5e-10, -5e-10, 0.01, -0.01, 0.3]
    rng = np.random.default_rng(41)
    cases = [(np.array([x]), np.array([f])) for x in xs for f in fs]
    cases += [(xs, rng.choice(fs, len(xs))) for _ in range(50)]
    for x, f in cases:
        pts = np.column_stack([x, np.full(len(x), 0.5)])
        lone = [[k] for k in range(len(x))]
        assert _bits(evolution._residual_from_forces(x, f, lone, box, 0.0)) == \
            _bits(_residual_oracle(pts, f, box))
        # a NaN force gives a NaN residual in both (the sign of a NaN differs)
        nan_f = np.where(rng.random(len(f)) < 0.3, np.nan, f)
        r, r_oracle = (evolution._residual_from_forces(x, nan_f, lone, box, 0.0),
                       _residual_oracle(pts, nan_f, box))
        assert _bits(r) == _bits(r_oracle) or math.isnan(r) and math.isnan(r_oracle)
        # a trace alternating between pts moved back by dx and pts: every
        # step arrives at one of the two, after a move of +-dx
        configs = []
        for dx in dxs:
            step = dx if len(x) == 1 else rng.choice(dxs, len(x))
            back = pts.copy()
            back[:, 0] -= step
            configs += [_lone_config(back, box), _lone_config(pts, box)]
        trace = evolution.EvolutionTrace(
            times=np.arange(len(configs), dtype=float), configs=configs,
            step_d=None, energies=None,
            forces=[evolution.ForceRecord(f)] * len(configs))
        assert flow_rule_steps(trace).tobytes() == \
            _flow_rule_oracle(trace).tobytes()
    pushes = np.concatenate([fs, [-2.5, -1.5, 1.5, 2.5, 6.0]])
    gaps, edges, runs = [0.0, 0.5 * tol, 2 * tol, 0.02, 0.1], [0.0, 0.5 * tol, 2 * tol], 0
    for _ in range(60):
        r_n, planes_x = float(rng.uniform(0.005, 0.05)), []
        for _ in range(int(rng.integers(1, 4))):
            x = box.x0 + rng.choice(edges + [0.05]) + np.cumsum(
                np.concatenate([[0.0], r_n + rng.choice(gaps, int(rng.integers(0, 6)))]))
            if rng.random() < 0.4:
                x += box.x1 - rng.choice(edges) - x[-1]
            planes_x.append(x)
        pts = np.concatenate([np.column_stack([x, np.full(len(x), y)]) for x, y in zip(
            planes_x, np.linspace(0.3, 0.7, len(planes_x)))])
        assert np.all((pts[:, 0] >= box.x0) & (pts[:, 0] <= box.x1))
        planes = group_by_plane(pts)
        orders = left_to_right(pts, planes)
        lower, upper = evolution._all_barriers(pts[:, 0], orders, box, r_n)
        ref = _barrier_oracle(pts, planes, box, r_n)
        assert lower.tobytes() == ref[0].tobytes() and upper.tobytes() == ref[1].tobytes()
        runs += any(upper[i] - pts[i, 0] <= tol for order in orders for i in order[:-1])
        for f in (rng.choice(pushes, len(pts)), rng.choice(np.append(pushes, np.nan), len(pts))):
            r, r_oracle = (evolution._residual_from_forces(pts[:, 0], f, orders, box, r_n),
                           _group_residual_oracle(pts, f, planes, box, r_n))
            assert r == pytest.approx(r_oracle, rel=1e-14, abs=1e-15) or \
                math.isnan(r) and math.isnan(r_oracle)
    assert runs >= 30


@pytest.mark.parametrize("shear", [2.0, 5.0, 10.0])
def test_pinned_neighbour_is_stable(fctx, geom, small_schedule, shear):
    # a pair on one plane under a constant shear: the right dislocation lands
    # on the box edge and the left one runs into it and stops r_n short,
    # pinned there with a force above 1 toward it at shear 10 (4.0); the
    # step, the stability residual and the flow rule treat that separation
    # barrier one-sided, as the box edge
    box = geom.r_box
    cfg = DislocationConfig([[0.45, 0.5], [0.55, 0.5]], small_schedule, box)
    load = LoadingProgram.uniform_shear(lambda t: shear, 1.0, sigma_dot=lambda t: 0.0)
    new = incremental_step(cfg, 0.5, load, SolverConfig(), fctx)
    assert new.points[1, 0] == box.x1
    assert stability_residual(new, 0.5, load, fctx) == 0.0
    force = driving_force(new, 0.5, load, fctx).values[0]
    if shear == 10.0:
        assert new.points[0, 0] == box.x1 - cfg.r_n
        assert force > 3.9
    ramp = LoadingProgram.uniform_shear(lambda t: 2 * shear * t, 1.0,
                                        sigma_dot=lambda t: 2 * shear)
    trace = run_quasistatic(cfg, [0.0, 0.5], ramp, SolverConfig(), fctx, pre_relax=True)
    assert trace.configs[-1].points[1, 0] == box.x1
    assert flow_rule_residual(trace) <= 1e-10
    assert all(stability_excess(c, f) == 0.0 for c, f in zip(trace.configs, trace.forces))


@pytest.mark.parametrize("push", [7.5, 10.0])
def test_push_on_a_free_neighbour(fctx, geom, small_schedule, push):
    # a pair in contact (r_n apart) on one plane: the load pushes the left
    # dislocation right by `push` and pulls the right one left by 5.7, and
    # their repulsion is 6.002, so the left one presses on a free neighbour
    # with force push - 6.002 > 1.  Only the pair can move, so it is stable
    # as long as its mean force is within 1 (push 7.5: 0.900), and otherwise
    # (push 10: 2.150) the residual is the mean's excess and the step fails,
    # as the sweep moves one dislocation at a time, and says so
    r_n = small_schedule.r(2)
    cfg = DislocationConfig([[0.45, 0.5], [0.45 + r_n, 0.5]], small_schedule, geom.r_box)
    load = LoadingProgram.custom(f=None, f_dot=None, time_horizon=1.0,
                                 f_x1=lambda t, p: np.where(p[:, 0] < 0.46, push, -5.7))
    forces = driving_force(cfg, 0.5, load, fctx).values
    assert forces[0] > 1.4 and abs(forces[1]) < 1.0
    excess = max(np.mean(forces) - 1.0, 0.0)
    assert stability_residual(cfg, 0.5, load, fctx) == pytest.approx(excess, abs=1e-15)
    if push == 7.5:
        assert excess == 0.0
        new = incremental_step(cfg, 0.5, load, SolverConfig(), fctx)
        assert np.array_equal(new.points, cfg.points)
    else:
        assert excess > 1.1
        with pytest.raises(RuntimeError, match="failed to reach stability .*: no single "
                           "dislocation can move .* a run in contact must move together"):
            incremental_step(cfg, 0.5, load, SolverConfig(), fctx)
        with pytest.raises(ValueError, match="initial configuration unstable"):
            run_quasistatic(cfg, [0.5, 0.6], load, SolverConfig(), fctx)


def _pile_up(n, schedule, box):
    """n dislocations on the plane y = 0.5 from the box's left edge,
    max(1.01 r_n, 0.25 / n) apart, and a constant shear sigma = 3 that piles
    them up against its right edge: tau = sigma - 1 = 2 net of the threshold."""
    gap = max(1.01 * schedule.r(n), 0.25 / n)
    cfg = DislocationConfig(np.column_stack([box.x0 + gap * np.arange(n), np.full(n, 0.5)]),
                            schedule, box)
    return cfg, LoadingProgram.uniform_shear(lambda t: 3.0, 1.0, sigma_dot=lambda t: 0.0)


def test_pile_up_matches_closed_form(geom):
    # oracle: the free-space pile-up of n dislocations at an obstacle under
    # tau (Eshelby, Frank & Nabarro 1951); the distances from the head are
    # (c / (2 tau n)) xi_i, with xi_1 = 0 and the other xi_i the zeros of
    # L_n', the derivative of the n-th Laguerre polynomial.  Each landing
    # closes its bracket to 1e-13, so 1e-12 bounds the positions' error
    from numpy.polynomial.laguerre import lagder, lagroots
    mat, box = Material(1.0, 1.0), geom.r_box
    ctx = EnergyContext("freespace", mat)
    for n, r_coef in [(4, 0.05), (8, 0.05), (8, 0.01), (12, 0.01)]:
        cfg, load = _pile_up(n, ScalingSchedule(r_coef=r_coef), box)
        x = np.sort(incremental_step(cfg, 0.5, load, SolverConfig(max_sweeps=5000),
                                     ctx).points[:, 0])
        xi = np.concatenate([[0.0], np.sort(lagroots(lagder(np.eye(n + 1)[n])))])
        assert x[-1] == box.x1
        assert np.max(np.abs(x[-1] - x[::-1] - mat.log_coef / (2 * 2.0 * n) * xi)) <= 1e-12
    # with the default schedule the closed form's gaps are below r_n: the
    # head stands at the box edge and every other dislocation r_n behind the
    # next, a run in contact pinned at the edge, which is stable.  With one
    # sweep the step fails and says that its sweeps ran out
    cfg, load = _pile_up(8, ScalingSchedule(), box)
    new = incremental_step(cfg, 0.5, load, SolverConfig(), ctx)
    x = np.sort(new.points[:, 0])
    assert x[-1] == box.x1
    assert np.all(np.abs(np.diff(x) - new.r_n) <= evolution.EDGE_TOL)
    assert stability_residual(new, 0.5, load, ctx) <= SolverConfig().sweep_tol
    with pytest.raises(RuntimeError, match="failed to reach stability .*: max_sweeps = 1 "
                       "ran out, the last sweep still moved"):
        incremental_step(cfg, 0.5, load, SolverConfig(max_sweeps=1), ctx)


def test_rate_independence(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    a = run_quasistatic(cfg, np.linspace(0, 2, 201), ramp_load(1.0, 2.0),
                        SolverConfig(), fctx)
    b = run_quasistatic(cfg, np.linspace(0, 1, 201), ramp_load(2.0, 1.0),
                        SolverConfig(), fctx)
    assert np.max(np.abs(a.positions() - b.positions())) <= 1e-12


def test_monotone_loading_monotone_motion(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.5, 0.5]], small_schedule, geom.r_box)
    trace = run_quasistatic(cfg, np.linspace(0, 2, 101), ramp_load(),
                            SolverConfig(), fctx)
    pos = trace.positions()[:, 0, 0]
    assert np.all(np.diff(pos) >= 0.0)


def test_trace_invariants(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.475, 0.5], [0.525, 0.5]], small_schedule,
                            geom.r_box)
    load = ramp_load(0.6, 1.0)
    trace = run_quasistatic(cfg, np.linspace(0, 1, 21), load, SolverConfig(),
                            fctx, pre_relax=True)
    base_planes = trace.configs[0].points[:, 1]
    for c in trace.configs:
        assert np.array_equal(c.points[:, 1], base_planes)      # bit-identical planes
        assert c.min_separation() >= c.r_n * (1 - 1e-9)         # separation
        assert all(geom.r_box.contains(p, tol=1e-12) for p in c.points)
    # per-step minimality against the previous state
    for k in range(1, len(trace.times)):
        t = float(trace.times[k])
        new_e = (trace.energies[k]
                 - np.mean(load.potential(t, trace.configs[k].points))
                 + trace.step_d[k])
        old_e = (trace.energies[k - 1]
                 - np.mean(load.potential(t, trace.configs[k - 1].points)))
        assert new_e <= old_e + 1e-10


def test_unstable_init_rejected(fctx, geom, small_schedule):
    cfg = DislocationConfig([[0.475, 0.5], [0.525, 0.5]], small_schedule,
                            geom.r_box)
    with pytest.raises(ValueError):
        run_quasistatic(cfg, np.linspace(0, 1, 5), zero_load(), SolverConfig(),
                        fctx, pre_relax=False)


def test_nan_force_is_never_stable(fctx, geom, small_schedule):
    # a NaN force has no excess below any tolerance: the residual is NaN, an
    # initial configuration is rejected and a step fails instead of passing
    load = LoadingProgram.custom(
        f=lambda t, p: np.zeros(len(p)), f_dot=lambda t, p: np.zeros(len(p)),
        f_x1=lambda t, p: np.full(len(p), np.nan), time_horizon=1.0)
    cfg = DislocationConfig([[0.35, 0.45], [0.65, 0.55]], small_schedule,
                            geom.r_box)
    assert math.isnan(stability_residual(cfg, 0.0, load, fctx))
    with pytest.raises(ValueError):
        run_quasistatic(cfg, np.linspace(0, 1, 3), load, SolverConfig(), fctx)
    with pytest.raises(RuntimeError):
        incremental_step(cfg, 0.5, load, SolverConfig(), fctx)


def test_loading_program_custom():
    load = LoadingProgram.custom(
        f=lambda t, pts: t * pts[:, 0] ** 2,
        f_dot=lambda t, pts: pts[:, 0] ** 2,
        f_x1=lambda t, pts: 2 * t * pts[:, 0],
        time_horizon=1.0)
    pts = np.array([[0.5, 0.5], [0.2, 0.1]])
    assert load.potential(2.0, pts) == pytest.approx([0.5, 0.08])
    assert load.horizontal_gradient(1.0, pts) == pytest.approx([1.0, 0.4])
    assert load.potential_dot(2.0, pts) == pytest.approx([0.25, 0.04])
