import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from slipdyn.geometry import Rect
from slipdyn.measures import (CellMeasure, DiscreteMeasure, DislocationConfig,
                              ScalingSchedule)
from slipdyn.recovery import (ClassParams, LineDensity, UniformDensity,
                              _monotone_assignment, _nearest_assignment, class_membership, discretize_grid,
                              grid_approximation, slipclass_discretize,
                              snap_modification)
from slipdyn.transport import slip_distance, w1_distance


def test_grid_approximation_point_mass(geom):
    pm = DiscreteMeasure([[0.45, 0.55]], [1.0])
    cm = grid_approximation(pm, 0.2, geom, origin=(0.3, 0.3))
    assert cm.n_cells == 1
    assert cm.masses[0] == 1.0
    r = cm.cell_rect(0)
    # mass lands on the lower-left quarter of the tile containing the atom
    assert (r.x0, r.y0, r.x1, r.y1) == (0.3, 0.5, 0.4, 0.6)


def test_grid_approximation_halving(geom):
    target = UniformDensity(Rect(0.3, 0.3, 0.7, 0.7))
    coarse = grid_approximation(target, 0.2, geom, origin=(0.3, 0.3))
    fine = grid_approximation(target, 0.1, geom, origin=(0.3, 0.3))
    assert math.isclose(coarse.masses.sum(), 1.0)
    assert math.isclose(fine.masses.sum(), 1.0)
    assert np.allclose(fine.masses, coarse.masses[0] / 4.0)


def test_grid_approximation_transport_bound(geom):
    # every atom moves at most the tile diagonal sqrt(2) h; checked by exact LP
    rng = np.random.default_rng(1)
    h = 0.1
    pts = rng.uniform(0.35, 0.65, (12, 2))
    mu = DiscreteMeasure.equal_weights(pts)
    cm = grid_approximation(mu, h, geom)
    # represent the cell measure by dense per-cell samples for the LP bound
    samples, weights = [], []
    for k in range(cm.n_cells):
        r = cm.cell_rect(k)
        for a in (0.25, 0.75):
            for b in (0.25, 0.75):
                samples.append([r.x0 + a * cm.spacing, r.y0 + b * cm.spacing])
                weights.append(cm.masses[k] / 4)
    nu = DiscreteMeasure(np.array(samples), np.array(weights))
    assert w1_distance(mu, nu) <= math.sqrt(2) * h + 1e-9


def test_grid_approximation_of_cell_measure(geom):
    # regridding a cell density preserves mass exactly
    cm = CellMeasure(origin=(0.3, 0.3), spacing=0.1,
                     indices=[[0, 0], [2, 2]], masses=[0.5, 0.5])
    out = grid_approximation(cm, 0.2, geom, origin=(0.3, 0.3))
    assert math.isclose(out.masses.sum(), 1.0, abs_tol=1e-14)
    assert out.n_cells == 2
    assert np.allclose(out.masses, 0.5)


def test_grid_approximation_support_guard(geom):
    pm = DiscreteMeasure([[0.79, 0.79]], [1.0])
    with pytest.raises(ValueError):
        # the tile of this atom pokes out of the box after shrinkage
        grid_approximation(pm, 0.3, geom, origin=(0.79, 0.79))


def test_discretize_single_cell(geom):
    sched = ScalingSchedule(r_coef=0.1)
    cm = CellMeasure(origin=(0.0, 0.0), spacing=0.2, indices=[[2, 2]], masses=[1.0])
    cfg = discretize_grid(cm, 4, sched, geom)
    assert cfg.n == 4
    assert sorted(map(tuple, np.round(cfg.points, 12).tolist())) == [
        (0.45, 0.45), (0.45, 0.55), (0.55, 0.45), (0.55, 0.55)]
    assert math.isclose(cfg.min_separation(), 0.1)   # spacing h / 2


def test_discretize_counts_and_separation(geom):
    sched = ScalingSchedule(r_coef=0.05)
    target = UniformDensity(Rect(0.3, 0.3, 0.7, 0.7))
    cm = grid_approximation(target, 0.2, geom, origin=(0.3, 0.3))
    rng = np.random.default_rng(0)
    for n in (16, 64, 144, 256):
        cfg = discretize_grid(cm, n, sched, geom)
        assert cfg.n == n
        per_cell_mass = cm.masses[0]
        assert cfg.min_separation() >= cm.spacing / math.sqrt(n * per_cell_mass) - 1e-12


def test_discretize_rect_fallback(geom):
    sched = ScalingSchedule(r_coef=0.02)
    cm = CellMeasure(origin=(0.0, 0.0), spacing=0.2, indices=[[2, 2]], masses=[1.0])
    cfg = discretize_grid(cm, 7, sched, geom)    # 7 is not a perfect square
    assert cfg.n == 7
    assert cfg.min_separation() >= sched.r(7)


def test_discretize_convergence_to_density(geom):
    sched = ScalingSchedule(r_coef=0.05)
    target = UniformDensity(Rect(0.3, 0.3, 0.7, 0.7))
    cm = grid_approximation(target, 0.2, geom, origin=(0.3, 0.3))
    ref = discretize_grid(cm, 64, sched, geom).measure()
    dists = [w1_distance(discretize_grid(cm, n, sched, geom).measure(), ref)
             for n in (16, 36, 64)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] == 0.0


def test_slipclass_gamma_zero(wide_geom, schedule):
    params = ClassParams(0.0, 1.0)
    target = UniformDensity(Rect(0.5, 0.5, 1.5, 1.5))
    for n in (64, 256):
        cfg = slipclass_discretize(target, n, params, schedule, wide_geom)
        assert cfg.n == n
        rep = class_membership(cfg, params)
        assert rep.ok, rep.violations
    cfg = slipclass_discretize(target, 256, params, schedule, wide_geom)
    rep = class_membership(cfg, params)
    # substitute n = 256, gamma = 0, c = 1 into the class bounds
    assert rep.min_plane_spacing >= 1 / 16 - 1e-12
    assert rep.max_per_plane <= 16


def test_slipclass_gamma_half(wide_geom, schedule):
    params = ClassParams(0.5, 0.5)
    ld = LineDensity(planes=((1.0, 1.0, 0.5, 1.5),))
    for n in (64, 256):
        cfg = slipclass_discretize(ld, n, params, schedule, wide_geom)
        assert cfg.n == n
        rep = class_membership(cfg, params)
        assert rep.ok, rep.violations
    cfg = slipclass_discretize(ld, 64, params, schedule, wide_geom)
    xs = np.sort(cfg.points[:, 0])
    gaps = np.diff(xs)
    assert np.allclose(gaps, gaps[0])     # uniform target -> equispaced atoms
    assert np.allclose(cfg.points[:, 1], 1.0)


def test_slipclass_rejects_bad_targets(wide_geom, schedule):
    with pytest.raises(ValueError):
        # two planes closer than c
        ld = LineDensity(planes=((1.0, 0.5, 0.5, 1.5), (1.2, 0.5, 0.5, 1.5)))
        slipclass_discretize(ld, 64, ClassParams(0.5, 0.5), schedule, wide_geom)


def test_class_membership_negatives(geom):
    params = ClassParams(0.0, 1.0)
    sched = ScalingSchedule(r_coef=0.05)
    n = 16
    # 4x4 grid of pitch 0.25 inside a wide box passes at (0, 1)
    from slipdyn.geometry import Geometry, Rect as R, Disk
    big = Geometry(omega=R(0, 0, 2, 2), r_box=R(0.4, 0.4, 1.6, 1.6),
                   ball=Disk(0.12, 1.0, 0.06))
    xs = 0.5 + 0.25 * np.arange(4)
    pts = np.array([[x, y] for y in xs for x in xs])
    cfg = DislocationConfig(pts, sched, big.r_box)
    assert class_membership(cfg, params).ok
    # merging two planes overloads the per-plane cap
    merged = pts.copy()
    merged[merged[:, 1] == xs[1], 1] = xs[0]
    merged[:, 0] += 0.01 * np.arange(16)      # keep atoms distinct
    cfg2 = DislocationConfig(merged, sched, big.r_box)
    rep = class_membership(cfg2, params)
    assert not rep.ok and any("occupancy" in v for v in rep.violations)


def test_snap_properties_random(geom):
    # grid-snapping contract: marginal preserved, cost <= eta, support kept,
    # per-plane gaps >= eta / m
    rng = np.random.default_rng(7)
    sched = ScalingSchedule(r_coef=0.05)
    for trial in range(100):
        n_planes = int(rng.integers(1, 4))
        per_plane = int(rng.integers(1, 5))
        cfg = random_config(rng, geom, sched, n_planes, per_plane)
        eta = float(rng.uniform(0.02, 0.3))
        snapped = snap_modification(cfg, eta)
        m = max(len(idx) for _, idx in cfg.planes())
        assert [y for y, _ in snapped.planes()] == [y for y, _ in cfg.planes()]  # (a)
        d = slip_distance(cfg.measure(), snapped.measure())
        assert d <= eta + 1e-12                                                  # (b)
        assert all(geom.r_box.contains(p, tol=1e-12) for p in snapped.points)    # (c)
        for _, idx in snapped.planes():
            xs = np.sort(snapped.points[idx, 0])
            if len(xs) > 1:
                assert np.min(np.diff(xs)) >= eta / m - 1e-12                    # (d)


def test_monotone_assignment_bruteforce():
    # the snap dynamic program is optimal over all increasing node choices;
    # integer and half-integer positions on an integer grid make ties common
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = int(rng.integers(1, 8))
        m = int(rng.integers(1, g + 1))
        xs = np.sort(rng.integers(-2, 2 * g + 2, m) / 2.0)
        nodes = np.arange(g, dtype=float)
        assign = _monotone_assignment(xs, nodes)
        assert np.all(np.diff(assign) > 0) and 0 <= assign[0] and assign[-1] < g
        best = min(sum(abs(x - nodes[c]) for x, c in zip(xs, comb))
                   for comb in itertools.combinations(range(g), m))
        assert abs(sum(abs(xs - nodes[assign])) - best) <= 1e-12
    # among equal-cost choices the later node wins
    assert _monotone_assignment(np.array([0.5]), np.array([0.0, 1.0])).tolist() == [1]


def test_nearest_assignment_matches_dp():
    # the snap's shortcut returns the dynamic program's answer bit for bit
    # whenever it returns one; on the half-integer lattices of
    # test_monotone_assignment_bruteforce, an atom on a node midpoint (a tie)
    # or two atoms nearest to one node take the fallback
    rng = np.random.default_rng(9)
    taken = 0
    for _ in range(2000):
        g = int(rng.integers(1, 40))
        m = int(rng.integers(1, g + 1))
        k0 = int(rng.integers(-20, 20))
        nodes = rng.uniform(1e-3, 0.1) * np.arange(k0, k0 + g)
        span = nodes[-1] - nodes[0] if g > 1 else 0.1
        xs = np.sort(rng.uniform(nodes[0] - 0.1 * span, nodes[-1] + 0.1 * span, m))
        got = _nearest_assignment(xs, nodes)
        if got is not None:
            taken += 1
            assert np.array_equal(got, _monotone_assignment(xs, nodes))
    assert taken > 500
    for _ in range(500):
        g = int(rng.integers(1, 8))
        m = int(rng.integers(1, g + 1))
        xs = np.sort(rng.integers(-2, 2 * g + 2, m) / 2.0)
        nodes = np.arange(g, dtype=float)
        got = _nearest_assignment(xs, nodes)
        tie = np.any((xs % 1.0 == 0.5) & (xs > 0) & (xs < g - 1))
        shared = len(np.unique(np.clip(np.rint(xs), 0, g - 1))) < m
        if tie or shared:
            assert got is None
        elif got is not None:
            assert np.array_equal(got, _monotone_assignment(xs, nodes))
    # one ulp off a midpoint is within the margin; a thousandth is not
    assert _nearest_assignment(np.array([np.nextafter(1.5, 2.0)]), np.arange(3.0)) is None
    assert _nearest_assignment(np.array([1.501]), np.arange(3.0)).tolist() == [2]


def test_snap_shortcut_on_the_gamma_ladder(monkeypatch):
    # every plane of the gamma ladder's configurations takes the shortcut,
    # and the snap equals the snap with the dynamic program forced, bit for bit
    import slipdyn.recovery as recovery
    from slipdyn.config import load_config
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "gamma_uniform.json")
    sec = cfg.section
    (cx, cy), side = sec["target"]["center"], sec["target"]["side"]
    target = UniformDensity(Rect(cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2))
    density = grid_approximation(target, sec["h"], cfg.geometry, origin=sec["origin"])
    params = ClassParams(*sec["gamma_c"])
    nearest, answers, results = recovery._nearest_assignment, [], []

    def spy(xs, nodes):
        answers.append(nearest(xs, nodes))
        return answers[-1]
    monkeypatch.setattr(recovery, "_nearest_assignment", spy)
    for n in sec["n_ladder"]:
        config_n = discretize_grid(density, n, cfg.schedule, cfg.geometry)
        eta = min(params.min_plane_spacing(n), 0.5 * cfg.geometry.r_box.width)
        results.append((config_n, eta, snap_modification(config_n, eta)))
    assert len(answers) > 3 and all(a is not None for a in answers)
    monkeypatch.setattr(recovery, "_nearest_assignment", lambda xs, nodes: None)
    for config_n, eta, snapped in results:
        assert snapped.points.tobytes() == snap_modification(config_n, eta).points.tobytes()


def test_snap_on_grid_unchanged(geom):
    sched = ScalingSchedule(r_coef=0.01)
    eta = 0.1
    # points built by the same arithmetic as the snap grid (pitch eta / 4)
    xs = (eta / 4) * np.arange(12, 16)
    pts = np.stack([xs, np.full(4, 0.5)], axis=1)
    cfg = DislocationConfig(pts, sched, geom.r_box)
    snapped = snap_modification(cfg, eta)
    assert np.array_equal(snapped.points, cfg.points)
    assert slip_distance(cfg.measure(), snapped.measure()) == 0.0


def test_snap_separates_near_coincident(geom):
    cfg = DislocationConfig([[0.5, 0.5], [0.5005, 0.5]],
                            ScalingSchedule(r_coef=1e-4), geom.r_box)
    snapped = snap_modification(cfg, 0.1)
    assert abs(snapped.points[0, 0] - snapped.points[1, 0]) >= 0.05 - 1e-12


def test_snap_eta_guard(geom):
    cfg = DislocationConfig([[0.5, 0.5]], ScalingSchedule(r_coef=0.05), geom.r_box)
    with pytest.raises(ValueError):
        snap_modification(cfg, 0.0)
    with pytest.raises(ValueError):
        snap_modification(cfg, 10.0)


def test_class_params_validation():
    with pytest.raises(ValueError):
        ClassParams(0.6, 1.0)
    with pytest.raises(ValueError):
        ClassParams(0.0, -1.0)
