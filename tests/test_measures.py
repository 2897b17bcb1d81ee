import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import group_by_plane_loop

from slipdyn.geometry import Rect
from slipdyn.measures import (DENSE_MIN_DISTANCE, CellMeasure, DiscreteMeasure,
                              DislocationConfig, ScalingSchedule, group_by_plane,
                              min_distance)


def test_geometry_invariants():
    from slipdyn.geometry import Disk, Geometry
    with pytest.raises(ValueError):   # box touches the boundary
        Geometry(Rect(0, 0, 1, 1), Rect(0.0, 0.2, 0.8, 0.8), Disk(0.06, 0.5, 0.03))
    with pytest.raises(ValueError):   # ball too deep inside
        Geometry(Rect(0, 0, 1, 1), Rect(0.2, 0.2, 0.8, 0.8), Disk(0.15, 0.5, 0.03))
    with pytest.raises(ValueError):   # ball pokes out of the domain
        Geometry(Rect(0, 0, 1, 1), Rect(0.2, 0.2, 0.8, 0.8), Disk(0.02, 0.5, 0.03))
    g = Geometry(Rect(0, 0, 1, 1), Rect(0.2, 0.2, 0.8, 0.8), Disk(0.06, 0.5, 0.03))
    assert g.ell == pytest.approx(0.2)


def test_schedule_validation():
    s = ScalingSchedule()
    assert s.eps(10) == 10.0 ** -6
    assert s.r(10) == pytest.approx(10.0 ** -1.5)
    ns = (10, 100, 1000, 10_000)       # both decay conditions on a sample of n
    ratios = [s.eps(n) / s.r(n) ** 3 for n in ns]
    products = [n * s.r(n) for n in ns]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(a > b for a, b in zip(products, products[1:]))
    with pytest.raises(ValueError):
        ScalingSchedule(eps_exp=4.0, r_exp=1.5)   # eps/r^3 does not vanish
    with pytest.raises(ValueError):
        ScalingSchedule(r_exp=0.9)                # n r_n does not vanish
    with pytest.raises(ValueError):
        ScalingSchedule(r_coef=0.0)


def test_group_by_plane_tolerance():
    pts = np.array([[0.2, 0.5], [0.9, 0.5 + 1e-12], [0.1, 0.7]])
    planes = group_by_plane(pts, tol=1e-9)
    assert len(planes) == 2
    y0, idx0 = planes[0]
    assert list(idx0) == [0, 1]         # sorted by horizontal coordinate
    assert y0 == 0.5


def test_discrete_measure_invariants():
    with pytest.raises(ValueError):
        DiscreteMeasure([[0, 0], [1, 1]], [0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteMeasure([[0, 0], [0, 0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure.equal_weights([[0, 0], [1, 1], [0, 0]])
    m = DiscreteMeasure.equal_weights([[0.1, 0.5], [0.9, 0.5], [0.3, 0.2]])
    vm = [(y, float(m.weights[idx].sum())) for y, idx in m.planes()]
    assert vm[0][0] == 0.2 and math.isclose(vm[0][1], 1 / 3)
    assert math.isclose(vm[1][1], 2 / 3)


def test_cell_measure_invariants():
    with pytest.raises(ValueError):
        CellMeasure(origin=(0, 0), spacing=0.1, indices=[[0, 0]], masses=[0.5])
    cm = CellMeasure(origin=(0, 0), spacing=0.1,
                     indices=[[1, 1], [0, 0]], masses=[0.5, 0.5])
    assert cm.cell_rect(0).x0 == 0.0     # cells sorted canonically
    assert np.allclose(cm.densities(), 50.0)
    assert max(cm.cell_rect(k).x1 for k in range(cm.n_cells)) == pytest.approx(0.2)


def test_dislocation_config_invariants(geom):
    sched = ScalingSchedule(r_coef=0.05)
    with pytest.raises(ValueError):
        DislocationConfig([[0.1, 0.5]], sched, geom.r_box)       # outside box
    with pytest.raises(ValueError):
        DislocationConfig([[0.5, 0.5], [0.5 + 1e-4, 0.5]], sched, geom.r_box)
    cfg = DislocationConfig([[0.7, 0.5], [0.3, 0.5], [0.5, 0.3]], sched,
                            geom.r_box)
    canon = cfg.canonical_order()
    assert canon.points[0, 1] == 0.3                             # plane-major
    assert canon.points[1, 0] == 0.3 and canon.points[2, 0] == 0.7
    assert canon.canonical_order() is canon                      # sorted: no rebuild
    assert cfg.measure().weights == pytest.approx(np.full(3, 1 / 3))
    assert cfg.min_separation() == pytest.approx(math.hypot(0.2, 0.2))


def test_min_distance_matches_dense(geom):
    # the tree query against the dense n x n minimum, half the cases on a
    # coarse lattice (ties and duplicates); the config's verdicts follow it
    rng = np.random.default_rng(5)
    sched = ScalingSchedule(r_coef=0.3)
    assert min_distance([[0.5, 0.5]]) == math.inf
    for k in range(500):
        n = int(rng.integers(2, 12))
        if k % 2:
            pts = 0.25 + 0.1 * rng.integers(0, 6, (n, 2))
        else:
            pts = rng.uniform(0.2, 0.8, (n, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        dense = math.sqrt(d2.min())
        assert min_distance(pts) == dense
        admitted = dense >= sched.r(n) * (1 - 1e-9)
        try:
            cfg = DislocationConfig(pts, sched, geom.r_box)
        except ValueError:
            assert not admitted
        else:
            assert admitted and cfg.min_separation() == dense



@pytest.mark.parametrize("n", [64, 65])
def test_min_distance_matches_tree_at_the_switch(n):
    # the dense path ends at 64 points and the tree takes over at 65
    # (DENSE_MIN_DISTANCE): both give the tree query's bits, on random sets
    # and on a coarse lattice (ties and duplicates)
    rng = np.random.default_rng(n)
    assert DENSE_MIN_DISTANCE == 65
    for k in range(200):
        if k % 2:
            pts = 0.25 + 0.05 * rng.integers(0, 12, (n, 2))
        else:
            pts = rng.uniform(0.2, 0.8, (n, 2))
        tree = float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())
        assert min_distance(pts) == tree
        assert min_distance(pts.tolist()) == tree


def test_group_by_plane_matches_loop():
    # the per-plane bisection gives the per-point scan's planes: the same
    # representative y bits, index arrays and order, on random planes, on
    # lattices with sub-tolerance jitter and chains of near-tolerance steps,
    # and with NaN and infinite coordinates
    rng = np.random.default_rng(12)
    for trial in range(600):
        n = int(rng.integers(0, 40))
        kind = trial % 5
        if kind == 0:
            ys = rng.uniform(0, 1, n)
        elif kind == 1:                  # lattice planes, jitter about tol
            ys = rng.integers(0, 5, n) * 0.3 + rng.uniform(-1, 1, n) * 1e-9
        elif kind == 2:                  # a lattice at half the tolerance
            ys = rng.integers(0, 8, n) * 5e-10
        elif kind == 3:                  # chains of sub-tolerance steps
            ys = np.cumsum(rng.uniform(0, 6e-10, n))
        else:
            ys = rng.choice([0.1, 0.2, np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1 + 1e-9], n)
        xs = rng.choice([0.1, 0.3, np.nan], n) if trial % 3 == 0 else rng.uniform(0, 1, n)
        pts = np.column_stack([xs, ys]).reshape(-1, 2)
        for tol in (1e-9, 0.0, 0.25, -1.0, np.nan):
            with np.errstate(invalid="ignore"):
                got, ref = group_by_plane(pts, tol), group_by_plane_loop(pts, tol)
            assert len(got) == len(ref)
            for (y, idx), (y_ref, idx_ref) in zip(got, ref):
                assert np.float64(y).tobytes() == np.float64(y_ref).tobytes()
                assert idx.dtype == idx_ref.dtype and np.array_equal(idx, idx_ref)


def test_config_box_check_names_first_point_outside():
    # one comparison over all points, with Rect.contains's 1e-12 tolerance;
    # the error names the first point outside, and NaN is outside
    box, sched = Rect(0.2, 0.2, 0.8, 0.8), ScalingSchedule(r_coef=0.01)
    DislocationConfig([[0.2 - 1e-12, 0.5], [0.8 + 1e-12, 0.8]], sched, box)
    for bad in ([0.3, 0.8 + 2e-12], [np.nan, 0.5], [0.1, 0.5]):
        pts = np.array([[0.5, 0.5], bad, [0.9, 0.9]])
        with pytest.raises(ValueError) as err:
            DislocationConfig(pts, sched, box)
        assert str(err.value) == f"dislocation {pts[1]} outside the confinement box"


def test_rect_contains_mask_matches_points():
    # the (n, 2) form of Rect.contains is the per-point test, NaN outside
    box, rng = Rect(0.2, 0.2, 0.8, 0.8), np.random.default_rng(3)
    pts = rng.choice([0.2 - 2e-12, 0.2 - 1e-12, 0.5, 0.8 + 1e-12, 0.8 + 2e-12,
                      np.nan, -np.inf], (200, 2))
    for tol in (0.0, 1e-12):
        mask = box.contains(pts, tol=tol)
        assert mask.dtype == bool
        assert mask.tolist() == [box.contains(p, tol=tol) for p in pts]
        assert all(type(box.contains(p, tol=tol)) is bool for p in pts[:5])
