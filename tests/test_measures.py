import math

import numpy as np
import pytest

from slipdyn.geometry import Rect
from slipdyn.measures import (CellMeasure, DiscreteMeasure, DislocationConfig,
                              ScalingSchedule, group_by_plane, min_distance)


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
