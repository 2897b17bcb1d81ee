import math
import tracemalloc

import numpy as np
import pytest

from slipdyn.geometry import Disk, Geometry, Rect
from slipdyn.interaction import (QuadratureConfig, continuum_interaction,
                                 continuum_interaction_freespace,
                                 interaction_cross_matrix,
                                 interaction_of_points, interaction_sum, v_pair)
from slipdyn.kernels import K_many, Material, apply_C
from slipdyn.measures import CellMeasure, DislocationConfig

from oracles import boundary_data_plain, dK1_offsets, dy1_matrix

#: fixed instance Omega = (0,1)^2, y = (0.4, 0.5), z = (0.6, 0.5), lam = mu = 1,
#: pinned by a uniform 4000^2 midpoint quadrature with Richardson extrapolation
FIXED_INSTANCE_ORACLE = 0.2601344


def _two_to_one():
    """Geometry and material of the route checks off the unit square: a 2:1
    rectangle with asymmetric Lame constants."""
    return (Geometry(omega=Rect(0.0, 0.0, 2.0, 1.0), r_box=Rect(0.3, 0.25, 1.7, 0.75),
                     ball=Disk(0.08, 0.5, 0.04)),
            Material(0.7, 1.3))


def test_freespace_leading(mat, quad):
    def v(y, z):   # the two-point free-space energy is V(y, z) / 4
        return 4.0 * interaction_of_points([y, z], "freespace", None, mat, quad)

    assert v([0.0, 0.0], [1.0, 0.0]) == 0.0
    assert math.isclose(v([0.0, 0.0], [math.exp(-1.0), 0.0]), 2 / (3 * math.pi),
                        rel_tol=1e-12)
    r = 0.37
    assert math.isclose(v([0.0, 0.0], [r, 0.0]), -v([0.0, 0.0], [1 / r, 0.0]),
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        v([0.1, 0.1], [0.1, 0.1])


def test_v_pair_fixed_instance(geom, mat, quad):
    v = v_pair(np.array([0.4, 0.5]), np.array([0.6, 0.5]), geom, mat, quad)
    assert abs(v - FIXED_INSTANCE_ORACLE) / FIXED_INSTANCE_ORACLE <= 1e-3


def test_v_pair_diagonal_is_infinite(geom, mat, quad):
    assert v_pair(np.array([0.5, 0.5]), np.array([0.5, 0.5]), geom, mat, quad) == math.inf


def test_v_pair_symmetry(geom, mat, quad):
    rng = np.random.default_rng(1)
    done = 0
    while done < 20:
        y = rng.uniform(0.25, 0.75, 2)
        z = rng.uniform(0.25, 0.75, 2)
        if np.hypot(*(y - z)) < 0.02:
            continue
        done += 1
        assert abs(v_pair(y, z, geom, mat, quad)
                   - v_pair(z, y, geom, mat, quad)) <= quad.tol


def test_boundary_route_matches_quadrature(geom, mat, quad):
    rng = np.random.default_rng(7)
    done = 0
    while done < 8:
        y = rng.uniform(0.25, 0.75, 2)
        z = rng.uniform(0.25, 0.75, 2)
        if np.hypot(*(y - z)) < 0.03:
            continue
        done += 1
        vd = v_pair(y, z, geom, mat, quad)
        assert abs(vd - interaction_cross_matrix(y, z, geom, mat, quad)[0, 0]) <= 2e-5


def test_log_asymptotics_structure(geom, mat, quad):
    # the short-range regular part stabilizes, so the log ratio converges to
    # the material coefficient
    coef = mat.log_coef
    c = np.array([0.5, 0.5])
    W = {}
    for s in (1e-2, 1e-3):
        y = c - [s / 2, 0.0]
        z = c + [s / 2, 0.0]
        v = v_pair(y, z, geom, mat, quad)
        W[s] = v + coef * math.log(s)
    assert abs(W[1e-2] - W[1e-3]) < 2e-3
    dev2 = abs(W[1e-2]) / (-math.log(1e-2)) / coef
    dev3 = abs(W[1e-3]) / (-math.log(1e-3)) / coef
    assert dev3 < dev2  # the finer separation is closer to the leading term


def test_log_coefficient_with_regular_part_cancelled(geom, mat, quad):
    # V(s) = -c log s + R + o(1) for a pair at separation s about the centre;
    # the difference over one decade cancels the domain's regular part R
    # (about -0.088 here), which is what keeps A2's ratio V(s) / (-log s)
    # off c at s = 1e-2 and 1e-3
    c = np.array([0.5, 0.5])
    for v, bound in ((lambda y, z: interaction_cross_matrix(y, z, geom, mat, quad)[0, 0], 1e-5),
                     (lambda y, z: v_pair(y, z, geom, mat, quad), 1e-3)):
        V = {s: v(c - [s / 2, 0.0], c + [s / 2, 0.0]) for s in (1e-3, 1e-4)}
        coef = (V[1e-4] - V[1e-3]) / math.log(10.0)
        assert abs(coef - mat.log_coef) <= bound * mat.log_coef


def test_interaction_sum_small_cases(geom, mat, quad, small_schedule):
    box = geom.r_box
    cfg1 = DislocationConfig([[0.5, 0.5]], small_schedule, box)
    assert interaction_sum(cfg1, "freespace", None, mat, quad) == 0.0
    s = math.exp(-1.0)
    cfg2 = DislocationConfig([[0.5 - s / 2, 0.5], [0.5 + s / 2, 0.5]],
                             small_schedule, box)
    v = interaction_sum(cfg2, "freespace", None, mat, quad)
    assert math.isclose(v, 1 / (6 * math.pi), rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 100, 1000])
def test_freespace_energy_in_row_blocks(n, mat, quad):
    # the free-space energy is the pair energy with kernel c log r, whose row
    # sums are taken for blocks of 16 atoms; oracle: the one n x n kernel
    # without its diagonal, row sums, and fsum of -w^2 times them, halved
    pts = np.random.default_rng(n).uniform(0.2, 0.8, (n, 2))
    u = pts[:, None, :] - pts[None, :, :]
    with np.errstate(divide="ignore"):
        K = mat.log_coef * 0.5 * np.log(u[..., 0] ** 2 + u[..., 1] ** 2)
    rows = K[~np.eye(n, dtype=bool)].reshape(n, n - 1).sum(axis=1)
    ref = math.fsum(-(1.0 / n) ** 2 * rows) / 2.0
    e = interaction_of_points(pts, "freespace", None, mat, quad)
    assert math.copysign(1.0, e) == math.copysign(1.0, ref) and e == ref


def test_freespace_energy_memory(mat, quad):
    # the n x n offsets and kernel alone would take 100 MB at n = 2048
    pts = np.random.default_rng(0).uniform(0.2, 0.8, (2048, 2))
    tracemalloc.start()
    try:
        interaction_of_points(pts, "freespace", None, mat, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_interaction_sum_matches_vpair_loop(geom, mat, quad, small_schedule):
    pts = np.array([[0.35, 0.4], [0.62, 0.47], [0.5, 0.66]])
    cfg = DislocationConfig(pts, small_schedule, geom.r_box)
    total = 0.0
    for i in range(3):
        for j in range(3):
            if i != j:
                total += v_pair(pts[i], pts[j], geom, mat, quad)
    expected = total / (2 * 9)
    got = interaction_sum(cfg, "bounded", geom, mat, quad)
    assert abs(got - expected) <= 2e-5


def test_interaction_sum_permutation_invariant(geom, mat, quad, small_schedule):
    pts = np.array([[0.35, 0.4], [0.62, 0.47], [0.5, 0.66], [0.7, 0.31]])
    cfg = DislocationConfig(pts, small_schedule, geom.r_box)
    rng = np.random.default_rng(0)
    perm = rng.permutation(4)
    cfg_p = DislocationConfig(pts[perm], small_schedule, geom.r_box)
    for mode, g in (("freespace", None), ("bounded", geom)):
        assert interaction_sum(cfg, mode, g, mat, quad) == \
            interaction_sum(cfg_p, mode, g, mat, quad)


def test_coincident_pair_rejected(geom, mat, quad):
    bad = np.array([[0.4, 0.5], [0.6, 0.5], [0.4, 0.5]])
    for mode in ("freespace", "bounded"):
        with pytest.raises(ValueError, match="coincident"):
            interaction_of_points(bad, mode, geom, mat, quad)


def test_upper_envelope_invariant(geom, mat, quad):
    # |V| <= C (1 - log(|y-z|/L)): fit an envelope over sampled pairs and check
    # the fitted log slope stays within 5% of the leading coefficient
    rng = np.random.default_rng(4)
    pts = []
    vals = []
    while len(vals) < 60:
        y = rng.uniform(0.25, 0.75, 2)
        z = rng.uniform(0.25, 0.75, 2)
        r = np.hypot(*(y - z))
        if r < 1e-4:
            continue
        vals.append(interaction_cross_matrix(y, z, geom, mat, quad)[0, 0])
        pts.append(-math.log(r))
    A = np.stack([np.ones(len(vals)), np.array(pts)], axis=1)
    coefs, *_ = np.linalg.lstsq(A, np.abs(vals), rcond=None)
    c0, c1 = coefs
    assert c1 <= 1.05 * mat.log_coef
    shift = np.max(np.abs(vals) - (c0 + c1 * np.array(pts)))
    assert np.all(np.abs(vals) <= c0 + shift + c1 * np.array(pts) + 1e-12)


def test_lower_bound_inner_domain(geom, mat, quad):
    # short-range pairs in the inner half-domain have nonnegative interaction
    rng = np.random.default_rng(5)
    for _ in range(15):
        y = rng.uniform(0.3, 0.7, 2)
        r = rng.uniform(1e-3, 0.05)
        th = rng.uniform(0, 2 * math.pi)
        z = y + r * np.array([math.cos(th), math.sin(th)])
        assert interaction_cross_matrix(y, z, geom, mat, quad)[0, 0] >= 0.0


def test_uniform_lower_bound_on_box(geom, mat, quad):
    rng = np.random.default_rng(6)
    worst = math.inf
    for _ in range(150):
        y = rng.uniform(0.2, 0.8, 2)
        z = rng.uniform(0.2, 0.8, 2)
        if np.hypot(*(y - z)) < 1e-3:
            continue
        worst = min(worst, interaction_cross_matrix(y, z, geom, mat, quad)[0, 0])
    # empirical uniform lower bound on the confinement box (recorded constant)
    print(f"empirical min V over box sample: {worst:.6f}")
    assert worst >= -1.0


def test_continuum_two_far_cells(geom, mat, quad):
    cm = CellMeasure(origin=(0.0, 0.0), spacing=0.1,
                     indices=[[3, 3], [6, 6]], masses=[0.5, 0.5])
    got = continuum_interaction(cm, geom, mat, quad)
    # brute-force oracle: dense Gauss product over the two far cells plus a
    # refined same-cell treatment (frozen from a 2x resolution run)
    assert abs(got - 0.121838) < 5e-4


def _scaled_mass(cm, alpha):
    """Copy of a cell measure with total mass alpha (past the mass-1 check)."""
    out = object.__new__(CellMeasure)
    object.__setattr__(out, "origin", cm.origin)
    object.__setattr__(out, "spacing", cm.spacing)
    object.__setattr__(out, "indices", cm.indices.copy())
    object.__setattr__(out, "masses", cm.masses * alpha)
    return out


def test_continuum_bilinearity(geom, mat, quad):
    cm = CellMeasure(origin=(0.0, 0.0), spacing=0.1,
                     indices=[[3, 3], [6, 6]], masses=[0.5, 0.5])
    base = continuum_interaction(cm, geom, mat, quad)
    scaled = continuum_interaction(_scaled_mass(cm, 2.0), geom, mat, quad)
    assert math.isclose(scaled, 4.0 * base, rel_tol=1e-12)


def test_continuum_rejects_atoms(geom, mat, quad):
    from slipdyn.measures import DiscreteMeasure
    with pytest.raises(TypeError):
        continuum_interaction(DiscreteMeasure([[0.5, 0.5]], [1.0]), geom, mat, quad)


@pytest.mark.parametrize("di, dj", [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)])
def test_cell_log_moment_closed_form(di, dj):
    # oracle: adaptive quadrature of log|u| against the tent density of y - z
    from scipy.integrate import dblquad

    from slipdyn.interaction import _cell_log_moment

    def tent(t, delta):
        return max(0.0, 1.0 - abs(t - delta))

    def integrand(u2, u1):
        r2 = u1 * u1 + u2 * u2
        return 0.0 if r2 == 0.0 else tent(u1, di) * tent(u2, dj) * 0.5 * math.log(r2)

    oracle, _ = dblquad(integrand, di - 1.0, di + 1.0, lambda u1: dj - 1.0,
                        lambda u1: dj + 1.0, epsabs=1e-11, epsrel=1e-11)
    assert abs(_cell_log_moment(di, dj) - oracle) <= 1e-13
    if (di, dj) == (0, 0):   # mean log distance in the unit square (Maxwell)
        maxwell = math.log(2) / 3 + math.pi / 3 - 25 / 12
        assert abs(_cell_log_moment(0, 0) - maxwell) <= 1e-15


def test_continuum_finite_on_fixed_instance(geom, mat, quad):
    cm = CellMeasure(origin=(0.3, 0.3), spacing=0.1,
                     indices=[[0, 0], [2, 0], [0, 2], [2, 2]],
                     masses=[0.25, 0.25, 0.25, 0.25])
    v = continuum_interaction(cm, geom, mat, quad)
    assert math.isfinite(v)
    vf = continuum_interaction_freespace(cm, mat, quad)
    assert math.isfinite(vf)


@pytest.mark.parametrize("spacing, indices, expected", [
    (0.1, [[0, 0], [2, 0], [0, 2], [2, 2]], 0.20129179633994368),
    (0.05, [[i, j] for i in range(8) for j in range(8)], 0.1826438204642429),
])
def test_continuum_freespace_pinned(mat, quad, spacing, indices, expected):
    cm = CellMeasure(origin=(0.3, 0.3), spacing=spacing, indices=indices,
                     masses=np.full(len(indices), 1.0 / len(indices)))
    v = continuum_interaction_freespace(cm, mat, quad)
    assert abs(v - expected) <= 1e-13 * abs(expected)


def test_routes_agree_on_nonsquare_domain():
    # regression: rectangle with aspect 2:1 and asymmetric Lame constants
    geom, mat = _two_to_one()
    q = QuadratureConfig()
    rng = np.random.default_rng(3)
    done = 0
    while done < 5:
        y = np.array([rng.uniform(0.35, 1.65), rng.uniform(0.3, 0.7)])
        z = np.array([rng.uniform(0.35, 1.65), rng.uniform(0.3, 0.7)])
        if np.hypot(*(y - z)) < 0.05:
            continue
        done += 1
        assert abs(v_pair(y, z, geom, mat, q)
                   - interaction_cross_matrix(y, z, geom, mat, q)[0, 0]) <= 2e-5
    # short-range coefficient for the asymmetric material
    c = np.array([1.0, 0.5])
    s = 1e-4
    v = interaction_cross_matrix(c - [s / 2, 0], c + [s / 2, 0], geom, mat, q)[0, 0]
    assert abs(v / (-math.log(s)) - mat.log_coef) / mat.log_coef < 0.01


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(base_cells=2)
    with pytest.raises(ValueError):
        QuadratureConfig(tol=-1.0)
    for name in ("boundary_points", "cell_gauss", "density_gauss"):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=name):
                QuadratureConfig(**{name: bad})
    # one node per cell leaves a cell's own pairs no distinct nodes to average
    with pytest.raises(ValueError, match="density_gauss"):
        QuadratureConfig(density_gauss=1)

# V(y_i, z_j) of interaction_cross_matrix on fixed families, pinned so that a
# rewrite of the boundary route must reproduce it to rounding (1e-14), far
# tighter than the 2e-5 v_pair oracle.  The 3x5 and 4x4 families mix near,
# far and axis-aligned pairs; the 4x4 diagonal pairs coincide.
CROSS_FAMILIES = {
    "1x1": ([(0.4, 0.5)], [(0.6, 0.5)]),
    "3x5": ([(0.5, 0.5), (0.35, 0.62), (0.66, 0.31)],
            [(0.7, 0.45), (0.42, 0.8), (0.2, 0.4), (0.55, 0.15), (0.6, 0.6)]),
    "4x4": ([(0.5, 0.3), (0.7, 0.5), (0.5, 0.7), (0.3, 0.5)],
            [(0.5, 0.3), (0.7, 0.5), (0.5, 0.7), (0.3, 0.5)]),
}
PINNED_CROSS = {
    ("square", "1x1"): [
        [0.26013438032290526],
    ],
    ("square", "3x5"): [
        [0.23862381145913983, -0.006468919598494466, 0.14709044438683616,
         -0.034860527262059376, 0.2253575363057881],
        [0.10222930944644779, 0.07414685630625611, 0.06511820381687661,
         -0.04395778266681128, 0.21179988208056363],
        [0.1193582813831354, -0.03991825599376145, 0.09389070029101021,
         0.10181627558478445, 0.0005370536699828565],
    ],
    ("square", "4x4"): [
        [0.0, 0.09277654557998083, -0.04524329987618708,
         0.09277654557998105],
        [0.09277654557998118, 0.0, 0.09277654557998125,
         0.1303754155606976],
        [-0.04524329987618669, 0.0927765455799814, 0.0,
         0.09277654557998144],
        [0.09277654557998122, 0.1303754155606976, 0.0927765455799812,
         0.0],
    ],
    ("wide", "1x1"): [
        [0.23790618718765183],
    ],
    ("wide", "3x5"): [
        [0.229045960053713, 0.06681846387378836, 0.1408582537926034,
         0.012323430133342417, 0.31515953757959486],
        [0.10983657487564352, 0.18232729837054307, 0.15065116526458444,
         0.004651430032483181, 0.18872650557464138],
        [0.23840338311600323, 0.007587798590868652, 0.07156472221070974,
         0.20148030503820366, 0.069510666674475],
    ],
    ("wide", "4x4"): [
        [0.0, 0.15873433086227906, -0.01549382291779522,
         0.15873433086227906],
        [0.15873433086227917, 0.0, 0.15873433086227928,
         0.10472932563370263],
        [-0.015493822917794886, 0.1587343308622794, 0.0,
         0.15873433086227925],
        [0.15873433086227892, 0.10472932563370238, 0.15873433086227895,
         0.0],
    ],
}


@pytest.mark.parametrize("domain, family", sorted(PINNED_CROSS))
def test_cross_matrix_pinned(domain, family, geom, mat, quad):
    ys, zs = (np.array(p) for p in CROSS_FAMILIES[family])
    if domain == "wide":
        geom, mat = _two_to_one()
        ys[:, 0] *= 2
        zs[:, 0] *= 2
    M = interaction_cross_matrix(ys, zs, geom, mat, quad)
    assert np.max(np.abs(M - np.array(PINNED_CROSS[domain, family]))) <= 1e-14


def _spread_points(rng, n, lo, hi, sep):
    """n points uniform in the rectangle [lo, hi], pairwise at least sep apart."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(lo, hi)
        if all(np.hypot(*(p - q)) >= sep for q in pts):
            pts.append(p)
    return np.array(pts)


@pytest.mark.parametrize("domain", ["square", "wide"])
@pytest.mark.parametrize("family", ["1x1", "3x5", "16x16"])
def test_dy1_matrix_matches_central_differences(domain, family, geom, mat, quad):
    # oracle: central differences of the boundary route in y_1; the 16x16
    # family is one point set against itself, so its diagonal pairs coincide
    if family == "16x16":
        ys = zs = _spread_points(np.random.default_rng(29), 16, (0.2, 0.2),
                                 (0.8, 0.8), 0.05)
    else:
        ys, zs = (np.array(p) for p in CROSS_FAMILIES[family])
    if domain == "wide":
        geom, mat = _two_to_one()
        ys, zs = ys * [2, 1], zs * [2, 1]
    h = 1e-6 * geom.r_box.diam
    fd = (interaction_cross_matrix(ys + [h, 0], zs, geom, mat, quad)
          - interaction_cross_matrix(ys - [h, 0], zs, geom, mat, quad)) / (2 * h)
    M = dy1_matrix(ys, zs, geom, mat, quad)
    coincident = np.linalg.norm(ys[:, None] - zs[None], axis=-1) < 1e-12
    assert np.all(M[coincident] == 0.0)
    assert coincident.sum() == (16 if family == "16x16" else 0)
    err = np.abs(M - fd)[~coincident]
    assert err.max() <= 1e-8 * np.abs(fd[~coincident]).max()


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
def test_stress_potential_gradient_is_the_stress_row(lam, mu):
    # oracle: central differences of psi against the closed-form stress C K
    from slipdyn.interaction import _stress_potential
    from slipdyn.kernels import K_offsets, apply_C
    mat = Material(lam, mu)
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.8, 0.8, (40, 2))
    u = u[np.hypot(u[:, 0], u[:, 1]) > 0.05]
    h = 1e-6
    d1 = (_stress_potential(u + [h, 0], mat) - _stress_potential(u - [h, 0], mat)) / (2 * h)
    d2 = (_stress_potential(u + [0, h], mat) - _stress_potential(u - [0, h], mat)) / (2 * h)
    ck = apply_C(K_offsets(u, mat), mat)
    assert np.max(np.abs(d1 - ck[:, 0, 1])) <= 1e-8
    assert np.max(np.abs(d2 + ck[:, 0, 0])) <= 1e-8


@pytest.mark.parametrize("domain", ["square", "wide"])
def test_cross_matrix_symmetric(domain, geom, mat, quad):
    # V(y, z) = V(z, y); the route builds rows and columns from different
    # fields, so its symmetry is a check of the reduction
    pts = _spread_points(np.random.default_rng(29), 16, (0.2, 0.2), (0.8, 0.8), 0.05)
    if domain == "wide":
        geom, mat = _two_to_one()
        pts = pts * [2, 1]
    M = interaction_cross_matrix(pts, pts, geom, mat, quad)
    assert np.all(np.diag(M) == 0.0)
    assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))


def _eshelby_dy1(ys, zs, geom, mat, quad):
    """dV/dy_1 in Eshelby's form, assembled without the boundary rows as the
    oracle of ``oracles.dy1_matrix``:

        dV/dy_1 = c D_1 (D_2^2 - D_1^2) / |D|^4 - int_dOmega (C K_y : K_z) nu_1
                  + int_dOmega (C K_y nu) . K_z e1,    D = y - z.
    """
    from slipdyn.interaction import _boundary_grid
    grid = _boundary_grid(geom.omega, quad.boundary_points)
    xg, nu = grid["gauss_pts"], grid["gauss_nu"]
    Kz = np.stack([K_many(xg, zj, mat) for zj in zs]).reshape(len(zs), -1)
    d = ys[:, None, :] - zs[None, :, :]
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2
    coincident = r2 < 1e-24
    M = np.divide(mat.log_coef * d[..., 0] * (d[..., 1] ** 2 - d[..., 0] ** 2), r2 * r2,
                  out=np.zeros_like(r2), where=~coincident)
    for i, yi in enumerate(ys):
        cky = apply_C(K_many(xg, yi, mat), mat) * grid["gauss_w"][:, None, None]
        g = -cky * nu[:, :1, None]
        g[:, :, 0] += np.einsum("qij,qj->qi", cky, nu)
        M[i] += Kz @ g.ravel()
    M[coincident] = 0.0
    return M


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("domain", ["square", "wide"])
@pytest.mark.parametrize("family", ["1x1", "3x5", "4x4", "16x16"])
def test_dy1_matrix_matches_eshelby_form(domain, family, lam, mu, geom, quad):
    if family == "16x16":
        ys = zs = _spread_points(np.random.default_rng(29), 16, (0.2, 0.2),
                                 (0.8, 0.8), 0.05)
    else:
        ys, zs = (np.array(p) for p in CROSS_FAMILIES[family])
    if domain == "wide":
        geom = _two_to_one()[0]
        ys, zs = ys * [2, 1], zs * [2, 1]
    mat = Material(lam, mu)
    ref = _eshelby_dy1(ys, zs, geom, mat, quad)
    M = dy1_matrix(ys, zs, geom, mat, quad)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("domain", ["square", "wide"])
@pytest.mark.parametrize("n", [2, 16, 256])
def test_bounded_sum_matches_cross_matrix(domain, n, geom, mat, quad):
    # oracle: the full pair matrix, summed; the energy sums rows and columns
    # first and never builds it
    pts = _spread_points(np.random.default_rng(n), n, (0.2, 0.2), (0.8, 0.8), 0.01)
    if domain == "wide":
        geom, mat = _two_to_one()
        pts = pts * [2, 1]
    ref = interaction_cross_matrix(pts, pts, geom, mat, quad).sum() / (2 * n * n)
    e = interaction_of_points(pts, "bounded", geom, mat, quad)
    assert abs(e - ref) <= 1e-13 * abs(ref)


def _node_pair_continuum(density, geom, mat, quad):
    """Oracle: the node-pair assembly the rows-first continuum replaced.

    V between all Gauss nodes (``interaction_cross_matrix``, or the leading
    -c log r when ``geom`` is None), then per cell pair the node mean of the
    block; same-cell and touching pairs take the closed-form log moment plus
    the node mean of V + c log r, without the coincident nodes and divided by
    1 - sum w^2 for a cell paired with itself.
    """
    from slipdyn.interaction import _cell_log_moment
    nodes, w = density.gauss_nodes(quad.density_gauss)
    flat = nodes.reshape(-1, 2)
    g2 = len(w)
    r_all = np.hypot(*(flat[:, None, :] - flat[None, :, :]).transpose(2, 0, 1))
    coef = mat.log_coef
    if geom is None:
        with np.errstate(divide="ignore"):
            V = -coef * np.log(r_all)
    else:
        V = interaction_cross_matrix(flat, flat, geom, mat, quad)
    total = 0.0
    for a in range(density.n_cells):
        for b in range(density.n_cells):
            dij = density.indices[b] - density.indices[a]
            block = V[a * g2:(a + 1) * g2, b * g2:(b + 1) * g2]
            mm = density.masses[a] * density.masses[b]
            if max(abs(dij[0]), abs(dij[1])) > 1:
                total += mm * float(w @ block @ w)
                continue
            r = r_all[a * g2:(a + 1) * g2, b * g2:(b + 1) * g2].copy()
            if a == b:
                np.fill_diagonal(r, 1.0)
            W = block + coef * np.log(r)
            denom = 1.0
            if a == b:
                np.fill_diagonal(W, 0.0)
                denom = 1.0 - float(w @ w)
            log_part = -coef * (math.log(density.spacing)
                                + _cell_log_moment(int(dij[0]), int(dij[1])))
            total += mm * (log_part + float(w @ W @ w) / denom)
    return 0.5 * total


def _continuum_cases():
    """Far, four-cell, h = 0.2, h = 0.1 and 8 x 8 touching densities."""
    def uniform(spacing, k):
        idx = [[i, j] for i in range(k) for j in range(k)]
        return CellMeasure(origin=(0.3, 0.3), spacing=spacing, indices=idx,
                           masses=np.full(k * k, 1.0 / (k * k)))
    return {
        "far": CellMeasure(origin=(0.0, 0.0), spacing=0.1,
                           indices=[[3, 3], [6, 6]], masses=[0.5, 0.5]),
        "four": CellMeasure(origin=(0.3, 0.3), spacing=0.1,
                            indices=[[0, 0], [2, 0], [0, 2], [2, 2]],
                            masses=[0.25] * 4),
        "h0.2": uniform(0.2, 2), "h0.1": uniform(0.1, 4), "h0.05": uniform(0.05, 8),
    }


@pytest.mark.parametrize("case", list(_continuum_cases()))
@pytest.mark.parametrize("domain", ["square", "wide"])
@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
def test_continuum_matches_node_pair_assembly(case, domain, lam, mu, geom, quad):
    density = _continuum_cases()[case]
    geom = geom if domain == "square" else _two_to_one()[0]
    mat = Material(lam, mu)
    ref = _node_pair_continuum(density, geom, mat, quad)
    assert abs(continuum_interaction(density, geom, mat, quad) - ref) <= 1e-13 * abs(ref)
    if domain == "square":      # free space does not see the domain
        ref = _node_pair_continuum(density, None, mat, quad)
        got = continuum_interaction_freespace(density, mat, quad)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _kernel_route_boundary_data(grid, z, mat):
    """Row, y_1-derivative row and column of one source assembled from the
    general-purpose kernels (strain, its z_1-derivative, C and v): the oracle
    of the closed-form ``_boundary_data``."""
    from slipdyn.interaction import _stress_potential, _stress_potential_dy1
    from slipdyn.kernels import displacement_v
    x, nu, w = grid["gauss_pts"], grid["gauss_nu"], grid["gauss_w"][:, None]

    def row(k, p):
        return np.column_stack([np.einsum("qij,qj->qi", apply_C(k, mat), nu),
                                p / (2 * math.pi)]) * w

    u = x - z
    col = np.column_stack([displacement_v(u, mat),
                           np.einsum("qj,qj->q", u, nu) / np.einsum("qj,qj->q", u, u)])
    return (row(K_many(x, z, mat), _stress_potential(u, mat)),
            row(-dK1_offsets(u, mat), _stress_potential_dy1(u, mat)), col)


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("domain", ["square", "wide"])
def test_closed_form_boundary_data_matches_kernel_route(domain, lam, mu, geom, quad):
    from slipdyn.interaction import BLOCK, _boundary_data, _boundary_grid
    if domain == "wide":
        geom = _two_to_one()[0]
    mat = Material(lam, mu)
    o, ell = geom.omega, geom.ell
    grid = _boundary_grid(o, quad.boundary_points)
    rng = np.random.default_rng(17)
    interior = np.column_stack([rng.uniform(o.x0 + ell, o.x1 - ell, BLOCK - 4),
                                rng.uniform(o.y0 + ell, o.y1 - ell, BLOCK - 4)])
    corners = Rect(o.x0 + ell, o.y0 + ell, o.x1 - ell, o.y1 - ell).corners()
    zs = np.concatenate([interior, corners])

    def data(block):
        rows, cols, d_rows = _boundary_data(grid, block, mat, dy1=True).swapaxes(0, 1)
        return rows, d_rows, cols

    got = data(zs)
    want = [np.stack(parts) for parts in
            zip(*(_kernel_route_boundary_data(grid, z, mat) for z in zs))]
    for g, r in zip(got, want):
        assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))
    # a source's data do not depend on the block it is evaluated in: alone and
    # at every position of a block of BLOCK sources they are bit-identical
    for k, z in enumerate(zs):
        for full, alone in zip(got, data(z)):
            assert np.array_equal(full[k], alone[0])
    for shift in range(1, BLOCK):
        for full, rolled in zip(got, data(np.roll(zs, shift, axis=0))):
            assert np.array_equal(np.roll(rolled, -shift, axis=0), full)
    with pytest.raises(ValueError, match="dislocation core"):
        _boundary_data(grid, np.vstack([zs[:3], grid["gauss_pts"][7]]), mat)


@pytest.mark.parametrize("m", [1, 5, 16, 17, 40])
def test_boundary_data_in_place_matches_plain(m, geom):
    # the in-place closed forms (one _Offsets workspace per block of BLOCK
    # sources, out= arithmetic, the grid's contiguous constants) give the
    # plain expressions' bits: rows, columns and derivative rows, in one
    # block or several, with a source within 1e-6 of a grid point, on the
    # unit square and the 2:1 rectangle, for both materials
    from slipdyn.interaction import _boundary_data, _boundary_grid
    rng = np.random.default_rng(m)
    for g, mat in [(geom, Material(1.0, 1.0)), _two_to_one()]:
        for material in (mat, Material(0.7, 1.3)):
            grid = _boundary_grid(g.omega, 128)
            zs = rng.uniform(0.3, 0.7, (m, 2))
            zs[0] = grid["gauss_pts"][rng.integers(len(grid["gauss_w"]))] \
                + rng.uniform(-1e-6, 1e-6, 2)
            for dy1 in (False, True):
                plain = boundary_data_plain(grid, zs, material, dy1=dy1)
                assert _boundary_data(grid, zs, material, dy1=dy1).tobytes() == plain.tobytes()
