"""Two-point interaction potential V on the bounded domain and interaction energies.

V(y, z) is the cross elastic energy of two unit dislocations,

    V(y, z) = int_Omega C K(x; y) : K(x; z) dx,

log-divergent on the diagonal with leading coefficient ``mat.log_coef``.
Two evaluation routes are implemented:

* ``v_pair`` -- adaptive 2-D cell quadrature of the defining integral, with
  dyadic refinement around the two sources and an odd-symmetry subtraction on
  the cells containing them;
* a boundary reduction: the first row of the stress C K(.; y) is the rotated
  gradient of a single-valued stress potential psi_y, and Green's identity
  turns V into -psi_y(z) plus the boundary row of y dotted with the boundary
  column of z, with no branch cut.  ``_boundary_data`` is the only
  evaluation of a source's boundary data: its row (the closed-form stress
  traction and psi), its column (the displacement v and d_nu log) and, when
  asked, its derivative row, for blocks of ``BLOCK`` sources from one
  computation of the offsets, 1/r^2 and log r^2, in place in one workspace
  per block (``_Offsets``).  Pair matrices (``interaction_cross_matrix``),
  energies and the corrector's linear form (weighted rows and columns summed
  first, ``_boundary_sums``) and the forces all read it; a sweep step keeps
  each atom's weighted row and column and its derivative row
  (``evolution._StepTable``), so a probe or a landing evaluates only the
  dislocation it moves.

``v_pair`` shares no code with the boundary reduction and is kept as the
independent oracle; agreement of the two routes is enforced in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import Geometry, Rect
from .kernels import (MIN_SEPARATION, Material, K_many, _check_separation, apply_C,
                      eval_K)
from .measures import CellMeasure, DislocationConfig, min_distance

__all__ = [
    "QuadratureConfig", "v_pair",
    "interaction_cross_matrix", "interaction_of_points",
    "interaction_sum", "continuum_interaction", "continuum_interaction_freespace",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for the interaction quadratures."""

    base_cells: int = 24
    singular_refine_depth: int = 7
    tol: float = 1e-6              # corrector's boundary-grid resolution check
    cell_gauss: int = 3            # per-axis points on regular cells
    boundary_points: int = 128     # Gauss points per domain edge (route and corrector)
    density_gauss: int = 4         # per-axis points per cell in continuum energies

    def __post_init__(self):
        # a cell paired with itself averages over distinct nodes: density_gauss >= 2
        for key, low in (("base_cells", 4), ("singular_refine_depth", 0), ("cell_gauss", 1),
                         ("boundary_points", 1), ("density_gauss", 2)):
            if getattr(self, key) < low:
                raise ValueError(f"quadrature {key} must be an integer >= {low}, "
                                 f"got {getattr(self, key)!r}")
        if not self.tol > 0:                                   # NaN fails too
            raise ValueError(f"quadrature tol must be > 0, got {self.tol!r}")


# ---------------------------------------------------------------------------
# direct 2-D quadrature route
# ---------------------------------------------------------------------------

#: Gauss-Legendre rules by order, shared by every cell of ``v_pair``
_leggauss = lru_cache(maxsize=None)(leggauss)


def _gauss_rect(rect, order):
    """Tensor Gauss nodes/weights on a rectangle given as (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = rect
    gx, gw = _leggauss(order)
    xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * gx
    ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * gx
    wx = 0.5 * (x1 - x0) * gw
    wy = 0.5 * (y1 - y0) * gw
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wx, wy)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return pts, W.ravel()


def _cross_density(xs, y, z, mat):
    """Integrand C K(x; y) : K(x; z) at a batch of points."""
    ky = K_many(xs, y, mat)
    kz = K_many(xs, z, mat)
    return np.einsum("nij,nij->n", apply_C(ky, mat), kz)


def _refine_cells(omega: Rect, targets, base: int, depth: int):
    """Dyadically refined cell list; cells near either target split to max depth."""
    nx = base
    ny = max(4, round(base * omega.height / omega.width))
    hx0, hy0 = omega.width / nx, omega.height / ny
    cells = [(omega.x0 + i * hx0, omega.y0 + j * hy0, hx0, hy0, 0)
             for i in range(nx) for j in range(ny)]
    leaves = []
    while cells:
        x0, y0, hx, hy, lev = cells.pop()
        cx, cy = x0 + hx / 2, y0 + hy / 2
        diag = math.hypot(hx, hy)
        near = min(math.hypot(cx - t[0], cy - t[1]) for t in targets)
        if lev < depth and near <= 2.5 * diag:
            hx2, hy2 = hx / 2, hy / 2
            for di in (0, 1):
                for dj in (0, 1):
                    cells.append((x0 + di * hx2, y0 + dj * hy2, hx2, hy2, lev + 1))
        else:
            leaves.append((x0, y0, hx, hy))
    return leaves, (hx0 / 2**depth, hy0 / 2**depth)


def _rect_dist(cell, p):
    """Chebyshev distance from a point to a cell; keeps corner clusters rectangular."""
    x0, y0, hx, hy = cell
    dx = max(x0 - p[0], 0.0, p[0] - (x0 + hx))
    dy = max(y0 - p[1], 0.0, p[1] - (y0 + hy))
    return max(dx, dy)


def _graded_strip(rect, near_side, levels=6):
    """Split a rectangle into pieces graded geometrically toward one side.

    ``near_side`` is one of 'L', 'R', 'B', 'T': the side closest to the
    singular point.
    """
    x0, y0, x1, y1 = rect
    pieces = []
    for _ in range(levels):
        if near_side == "L":
            xm = 0.5 * (x0 + x1)
            pieces.append((xm, y0, x1, y1)); x1 = xm
        elif near_side == "R":
            xm = 0.5 * (x0 + x1)
            pieces.append((x0, y0, xm, y1)); x0 = xm
        elif near_side == "B":
            ym = 0.5 * (y0 + y1)
            pieces.append((x0, ym, x1, y1)); y1 = ym
        else:
            ym = 0.5 * (y0 + y1)
            pieces.append((x0, y0, x1, ym)); y0 = ym
    pieces.append((x0, y0, x1, y1))
    return pieces


def _cluster_integral(bbox, p, other, mat, which):
    """Integral of the cross density over a small rectangle containing source p.

    Splits off the largest sub-rectangle centered at p, over which the
    singular part integrates to zero by odd symmetry, and integrates the
    bounded remainder; the leftover strips are graded toward p.
    ``which`` is 'y' if p is the first argument of V, 'z' otherwise.
    """
    x0, y0, x1, y1 = bbox
    px, py = p
    a = min(px - x0, x1 - px)
    b = min(py - y0, y1 - py)
    if a <= 0 or b <= 0:
        raise ValueError("singular point on the cluster boundary")
    # smooth factor frozen at the singular point: K(p; other source)
    k_const = eval_K(p, other, mat)

    total = 0.0
    # centered square part: subtract the odd singular term, integrate the rest
    s_rect = (px - a, py - b, px + a, py + b)
    pts, w = _gauss_rect(s_rect, 8)
    if which == "y":
        kp = K_many(pts, p, mat)
        f = np.einsum("nij,nij->n", apply_C(kp, mat),
                      K_many(pts, other, mat) - k_const[None])
    else:
        kp = K_many(pts, p, mat)
        f = np.einsum("nij,nij->n",
                      apply_C(K_many(pts, other, mat) - k_const[None], mat), kp)
    total += float(f @ w)

    # leftover strips (at most one horizontal and one vertical)
    strips = []
    if px - x0 > a:
        strips.append(((x0, y0, px - a, y1), "R"))
    elif x1 - px > a:
        strips.append(((px + a, y0, x1, y1), "L"))
    if py - y0 > b:
        strips.append(((px - a, y0, px + a, py - b), "T"))
    elif y1 - py > b:
        strips.append(((px - a, py + b, px + a, y1), "B"))
    for rect, side in strips:
        for piece in _graded_strip(rect, side):
            pts, w = _gauss_rect(piece, 4)
            total += float(_cross_density(pts, *( (p, other) if which == "y" else (other, p) ), mat) @ w)
    return total


def v_pair(y, z, geom: Geometry, mat: Material, q: QuadratureConfig) -> float:
    """Interaction potential V(y, z) by adaptive cell quadrature over Omega.

    Returns +inf on the diagonal.  Both points must lie in Omega, safely away
    from its boundary (they normally lie in the confinement box).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    sep = float(np.hypot(*(y - z)))
    if sep < MIN_SEPARATION:
        return math.inf
    omega = geom.omega
    for p in (y, z):
        if not omega.contains(p):
            raise ValueError(f"point {p} outside the domain")

    h0 = omega.width / q.base_cells
    depth = q.singular_refine_depth
    # keep the two singular clusters separated and the leaves fine enough
    while h0 / 2**depth > sep / 8 and depth < 24:
        depth += 1
    leaves, (hminx, hminy) = _refine_cells(omega, (y, z), q.base_cells, depth)
    hmin = max(hminx, hminy)
    if min(omega.boundary_distance(y), omega.boundary_distance(z)) < 4 * hmin:
        raise ValueError("source too close to the domain boundary for this resolution")

    pad = 0.26 * hmin
    regular, clus_y, clus_z = [], [], []
    for cell in leaves:
        if _rect_dist(cell, y) <= pad:
            clus_y.append(cell)
        elif _rect_dist(cell, z) <= pad:
            clus_z.append(cell)
        else:
            regular.append(cell)

    pts_list, w_list = [], []
    for x0, y0_, hx, hy in regular:
        pts, w = _gauss_rect((x0, y0_, x0 + hx, y0_ + hy), q.cell_gauss)
        pts_list.append(pts)
        w_list.append(w)
    pts = np.concatenate(pts_list)
    w = np.concatenate(w_list)
    total = float(_cross_density(pts, y, z, mat) @ w)

    for cells, p, which in ((clus_y, y, "y"), (clus_z, z, "z")):
        if not cells:
            raise RuntimeError("refinement produced no cluster around a source")
        bx0 = min(c[0] for c in cells); by0 = min(c[1] for c in cells)
        bx1 = max(c[0] + c[2] for c in cells); by1 = max(c[1] + c[3] for c in cells)
        area = sum(c[2] * c[3] for c in cells)
        if abs(area - (bx1 - bx0) * (by1 - by0)) > 1e-9 * area:
            raise RuntimeError("cluster cells do not tile a rectangle")
        other = z if which == "y" else y
        total += _cluster_integral((bx0, by0, bx1, by1), p, other, mat, which)
    return total


# ---------------------------------------------------------------------------
# boundary-reduction route
# ---------------------------------------------------------------------------

#: outward normals of the counterclockwise edges, starting at the lower-left corner
_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def _grid_arrays(pts, w, nu):
    """A boundary grid of Gauss points, weights and outward normals, with the
    constants the closed forms read stored contiguous: w nu_1, w nu_2,
    w / 2 pi, nu_1 and nu_2."""
    wnu = nu * w[:, None]
    return {
        "gauss_pts": pts, "gauss_w": w, "gauss_nu": nu,
        "wnu1": np.ascontiguousarray(wnu[:, 0]), "wnu2": np.ascontiguousarray(wnu[:, 1]),
        "w2pi": w / (2 * math.pi),
        "nu1": np.ascontiguousarray(nu[:, 0]), "nu2": np.ascontiguousarray(nu[:, 1]),
    }


@lru_cache(maxsize=16)
def _boundary_grid(rect: Rect, n_per_edge):
    """Cached Gauss points, weights and outward normals on the domain boundary
    (``_grid_arrays``).

    Edges run counterclockwise from the lower-left corner, ``n_per_edge``
    Gauss-Legendre points each.
    """
    gx, gw = leggauss(n_per_edge)
    g_pts, g_w = [], []
    corners = rect.corners()
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        length = float(np.hypot(*(b - a)))
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        g_pts.append(mid[None, :] + gx[:, None] * half[None, :])
        g_w.append(gw * length / 2)
    return _grid_arrays(np.concatenate(g_pts), np.concatenate(g_w),
                        np.repeat(_NORMALS, n_per_edge, axis=0))


def _stress_potential(u, mat: Material) -> np.ndarray:
    """psi = c (log|u| + u_2^2 / |u|^2) at offsets u = x - y, c = ``mat.log_coef``.

    The first row of the dislocation stress C K is the rotated gradient of
    psi: d_1 psi = (C K)_12 and d_2 psi = -(C K)_11.  psi is single-valued and
    even in u; it is -d_2 of the Airy stress function -c u_2 log|u|.
    """
    r2 = u[..., 0] ** 2 + u[..., 1] ** 2
    return mat.log_coef * (0.5 * np.log(r2) + u[..., 1] ** 2 / r2)


def _stress_potential_dy1(u, mat: Material) -> np.ndarray:
    """-d_1 psi(u) = c u_1 (u_2^2 - u_1^2) / |u|^4, the y_1-derivative of psi(x - y)."""
    r2 = u[..., 0] ** 2 + u[..., 1] ** 2
    return mat.log_coef * u[..., 0] * (u[..., 1] ** 2 - u[..., 0] ** 2) / (r2 * r2)


#: sources per block of the blocked evaluations: bounds their (m, ng) temporaries
BLOCK = 16


class _Offsets:
    """Offsets u = x - z of the grid points from sources zs, (m, 2), and what
    the closed forms read of them, each (m, ng), in one workspace: u_1, u_2,
    s_i = u_i^2, q = 1 / |u|^2, log |u|^2, a_i = s_i q and c q,
    c = ``mat.log_coef``; and ``tmp``, six scratch planes.  Each is made by
    the plain expression's operations in its order, with ``out=``; a source
    on the grid raises."""

    def __init__(self, grid, zs, mat: Material):
        x = grid["gauss_pts"]
        ws = np.empty((15, len(zs), len(x)))
        (self.u1, self.u2, self.s1, self.s2, self.q, self.log_r2,
         self.a1, self.a2, self.cq), self.tmp = ws[:9], ws[9:]
        np.subtract(x[:, 0], zs[:, :1], out=self.u1)
        np.subtract(x[:, 1], zs[:, 1:], out=self.u2)
        np.multiply(self.u1, self.u1, out=self.s1)
        np.multiply(self.u2, self.u2, out=self.s2)
        r2 = np.add(self.s1, self.s2, out=self.q)
        _check_separation(r2)
        np.log(r2, out=self.log_r2)
        np.divide(1.0, r2, out=self.q)
        np.multiply(self.s1, self.q, out=self.a1)
        np.multiply(self.s2, self.q, out=self.a2)
        np.multiply(mat.log_coef, self.q, out=self.cq)


def _put_rows(out, grid, o: _Offsets, mat: Material, dy1=False):
    """Write the rows of ``_boundary_data`` (with ``dy1`` its derivative rows)
    into ``out``, (m, ng, 3), from the ``_Offsets`` o.  The plain
    sigma_11 (w nu_1) + sigma_12 (w nu_2) is formed as
    sigma_12 (w nu_2) - (-sigma_11) (w nu_1), the same bits, and so is the
    dy1 rows' second column with -sigma_22."""
    t0, t1, t2, t3, t4, t5 = o.tmp
    a1, a2, cq = o.a1, o.a2, o.cq
    if dy1:
        e = np.multiply(2.0, cq, out=t0)                 # e = 2 c q u_1 u_2 q
        e *= o.u1
        e *= o.u2
        e *= o.q
        m11 = np.multiply(3.0, a1, out=t1)               # -s11 = e (3 a_1 - a_2)
        m11 -= a2
        m11 *= e
        m22 = np.multiply(3.0, a2, out=t2)               # -s22 = e (3 a_2 - a_1)
        m22 -= a1
        m22 *= e
        s12 = np.multiply(a1, a1, out=t3)                # c q (a_1^2 - 6 a_1 a_2 + a_2^2)
        s12 -= np.multiply(np.multiply(6.0, a1, out=t4), a2, out=t4)
        s12 += np.multiply(a2, a2, out=t4)
        s12 *= cq
        p = np.multiply(cq, o.u1, out=t0)                # p = c q u_1 (a_2 - a_1)
        p *= np.subtract(a2, a1, out=t4)
        np.subtract(np.multiply(s12, grid["wnu2"], out=t4),
                    np.multiply(m11, grid["wnu1"], out=t5), out=out[..., 0])
        np.subtract(np.multiply(s12, grid["wnu1"], out=t4),
                    np.multiply(m22, grid["wnu2"], out=t5), out=out[..., 1])
    else:
        cq1 = np.multiply(cq, o.u1, out=t0)
        cq2 = np.multiply(cq, o.u2, out=t1)
        m11 = np.multiply(3.0, a1, out=t2)               # -s11 = c q u_2 (3 a_1 + a_2)
        m11 += a2
        m11 *= cq2
        d = np.subtract(a1, a2, out=t3)
        s12 = np.multiply(cq1, d, out=t0)
        s22 = np.multiply(cq2, d, out=t1)
        p = np.multiply(0.5, o.log_r2, out=t3)           # p = c (log |u|^2 / 2 + a_2)
        p += a2
        np.multiply(mat.log_coef, p, out=p)
        np.subtract(np.multiply(s12, grid["wnu2"], out=t4),
                    np.multiply(m11, grid["wnu1"], out=t5), out=out[..., 0])
        np.add(np.multiply(s12, grid["wnu1"], out=t4),
               np.multiply(s22, grid["wnu2"], out=t5), out=out[..., 1])
    np.multiply(p, grid["w2pi"], out=out[..., 2])


def _put_columns(out, grid, o: _Offsets, mat: Material):
    """Write the columns of ``_boundary_data`` into ``out``, (m, ng, 3), from
    the ``_Offsets`` o."""
    a, b = mat.coef_a, mat.coef_b
    t0, t1 = o.tmp[:2]
    v1 = np.multiply(2.0 * b, o.u1, out=t0)             # 2 b u_1 u_2 q
    v1 *= o.u2
    np.multiply(v1, o.q, out=out[..., 0])
    v2 = np.subtract(o.s1, o.s2, out=t1)                # -a log|u|^2 / 2 - b (s_1 - s_2) q
    np.multiply(b, v2, out=v2)
    v2 *= o.q
    np.subtract(np.multiply(-a * 0.5, o.log_r2, out=t0), v2, out=out[..., 1])
    dn = np.multiply(o.u1, grid["nu1"], out=t0)         # (u_1 nu_1 + u_2 nu_2) q
    dn += np.multiply(o.u2, grid["nu2"], out=t1)
    np.multiply(dn, o.q, out=out[..., 2])


def _boundary_data(grid, zs, mat: Material, dy1=False) -> np.ndarray:
    """Boundary data of sources zs, (m, 2), shape (m, 2, ng, 3): the weighted
    rows w [sigma nu, psi / 2 pi] as ``[:, 0]`` and the columns
    [v_z, d_nu log|x - z|] as ``[:, 1]``; with ``dy1``, shape (m, 3, ng, 3),
    and ``[:, 2]`` the rows' z_1-derivatives -d/du_1.  The only evaluation of
    boundary data: one ``_Offsets`` per block of ``BLOCK`` sources, whose
    bits do not depend on the block.

    sigma = C K(x; z) is the closed-form edge-dislocation stress (Hirth and
    Lothe), with u = x - z, r = |u| and c = ``mat.log_coef``:
    sigma_11 = -c u_2 (3 u_1^2 + u_2^2) / r^4, sigma_12 = c u_1 (u_1^2 - u_2^2) / r^4
    and sigma_22 = c u_2 (u_1^2 - u_2^2) / r^4; -d_1 psi = -sigma_12.  v is the
    single-valued displacement (``kernels.displacement_v``).
    """
    zs = np.asarray(zs, dtype=float).reshape(-1, 2)
    data = np.empty((len(zs), 2 + dy1, len(grid["gauss_w"]), 3))
    for s in range(0, len(zs), BLOCK):
        o, block = _Offsets(grid, zs[s:s + BLOCK], mat), data[s:s + BLOCK]
        _put_rows(block[:, 0], grid, o, mat)
        _put_columns(block[:, 1], grid, o, mat)
        if dy1:
            _put_rows(block[:, 2], grid, o, mat, dy1=True)
    return data


def interaction_cross_matrix(ys, zs, geom: Geometry, mat: Material,
                             q: QuadratureConfig) -> np.ndarray:
    """Matrix of V(y_i, z_j) over two point families (coincident pairs get 0).

    With K_z = grad v_z + e1 (x) grad(theta_z) / 2 pi and the first row of
    C K_y equal to the rotated gradient of psi_y (``_stress_potential``),
    Green's identity gives

        V(y, z) = -psi_y(z) + int_dOmega (C K_y nu) . v_z
                              + psi_y d_nu log|x - z| / 2 pi,

    assembled as boundary rows of the y_i times boundary columns of the z_j
    on the Gauss grid, minus the closed-form singular term row by row.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    zs = np.asarray(zs, dtype=float).reshape(-1, 2)
    grid = _boundary_grid(geom.omega, q.boundary_points)
    A = _boundary_data(grid, ys, mat)[:, 0].reshape(len(ys), -1)
    M = A @ _boundary_data(grid, zs, mat)[:, 1].reshape(len(zs), -1).T
    for i, yi in enumerate(ys):
        u = zs - yi
        coincident = np.hypot(u[:, 0], u[:, 1]) < MIN_SEPARATION
        u[coincident] = (1.0, 0.0)               # dummy offsets, zeroed below
        M[i] -= _stress_potential(u, mat)
        M[i, coincident] = 0.0
    return M


# ---------------------------------------------------------------------------
# interaction energies
# ---------------------------------------------------------------------------

def _log_kernel(u, mat: Material) -> np.ndarray:
    """c log|u| = (c / 2) log(u_1^2 + u_2^2) at offsets u: the free-space kernel."""
    return mat.log_coef * 0.5 * np.log(u[..., 0] ** 2 + u[..., 1] ** 2)


def _boundary_sums(grid, pts, weights, mat: Material):
    """[A, B], shape (2, ng, 3): A = sum_i w_i a_i and B = sum_i w_i b_i over
    the sources' boundary rows and columns, each pair evaluated once
    (``_boundary_data``) and added from zero in source order, and the self
    terms (w_i a_i) . (w_i b_i)."""
    total, selfs = np.zeros((2, len(grid["gauss_w"]), 3)), []
    for s in range(0, len(pts), BLOCK):
        data = _boundary_data(grid, pts[s:s + BLOCK], mat)
        data *= np.asarray(weights[s:s + BLOCK], dtype=float)[:, None, None, None]
        for ab in data:
            total += ab
            selfs.append(np.vdot(ab[0], ab[1]))
    return total, selfs


def _singular_sums(kernel, pts, mat: Material) -> np.ndarray:
    """sum_{j != i} kernel(z_i - z_j) for every atom i: each a numpy sum over
    the others in index order, the bits of ``np.delete``'s, taken for blocks
    of ``BLOCK`` atoms at once.  The offsets' two components are stored as
    contiguous planes, so the kernel reads no strided array."""
    n = len(pts)
    x, y, j = pts[:, 0], pts[:, 1], np.arange(n - 1)
    out = np.empty(n)
    for s in range(0, n, BLOCK):
        r = np.arange(s, min(s + BLOCK, n))[:, None]
        others = j + (j >= r)                   # column k of row i: the k-th j != i
        u = np.empty((2,) + others.shape)
        np.subtract(x[r], x[others], out=u[0])
        np.subtract(y[r], y[others], out=u[1])
        out[s:s + BLOCK] = kernel(u.transpose(1, 2, 0), mat).sum(axis=1)
    return out


def _pair_energy(pts, total, selfs, mat: Material) -> float:
    """(1 / 2 n^2) sum_{i != j} V(z_i, z_j) of the equal-weight atoms pts from
    their ``_boundary_sums``: with w = 1/n, w^2 sum_{i != j} V(z_i, z_j) =
    A . B - sum_i [(w a_i) . (w b_i) + w^2 sum_{j != i} psi(z_j - z_i)], added
    by fsum without a running total's drift (psi is even)."""
    w = 1.0 / len(pts)
    singular = -w * w * _singular_sums(_stress_potential, pts, mat)
    return math.fsum([np.vdot(total[0], total[1])] + [-s for s in selfs]
                     + list(singular)) / 2.0


def _atom_energy(pts, mode: str, geom: Geometry | None, mat: Material,
                 q: QuadratureConfig, sums=None):
    """``interaction_of_points`` of the equal-weight atoms and, bounded, their
    ``_boundary_sums`` (None in free space), which ``sums`` supplies if given."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    n = len(pts)
    if min_distance(pts) < MIN_SEPARATION:
        raise ValueError("coincident dislocations in configuration")
    if mode == "freespace":
        total = 0.0      # blocks of BLOCK rows: O(n) memory, one sum up to BLOCK atoms
        for s in range(0, n, BLOCK):
            with np.errstate(divide="ignore"):
                K = _log_kernel(pts[s:s + BLOCK, None, :] - pts[None, :, :], mat)
            K[np.arange(len(K)), np.arange(s, s + len(K))] = 0.0
            total += float(K.sum())
        # 0.0 - sum: a zero sum (n = 1) gives +0.0, not -0.0
        return (0.0 - total) / (2.0 * n * n), None
    if mode != "bounded":
        raise ValueError(f"unknown interaction mode {mode!r}")
    if geom is None:
        raise ValueError("bounded mode requires a geometry")
    if sums is None:
        grid = _boundary_grid(geom.omega, q.boundary_points)
        sums = _boundary_sums(grid, pts, np.full(n, 1.0 / n), mat)
    return _pair_energy(pts, *sums, mat), sums


def interaction_of_points(pts, mode: str, geom: Geometry | None, mat: Material,
                          q: QuadratureConfig) -> float:
    """(1 / 2 n^2) sum_{i != j} V(z_i, z_j) over raw points, summed in the given order.

    ``mode`` is 'bounded' (V on the domain) or 'freespace' (leading log only).
    Coincident points are rejected.
    """
    return _atom_energy(pts, mode, geom, mat, q)[0]


def interaction_sum(cfg: DislocationConfig, mode: str, geom: Geometry | None,
                    mat: Material, q: QuadratureConfig) -> float:
    """Configuration interaction energy, ``interaction_of_points`` of its points.

    Points are summed in canonical (plane, horizontal) order so the result is
    reproducible under permutations of the input.
    """
    return interaction_of_points(cfg.canonical_order().points, mode, geom, mat, q)


def _log_antiderivative(x: float, y: float) -> float:
    """Phi with d^2/dx^2 d^2/dy^2 Phi = log|(x, y)|, even in x and y, Phi(0, 0) = 0."""
    x, y = abs(x), abs(y)
    if x == 0.0 and y == 0.0:
        return 0.0
    x2, y2 = x * x, y * y
    return ((-(x2 * x2 - 6.0 * x2 * y2 + y2 * y2) * math.log(x2 + y2) - 25.0 * x2 * y2) / 48.0
            + (x2 * x * y * math.atan2(y, x) + x * y2 * y * math.atan2(x, y)) / 6.0)


def _cell_log_moment(di: int, dj: int) -> float:
    """E[log|y - z|] for uniform y, z on unit cells offset by (di, dj).

    The offset y - z has the tent density tri(u1 - di) tri(u2 - dj), whose
    second derivatives are the stencil (1, -2, 1) at the kinks, so the mean is
    the stencil's double second difference of ``_log_antiderivative``.
    Only the touching offsets are needed; distant pairs are handled by plain
    quadrature of the smooth integrand.
    """
    c = (1.0, -2.0, 1.0)
    return sum(c[a + 1] * c[b + 1] * _log_antiderivative(di + a, dj + b)
               for a in (-1, 0, 1) for b in (-1, 0, 1))


def _continuum_energy(density: CellMeasure, mode: str, geom: Geometry | None,
                      mat: Material, q: QuadratureConfig):
    """(1/2) double integral of V ('bounded') or of -c log r ('freespace')
    against a cell density, and its summed boundary row sum_a m_a A_a.

    With each cell's node sums A_a, B_a under the normalized Gauss weights w,
    the node mean of V over cells a and b is A_a . B_b - w K_ab w, with K = psi
    when bounded and K = c log r, A = B = 0 in free space.  Same-cell and
    touching pairs integrate c log r in closed form via the unit-cell log
    moments and average only K - c log r at the nodes; a cell paired with
    itself drops its self terms and divides by 1 - sum w^2.
    """
    if not isinstance(density, CellMeasure):
        raise TypeError("continuum energies expect a cell density; use "
                        "interaction_sum for atomic measures")
    nodes, w = density.gauss_nodes(q.density_gauss)
    m, idx, cells = density.masses, density.indices, density.n_cells
    if mode == "bounded":
        grid = _boundary_grid(geom.omega, q.boundary_points)
        totals, selfs = zip(*(_boundary_sums(grid, p, w, mat) for p in nodes))
        A, B = np.array(totals).swapaxes(0, 1)
        AB = A.reshape(cells, -1) @ B.reshape(cells, -1).T
        own, row = [sum(s) for s in selfs], sum(ma * Aa for ma, Aa in zip(m, A))
        kernel = _stress_potential
    else:
        AB, own, row, kernel = np.zeros((cells, cells)), np.zeros(cells), None, _log_kernel
    coef, log_h, denom = mat.log_coef, math.log(density.spacing), 1.0 - float(w @ w)
    total = 0.0
    for a in range(cells):
        d = idx - idx[a]
        near = np.flatnonzero(np.max(np.abs(d), axis=1) <= 1)
        u = nodes[:, None, :, :] - nodes[a][None, :, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            K = kernel(u, mat)
            K[near] -= _log_kernel(u[near], mat)
        np.fill_diagonal(K[a], 0.0)
        mean = AB[a] - (w @ K) @ w
        mean[a] = (mean[a] - own[a]) / denom
        for b in near:
            mean[b] -= coef * (log_h + _cell_log_moment(int(d[b, 0]), int(d[b, 1])))
        total += m[a] * float(m @ mean)
    return 0.5 * total, row


def continuum_interaction_freespace(density: CellMeasure, mat: Material,
                                    q: QuadratureConfig) -> float:
    """(1/2) double integral of the leading log potential against a cell density."""
    return _continuum_energy(density, "freespace", None, mat, q)[0]


def continuum_interaction(density: CellMeasure, geom: Geometry, mat: Material,
                          q: QuadratureConfig) -> float:
    """(1/2) double integral of V against a piecewise-constant cell density."""
    return _continuum_energy(density, "bounded", geom, mat, q)[0]
