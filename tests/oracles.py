"""Routes that only the tests read: oracles of the program's own routes.

``dK1_offsets`` is the derivative of the strain field K in the first offset
coordinate, the field behind the y_1-derivative boundary rows; the tests
check it against finite differences of K and assemble the kernel route of
those rows from it.  ``dy1_matrix`` is the pair matrix of dV/dy_1 that the
bounded forces once summed by rows, from slices of ``boundary_data_plain``.
``tensor_basis`` and
``gauge_rows`` are the 2-D route of the corrector's gauge constraints: every
tensor Legendre product and both its gradients at every gauge-ball point.
``boundary_data_plain`` evaluates the boundary route's closed forms as plain
numpy expressions, one new array per operation, for all sources at once;
``interaction._boundary_data``, in place in blocks (``_Offsets``,
``_put_rows`` and ``_put_columns``), must give the same bits.
``group_by_plane_loop`` is the per-point scan that ``measures.group_by_plane``
replaced.
"""
import math

import numpy as np
from numpy.polynomial import legendre as leg

from slipdyn.interaction import _boundary_grid, _stress_potential_dy1
from slipdyn.kernels import MIN_SEPARATION, Material, _as_offsets, _check_separation


def _plain_rows(grid, u1, u2, q, log_r2, mat: Material, dy1):
    cq, a1, a2 = mat.log_coef * q, u1 * u1 * q, u2 * u2 * q    # a_i = u_i^2 / r^2
    if dy1:
        e = 2.0 * cq * u1 * u2 * q
        s11, s22 = -e * (3.0 * a1 - a2), -e * (3.0 * a2 - a1)
        s12 = cq * (a1 * a1 - 6.0 * a1 * a2 + a2 * a2)
        p = cq * u1 * (a2 - a1)
    else:
        cq1, cq2, d = cq * u1, cq * u2, a1 - a2
        s11, s12, s22 = -cq2 * (3.0 * a1 + a2), cq1 * d, cq2 * d
        p = mat.log_coef * (0.5 * log_r2 + a2)
    w = grid["gauss_w"]
    wnu = grid["gauss_nu"] * w[:, None]
    return np.stack([s11 * wnu[:, 0] + s12 * wnu[:, 1],
                     s12 * wnu[:, 0] + s22 * wnu[:, 1],
                     p * (w / (2 * math.pi))], axis=-1)


def _plain_columns(grid, u1, u2, q, log_r2, mat: Material):
    a, b = mat.coef_a, mat.coef_b
    nu1, nu2 = grid["gauss_nu"].T
    return np.stack([2.0 * b * u1 * u2 * q,
                     -a * 0.5 * log_r2 - b * (u1 * u1 - u2 * u2) * q,
                     (u1 * nu1 + u2 * nu2) * q], axis=-1)


def boundary_data_plain(grid, zs, mat: Material, dy1=False) -> np.ndarray:
    """``interaction._boundary_data`` from plain expressions: rows, columns
    and, with ``dy1``, derivative rows of sources zs, (m, 2 + dy1, ng, 3)."""
    zs = np.asarray(zs, dtype=float).reshape(-1, 2)
    x = grid["gauss_pts"]
    u1 = x[:, 0] - zs[:, :1]
    u2 = x[:, 1] - zs[:, 1:]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    args = (grid, u1, u2, 1.0 / r2, np.log(r2))
    parts = [_plain_rows(*args, mat, False), _plain_columns(*args, mat)]
    if dy1:
        parts.append(_plain_rows(*args, mat, True))
    return np.stack(parts, axis=1)


def group_by_plane_loop(points, tol):
    """The per-point scan of ``measures.group_by_plane``: points in (y, x)
    lexicographic order, a new plane wherever |y - the plane's first y| > tol."""
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    planes = []
    current: list[int] = []
    current_y = None
    for idx in order:
        y = pts[idx, 1]
        if current_y is None or abs(y - current_y) > tol:
            if current:
                planes.append((current_y, np.array(current, dtype=int)))
            current = [idx]
            current_y = y
        else:
            current.append(idx)
    if current:
        planes.append((current_y, np.array(current, dtype=int)))
    return planes


def dK1_offsets(u, mat: Material) -> np.ndarray:
    """Derivative of K with respect to the first offset coordinate (closed form)."""
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    r4 = r2 * r2
    r6 = r4 * r2
    a, b = mat.coef_a, mat.coef_b
    pi = math.pi
    g = np.empty((len(us), 2, 2))
    g[:, 0, 0] = u1 * u2 / (pi * r4) - 4.0 * b * u1 * u2 * (3.0 * u2 * u2 - u1 * u1) / r6
    g[:, 0, 1] = (u2 * u2 - u1 * u1) / (2.0 * pi * r4) + 2.0 * b * (
        -u1**4 + 6.0 * u1 * u1 * u2 * u2 - u2**4) / r6
    g[:, 1, 0] = -a * (u2 * u2 - u1 * u1) / r4 - 4.0 * b * u2 * u2 * (
        u2 * u2 - 3.0 * u1 * u1) / r6
    g[:, 1, 1] = 2.0 * a * u1 * u2 / r4 + 8.0 * b * u1 * u2 * (u2 * u2 - u1 * u1) / r6
    return g[0] if scalar else g


def dy1_matrix(ys, zs, geom, mat: Material, quad) -> np.ndarray:
    """Matrix of dV(y_i, z_j)/dy_1 (coincident pairs get 0): the derivative
    boundary rows of the y_i against the boundary columns of the z_j, minus
    d_1 psi(y_i - z_j)."""
    grid = _boundary_grid(geom.omega, quad.boundary_points)
    rows = boundary_data_plain(grid, ys, mat, dy1=True)[:, 2].reshape(len(ys), -1)
    cols = boundary_data_plain(grid, zs, mat)[:, 1].reshape(len(zs), -1)
    d = ys[:, None, :] - zs[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        M = _stress_potential_dy1(d, mat) + rows @ cols.T
    M[np.hypot(d[..., 0], d[..., 1]) < MIN_SEPARATION] = 0.0
    return M


def tensor_basis(solver, xs):
    """Values and physical x- and y-gradients of the solver's scalar tensor
    Legendre products L_a(t_1) L_b(t_2) at points xs, each (n, (d + 1)^2)."""
    o, deg = solver.geom.omega, solver.basis.degree
    xs = np.asarray(xs, dtype=float)
    t1 = 2 * (xs[:, 0] - o.x0) / o.width - 1
    t2 = 2 * (xs[:, 1] - o.y0) / o.height - 1
    dleg = leg.legder(np.eye(deg + 1))
    V1, D1 = leg.legvander(t1, deg), leg.legvander(t1, deg - 1) @ dleg
    V2, D2 = leg.legvander(t2, deg), leg.legvander(t2, deg - 1) @ dleg
    vals = np.einsum("na,nb->nab", V1, V2).reshape(len(xs), -1)
    gx = np.einsum("na,nb->nab", D1 * (2 / o.width), V2).reshape(len(xs), -1)
    gy = np.einsum("na,nb->nab", V1, D2 * (2 / o.height)).reshape(len(xs), -1)
    return vals, gx, gy


def gauge_rows(solver) -> np.ndarray:
    """The gauge constraint matrix C, (3, 2 (d + 1)^2): vector mean and mean
    rotation over the gauge ball, by the solver's polar rule (d + 2 Gauss
    radii, 4 d + 8 angles) applied to ``tensor_basis`` at every ball point."""
    ball, deg = solver.geom.ball, solver.basis.degree
    gr, gwr = leg.leggauss(deg + 2)
    rr, wr = ball.r * (gr + 1) / 2, gwr * ball.r / 2
    ntheta = 4 * deg + 8
    R, TH = np.meshgrid(rr, 2 * math.pi * np.arange(ntheta) / ntheta, indexing="ij")
    W = np.outer(wr * rr, np.full(ntheta, 2 * math.pi / ntheta)).ravel()
    pts = np.stack([(ball.cx + R * np.cos(TH)).ravel(),
                    (ball.cy + R * np.sin(TH)).ravel()], axis=1)
    vals, gx, gy = tensor_basis(solver, pts)
    ints, int_gx, int_gy = W @ vals, W @ gx, W @ gy
    zero = np.zeros(len(ints))
    return np.block([[ints, zero], [zero, ints], [0.5 * int_gy, -0.5 * int_gx]])
