"""Slip-plane-confined transport distance, its relaxations, and dissipation.

The confined distance is finite only between measures with identical vertical
marginals; there it disintegrates into independent 1-D transport problems per
slip plane, each solved exactly by monotone (quantile) coupling.  The
eps-relaxed distances use the cost |x1 - y1| + |x2 - y2| / eps and an exact
linear-programming solver on the atom bipartite graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .measures import PLANE_TOL, DiscreteMeasure, group_by_plane

__all__ = ["TransportPlan", "plane_w1", "slip_distance", "slip_plan",
           "eps_relaxed_distance", "w1_distance", "horizontal_marginal_w1",
           "dual_lower_bound", "trajectory_dissipation"]

#: atom-count cap per side for the exact LP solver
LP_ATOM_CAP = 64


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling between two discrete measures."""

    entries: tuple          # ((source index, target index, mass), ...)

    def cost(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return sum(m * float(np.hypot(*(mu.points[i] - nu.points[j])))
                   for i, j, m in self.entries)

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure,
                 marginal_tol: float = 1e-10, slip_tol: float | None = None):
        row = np.zeros(mu.n_atoms)
        col = np.zeros(nu.n_atoms)
        for i, j, m in self.entries:
            if m < 0:
                raise ValueError("negative mass in transport plan")
            row[i] += m
            col[j] += m
            if slip_tol is not None:
                if abs(mu.points[i, 1] - nu.points[j, 1]) > slip_tol:
                    raise ValueError("plan entry crosses slip planes")
        if np.max(np.abs(row - mu.weights)) > marginal_tol:
            raise ValueError("row marginals do not match the source measure")
        if np.max(np.abs(col - nu.weights)) > marginal_tol:
            raise ValueError("column marginals do not match the target measure")


def _merged_quantiles(xs, wx, ys, wy):
    """Common refinement of the two quantile partitions; exact 1-D W1 support."""
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    xs, wx = np.asarray(xs, dtype=float)[ox], np.asarray(wx, dtype=float)[ox]
    ys, wy = np.asarray(ys, dtype=float)[oy], np.asarray(wy, dtype=float)[oy]
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    levels = np.union1d(cx, cy)
    return xs, ys, cx, cy, levels, ox, oy


def _masses_differ(ma: float, mb: float) -> bool:
    """Mass tolerance shared by plane matching and ``plane_w1``."""
    return abs(ma - mb) > 1e-12 * max(1.0, ma)


def plane_w1(xs, wx, ys, wy) -> float:
    """Exact 1-D Wasserstein-1 between weighted point lists of equal mass.

    Monotone rearrangement: integrate |F_x^{-1} - F_y^{-1}| over the merged
    quantile partition.
    """
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    if _masses_differ(wx.sum(), wy.sum()):
        raise ValueError("plane masses differ")
    xs, ys, cx, cy, levels, _, _ = _merged_quantiles(xs, wx, ys, wy)
    total = 0.0
    prev = 0.0
    for lev in levels:
        dq = lev - prev
        if dq <= 0:
            continue
        i = np.searchsorted(cx, prev + dq / 2)
        j = np.searchsorted(cy, prev + dq / 2)
        i = min(i, len(xs) - 1)
        j = min(j, len(ys) - 1)
        total += dq * abs(xs[i] - ys[j])
        prev = lev
    return total


def _match_planes(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float):
    """Pair up the slip planes of two measures; None if vertical marginals differ."""
    pa = mu.planes(tol)
    pb = nu.planes(tol)
    if len(pa) != len(pb):
        return None
    matched = []
    for (ya, ia), (yb, ib) in zip(pa, pb):
        if abs(ya - yb) > tol:
            return None
        if _masses_differ(mu.weights[ia].sum(), nu.weights[ib].sum()):
            return None
        matched.append((ia, ib))
    return matched


def slip_distance(mu: DiscreteMeasure, nu: DiscreteMeasure,
                  tol: float = PLANE_TOL) -> float:
    """Slip-confined transport distance; +inf when vertical marginals differ."""
    matched = _match_planes(mu, nu, tol)
    if matched is None:
        return math.inf
    total = 0.0
    for ia, ib in matched:
        total += plane_w1(mu.points[ia, 0], mu.weights[ia],
                          nu.points[ib, 0], nu.weights[ib])
    return total


def slip_plan(mu: DiscreteMeasure, nu: DiscreteMeasure,
              tol: float = PLANE_TOL) -> TransportPlan:
    """Optimal slip-confined coupling (quantile coupling per plane)."""
    matched = _match_planes(mu, nu, tol)
    if matched is None:
        raise ValueError("vertical marginals differ; no finite plan exists")
    entries = []
    for ia, ib in matched:
        xs, ys = mu.points[ia, 0], nu.points[ib, 0]
        wx, wy = mu.weights[ia], nu.weights[ib]
        sxs, sys, cx, cy, levels, ox, oy = _merged_quantiles(xs, wx, ys, wy)
        prev = 0.0
        for lev in levels:
            dq = lev - prev
            if dq <= 0:
                continue
            i = min(np.searchsorted(cx, prev + dq / 2), len(sxs) - 1)
            j = min(np.searchsorted(cy, prev + dq / 2), len(sys) - 1)
            entries.append((int(ia[ox[i]]), int(ib[oy[j]]), float(dq)))
            prev = lev
    return TransportPlan(entries=tuple(entries))


def _transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> float:
    """Exact transportation problem on the atom bipartite graph (HiGHS)."""
    m, n = mu.n_atoms, nu.n_atoms
    if m > LP_ATOM_CAP or n > LP_ATOM_CAP:
        raise ValueError(f"exact LP capped at {LP_ATOM_CAP} atoms per side")
    k = np.arange(m * n)
    rows = np.concatenate([k // n, m + k % n])
    A = coo_matrix((np.ones(2 * m * n), (rows, np.tile(k, 2))), shape=(m + n, m * n))
    rhs = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def eps_relaxed_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float) -> float:
    """Exact transport cost for |x1 - y1| + |x2 - y2| / eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    dx = np.abs(mu.points[:, None, 0] - nu.points[None, :, 0])
    dy = np.abs(mu.points[:, None, 1] - nu.points[None, :, 1])
    return _transport_lp(mu, nu, dx + dy / eps)


def w1_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Unconstrained Wasserstein-1 with Euclidean cost (exact LP)."""
    d = mu.points[:, None, :] - nu.points[None, :, :]
    return _transport_lp(mu, nu, np.hypot(d[..., 0], d[..., 1]))


def horizontal_marginal_w1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """d_1 between the horizontal marginals (exact 1-D computation)."""
    return plane_w1(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)


def dual_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, phi,
                     tol: float = PLANE_TOL) -> float:
    """int phi d(mu - nu) for a test function 1-Lipschitz along each slip plane.

    The per-plane Lipschitz requirement is checked on all atom pairs sharing a
    plane; violation raises.  The value never exceeds the slip distance.
    """
    pts = np.concatenate([mu.points, nu.points])
    for _, idx in group_by_plane(pts, tol):
        if len(idx) < 2:
            continue
        sub = pts[idx]
        vals = np.array([float(phi(p)) for p in sub])
        dv = np.abs(vals[:, None] - vals[None, :])
        dx = np.abs(sub[:, None, 0] - sub[None, :, 0])
        if np.any(dv > dx + 1e-9):
            raise ValueError("test function violates the per-plane Lipschitz bound")
    a = sum(w * float(phi(p)) for p, w in zip(mu.points, mu.weights))
    b = sum(w * float(phi(p)) for p, w in zip(nu.points, nu.weights))
    return a - b


def trajectory_dissipation(states) -> float:
    """Sum of slip distances along consecutive states; +inf on marginal breaks."""
    total = 0.0
    for a, b in zip(states, states[1:]):
        d = slip_distance(b, a)
        if math.isinf(d):
            return math.inf
        total += d
    return total
