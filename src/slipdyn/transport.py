"""Slip-plane-confined transport distance, its relaxations, and dissipation.

The confined distance is finite only between measures with identical vertical
marginals; there it disintegrates into independent 1-D transport problems per
slip plane, each solved exactly by monotone (quantile) coupling.  The
eps-relaxed distances use the cost |x1 - y1| + |x2 - y2| / eps and, like the
Euclidean W1, are exact transportation problems on the atom bipartite graph.
Two exact routes solve them: a pair with equal atom counts and all weights
equal is an assignment problem (the transport polytope is then the Birkhoff
polytope, whose vertices are permutations), solved by
``scipy.optimize.linear_sum_assignment`` at any size; every other pair is a
HiGHS linear program, capped at ``LP_ATOM_CAP`` atoms per side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .measures import PLANE_TOL, DiscreteMeasure, group_by_plane

__all__ = ["TransportPlan", "plane_w1", "slip_distance", "slip_plan",
           "eps_relaxed_distance", "w1_distance", "horizontal_marginal_w1",
           "dual_lower_bound", "trajectory_dissipation"]

#: atom-count cap per side for the LP route (unequal weights or counts)
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


def _quantile_pieces(xs, wx, ys, wy):
    """Pieces of the monotone coupling on the merged quantile partition.

    Returns the sorted positions ``xs`` and ``ys``, their sort orders ``ox``
    and ``oy``, and per piece the mass ``dq`` and the sorted indices ``i`` and
    ``j`` of the source and target atoms it couples.
    """
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    xs, wx = np.asarray(xs, dtype=float)[ox], np.asarray(wx, dtype=float)[ox]
    ys, wy = np.asarray(ys, dtype=float)[oy], np.asarray(wy, dtype=float)[oy]
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    levels = np.union1d(cx, cy)
    prev = np.concatenate([[0.0], levels[:-1]])
    dq = levels - prev
    mid = prev + dq / 2
    i = np.minimum(np.searchsorted(cx, mid), len(xs) - 1)
    j = np.minimum(np.searchsorted(cy, mid), len(ys) - 1)
    return xs, ys, ox, oy, dq, i, j


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
    xs, ys, _, _, dq, i, j = _quantile_pieces(xs, wx, ys, wy)
    # cumsum adds left to right from 0.0, as a running total would; np.sum's
    # pairwise order would move the last bits of every slip distance
    return float(np.cumsum(np.concatenate([[0.0], dq * np.abs(xs[i] - ys[j])]))[-1])


def _match_planes(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Pair up the slip planes of two measures; None if vertical marginals differ."""
    pa = mu.planes()
    pb = nu.planes()
    if len(pa) != len(pb):
        return None
    matched = []
    for (ya, ia), (yb, ib) in zip(pa, pb):
        if abs(ya - yb) > PLANE_TOL:
            return None
        if _masses_differ(mu.weights[ia].sum(), nu.weights[ib].sum()):
            return None
        matched.append((ia, ib))
    return matched


def slip_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Slip-confined transport distance; +inf when vertical marginals differ."""
    matched = _match_planes(mu, nu)
    if matched is None:
        return math.inf
    total = 0.0
    for ia, ib in matched:
        total += plane_w1(mu.points[ia, 0], mu.weights[ia],
                          nu.points[ib, 0], nu.weights[ib])
    return total


def slip_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Optimal slip-confined coupling (quantile coupling per plane)."""
    matched = _match_planes(mu, nu)
    if matched is None:
        raise ValueError("vertical marginals differ; no finite plan exists")
    entries = []
    for ia, ib in matched:
        _, _, ox, oy, dq, i, j = _quantile_pieces(mu.points[ia, 0], mu.weights[ia],
                                                  nu.points[ib, 0], nu.weights[ib])
        entries.extend(zip(ia[ox[i]].tolist(), ib[oy[j]].tolist(), dq.tolist()))
    return TransportPlan(entries=tuple(entries))


def _transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> float:
    """Exact transportation problem on the atom bipartite graph.

    Equal atom counts with all weights bitwise equal: an optimal plan is a
    permutation scaled by the common weight, found by
    ``linear_sum_assignment`` with no size cap.  Otherwise: the HiGHS LP,
    capped at ``LP_ATOM_CAP`` atoms per side.
    """
    w = mu.weights[0]
    if mu.n_atoms == nu.n_atoms and np.all(mu.weights == w) and np.all(nu.weights == w):
        r, c = linear_sum_assignment(cost)
        return float(cost[r, c].sum() * w)
    return _highs_lp(mu, nu, cost)


def _highs_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> float:
    """The transportation problem as a HiGHS LP, for any weights."""
    m, n = mu.n_atoms, nu.n_atoms
    if m > LP_ATOM_CAP or n > LP_ATOM_CAP:
        raise ValueError(f"exact LP capped at {LP_ATOM_CAP} atoms per side")
    k = np.arange(m * n)
    rows = np.concatenate([k // n, m + k % n])
    A = coo_matrix((np.ones(2 * m * n), (rows, np.tile(k, 2))), shape=(m + n, m * n))
    rhs = np.concatenate([mu.weights, nu.weights])
    # at the default 1e-7 tolerances HiGHS can stop at a vertex 1e-8 above the optimum
    tols = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs",
                  options=tols)
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def eps_relaxed_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float) -> float:
    """Exact transport cost for |x1 - y1| + |x2 - y2| / eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    dx = np.abs(mu.points[:, None, 0] - nu.points[None, :, 0])
    dy = np.abs(mu.points[:, None, 1] - nu.points[None, :, 1])
    return _transport_lp(mu, nu, dx + dy / eps)


def w1_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Unconstrained Wasserstein-1 with Euclidean cost (exact, see ``_transport_lp``)."""
    d = mu.points[:, None, :] - nu.points[None, :, :]
    return _transport_lp(mu, nu, np.hypot(d[..., 0], d[..., 1]))


def horizontal_marginal_w1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """d_1 between the horizontal marginals (exact 1-D computation)."""
    return plane_w1(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)


def dual_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, phi) -> float:
    """int phi d(mu - nu) for a test function 1-Lipschitz along each slip plane.

    phi is called once per atom.  The per-plane Lipschitz requirement is
    checked on all atom pairs sharing a plane; violation raises.  The value
    never exceeds the slip distance.
    """
    pts = np.concatenate([mu.points, nu.points])
    vals = np.array([float(phi(p)) for p in pts])
    for _, idx in group_by_plane(pts):
        v, x = vals[idx], pts[idx, 0]
        if np.any(np.abs(v[:, None] - v) > np.abs(x[:, None] - x) + 1e-9):
            raise ValueError("test function violates the per-plane Lipschitz bound")
    a = sum(w * v for w, v in zip(mu.weights, vals))
    b = sum(w * v for w, v in zip(nu.weights, vals[len(mu.points):]))
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
