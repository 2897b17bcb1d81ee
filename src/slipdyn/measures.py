"""Measure-valued states: weighted atoms, cell densities, and dislocation configurations."""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.spatial import cKDTree

from .geometry import Rect

#: default absolute tolerance for deciding that two slip-plane coordinates coincide
PLANE_TOL = 1e-9


@dataclass(frozen=True)
class ScalingSchedule:
    """Power-law rules n -> eps_n (core radius) and n -> r_n (minimal separation).

    The admissible-regime conditions eps_n/r_n^3 -> 0 and n r_n -> 0 translate to
    eps_exp > 3 r_exp and r_exp > 1 for power laws.
    """

    eps_coef: float = 1.0
    eps_exp: float = 6.0
    r_coef: float = 1.0
    r_exp: float = 1.5

    def __post_init__(self):
        if not (self.eps_coef > 0 and self.r_coef > 0):
            raise ValueError("schedule coefficients must be positive")
        if not self.eps_exp > 3.0 * self.r_exp:
            raise ValueError("need eps_n / r_n^3 -> 0, i.e. eps_exp > 3 r_exp")
        if not self.r_exp > 1.0:
            raise ValueError("need n r_n -> 0, i.e. r_exp > 1")

    def eps(self, n: int) -> float:
        return self.eps_coef * float(n) ** (-self.eps_exp)

    def r(self, n: int) -> float:
        return self.r_coef * float(n) ** (-self.r_exp)


def min_distance(points) -> float:
    """Smallest distance between two of the points (+inf for fewer than two)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        return math.inf
    return float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())


def group_by_plane(points: np.ndarray, tol: float = PLANE_TOL):
    """Group point indices by (nearly) equal second coordinate.

    Returns a list of (plane_y, index_array) sorted by plane_y, indices in
    (second, first coordinate) lexicographic order.  A plane starts at the
    first point farther than ``tol`` above the plane before's first point,
    whose exact stored value is its representative plane_y, so configs built
    from shared canonical plane coordinates compare bit-exactly.  Points with
    a NaN second coordinate sort last and join the last plane.
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    ys = pts[order, 1]
    if len(ys) == 0:
        return []
    bounds = [*_plane_starts(ys, tol), len(ys)]
    return [(ys[a], order[a:b]) for a, b in zip(bounds, bounds[1:])]


def left_to_right(points: np.ndarray, planes) -> tuple:
    """The index arrays of ``planes`` (``group_by_plane``) sorted by the points'
    first coordinate, as tuples of ints (cheaper to walk and index with)."""
    x = np.asarray(points)[:, 0].tolist()
    return tuple(tuple(sorted(idx.tolist(), key=x.__getitem__)) for _, idx in planes)


def _plane_starts(ys, tol):
    """Plane starts of the sorted ys, NaNs last: past a plane's first y0 the
    test ys[k] - y0 > tol is false and then true over the non-NaN ys (it
    rounds monotonically), so each next start is bisected."""
    finite = len(ys) - int(np.count_nonzero(np.isnan(ys)))
    ys = ys.tolist()                            # the same bits as Python floats
    starts = [0]
    while True:
        y0 = ys[starts[-1]]
        k = bisect.bisect_left(range(finite), True, lo=starts[-1] + 1,
                               key=lambda j: ys[j] - y0 > tol)
        if k >= finite:
            return starts
        starts.append(k)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms with total mass one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float).reshape(-1, 2))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float).reshape(-1))
        if len(pts) != len(w):
            raise ValueError("points and weights must have equal length")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"total mass must be 1, got {w.sum()!r}")
        srt = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
            raise ValueError("atoms must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def equal_weights(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        n = len(pts)
        return cls(pts, np.full(n, 1.0 / n))

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    def planes(self, tol: float = PLANE_TOL):
        return group_by_plane(self.points, tol)


@dataclass(frozen=True)
class CellMeasure:
    """Piecewise-constant density on square cells of one grid.

    Cells are indexed on the lattice origin + spacing * (i, j); ``masses`` maps
    occupied cells to their total mass.  The density on an occupied cell is
    mass / spacing^2.
    """

    origin: tuple[float, float]
    spacing: float
    indices: np.ndarray          # (M, 2) int
    masses: np.ndarray           # (M,)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1, 2)
        m = np.asarray(self.masses, dtype=float).reshape(-1)
        if self.spacing <= 0:
            raise ValueError("cell spacing must be positive")
        if len(idx) != len(m):
            raise ValueError("indices and masses must have equal length")
        if np.any(m < 0):
            raise ValueError("cell masses must be nonnegative")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValueError(f"total mass must be 1, got {m.sum()!r}")
        keep = m > 0
        idx, m = idx[keep], m[keep]
        order = np.lexsort((idx[:, 0], idx[:, 1]))
        object.__setattr__(self, "indices", np.ascontiguousarray(idx[order]))
        object.__setattr__(self, "masses", np.ascontiguousarray(m[order]))
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    def cell_rect(self, k: int) -> Rect:
        i, j = self.indices[k]
        h = self.spacing
        x0 = self.origin[0] + i * h
        y0 = self.origin[1] + j * h
        return Rect(x0, y0, x0 + h, y0 + h)

    def gauss_nodes(self, order: int):
        """Tensor Gauss nodes of every cell, shape (M, order^2, 2), and the
        per-cell node weights, shape (order^2,), which sum to one."""
        gx, gw = leggauss(order)
        gw = gw / 2.0
        oh = (0.5 + 0.5 * gx) * self.spacing
        rel = np.stack(np.meshgrid(oh, oh, indexing="ij"), axis=-1).reshape(-1, 2)
        corners = np.asarray(self.origin) + self.indices * self.spacing
        return corners[:, None, :] + rel[None, :, :], np.outer(gw, gw).ravel()

    def densities(self) -> np.ndarray:
        return self.masses / self.spacing**2


@dataclass(frozen=True)
class DislocationConfig:
    """n equal-weight dislocations confined to a box, with minimal separation r_n.

    Embodies an admissible empirical measure: atoms of weight 1/n inside the
    confinement rectangle, pairwise distance at least ``schedule.r(n)``, grouped
    into slip planes by their second coordinate.
    """

    points: np.ndarray
    schedule: ScalingSchedule
    box: Rect
    plane_tol: float = PLANE_TOL

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if n == 0:
            raise ValueError("configuration must contain at least one dislocation")
        inside = self.box.contains(pts, tol=1e-12)
        if not inside.all():
            raise ValueError(f"dislocation {pts[np.argmin(inside)]} outside the "
                             "confinement box")
        if n > 1:
            r_n = self.schedule.r(n)
            dmin = min_distance(pts)
            if dmin < r_n * (1 - 1e-9):
                raise ValueError(
                    f"pairwise separation {dmin:.3e} below the schedule minimum {r_n:.3e}")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def r_n(self) -> float:
        return self.schedule.r(self.n)

    def planes(self):
        return group_by_plane(self.points, self.plane_tol)

    def plane_orders(self) -> tuple:
        """Each slip plane's indices from left to right (``left_to_right``),
        computed once, as a configuration's points do not change, and shared
        by every caller."""
        orders = self.__dict__.get("_orders")
        if orders is None:
            orders = left_to_right(self.points, self.planes())
            object.__setattr__(self, "_orders", orders)
        return orders

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure.equal_weights(self.points)

    def min_separation(self) -> float:
        return min_distance(self.points)

    def with_points(self, points: np.ndarray) -> "DislocationConfig":
        return DislocationConfig(points, self.schedule, self.box, self.plane_tol)

    def canonical_order(self) -> "DislocationConfig":
        """Points sorted by (plane, horizontal coordinate); ``self`` if sorted."""
        pts = self.points
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        if np.array_equal(order, np.arange(len(pts))):
            return self
        return self.with_points(pts[order])
