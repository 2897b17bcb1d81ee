"""Constructors for admissible discrete approximations of limit measures.

These produce the configurations driving the convergence experiments: cell
averaging of a target measure, square-grid discretization of a cell density,
slip-plane-class constructions with prescribed plane spacing and occupancy,
and the grid-snapping modification that enforces per-plane separation at a
controlled transport cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, Rect
from .measures import (CellMeasure, DiscreteMeasure, DislocationConfig,
                       ScalingSchedule)
__all__ = ["ClassParams", "UniformDensity", "LineDensity", "grid_approximation",
           "discretize_grid", "slipclass_discretize", "snap_modification",
           "class_membership", "MembershipReport"]


@dataclass(frozen=True)
class ClassParams:
    """Slip-plane class exponent and constant.

    Configurations in the class have plane spacing at least c n^(gamma - 1/2)
    and at most (1/c) n^(gamma + 1/2) dislocations per plane.
    """

    gamma: float
    c: float

    def __post_init__(self):
        if not (-0.5 < self.gamma <= 0.5):
            raise ValueError("gamma must lie in (-1/2, 1/2]")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def min_plane_spacing(self, n: int) -> float:
        return self.c * float(n) ** (self.gamma - 0.5)

    def max_per_plane(self, n: int) -> float:
        return float(n) ** (self.gamma + 0.5) / self.c


@dataclass(frozen=True)
class UniformDensity:
    """Uniform probability density on a rectangle."""

    rect: Rect

    def cell_mass(self, cell: Rect) -> float:
        ox = max(0.0, min(self.rect.x1, cell.x1) - max(self.rect.x0, cell.x0))
        oy = max(0.0, min(self.rect.y1, cell.y1) - max(self.rect.y0, cell.y0))
        return ox * oy / self.rect.area


@dataclass(frozen=True)
class LineDensity:
    """Finitely many slip planes, each carrying a uniform 1-D segment density.

    planes: tuple of (y, mass, x_start, x_end); masses sum to 1.
    """

    planes: tuple

    def __post_init__(self):
        total = sum(p[1] for p in self.planes)
        if abs(total - 1.0) > 1e-12:
            raise ValueError("plane masses must sum to 1")


def _measure_of_rect(target, cell: Rect) -> float:
    """Mass a target assigns to a half-open cell [x0, x1) x [y0, y1)."""
    if isinstance(target, DiscreteMeasure):
        pts, w = target.points, target.weights
        inside = ((pts[:, 0] >= cell.x0) & (pts[:, 0] < cell.x1)
                  & (pts[:, 1] >= cell.y0) & (pts[:, 1] < cell.y1))
        return float(w[inside].sum())
    if isinstance(target, CellMeasure):
        total = 0.0
        for k in range(target.n_cells):
            r = target.cell_rect(k)
            ox = max(0.0, min(r.x1, cell.x1) - max(r.x0, cell.x0))
            oy = max(0.0, min(r.y1, cell.y1) - max(r.y0, cell.y0))
            total += target.masses[k] * ox * oy / (target.spacing ** 2)
        return total
    if isinstance(target, UniformDensity):
        return target.cell_mass(cell)
    raise TypeError(f"unsupported target type {type(target)!r}")


def grid_approximation(target, h: float, geom: Geometry,
                       origin=(0.0, 0.0)) -> CellMeasure:
    """Cell-averaged approximation of a target supported in the confinement box.

    Tiles the plane with half-open squares of side h anchored at ``origin``,
    lumps the target mass of each tile uniformly onto the tile's lower-left
    quarter (a cell of side h/2), and returns the resulting cell density.
    Mass is preserved exactly; every atom moves by at most the tile diagonal.
    """
    box = geom.r_box
    if h >= min(box.width, box.height):
        raise ValueError("tile size must be smaller than the confinement box")
    i0 = math.floor((box.x0 - origin[0]) / h) - 1
    i1 = math.floor((box.x1 - origin[0]) / h) + 1
    j0 = math.floor((box.y0 - origin[1]) / h) - 1
    j1 = math.floor((box.y1 - origin[1]) / h) + 1
    indices, masses = [], []
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            tile = Rect(origin[0] + i * h, origin[1] + j * h,
                        origin[0] + (i + 1) * h, origin[1] + (j + 1) * h)
            m = _measure_of_rect(target, tile)
            if m > 0:
                indices.append((2 * i, 2 * j))   # on the h/2 lattice
                masses.append(m)
    if not indices:
        raise ValueError("target carries no mass on the confinement box")
    cm = CellMeasure(origin=origin, spacing=h / 2,
                     indices=np.array(indices), masses=np.array(masses))
    for k in range(cm.n_cells):
        if not box.contains_rect(cm.cell_rect(k), tol=1e-12):
            raise ValueError("support escapes the confinement box after cell shrinkage")
    return cm


def _square_counts(targets: np.ndarray, n: int, max_iter: int = 400):
    """Per-cell counts: perfect squares summing to n, or None if unreachable.

    Greedy adjustment of the rounded square roots; bails out on oscillation.
    """
    s = np.rint(np.sqrt(np.maximum(targets, 0.0))).astype(int)
    seen = set()
    for _ in range(max_iter):
        r = n - int(np.sum(s * s))
        if r == 0:
            return s * s
        state = tuple(s)
        if state in seen:
            return None
        seen.add(state)
        deficit = targets - s.astype(float) ** 2
        if r > 0:
            s[int(np.argmax(deficit))] += 1
        else:
            candidates = np.where(s >= 1)[0]
            if len(candidates) == 0:
                return None
            s[int(candidates[np.argmin(deficit[candidates])])] -= 1
    return None


def _rect_counts(targets: np.ndarray, n: int):
    """Largest-remainder integer apportionment."""
    floors = np.floor(targets).astype(int)
    rem = targets - floors
    short = n - int(floors.sum())
    if short < 0:
        order = np.argsort(rem)
        for k in order[:(-short)]:
            floors[k] -= 1
    elif short > 0:
        order = np.argsort(-rem)
        for idx in range(short):
            floors[order[idx % len(order)]] += 1
    return floors


def discretize_grid(density: CellMeasure, n: int, schedule: ScalingSchedule,
                    geom: Geometry) -> DislocationConfig:
    """Per-cell square sub-grids realizing a cell density with n atoms.

    Cell counts are rounded to perfect squares summing to n when the greedy
    adjustment reaches that exactly; otherwise the documented fallback uses
    largest-remainder integer counts on near-square rectangular grids.  Points
    are laid out at cell-relative positions ((i + 1/2)/s, (j + 1/2)/s), so a
    cell holding a perfect square s^2 carries an s x s lattice of pitch h/s.
    """
    targets = n * density.masses
    counts = _square_counts(targets.copy(), n)
    if counts is None:
        counts = _rect_counts(targets, n)
    pts = []
    h = density.spacing
    for k in range(density.n_cells):
        c = int(counts[k])
        if c == 0:
            continue
        r = density.cell_rect(k)
        a = math.isqrt(c)
        if a * a == c:
            cols = rows = a
        else:
            cols = math.ceil(math.sqrt(c))
            rows = math.ceil(c / cols)
        placed = 0
        for jr in range(rows):
            for ic in range(cols):
                if placed == c:
                    break
                pts.append((r.x0 + (ic + 0.5) * h / cols,
                            r.y0 + (jr + 0.5) * h / rows))
                placed += 1
    pts = np.array(pts)
    if len(pts) != n:
        raise RuntimeError("count apportionment failed to reach n")
    return DislocationConfig(pts, schedule, geom.r_box)


def _segment_fill(x0: float, x1: float, count: int, inset: float) -> np.ndarray:
    """``count`` equispaced coordinates on [x0 + inset, x1 - inset]."""
    if count == 1:
        return np.array([0.5 * (x0 + x1)])
    return np.linspace(x0 + inset, x1 - inset, count)


def slipclass_discretize(target, n: int, params: ClassParams,
                         schedule: ScalingSchedule, geom: Geometry,
                         h_n: float | None = None) -> DislocationConfig:
    """Approximate a target by n atoms on the admissible slip-plane family.

    For gamma < 1/2 the slip planes are the absolute lattice
    y = c j n^(gamma - 1/2); target mass is gathered over squares of side h_n
    and spread as equidistant atoms along every plane crossing the square.
    For gamma = 1/2 the target must present finitely many planes (an atomic
    measure or a LineDensity); atoms are placed at per-plane mass quantiles.
    Shortfalls from count flooring are topped up in the already-activated
    planes, in the largest gaps, keeping the class bounds intact.
    """
    box = geom.r_box
    r_n = schedule.r(n)
    spacing = params.min_plane_spacing(n)
    cap = math.floor(params.max_per_plane(n) + 1e-9)

    if params.gamma == 0.5:
        planes = _gamma_half_planes(target)
        for (ya, _, _, _), (yb, _, _, _) in zip(planes, planes[1:]):
            if yb - ya < params.c - 1e-12:
                raise ValueError("target planes closer than the class spacing c")
        for _, mass, _, _ in planes:
            if mass > 1.0 / params.c + 1e-12:
                raise ValueError("per-plane mass exceeds 1/c")
        counts = _rect_counts(np.array([m * n for _, m, _, _ in planes]), n)
        pts = []
        for (y, mass, xa, xb), cnt in zip(planes, counts):
            if cnt == 0:
                continue
            if cnt > cap:
                raise ValueError("per-plane count exceeds the class cap")
            qs = (np.arange(cnt) + 0.5) / cnt
            xs = xa + qs * (xb - xa)
            pts.extend((x, y) for x in xs)
        return DislocationConfig(np.array(pts), schedule, box)

    # gamma < 1/2: lattice planes and square gathering
    if h_n is None:
        h_n = float(n) ** (-(0.5 - abs(params.gamma)) / 2.0)
    j_lo = math.ceil((box.y0 + r_n) / spacing)
    j_hi = math.floor((box.y1 - r_n) / spacing)
    if j_hi < j_lo:
        raise ValueError("no admissible slip plane crosses the confinement box")
    plane_ys = spacing * np.arange(j_lo, j_hi + 1)

    i_lo = math.floor(box.x0 / h_n)
    i_hi = math.floor(box.x1 / h_n)
    pts = []
    plane_pts: dict[int, list] = {}
    for i in range(i_lo, i_hi + 1):
        sx0, sx1 = i * h_n, (i + 1) * h_n
        cx0, cx1 = max(sx0, box.x0), min(sx1, box.x1)
        if cx1 - cx0 <= 2 * r_n:
            continue
        for j_idx, y in enumerate(plane_ys):
            sq = Rect(sx0, y - h_n / 2, sx1, y + h_n / 2)
            m_i = math.floor(_measure_of_rect(target, sq) / h_n
                             * params.c * float(n) ** (0.5 + params.gamma))
            m_i = min(m_i, cap - len(plane_pts.get(j_idx, [])))
            if m_i <= 0:
                continue
            xs = _segment_fill(cx0, cx1, m_i, r_n)
            plane_pts.setdefault(j_idx, []).extend(xs)
    total = sum(len(v) for v in plane_pts.values())
    if total > n:
        raise RuntimeError("allocation exceeded n")
    _top_up(plane_pts, n - total, plane_ys, box, r_n, cap)
    for j_idx, xs in plane_pts.items():
        y = plane_ys[j_idx]
        pts.extend((x, y) for x in sorted(xs))
    if len(pts) != n:
        raise ValueError("could not place all atoms within the class bounds")
    return DislocationConfig(np.array(pts), schedule, box)


def _gamma_half_planes(target):
    """Planes as (y, mass, x_start, x_end) for the gamma = 1/2 construction."""
    if isinstance(target, LineDensity):
        return sorted(((y, m, xa, xb) for y, m, xa, xb in target.planes))
    if isinstance(target, DiscreteMeasure):
        out = []
        for y, idx in target.planes():
            xs = target.points[idx, 0]
            out.append((y, float(target.weights[idx].sum()),
                        float(xs.min()), float(xs.max())))
        return sorted(out)
    raise TypeError("gamma = 1/2 needs an atomic target or a LineDensity")


def _top_up(plane_pts: dict, deficit: int, plane_ys, box: Rect, r_n: float,
            cap: int):
    """Insert ``deficit`` extra atoms into activated planes, largest gaps first."""
    while deficit > 0:
        best = None
        for j_idx, xs in plane_pts.items():
            if len(xs) >= cap:
                continue
            xs_sorted = sorted(xs)
            gaps = [(box.x0, xs_sorted[0]), *zip(xs_sorted, xs_sorted[1:]),
                    (xs_sorted[-1], box.x1)]
            for a, b in gaps:
                if b - a > 2 * r_n and (best is None or b - a > best[0]):
                    best = (b - a, j_idx, 0.5 * (a + b))
        if best is None:
            raise ValueError("cannot top up the configuration within the class bounds")
        plane_pts[best[1]].append(best[2])
        deficit -= 1


def snap_modification(cfg: DislocationConfig, eta: float) -> DislocationConfig:
    """Per-plane snap onto grids of pitch eta / m_s at minimal transport cost.

    The points of each plane are matched injectively and monotonically to the
    plane's grid nodes inside the box at minimal cost: by the nearest nodes
    where ``_nearest_assignment`` proves them the optimum, else by a dynamic
    program (``_monotone_assignment``, exact optimum).  The
    vertical marginal is untouched, the move cost is at most eta, and the
    output has per-plane horizontal gaps of at least eta / m with m the
    maximal plane occupancy.
    """
    box = cfg.box
    if not 0 < eta < box.width:
        raise ValueError("eta must lie strictly between 0 and the box width")
    new_pts = cfg.points.copy()
    for y, idx in cfg.planes():
        m_s = len(idx)
        pitch = eta / m_s
        k_lo = math.ceil(box.x0 / pitch - 1e-12)
        k_hi = math.floor(box.x1 / pitch + 1e-12)
        nodes = pitch * np.arange(k_lo, k_hi + 1)
        if len(nodes) < m_s:
            raise ValueError("snap grid has fewer nodes than plane occupancy")
        xs = np.sort(cfg.points[idx, 0])
        assign = _nearest_assignment(xs, nodes)
        if assign is None:
            assign = _monotone_assignment(xs, nodes)
        order = np.argsort(cfg.points[idx, 0], kind="stable")
        new_pts[idx[order], 0] = nodes[assign]
    return DislocationConfig(new_pts, cfg.schedule, box, cfg.plane_tol)


def _nearest_assignment(xs: np.ndarray, nodes: np.ndarray):
    """The map of sorted xs to their nearest grid nodes when it is, bit for
    bit, ``_monotone_assignment``'s answer; else None.

    A strictly increasing nearest-node map is injective and monotone, and no
    map costs less; when every atom's other nodes cost more than its nearest
    one by at least a gap, no other map ties it.  The dynamic program adds
    up to m float costs, each at most the span W of atoms and nodes, so its
    sums err by less than m^2 eps W / 2; with every gap above 4 m^2 eps W
    each of its comparisons falls on the exact side, and its backtrack takes
    the nearest nodes.  Float costs grow away from x on either side, so an
    atom's gap is read at the two nodes next to its nearest.  Ties, atoms
    within the margin of a node midpoint and shared nodes return None.
    """
    m, g = len(xs), len(nodes)
    if g < 2:
        return None
    k = np.clip(np.searchsorted(nodes, xs), 1, g - 1)      # the nodes around x
    near = np.where(np.abs(xs - nodes[k - 1]) <= np.abs(xs - nodes[k]), k - 1, k)
    cost = np.abs(xs - nodes[near])
    left = np.where(near > 0, np.abs(xs - nodes[np.maximum(near - 1, 0)]), math.inf)
    right = np.where(near < g - 1, np.abs(xs - nodes[np.minimum(near + 1, g - 1)]), math.inf)
    span = max(xs[-1], nodes[-1]) - min(xs[0], nodes[0])
    margin = 4.0 * m * m * np.finfo(float).eps * span
    if np.all(np.diff(near) > 0) and np.all(np.minimum(left, right) - cost > margin):
        return near
    return None


def _monotone_assignment(xs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Injective nondecreasing map of sorted xs onto grid nodes, minimal L1 cost."""
    m, g = len(xs), len(nodes)
    cost = np.abs(xs[:, None] - nodes[None, :])
    D = np.full((m + 1, g + 1), math.inf)
    D[0, :] = 0.0
    choice = np.zeros((m + 1, g + 1), dtype=bool)
    for i in range(1, m + 1):
        # D[i, j] = min(D[i, j - 1], take[j - 1]): a running minimum of take
        take = D[i - 1, :-1] + cost[i - 1]
        D[i, 1:] = np.minimum.accumulate(take)
        choice[i, 1:] = take <= D[i, :-1]
    assign = np.empty(m, dtype=int)
    i, j = m, g
    while i > 0:
        if choice[i, j]:
            assign[i - 1] = j - 1
            i -= 1
            j -= 1
        else:
            j -= 1
    return assign


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    violations: tuple
    min_plane_spacing: float
    max_per_plane: int
    min_pair_distance: float


def class_membership(cfg: DislocationConfig, params: ClassParams) -> MembershipReport:
    """Check the slip-plane class bounds plus the base separation constraint."""
    n = cfg.n
    planes = cfg.planes()
    ys = np.array([y for y, _ in planes])
    counts = np.array([len(idx) for _, idx in planes])
    spacing = float(np.min(np.diff(ys))) if len(ys) > 1 else math.inf
    max_count = int(counts.max())
    min_pair = cfg.min_separation()
    violations = []
    if spacing < params.min_plane_spacing(n) * (1 - 1e-9):
        violations.append(
            f"plane spacing {spacing:.6g} below {params.min_plane_spacing(n):.6g}")
    if max_count > params.max_per_plane(n) * (1 + 1e-9):
        violations.append(
            f"plane occupancy {max_count} above {params.max_per_plane(n):.6g}")
    if min_pair < cfg.r_n * (1 - 1e-9):
        violations.append(
            f"pairwise distance {min_pair:.6g} below r_n = {cfg.r_n:.6g}")
    return MembershipReport(ok=not violations, violations=tuple(violations),
                            min_plane_spacing=spacing, max_per_plane=max_count,
                            min_pair_distance=min_pair)
