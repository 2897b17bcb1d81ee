"""Rate-independent quasi-static evolution by incremental energy minimization.

Each time step minimizes total energy plus the slip-confined transport cost to
the previous state.  The solver operates in the per-dislocation scaling where
the yield threshold equals one: a dislocation moves only when the magnitude of
its configurational force exceeds 1, and it lands where the force magnitude
falls back to 1, at a neighbor separation barrier, or at the confinement box
edge.  Cyclic per-plane sweeps repeat until one moves nothing, checking every
dislocation against one all-rows force vector per placement, and the step
fails unless the stability residual (the largest mean force excess of a group
that can move together, one-sided at the box edges and at neighbours in
contact) is then within the solver tolerance.  The uniform shear adds sigma(t)
to every force.  In free space, once two sweeps in a row have landed the same
dislocations the same way, each at a force crossing, a Newton finish solves
their threshold equations together; the sweeps still judge when the step ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corrector import CorrectorSolution, RitzBasis, get_solver
from .geometry import Geometry
# interaction_cross_matrix stays bound here: perfbench/tracing.py patches it
from .interaction import (BLOCK, QuadratureConfig, interaction_cross_matrix,  # noqa: F401
                          _atom_energy, _boundary_data, _boundary_grid, _continuum_energy,
                          _singular_sums, _stress_potential_dy1, interaction_of_points)
from .kernels import Material
from .measures import CellMeasure, DiscreteMeasure, DislocationConfig
from .transport import slip_distance

__all__ = ["LoadingProgram", "SolverConfig", "EnergyContext", "ForceRecord",
           "EvolutionTrace", "driving_force", "incremental_step",
           "run_quasistatic", "stability_residual", "stability_excess",
           "energy_balance_series",
           "energy_balance_residual", "flow_rule_steps", "flow_rule_residual"]

EDGE_TOL = 1e-10
NEWTON_TOL, NEWTON_STEPS, NEWTON_HALVINGS = 1e-13, 20, 30    # ``_newton``


def _pair_table(pts: np.ndarray) -> np.ndarray:
    """Squared vertical offsets (y_i - y_j)^2 of the n dislocations, n x n,
    inf on the diagonal."""
    dy = pts[:, 1:] - pts[:, 1]
    dy2 = dy * dy
    np.fill_diagonal(dy2, np.inf)
    return dy2


def _log_forces(x, xs: np.ndarray, dy2: np.ndarray, log_coef: float):
    """Free-space log force: c dx / (dx^2 + dy2), dx = x - xs, summed over the
    last axis over n = len(xs).  The inf self offset of ``_pair_table`` makes the
    self term exactly 0, so a probe's row and all rows sum the same terms alike."""
    dx = x - xs
    return np.add.reduce(log_coef * dx / (dx * dx + dy2), axis=-1) / len(xs)


def _newton_finish(table, movers: dict, orders, box, r_n: float) -> None:
    """Solve f_i(x) = s_i for the ``movers`` {i: s_i} of a free-space sweep
    step by Newton's method on their abscissae (``_newton``), the others
    held, in the step's ``_StepTable``: mutates its points and tells it of
    every move.

    The finish keeps Newton's end point only if Newton converged and every
    mover has moved only in its own direction s_i.  Otherwise it puts the
    movers back; if Newton converged but some movers moved back, those are
    not movers of the limit the sweeps approach (their neighbours' moves
    relieve them), so it holds them where they stand and solves again for
    the others.  It never keeps an intermediate iterate: one that has
    overshot a mover's crossing leaves the mover inside the stable set,
    whence no landing brings it back.
    """
    pts = table.pts
    while movers:
        rows = np.array([i for order in orders for i in order if i in movers])
        s = np.array([movers[i] for i in rows])
        start = pts[rows, 0].copy()
        converged = _newton(table, rows, s, orders, box, r_n)
        back = (pts[rows, 0] - start) * s < 0.0
        if converged and not back.any():
            return
        pts[rows, 0] = start
        for i in rows:
            table.moved(i)
        if not converged:
            return
        movers = {i: movers[i] for i in rows[~back].tolist()}


def _newton(table, rows, s, orders, box, r_n: float) -> bool:
    """Newton's method for f_i(x) = s_i on the abscissae of ``rows``, in
    place; whether it converged.

    The Jacobian is that of ``_log_forces``: for j != i, df_i/dx_j =
    -(c/n)(dy^2 - dx^2)/(dx^2 + dy^2)^2, written (c/n)(1 - 2 dx^2/r^2)/r^2
    with r^2 = dx^2 + dy^2 so that the ``pairs`` table's inf self offset
    makes it 0; the diagonal is minus its row's sum over all the other
    dislocations.  Each step is halved until every one of ``rows`` stands
    more than EDGE_TOL inside its barriers (``_all_barriers`` of the planes'
    ``orders``) and max |f_i - s_i| (from ``table.forces()``) falls.  It has
    converged once that maximum is at most ``NEWTON_TOL``, or once a step
    moves no abscissa by more than ``NEWTON_TOL`` max(1, |x_i|), a landing's
    bracket: below that, rounding in the forces can keep the maximum from
    falling.  It fails after ``NEWTON_STEPS``, on a singular Jacobian, or
    when no halving is accepted, the last trial left in the points.
    """
    pts, c = table.pts, table.ctx.mat.log_coef
    gap = np.max(np.abs(table.forces()[rows] - s))
    for _ in range(NEWTON_STEPS):
        if gap <= NEWTON_TOL:
            return True
        x = pts[:, 0]
        dx = x[rows, None] - x
        r2 = dx * dx + table.pairs[rows]
        off = c / len(x) * (1.0 - 2.0 * dx * dx / r2) / r2
        try:
            step = np.linalg.solve(np.diag(off.sum(axis=1)) - off[:, rows],
                                   s - table.forces()[rows])
        except np.linalg.LinAlgError:
            return False
        base = x[rows].copy()
        if np.all(np.abs(step) <= NEWTON_TOL * np.maximum(1.0, np.abs(base))):
            return True
        for h in range(NEWTON_HALVINGS):
            pts[rows, 0] = base + 0.5 ** h * step
            lower, upper = _all_barriers(pts[:, 0], orders, box, r_n)
            at = pts[rows, 0]
            if np.all(at - lower[rows] > EDGE_TOL) and np.all(upper[rows] - at > EDGE_TOL):
                for i in rows:
                    table.moved(i)
                trial = np.max(np.abs(table.forces()[rows] - s))
                if trial < gap:
                    gap = trial
                    break
        else:
            return False
    return gap <= NEWTON_TOL


@dataclass(frozen=True)
class LoadingProgram:
    """The uniform shear f(t, x) = sigma(t) x1 on [0, ``time_horizon``]; sigma
    and its time derivative sigma_dot are scalar in t, points (N, 2) arrays."""

    sigma: object                 # t -> scalar
    time_horizon: float
    sigma_dot: object             # t -> scalar

    def potential(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.sigma(t) * pts[:, 0]

    def potential_dot(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.sigma_dot(t) * pts[:, 0]


@dataclass(frozen=True)
class SolverConfig:
    sweep_tol: float = 1e-9
    max_sweeps: int = 80
    line_grid: int = 48
    mode: str = "freespace"

    def __post_init__(self):
        for key, bound, ok in (("sweep_tol", "> 0", self.sweep_tol > 0),   # NaN fails too
                               ("max_sweeps", ">= 1", self.max_sweeps >= 1),
                               ("line_grid", ">= 4", self.line_grid >= 4)):
            if not ok:
                raise ValueError(f"{key} must be {bound}, got {getattr(self, key)!r}")
        if self.mode not in ("freespace", "bounded"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class _Pass:
    """What the evaluations at one set of points have found, O(ng + n): the
    summed rows and columns [A, B] and the self terms (``_boundary_sums``),
    the corrector solution of the traction A[:, :2], the force parts of all
    rows and the renormalized energy.  A field is None until computed."""

    sums: tuple | None = None
    solution: CorrectorSolution | None = None
    forces: tuple | None = None
    energy: float | None = None


@dataclass
class EnergyContext:
    """Bundle of everything the energy and force evaluations need.

    Free space pairs dislocations by c log|u|, the leading term of the bounded
    kernel, not by the whole-plane edge interaction ``_stress_potential`` psi:
    the two agree on one slip plane (u_2 = 0) and differ across planes.

    It keeps the ``_Pass`` of the last points it evaluated, keyed by the
    points' exact bytes and by its own fields, so forces (all rows or one)
    and energies asked again at unchanged points (a step's start check,
    ``driving_force``, ``renormalized_energy``) make no boundary pass; a
    sweep hands it the pass of the points it ends at.  The pass holds no
    per-atom arrays.
    """

    mode: str
    mat: Material
    geom: Geometry | None = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    basis: RitzBasis | None = None
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("bounded", "freespace"):
            raise ValueError(f"unknown interaction mode {self.mode!r}")
        if self.mode == "bounded" and (self.geom is None or self.basis is None):
            raise ValueError("bounded mode requires geometry and basis")

    def _pass_at(self, pts: np.ndarray, new: _Pass | None = None) -> _Pass:
        """The kept pass if ``pts`` has its points' bytes, else ``new`` (by
        default a new empty pass), which replaces it."""
        key = (np.ascontiguousarray(pts, dtype=float).tobytes(), self.mode, self.mat,
               self.geom, self.quad, self.basis)
        if self._last[0] != key:
            self._last = (key, _Pass() if new is None else new)
        return self._last[1]

    # -- energies ----------------------------------------------------------
    def interaction_of_points(self, pts: np.ndarray) -> float:
        return interaction_of_points(pts, self.mode, self.geom, self.mat, self.quad)

    def corrector_energy_of_points(self, pts: np.ndarray) -> float:
        if self.mode != "bounded":
            return 0.0
        solver = get_solver(self.geom, self.mat, self.basis, self.quad)
        return solver.solve(DiscreteMeasure.equal_weights(pts)).energy

    def renormalized_energy(self, measure: DislocationConfig | CellMeasure) -> float:
        """Interaction plus, when bounded, corrector energy of a configuration
        (in canonical order) or a cell density, from one rows-first pass; a
        configuration's pass is kept."""
        args = (self.mode, self.geom, self.mat, self.quad)
        if isinstance(measure, CellMeasure):
            energy, row = _continuum_energy(measure, *args)
            if self.mode != "bounded":
                return energy
            solver = get_solver(self.geom, self.mat, self.basis, self.quad)
            support = measure.gauss_nodes(self.quad.density_gauss)[0]
            return energy + solver.solve_traction(row[:, :2], support).energy
        support = measure.canonical_order().points
        kept = self._pass_at(support)
        if kept.energy is None:
            energy, kept.sums = _atom_energy(support, *args, sums=kept.sums)
            if self.mode == "bounded":
                if kept.solution is None:
                    kept.solution = get_solver(self.geom, self.mat, self.basis, self.quad) \
                        .solve_traction(kept.sums[0][0][:, :2], support)
                energy += kept.solution.energy
            kept.energy = energy
        return kept.energy

    # -- per-dislocation horizontal forces ----------------------------------
    def _force_parts(self, pts: np.ndarray):
        """Interaction and corrector parts of -n dE/dz_i1 on every dislocation,
        as copies of the kept pass's, which a ``_StepTable`` of the points
        (``_StepTable.parts``) computes into it when it has none."""
        inter, corr = _StepTable(pts, None, self).parts()
        return inter.copy(), corr.copy()                # the kept pass stays intact

    def interaction_forces(self, pts: np.ndarray) -> np.ndarray:
        """-n d/dz_i of the interaction energy, horizontal components."""
        return self._force_parts(pts)[0]

    def interaction_force_single(self, pts: np.ndarray, i: int) -> float:
        """Row i of ``interaction_forces``."""
        return float(self._force_parts(pts)[0][i])

    def corrector_forces(self, pts: np.ndarray) -> np.ndarray:
        """-n d/dz_i of the corrector energy, horizontal components (envelope
        theorem; see ``CorrectorSolver.boundary_displacement``)."""
        return self._force_parts(pts)[1]

    def corrector_force_single(self, pts: np.ndarray, i: int) -> float:
        """Row i of ``corrector_forces``."""
        return float(self._force_parts(pts)[1][i])


@dataclass(frozen=True)
class ForceRecord:
    """Per-dislocation horizontal configurational forces, yield threshold 1."""

    values: np.ndarray


def _forces_at(pts: np.ndarray, t: float, load: LoadingProgram,
               ctx: EnergyContext) -> np.ndarray:
    return _StepTable(pts, float(load.sigma(t)), ctx).forces()


def _force_single(pts: np.ndarray, i: int, t: float, load: LoadingProgram,
                  ctx: EnergyContext) -> float:
    """Row i of the all-rows parts plus sigma(t), as a probe adds them."""
    inter, corr = ctx._force_parts(pts)
    return float(inter[i]) + float(corr[i]) + float(load.sigma(t))


def driving_force(cfg: DislocationConfig, t: float, load: LoadingProgram,
                  ctx: EnergyContext) -> ForceRecord:
    """Configurational horizontal force on each dislocation at time t.

    Values follow the ordering of ``cfg.points``.
    """
    return ForceRecord(values=_forces_at(cfg.points, t, load, ctx))


def _barriers(x, order, k: int, box, r_n: float):
    """The two barriers (lower, upper) of the k-th dislocation from the left
    in its plane's ``order``, at the abscissae x (an array or a list): the
    box edge on the side where it is the outermost of its plane, else the
    neighbour's abscissa +- r_n.  A landing stops at them."""
    return (box.x0 if k == 0 else x[order[k - 1]] + r_n,
            box.x1 if k == len(order) - 1 else x[order[k + 1]] - r_n)


def _all_barriers(x: np.ndarray, orders, box, r_n: float):
    """``_barriers`` of every dislocation, as the arrays (lower, upper); the
    rule runs on Python floats, the same doubles at a fraction of the cost."""
    lower, upper, xs = np.empty(len(x)), np.empty(len(x)), x.tolist()
    for order in orders:
        for k, i in enumerate(order):
            lower[i], upper[i] = _barriers(xs, order, k, box, r_n)
    return lower, upper


def _one_sided(x: np.ndarray, forces: np.ndarray, barriers) -> np.ndarray:
    """Forces with the part toward a barrier within EDGE_TOL clamped to the
    threshold (lower barrier first): a dislocation stopped at a box edge or
    at a plane neighbour may feel any push toward it."""
    lower, upper = barriers
    forces = np.where(x - lower <= EDGE_TOL, np.maximum(forces, -1.0), forces)
    return np.where(upper - x <= EDGE_TOL, np.minimum(forces, 1.0), forces)


def _residual_from_forces(x: np.ndarray, forces: np.ndarray, orders, box,
                          r_n: float) -> float:
    """The largest force excess over 1, per dislocation, of a group that can
    move together, over the planes' left-to-right ``orders``.

    A dislocation at its upper barrier (``_barriers``, within EDGE_TOL) to a
    neighbour is in contact with it; pushed toward it, it takes it along.
    So each run of contacts can move left by a leading group and right by a
    trailing one, each counting its summed force toward that side over its
    size, less 1, but not toward a box edge that the run stands at.  A lone
    dislocation counts |force| - 1, or only its pull away from the box edge
    it stands at; a run pinned at a box edge counts only its pulls away from
    it, and one pressing on a free neighbour the mean push of the two.  A NaN
    force gives a NaN residual, which fails every ``<= tol`` check.
    """
    if np.isnan(forces).any():
        return float("nan")
    xs, fs, worst = x.tolist(), forces.tolist(), 0.0
    for order in orders:
        run, last = [], len(order) - 1
        for k, i in enumerate(order):
            lower, upper = _barriers(xs, order, k, box, r_n)
            at_upper = upper - xs[i] <= EDGE_TOL
            if not run:
                free_left = k > 0 or not xs[i] - lower <= EDGE_TOL
            run.append(fs[i])
            if k < last and at_upper:
                continue                                # in contact with the next
            if free_left:
                worst = _leading_excess(worst, [-f for f in run])
            if k < last or not at_upper:                # free to the right
                worst = _leading_excess(worst, run[::-1])
            run = []
    return worst


def _leading_excess(worst: float, pushes) -> float:
    """The larger of ``worst`` and the largest mean, less 1, of a leading
    group of ``pushes`` (the forces of a run toward one side, from there)."""
    total = 0.0
    for q, f in enumerate(pushes, 1):
        total += f
        worst = max(worst, total / q - 1.0)
    return worst


def stability_residual(cfg: DislocationConfig, t: float, load: LoadingProgram,
                       ctx: EnergyContext) -> float:
    """``stability_excess`` of the forces at time t."""
    return stability_excess(cfg, ForceRecord(_forces_at(cfg.points, t, load, ctx)))


def stability_excess(cfg: DislocationConfig, record: ForceRecord) -> float:
    """Stability residual from an already-computed force record: the largest
    excess over 1 of a group's mean force, one-sided at the box edges and at
    plane neighbours in contact (``_residual_from_forces``)."""
    return _residual_from_forces(cfg.points[:, 0], record.values, cfg.plane_orders(),
                                 cfg.box, cfg.r_n)


class _StepTable:
    """One step of a sweep under its shear sigma(t), and the only source of
    all-rows force parts: ``parts()``, the live points' (interaction,
    corrector) parts, from the context's kept pass at the start points, else
    computed at most once per placement; ``forces()`` adds ``shear`` (the
    bits of ``_forces_at``); ``moved(i)`` follows a landing of dislocation i,
    ``probe(i)`` is the force on dislocation i as it alone moves, and
    ``hand_back()`` gives the context the last pass.

    In free space the parts are ``_log_forces`` of the ``pairs`` table (only
    abscissae move within a step).  Bounded, the table keeps each
    equal-weight atom's weighted boundary row and column and its derivative
    row (``_boundary_data`` with ``dy1``), evaluated once per placement:
    ``atoms[0]`` is zero and ``atoms[j + 1]`` = w [a_j, b_j], w = 1/n; numpy
    adds along a slow axis in order, so ``np.add.reduce(atoms, axis=0)`` is
    the sum from zero in atom order, the bits of ``_boundary_sums``;
    ``derivs[j]`` is atom j's derivative row d_j, unweighted.  With the summed
    rows A and columns B and the displacement u of the corrector solve from
    the traction A[:, :2], the interaction part of atom i's force is
    -d_i . (B - w b_i) - w sum_{j != i} s(z_i - z_j), s = -d_1 psi, and the
    corrector part -d_i[:, :2] . u.  The pair table and the bounded arrays
    are built when first needed, so a kept pass's parts build neither.
    ``shear`` is None where only ``parts()`` is read.
    """

    def __init__(self, pts, shear, ctx):
        self.pts, self.shear, self.ctx = pts, shear, ctx
        self.atoms = self._pass = self._forces = None

    @cached_property
    def pairs(self) -> np.ndarray:
        return _pair_table(self.pts)

    def _bounded_arrays(self):
        """Build ``atoms``, ``derivs``, the grid and the solver, once."""
        if self.atoms is not None:
            return
        ctx, pts, self.w = self.ctx, self.pts, 1.0 / len(self.pts)
        self.grid = _boundary_grid(ctx.geom.omega, ctx.quad.boundary_points)
        self.solver = get_solver(ctx.geom, ctx.mat, ctx.basis, ctx.quad)
        ng = len(self.grid["gauss_w"])
        self.atoms = np.zeros((len(pts) + 1, 2, ng, 3))
        self.derivs = np.empty((len(pts), ng, 3))
        for s in range(0, len(pts), BLOCK):
            self._put(s, _boundary_data(self.grid, pts[s:s + BLOCK], ctx.mat, dy1=True))

    def _put(self, s, data):
        """Keep the data of the atoms from s on, copied out of ``data``."""
        np.multiply(self.w, data[:, :2], out=self.atoms[s + 1:s + 1 + len(data)])
        self.derivs[s:s + len(data)] = data[:, 2]

    def moved(self, i):
        self._pass, self._forces = _Pass(), None
        if self.atoms is not None:
            self._put(i, _boundary_data(self.grid, self.pts[i], self.ctx.mat, dy1=True))

    def _row(self, d, singular, total, own, u):
        return -np.vdot(d, total[1] - own[1]) - self.w * singular, -np.vdot(d[:, :2], u)

    def parts(self):
        """The (interaction, corrector) parts of every row at the live points;
        bounded, the sums and the corrector solution go into the pass too."""
        if self._pass is None:                          # the start points
            self._pass = self.ctx._pass_at(self.pts)
        kept, pts = self._pass, self.pts
        if kept.forces is None and self.ctx.mode == "bounded":
            self._bounded_arrays()
            total = np.add.reduce(self.atoms, axis=0)
            kept.sums = total, [np.vdot(a, b) for a, b in self.atoms[1:]]
            kept.solution = self.solver.solve_traction(total[0][:, :2], pts)
            u = self.solver.boundary_displacement(kept.solution)
            singular = _singular_sums(_stress_potential_dy1, pts, self.ctx.mat)
            rows = [self._row(d, s, total, own, u)
                    for d, s, own in zip(self.derivs, singular, self.atoms[1:])]
            kept.forces = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        elif kept.forces is None:
            kept.forces = (_log_forces(pts[:, :1], pts[:, 0], self.pairs,
                                       self.ctx.mat.log_coef), np.zeros(len(pts)))
        return kept.forces

    def forces(self) -> np.ndarray:
        """``_forces_at`` of the live points, bit for bit."""
        if self._forces is None:
            inter, corr = self.parts()
            self._forces = inter + corr + self.shear
        return self._forces

    def probe(self, i):
        """``x -> _force_single`` of the live points with dislocation i moved
        to abscissa x, bit for bit; the sweep builds one for each landing.

        In free space it is ``_log_forces`` of row i of ``pairs`` against the
        live view ``pts[:, 0]``, so it copies nothing, plus the corrector's
        0.0 and the shear, as ``_force_single`` adds them.  Bounded, its
        ``block(xs)`` is ``[probe(x) for x in xs]`` bit for bit, from one
        ``_boundary_data`` call for all xs: the sums run on from the other
        atoms' kept prefix and suffix arrays, and the singular sums against
        the others of all xs in one array; each x keeps its own corrector
        solve, displacement and dot products, whose BLAS calls could round
        differently batched, and the solve checks the margin of the moved
        point alone, as the others are the live points, inside the box.
        ``_land_position`` marches on it.  Valid until an atom moves.
        """
        pts, y, shear = self.pts, self.pts[i, 1], self.shear
        if self.ctx.mode != "bounded":
            dy2, xs, c = self.pairs[i], pts[:, 0], self.ctx.mat.log_coef
            return lambda x: float(_log_forces(x, xs, dy2, c)) + 0.0 + shear
        self._bounded_arrays()
        atoms, solver, mat = self.atoms, self.solver, self.ctx.mat
        others = np.delete(pts, i, 0)
        prefix = np.add.reduce(atoms[:i + 1], axis=0)

        def block(xs):
            zs = np.column_stack([xs, np.full(len(xs), y)])
            data = _boundary_data(self.grid, zs, mat, dy1=True)
            own = self.w * data[:, :2]
            total = prefix + own                # np.add.reduce's order: on in atom order
            for atom in atoms[i + 2:]:
                total += atom
            singular = _stress_potential_dy1(zs[:, None, :] - others, mat).sum(axis=1)
            out = []
            for z, d, s, tot, ab in zip(zs, data[:, 2], singular, total, own):
                u = solver.boundary_displacement(solver.solve_traction(tot[0][:, :2], z))
                inter, corr = self._row(d, s, tot, ab, u)
                out.append(float(inter) + float(corr) + shear)
            return out

        def probe(x):
            return block([x])[0]
        probe.block = block
        return probe

    def hand_back(self):
        if self._pass is not None:
            self.ctx._pass_at(self.pts, self._pass)


def _march(probe, x0, barrier, line_grid):
    """(x, probe(x)) at the march points k (barrier - x0) / line_grid + x0,
    k = 1, ..., line_grid, in order and lazily: a probe with a ``block``
    method is evaluated in chunks of 1, 2, 4, 8 and then ``BLOCK`` points, so
    a crossing early in the march wastes few evaluations; any other probe
    one point at a time, and never past the point its caller stops at."""
    step = (barrier - x0) / line_grid
    block = getattr(probe, "block", None)
    if block is None:
        for k in range(1, line_grid + 1):
            x = barrier if k == line_grid else k * step + x0
            yield x, probe(x)
        return
    k, size = 1, 1
    while k <= line_grid:
        xs = [barrier if j == line_grid else j * step + x0
              for j in range(k, min(k + size, line_grid + 1))]
        yield from zip(xs, block(xs))
        k, size = k + size, min(2 * size, BLOCK)


def _land_position(probe, x0, f0, direction, barrier, line_grid):
    """Where a dislocation at ``x0`` with force ``probe``, pushed toward
    ``barrier``, lands; ``f0`` is the force at ``x0``, which seeds the
    bracket's low end.

    March over ``line_grid`` points k (barrier - x0) / line_grid + x0 toward
    the barrier, the last one the barrier itself (the bits of ``np.linspace``,
    made one at a time), in the chunks of ``_march``; if the force along
    ``direction`` stays at or above 1 all the way, land on the barrier.
    Otherwise the first crossing is bracketed as f(lo) >= 1 > f(hi) and
    narrowed to |hi - lo| < 1e-13 max(1, |hi|) by Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971): the secant point of g = f - 1 replaces
    the end of its sign, and after two steps in a row on one side the stale
    end's g is halved.  Safeguards: a secant point outside the bracket or
    NaN, and every step after the 12th, is the midpoint; no probe comes
    closer than half the tolerance to an end.
    The end below the threshold, hi, is returned, so the landing passes it.
    """
    def g_at(x):
        return probe(x) * direction - 1.0

    lo, g_lo, hi = x0, f0 * direction - 1.0, None
    for x, f in _march(probe, x0, barrier, line_grid):
        g = f * direction - 1.0
        if not g >= 0.0:                            # NaN counts as below 1
            hi, g_hi = x, g
            break
        lo, g_lo = x, g
    if hi is None:
        return barrier
    side = 0
    for k in range(100):
        tol = 1e-13 * max(1.0, abs(hi))
        if abs(hi - lo) < tol:
            break
        a, b = min(lo, hi), max(lo, hi)
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if k >= 12 or not a <= x <= b:
            x = 0.5 * (a + b)
        x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
        g = g_at(x)
        if g >= 0.0:
            lo, g_lo = x, g
            if side > 0:
                g_hi *= 0.5
            side = 1
        else:
            hi, g_hi = x, g
            if side < 0:
                g_lo *= 0.5
            side = -1
    return hi


def _sweep_to_stability(pts, shear, ctx, solver_cfg, box, r_n, orders):
    """Cyclic per-dislocation relaxation; mutates pts, returns the final
    residual and whether the last sweep still moved.

    Each sweep visits the planes' left-to-right ``orders`` (``left_to_right``
    of pts) in turn, and checks each dislocation against its row of the step's
    ``_StepTable`` vector under the ``shear`` (the bits of ``_forces_at``).  A
    dislocation whose force exceeds the threshold lands toward its barrier
    on that side (``_barriers``) unless it stands there, on the table's
    ``probe(i)``, built for that landing alone, and the table follows the
    landing, so no atom's boundary data is evaluated twice at one place.
    The relaxation stops after a sweep that moves nothing, since a repeat
    would move nothing either; the residual
    (``_residual_from_forces``) comes from the last vector, and the table
    hands its pass to the context.  A landing stops at a neighbour -+ r_n, so
    no dislocation passes another on its plane and the orders hold for the
    whole step.

    In free space, a sweep that lands the same dislocations in the same
    directions as the sweep before, every landing of both at a force
    crossing and none at a barrier, hands them to ``_newton_finish``; the
    next finish needs two new such sweeps.  The finish keeps its movers more
    than EDGE_TOL inside their barriers, so it makes no contact, and a finish
    changes only where the sweeps start from: the step still ends after a
    sweep that moves nothing, with the same residual and ``sweep_tol``.
    Bounded runs (no closed-form Jacobian) take the plain sweeps, as does any
    step whose sweeps land at barriers.
    """
    table = _StepTable(pts, shear, ctx)
    newton = ctx.mode == "freespace"
    last = None
    for _ in range(solver_cfg.max_sweeps):
        landed, crossed = {}, True
        for ordered in orders:
            for k, i in enumerate(ordered):
                f = table.forces()[i]
                if abs(f) <= 1.0 + 1e-12:
                    continue
                direction = 1.0 if f > 0 else -1.0
                lower, upper = _barriers(pts[:, 0], ordered, k, box, r_n)
                barrier = upper if direction > 0 else lower
                if (barrier - pts[i, 0]) * direction <= 1e-15:
                    continue
                pts[i, 0] = _land_position(table.probe(i), pts[i, 0], f, direction,
                                           barrier, solver_cfg.line_grid)
                table.moved(i)
                landed[i] = direction
                crossed = crossed and pts[i, 0] != barrier
        moved = bool(landed)
        if not moved:
            break
        if newton and crossed and landed == last:
            _newton_finish(table, landed, orders, box, r_n)
            last = None
        else:
            last = landed if crossed else None
    forces = table.forces()
    table.hand_back()
    return _residual_from_forces(pts[:, 0], forces, orders, box, r_n), moved


def incremental_step(prev: DislocationConfig, t: float, load: LoadingProgram,
                     solver_cfg: SolverConfig, ctx: EnergyContext) -> DislocationConfig:
    """One incremental minimization step of energy plus transport cost.

    The vertical marginal is preserved exactly (only horizontal coordinates
    move).  Motion follows the threshold rule, so every elementary move pays
    for its own dissipation and the minimality inequality against the previous
    state holds along the whole sweep.
    """
    prev = prev.canonical_order()
    pts = prev.points.copy()
    resid, moving = _sweep_to_stability(pts, float(load.sigma(t)), ctx, solver_cfg, prev.box,
                                        prev.r_n, prev.plane_orders())
    if not resid <= solver_cfg.sweep_tol:
        cause = (f"max_sweeps = {solver_cfg.max_sweeps} ran out, the last sweep still moved"
                 if moving else "no single dislocation can move while the residual exceeds "
                 "sweep_tol, so a run in contact must move together")
        raise RuntimeError(
            f"incremental step failed to reach stability (residual {resid:.3e}): {cause}")
    try:
        return prev.with_points(pts)
    except ValueError:                  # the barriers keep r_n on each plane alone
        i = min(range(1, len(pts)), key=lambda i: np.hypot(*(pts[:i] - pts[i]).T).min())
        j = int(np.argmin(np.hypot(*(pts[:i] - pts[i]).T)))
        raise RuntimeError(
            f"incremental step broke r_n = {prev.r_n:.3e} across the planes y = {pts[j, 1]:.6g} "
            f"and {pts[i, 1]:.6g}: the dislocations at x = {pts[j, 0]:.6g} and {pts[i, 0]:.6g} "
            f"end {np.hypot(*(pts[i] - pts[j])):.3e} apart; the sweep keeps r_n only between "
            "neighbours on one plane") from None


@dataclass
class EvolutionTrace:
    """Record of one quasi-static run."""

    times: np.ndarray
    configs: list
    step_d: np.ndarray
    energies: np.ndarray            # renormalized energies, no load term
    forces: list

    @property
    def dissipation(self) -> np.ndarray:
        return np.cumsum(self.step_d)

    def positions(self) -> np.ndarray:
        return np.stack([c.points for c in self.configs])


def run_quasistatic(init: DislocationConfig, times, load: LoadingProgram,
                    solver_cfg: SolverConfig, ctx: EnergyContext,
                    pre_relax: bool = False) -> EvolutionTrace:
    """Sequential incremental minimization over a time grid.

    The initial configuration must satisfy the stability condition at the
    first time; pass ``pre_relax=True`` to replace it by the result of an
    incremental step at that time instead.
    """
    times = np.asarray(times, dtype=float)
    init = init.canonical_order()
    t0 = float(times[0])
    if pre_relax:
        init = incremental_step(init, t0, load, solver_cfg, ctx)
    forces = [driving_force(init, t0, load, ctx)]
    if not pre_relax:
        resid = stability_excess(init, forces[0])
        if not resid <= max(solver_cfg.sweep_tol, 1e-9):
            raise ValueError(
                f"initial configuration unstable (residual {resid:.3e}); "
                "relax it first or pass pre_relax=True")
    configs = [init]
    step_d = [0.0]
    energies = [ctx.renormalized_energy(init)]
    for t in times[1:]:
        new = incremental_step(configs[-1], float(t), load, solver_cfg, ctx)
        step_d.append(slip_distance(new.measure(), configs[-1].measure()))
        energies.append(ctx.renormalized_energy(new))
        forces.append(driving_force(new, float(t), load, ctx))
        configs.append(new)
    return EvolutionTrace(times=times, configs=configs,
                          step_d=np.array(step_d), energies=np.array(energies),
                          forces=forces)


def energy_balance_series(trace: EvolutionTrace, load: LoadingProgram) -> np.ndarray:
    """Per-time deviation from the energy balance (trapezoid work integral)."""
    times = trace.times
    m = len(times)
    load_vals = np.array([float(np.mean(load.potential(float(times[k]),
                                                       trace.configs[k].points)))
                          for k in range(m)])
    fdot_vals = np.array([float(np.mean(load.potential_dot(float(times[k]),
                                                           trace.configs[k].points)))
                          for k in range(m)])
    lhs = trace.energies - load_vals + trace.dissipation
    work = np.concatenate([[0.0], np.cumsum(
        0.5 * (fdot_vals[1:] + fdot_vals[:-1]) * np.diff(times))])
    rhs = (trace.energies[0] - load_vals[0]) - work
    return np.abs(lhs - rhs)


def energy_balance_residual(trace: EvolutionTrace, load: LoadingProgram) -> float:
    """Worst deviation from the energy balance along the trace."""
    return float(np.max(energy_balance_series(trace, load)))


def flow_rule_steps(trace: EvolutionTrace, motion_tol: float = 1e-9) -> np.ndarray:
    """Per-step complementarity defect: moving dislocations must see unit force.

    Forces are taken at the arrival state; at a barrier reached (a box edge
    or a plane neighbour +- r_n, ``_barriers``) the force toward it is
    clamped to the threshold (one-sided convention for pinned dislocations).
    """
    out = np.zeros(len(trace.times))
    for k in range(1, len(trace.times)):
        config = trace.configs[k]
        x = config.points[:, 0]
        dx = x - trace.configs[k - 1].points[:, 0]
        f = _one_sided(x, trace.forces[k].values,
                       _all_barriers(x, config.plane_orders(), config.box, config.r_n))
        defect = np.abs(f * dx - np.abs(dx))
        out[k] = np.max(defect[np.abs(dx) > motion_tol], initial=0.0)
    return out


def flow_rule_residual(trace: EvolutionTrace, motion_tol: float = 1e-9) -> float:
    """Worst per-step complementarity defect along the trace."""
    return float(np.max(flow_rule_steps(trace, motion_tol)))
