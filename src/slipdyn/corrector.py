"""Boundary corrector: constrained Ritz minimization of the corrector functional.

The corrector displacement v minimizes

    I(v) = 1/2 int_Omega C grad v : grad v dx
         + int int_{dOmega} (C K(x; y) nu(x)) . v(x) dH(x) dmu(y)

over H^1 fields with zero mean and zero mean rotation on the gauge ball.  The
trial space is a tensor Legendre polynomial space per displacement component;
the two gauge conditions (vector mean, scalar mean rotation) enter through
Lagrange multipliers.  At the minimum I(v) = (1/2) b . v, with b the boundary
linear form, which the solver returns as the corrector energy (always <= 0).

The stiffness is Kronecker products of the exact 1-D Legendre mass and
derivative matrices (Shen, SIAM J. Sci. Comput. 15, 1994), and the gauge rows
are (d + 1) x (d + 1) products of 1-D Legendre values and derivatives at the
gauge ball's points: no tensor basis is formed for either.  The boundary
integral runs on the Gauss grid of the interaction route
(``interaction._boundary_grid``), fixed at construction, so no solve depends on
an earlier one.  Its weighted tractions are columns of the closed-form boundary
rows, summed alone in ``linear_form`` (``interaction._row_sum``) or taken from
the interaction's pass (``solve_traction``); the forces contract the
displacement on the grid (``boundary_displacement``) with the sources'
y_1-derivative tractions.  At
construction the grid must resolve the tractions of the admitted sources
closest to the boundary to ``quadrature.tol``; otherwise it raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve

from .geometry import Geometry, Rect
from .interaction import (QuadratureConfig, _boundary_grid, _boundary_rows, _grid_arrays,
                          _row_sum)
from .kernels import Material, K_many  # noqa: F401  (perfbench/tracing.py patches K_many here)
from .measures import CellMeasure, DiscreteMeasure, DislocationConfig

__all__ = ["RitzBasis", "CorrectorSolution", "CorrectorSolver",
           "get_solver", "solve_corrector"]


@dataclass(frozen=True)
class RitzBasis:
    """Tensor polynomial degree per displacement component."""

    degree: int = 8

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("basis degree must be at least 1")


@dataclass(frozen=True)
class CorrectorSolution:
    coefficients: np.ndarray
    energy: float
    gauge_residual: float


def _legendre_values(t: np.ndarray, deg: int):
    """Values and derivatives of L_0..L_deg at reference points t in [-1, 1]."""
    return (_leg.legvander(t, deg),
            _leg.legvander(t, deg - 1) @ _leg.legder(np.eye(deg + 1)))


def as_weighted_atoms(measure, q: QuadratureConfig):
    """Measure as weighted point masses; cell densities become per-cell Gauss atoms."""
    if isinstance(measure, DislocationConfig):
        n = measure.n
        return measure.points, np.full(n, 1.0 / n)
    if isinstance(measure, DiscreteMeasure):
        return measure.points, measure.weights
    if isinstance(measure, CellMeasure):
        nodes, w = measure.gauss_nodes(q.density_gauss)
        return nodes.reshape(-1, 2), (w[None, :] * measure.masses[:, None]).ravel()
    raise TypeError(f"unsupported measure type {type(measure)!r}")


class CorrectorSolver:
    """Assembled stiffness + gauge constraints for one (geometry, material, basis).

    The factorized saddle-point system and the basis values on the boundary
    grid are reused across measures; only the boundary linear form is
    reassembled per call.
    """

    def __init__(self, geom: Geometry, mat: Material, basis: RitzBasis,
                 q: QuadratureConfig):
        self.geom = geom
        self.mat = mat
        self.basis = basis
        self.q = q
        self.n_scalar = (basis.degree + 1) ** 2
        self.n_dof = 2 * self.n_scalar
        self._assemble_stiffness()
        self._assemble_constraints()
        self._lu = lu_factor(np.block([[self.A, self.C.T],
                                       [self.C, np.zeros((3, 3))]]))
        self._grid = _boundary_grid(geom.omega, q.boundary_points)
        self._vals = self._scalar_basis(self._grid["gauss_pts"])
        self._check_resolution()

    # -- geometry mapping -------------------------------------------------
    def _to_ref(self, xs):
        o = self.geom.omega
        t1 = 2 * (xs[:, 0] - o.x0) / o.width - 1
        t2 = 2 * (xs[:, 1] - o.y0) / o.height - 1
        return t1, t2

    def _scalar_basis(self, xs):
        """Scalar tensor-Legendre values L_a(t_1) L_b(t_2) at points, (n, (d + 1)^2)."""
        t1, t2 = self._to_ref(np.asarray(xs, dtype=float))
        V1, V2 = (_leg.legvander(t, self.basis.degree) for t in (t1, t2))
        return np.einsum("na,nb->nab", V1, V2).reshape(len(t1), -1)

    def _assemble_stiffness(self):
        """A = int C grad phi : grad phi in closed form, with no quadrature.

        The exact 1-D Legendre matrices on [-1, 1] are M = int L_i L_j =
        diag 2/(2i+1), S = int L_i' L_j' = m(m+1) (m = min(i, j), i+j even) and
        P = int L_i' L_j = 2 (i > j, i-j odd).  With h_x, h_y the half-sides of
        Omega the gradient blocks are the Kronecker products D_xx = S/h_x (x) M h_y,
        D_yy = M h_x (x) S/h_y and D_xy = P (x) P^T; A is exactly symmetric.
        """
        o = self.geom.omega
        hx, hy = o.width / 2, o.height / 2
        k = np.arange(self.basis.degree + 1)
        i, j = k[:, None], k[None, :]
        m = np.minimum(i, j)
        M = np.diag(2.0 / (2 * k + 1))
        S = np.where((i + j) % 2 == 0, m * (m + 1), 0.0)
        P = np.where((i > j) & ((i - j) % 2 == 1), 2.0, 0.0)
        Dxx, Dyy, Dxy = np.kron(S / hx, M * hy), np.kron(M * hx, S / hy), np.kron(P, P.T)
        lam, mu = self.mat.lam, self.mat.mu
        self.A = np.block([[(lam + 2 * mu) * Dxx + mu * Dyy, lam * Dxy + mu * Dxy.T],
                           [lam * Dxy.T + mu * Dxy, (lam + 2 * mu) * Dyy + mu * Dxx]])

    def _assemble_constraints(self):
        """Vector mean and mean rotation over the gauge ball, as products of 1-D
        Legendre values V_i and derivatives D_i at its points: V_1^T diag(W) V_2."""
        ball = self.geom.ball
        deg = self.basis.degree
        nr = deg + 2
        ntheta = 4 * deg + 8
        gr, gwr = leggauss(nr)
        rr = ball.r * (gr + 1) / 2
        wr = gwr * ball.r / 2
        th = 2 * math.pi * np.arange(ntheta) / ntheta
        wth = 2 * math.pi / ntheta
        R, TH = np.meshgrid(rr, th, indexing="ij")
        X = ball.cx + R * np.cos(TH)
        Y = ball.cy + R * np.sin(TH)
        W = (np.outer(wr * rr, np.full(ntheta, wth))).ravel()
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        (V1, D1), (V2, D2) = (_legendre_values(t, deg) for t in self._to_ref(pts))
        WV2 = W[:, None] * V2
        ints = (V1.T @ WV2).ravel()
        int_gx = (D1.T @ WV2).ravel() * (2 / self.geom.omega.width)
        int_gy = (V1.T @ (W[:, None] * D2)).ravel() * (2 / self.geom.omega.height)
        zero = np.zeros(self.n_scalar)
        self.C = np.block([[ints, zero], [zero, ints], [0.5 * int_gy, -0.5 * int_gx]])

    # -- boundary linear form ---------------------------------------------
    def _check_resolution(self):
        """Reject a boundary grid that does not resolve the admitted tractions.

        The sources closest to the boundary are the corners of Omega shrunk by
        ``ell``.  Their linear forms must agree to the configured tolerance
        with those of the same Gauss rule on both halves of every edge (twice
        the points per edge; a fresh rule of twice the order would need
        ``leggauss`` at that order, the slowest part of building a grid).
        """
        o, ell, grid = self.geom.omega, self.geom.ell, self._grid
        edge = np.repeat(np.arange(4), self.q.boundary_points)
        corners, pts = o.corners(), grid["gauss_pts"]
        fine = _grid_arrays(np.concatenate([(pts + corners[edge]) / 2,
                                            (pts + corners[(edge + 1) % 4]) / 2]),
                            np.tile(grid["gauss_w"] / 2, 2), np.tile(grid["gauss_nu"], (2, 1)))
        fine_vals = self._scalar_basis(fine["gauss_pts"])
        corners = Rect(o.x0 + ell, o.y0 + ell, o.x1 - ell, o.y1 - ell).corners()
        for row, row2 in zip(_boundary_rows(grid, corners, self.mat),
                             _boundary_rows(fine, corners, self.mat)):
            b = (self._vals.T @ row[:, :2]).T.ravel()
            b2 = (fine_vals.T @ row2[:, :2]).T.ravel()
            if np.max(np.abs(b2 - b)) > self.q.tol * max(1.0, np.max(np.abs(b2))):
                raise ValueError(
                    f"quadrature.boundary_points = {self.q.boundary_points} does not "
                    f"resolve the corrector's boundary form to tol = {self.q.tol}")

    def _check_margin(self, support):
        o = self.geom.omega
        margin = np.minimum(support - (o.x0, o.y0), (o.x1, o.y1) - support)
        if not np.all(margin >= self.geom.ell - 1e-9):   # NaN fails too
            raise ValueError("measure support violates the boundary margin")

    def linear_form(self, measure) -> np.ndarray:
        """Boundary work of the measure's traction against the basis: the
        first two columns of its summed boundary row (``_row_sum``, the rows
        of ``_boundary_sums`` without the columns) on the Gauss grid of the
        interaction route, checked at construction.
        """
        atoms, weights = as_weighted_atoms(measure, self.q)
        self._check_margin(atoms)
        traction = _row_sum(self._grid, atoms, weights, self.mat)[:, :2]
        return (self._vals.T @ traction).T.ravel()

    def solve(self, measure) -> CorrectorSolution:
        return self._solve(self.linear_form(measure))

    def solve_traction(self, traction, support) -> CorrectorSolution:
        """``solve`` from the summed weighted traction, shape (ng, 2), of the
        sources at ``support``: the first two columns of their summed boundary
        row (``interaction._boundary_sums``)."""
        self._check_margin(np.reshape(support, (-1, 2)))
        return self._solve((self._vals.T @ traction).T.ravel())

    def _solve(self, b) -> CorrectorSolution:
        rhs = np.zeros(self.n_dof + 3)
        rhs[:self.n_dof] = -np.asarray_chkfinite(b)
        sol = lu_solve(self._lu, rhs, check_finite=False, overwrite_b=True)
        u = sol[:self.n_dof]
        energy = 0.5 * float(b @ u)
        gauge = float(np.max(np.abs(self.C @ u)))
        if energy > 1e-12:
            raise RuntimeError(f"corrector energy {energy} positive; zero field is admissible")
        return CorrectorSolution(coefficients=u, energy=energy, gauge_residual=gauge)

    def boundary_displacement(self, solution: CorrectorSolution) -> np.ndarray:
        """Corrector displacement of a solution on the boundary grid, shape
        (ng, 2).  By the envelope theorem (dE/dz = (db/dz) . u at the minimizer
        u), a source's horizontal force is minus its y_1-derivative traction
        against it."""
        return self._vals @ solution.coefficients.reshape(2, -1).T


@lru_cache(maxsize=None)
def get_solver(geom: Geometry, mat: Material, basis: RitzBasis,
               q: QuadratureConfig) -> CorrectorSolver:
    return CorrectorSolver(geom, mat, basis, q)


def solve_corrector(measure, geom: Geometry, mat: Material, basis: RitzBasis,
                    q: QuadratureConfig) -> CorrectorSolution:
    """Minimize the corrector functional for the given measure."""
    return get_solver(geom, mat, basis, q).solve(measure)

