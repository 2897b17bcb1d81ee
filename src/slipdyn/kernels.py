"""Plane-strain elastic fields of a single edge dislocation with Burgers vector e1.

All 2x2 strain values are plain ``float64`` ndarrays of shape (2, 2); vectorized
helpers return shape (N, 2, 2).  The singular field K and its core-regularized
variant Kn satisfy (numerically checked in the test suite)

    div C K = 0  away from the source,
    circulation of K around any circle about the source = e1,
    C Kn nu = 0  on the circle of radius eps about the source.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: evaluations closer to the source than this raise a domain error
MIN_SEPARATION = 1e-12


@dataclass(frozen=True)
class Material:
    """Isotropic Lame constants, dimensionless units."""

    lam: float
    mu: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("shear modulus mu must be positive and finite")
        if not 0 <= self.lam + self.mu < math.inf:
            raise ValueError("lam + mu must be nonnegative and finite")

    @property
    def coef_a(self) -> float:
        """mu / (2 pi (lam + 2 mu)) -- weight of the log term of the displacement."""
        return self.mu / (2.0 * math.pi * (self.lam + 2.0 * self.mu))

    @property
    def coef_b(self) -> float:
        """(lam + mu) / (4 pi (lam + 2 mu)) -- weight of the rational terms."""
        return (self.lam + self.mu) / (4.0 * math.pi * (self.lam + 2.0 * self.mu))

    @property
    def log_coef(self) -> float:
        """mu (lam + mu) / (pi (lam + 2 mu)) -- leading coefficient of the
        pair interaction, -log_coef * log|y - z| at short range."""
        return self.mu * (self.lam + self.mu) / (math.pi * (self.lam + 2.0 * self.mu))


@dataclass(frozen=True)
class CoreRadius:
    """Core cut-off radius; eps = 0 degenerates Kn to K."""

    eps: float

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("core radius must be nonnegative")


def _as_offsets(u) -> tuple[np.ndarray, bool]:
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 1
    return np.atleast_2d(u), scalar


def _check_separation(r2: np.ndarray):
    if np.any(r2 < MIN_SEPARATION**2):
        raise ValueError("field evaluated at (or too close to) the dislocation core")


def displacement_v(u, mat: Material) -> np.ndarray:
    """Single-valued part v of the dislocation displacement, at offsets u from the source."""
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    a, b = mat.coef_a, mat.coef_b
    out = np.empty_like(us)
    out[:, 0] = 2.0 * b * u1 * u2 / r2
    out[:, 1] = -a * 0.5 * np.log(r2) - b * (u1 * u1 - u2 * u2) / r2
    return out[0] if scalar else out


def grad_v(u, mat: Material) -> np.ndarray:
    """Gradient of v, entries M[i, j] = d v_i / d u_j (hand-derived closed form)."""
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    r4 = r2 * r2
    a, b = mat.coef_a, mat.coef_b
    g = np.empty((len(us), 2, 2))
    g[:, 0, 0] = 2.0 * b * u2 * (u2 * u2 - u1 * u1) / r4
    g[:, 0, 1] = 2.0 * b * u1 * (u1 * u1 - u2 * u2) / r4
    g[:, 1, 0] = -a * u1 / r2 - 4.0 * b * u1 * u2 * u2 / r4
    g[:, 1, 1] = -a * u2 / r2 + 4.0 * b * u1 * u1 * u2 / r4
    return g[0] if scalar else g


def displacement_w(u, mat: Material) -> np.ndarray:
    """Core-correction displacement w at offsets u from the source.

    Normalized so that C (K + eps^2 grad w) nu vanishes identically on the
    circle of radius eps; the test suite pins this cancellation directly.
    """
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    r4 = r2 * r2
    b = mat.coef_b
    out = np.empty_like(us)
    out[:, 0] = -2.0 * b * u1 * u2 / r4
    out[:, 1] = b * (u1 * u1 - u2 * u2) / r4
    return out[0] if scalar else out


def grad_w(u, mat: Material) -> np.ndarray:
    """Gradient of w (hand-derived closed form)."""
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    r6 = r2 * r2 * r2
    b = mat.coef_b
    g = np.empty((len(us), 2, 2))
    g[:, 0, 0] = -2.0 * b * u2 * (u2 * u2 - 3.0 * u1 * u1) / r6
    g[:, 0, 1] = -2.0 * b * u1 * (u1 * u1 - 3.0 * u2 * u2) / r6
    g[:, 1, 0] = 2.0 * b * u1 * (3.0 * u2 * u2 - u1 * u1) / r6
    g[:, 1, 1] = -2.0 * b * u2 * (3.0 * u1 * u1 - u2 * u2) / r6
    return g[0] if scalar else g


def K_offsets(u, mat: Material) -> np.ndarray:
    """Strain field K at offsets u = x - z from the source."""
    us, scalar = _as_offsets(u)
    u1, u2 = us[:, 0], us[:, 1]
    r2 = u1 * u1 + u2 * u2
    _check_separation(r2)
    k = grad_v(us, mat)
    two_pi_r2 = 2.0 * math.pi * r2
    k[:, 0, 0] += -u2 / two_pi_r2
    k[:, 0, 1] += u1 / two_pi_r2
    return k[0] if scalar else k


def eval_K(x, z, mat: Material) -> np.ndarray:
    """Strain K(x; z) of a dislocation sitting at z (whole-plane field): shape
    (2, 2) at one point x, (N, 2, 2) at a batch of N points."""
    return K_offsets(np.asarray(x, dtype=float) - np.asarray(z, dtype=float), mat)


K_many = eval_K     # the batch name: perfbench/tracing.py counts batches by it


def eval_Kn(x, z, core: CoreRadius, mat: Material) -> np.ndarray:
    """Core-regularized strain Kn = K + eps^2 grad w."""
    u = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    k = K_offsets(u, mat)
    if core.eps != 0.0:
        k = k + core.eps**2 * grad_w(u, mat)
    return k


def apply_C(F, mat: Material) -> np.ndarray:
    """Isotropic stress action, C F = lam tr(sym F) Id + 2 mu sym F."""
    F = np.asarray(F, dtype=float)
    sym = 0.5 * (F + np.swapaxes(F, -1, -2))
    tr = np.trace(sym, axis1=-2, axis2=-1)
    out = 2.0 * mat.mu * sym
    out[..., 0, 0] += mat.lam * tr
    out[..., 1, 1] += mat.lam * tr
    return out


def circulation(z, r: float, field, quad_n: int = 256) -> np.ndarray:
    """Contour integral of (field . tau) around the circle of radius r about z.

    Composite trapezoid on the periodic parametrization; spectrally accurate
    for smooth fields.  ``field`` maps a point to a 2x2 matrix.
    """
    if r <= 0:
        raise ValueError("circle radius must be positive")
    z = np.asarray(z, dtype=float)
    theta = 2.0 * math.pi * np.arange(quad_n) / quad_n
    tang = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    pts = z + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    acc = np.zeros(2)
    for p, t in zip(pts, tang):
        acc += np.asarray(field(p)) @ t
    return acc * (2.0 * math.pi * r / quad_n)


def divergence_residual(field, x, mat: Material, h: float) -> float:
    """Central finite-difference |div C field| at x; zero for equilibrated fields."""
    x = np.asarray(x, dtype=float)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    sxp = apply_C(np.asarray(field(x + e1)), mat)
    sxm = apply_C(np.asarray(field(x - e1)), mat)
    syp = apply_C(np.asarray(field(x + e2)), mat)
    sym_ = apply_C(np.asarray(field(x - e2)), mat)
    d1 = (sxp[0, 0] - sxm[0, 0]) / (2 * h) + (syp[0, 1] - sym_[0, 1]) / (2 * h)
    d2 = (sxp[1, 0] - sxm[1, 0]) / (2 * h) + (syp[1, 1] - sym_[1, 1]) / (2 * h)
    return math.hypot(d1, d2)
