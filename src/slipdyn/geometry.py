"""Domain geometry: the elastic body, the confinement box, and the gauge ball."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def diam(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, p, tol: float = 0.0):
        """Whether p lies in the rectangle widened by tol: one point gives a
        bool, an (n, 2) array a mask.  NaN coordinates lie outside."""
        if np.ndim(p) == 1:
            x, y = float(p[0]), float(p[1])
        else:
            p = np.asarray(p, dtype=float)
            x, y = p[:, 0], p[:, 1]
        return ((self.x0 - tol <= x) & (x <= self.x1 + tol)
                & (self.y0 - tol <= y) & (y <= self.y1 + tol))

    def contains_rect(self, other: "Rect", tol: float = 0.0) -> bool:
        return (self.x0 - tol <= other.x0 and other.x1 <= self.x1 + tol
                and self.y0 - tol <= other.y0 and other.y1 <= self.y1 + tol)

    def boundary_distance(self, p) -> float:
        """Distance from an interior point to the rectangle boundary."""
        x, y = float(p[0]), float(p[1])
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    def corners(self) -> np.ndarray:
        return np.array([[self.x0, self.y0], [self.x1, self.y0],
                         [self.x1, self.y1], [self.x0, self.y1]])


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("disk radius must be positive")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])


@dataclass(frozen=True)
class Geometry:
    """The elastic domain Omega, the dislocation box R, and the gauge ball B.

    The box has distance ``ell`` from the domain boundary; the gauge ball sits
    in the strip of width ell/2 along the boundary, so it never meets the box.
    """

    omega: Rect
    r_box: Rect
    ball: Disk

    def __post_init__(self):
        if not self.omega.contains_rect(self.r_box):
            raise ValueError("confinement box must lie inside the domain")
        if self.ell <= 0:
            raise ValueError("confinement box must keep positive distance from the boundary")
        c = self.ball.center
        d_center = self.omega.boundary_distance(c)
        if d_center <= self.ball.r:
            raise ValueError("gauge ball must lie inside the domain")
        if d_center + self.ball.r > self.ell / 2 + 1e-12:
            raise ValueError("gauge ball must stay within ell/2 of the domain boundary")

    @property
    def ell(self) -> float:
        o, r = self.omega, self.r_box
        return min(r.x0 - o.x0, o.x1 - r.x1, r.y0 - o.y0, o.y1 - r.y1)


def unit_geometry() -> Geometry:
    """Default desk-scale geometry: unit square, centered box, gauge ball near the left wall."""
    return Geometry(
        omega=Rect(0.0, 0.0, 1.0, 1.0),
        r_box=Rect(0.2, 0.2, 0.8, 0.8),
        ball=Disk(0.06, 0.5, 0.03),
    )


def wide_geometry() -> Geometry:
    """Larger domain whose confinement box contains a unit square."""
    return Geometry(
        omega=Rect(0.0, 0.0, 2.0, 2.0),
        r_box=Rect(0.4, 0.4, 1.6, 1.6),
        ball=Disk(0.12, 1.0, 0.06),
    )
