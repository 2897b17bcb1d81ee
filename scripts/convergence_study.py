#!/usr/bin/env python3
"""Extended energy-convergence study: longer n-ladder, both interaction modes.

Prints the per-n energy error against the cell-density limit and the fitted
decay exponent.  Useful for checking how close the discrete energies get to
the limit functional beyond the acceptance ladder.

Usage: python scripts/convergence_study.py [--mode bounded|freespace]
"""
import argparse
import time

import numpy as np

from slipdyn.corrector import RitzBasis
from slipdyn.evolution import EnergyContext
from slipdyn.geometry import Rect, unit_geometry
from slipdyn.interaction import QuadratureConfig
from slipdyn.kernels import Material
from slipdyn.measures import ScalingSchedule
from slipdyn.recovery import UniformDensity, discretize_grid, grid_approximation


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("bounded", "freespace"), default="bounded")
    ap.add_argument("--ladder", type=int, nargs="+",
                    default=[64, 144, 256, 576, 1024, 2304])
    args = ap.parse_args()

    geom = unit_geometry()
    mat = Material(1.0, 1.0)
    quad = QuadratureConfig()
    basis = RitzBasis(8)
    schedule = ScalingSchedule()
    target = UniformDensity(Rect(0.3, 0.3, 0.7, 0.7))
    density = grid_approximation(target, 0.2, geom, origin=(0.3, 0.3))

    ctx = EnergyContext(args.mode, mat, geom, quad, basis)
    t0 = time.time()
    f_limit = ctx.renormalized_energy(density)
    print(f"limit energy: {f_limit:.8f}  ({time.time() - t0:.1f}s)")

    errors = []
    for n in args.ladder:
        t0 = time.time()
        cfg = discretize_grid(density, n, schedule, geom)
        f_n = ctx.renormalized_energy(cfg)
        err = abs(f_n - f_limit)
        errors.append(err)
        print(f"n={n:6d}  F_n={f_n:.8f}  |F_n - F| = {err:.3e}  "
              f"({time.time() - t0:.1f}s)")

    ns = np.array(args.ladder, dtype=float)
    slope = np.polyfit(np.log(ns), np.log(np.array(errors)), 1)[0]
    print(f"fitted decay exponent: {slope:.2f} (n log n / n reference: about -1)")


if __name__ == "__main__":
    main()
