"""Outside-in tracing of slipdyn's layers for the benchmark's traced passes.

The program has no instrumentation of its own, so the traced pass wraps the
public functions of each layer where their callers look them up: a function
bound by ``from .x import y`` is patched in the importing module, and methods
are patched on their class.  Spans (name, start, end, parent, op id) are kept
in memory and written once the pass ends; counters are kept next to them.
Nested calls of a span name that is already open get no span of their own, so
busy times never count one interval twice.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("kernels", "interaction", "corrector", "evolution", "transport",
           "recovery", "experiments")

# span names whose busy time is reported, and the counters reported per layer
BUSY = ("kernels.K_many", "interaction.cross_matrix", "interaction.sum",
        "interaction.continuum", "corrector.solve", "corrector.linear_form",
        "evolution.step", "evolution.iforce", "evolution.cforce",
        "evolution.energy", "transport.slip_distance", "transport.lp",
        "transport.dual", "recovery.grid", "recovery.discretize",
        "recovery.snap", "experiments.simulate", "experiments.gamma",
        "experiments.distance")
COUNTERS = ("kernels.K_many.calls", "kernels.K_many.points",
            "interaction.cross_matrix.calls", "interaction.cross_matrix.pairs",
            "corrector.solve.calls", "corrector.linear_form.atoms",
            "evolution.steps", "evolution.force_evals", "evolution.moving_steps",
            "transport.slip_distance.calls", "transport.lp.calls",
            "transport.lp.vars", "recovery.snap.atoms")


class Recorder:
    """Spans and counters of one pass, held in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._open: set[str] = set()

    def call(self, name, fn, args, kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        self._open.add(name)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self) -> dict:
        """Counters, busy time per span name and self time per module."""
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            busy[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += (t1 - t0) - child[k]
        out = {c: float(self.counts[c]) for c in COUNTERS}
        for name in BUSY:
            out[f"{name}.busy_s"] = busy[name]
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_s[mod]
        moving = self.counts["evolution.moving_steps"]
        out["evolution.force_evals_per_moving_step"] = (
            self.counts["evolution.force_evals"] / moving if moving else 0.0)
        return out


def _wrap(rec, owner, attr, name=None, count=None):
    """Replace ``owner.attr`` by a wrapper that counts and/or opens a span."""
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if count is not None:
            count(*args, **kwargs)
        if name is None:
            return orig(*args, **kwargs)
        return rec.call(name, orig, args, kwargs)

    wrapper.__wrapped__ = orig
    setattr(owner, attr, wrapper)


def _atoms(measure, q) -> int:
    """Atom count of a measure as the corrector's linear form sees it."""
    from slipdyn.measures import CellMeasure
    if isinstance(measure, CellMeasure):
        return measure.n_cells * q.density_gauss ** 2
    return len(measure.points)


def install(rec: Recorder) -> None:
    """Patch every traced boundary of slipdyn to report into ``rec``."""
    import slipdyn.corrector as corrector
    import slipdyn.evolution as evolution
    import slipdyn.experiments as experiments
    import slipdyn.interaction as interaction
    import slipdyn.transport as transport

    c = rec.counts

    def k_many(xs, z, mat):
        c["kernels.K_many.calls"] += 1
        c["kernels.K_many.points"] += len(np.asarray(xs).reshape(-1, 2))

    for mod in (interaction, corrector):
        _wrap(rec, mod, "K_many", "kernels.K_many", k_many)

    def cross(ys, zs, *rest):
        c["interaction.cross_matrix.calls"] += 1
        c["interaction.cross_matrix.pairs"] += (
            len(np.asarray(ys).reshape(-1, 2)) * len(np.asarray(zs).reshape(-1, 2)))

    for mod in (interaction, evolution):
        _wrap(rec, mod, "interaction_cross_matrix", "interaction.cross_matrix", cross)
    _wrap(rec, experiments, "interaction_sum", "interaction.sum")
    _wrap(rec, experiments, "continuum_interaction", "interaction.continuum")
    _wrap(rec, experiments, "continuum_interaction_freespace",
          "interaction.continuum")

    def solve(self, measure):
        c["corrector.solve.calls"] += 1

    def linear_form(self, measure):
        c["corrector.linear_form.atoms"] += _atoms(measure, self.q)

    _wrap(rec, corrector.CorrectorSolver, "solve", "corrector.solve", solve)
    _wrap(rec, corrector.CorrectorSolver, "linear_form", "corrector.linear_form",
          linear_form)

    step_orig = evolution.incremental_step

    def step(prev, *args, **kwargs):
        c["evolution.steps"] += 1
        new = rec.call("evolution.step", step_orig, (prev,) + args, kwargs)
        if not np.array_equal(new.points, prev.canonical_order().points):
            c["evolution.moving_steps"] += 1
        return new

    evolution.incremental_step = step

    def force_single(*args, **kwargs):
        c["evolution.force_evals"] += 1

    def forces_at(pts, *args, **kwargs):
        c["evolution.force_evals"] += len(pts)

    _wrap(rec, evolution, "_force_single", count=force_single)
    _wrap(rec, evolution, "_forces_at", count=forces_at)
    ctx = evolution.EnergyContext
    for attr in ("interaction_forces", "interaction_force_single"):
        _wrap(rec, ctx, attr, "evolution.iforce")
    for attr in ("corrector_forces", "corrector_force_single"):
        _wrap(rec, ctx, attr, "evolution.cforce")
    _wrap(rec, ctx, "renormalized_energy", "evolution.energy")

    def slip(*args, **kwargs):
        c["transport.slip_distance.calls"] += 1

    for mod in (experiments, evolution):
        _wrap(rec, mod, "slip_distance", "transport.slip_distance", slip)

    def lp(mu, nu, cost):
        c["transport.lp.calls"] += 1
        c["transport.lp.vars"] += mu.n_atoms * nu.n_atoms

    _wrap(rec, transport, "_transport_lp", "transport.lp", lp)
    _wrap(rec, experiments, "dual_lower_bound", "transport.dual")

    _wrap(rec, experiments, "grid_approximation", "recovery.grid")
    _wrap(rec, experiments, "discretize_grid", "recovery.discretize")

    def snap(cfg, eta):
        c["recovery.snap.atoms"] += cfg.n

    _wrap(rec, experiments, "snap_modification", "recovery.snap", snap)
