"""Declarative experiment configuration: JSON with a strict, versioned schema.

Each section is one table ``{key: (default, parse)}``, so a key's default and
its check sit in one entry: ``parse(value, "section.key")`` returns the typed
value, default included, or raises a ConfigError naming the key.  Unknown keys
are rejected.  Numbers are in the nondimensional units of the model (yield
threshold 1).  See README for the full schema and the shipped example configs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corrector import RitzBasis
from .geometry import Disk, Geometry, Rect
from .interaction import QuadratureConfig
from .kernels import Material
from .measures import DiscreteMeasure, ScalingSchedule
from .evolution import LoadingProgram, SolverConfig

SCHEMA_VERSION = 1

EXPERIMENTS = ("simulate", "gamma", "distance", "kernel_check")


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _take(section: dict, name: str, table: dict) -> dict:
    """The values of a section, each read by the parser of its table entry
    ``key: (default, parse)``; a missing key takes its default, and a key that
    is not in the table is rejected.  The top level has the empty ``name``."""
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name or 'top'}' must be a JSON object")
    extra = set(section) - set(table)
    if extra:
        raise ConfigError(f"unknown keys in section '{name or 'top'}': {sorted(extra)}")
    out = {}
    for key, (default, parse) in table.items():
        if default is _REQUIRED and key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name or 'top'}'")
        out[key] = parse(section.get(key, default), f"{name}.{key}" if name else key)
    return out


def _leaves(value) -> list:
    """The scalars of a JSON value, lists flattened."""
    return [x for v in value for x in _leaves(v)] if isinstance(value, list) else [value]


def _cast(cast, value, key: str):
    """``cast(value)``; a value of the wrong type or shape is a config error, as
    is a string or a boolean anywhere in a number (any cast but ``str``) and a
    non-integral ``int``."""
    if cast is not str and any(isinstance(v, (str, bool)) for v in _leaves(value)):
        raise ConfigError(f"{key} must be numeric, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return cast(value)
    except TypeError:
        raise ConfigError(f"{key} has the wrong type or shape: {value!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{key} = {value!r} is invalid: {exc}") from None


def _raw(value, key: str):
    """The value as it is."""
    return value


def _as(cast):
    """``cast`` applied by ``_cast``."""
    return lambda value, key: _cast(cast, value, key)


def _number(kind, low, exact: bool = False):
    """An int at least ``low``, or a finite float above ``low``; ``exact`` also
    rejects an integral float where an int belongs."""
    def parse(value, key):
        x = _cast(kind, value, key)
        if (exact and type(value) is not kind) or not (
                low <= x if kind is int else low < x < math.inf):   # NaN fails too
            bound = f"an integer >= {low}" if kind is int else f"a finite number > {low}"
            raise ConfigError(f"{key} must be {bound}, got {value!r}")
        return x
    return parse


def _array(shape: tuple, what: str):
    """An array of finite floats of ``shape``, where None stands for any
    positive length; otherwise a config error saying the key must be ``what``."""
    def parse(value, key):
        arr = _cast(lambda v: np.asarray(v, dtype=float), value, key)
        if not (arr.ndim == len(shape) and np.all(np.isfinite(arr)) and all(
                n == m if m else n > 0 for n, m in zip(arr.shape, shape))):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return arr
    return parse


def _items(parse):
    """A non-empty list, each item read by ``parse``, as a tuple."""
    def items(value, key):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
        return tuple(parse(v, f"{key}[{i}]") for i, v in enumerate(value))
    return items


def _optional(parse):
    """None, or a value read by ``parse``."""
    return lambda value, key: None if value is None else parse(value, key)


def _text(value, key):
    """A non-empty string."""
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{key} must be a non-empty string or null, got {value!r}")
    return value


def _choice(*values):
    """One of ``values``, of its type too: 0 is not false."""
    def parse(value, key):
        if not any(type(value) is type(v) and value == v for v in values):
            raise ConfigError(f"{key} must be one of {json.dumps(values)}, got {value!r}")
        return value
    return parse


def _table(table: dict, make=dict):
    """A JSON object read by ``table`` (see ``_take``), its values passed to
    ``make`` as keywords; a ``ValueError`` of ``make`` names the key."""
    def parse(value, key):
        values = _take(value, key, table)
        try:
            return make(**values)
        except ValueError as exc:
            raise ConfigError(f"{key} is invalid: {exc}") from None
    return parse


def _build(cls):
    """A dataclass from a section keyed by its fields, each value cast to the
    type of the field's default."""
    return _table({f.name: (f.default, _as(type(f.default))) for f in fields(cls)}, cls)


_SIGMA_KEYS = {"constant": ("value",), "ramp": ("rate",),
               "piecewise_linear": ("times", "values")}


def _sigma_callable(spec, horizon: float):
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _SIGMA_KEYS:
        raise ConfigError("loading.sigma must be a JSON object with kind one of "
                          f"{list(_SIGMA_KEYS)}, got {spec!r}")
    spec = _take(spec, "loading.sigma",
                 dict.fromkeys(("kind",) + _SIGMA_KEYS[kind], (_REQUIRED, _raw)))
    if kind == "constant":
        v = float(_array((), "a finite number")(spec["value"], "loading.sigma value"))
        return (lambda t: v), (lambda t: 0.0)
    if kind == "ramp":
        rate = float(_array((), "a finite number")(spec["rate"], "loading.sigma rate"))
        return (lambda t: rate * t), (lambda t: rate)
    ts, vs = (_array((None,), "a list of finite numbers")(spec[k], f"loading.sigma {k}")
              for k in ("times", "values"))
    if ts.shape != vs.shape or len(ts) < 2:
        raise ConfigError("piecewise_linear needs matching times/values, length >= 2")
    if not np.all(np.diff(ts) > 0):
        raise ConfigError("piecewise_linear times must be strictly increasing")
    if not (ts[0] <= 0.0 and horizon <= ts[-1]):
        raise ConfigError(f"piecewise_linear times must cover [0, {horizon}]")
    slopes = np.diff(vs) / np.diff(ts)

    def sigma(t, ts=ts, vs=vs):
        return float(np.interp(t, ts, vs))

    def sigma_dot(t, ts=ts, slopes=slopes):
        k = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(slopes) - 1))
        return float(slopes[k])

    return sigma, sigma_dot


_POSITIVE, _flag = _number(float, 0), _choice(False, True)
_PAIR = _array((2,), "2 finite numbers")


def _loading(value, key: str) -> LoadingProgram:
    """A uniform-shear loading program."""
    ld = _take(value, key, {"kind": ("uniform_shear", _choice("uniform_shear")),
                            "sigma": (_REQUIRED, _raw), "time_horizon": (_REQUIRED, _POSITIVE)})
    sigma, sigma_dot = _sigma_callable(ld["sigma"], ld["time_horizon"])
    return LoadingProgram.uniform_shear(sigma, ld["time_horizon"], sigma_dot)


def _measure(value, key: str) -> DiscreteMeasure:
    """A discrete measure from rows ``[x, y, weight]``."""
    rows = _array((None, 3), "a non-empty list of finite [x, y, weight] rows")(value, key)
    return _cast(lambda a: DiscreteMeasure(a[:, :2], a[:, 2]), rows, key)


#: experiment -> (section name, table)
_SECTIONS = {
    "simulate": ("evolution", {
        "initial_points": (_REQUIRED, _array((None, 2),
                                             "a non-empty list of finite (x, y) pairs")),
        "steps": (200, _number(int, 0)), "pre_relax": (False, _flag)}),
    "gamma": ("gamma", {
        "target": (_REQUIRED, _table({
            "kind": (_REQUIRED, _choice("uniform_square")),
            "center": (_REQUIRED, _PAIR), "side": (_REQUIRED, _POSITIVE)})),
        "h": (_REQUIRED, _POSITIVE), "gamma_c": ([0.0, 1.0], _PAIR),
        "origin": (None, lambda v, key: (0.0, 0.0) if v is None else _PAIR(v, key)),
        "n_ladder": ([64, 256, 1024], _items(_number(int, 1, exact=True))),
        "mode": ("bounded", _choice("bounded", "freespace"))}),
    "distance": ("distance", {
        "mu": (_REQUIRED, _measure), "nu": (_REQUIRED, _measure),
        "eps_ladder": ([1.0, 0.1, 0.01, 0.001], _items(_POSITIVE))}),
    "kernel_check": ("kernel_check", {
        "quad_n": (512, _number(int, 1)), "radii": ([0.05, 0.1, 0.5], _items(_POSITIVE)),
        "eps": (0.05, _POSITIVE), "source": ([0.5, 0.5], _PAIR),
        "div_points": (50, _number(int, 1)), "div_h": (1e-4, _POSITIVE),
        "traction_samples": (64, _number(int, 1)), "break_traction": (False, _flag)}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    material: Material
    geometry: Geometry
    schedule: ScalingSchedule
    quadrature: QuadratureConfig
    basis: RitzBasis
    solver: SolverConfig
    loading: LoadingProgram | None
    section: dict            # experiment-specific parameters
    output_dir: str | None
    raw: dict = field(repr=False)
    sha: str = ""


def load_config(path) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text())
    top = _take(raw, "", {
        "experiment": (_REQUIRED, _choice(*EXPERIMENTS)), "seed": (0, _number(int, 0)),
        "output_dir": (None, _optional(_text)),
        "material": ({}, _table({"lam": (1.0, _as(float)), "mu": (1.0, _as(float))}, Material)),
        "geometry": ({}, _table({
            "omega": ([0.0, 0.0, 1.0, 1.0], _as(lambda v: Rect(*map(float, v)))),
            "box": ([0.2, 0.2, 0.8, 0.8], _as(lambda v: Rect(*map(float, v)))),
            "ball": ([0.06, 0.5, 0.03], _as(lambda v: Disk(*map(float, v))))},
            lambda omega, box, ball: Geometry(omega, box, ball))),
        "schedule": ({}, _build(ScalingSchedule)), "quadrature": ({}, _build(QuadratureConfig)),
        "basis": ({}, _build(RitzBasis)), "solver": ({}, _build(SolverConfig)),
        "loading": (None, _optional(_loading)),
        # every section present is checked, also those of other experiments
        **{name: (None, _optional(_table(table))) for name, table in _SECTIONS.values()}})
    exp = top["experiment"]
    name = _SECTIONS[exp][0]
    section = top[name]
    if section is None:
        raise ConfigError(f"experiment '{exp}' requires a '{name}' section")
    if exp == "simulate" and top["loading"] is None:
        raise ConfigError("simulate requires a 'loading' section")
    # a smaller step can round x + h and x - h to x: the divergence residual reads 0
    kc = top["kernel_check"]
    if kc is not None and kc["div_h"] < 1e-12 * (1 + np.abs(kc["source"]).max()):
        raise ConfigError("kernel_check.div_h must be at least 1e-12 (1 + max|source|), "
                          f"got {kc['div_h']!r}")

    sha = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return ExperimentConfig(**{f.name: top[f.name] for f in fields(ExperimentConfig)
                               if f.name in top}, section=section, raw=raw, sha=sha)
