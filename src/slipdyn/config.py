"""Declarative experiment configuration: JSON with a strict, versioned schema.

Every section rejects unknown keys.  Numeric values are in the nondimensional
units of the model (yield threshold normalized to 1).  See README for the full
schema and the shipped example configs.
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
from .measures import ScalingSchedule
from .evolution import LoadingProgram, SolverConfig

SCHEMA_VERSION = 1

EXPERIMENTS = ("simulate", "gamma", "distance", "kernel_check")


class ConfigError(ValueError):
    pass


def _take(section: dict, name: str, allowed: dict):
    """Pop known keys with defaults; reject anything else."""
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    out = {}
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(extra)}")
    for key, default in allowed.items():
        if default is _REQUIRED and key not in section:
            raise ConfigError(f"missing required key '{key}' in section '{name}'")
        out[key] = section.get(key, default)
    return out


_REQUIRED = object()


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


def _build(cls, section: dict, name: str):
    """A dataclass from a section keyed by its fields, each value cast to the
    type of the field's default."""
    keys = fields(cls)
    values = _take(section, name, {f.name: f.default for f in keys})
    return cls(**{f.name: _cast(type(f.default), values[f.name], f"{name}.{f.name}")
                  for f in keys})


_SIGMA_KEYS = {"constant": ("value",), "ramp": ("rate",),
               "piecewise_linear": ("times", "values")}


def _finite(value, key: str, shape: tuple, what: str) -> np.ndarray:
    """An array of finite floats of ``shape``, where None stands for any
    positive length; otherwise a config error saying ``key`` must be ``what``."""
    arr = _cast(lambda v: np.asarray(v, dtype=float), value, key)
    if not (arr.ndim == len(shape) and np.all(np.isfinite(arr)) and all(
            n == m if m else n > 0 for n, m in zip(arr.shape, shape))):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return arr


def _numbers(value, key: str, count: int) -> tuple:
    """``count`` finite numbers as a tuple of floats."""
    return tuple(map(float, _finite(value, key, (count,), f"{count} finite numbers")))


def _positive(value, key: str) -> float:
    """A positive finite number."""
    x = _cast(float, value, key)
    if not 0 < x < math.inf:                   # NaN fails too
        raise ConfigError(f"{key} must be finite and positive, got {value!r}")
    return x


def _gamma_section(sec: dict) -> dict:
    """The gamma section with its numbers checked and cast."""
    target = _take(sec["target"], "gamma.target",
                   dict.fromkeys(("kind", "center", "side"), _REQUIRED))
    if target["kind"] != "uniform_square":
        raise ConfigError(f"gamma.target kind must be 'uniform_square', got {target['kind']!r}")
    target.update(center=_numbers(target["center"], "gamma.target center", 2),
                  side=_positive(target["side"], "gamma.target side"))
    ladder = sec["n_ladder"]
    if not (isinstance(ladder, list) and ladder and all(
            type(n) is int and n > 0 for n in ladder)):
        raise ConfigError("gamma.n_ladder must be a non-empty list of positive "
                          f"integers, got {ladder!r}")
    if sec["mode"] not in ("bounded", "freespace"):
        raise ConfigError(f"gamma.mode must be 'bounded' or 'freespace', got {sec['mode']!r}")
    origin = None if sec["origin"] is None else _numbers(sec["origin"], "gamma.origin", 2)
    return {**sec, "target": target, "h": _positive(sec["h"], "gamma.h"), "origin": origin,
            "gamma_c": _numbers(sec["gamma_c"], "gamma.gamma_c", 2)}


def _evolution_section(sec: dict) -> dict:
    """The evolution section with its values checked and cast."""
    if type(sec["pre_relax"]) is not bool:
        raise ConfigError(f"evolution.pre_relax must be true or false, got {sec['pre_relax']!r}")
    steps = _cast(int, sec["steps"], "evolution.steps")
    if steps < 0:
        raise ConfigError(f"evolution.steps must be a non-negative integer, got {steps}")
    points = _finite(sec["initial_points"], "evolution.initial_points", (None, 2),
                     "a non-empty list of finite (x, y) pairs")
    return {**sec, "initial_points": tuple(map(tuple, points.tolist())), "steps": steps}


def _sigma_callable(spec, horizon: float):
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _SIGMA_KEYS:
        raise ConfigError("loading.sigma must be a JSON object with kind one of "
                          f"{list(_SIGMA_KEYS)}, got {spec!r}")
    spec = _take(spec, "loading.sigma",
                 dict.fromkeys(("kind",) + _SIGMA_KEYS[kind], _REQUIRED))
    if kind == "constant":
        v = float(_finite(spec["value"], "loading.sigma value", (), "a finite number"))
        return (lambda t: v), (lambda t: 0.0)
    if kind == "ramp":
        rate = float(_finite(spec["rate"], "loading.sigma rate", (), "a finite number"))
        return (lambda t: rate * t), (lambda t: rate)
    ts, vs = (_finite(spec[k], f"loading.sigma {k}", (None,), "a list of finite numbers")
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
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    top = _take(raw, "top", {
        "experiment": _REQUIRED, "seed": 0, "output_dir": None,
        "material": {}, "geometry": {}, "schedule": {}, "quadrature": {},
        "basis": {}, "solver": {}, "loading": None,
        "evolution": None, "gamma": None, "distance": None, "kernel_check": None,
    })
    exp = top["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")

    m = _take(top["material"], "material", {"lam": 1.0, "mu": 1.0})
    material = Material(lam=_cast(float, m["lam"], "material.lam"),
                        mu=_cast(float, m["mu"], "material.mu"))

    g = _take(top["geometry"], "geometry", {
        "omega": [0.0, 0.0, 1.0, 1.0],
        "box": [0.2, 0.2, 0.8, 0.8],
        "ball": [0.06, 0.5, 0.03],
    })
    geometry = Geometry(
        omega=_cast(lambda v: Rect(*map(float, v)), g["omega"], "geometry.omega"),
        r_box=_cast(lambda v: Rect(*map(float, v)), g["box"], "geometry.box"),
        ball=_cast(lambda v: Disk(*map(float, v)), g["ball"], "geometry.ball"))

    schedule = _build(ScalingSchedule, top["schedule"], "schedule")
    quadrature = _build(QuadratureConfig, top["quadrature"], "quadrature")
    basis = _build(RitzBasis, top["basis"], "basis")
    solver = _build(SolverConfig, top["solver"], "solver")

    loading = None
    if top["loading"] is not None:
        ld = _take(top["loading"], "loading", {
            "kind": "uniform_shear", "sigma": _REQUIRED, "time_horizon": _REQUIRED})
        if ld["kind"] != "uniform_shear":
            raise ConfigError("config files support the uniform_shear loading kind")
        horizon = _positive(ld["time_horizon"], "loading.time_horizon")
        sigma, sigma_dot = _sigma_callable(ld["sigma"], horizon)
        loading = LoadingProgram.uniform_shear(sigma, horizon, sigma_dot=sigma_dot)

    sections = {
        "simulate": ("evolution", {
            "initial_points": _REQUIRED, "steps": 200, "pre_relax": False}),
        "gamma": ("gamma", {
            "target": _REQUIRED, "h": _REQUIRED, "origin": None,
            "n_ladder": [64, 256, 1024], "mode": "bounded",
            "gamma_c": [0.0, 1.0]}),
        "distance": ("distance", {
            "mu": _REQUIRED, "nu": _REQUIRED,
            "eps_ladder": [1.0, 0.1, 0.01, 0.001]}),
        "kernel_check": ("kernel_check", {
            "quad_n": 512, "radii": [0.05, 0.1, 0.5], "eps": 0.05,
            "source": [0.5, 0.5], "div_points": 50, "div_h": 1e-4,
            "traction_samples": 64, "break_traction": False}),
    }
    sec_name, allowed = sections[exp]
    sec_raw = top[sec_name]
    if sec_raw is None:
        raise ConfigError(f"experiment '{exp}' requires a '{sec_name}' section")
    section = _take(sec_raw, sec_name, allowed)
    if exp == "gamma":
        section = _gamma_section(section)
    if exp == "simulate":
        if loading is None:
            raise ConfigError("simulate requires a 'loading' section")
        section = _evolution_section(section)

    sha = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return ExperimentConfig(
        experiment=exp, seed=_cast(int, top["seed"], "seed"), material=material,
        geometry=geometry, schedule=schedule, quadrature=quadrature,
        basis=basis, solver=solver, loading=loading, section=section,
        output_dir=top["output_dir"], raw=raw, sha=sha)
