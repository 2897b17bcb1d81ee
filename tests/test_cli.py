import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from slipdyn.cli import main
from slipdyn.config import ConfigError, load_config
from slipdyn.experiments import _write_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_unknown_keys_rejected(tmp_path):
    p = write_config(tmp_path, {"experiment": "kernel_check",
                                "kernel_check": {}, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(p)
    p2 = write_config(tmp_path, {"experiment": "kernel_check",
                                 "kernel_check": {"quad_n": 64, "junk": 2}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(p2)


def test_dataclass_sections_defaults_and_casts(tmp_path):
    from slipdyn.corrector import RitzBasis
    from slipdyn.evolution import SolverConfig
    from slipdyn.interaction import QuadratureConfig
    from slipdyn.measures import ScalingSchedule
    cfg = load_config(write_config(tmp_path, {"experiment": "kernel_check",
                                              "kernel_check": {}}))
    assert (cfg.schedule, cfg.quadrature, cfg.basis, cfg.solver) == (
        ScalingSchedule(), QuadratureConfig(), RitzBasis(), SolverConfig())
    cfg = load_config(write_config(tmp_path, {
        "experiment": "kernel_check", "kernel_check": {},
        "schedule": {"r_coef": 2}, "quadrature": {"boundary_points": 64.0, "tol": 1},
        "basis": {"degree": 6.0}, "solver": {"max_sweeps": 10.0, "sweep_tol": 1}}))
    assert type(cfg.schedule.r_coef) is float and cfg.schedule.r_coef == 2.0
    assert type(cfg.quadrature.boundary_points) is int and cfg.quadrature.boundary_points == 64
    assert type(cfg.quadrature.tol) is float
    assert type(cfg.basis.degree) is int and cfg.basis.degree == 6
    assert type(cfg.solver.max_sweeps) is int and type(cfg.solver.sweep_tol) is float
    for section in ("schedule", "quadrature", "basis", "solver"):
        with pytest.raises(ConfigError, match=f"unknown keys in section '{section}'"):
            load_config(write_config(tmp_path, {"experiment": "kernel_check",
                                                "kernel_check": {}, section: {"x": 1}}))


def test_missing_section_rejected(tmp_path):
    p = write_config(tmp_path, {"experiment": "simulate"})
    with pytest.raises(ConfigError):
        load_config(p)


def test_sigma_kinds(tmp_path):
    p = write_config(tmp_path, {
        "experiment": "simulate",
        "loading": {"kind": "uniform_shear",
                    "sigma": {"kind": "piecewise_linear",
                              "times": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 1.0]},
                    "time_horizon": 2.0},
        "evolution": {"initial_points": [[0.5, 0.5]]},
        "schedule": {"r_coef": 0.05},
    })
    cfg = load_config(p)
    assert cfg.loading.sigma(0.5) == 0.5
    assert cfg.loading.sigma(1.5) == 1.0
    assert cfg.loading.sigma_dot(0.5) == 1.0
    assert cfg.loading.sigma_dot(1.5) == 0.0


def test_kernel_check_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["kernel-check", str(CONFIG_DIR / "kernel_check.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = (out / "kernel_check.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# slipdyn")
    body = [r.split(",") for r in rows[2:]]
    assert all(r[-1] == "True" for r in body)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["all_passed"] is True


def test_kernel_check_negative_control(tmp_path):
    payload = json.loads((CONFIG_DIR / "kernel_check.json").read_text())
    payload["kernel_check"]["break_traction"] = True
    p = write_config(tmp_path, payload)
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["kernel-check", str(p), "--out", str(out)])
    assert res.exit_code == 0
    rows = [r.split(",") for r in
            (out / "kernel_check.csv").read_text().strip().splitlines()[2:]]
    traction = [r for r in rows if r[0] == "core_traction_Kn"]
    assert traction and traction[0][-1] == "False"


def test_distance_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["distance", str(CONFIG_DIR / "distance_pair.json"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in
            (out / "distance.csv").read_text().strip().splitlines()[2:]]
    vals = {(r[0], r[1]): r[2] for r in rows}
    assert float(vals[("slip_distance", "")]) == 1.0
    assert float(vals[("eps_relaxed", "0.001")]) == 1.0
    assert float(vals[("dual_bound", "neg_x1")]) == 1.0
    duals = [float(v) for (q, _), v in vals.items() if q == "dual_bound"]
    assert all(d <= 1.0 + 1e-12 for d in duals)


def test_distance_infinite_report(tmp_path):
    p = write_config(tmp_path, {
        "experiment": "distance",
        "distance": {"mu": [[0.0, 0.0, 1.0]], "nu": [[1.0, 1.0, 1.0]]},
    })
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["distance", str(p), "--out", str(out)])
    assert res.exit_code == 0
    text = (out / "distance.csv").read_text()
    assert "slip_distance,,inf" in text


def test_distance_planes_within_plane_tol(tmp_path):
    # nu's plane lies 1e-10 above mu's: one slip plane for transport, so the
    # random per-plane test functions must be 1-Lipschitz across both
    p = write_config(tmp_path, {
        "experiment": "distance",
        "distance": {"mu": [[0.2, 0.5, 0.5], [0.6, 0.5, 0.5]],
                     "nu": [[0.5, 0.5 + 1e-10, 0.5], [0.9, 0.5 + 1e-10, 0.5]]},
    })
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["distance", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in
            (out / "distance.csv").read_text().strip().splitlines()[2:]]
    vals = {(r[0], r[1]): float(r[2]) for r in rows}
    assert vals[("slip_distance", "")] == pytest.approx(0.3)
    for k in range(3):
        assert vals[("dual_bound", f"random_{k}")] <= 0.3 + 1e-12


def test_simulate_determinism(tmp_path):
    runner = CliRunner()
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        res = runner.invoke(main, ["simulate", str(CONFIG_DIR / "zero_load.json"),
                                   "--out", str(out), "--seed", "0"])
        assert res.exit_code == 0, res.output
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metadata.json").read_bytes() == (b / "metadata.json").read_bytes()


def test_negative_seed_option_rejected(tmp_path):
    # numpy's generators take no negative seed: the option is a usage error
    # (exit 2) before any output directory is made
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["simulate", str(CONFIG_DIR / "zero_load.json"),
                                    "--out", str(out), "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert "--seed" in res.output
    assert not out.exists()


def test_simulate_zero_load_trace(tmp_path):
    import csv
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", str(CONFIG_DIR / "zero_load.json"),
                               "--out", str(out)])
    assert res.exit_code == 0
    with open(out / "trace.csv") as fh:
        fh.readline()                     # comment header
        rows = list(csv.DictReader(fh))
    assert all(float(r["cumulative_d"]) == 0.0 for r in rows)


def test_subcommand_kind_mismatch(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", str(CONFIG_DIR / "kernel_check.json")])
    assert res.exit_code == 2
    assert "declares experiment" in res.output


def test_gamma_freespace_closed_form(tmp_path):
    # n = 1 has an empty pair sum; n = 2 lands on two cell centers at distance
    # 0.2, so the table entry is the closed-form log pair sum
    payload = json.loads((CONFIG_DIR / "gamma_uniform.json").read_text())
    payload["gamma"]["n_ladder"] = [1, 2]
    payload["gamma"]["mode"] = "freespace"
    payload["schedule"] = {"r_coef": 0.1}   # default minimum separation binds at n = 2
    p = write_config(tmp_path, payload)
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["gamma", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    import csv
    with open(out / "gamma.csv") as fh:
        fh.readline()
        rows = {int(r["n"]): r for r in csv.DictReader(fh)}
    assert float(rows[1]["f_n"]) == 0.0
    coef = 2 / (3 * math.pi)
    expected = 2 * (-coef * math.log(0.2)) / (2 * 4)
    assert float(rows[2]["f_n"]) == pytest.approx(expected, rel=1e-12)


def test_module_error_exits_nonzero(tmp_path):
    # unstable initial data without pre-relaxation must fail with a diagnostic
    p = write_config(tmp_path, {
        "experiment": "simulate",
        "schedule": {"r_coef": 0.05},
        "loading": {"kind": "uniform_shear",
                    "sigma": {"kind": "constant", "value": 0.0},
                    "time_horizon": 1.0},
        "evolution": {"initial_points": [[0.475, 0.5], [0.525, 0.5]],
                      "steps": 5, "pre_relax": False},
    })
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", str(p), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert "unstable" in res.output


@pytest.mark.parametrize("section, key, value", [
    ("quadrature", "tol", math.nan), ("solver", "sweep_tol", math.nan),
    ("material", "lam", math.nan), ("material", "lam", math.inf),
    ("material", "mu", math.inf), ("schedule", "eps_coef", math.nan),
    ("schedule", "r_coef", math.nan), ("loading", "time_horizon", math.nan),
    ("loading", "time_horizon", math.inf), ("loading", "time_horizon", 0.0),
    ("solver", "restarts", -1), ("solver", "max_sweeps", 0), ("solver", "line_grid", 3)])
def test_nan_and_out_of_range_values_rejected(tmp_path, section, key, value):
    # JSON NaN and Infinity parse, and NaN passes any check written as
    # `x <= 0`; a NaN tolerance would switch off the check it sets, a NaN or
    # infinite constant or horizon would write NaN tables; a bad solver value
    # is named by its key
    payload = json.loads((CONFIG_DIR / "zero_load.json").read_text())
    payload.setdefault(section, {})[key] = value
    res = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    if section == "solver":
        assert key in res.output, res.output


def test_metadata_carries_config_hash(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    res = runner.invoke(main, ["kernel-check", str(CONFIG_DIR / "kernel_check.json"),
                               "--out", str(out)])
    assert res.exit_code == 0
    cfg = load_config(CONFIG_DIR / "kernel_check.json")
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config_sha256"] == cfg.sha
    header = (out / "kernel_check.csv").read_text().splitlines()[0]
    assert cfg.sha in header


def test_csv_numpy_floats_read_back(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["x"], [{"x": np.float64(8.2e-15)}], SimpleNamespace(sha="0"))
    cell = path.read_text().splitlines()[-1]
    assert float(cell) == 8.2e-15


def _zero_load_with(section, value=None, sigma=None):
    payload = json.loads((CONFIG_DIR / "zero_load.json").read_text())
    if section is not None:
        payload[section] = value
    if sigma is not None:
        payload["loading"]["sigma"] = sigma
    return payload


@pytest.mark.parametrize("payload", [
    _zero_load_with("material", 5),
    _zero_load_with("loading", 1.0),
    _zero_load_with("evolution", True),
    _zero_load_with(None, sigma="x"),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.0, 1.0, 0.5], "values": [0.0, 1.0, 1.0]}),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.0, 0.5, 0.5, 1.0],
                                 "values": [0.0, 0.5, 1.0, 1.0]}),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.0, 0.5], "values": [0.0, 0.5]}),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.1, 1.0], "values": [0.0, 0.5]}),
    _zero_load_with(None, sigma={"kind": "constant", "value": math.nan}),
    _zero_load_with(None, sigma={"kind": "constant", "value": math.inf}),
    _zero_load_with(None, sigma={"kind": "ramp", "rate": math.nan}),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.0, math.nan, 1.0], "values": [0.0, 0.5, 1.0]}),
    _zero_load_with(None, sigma={"kind": "piecewise_linear",
                                 "times": [0.0, 1.0], "values": [0.0, -math.inf]}),
    _zero_load_with(None, sigma={"kind": "constant"}),
    _zero_load_with(None, sigma={"kind": "constant", "value": 0.0, "rate": 1.0}),
], ids=["material-not-object", "loading-not-object", "evolution-not-object",
        "sigma-not-object", "times-decreasing", "times-repeated",
        "times-end-before-horizon", "times-start-after-zero", "value-nan",
        "value-inf", "rate-nan", "times-nan", "values-inf", "value-missing",
        "sigma-unknown-key"])
def test_malformed_loading_rejected(tmp_path, payload):
    # each of these used to run into a traceback or to write a trace whose
    # load and its rate disagree; they are config errors
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output


def _zero_load_set(path, value, name="zero_load"):
    """A shipped config, zero_load.json unless ``name`` says otherwise, with
    the key at the dotted ``path`` set to ``value``."""
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    *head, last = path.split(".")
    node = payload
    for key in head:
        node = node.setdefault(key, {})
    node[last] = value
    return payload


@pytest.mark.parametrize("path, value, key", [
    ("loading.sigma", {"kind": "constant", "value": [0.5]}, "loading.sigma value"),
    ("loading.sigma", {"kind": "ramp", "rate": [[1.0]]}, "loading.sigma rate"),
    ("material.lam", [1.0], "material.lam"),
    ("schedule.r_coef", [0.05], "schedule.r_coef"),
    ("solver.max_sweeps", [3], "solver.max_sweeps"),
    ("quadrature.tol", {"a": 1}, "quadrature.tol"),
    ("geometry.box", 5, "geometry.box"),
    ("seed", [1], "seed"),
], ids=["sigma-value-list", "sigma-rate-nested", "lam-list", "r_coef-list",
        "max_sweeps-list", "tol-object", "box-scalar", "seed-list"])
def test_non_scalar_numbers_rejected(tmp_path, path, value, key):
    # a list or an object where a number belongs used to exit 1 with a
    # TypeError traceback; it is a config error that names the key
    payload = _zero_load_set(path, value)
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert key in res.output


def _rejected_naming(tmp_path, payload, key):
    """``payload`` is a config error naming ``key``, and simulate exits 2 with it."""
    with pytest.raises(ConfigError, match=key):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert key in res.output


@pytest.mark.parametrize("path, value", [
    ("material.lam", "0.5"), ("material.lam", "abc"), ("material.mu", True),
    ("solver.max_sweeps", 2.7), ("quadrature.boundary_points", True),
    ("basis.degree", "8"), ("seed", 1.5), ("seed", True), ("seed", -1),
    ("geometry.box", [0.2, 0.2, "0.8", 0.8]), ("geometry.box", [0.8, 0.2, 0.2, 0.8]),
    ("loading.sigma", {"kind": "ramp", "rate": "1"}),
], ids=["lam-numeric-string", "lam-string", "mu-bool", "max_sweeps-fraction",
        "boundary_points-bool", "degree-string", "seed-fraction", "seed-bool",
        "seed-negative", "box-string-entry", "box-degenerate", "sigma-rate-string"])
def test_strings_booleans_and_fractions_rejected(tmp_path, path, value):
    # a numeric string or a boolean used to be read as a number, a fractional
    # int was truncated, and a value the cast rejected exited 2 with a message
    # that did not name the key; each is a config error that names it
    key = "loading.sigma rate" if path == "loading.sigma" else path
    _rejected_naming(tmp_path, _zero_load_set(path, value, "ramp_single"), key)


@pytest.mark.parametrize("key, value", [
    ("pre_relax", "false"), ("pre_relax", 0), ("steps", 2.5), ("steps", -3),
    ("steps", "3"), ("steps", True), ("initial_points", "abc"),
    ("initial_points", []), ("initial_points", [0.5, 0.5]),
    ("initial_points", [[0.5, 0.5, 0.5]]), ("initial_points", [[0.5, math.nan]]),
    ("initial_points", [[0.5, "0.5"]]),
], ids=["pre_relax-string", "pre_relax-int", "steps-fraction", "steps-negative",
        "steps-string", "steps-bool", "points-string", "points-empty", "points-flat",
        "points-triple", "points-nan", "points-string-entry"])
def test_evolution_section_rejected(tmp_path, key, value):
    # the evolution section used to be cast at run time: "false" relaxed
    # (bool("false") is True), 2.5 steps ran 2, and negative steps or a
    # string of points exited 1 with a numpy error
    _rejected_naming(tmp_path, _zero_load_set(f"evolution.{key}", value, "ramp_single"),
                     f"evolution.{key}")


def test_zero_steps_write_the_initial_row(tmp_path):
    payload = _zero_load_set("evolution.steps", 0, "ramp_single")
    out = tmp_path / "o"
    res = CliRunner().invoke(main, ["simulate", str(write_config(tmp_path, payload)),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len((out / "trace.csv").read_text().splitlines()) == 3    # comment, header, t = 0


@pytest.mark.parametrize("key, value", [
    ("h", [0.2]), ("h", 0.0), ("h", -0.2), ("h", math.nan), ("h", math.inf),
    ("origin", [0.3]), ("origin", 0.3), ("origin", [[0.3, 0.3]]),
    ("origin", [0.3, math.nan]), ("gamma_c", [1.0]), ("gamma_c", [0.0, math.inf]),
    ("n_ladder", []), ("n_ladder", [0]), ("n_ladder", [64, -4]), ("n_ladder", 64),
    ("n_ladder", [64.0]), ("n_ladder", [True]), ("mode", "bounded_"),
    ("target", {"kind": "disk", "center": [0.5, 0.5], "side": 0.4}),
    ("target", {"kind": "uniform_square", "center": [0.5, 0.5], "side": [0.4]}),
    ("target", {"kind": "uniform_square", "center": [0.5], "side": 0.4}),
    ("target", {"kind": "uniform_square", "center": [0.5, 0.5]}),
    ("target", [0.5, 0.5, 0.4]), ("origin", [0.3, "a"]), ("h", "0.2"),
], ids=["h-list", "h-zero", "h-negative", "h-nan", "h-inf", "origin-one",
        "origin-scalar", "origin-nested", "origin-nan", "gamma_c-one", "gamma_c-inf",
        "ladder-empty", "ladder-zero", "ladder-negative", "ladder-scalar",
        "ladder-float", "ladder-bool", "mode-unknown", "target-kind", "target-side-list",
        "target-center-one", "target-side-missing", "target-list", "origin-string",
        "h-string"])
def test_gamma_section_rejected(tmp_path, key, value):
    # the gamma section used to be cast only at run time: a list for h or the
    # target's side exited 1 with a TypeError, an empty ladder wrote an empty
    # table; each is a config error that names the key
    payload = json.loads((CONFIG_DIR / "gamma_uniform.json").read_text())
    payload["gamma"][key] = value
    with pytest.raises(ConfigError, match=f"gamma.{key}"):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, ["gamma", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"gamma.{key}" in res.output


def _section_rejected(tmp_path, command, name, key, value):
    """The shipped config ``name`` with its section's ``key`` set to ``value`` is
    a config error naming the key, and ``command`` exits 2 with it."""
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    section = "kernel_check" if command == "kernel-check" else command
    payload[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, [command, str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"{section}.{key}" in res.output


@pytest.mark.parametrize("key, value", [
    ("traction_samples", 0), ("div_points", -3), ("div_h", 0), ("div_h", 1e-300),
    ("quad_n", 2.5), ("break_traction", "false"), ("eps", 0), ("eps", -1),
    ("radii", [0]), ("quad_n", 0), ("quad_n", "abc"), ("radii", "x"),
    ("radii", []), ("radii", [0.1, math.inf]), ("eps", math.nan), ("div_h", math.inf),
    ("source", [0.5]), ("source", [0.5, math.nan]), ("break_traction", 0),
    ("div_points", True),
], ids=["samples-zero", "div_points-negative", "div_h-zero", "div_h-below-spacing",
        "quad_n-fraction", "break-string", "eps-zero", "eps-negative", "radii-zero",
        "quad_n-zero", "quad_n-string", "radii-string", "radii-empty", "radii-inf",
        "eps-nan", "div_h-inf", "source-one", "source-nan", "break-int",
        "div_points-bool"])
def test_kernel_check_section_rejected(tmp_path, key, value):
    # the kernel_check section used to be cast at run time: zero samples or
    # points, or a step too small to move x, read a residual of 0.0 and wrote
    # all_passed: true; 2.5 ran as 2, "false" ran the broken-radius control,
    # and a zero radius or a string exited 1 with a message naming no key
    _section_rejected(tmp_path, "kernel-check", "kernel_check", key, value)


@pytest.mark.parametrize("key, value", [
    ("eps_ladder", [True]), ("eps_ladder", ["a"]), ("eps_ladder", [0.0]),
    ("eps_ladder", []), ("eps_ladder", 0.1), ("mu", [[0.5, 0.5]]), ("mu", "abc"),
    ("mu", []), ("mu", [[0.0, 0.0, 0.5], [2.0, 0.0, 0.4]]),
    ("nu", [[1.0, 0.0, 0.5], [1.0, 0.0, 0.5]]), ("nu", [[1.0, 0.0, 1.5], [3.0, 0.0, -0.5]]),
    ("nu", [[1.0, math.nan, 0.5], [3.0, 0.0, 0.5]]), ("nu", [[1.0, 0.0, "0.5"], [3.0, 0.0, 0.5]]),
], ids=["ladder-bool", "ladder-string", "ladder-zero", "ladder-empty", "ladder-scalar",
        "mu-pairs", "mu-string", "mu-empty", "mu-mass", "nu-repeated", "nu-negative",
        "nu-nan", "nu-string-entry"])
def test_distance_section_rejected(tmp_path, key, value):
    # a boolean rung used to run as 1.0, and a zero rung, rows without a
    # weight or a string exited 1; the measures are built when the config loads
    _section_rejected(tmp_path, "distance", "distance_pair", key, value)


def test_shipped_sections_load_typed(tmp_path):
    from slipdyn.measures import DiscreteMeasure
    sec = load_config(CONFIG_DIR / "kernel_check.json").section
    assert type(sec["quad_n"]) is int and type(sec["traction_samples"]) is int
    assert all(type(r) is float for r in sec["radii"]) and type(sec["eps"]) is float
    assert sec["break_traction"] is False
    sec = load_config(CONFIG_DIR / "distance_pair.json").section
    assert isinstance(sec["mu"], DiscreteMeasure) and isinstance(sec["nu"], DiscreteMeasure)
    assert np.array_equal(sec["mu"].points, [[0.0, 0.0], [2.0, 0.0]])
    # an integral JSON number reads as a float, so the tables print it as 1.0
    payload = json.loads((CONFIG_DIR / "distance_pair.json").read_text())
    payload["distance"]["eps_ladder"] = [1, 0.5]
    ladder = load_config(write_config(tmp_path, payload)).section["eps_ladder"]
    assert ladder == (1.0, 0.5) and all(type(e) is float for e in ladder)


@pytest.mark.parametrize("value", [5, "", True, ["o"], {"dir": "o"}],
                         ids=["int", "empty", "bool", "list", "object"])
def test_output_dir_rejected(tmp_path, value):
    # a number used to reach Path() when the runner wrote its outputs and
    # exit with a TypeError traceback; null or a non-empty string is accepted
    payload = json.loads((CONFIG_DIR / "kernel_check.json").read_text())
    assert load_config(write_config(tmp_path, payload)).output_dir is None
    payload["output_dir"] = str(tmp_path / "o")
    assert load_config(write_config(tmp_path, payload)).output_dir == str(tmp_path / "o")
    payload["output_dir"] = value
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(write_config(tmp_path, payload))
    res = CliRunner().invoke(main, ["kernel-check", str(write_config(tmp_path, payload)),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "output_dir" in res.output


@pytest.mark.parametrize("name, section, value", [
    ("kernel_check", "gamma", 5),
    ("kernel_check", "distance", {"mu": [], "nu": [[0.0, 0.0, 1.0]]}),
    ("ramp_single", "gamma", {"h": 0.1}),
    ("gamma_uniform", "evolution", {"initial_points": [[0.5, 0.5]], "steps": 2.5}),
    ("distance_pair", "kernel_check", {"quad_n": 2.5}),
    ("distance_pair", "kernel_check", {"div_h": 1e-300}),
    ("kernel_check", "evolution", {"initial_points": [[0.5, 0.5]], "bogus": 1}),
], ids=["gamma-number", "distance-empty-mu", "gamma-missing-target",
        "evolution-fraction", "kernel_check-fraction", "kernel_check-div_h",
        "evolution-unknown-key"])
def test_other_experiment_sections_checked(tmp_path, name, section, value):
    # only the section the experiment names used to be parsed: a bad section
    # of another experiment loaded and ran; it is now a config error naming it
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    payload[section] = value
    with pytest.raises(ConfigError, match=section):
        load_config(write_config(tmp_path, payload))
    # a well-formed section of another experiment still loads, and is unused
    shipped = {"gamma": "gamma_uniform", "distance": "distance_pair",
               "evolution": "ramp_single", "kernel_check": "kernel_check"}[section]
    payload[section] = json.loads((CONFIG_DIR / f"{shipped}.json").read_text())[section]
    assert load_config(write_config(tmp_path, payload)).experiment == payload["experiment"]


#: sha256 of every output file of the shipped configs whose outputs do not
#: depend on the BLAS thread count (bounded_pair, gamma_uniform and
#: kernel_check do; scripts/run_examples.py prints all of them)
GOLDEN = {
    ("simulate", "ramp_single"): {
        "metadata.json": "3200801a647797c0a47101d6221f5a986c2c92a3bfbc17072df5190d791b2bce",
        "summary.json": "b160b0abab4da7d99836d04831b6c6b55754c689832f52796092040b627e7628",
        "trace.csv": "87a245c7ccc98d303f8aabf3152d5e94eb99ac95a48ecc5426f3b608e4585fdc"},
    ("simulate", "spreading_pair"): {
        "metadata.json": "0ad4045186389a5adc2d3717c54e218ad9fbb401eda432d346751dfdd25bf21b",
        "summary.json": "69cd83f0f7183cccb0a0da7cfeaa0354cbe872a9d7c77eb339c8d4f13e321b77",
        "trace.csv": "823cfeffd7cbf873f742beac09a4b920142c0ba0131f8ca363ba7f8c82582908"},
    ("simulate", "zero_load"): {
        "metadata.json": "6206f0ecdaa20cf259e435da4f1df58ed07c11d84f5a47f2fb1e6b9519b59454",
        "summary.json": "eea56eadc5afc13937a12ff8b38e1e778a7d99a77ee937070451cbcb1c0df3e3",
        "trace.csv": "b129efc59c34182b6c097f9a44e43aec82159e49ddbc34aa23133834880b181e"},
    ("distance", "distance_pair"): {
        "distance.csv": "ff764a7254b0e97889ff5d345ab4ccee2ceb43a3ac36dc7e093ce319a4a8c2d6",
        "metadata.json": "ab30b688aa0674a91c7363551f8eb4fb4a17a375fbe18e4cddeb8d2937c30fb9"},
}


@pytest.mark.parametrize("command, name", list(GOLDEN), ids=[n for _, n in GOLDEN])
def test_shipped_outputs_pinned(tmp_path, command, name):
    out = tmp_path / name
    res = CliRunner().invoke(main, [command, str(CONFIG_DIR / f"{name}.json"),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == GOLDEN[command, name]


#: columns of the shipped configs whose last bits depend on the BLAS thread
#: count, hence no hash pins above, as written with one BLAS thread, and the
#: tolerance of each: the gamma_uniform ladder is pinned to 1e-13 relative; the
#: bounded_pair positions move by up to the landing tolerance 1e-13 with the
#: thread count (5e-14 seen at two threads), so its energies are pinned to 1e-13
#: absolute (1e-14 seen)
BLAS_PINNED = {
    ("simulate", "bounded_pair", "trace.csv"): ({"energy": [
        0.025623686747426613, 0.02328878062782211, 0.020852252467352186,
        0.018312184071258467, 0.01565983166493097, 0.012885005395602098,
        0.009975510307136712, 0.0069162051560342774, 0.0036873297273102568,
        0.0002613431089457108, -0.0034035272027360813, -0.007377887782794204,
        -0.01179981417785346, -0.017008454451636894, -0.024405396686532937]
        + [-0.03238668380294921] * 6}, False),
    ("gamma", "gamma_uniform", "gamma.csv"): ({
        "f_n": [0.03797697228520551, 0.04211821992152502, 0.04336830042533811],
        "f_limit": [0.04389528075278701] * 3}, True),
}


@pytest.mark.parametrize("command, name, table", list(BLAS_PINNED),
                         ids=[n for _, n, _ in BLAS_PINNED])
def test_blas_dependent_outputs_pinned(tmp_path, command, name, table):
    out = tmp_path / name
    res = CliRunner().invoke(main, [command, str(CONFIG_DIR / f"{name}.json"),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    import csv
    with open(out / table) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    columns, relative = BLAS_PINNED[command, name, table]
    for column, ref in columns.items():
        ref = np.array(ref)
        got = np.array([float(r[column]) for r in rows])
        assert got.shape == ref.shape
        scale = np.abs(ref) if relative else 1.0
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), column
