import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipdyn.kernels import (CoreRadius, Material, K_many, apply_C, circulation,
                             displacement_v, displacement_w,
                             divergence_residual, eval_K, eval_Kn, grad_v,
                             grad_w, K_offsets)
from oracles import dK1_offsets


def fd_jacobian(f, u, h=1e-6):
    out = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[:, j] = (f(u + e) - f(u - e)) / (2 * h)
    return out


def test_material_invariants():
    with pytest.raises(ValueError):
        Material(1.0, 0.0)
    with pytest.raises(ValueError):
        Material(-2.0, 1.0)
    m = Material(1.0, 1.0)
    assert math.isclose(m.log_coef, 2 / (3 * math.pi))


def test_gradients_match_finite_differences(mat):
    rng = np.random.default_rng(42)
    count = 0
    while count < 50:
        u = rng.uniform(-2, 2, 2)
        if np.hypot(*u) < 0.2:
            continue
        count += 1
        gv = grad_v(u, mat)
        gw = grad_w(u, mat)
        fv = fd_jacobian(lambda q: displacement_v(q, mat), u)
        fw = fd_jacobian(lambda q: displacement_w(q, mat), u)
        assert np.max(np.abs(gv - fv)) <= 1e-6 * max(1.0, np.max(np.abs(gv)))
        assert np.max(np.abs(gw - fw)) <= 1e-6 * max(1.0, np.max(np.abs(gw)))
        dk = dK1_offsets(u, mat)
        e1 = np.array([1e-6, 0.0])
        fk = (K_offsets(u + e1, mat) - K_offsets(u - e1, mat)) / 2e-6
        assert np.max(np.abs(dk - fk)) <= 1e-6 * max(1.0, np.max(np.abs(dk)))


def test_K_entries_against_displacement_oracle(mat):
    # independent oracle: finite differences of the closed-form displacement
    # plus the explicit rotational term
    z = np.zeros(2)
    x = np.array([1.0, 0.0])
    u = x - z
    grad_fd = fd_jacobian(lambda q: displacement_v(q, mat), u, h=1e-6)
    r2 = u @ u
    expected = grad_fd.copy()
    expected[0, 0] += -u[1] / (2 * math.pi * r2)
    expected[0, 1] += u[0] / (2 * math.pi * r2)
    got = eval_K(x, z, mat)
    assert np.max(np.abs(got - expected)) < 1e-9
    # frozen analytic entries for lam = mu = 1
    assert got == pytest.approx(
        np.array([[0.0, 5 / (6 * math.pi)], [-1 / (6 * math.pi), 0.0]]), abs=1e-14)


def test_homogeneity(mat):
    z = np.array([0.3, 0.7])
    w = np.array([1.0, 0.0])
    k1 = eval_K(z + 2.0 * w, z, mat)
    k2 = eval_K(z + w, z, mat)
    assert np.max(np.abs(k1 - k2 / 2.0)) <= 1e-12 * np.max(np.abs(k1))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi))
def test_homogeneity_property(s, angle):
    mat = Material(1.3, 0.8)
    z = np.array([0.1, -0.4])
    w = np.array([math.cos(angle), math.sin(angle)])
    k1 = eval_K(z + s * w, z, mat)
    k2 = eval_K(z + w, z, mat) / s
    assert np.max(np.abs(k1 - k2)) <= 1e-11 * max(1.0, np.max(np.abs(k2)))


def test_circulation_constant_field(mat):
    const = np.array([[0.3, -1.2], [0.7, 0.4]])
    c = circulation(np.zeros(2), 0.3, lambda p: const, 128)
    assert np.max(np.abs(c)) < 1e-14


def test_circulation_of_K_is_burgers(mat):
    z = np.array([0.45, 0.61])
    for r in (0.05, 0.1, 0.5):
        c = circulation(z, r, lambda p: eval_K(p, z, mat), 512)
        assert np.max(np.abs(c - np.array([1.0, 0.0]))) <= 1e-8


def test_circulation_of_Kn(mat):
    eps = 0.05
    z = np.array([0.5, 0.5])
    core = CoreRadius(eps)
    c = circulation(z, eps, lambda p: eval_Kn(p, z, core, mat), 512)
    assert np.max(np.abs(c - np.array([1.0, 0.0]))) <= 1e-10


def test_apply_C_basics(mat):
    assert np.allclose(apply_C(np.eye(2), mat), 4.0 * np.eye(2))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(apply_C(skew, mat))) == 0.0


def test_apply_C_symmetric_bilinear(mat):
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        lhs = np.sum(apply_C(a, mat) * b)
        rhs = np.sum(apply_C(b, mat) * a)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_Kn_traction_free_on_core(mat):
    z = np.array([0.37, 0.52])
    for eps in (0.05, 0.02):
        core = CoreRadius(eps)
        worst = 0.0
        for th in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            nu = np.array([math.cos(th), math.sin(th)])
            t = apply_C(eval_Kn(z + eps * nu, z, core, mat), mat) @ nu
            worst = max(worst, np.max(np.abs(t)))
        assert worst <= 1e-8


def test_Kn_degenerates_and_converges(mat):
    z = np.zeros(2)
    x = np.array([0.8, 0.3])
    assert np.array_equal(eval_Kn(x, z, CoreRadius(0.0), mat), eval_K(x, z, mat))
    x = np.array([1.0, 0.0])
    diffs = [np.max(np.abs(eval_Kn(x, z, CoreRadius(e), mat) - eval_K(x, z, mat)))
             for e in (0.1, 0.05, 0.025)]
    ratios = [d / e**2 for d, e in zip(diffs, (0.1, 0.05, 0.025))]
    assert max(ratios) - min(ratios) < 1e-12 * max(ratios)


def test_divergence_residuals(mat):
    z = np.array([0.2, 0.9])
    x = z + np.array([1.0, 0.0])
    assert divergence_residual(lambda p: eval_K(p, z, mat), x, mat, 1e-4) <= 1e-5
    core = CoreRadius(0.05)
    assert divergence_residual(lambda p: eval_Kn(p, z, core, mat), x, mat, 1e-4) <= 1e-5
    const = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert divergence_residual(lambda p: const, x, mat, 1e-4) == 0.0


def test_core_guard(mat):
    z = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        eval_K(z, z, mat)
    with pytest.raises(ValueError):
        eval_Kn(z + np.array([1e-13, 0.0]), z, CoreRadius(0.1), mat)
    with pytest.raises(ValueError):
        circulation(z, -0.1, lambda p: eval_K(p, z, mat))
    with pytest.raises(ValueError):
        CoreRadius(-1.0)


def test_vectorized_matches_scalar(mat):
    rng = np.random.default_rng(9)
    z = np.array([0.1, 0.2])
    xs = z + rng.uniform(0.3, 1.0, (8, 2))
    batch = K_many(xs, z, mat)
    for k, x in enumerate(xs):
        assert np.array_equal(batch[k], eval_K(x, z, mat))
