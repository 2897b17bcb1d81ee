import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipdyn.measures import DiscreteMeasure
from slipdyn.transport import (dual_lower_bound, eps_relaxed_distance,
                               horizontal_marginal_w1, plane_w1, slip_distance,
                               slip_plan, trajectory_dissipation, w1_distance)


def two_atom_pair():
    mu = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[1.0, 0.0], [3.0, 0.0]], [0.5, 0.5])
    return mu, nu


def random_measure(rng, planes, per_plane):
    pts = np.array([[rng.uniform(0, 1), y] for y in planes for _ in range(per_plane)])
    return DiscreteMeasure.equal_weights(pts)


def test_worked_example():
    mu, nu = two_atom_pair()
    # brute force over both matchings: min(0.5(1+1), 0.5(3+1)) = 1
    assert slip_distance(mu, nu) == 1.0
    plan = slip_plan(mu, nu)
    plan.validate(mu, nu, slip_tol=1e-9)
    assert plan.cost(mu, nu) == 1.0


def test_identity_and_marginal_mismatch():
    mu, _ = two_atom_pair()
    assert slip_distance(mu, mu) == 0.0
    a = DiscreteMeasure([[0.0, 0.0]], [1.0])
    b = DiscreteMeasure([[1.0, 1.0]], [1.0])
    assert math.isinf(slip_distance(a, b))
    with pytest.raises(ValueError):
        slip_plan(a, b)


def test_plane_mass_mismatch_below_plane_tol():
    # plane masses differ by 1e-10: below the plane position tolerance, above
    # plane_w1's mass tolerance, so the vertical marginals differ
    mu = DiscreteMeasure([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0]],
                         [0.25 + 1e-10, 0.25, 0.5 - 1e-10])
    nu = DiscreteMeasure([[0.2, 0.0], [0.2, 1.0]], [0.5, 0.5])
    assert slip_distance(mu, nu) == math.inf
    with pytest.raises(ValueError, match="vertical marginals differ"):
        slip_plan(mu, nu)


def test_plane_w1_cases():
    w = np.array([0.5, 0.5])
    assert plane_w1([0.0, 2.0], w, [0.0, 2.0], w) == 0.0
    # {0,2} vs {1,3}: brute force over permutations gives 1.0
    perms = [0.5 * (abs(0 - a) + abs(2 - b)) for a, b in ((1, 3), (3, 1))]
    assert min(perms) == 1.0
    assert plane_w1([0.0, 2.0], w, [1.0, 3.0], w) == 1.0
    with pytest.raises(ValueError):
        plane_w1([0.0], [1.0], [0.0, 1.0], [1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.floats(-3, 3))
def test_plane_w1_translation_property(xs, c):
    xs = np.asarray(xs)
    w = np.full(len(xs), 1.0 / len(xs))
    d = plane_w1(xs, w, xs + c, w)
    assert abs(d - abs(c)) <= 1e-9 * max(1.0, abs(c))


def test_eps_relaxed_examples():
    a = DiscreteMeasure([[0.0, 0.0]], [1.0])
    b = DiscreteMeasure([[1.0, 1.0]], [1.0])
    assert math.isclose(eps_relaxed_distance(a, b, 0.5), 3.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        eps_relaxed_distance(a, b, 0.0)


def test_eps_relaxed_vs_permutation_bruteforce():
    rng = np.random.default_rng(2)
    A = rng.uniform(0, 1, (3, 2))
    B = rng.uniform(0, 1, (3, 2))
    ma, mb = DiscreteMeasure.equal_weights(A), DiscreteMeasure.equal_weights(B)
    eps = 0.3
    best = min(
        sum(abs(A[i, 0] - B[p[i], 0]) + abs(A[i, 1] - B[p[i], 1]) / eps
            for i in range(3)) / 3
        for p in itertools.permutations(range(3)))
    assert math.isclose(eps_relaxed_distance(ma, mb, eps), best, abs_tol=1e-9)


def test_eps_ladder_and_domination():
    rng = np.random.default_rng(0)
    planes = [0.0, 0.37, 0.81]
    for _ in range(5):
        a = random_measure(rng, planes, 3)
        b = random_measure(rng, planes, 3)
        d = slip_distance(a, b)
        prev = -math.inf
        for eps in (1.0, 1e-1, 1e-2, 1e-3):
            de = eps_relaxed_distance(a, b, eps)
            assert de >= prev - 1e-12          # nondecreasing as eps decreases
            assert de <= d + 1e-10
            prev = de
        assert abs(prev - d) <= 1e-6           # converged at eps = 1e-3
        w1 = w1_distance(a, b)
        h1 = horizontal_marginal_w1(a, b)
        assert h1 <= w1 + 1e-10 and w1 <= d + 1e-10


def test_dual_bounds():
    mu, nu = two_atom_pair()
    assert dual_lower_bound(mu, nu, lambda p: 0.0) == 0.0
    # clipped -x1 attains the distance on the worked example
    phi = lambda p: -min(max(p[0], -10.0), 10.0)
    assert dual_lower_bound(mu, nu, phi) == 1.0
    with pytest.raises(ValueError):
        dual_lower_bound(mu, nu, lambda p: 2.0 * p[0])


def test_random_dual_bounds_dominated():
    rng = np.random.default_rng(8)
    planes = [0.0, 0.5]
    for _ in range(100):
        a = random_measure(rng, planes, 2)
        b = random_measure(rng, planes, 2)
        d = slip_distance(a, b)
        slope = {y: rng.uniform(-1, 1) for y in planes}
        off = {y: rng.uniform(-1, 1) for y in planes}
        phi = lambda p: slope[round(float(p[1]), 9)] * p[0] + off[round(float(p[1]), 9)]
        assert dual_lower_bound(a, b, phi) <= d + 1e-12


def test_metric_axioms_on_finite_stratum():
    rng = np.random.default_rng(3)
    planes = [0.1, 0.6]
    for _ in range(50):
        a = random_measure(rng, planes, 2)
        b = random_measure(rng, planes, 2)
        c = random_measure(rng, planes, 2)
        assert slip_distance(a, b) == slip_distance(b, a)
        assert slip_distance(a, c) <= slip_distance(a, b) + slip_distance(b, c) + 1e-10


def test_trajectory_dissipation():
    path = [DiscreteMeasure([[x, 0.0]], [1.0]) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert trajectory_dissipation(path) == 1.0
    coarse = [DiscreteMeasure([[x, 0.0]], [1.0]) for x in (0.0, 1.0)]
    assert trajectory_dissipation(coarse) == 1.0    # refinement invariance
    back = [DiscreteMeasure([[x, 0.0]], [1.0]) for x in (0.0, 1.0, 0.0)]
    assert trajectory_dissipation(back) == 2.0
    const = [DiscreteMeasure([[0.3, 0.2]], [1.0])] * 4
    assert trajectory_dissipation(const) == 0.0
    broken = [DiscreteMeasure([[0.0, 0.0]], [1.0]), DiscreteMeasure([[0.0, 1.0]], [1.0])]
    assert math.isinf(trajectory_dissipation(broken))


def test_atom_cap():
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(0, 1, 70), np.zeros(70)], axis=1)
    big = DiscreteMeasure.equal_weights(pts)
    with pytest.raises(ValueError):
        eps_relaxed_distance(big, big, 0.1)


def test_plan_invariants_checked():
    from slipdyn.transport import TransportPlan
    mu, nu = two_atom_pair()
    bad = TransportPlan(entries=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        bad.validate(mu, nu)
