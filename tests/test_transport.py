import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipdyn import transport
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
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            eps_relaxed_distance(a, b, eps)


def test_eps_relaxed_vs_permutation_bruteforce():
    eps = 0.3
    for n in range(1, 7):
        rng = np.random.default_rng(2)
        A = rng.uniform(0, 1, (n, 2))
        B = rng.uniform(0, 1, (n, 2))
        ma, mb = DiscreteMeasure.equal_weights(A), DiscreteMeasure.equal_weights(B)
        best = min(
            sum(abs(A[i, 0] - B[p[i], 0]) + abs(A[i, 1] - B[p[i], 1]) / eps
                for i in range(n)) / n
            for p in itertools.permutations(range(n)))
        assert math.isclose(eps_relaxed_distance(ma, mb, eps), best, abs_tol=1e-9)


def _grid_measure(rng, n, ys):
    """n distinct equal-weight atoms on the grid x in k/64, y in ys."""
    cells = np.array([[k / 64, y] for y in ys for k in range(65)])
    return DiscreteMeasure.equal_weights(cells[rng.choice(len(cells), n, replace=False)])


def test_assignment_route_matches_highs(monkeypatch):
    # equal-weight pairs take the assignment route; the HiGHS LP is the oracle.
    # Grid coordinates make many costs tie, so optimal plans are not unique.
    rng = np.random.default_rng(11)
    grid_y = np.arange(9) / 8
    cases = []
    for k in range(200):
        planes = rng.choice(grid_y, int(rng.integers(1, 5)), replace=False)
        # every fourth pair puts each side on one extra plane of its own
        extra = rng.choice(np.setdiff1d(grid_y, planes), 2, replace=False) if k % 4 == 0 else ()
        n = int(np.exp(rng.uniform(0, np.log(65))))     # 1..64, log-uniform
        mu = _grid_measure(rng, n, [*planes, *extra[:1]])
        nu = _grid_measure(rng, n, [*planes, *extra[1:]])
        cases.append((mu, nu))
    assert {1, 64} <= {mu.n_atoms for mu, _ in cases}

    def values():
        return [[eps_relaxed_distance(mu, nu, eps) for eps in (1.0, 0.1, 0.01, 0.001)]
                + [w1_distance(mu, nu)] for mu, nu in cases]

    fast = values()
    monkeypatch.setattr(transport, "_transport_lp", transport._highs_lp)
    for got, want in zip(fast, values()):
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * abs(b) or (b == 0 and abs(a) <= 1e-12)


def test_highs_reaches_the_assignment_optimum():
    # at HiGHS's default 1e-7 tolerances the LP stopped 6.5e-9 (relative) above
    # the optimum on this 26-atom pair
    rng = np.random.default_rng(151)
    n = int(rng.integers(8, 33))
    ys = np.repeat(rng.choice(np.arange(1, 20), 3, replace=False) * 0.05, -(-n // 3))[:n]
    mu = DiscreteMeasure.equal_weights(np.column_stack([rng.uniform(0, 1, n), ys]))
    nu = DiscreteMeasure.equal_weights(np.column_stack([rng.uniform(0, 1, n),
                                                        rng.permutation(ys)]))
    d = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.hypot(d[..., 0], d[..., 1])
    exact = w1_distance(mu, nu)
    assert abs(transport._highs_lp(mu, nu, cost) - exact) <= 1e-12 * exact


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


def test_dual_bound_calls_phi_once_per_atom():
    # the Lipschitz check and the weighted sums share one value per atom
    rng = np.random.default_rng(5)
    mu = random_measure(rng, [0.0, 0.5, 1.0], 3)
    nu = random_measure(rng, [0.0, 0.5, 1.0], 3)
    calls = [0]

    def phi(p):
        calls[0] += 1
        return 0.5 * p[0]
    dual_lower_bound(mu, nu, phi)
    assert calls[0] == mu.n_atoms + nu.n_atoms


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
    # unequal weights: the LP route, which carries the cap
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(0, 1, 70), np.zeros(70)], axis=1)
    w = rng.uniform(0.5, 1.5, 70)
    big = DiscreteMeasure(pts, w / w.sum())
    with pytest.raises(ValueError):
        eps_relaxed_distance(big, big, 0.1)


def test_equal_weights_above_atom_cap():
    rng = np.random.default_rng(5)
    a = random_measure(rng, [0.0, 0.3, 0.55, 0.9], 64)
    b = random_measure(rng, [0.0, 0.3, 0.55, 0.9], 64)
    assert a.n_atoms == 256 > transport.LP_ATOM_CAP
    d = slip_distance(a, b)
    assert abs(eps_relaxed_distance(a, b, 1e-3) - d) <= 1e-6
    assert horizontal_marginal_w1(a, b) <= w1_distance(a, b) <= d


def _loop_pieces(xs, wx, ys, wy):
    """The per-level loop plane_w1 and slip_plan ran before vectorization:
    (total, [(sorted-order source index, target index, mass), ...])."""
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    xs, wx = np.asarray(xs, dtype=float)[ox], np.asarray(wx, dtype=float)[ox]
    ys, wy = np.asarray(ys, dtype=float)[oy], np.asarray(wy, dtype=float)[oy]
    cx = np.cumsum(wx)
    cy = np.cumsum(wy)
    total = 0.0
    prev = 0.0
    pieces = []
    for lev in np.union1d(cx, cy):
        dq = lev - prev
        if dq <= 0:
            continue
        i = min(np.searchsorted(cx, prev + dq / 2), len(xs) - 1)
        j = min(np.searchsorted(cy, prev + dq / 2), len(ys) - 1)
        total += dq * abs(xs[i] - ys[j])
        pieces.append((int(ox[i]), int(oy[j]), float(dq)))
        prev = lev
    return total, pieces


def test_quantile_coupling_matches_loop():
    # exact equality: the vectorized pieces and the running sum repeat the
    # loop's arithmetic in the loop's order
    rng = np.random.default_rng(4)
    for k in range(1000):
        planes = rng.choice(np.arange(5) / 4, int(rng.integers(1, 4)), replace=False)
        sides = []
        for _ in range(2):
            pts, w = [], []
            for y in planes:
                xs = rng.choice(9, int(rng.integers(1, 10)), replace=False) / 8
                # tied weights on even k, unequal ones on odd k
                wy = rng.integers(1, 4, len(xs)) if k % 2 else np.ones(len(xs))
                pts += [[x, y] for x in xs]
                w += list(wy / wy.sum() / len(planes))
            sides.append(DiscreteMeasure(pts, w))
        mu, nu = sides
        total = 0.0
        entries = []
        for (_, ia), (_, ib) in zip(mu.planes(), nu.planes()):
            t, pieces = _loop_pieces(mu.points[ia, 0], mu.weights[ia],
                                     nu.points[ib, 0], nu.weights[ib])
            assert plane_w1(mu.points[ia, 0], mu.weights[ia],
                            nu.points[ib, 0], nu.weights[ib]) == t
            total += t
            entries += [(int(ia[i]), int(ib[j]), m) for i, j, m in pieces]
        assert slip_distance(mu, nu) == total
        assert slip_plan(mu, nu).entries == tuple(entries)
        t, _ = _loop_pieces(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)
        assert horizontal_marginal_w1(mu, nu) == t


def test_plan_invariants_checked():
    from slipdyn.transport import TransportPlan
    mu, nu = two_atom_pair()
    bad = TransportPlan(entries=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        bad.validate(mu, nu)
