"""Simplex solver: hand-checked programs plus a brute-force vertex oracle."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from beliefbound import lp
from beliefbound.lp import LpInfeasible, LpIterationLimit, LpUnbounded, solve_lp
from support import reference_solve_lp


def brute_force_min(c, a, b, tol=1e-9):
    """Enumerate basic solutions; the optimum of a bounded feasible LP sits
    at one of them.  Independent of the simplex path being tested."""
    m, n = a.shape
    best = None
    for cols in combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if (x_b < -tol).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        value = float(c @ x)
        if best is None or value < best:
            best = value
    return best


def test_known_small_program():
    # min -x - y  s.t.  x + y + s = 1  ->  optimum -1 on the segment
    c = np.array([-1.0, -1.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    sol = solve_lp(c, a, b)
    assert sol.value == pytest.approx(-1.0, abs=1e-12)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_degenerate_equalities():
    # x1 = 0 forced; objective picks x3.
    c = np.array([0.0, 1.0, -1.0])
    a = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    b = np.array([0.0, 1.0])
    sol = solve_lp(c, a, b)
    assert sol.value == pytest.approx(-1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(0.0, abs=1e-12)


def test_infeasible_detected():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(LpInfeasible):
        solve_lp(np.zeros(2), a, b)


def test_unbounded_detected():
    # x - y free direction: minimise x2 - x1 with x1 - x2 = 0 binding nothing.
    c = np.array([-1.0, 0.0])
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(LpUnbounded):
        solve_lp(c, a, b)


def test_negative_rhs_normalised():
    c = np.array([1.0, 0.0])
    a = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    sol = solve_lp(c, a, b)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_redundant_rows_are_dropped():
    c = np.array([-1.0, 0.0])
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    sol = solve_lp(c, a, b)
    assert sol.value == pytest.approx(-1.0, abs=1e-12)


def test_against_vertex_enumeration():
    rng = np.random.default_rng(21)
    solved = 0
    while solved < 60:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 2, 9))
        # A mass row keeps the region bounded, so every optimum is basic and
        # the enumeration oracle below is exhaustive.
        a = np.vstack([np.ones(n), rng.uniform(-1.0, 1.0, size=(m, n))])
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = a @ x0
        c = rng.uniform(-1.0, 1.0, size=n)
        expected = brute_force_min(c, a, b)
        if expected is None:
            continue
        sol = solve_lp(c, a, b)
        assert sol.value == pytest.approx(expected, abs=1e-7)
        assert np.allclose(a @ sol.x, b, atol=1e-8)
        assert (sol.x >= -1e-9).all()
        solved += 1


def test_solution_satisfies_constraints_exactly_enough():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 12
        a = np.vstack([np.ones(n), rng.uniform(0, 1, size=(2, n))])
        x0 = rng.dirichlet(np.ones(n))
        b = a @ x0
        c = rng.uniform(-1, 1, size=n)
        sol = solve_lp(c, a, b)
        assert np.allclose(a @ sol.x, b, atol=1e-9)
        assert float(c @ sol.x) <= float(c @ x0) + 1e-9


def test_pivot_cap_stops_the_solve(monkeypatch):
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    assert solve_lp(c, a, b).value == pytest.approx(-5.0, abs=1e-12)
    monkeypatch.setattr(lp, "MAX_PIVOTS", 1)
    with pytest.raises(LpIterationLimit):
        solve_lp(c, a, b)


def test_matches_highs_on_random_degenerate_programs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    for _ in range(80):
        m, n = int(rng.integers(2, 7)), int(rng.integers(4, 24))
        # 0/1 rows like the oracle's cell indicators, a duplicated row and a
        # total-mass row; a sparse generating point makes the optimum degenerate.
        a = rng.integers(0, 2, size=(m, n)).astype(float)
        a = np.vstack([a, a[:1], np.ones(n)])
        x0 = np.zeros(n)
        support = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        x0[support] = rng.dirichlet(np.ones(len(support)))
        b = a @ x0
        c = rng.integers(-2, 3, size=n).astype(float)
        ours = solve_lp(c, a, b)
        ref = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert ours.value == pytest.approx(ref.fun, abs=1e-9)
        assert np.abs(a @ ours.x - b).max() <= 1e-9
        assert ours.x.min() >= -1e-12


def _degenerate_program(rng):
    """A random 0/1 program built to be degenerate: repeated rows and columns,
    small-integer or sparse right-hand sides (so ratio tests tie), some rows
    negated; half carry a mass row, and some right-hand sides are random, so
    unbounded and infeasible programs occur too."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(2, 14))
    a = rng.integers(0, 2, size=(m, n)).astype(float)
    a = a[rng.integers(0, m, size=m + int(rng.integers(0, 3)))]
    a = a[:, rng.integers(0, n, size=n)]
    x0 = np.zeros(n)
    support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    if rng.random() < 0.5:
        x0[support] = rng.integers(0, 3, size=support.size)
    else:
        x0[support] = rng.dirichlet(np.ones(support.size))
    b = a @ x0
    if rng.random() < 0.15:
        b = rng.integers(0, 3, size=b.size).astype(float)
    if rng.random() < 0.5:
        a, b = np.vstack([a, np.ones(n)]), np.append(b, x0.sum())
    flip = rng.random(b.size) < 0.2
    a[flip] *= -1.0
    b[flip] *= -1.0
    return rng.integers(-2, 3, size=n).astype(float), a, b


def _outcome(solve, c, a, b):
    try:
        sol = solve(c, a, b)
    except (LpInfeasible, LpUnbounded, LpIterationLimit) as exc:
        return type(exc), str(exc)
    return sol.x.tobytes(), sol.value


def test_vectorised_kernel_matches_the_row_loops():
    """The rank-1 pivot, masked entering scan and vectorised ratio test pivot
    exactly as the row-by-row loops: same bits of x (signed zeros included),
    same value, same exception and message."""
    rng = np.random.default_rng(29)
    kinds = {"solved": 0, LpInfeasible: 0, LpUnbounded: 0}
    for _ in range(600):
        c, a, b = _degenerate_program(rng)
        want = _outcome(reference_solve_lp, c, a, b)
        assert _outcome(solve_lp, c, a, b) == want
        if want[0] in kinds:
            kinds[want[0]] += 1
        else:
            kinds["solved"] += 1
            assert np.array_equal(solve_lp(c, a, b).x, reference_solve_lp(c, a, b).x)
    assert min(kinds.values()) >= 30, kinds


def test_phase_two_restarts_from_a_stored_phase_one():
    rng = np.random.default_rng(31)
    for _ in range(100):
        c, a, b = _degenerate_program(rng)
        try:
            start = lp.phase_one(a, b)
        except LpInfeasible:
            continue
        snapshot = start.tableau.copy()
        for cost in (c, -c, np.zeros_like(c)):
            assert _outcome(lambda c, a, b: lp.phase_two(start, c), cost, a, b) == _outcome(
                solve_lp, cost, a, b
            )
        assert np.array_equal(start.tableau, snapshot)
