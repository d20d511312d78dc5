"""Simplex solver: hand-checked programs plus a brute-force vertex oracle."""

from __future__ import annotations

import dataclasses
import sys
import threading
from contextlib import suppress
from itertools import combinations

import numpy as np
import pytest

from beliefbound import lp
from beliefbound.errors import DataError
from beliefbound.lp import LpInfeasible, LpIterationLimit, LpUnbounded, solve_lp
from beliefbound.oracle import SkeletonVariable, build_polytope
from beliefbound.tables import DistTable, ExperimentalDomain
from support import (
    Y,
    Z,
    chained_dataset,
    random_binary_dataset,
    reference_solve_lp,
    trie_nodes,
)


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


# -- kept phase-one paths ------------------------------------------------------


def _phase_one_outcome(a, b, *paths):
    """Everything of a phase one, as bytes: its tableau and layout and basis, or
    its exception and message."""
    try:
        start = lp.phase_one(a, b, *paths)
    except (LpInfeasible, LpUnbounded, LpIterationLimit) as exc:
        return type(exc), str(exc)
    return start.tableau.tobytes(), start.tableau.shape, start.tableau.strides, start.basis


@pytest.fixture
def eliminations(monkeypatch):
    """Counts full-tableau eliminations: a phase one replayed to its end makes none."""
    calls = []
    eliminate = lp._eliminate
    monkeypatch.setattr(lp, "_eliminate", lambda *args: calls.append(1) or eliminate(*args))
    return calls


def _ladder_programs(monkeypatch):
    """(A, right-hand sides) of each class program the oracle builds for seeded
    ladder-shaped datasets: chained Z -> W -> Y <- D data and random (Z, Y)
    tables under Y <- (D, Z), each plain and with a do(Z=1) domain; the random
    tables' domain is drawn at random, so some are infeasible."""
    datasets = []
    for seed in range(6):
        for sizes in ({"Z": 2, "W": 2}, {"Z": 3, "W": 2}):
            data, skeleton = chained_dataset(seed, sizes)
            datasets += [(data, skeleton), (dataclasses.replace(data, domains=()), skeleton)]
    skeleton = [SkeletonVariable("Z", (0, 1)), SkeletonVariable("Y", (0, 1), ("D", "Z"))]
    rng = np.random.default_rng(41)
    for seed in range(10):
        data = random_binary_dataset(seed)
        shifted = {}
        for d in (0, 1):
            p = float(rng.uniform(0.0, 1.0))
            shifted[d] = DistTable((Y, Z), {(1, 1): p, (0, 1): 1 - p})
        domain = ExperimentalDomain("exp", {"Z": 1}, shifted)
        datasets += [(data, skeleton), (dataclasses.replace(data, domains=(domain,)), skeleton)]
    calls = []
    phase_one = lp.phase_one
    with monkeypatch.context() as patch:
        patch.setattr(lp, "phase_one", lambda a, b, *paths: calls.append((a, b)) or phase_one(a, b))
        for data, skeleton in datasets:
            with suppress(DataError):
                build_polytope(data, skeleton)
    programs = {}
    for a, b in calls:
        programs.setdefault((a.shape, a.tobytes()), (a, []))[1].append(b)
    return list(programs.values())


def test_replay_matches_cold_on_ladder_programs(monkeypatch, eliminations):
    """Phase one through a trie equals the cold one bit for bit on the oracle's
    programs, on first calls and on repeats, which replay without elimination."""
    programs = _ladder_programs(monkeypatch)
    assert len(programs) == 6
    infeasible = 0
    for a, rhs in programs:
        paths = lp.PhaseOnePaths(100)
        for repeat in (False, True):
            for b in rhs:
                want = _phase_one_outcome(a, b)
                eliminations.clear()
                assert _phase_one_outcome(a, b, paths) == want
                if repeat and want[0] is not LpInfeasible:
                    assert not eliminations
                infeasible += not repeat and want[0] is LpInfeasible
        assert 1 <= paths.count <= len(rhs)
    assert infeasible >= 3


def test_replay_matches_cold_on_degenerate_programs(eliminations):
    """The degenerate 0/1 programs of the kernel test, each also solved on a
    second right-hand side sharing its matrix, in turn and again: replays,
    replays that leave the trie and resume, and cold runs all agree with the
    cold phase one in every bit, exception messages included."""
    rng, other = np.random.default_rng(29), np.random.default_rng(30)
    replayed = resumed = 0
    for _ in range(600):
        a, b = _degenerate_program(rng)[1:]
        x = other.integers(0, 3, size=a.shape[1]) * (other.random(a.shape[1]) < 0.5)
        paths = lp.PhaseOnePaths(8)
        for rhs in (b, a @ x, b, a @ x):
            want = _phase_one_outcome(a, rhs)
            count, nodes = paths.count, trie_nodes(paths)
            eliminations.clear()
            assert _phase_one_outcome(a, rhs, paths) == want
            if (rhs < 0).any():
                assert (paths.count, trie_nodes(paths)) == (count, nodes)
            replayed += (rhs >= 0).all() and not eliminations
            resumed += bool(eliminations) and nodes > 0 and paths.count > count
    assert replayed >= 300 and resumed >= 30, (replayed, resumed)


def _diagonal_program():
    """Nine unit rows and a zero row: the cold path pivots each unit column in
    turn, whatever b is, and the zero row's b decides feasibility."""
    return np.vstack([np.eye(9), np.zeros(9)])


def test_an_infeasible_replay_raises_the_cold_residual(eliminations):
    """A b whose path was recorded by a feasible one raises, on replay, the
    cold LpInfeasible text.  The residual, 92 where a pairwise sum of b would
    give 100, shows that the cost entry adds b row by row as the cold path does."""
    a = _diagonal_program()
    paths = lp.PhaseOnePaths(8)
    feasible = np.array([1e16, *[1.0] * 8, 0.0])
    assert _phase_one_outcome(a, feasible, paths) == _phase_one_outcome(a, feasible)
    infeasible = np.array([1e16, *[1.0] * 8, 100.0])
    want = _phase_one_outcome(a, infeasible)
    assert want == (LpInfeasible, "phase-1 residual 9.200e+01")
    eliminations.clear()
    assert _phase_one_outcome(a, infeasible, paths) == want
    assert not eliminations and paths.count == 1


def test_a_negative_entry_runs_cold_and_is_not_recorded(eliminations):
    a = _diagonal_program()
    paths = lp.PhaseOnePaths(8)
    lp.phase_one(a, np.arange(10.0) * (np.arange(10) < 9), paths)
    nodes = trie_nodes(paths)
    b = np.array([-1.0, *[1.0] * 8, 0.0])
    want = _phase_one_outcome(a, b)
    eliminations.clear()
    assert _phase_one_outcome(a, b, paths) == want
    assert eliminations and (paths.count, trie_nodes(paths)) == (1, nodes)


def test_an_empty_program_replays():
    a, b = np.zeros((0, 3)), np.zeros(0)
    paths = lp.PhaseOnePaths(8)
    for _ in range(2):
        assert _phase_one_outcome(a, b, paths) == _phase_one_outcome(a, b)
    assert paths.count == 1


def test_a_replay_reads_the_pivot_cap_at_call_time(monkeypatch, eliminations):
    """The diagonal program's path has nine pivots: a replay under a cap of
    eight stops as the cold path does, and under nine ends as it does."""
    a, b = _diagonal_program(), np.array([*range(1, 10), 0.0])
    paths = lp.PhaseOnePaths(8)
    lp.phase_one(a, b, paths)
    for cap in (8, 9, 0):
        monkeypatch.setattr(lp, "MAX_PIVOTS", cap)
        want = _phase_one_outcome(a, b)
        eliminations.clear()
        assert _phase_one_outcome(a, b, paths) == want
        assert not eliminations
        assert (want[0] is LpIterationLimit) == (cap < 9)


def _two_path_program():
    """Column 0 enters first and leaves row 0 or row 1, whichever b makes
    smaller: (A, b of the row-0 path, b of the row-1 path)."""
    return np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), np.array([1.0, 2.0]), np.array([2.0, 1.0])


def test_a_full_trie_replays_and_records_nothing(eliminations):
    a, first, second = _two_path_program()
    paths = lp.PhaseOnePaths(1)
    lp.phase_one(a, first, paths)
    nodes = trie_nodes(paths)
    assert _phase_one_outcome(a, second, paths) == _phase_one_outcome(a, second)
    assert (paths.count, trie_nodes(paths)) == (1, nodes)
    want = _phase_one_outcome(a, first)
    eliminations.clear()
    assert _phase_one_outcome(a, first, paths) == want
    assert not eliminations


def test_a_path_is_attached_only_once_complete(monkeypatch):
    """While a cold run records a path, no node of it is in the trie, and a
    reader replaying meanwhile gets the cold result; the path is there after."""
    a, first, second = _two_path_program()
    paths = lp.PhaseOnePaths(8)
    lp.phase_one(a, first, paths)
    nodes, want = trie_nodes(paths), _phase_one_outcome(a, first)
    seen = []
    eliminate = lp._eliminate

    def read_meanwhile(*args):
        seen.append(trie_nodes(paths))
        assert _phase_one_outcome(a, first, paths) == want  # replays: no elimination
        return eliminate(*args)

    monkeypatch.setattr(lp, "_eliminate", read_meanwhile)
    lp.phase_one(a, second, paths)
    assert seen and set(seen) == {nodes}
    assert paths.count == 2 and trie_nodes(paths) > nodes


def test_threads_share_a_trie():
    """Six threads replaying and recording one matrix's right-hand sides at
    once, with a short switch interval, all get the cold results, and the
    trie counts each path it holds exactly once."""
    rng = np.random.default_rng(43)
    a = np.vstack([rng.integers(0, 2, size=(12, 20)).astype(float), np.ones(20)])
    rhs = []
    for _ in range(40):
        x = rng.dirichlet(np.ones(20)) * (rng.random(20) < 0.3)
        rhs.append(a @ (x / max(x.sum(), 1e-3)))
    want = [_phase_one_outcome(a, b) for b in rhs]
    paths, wrong = lp.PhaseOnePaths(1000), []

    def work(shift):
        try:
            for i in [*range(shift, len(rhs)), *range(shift)] * 2:
                if _phase_one_outcome(a, rhs[i], paths) != want[i]:
                    wrong.append(i)
        except BaseException as exc:  # reported by the assertion below
            wrong.append(exc)

    threads = [threading.Thread(target=work, args=(7 * k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert paths.count == trie_nodes(paths, ends_only=True) >= 2
