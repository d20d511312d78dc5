"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c'x  s.t.  A x = b, x >= 0.

Bland's anti-cycling rule throughout: the polytopes built from canonical
response types are highly degenerate (many zero cells), and problem sizes stay
in the tens to hundreds of variables (the oracle solves over merged duplicate
columns, not one column per atom), so a plain dense tableau beats anything
fancier.  Each pivot is one rank-1 update of the rows with a nonzero entry in
the pivot column, which performs the row-by-row elimination's arithmetic.

`solve_lp` is `phase_two(phase_one(A, b), c)`; no package code calls it.
The two phases are public because the oracle runs phase one once per
polytope: every gap solve's phase twos start from the polytope's stored phase
one, with its columns gathered onto the gap program's.  Each phase stops after
MAX_PIVOTS pivots with LpIterationLimit, so a solve always terminates.

Phase one replays the paths kept for its matrix (`PhaseOnePaths`): with A
fixed, only the ratio test and the right-hand side read b, and every other
decision reads the A-part, a function of the pivots made.  A trie keeps each
cold path's pivots with their columns (cost row included) and its end; a replay
runs the ratio tests and pivots on b's right-hand side alone, with the cold
float operations (its cost entry sums b row by row, as `sum(axis=0)` does), so
its result or exception (MAX_PIVOTS read at the call) is the cold one to the
bit.  A replay that leaves the trie resumes cold there, redoing only its
pivots' A-part, and the new path is attached whole, by one assignment under
the writers' lock, so a reader, which takes no lock, never meets half of one.
Never recorded: a b with a negative entry (its rows flip), a path that raises,
a path past `limit`; a full trie still replays.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce

import numpy as np

PIVOT_EPS = 1e-10
COST_EPS = 1e-10
FEAS_EPS = 1e-8
# Pivots allowed per phase, and Dinkelbach steps per conditional gap in the
# oracle.  Bland's rule needs at most about one pivot per row on the oracle's
# programs (136 in a phase on the 257-row program of a binary Y with seven
# binary parents), so this cap only stops a runaway solve.
MAX_PIVOTS = 10_000


class LpInfeasible(Exception):
    """The equality system has no non-negative solution."""


class LpUnbounded(Exception):
    """The objective decreases without bound on the feasible set."""


class LpIterationLimit(Exception):
    """A phase reached MAX_PIVOTS pivots without reaching an optimum."""


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float


@dataclass(frozen=True)
class PhaseOne:
    """A feasible basis of A x = b, x >= 0, as phase one leaves it.

    `tableau` holds the rows [B^-1 A | B^-1 b] with redundant rows dropped,
    and `basis` the basic column of each row.  Phase two copies it.
    """

    tableau: np.ndarray
    basis: tuple[int, ...]


# A trie node: a pivot's column index and column before it, and the next node by
# leaving row; or a path's end: its drive-outs and its A-part's non-+0.0 entries.
_Step = namedtuple("_Step", "col column after")
_End = namedtuple("_End", "drives at entries")


class PhaseOnePaths:
    """At most `limit` phase-one paths of one matrix; the first node is `after[None]`."""

    def __init__(self, limit: int) -> None:
        self.limit, self.count, self.after = limit, 0, {}
        self._lock = threading.Lock()  # writers only: a reader sees whole branches

    def _attach(self, steps: list, drives: list, tableau: np.ndarray) -> None:
        """Add a cold path unless it is kept or the trie full: pivots, drive-outs, result."""
        keys, after, depth = [None, *(step[-1] for step in steps)], self.after, 0
        with self._lock:
            while depth < len(steps) and keys[depth] in after:
                after, depth = after[keys[depth]].after, depth + 1
            if self.count >= self.limit or keys[depth] in after:
                return
            a_part = tableau[:, :-1]
            at = np.flatnonzero((a_part != 0.0) | np.signbit(a_part))  # -0.0 kept too
            branch = _End(tuple(drives), at, a_part.flat[at])
            for col, column, row in reversed(steps[depth:]):
                branch = _Step(col, column, {row: branch})
            after[keys[depth]] = branch
            self.count += 1


def _pivot(tableau, basis: list[int], row: int, col: int, column: list | None = None) -> None:
    """Pivot on (row, col).  A replay passes only the right-hand side, a list,
    and the column before the pivot: the same operations, on Python floats."""
    basis[row] = col
    if column is None:
        _eliminate(tableau, row, col)
        return
    x = tableau[row] / column[row]
    for i, factor in enumerate(column):
        if factor:  # as below, a zero factor skips its row
            tableau[i] -= factor * x
    tableau[row] = x


def _eliminate(tableau: np.ndarray, row: int, col: int) -> None:
    pivot = tableau[row]
    pivot /= pivot[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero factor are skipped, not updated by zero: x - 0 * y can
    # turn -0.0 into 0.0.
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * pivot  # the outer product


def _ratio_row(column: list[float], rhs: list[float], basis: list[int]) -> int:
    """Leaving row by minimum ratio; ties broken by smallest basis index (Bland)."""
    best_row = -1
    best = np.inf
    for i, a in enumerate(column):
        if a > PIVOT_EPS:
            ratio = rhs[i] / a
            if ratio < best - PIVOT_EPS or (
                abs(ratio - best) <= PIVOT_EPS and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best, best_row = ratio, i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], m: int, ncols: int, steps=None) -> None:
    """Pivot to optimality after the pivots in `steps`, appending each to it."""
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    pivots = 0 if steps is None else len(steps)
    while True:
        entering = (tableau[m, :ncols] < -COST_EPS) & nonbasic
        col = int(entering.argmax())
        if not entering[col]:
            return
        if pivots == MAX_PIVOTS:
            raise LpIterationLimit(f"no optimum after {MAX_PIVOTS} pivots")
        row = _ratio_row(tableau[:m, col].tolist(), tableau[:m, -1].tolist(), basis)
        if row < 0:
            raise LpUnbounded(f"column {col} has no blocking row")
        if steps is not None:
            steps.append((col, tableau[:, col].copy(), row))
        nonbasic[basis[row]] = True
        nonbasic[col] = False
        _pivot(tableau, basis, row, col)
        pivots += 1


def _replay(paths: PhaseOnePaths, b: np.ndarray, n: int) -> PhaseOne | list:
    """Phase one of b along the kept paths, or the pivots replayed before a miss."""
    m = b.size
    rhs = b.tolist()
    rhs.append(0.0 - reduce(float.__add__, rhs, 0.0))  # row by row, as the cold sum(axis=0)
    basis = list(range(n, n + m))
    node, steps = paths.after.get(None), []
    while isinstance(node, _Step):
        if len(steps) == MAX_PIVOTS:
            raise LpIterationLimit(f"no optimum after {MAX_PIVOTS} pivots")
        col, column, after = node
        values = column.tolist()  # its cost entry, < -COST_EPS, never blocks
        row = _ratio_row(values, rhs, basis)
        if row not in after:
            return steps
        _pivot(rhs, basis, row, col, values)
        steps.append((col, column, row))
        node = after[row]
    if node is None:
        return steps
    if rhs[m] < -FEAS_EPS:
        raise LpInfeasible(f"phase-1 residual {-rhs[m]:.3e}")
    for col, column, row in node.drives:
        _pivot(rhs, basis, row, col, column.tolist())
    keep = [i for i in range(m) if basis[i] < n]  # an artificial left marks a dropped row
    tableau = np.zeros((len(keep), n + 1), order="F")  # the cold result's layout
    tableau[:, :n].flat[node.at] = node.entries
    tableau[:, n] = [rhs[i] for i in keep]
    return PhaseOne(tableau, tuple(basis[i] for i in keep))


def phase_one(a_eq, b_eq, paths: PhaseOnePaths | None = None) -> PhaseOne:
    """A feasible basis of a_eq x = b_eq, x >= 0 (LpInfeasible if none),
    replayed from and recorded to `paths`, a_eq's kept paths, when given."""
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    if a.ndim != 2:
        raise ValueError("a_eq must be a matrix")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    neg = b < 0
    steps = drives = None
    if paths is not None and not neg.any():
        replayed = _replay(paths, b, n)
        if isinstance(replayed, PhaseOne):
            return replayed
        steps, drives = replayed, []

    # Artificial basis, minimise total infeasibility.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[:m][neg] *= -1.0  # rows with b_i < 0, before the identity goes in
    tableau[:m, n : n + m] = np.eye(m)
    tableau[m, n : n + m] = 1.0
    tableau[m] -= tableau[:m].sum(axis=0)
    basis = list(range(n, n + m))
    for col, _, row in steps or ():  # the replayed pivots: their A-part
        basis[row] = col
        _eliminate(tableau, row, col)
    _run_simplex(tableau, basis, m, n + m, steps)
    if tableau[m, -1] < -FEAS_EPS:
        raise LpInfeasible(f"phase-1 residual {-tableau[m, -1]:.3e}")

    # Drive remaining artificials out of the basis (or drop redundant rows).
    keep = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(tableau[i, :n]) > PIVOT_EPS)
            if nonzero.size:
                col = int(nonzero[0])
                if drives is not None:
                    drives.append((col, tableau[:, col].copy(), i))
                _pivot(tableau, basis, i, col)
                keep.append(i)
            # else: redundant row, drop it
        else:
            keep.append(i)
    start = PhaseOne(tableau[keep][:, [*range(n), n + m]], tuple(basis[i] for i in keep))
    if steps is not None:
        paths._attach(steps, drives, start.tableau)
    return start


def phase_two(start: PhaseOne, c) -> LpSolution:
    """Minimise c'x from the feasible basis `start` (its tableau is not modified)."""
    cost = np.asarray(c, dtype=float)
    m, n = start.tableau.shape[0], start.tableau.shape[1] - 1
    if cost.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m] = start.tableau
    tableau[m, :n] = cost
    basis = list(start.basis)
    for i, var in enumerate(basis):
        if cost[var] != 0.0:
            tableau[m] -= cost[var] * tableau[i]
    _run_simplex(tableau, basis, m, n)

    x = np.zeros(n)
    x[np.asarray(basis, dtype=np.intp)] = tableau[:m, -1]
    return LpSolution(x=x, value=float(cost @ x))


def solve_lp(c, a_eq, b_eq) -> LpSolution:
    """Minimise c'x subject to a_eq x = b_eq, x >= 0."""
    return phase_two(phase_one(a_eq, b_eq), c)
