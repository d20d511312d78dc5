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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row]
    pivot /= pivot[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero factor are skipped, not updated by zero: x - 0 * y can
    # turn -0.0 into 0.0.
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * pivot  # the outer product
    basis[row] = col


def _ratio_row(tableau: np.ndarray, basis: list[int], col: int, m: int) -> int:
    """Leaving row by minimum ratio; ties broken by smallest basis index (Bland)."""
    column = tableau[:m, col]
    rows = (column > PIVOT_EPS).nonzero()[0]
    best_row = -1
    best = np.inf
    for i, ratio in zip(rows.tolist(), (tableau[rows, -1] / column[rows]).tolist()):
        if ratio < best - PIVOT_EPS or (
            abs(ratio - best) <= PIVOT_EPS and (best_row < 0 or basis[i] < basis[best_row])
        ):
            best = ratio
            best_row = i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], m: int, ncols: int) -> None:
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    pivots = 0
    while True:
        entering = (tableau[m, :ncols] < -COST_EPS) & nonbasic
        col = int(entering.argmax())
        if not entering[col]:
            return
        if pivots == MAX_PIVOTS:
            raise LpIterationLimit(f"no optimum after {MAX_PIVOTS} pivots")
        row = _ratio_row(tableau, basis, col, m)
        if row < 0:
            raise LpUnbounded(f"column {col} has no blocking row")
        nonbasic[basis[row]] = True
        nonbasic[col] = False
        _pivot(tableau, basis, row, col)
        pivots += 1


def phase_one(a_eq, b_eq) -> PhaseOne:
    """A feasible basis of a_eq x = b_eq, x >= 0 (LpInfeasible if none)."""
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    if a.ndim != 2:
        raise ValueError("a_eq must be a matrix")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Artificial basis, minimise total infeasibility.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, n : n + m] = 1.0
    tableau[m] -= tableau[:m].sum(axis=0)
    basis = list(range(n, n + m))
    _run_simplex(tableau, basis, m, n + m)
    if tableau[m, -1] < -FEAS_EPS:
        raise LpInfeasible(f"phase-1 residual {-tableau[m, -1]:.3e}")

    # Drive remaining artificials out of the basis (or drop redundant rows).
    keep = []
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(tableau[i, :n]) > PIVOT_EPS)
            if nonzero.size:
                _pivot(tableau, basis, i, int(nonzero[0]))
                keep.append(i)
            # else: redundant row, drop it
        else:
            keep.append(i)
    return PhaseOne(tableau[keep][:, [*range(n), n + m]], tuple(basis[i] for i in keep))


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
