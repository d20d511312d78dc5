"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c'x  s.t.  A x = b, x >= 0.

Bland's anti-cycling rule throughout: the polytopes built from canonical
response types are highly degenerate (many zero cells), and problem sizes stay
in the tens to hundreds of variables (the oracle solves over merged duplicate
columns, not one column per atom), so a plain dense tableau beats anything
fancier.
Each phase stops after MAX_PIVOTS pivots with LpIterationLimit, so a solve
always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_EPS = 1e-10
COST_EPS = 1e-10
FEAS_EPS = 1e-8
# Pivots allowed per phase.  Bland's rule needs about one pivot per row on the
# package's programs (at most 51 in a phase across the benchmark's oracle and
# TV-ball programs, whose rows number in the tens), so this cap only stops a
# runaway solve.
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


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _ratio_row(tableau: np.ndarray, basis: list[int], col: int, m: int) -> int:
    """Leaving row by minimum ratio; ties broken by smallest basis index (Bland)."""
    best_row = -1
    best = np.inf
    for i in range(m):
        a = tableau[i, col]
        if a > PIVOT_EPS:
            ratio = tableau[i, -1] / a
            if ratio < best - PIVOT_EPS or (
                abs(ratio - best) <= PIVOT_EPS
                and (best_row < 0 or basis[i] < basis[best_row])
            ):
                best = ratio
                best_row = i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], m: int, ncols: int) -> None:
    pivots = 0
    while True:
        col = -1
        for j in range(ncols):
            if j not in basis and tableau[m, j] < -COST_EPS:
                col = j
                break
        if col < 0:
            return
        if pivots == MAX_PIVOTS:
            raise LpIterationLimit(f"no optimum after {MAX_PIVOTS} pivots")
        row = _ratio_row(tableau, basis, col, m)
        if row < 0:
            raise LpUnbounded(f"column {col} has no blocking row")
        _pivot(tableau, basis, row, col)
        pivots += 1


def solve_lp(c, a_eq, b_eq) -> LpSolution:
    """Minimise c'x subject to a_eq x = b_eq, x >= 0."""
    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    cost = np.asarray(c, dtype=float)
    if a.ndim != 2:
        raise ValueError("a_eq must be a matrix")
    m, n = a.shape
    if b.shape != (m,) or cost.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis, minimise total infeasibility.
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
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > PIVOT_EPS:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
                keep.append(i)
            # else: redundant row, drop it
        else:
            keep.append(i)
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep]
    m = len(basis)

    # Phase 2: original objective.
    tableau[m, :] = 0.0
    tableau[m, :n] = cost
    for i, var in enumerate(basis):
        if cost[var] != 0.0:
            tableau[m] -= cost[var] * tableau[i]
    _run_simplex(tableau, basis, m, n)

    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    return LpSolution(x=x, value=float(cost @ x))
