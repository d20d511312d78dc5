"""Shared generators for randomized suites.

Everything is driven by explicit integer seeds so failures replay exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from beliefbound.scm import ExoDistribution, Mechanism, Scm
from beliefbound.tables import BehaviouralDataset, DistTable, VariableRef

D = VariableRef("D", (0, 1))
Z = VariableRef("Z", (0, 1))
Y = VariableRef("Y", (0, 1))


def random_behaviour_model(seed: int, max_atoms: int = 16) -> Scm:
    """Random hidden model: Z <- U, Y <- (D, Z, U), shared latent U.

    Atom probabilities are exact rationals so the engine's exactness
    guarantees hold on every generated model; Z is forced non-constant so
    positivity-style preconditions are satisfiable.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, max_atoms + 1))
    u = VariableRef("U", tuple(range(k)))
    weights = rng.integers(1, 20, size=k)
    total = int(weights.sum())
    probs = [Fraction(int(w), total) for w in weights]
    exo = ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs)))
    z_out = rng.integers(0, 2, size=k)
    z_out[0], z_out[1] = 0, 1
    y_out = rng.integers(0, 2, size=(2, 2, k))
    mechanisms = {
        "D": Mechanism.constant(D, 0),
        "Z": Mechanism.from_function(Z, (), (u,), lambda a: int(z_out[a["U"]])),
        "Y": Mechanism.from_function(
            Y, (D, Z), (u,), lambda a: int(y_out[a["D"], a["Z"], a["U"]])
        ),
    }
    return Scm((D, Z, Y), mechanisms, exo)


def model_with_positive_cells(seed: int, cells=None) -> Scm:
    """First random model (scanning seeds upward) whose joint hits every cell."""
    from beliefbound.scm import joint_distribution, submodel

    cells = cells or [
        {"Z": z, "Y": y} for z in (0, 1) for y in (0, 1)
    ]
    attempt = seed
    while True:
        scm = random_behaviour_model(attempt)
        ok = True
        for d in (0, 1):
            joint = joint_distribution(submodel(scm, {"D": d}))
            if any(joint.prob(cell) == 0 for cell in cells):
                ok = False
                break
        if ok:
            return scm
        attempt += 10_000


def random_binary_dataset(seed: int) -> BehaviouralDataset:
    """Random per-decision (Z, Y) tables with a shared, interior Z marginal."""
    rng = np.random.default_rng(seed)
    pz = float(rng.uniform(0.15, 0.85))
    tables = {}
    for d in (0, 1):
        py_z1 = float(rng.uniform(0.05, 0.95))
        py_z0 = float(rng.uniform(0.05, 0.95))
        tables[d] = DistTable(
            (Y, Z),
            {
                (1, 1): pz * py_z1,
                (0, 1): pz * (1 - py_z1),
                (1, 0): (1 - pz) * py_z0,
                (0, 0): (1 - pz) * (1 - py_z0),
            },
        )
    return BehaviouralDataset(D, tables)


def exact_dataset(per_decision_cells: dict) -> BehaviouralDataset:
    """Dataset over (Y, Z) from {(y, z): Fraction} cell maps, keyed by decision."""
    tables = {
        d: DistTable((Y, Z), {k: Fraction(v) if not isinstance(v, Fraction) else v
                              for k, v in cells.items()})
        for d, cells in per_decision_cells.items()
    }
    return BehaviouralDataset(D, tables)


def assert_lookups_compiled_once(model: Scm, domains=()) -> None:
    """A derived model's lookup arrays equal a fresh compile of its mechanisms
    and are read-only; it answers exactly as the model rebuilt from its parts;
    and a public build from those parts still checks every mechanism."""
    import pytest

    from beliefbound.errors import ModelError
    from beliefbound.scm import counterfactual_probability, scm_dataset

    by_name = {r.name: r for r in model.variables}
    exo_by_name = {r.name: r for r in model.exo.variables}
    for name, mech in model.mechanisms.items():
        assert np.array_equal(model.lookup[name], Scm._compile(mech, by_name, exo_by_name))
        assert not model.lookup[name].flags.writeable
    rebuilt = Scm(model.variables, model.mechanisms, model.exo)
    assert scm_dataset(model, "D", domains=domains) == scm_dataset(rebuilt, "D", domains=domains)
    for events in ([({"D": 1, "Z": 1}, {"Y": 1})], [({"D": 0}, {"Y": 1}), ({"D": 1}, {"Y": 0})]):
        assert counterfactual_probability(model, events) == counterfactual_probability(
            rebuilt, events
        )
    for name, mech in model.mechanisms.items():
        partial = dict(list(mech.table.items())[1:])
        cut = Mechanism(mech.target, mech.parents, mech.exo_parents, partial)
        with pytest.raises(ModelError, match="missing input"):
            Scm(model.variables, {**model.mechanisms, name: cut}, model.exo)


# -- reference simplex: the row-by-row kernel the vectorised one replaced -----


def _reference_pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _reference_ratio_row(tableau: np.ndarray, basis: list[int], col: int, m: int) -> int:
    from beliefbound.lp import PIVOT_EPS

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


def _reference_run_simplex(tableau: np.ndarray, basis: list[int], m: int, ncols: int) -> None:
    from beliefbound import lp

    pivots = 0
    while True:
        col = -1
        for j in range(ncols):
            if j not in basis and tableau[m, j] < -lp.COST_EPS:
                col = j
                break
        if col < 0:
            return
        if pivots == lp.MAX_PIVOTS:
            raise lp.LpIterationLimit(f"no optimum after {lp.MAX_PIVOTS} pivots")
        row = _reference_ratio_row(tableau, basis, col, m)
        if row < 0:
            raise lp.LpUnbounded(f"column {col} has no blocking row")
        _reference_pivot(tableau, basis, row, col)
        pivots += 1


def reference_solve_lp(c, a_eq, b_eq):
    """The two-phase Bland simplex with row-by-row loops, as one function."""
    from beliefbound import lp

    a = np.asarray(a_eq, dtype=float).copy()
    b = np.asarray(b_eq, dtype=float).copy()
    cost = np.asarray(c, dtype=float)
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, n : n + m] = 1.0
    tableau[m] -= tableau[:m].sum(axis=0)
    basis = list(range(n, n + m))
    _reference_run_simplex(tableau, basis, m, n + m)
    if tableau[m, -1] < -lp.FEAS_EPS:
        raise lp.LpInfeasible(f"phase-1 residual {-tableau[m, -1]:.3e}")

    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[i, j]) > lp.PIVOT_EPS:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _reference_pivot(tableau, basis, i, pivot_col)
                keep.append(i)
        else:
            keep.append(i)
    rows = keep + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep]
    m = len(basis)

    tableau[m, :] = 0.0
    tableau[m, :n] = cost
    for i, var in enumerate(basis):
        if cost[var] != 0.0:
            tableau[m] -= cost[var] * tableau[i]
    _reference_run_simplex(tableau, basis, m, n)

    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    return lp.LpSolution(x=x, value=float(cost @ x))
