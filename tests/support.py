"""Shared generators for randomized suites.

Everything is driven by explicit integer seeds so failures replay exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

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


# -- reference oracle: the per-atom program the class walk replaced ----------


def reference_columns(space, d, intervention=None) -> dict:
    """Every atom's value index per variable under do(intervention) and
    decision d, read off the response-type definition: a variable's value is
    its response index's base-k digit at the parents' combination, most
    significant first."""
    sizes = {name: len(ref.domain) for name, ref in space.refs.items()}
    combos = {v.name: math.prod(sizes[p] for p in v.parents) for v in space.variables}
    counts = [len(v.domain) ** combos[v.name] for v in space.variables]
    rows = math.prod(counts)
    responses = dict(
        zip([v.name for v in space.variables], np.unravel_index(np.arange(rows), counts))
    )
    intervention = intervention or {}
    values = {space.decision.name: np.full(rows, space.decision.domain.index(d))}
    pending = list(space.variables)
    while pending:
        v = next(v for v in pending if all(p in values for p in v.parents))
        pending.remove(v)
        if v.name in intervention:
            values[v.name] = np.full(rows, v.domain.index(intervention[v.name]))
            continue
        combo = np.zeros(rows, dtype=np.intp)
        for p in v.parents:
            combo = combo * sizes[p] + values[p]
        k = len(v.domain)
        values[v.name] = responses[v.name] // k ** (combos[v.name] - 1 - combo) % k
    del values[space.decision.name]
    return values


def reference_classes(keys):
    """Classes of atoms agreeing on every per-atom key, numbered in order of
    first atom: (class of each atom, first atom of each class)."""
    rows = np.stack([np.unique(key, return_inverse=True)[1].ravel() for key in keys], axis=1)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


def reference_program(poly):
    """The per-atom program of a polytope's data and skeleton: (a_eq, b_eq,
    class of each atom, first atom of each class), with a_eq holding one 0/1
    column per atom and its rows ordered as `merged`'s."""
    space, data = poly.space, poly.data
    sizes = [len(v.domain) for v in space.variables]
    cells = list(product(*[v.domain for v in space.variables]))
    keys, rhs = [], []
    for dom in data.all_domains():
        for d in data.decisions:
            columns = reference_columns(space, d, dom.intervened)
            keys.append(np.ravel_multi_index([columns[v.name] for v in space.variables], sizes))
            rhs += [float(dom.per_decision[d].entries.get(cell, 0)) for cell in cells]
    n = space.dimension
    a_eq = np.zeros((len(keys) * len(cells) + 1, n))
    for b, key in enumerate(keys):
        a_eq[b * len(cells) + key, np.arange(n)] = 1.0
    a_eq[-1] = 1.0
    return (a_eq, np.array([*rhs, 1.0]), *reference_classes(keys))


def reference_objective_terms(poly, z, c, d, d_star):
    """Per-atom numerator coefficients and context indicators of the gap, and
    whether the context lies inside the shift."""
    from beliefbound.errors import InputError, UnsupportedError
    from beliefbound.tables import merge_assignments

    space = poly.space
    for key in (*z, *c):
        if key not in space._parents:
            raise InputError(f"{key!r} is not a modelled variable")
    merge_assignments(c, z)
    ev_d = reference_columns(space, d, z)
    ev_s = reference_columns(space, d_star, z)
    sat = np.ones(space.dimension, dtype=bool)
    for name, value in c.items():
        if np.any(ev_d[name] != ev_s[name]):
            raise UnsupportedError(f"context variable {name!r} responds to the decision")
        domain = space.refs[name].domain
        sat &= ev_d[name] == (domain.index(value) if value in domain else -1)
    den = sat.astype(float)
    y = np.array([float(v) for v in space.refs[poly.data.utility].domain])
    num = (y[ev_d[poly.data.utility]] - y[ev_s[poly.data.utility]]) * den
    return num, den, all(name in z for name in c)


def reference_gap(poly, z, c, d, d_star, direction):
    """The gap optimum solved over every atom's own column: (value, x), with
    the Charnes-Cooper t appended to x for a context outside the shift."""
    from beliefbound import lp
    from beliefbound.errors import OracleError

    a_eq, b_eq = reference_program(poly)[:2]
    num, den, degenerate = reference_objective_terms(poly, z, c, d, d_star)
    sign = 1.0 if direction == "min" else -1.0
    cost = sign * num
    if degenerate:
        sol = lp.solve_lp(cost, a_eq, b_eq)
        return sign * float(cost @ sol.x), sol.x
    a_cc = np.vstack([np.hstack([a_eq, -b_eq[:, None]]), np.append(den, 0.0)])
    b_cc = np.zeros(len(a_cc))
    b_cc[-1] = 1.0
    sol = lp.solve_lp(np.append(cost, 0.0), a_cc, b_cc)
    if sol.x[-1] <= lp.FEAS_EPS:
        raise OracleError("degenerate rescaling")
    return sign * float(np.append(cost, 0.0) @ sol.x), sol.x


def _parent_combos(space, v) -> list:
    return list(product(*[space.refs[p].domain for p in v.parents]))


def reference_exo(space, x):
    """The witness's exogenous law from a per-atom point: each atom above
    1e-12 as one response tuple, its mass renormalised."""
    counts = [len(v.domain) ** len(_parent_combos(space, v)) for v in space.variables]
    exo_refs = tuple(
        VariableRef(f"R_{v.name}", tuple(range(n))) for v, n in zip(space.variables, counts)
    )
    kept = np.flatnonzero(x > 1e-12).tolist()
    total = sum(x[i] for i in kept)
    responses = np.unravel_index(np.arange(space.dimension), counts)
    keys = zip(*[r[kept].tolist() for r in responses])
    return ExoDistribution(exo_refs, tuple((key, x[i] / total) for key, i in zip(keys, kept)))


def reference_tables(space) -> dict:
    """Each variable's witness mechanism table, by the nested loop over its
    responses and parent combinations."""
    tables = {}
    for v in space.variables:
        combos = _parent_combos(space, v)
        table = {}
        for r, response in enumerate(product(v.domain, repeat=len(combos))):
            for ci, combo in enumerate(combos):
                table[(*combo, r)] = response[ci]
        tables[v.name] = table
    return tables


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


# -- reference table algebra: one loop per quantity, as before the one-scan
# kernel, with the closed forms whose table reads the kernel rewrote ---------


def _reference_positions(table, given):
    from beliefbound.errors import InputError

    out = []
    for name, value in given.items():
        i = table.names.index(name) if name in table.names else -1
        if i < 0:
            raise InputError(f"variable {name!r} not in scope {table.names}")
        if value not in table.scope[i].domain:
            raise InputError(f"value {value!r} not in domain of {name!r}")
        out.append((i, value))
    return out


def reference_prob(table, event):
    pos = _reference_positions(table, event)
    return sum(
        (p for key, p in table.entries.items() if all(key[i] == v for i, v in pos)),
        start=0,
    )


def reference_query(table, target, given=None):
    from beliefbound.errors import ZeroMassError
    from beliefbound.tables import _div

    given = dict(given or {})
    mass = reference_prob(table, given) if given else 1
    if given and float(mass) <= 0.0:
        raise ZeroMassError(f"conditioning event {given} has probability zero")
    target = sorted(set(target))
    refs = [table.ref(name) for name in target]
    pos = _reference_positions(table, given)
    idx = [table.names.index(name) for name in target]
    cells = {}
    for key, p in table.entries.items():
        if all(key[i] == v for i, v in pos):
            sub = tuple(key[i] for i in idx)
            cells[sub] = cells.get(sub, 0) + p
    if given:
        cells = {k: _div(p, mass) for k, p in cells.items()}
    return DistTable(tuple(refs), cells)


def reference_expectation(table, of, given=None):
    from beliefbound.errors import InputError

    ref = table.ref(of)
    if not ref.numeric:
        raise InputError(f"variable {of!r} has a non-numeric domain {ref.domain}")
    cond = reference_query(table, [of], given)
    return sum((key[0] * p for key, p in cond.entries.items()), start=0)


def reference_pieces(table, utility, c, z):
    from beliefbound.errors import ZeroMassError
    from beliefbound.tables import merge_assignments

    cz = merge_assignments(c, z)
    p_cz = reference_prob(table, cz)
    p_z = reference_prob(table, z)
    den = p_cz + 1 - p_z
    if float(p_cz) <= 0.0:
        raise ZeroMassError(f"event {cz} has zero probability in the table")
    if float(den) <= 0.0:
        raise ZeroMassError(f"denominator P{cz} + 1 - P{dict(z)} vanishes")
    e = reference_expectation(table, utility, cz)
    return e * p_cz / den, (e * p_cz + 1 - p_z) / den


def reference_thm4(data, p_sigma_c, c, z, d, d_star):
    from beliefbound.bounds import _RANGE_TOL, GapInterval, _check_pair
    from beliefbound.errors import DataError, InputError, ZeroMassError
    from beliefbound.tables import merge_assignments

    _check_pair(data, d, d_star)
    extra = set(z) - set(c)
    if extra:
        raise InputError(f"shift variables {sorted(extra)} are not context variables")
    merge_assignments(c, z)
    missing = set(c) - set(p_sigma_c.names)
    if missing:
        raise InputError(f"shifted covariate table lacks {sorted(missing)}")
    ps = reference_prob(p_sigma_c, c)
    if float(ps) <= 0.0:
        raise ZeroMassError(f"context {dict(c)} has zero shifted probability")

    def raw_lower(a, b):
        ta, tb = data.table(a), data.table(b)
        e_a = reference_expectation(ta, data.utility, c)
        e_b = reference_expectation(tb, data.utility, c)
        num = (
            2
            + e_b * reference_prob(tb, c)
            - e_a * reference_prob(ta, c)
            - reference_prob(ta, z)
            - reference_prob(tb, z)
            + reference_prob(ta, c)
        )
        return float(1 - num / ps)

    lo_raw = raw_lower(d, d_star)
    up_raw = -raw_lower(d_star, d)
    lower = max(lo_raw, -1.0)
    upper = min(up_raw, 1.0)
    notes = ["upper bound is the mirrored lower bound of the swapped pair, not a stated result"]
    if lo_raw < -1.0:
        notes.append(f"lower clamped from {lo_raw}")
    if up_raw > 1.0:
        notes.append(f"upper clamped from {up_raw}")
    if lower > upper + _RANGE_TOL:
        raise DataError(
            "shifted covariate probabilities are inconsistent with the observed "
            f"tables (raw interval [{lo_raw}, {up_raw}])"
        )
    return GapInterval(
        lower, upper, "preference", "covariate-shift", False, "reference",
        raw_lower=lo_raw if lo_raw < -1.0 else None,
        raw_upper=up_raw if up_raw > 1.0 else None,
        notes=tuple(notes),
    )


def reference_direct(data, d, z0, z1, c):
    from beliefbound.bounds import GapInterval
    from beliefbound.errors import InputError
    from beliefbound.tables import merge_assignments

    if d not in data.decisions:
        raise InputError(f"decision {d!r} not in {data.decisions}")
    if len(z0) != 1 or len(z1) != 1 or set(z0) != set(z1):
        raise InputError("z0 and z1 must assign the same single protected attribute")
    (attr,) = z0
    table = data.table(d)
    ref = table.ref(attr)
    if len(ref.domain) != 2:
        raise InputError(f"protected attribute {attr!r} must be binary, got {ref.domain}")
    if z0[attr] == z1[attr]:
        raise InputError("z0 and z1 must differ")
    if attr in c:
        raise InputError(f"protected attribute {attr!r} must not appear in the context")
    e1 = reference_expectation(table, data.utility, merge_assignments(z1, c))
    e0 = reference_expectation(table, data.utility, merge_assignments(z0, c))
    p1 = reference_prob(table, merge_assignments(z1, c))
    p0 = reference_prob(table, merge_assignments(z0, c))
    diff = e1 * p1 - e0 * p0
    return GapInterval(
        float(diff + p0 - 1), float(diff + 1 - p1), "direct-discrimination",
        "direct-discrimination", True, "reference",
    )


def reference_unconfoundedness(data, z, w0, w1, d, d_star):
    from beliefbound.bounds import _RANGE_TOL, GapInterval
    from beliefbound.errors import InputError
    from beliefbound.tables import merge_assignments

    if d == d_star or d not in data.decisions or d_star not in data.decisions:
        raise InputError(f"bad decision pair ({d!r}, {d_star!r})")
    if len(w0) != 1 or len(w1) != 1 or set(w0) != set(w1):
        raise InputError("w0 and w1 must assign the same single covariate")
    (wname,) = w0
    if w0[wname] == w1[wname]:
        raise InputError("w0 and w1 must differ")
    ref = data.table(d).ref(wname)
    if len(ref.domain) != 2:
        raise InputError(f"covariate {wname!r} must be binary, got {ref.domain}")
    if wname in z:
        raise InputError(f"covariate {wname!r} cannot be part of the shift")

    swapped = []

    def envelope(t):
        table = data.table(t)
        e_hi = reference_expectation(table, data.utility, merge_assignments(z, w1))
        e_lo = reference_expectation(table, data.utility, merge_assignments(z, w0))
        if float(e_hi) >= float(e_lo):
            w_hi, e_w, e_wt = w1, e_hi, e_lo
        else:
            w_hi, e_w, e_wt = w0, e_lo, e_hi
            swapped.append(t)
        p_zw = reference_prob(table, merge_assignments(z, w_hi))
        p_z = reference_prob(table, z)
        e_z = reference_expectation(table, data.utility, z)
        lower = e_w * p_zw + (1 - p_zw) * e_wt
        upper = e_z * p_z + (1 - p_z) * e_w
        return float(lower), float(upper)

    lo_d, up_d = envelope(d)
    lo_s, up_s = envelope(d_star)
    raw_lower = lo_d - up_s
    raw_upper = up_d - lo_s
    lower = max(-1.0, raw_lower)
    upper = min(1.0, raw_upper)
    notes = []
    if swapped:
        notes.append(f"slice labels swapped for decisions {sorted(map(str, swapped))}")
    if raw_lower < -1.0:
        notes.append(f"lower clamped from {raw_lower}")
    if raw_upper > 1.0:
        notes.append(f"upper clamped from {raw_upper}")
    if lower > upper + _RANGE_TOL:
        raise InputError("deconfounding envelopes crossed; inputs are inconsistent")
    return GapInterval(
        lower, upper, "preference", "partial-unconfoundedness", False, "reference",
        raw_lower=raw_lower if raw_lower < -1.0 else None,
        raw_upper=raw_upper if raw_upper > 1.0 else None,
        notes=tuple(notes),
    )
