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


def random_behaviour_model(seed: int, max_atoms: int = 16, y: VariableRef = Y) -> Scm:
    """Random hidden model: Z <- U, Y <- (D, Z, U), shared latent U.

    Atom probabilities are exact rationals so the engine's exactness
    guarantees hold on every generated model; Z is forced non-constant so
    positivity-style preconditions are satisfiable.  `y` is the utility
    variable; its values are drawn as indices into its domain.
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
    y_out = rng.integers(0, len(y.domain), size=(2, 2, k))
    mechanisms = {
        "D": Mechanism.constant(D, 0),
        "Z": Mechanism.from_function(Z, (), (u,), lambda a: int(z_out[a["U"]])),
        "Y": Mechanism.from_function(
            y, (D, Z), (u,), lambda a: y.domain[y_out[a["D"], a["Z"], a["U"]]]
        ),
    }
    return Scm((D, Z, y), mechanisms, exo)


def two_shift_model(seed: int) -> Scm:
    """Random hidden model: Z1 <- U and Z2 <- U, roots driven by one 4-valued
    latent U (integer weights 1 to 9), and a random 0/1 table Y <- (D, Z1, Z2, U)."""
    rng = np.random.default_rng(seed)
    u = VariableRef("U", (0, 1, 2, 3))
    weights = rng.integers(1, 10, size=4)
    total = int(weights.sum())
    probs = [Fraction(int(w), total) for w in weights]
    exo = ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs)))
    z1, z2 = VariableRef("Z1", (0, 1)), VariableRef("Z2", (0, 1))
    z_out = rng.integers(0, 2, size=(2, 4))
    y_out = rng.integers(0, 2, size=(2, 2, 2, 4))
    mechanisms = {
        "D": Mechanism.constant(D, 0),
        "Z1": Mechanism.from_function(z1, (), (u,), lambda a: int(z_out[0, a["U"]])),
        "Z2": Mechanism.from_function(z2, (), (u,), lambda a: int(z_out[1, a["U"]])),
        "Y": Mechanism.from_function(
            Y, (D, z1, z2), (u,), lambda a: int(y_out[a["D"], a["Z1"], a["Z2"], a["U"]])
        ),
    }
    return Scm((D, z1, z2, Y), mechanisms, exo)


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


def random_wyz_dataset(seed, n_decisions, z_size, w_size, exact, y_domain=(0, 1)):
    """Tables over (W, Y, Z) with random integer weights, about a fifth of the
    cells empty; `exact` stores `Fraction`s, otherwise floats."""
    rng = np.random.default_rng(seed)
    scope = (
        VariableRef("W", tuple(range(w_size))),
        VariableRef("Y", y_domain),
        VariableRef("Z", tuple(range(z_size))),
    )
    cells = list(product(*[r.domain for r in scope]))

    def table():
        weights = [int(w) for w in rng.integers(-2, 9, size=len(cells)).clip(0)]
        weights[0] += 1
        total = sum(weights)
        return DistTable(scope, {
            cell: Fraction(w, total) if exact else w / total
            for cell, w in zip(cells, weights) if w
        })

    decision = VariableRef("D", tuple(range(n_decisions)))
    return BehaviouralDataset(decision, {t: table() for t in decision.domain})


def k_valued_shift_dataset(k: int):
    """Z in 0..k-1 and Y <- (D, Z), random interior tables: (data, skeleton).
    k = 6 gives 24,576 atoms, k = 7 114,688 (the largest ladder shape)."""
    from beliefbound.oracle import SkeletonVariable

    rng = np.random.default_rng(0)
    z = VariableRef("Z", tuple(range(k)))
    pz = rng.dirichlet(np.ones(k))
    py = rng.uniform(0.1, 0.9, size=(2, k))
    tables = {
        dv: DistTable(
            (z, Y),
            {
                (zv, yv): float(pz[zv] * (py[dv, zv] if yv else 1 - py[dv, zv]))
                for zv in z.domain
                for yv in Y.domain
            },
        )
        for dv in D.domain
    }
    skeleton = [SkeletonVariable("Z", z.domain), SkeletonVariable("Y", Y.domain, ("D", "Z"))]
    return BehaviouralDataset(D, tables), skeleton


def wide_skeleton_dataset(k: int, seed: int = 0):
    """Z a root, W1..Wk <- Z and Y <- (D, Z, W1..Wk), all binary, with data
    drawn from a random model with an 8-valued latent: (data, skeleton).  The
    canonical space has 2 * 4**k * 2**(2**(k + 2)) atoms (7e41 at k = 5)."""
    from beliefbound.oracle import SkeletonVariable
    from beliefbound.scm import scm_dataset

    rng = np.random.default_rng(seed)
    u = VariableRef("U", tuple(range(8)))
    weights = [int(w) for w in rng.integers(1, 20, size=len(u.domain))]
    probs = [Fraction(w, sum(weights)) for w in weights]
    exo = ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs)))
    ws = [VariableRef(f"W{i}", (0, 1)) for i in range(1, k + 1)]
    z_out = rng.integers(0, 2, size=len(u.domain))
    w_out = rng.integers(0, 2, size=(k, 2, len(u.domain)))
    y_out = rng.integers(0, 2, size=(2 ** (k + 2), len(u.domain)))

    def y_fn(a):
        combo = int("".join(str(a[n]) for n in ("D", "Z", *(w.name for w in ws))), 2)
        return int(y_out[combo, a["U"]])

    mechanisms = {
        "D": Mechanism.constant(D, 0),
        "Z": Mechanism.from_function(Z, (), (u,), lambda a: int(z_out[a["U"]])),
        "Y": Mechanism.from_function(Y, (D, Z, *ws), (u,), y_fn),
    }
    for i, w in enumerate(ws):
        mechanisms[w.name] = Mechanism.from_function(
            w, (Z,), (u,), lambda a, i=i: int(w_out[i, a["Z"], a["U"]])
        )
    model = Scm((D, Z, *ws, Y), mechanisms, exo)
    skeleton = [
        SkeletonVariable("Z", (0, 1)),
        *(SkeletonVariable(w.name, (0, 1), ("Z",)) for w in ws),
        SkeletonVariable("Y", (0, 1), ("D", "Z", *(w.name for w in ws))),
    ]
    return scm_dataset(model, "D"), skeleton


def chained_dataset(seed, sizes):
    """Data from a random model with Z -> W -> Y <- D and a do(Z=1) domain:
    (data, skeleton)."""
    from beliefbound.oracle import SkeletonVariable
    from beliefbound.scm import scm_dataset

    rng = np.random.default_rng(seed)
    d = VariableRef("D", (0, 1))
    z, w = (VariableRef(n, tuple(range(sizes[n]))) for n in "ZW")
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(6)))
    weights = [int(w) for w in rng.integers(1, 9, size=6)]
    z_out = rng.integers(0, sizes["Z"], size=6)
    w_out = rng.integers(0, sizes["W"], size=(sizes["Z"], 6))
    y_out = rng.integers(0, 2, size=(2, sizes["W"], 6))
    model = Scm(
        (d, w, y, z),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
            "W": Mechanism.from_function(w, (z,), (u,), lambda a: int(w_out[a["Z"], a["U"]])),
            "Y": Mechanism.from_function(
                y, (d, w), (u,), lambda a: int(y_out[a["D"], a["W"], a["U"]])
            ),
        },
        ExoDistribution(
            (u,), tuple(((i,), Fraction(w, sum(weights))) for i, w in enumerate(weights))
        ),
    )
    skeleton = [
        SkeletonVariable("Z", z.domain),
        SkeletonVariable("W", w.domain, ("Z",)),
        SkeletonVariable("Y", y.domain, ("D", "W")),
    ]
    return scm_dataset(model, "D", domains=[("exp", {"Z": 1})]), skeleton


def trie_nodes(paths, ends_only=False):
    """How many nodes an `lp.PhaseOnePaths` trie holds: pivots and path ends,
    or path ends only."""
    stack, count = list(paths.after.values()), 0
    while stack:
        node = stack.pop()
        after = getattr(node, "after", None)
        count += not (ends_only and after)
        stack += (after or {}).values()
    return count


def exact_dataset(per_decision_cells: dict) -> BehaviouralDataset:
    """Dataset over (Y, Z) from {(y, z): Fraction} cell maps, keyed by decision."""
    tables = {
        d: DistTable((Y, Z), {k: Fraction(v) if not isinstance(v, Fraction) else v
                              for k, v in cells.items()})
        for d, cells in per_decision_cells.items()
    }
    return BehaviouralDataset(D, tables)


def assert_lookups_compiled_once(model: Scm, domains=()) -> None:
    """A model's lookup arrays equal a fresh compile of its mechanisms and are
    read-only, whichever way the model was built; it answers exactly as the
    model rebuilt from its parts; and a build from those parts checks every
    mechanism."""
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


def ternary_v_dataset() -> BehaviouralDataset:
    """Both decisions with one table over a ternary V, Y and Z: Y = Z = 1 and
    V uniform."""
    v = VariableRef("V", (0, 1, 2))
    table = DistTable((v, Y, Z), {(k, 1, 1): Fraction(1, 3) for k in v.domain})
    return BehaviouralDataset(D, {0: table, 1: table})


def half_utility_dataset() -> BehaviouralDataset:
    """Both decisions with one table over Y in {0, 0.5, 1} and Z: Z = 1 and Y
    uniform."""
    y = VariableRef("Y", (0, 0.5, 1))
    table = DistTable((y, Z), {(k, 1): Fraction(1, 3) for k in y.domain})
    return BehaviouralDataset(D, {0: table, 1: table})


def wyz_dataset(cells) -> BehaviouralDataset:
    """Binary W, Y and Z, and both decisions with one table: the (W, Y, Z)
    `cells`, equally likely."""
    w, y, z = (VariableRef(name, (0, 1)) for name in "WYZ")
    table = DistTable((w, y, z), {cell: Fraction(1, len(cells)) for cell in cells})
    return BehaviouralDataset(D, {0: table, 1: table})


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
    """The gap optimum solved over every atom's own column, from the per-atom
    program's phase one: (value, x).  A context outside the shift is the ratio
    (cost . x) / (den . x), minimised by Dinkelbach steps: from the phase one's
    own vertex, or else the vertex of most context mass, each step's phase two
    minimises (cost - lambda den) . x, lambda the ratio at the current point,
    until that minimum is at least -COST_EPS.  The value is the exactly rounded
    sum (`math.fsum`) of every atom's numerator coefficient times its mass,
    divided by the context mass so summed."""
    from beliefbound import lp
    from beliefbound.errors import DataError, OracleError

    a_eq, b_eq = reference_program(poly)[:2]
    num, den, degenerate = reference_objective_terms(poly, z, c, d, d_star)
    cost = num if direction == "min" else -num
    start = lp.phase_one(a_eq, b_eq)
    if degenerate:
        x = lp.phase_two(start, cost).x
        return math.fsum((num * x).tolist()), x

    def mass(x):
        return math.fsum((den * x).tolist())

    x = lp.phase_two(start, np.zeros(den.size)).x
    if mass(x) <= lp.FEAS_EPS:
        x = lp.phase_two(start, -den).x
        if mass(x) <= lp.FEAS_EPS:
            raise DataError("context has zero probability")
    for _ in range(lp.MAX_PIVOTS):
        step_cost = cost - math.fsum((cost * x).tolist()) / mass(x) * den
        step = lp.phase_two(start, step_cost).x
        if math.fsum((step_cost * step).tolist()) >= -lp.COST_EPS:
            return math.fsum((num * x).tolist()) / mass(x), x
        x = step
    raise OracleError("no Dinkelbach optimum")


def reference_charnes_cooper(poly, z, c, d, d_star, direction):
    """The per-atom Charnes-Cooper program of a gap whose context lies outside
    the shift, as (cost, a_eq, b_eq, sign): min cost . (q, t) subject to
    [A, -b] (q, t) = 0, den . q = 1 and (q, t) >= 0, whose optimum times
    `sign` is the gap's, with q = p / (den . p) and t = 1 / (den . p).  It is
    infeasible when the context has no mass in any compatible model."""
    a_eq, b_eq = reference_program(poly)[:2]
    num, den, degenerate = reference_objective_terms(poly, z, c, d, d_star)
    assert not degenerate
    sign = 1.0 if direction == "min" else -1.0
    a_cc = np.vstack([np.hstack([a_eq, -b_eq[:, None]]), np.append(den, 0.0)])
    b_cc = np.zeros(len(a_cc))
    b_cc[-1] = 1.0
    return np.append(sign * num, 0.0), a_cc, b_cc, sign


def _parent_combos(space, v) -> list:
    return list(product(*[space.refs[p].domain for p in v.parents]))


def reference_atoms(space) -> list:
    """Every atom's response-index tuple over the name-sorted variables, in
    atom order."""
    return list(
        product(*[range(len(v.domain) ** len(_parent_combos(space, v))) for v in space.variables])
    )


def reference_exo(space, x):
    """The witness's exogenous law from a per-atom point: each atom above
    1e-12 as one response tuple, its mass renormalised; R_v ranges over v's
    responses in those atoms."""
    counts = [len(v.domain) ** len(_parent_combos(space, v)) for v in space.variables]
    kept = np.flatnonzero(x > 1e-12).tolist()
    total = sum(x[i] for i in kept)
    responses = np.unravel_index(np.arange(space.dimension), counts)
    support = [r[kept].tolist() for r in responses]
    exo_refs = tuple(
        VariableRef(f"R_{v.name}", tuple(sorted(set(column))))
        for v, column in zip(space.variables, support)
    )
    keys = zip(*support)
    return ExoDistribution(exo_refs, tuple((key, x[i] / total) for key, i in zip(keys, kept)))


def reference_tables(space, exo) -> dict:
    """Each variable's witness mechanism table over the responses `exo`
    carries, by the nested loop over its responses and parent combinations."""
    tables = {}
    for v, ref in zip(space.variables, exo.variables):
        combos = _parent_combos(space, v)
        table = {}
        for r, response in enumerate(product(v.domain, repeat=len(combos))):
            if r in ref.domain:
                for ci, combo in enumerate(combos):
                    table[(*combo, r)] = response[ci]
        tables[v.name] = table
    return tables


# -- reference TV-ball minimum: the linear program the closed form replaced ---


def reference_ball_minimum(centre, coeffs, delta, cells) -> float:
    """min coeffs . p over the simplex intersected with the TV ball of radius
    delta around the centre, solved as a linear program over p, its excess u
    = |p - centre| and the two slacks of that bound, and the radius's slack."""
    from beliefbound import lp

    n = len(coeffs)
    centre_vec = np.array([float(centre.entries.get(k, 0)) for k in cells])
    # variables: p (n), u (n), a (n), b (n), s (1)
    nv = 4 * n + 1
    rows, rhs = [], []
    row = np.zeros(nv)
    row[:n] = 1.0
    rows.append(row)
    rhs.append(1.0)
    for i in range(n):
        row = np.zeros(nv)
        row[i] = 1.0
        row[n + i] = -1.0
        row[2 * n + i] = 1.0
        rows.append(row)
        rhs.append(centre_vec[i])
        row = np.zeros(nv)
        row[i] = 1.0
        row[n + i] = 1.0
        row[3 * n + i] = -1.0
        rows.append(row)
        rhs.append(centre_vec[i])
    row = np.zeros(nv)
    row[n : 2 * n] = 1.0
    row[-1] = 1.0
    rows.append(row)
    rhs.append(2.0 * delta)
    cost = np.zeros(nv)
    cost[:n] = np.asarray(coeffs, dtype=float)
    return lp.solve_lp(cost, np.vstack(rows), np.asarray(rhs)).value


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
            raise InputError(f"value {value!r} not in domain of {name!r} {table.scope[i].domain}")
        out.append((i, value))
    return out


def reference_prob(table, event):
    pos = _reference_positions(table, event)
    return sum(
        (p for key, p in table.entries.items() if all(key[i] == v for i, v in pos)),
        start=0,
    )


def reference_scan(table, event, target=None):
    """(P(event), its mass per value of `target`) by `sum` and a dict loop;
    no cells when `target` is None or names a variable outside the scope."""
    pos = _reference_positions(table, event)
    hits = [(key, p) for key, p in table.entries.items() if all(key[i] == v for i, v in pos)]
    cells = {}
    if target is not None and all(name in table.names for name in target):
        idx = [table.names.index(name) for name in target]
        for key, p in hits:
            sub = tuple(key[i] for i in idx)
            cells[sub] = cells.get(sub, 0) + p
    return sum((p for _, p in hits), start=0), cells


def reference_joint(scm):
    """The model's joint table, one `evaluate` per exogenous atom."""
    from beliefbound.scm import evaluate

    refs = tuple(scm.ref(n) for n in sorted(scm.names))
    cells = {}
    for u, p in scm.exo.assignments():
        values = evaluate(scm, u)
        key = tuple(values[r.name] for r in refs)
        cells[key] = cells.get(key, 0) + p
    return DistTable(refs, cells)


def reference_counterfactual(scm, events):
    """`counterfactual_probability` by one `evaluate` per atom and event."""
    from beliefbound.scm import evaluate, submodel

    hits = []
    for u, p in scm.exo.assignments():
        if all(
            all(evaluate(submodel(scm, iv), u)[name] == value for name, value in event.items())
            for iv, event in events
        ):
            hits.append(p)
    return sum(hits, start=0)


def reference_scm_dataset(scm, decision, utility="Y", domains=()):
    """`scm_dataset` as the marginal of each sub-model's joint: one
    `evaluate` per atom, then the one-loop `reference_query` onto the
    variables other than the decision."""
    from beliefbound.scm import submodel
    from beliefbound.tables import ExperimentalDomain

    dref = scm.ref(decision)
    rest = sorted(n for n in scm.names if n != decision)

    def tables_under(base):
        return {
            d: reference_query(reference_joint(submodel(scm, {**base, decision: d})), rest)
            for d in dref.domain
        }

    extra = tuple(ExperimentalDomain(label, dict(iv), tables_under(iv)) for label, iv in domains)
    return BehaviouralDataset(dref, tables_under({}), utility=utility, domains=extra)


def reference_dist_table(scope, entries):
    """(sorted scope, checked entries) as `DistTable` validated them with one
    loop per entry and a tuple membership test per value; raises what it
    raised, in the same order."""
    from beliefbound.errors import InputError
    from beliefbound.tables import SUM_TOL, _sorted_scope

    refs = _sorted_scope(scope)
    original = {r.name: i for i, r in enumerate(scope)}
    remap = tuple(original[r.name] for r in refs)
    fixed = {}
    for key, p in entries.items():
        key = tuple(key)
        if len(key) != len(refs):
            raise InputError(f"entry {key} does not match scope arity {len(refs)}")
        key = tuple(key[i] for i in remap)
        for ref, v in zip(refs, key):
            if v not in ref.domain:
                raise InputError(f"value {v!r} not in domain of {ref.name!r} {ref.domain}")
        if float(p) < -SUM_TOL:
            raise InputError(f"negative probability {p} at {key}")
        if key in fixed:
            raise InputError(f"duplicate entry for assignment {key}")
        fixed[key] = p
    total = sum(fixed.values(), start=0)
    if abs(float(total) - 1.0) > SUM_TOL:
        raise InputError(f"table mass {float(total)} is not 1 within {SUM_TOL}")
    return refs, fixed


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
    from beliefbound.bounds import GapInterval
    from beliefbound.errors import InputError, ZeroMassError
    from beliefbound.tables import _check_pair, merge_assignments

    _check_pair(data, d, d_star)
    extra = set(z) - set(c)
    if extra:
        raise InputError(f"shift variables {sorted(extra)} are not context variables")
    merge_assignments(c, z)
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
        raise InputError("z0 and z1 must assign only the protected attribute")
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
    from beliefbound.bounds import GapInterval
    from beliefbound.errors import InputError
    from beliefbound.tables import _check_pair, merge_assignments

    _check_pair(data, d, d_star)
    if len(w0) != 1 or len(w1) != 1 or set(w0) != set(w1):
        raise InputError("w0 and w1 must assign only the covariate")
    (wname,) = w0
    ref = data.table(d).ref(wname)
    if len(ref.domain) != 2:
        raise InputError(f"covariate {wname!r} must be binary, got {ref.domain}")
    if w0[wname] == w1[wname]:
        raise InputError("w0 and w1 must differ")
    if wname in z:
        raise InputError(f"covariate {wname!r} must not appear in the shift")

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
    return GapInterval(
        lower, upper, "preference", "partial-unconfoundedness", False, "reference",
        raw_lower=raw_lower if raw_lower < -1.0 else None,
        raw_upper=raw_upper if raw_upper > 1.0 else None,
        notes=tuple(notes),
    )
