"""Independent certification of gap bounds by exact polytope optimization.

The closed-form bounds are verified against linear programs over canonical
response-type models: one probability per joint response type (atom), one
equality per observed per-decision cell.  The optimum of the gap objective
over that polytope is the exact partial-identification envelope, so matching
it certifies a closed-form bound as tight.

A canonical space is a structural model whose exogenous R_v picks v's
response function, so it runs on `Scm`'s kernel (`scm.evaluate_columns`): one
call per (decision, intervention) evaluates every atom, and constraint rows
and objective coefficients are raveled from the value-index columns.

Atoms landing in the same cell of every observed block have identical
constraint columns, and thousands of them share one (the response-function
reduction of Balke & Pearl).  The simplex therefore runs over classes of atoms
with identical columns (constraint, objective and, for conditional gaps, the
context indicator), numbered in order of first atom, and each class's mass is
put back on its first atom.  Under Bland's rule a later duplicate never enters
the basis ahead of its first occurrence, so the pivots, the vertex and every
value are those of the per-atom program.

The same argument lets every plain gap solve skip phase one.  `build_polytope`
runs phase one once, over one column per feasibility class; a gap program's
classes refine those, so its columns are the stored ones repeated.  Duplicate
columns go through identical row operations, a basic column is an exact unit
vector with reduced cost exactly 0 (so no duplicate of it enters), and the
first-atom numbering is monotone, so the basis-index tie-breaks agree.  A cold
phase one over the gap program therefore ends on the stored tableau with its
columns gathered and each basic class moved to its first refined class, and
phase two starts there.  The Charnes-Cooper program adds a column and a row,
so it is solved in full.

Also houses the constructive side: extracting a concrete model from any
feasible point, the bound-achieving witness models for atomic shifts, and the
row-preserving reshuffles that realise the +/-1 extremes under unknown shifts.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from . import lp
from .errors import (
    AtomLimitError,
    DataError,
    InputError,
    OracleError,
    UnsupportedError,
)
from .scm import ExoDistribution, Mechanism, Scm, _derive, evaluate_columns, toposort
from .tables import (
    Assignment,
    BehaviouralDataset,
    DistTable,
    Number,
    Value,
    VariableRef,
    merge_assignments,
    query,
)

DEFAULT_ATOM_LIMIT = 1_000_000
ATOM_LIMIT_ENV = "BELIEFBOUND_ATOM_LIMIT"


def atom_limit(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    raw = os.environ.get(ATOM_LIMIT_ENV)
    return int(float(raw)) if raw else DEFAULT_ATOM_LIMIT


@dataclass(frozen=True)
class SkeletonVariable:
    """Declared structure of one modelled variable: name, domain, parents.

    Parents may include the decision variable and other skeleton variables.
    """

    name: str
    domain: tuple[Value, ...]
    parents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "parents", tuple(self.parents))
        if not self.domain:
            raise InputError(f"skeleton variable {self.name!r} has an empty domain")


class CanonicalAtomSpace:
    """Product space of per-variable response functions.

    Each variable contributes the full finite set of maps from its parent
    assignments to its domain; an atom picks one response per variable.  A
    binary root variable has 2 types; a binary variable with two binary
    parents has 2**4 = 16.
    """

    def __init__(
        self,
        decision: VariableRef,
        variables: Sequence[SkeletonVariable],
        limit: int | None = None,
    ) -> None:
        self.decision = decision
        names = [v.name for v in variables]
        if len(set(names)) != len(names) or decision.name in names:
            raise InputError(f"bad skeleton variable names: {names}")
        known = (*names, decision.name)  # compared, not hashed: a parent may be any value
        for v in variables:
            for p in v.parents:
                if p not in known:
                    raise InputError(f"{v.name!r} has unknown parent {p!r}")
        self.variables = tuple(sorted(variables, key=lambda v: v.name))
        self.refs = {v.name: VariableRef(v.name, v.domain) for v in self.variables}
        self.refs[decision.name] = decision
        self._parents = {v.name: v.parents for v in self.variables}
        self.order = toposort(self._parents)

        cap = atom_limit(limit)
        self.dimension = 1
        self.parent_combos: dict[str, tuple[tuple[Value, ...], ...]] = {}
        self.responses: dict[str, tuple[tuple[Value, ...], ...]] = {}
        self._lookup: dict[str, np.ndarray] = {}
        for v in self.variables:
            combos = tuple(product(*[self.refs[p].domain for p in v.parents]))
            k, n = len(v.domain), len(combos)
            self.dimension *= k**n
            if self.dimension > cap:
                raise AtomLimitError(
                    f"canonical space needs {self.dimension}+ atoms, over the cap of {cap} "
                    f"(set {ATOM_LIMIT_ENV} to raise it)"
                )
            self.parent_combos[v.name] = combos
            self.responses[v.name] = tuple(product(v.domain, repeat=n))
            # Response r is r's base-k digits, most significant first, one per
            # parent combination (the order of `product`).
            self._lookup[v.name] = np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
            self._lookup[v.name].flags.writeable = False
        self._sizes = {name: len(ref.domain) for name, ref in self.refs.items()}
        counts = [len(self.responses[v.name]) for v in self.variables]
        self._atom_responses = dict(
            zip(self._parents, np.unravel_index(np.arange(self.dimension), counts))
        )

    def atoms(self):
        """Deterministic enumeration of response-index tuples (name-sorted vars)."""
        return product(*[range(len(self.responses[v.name])) for v in self.variables])

    def columns(
        self, d: Value, intervention: Assignment | None = None, atoms=None
    ) -> dict[str, np.ndarray]:
        """Value-index columns under do(intervention) and decision d, one row
        per atom of `atoms` (response-index tuples; default: all, in order)."""
        if atoms is None:
            responses, rows = self._atom_responses, self.dimension
        else:
            responses = dict(zip(self._parents, np.asarray(atoms, dtype=np.intp).T))
            rows = len(atoms)
        fixed = {self.decision.name: self.decision.index(d)}
        for name, value in (intervention or {}).items():
            if name in self._parents:
                fixed[name] = self.refs[name].index(value)
        return evaluate_columns(
            self.order, self._parents, self._sizes, self._lookup, responses, rows, fixed
        )

    def evaluate(
        self, atom: Sequence[int], d: Value, intervention: Assignment | None = None
    ) -> dict[str, Value]:
        """Potential response of one atom under do(intervention) and decision d."""
        columns = self.columns(d, intervention, [atom])
        return {name: self.refs[name].domain[columns[name][0]] for name in self.order}


@dataclass(eq=False)
class Polytope:
    """Linear description of all canonical models matching the observed cells.

    `merged` holds one 0/1 constraint column per class of atoms with
    identical columns; atom i's column is `merged[:, atom_class[i]]`.
    `start` is the phase one of `merged x = b_eq`, which every plain gap
    solve starts its phase two from.
    """

    space: CanonicalAtomSpace
    data: BehaviouralDataset
    merged: np.ndarray
    b_eq: np.ndarray
    atom_class: np.ndarray
    start: lp.PhaseOne
    row_labels: tuple[str, ...] = field(default=())

    @property
    def a_eq(self) -> np.ndarray:
        """The per-atom constraint matrix (a read-only copy, built on access)."""
        a_eq = self.merged[:, self.atom_class]
        a_eq.flags.writeable = False
        return a_eq

    def feasible_point(self, objective: Sequence[float] | None = None) -> np.ndarray:
        """A feasible atom-probability vector, optionally optimizing a direction
        (without one, the vertex phase one ended on)."""
        if objective is None:
            objective = np.zeros(self.space.dimension)
        return _solve_classes(self, np.asarray(objective, float))


def _classes(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Classes of atoms agreeing on every per-atom key, numbered in order of
    first atom: (class of each atom, first atom of each class)."""
    n = len(keys[0])
    ids = np.zeros(n, dtype=np.intp)
    for key in keys:
        if key.dtype.kind == "f":
            key = np.unique(key, return_inverse=True)[1]
        ids = ids * (int(key.max()) + 1) + key
        if ids.max() >= 4 * n:  # too sparse to renumber through a dense table
            ids = np.unique(ids, return_inverse=True)[1]
        # Renumber by first atom, so ids stay below n and the next key fits.
        size = int(ids.max()) + 1
        first = np.full(size, n)
        np.minimum.at(first, ids, np.arange(n))
        first = np.sort(first[first < n])
        label = np.empty(size, dtype=np.intp)
        label[ids[first]] = np.arange(first.size)
        ids = label[ids]
    return ids, first


@contextmanager
def _solver_errors(infeasible="infeasible polytope", unbounded="unbounded solve"):
    """Solver failures mapped to the package's errors."""
    try:
        yield
    except lp.LpInfeasible as exc:
        raise DataError(f"{infeasible}: {exc}") from exc
    except lp.LpUnbounded as exc:
        raise OracleError(f"{unbounded}: {exc}") from exc
    except lp.LpIterationLimit as exc:
        raise OracleError(f"simplex stopped: {exc}") from exc


def _refined_start(polytope: Polytope, coarse: np.ndarray) -> lp.PhaseOne:
    """The phase one of `merged[:, coarse]`, for classes numbered in order of
    first atom that refine the polytope's (`coarse` maps each to the class it
    refines), read off the stored one without pivoting (module docstring):
    its columns gathered, and each basic class moved to its first refined class.
    """
    at = np.unique(coarse, return_index=True)[1]
    return lp.PhaseOne(
        polytope.start.tableau[:, np.append(coarse, -1)],
        tuple(at[list(polytope.start.basis)].tolist()),
    )


def _solve_classes(
    polytope: Polytope, cost: np.ndarray, den: np.ndarray | None = None, *messages: str
) -> np.ndarray:
    """Minimiser of cost . x over the polytope, solved with one column per
    class of atoms whose columns coincide and expanded back onto the atoms.

    With `den`, solves the Charnes-Cooper program instead, [A, -b] (q, t) = 0
    and den . q = 1, and returns q with t appended.
    """
    keys = [polytope.atom_class, cost] if den is None else [polytope.atom_class, cost, den]
    first = _classes(keys)[1]
    coarse, c = polytope.atom_class[first], cost[first]
    with _solver_errors(*messages):
        if den is None:
            sol = lp.phase_two(_refined_start(polytope, coarse), c)
        else:
            a_eq = np.hstack([polytope.merged[:, coarse], -polytope.b_eq[:, None]])
            a_eq = np.vstack([a_eq, np.append(den[first], 0.0)])
            b_eq = np.zeros(a_eq.shape[0])
            b_eq[-1] = 1.0
            sol = lp.solve_lp(np.append(c, 0.0), a_eq, b_eq)
    x = np.zeros(polytope.space.dimension + (den is not None))
    x[first] = sol.x[: first.size]
    x[polytope.space.dimension :] = sol.x[first.size :]
    return x


def build_polytope(
    data: BehaviouralDataset,
    skeleton: Sequence[SkeletonVariable],
    limit: int | None = None,
) -> Polytope:
    """One equality per observed (d, cell) pair over the atom probabilities,
    stored as one column per class of atoms with identical columns.

    Tables from experimental domains contribute equalities of their own,
    evaluated under the domain's intervention, so a two-domain dataset pins
    the polytope down to models reproducing both environments.  Raises
    DataError straight away when the tables are mutually inconsistent (the
    equality system has no distribution solving it): phase one runs here,
    once per polytope.
    """
    scope_names = tuple(sorted(v.name for v in skeleton))
    data_names = tuple(r.name for r in data.scope)
    if set(scope_names) != set(data_names):
        raise InputError(
            f"skeleton covers {sorted(scope_names)}, data scope is {sorted(data_names)}"
        )
    for v in skeleton:
        ref = data.table(data.decisions[0]).ref(v.name)
        if tuple(ref.domain) != tuple(v.domain):
            raise InputError(
                f"domain mismatch for {v.name!r}: skeleton {v.domain} vs data {ref.domain}"
            )
    space = CanonicalAtomSpace(data.decision, skeleton, limit)

    cells = list(product(*[v.domain for v in space.variables]))
    sizes = [len(v.domain) for v in space.variables]
    blocks = [(dom, d) for dom in data.all_domains() for d in data.decisions]
    block_cells: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []
    for dom, d in blocks:
        columns = space.columns(d, dom.intervened)
        block_cells.append(np.ravel_multi_index([columns[name] for name in scope_names], sizes))
        table = dom.per_decision[d]
        for ref in table.scope:  # a cell outside a table's domain is an error, not a zero
            for value in space.refs[ref.name].domain:
                ref.index(value)
        for values in cells:
            # Tables and `cells` are both name-sorted, so a cell is a table key.
            rhs.append(float(table.entries.get(values, 0)))
            labels.append(f"{dom.label or 'base'}: P_{d}({dict(zip(scope_names, values))})")
    atom_class, first = _classes(block_cells)
    merged = np.zeros((len(blocks) * len(cells) + 1, first.size))
    for b, cell in enumerate(block_cells):
        merged[b * len(cells) + cell[first], np.arange(first.size)] = 1.0
    merged[-1] = 1.0
    rhs.append(1.0)
    labels.append("total mass")
    b_eq = np.asarray(rhs)
    with _solver_errors():
        start = lp.phase_one(merged, b_eq)
    return Polytope(
        space=space,
        data=data,
        merged=merged,
        b_eq=b_eq,
        atom_class=atom_class,
        start=start,
        row_labels=tuple(labels),
    )


def _objective_terms(
    polytope: Polytope,
    z: Assignment,
    c: Assignment,
    d: Value,
    d_star: Value,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-atom numerator coefficients and context indicators for the gap."""
    space = polytope.space
    utility = polytope.data.utility
    for key in (*z, *c):
        if key not in space._parents:
            raise InputError(f"{key!r} is not a modelled variable")
    merge_assignments(c, z)
    degenerate = all(name in z for name in c)
    ev_d = space.columns(d, z)
    ev_s = space.columns(d_star, z)
    sat = np.ones(space.dimension, dtype=bool)
    for name, value in c.items():
        if np.any(ev_d[name] != ev_s[name]):
            raise UnsupportedError(
                f"context variable {name!r} responds to the decision under do(z); the "
                "conditional objective is not a single-denominator program"
            )
        domain = space.refs[name].domain
        sat &= ev_d[name] == (domain.index(value) if value in domain else -1)
    den = sat.astype(float)
    y = np.array([float(v) for v in space.refs[utility].domain])
    num = (y[ev_d[utility]] - y[ev_s[utility]]) * den
    return num, den, degenerate


def optimize_gap(
    polytope: Polytope,
    z: Assignment,
    c: Assignment,
    d: Value,
    d_star: Value,
    direction: str = "min",
) -> float:
    """Exact optimum of the preference gap over all compatible canonical models.

    Conditional contexts are handled by the standard rescaling that turns the
    linear-fractional objective into a linear program; that needs the context
    probability under do(z) to be decision-independent, which the ancestry
    check enforces before solving.
    """
    if direction not in ("min", "max"):
        raise InputError(f"direction must be 'min' or 'max', got {direction!r}")
    if d == d_star:
        raise InputError("decision and baseline must differ")
    for value in (d, d_star):
        if value not in polytope.data.decisions:
            raise InputError(f"decision {value!r} not in {polytope.data.decisions}")
    num, den, degenerate = _objective_terms(polytope, z, c, d, d_star)
    sign = 1.0 if direction == "min" else -1.0
    cost = sign * num

    # Values are dot products at the per-atom program's length: a shorter
    # sum rounds differently.
    if degenerate:
        if c and any(z[name] != c[name] for name in c):
            raise InputError(f"context {dict(c)} conflicts with the shift {dict(z)}")
        return sign * float(cost @ _solve_classes(polytope, cost))

    # Charnes-Cooper: q = p / (den . p), t = 1 / (den . p).
    x = _solve_classes(
        polytope,
        cost,
        den,
        f"context {dict(c)} has zero probability under do({dict(z)}) for every "
        "compatible model",
        "fractional reduction unbounded; context probability is not bounded away from zero",
    )
    if x[-1] <= lp.FEAS_EPS:
        raise OracleError("degenerate rescaling (t = 0); context mass collapses")
    return sign * float(np.append(cost, 0.0) @ x)


def feasible_scm(polytope: Polytope) -> Scm:
    """Concrete model whose response-type atoms carry a feasible point.

    The returned model reproduces every per-decision observational joint of
    the data (up to LP tolerance); verification is by reproduction, not by
    uniqueness of the feasible point.
    """
    x = polytope.feasible_point()
    space = polytope.space
    exo_refs = tuple(
        VariableRef(f"R_{v.name}", tuple(range(len(space.responses[v.name]))))
        for v in space.variables
    )
    kept = np.flatnonzero(x > 1e-12).tolist()
    total = sum(x[i] for i in kept)
    keys = zip(*[space._atom_responses[v.name][kept].tolist() for v in space.variables])
    exo = ExoDistribution(exo_refs, tuple((key, x[i] / total) for key, i in zip(keys, kept)))

    decision = space.decision
    mechanisms: dict[str, Mechanism] = {
        decision.name: Mechanism.constant(decision, decision.domain[0])
    }
    for i, v in enumerate(space.variables):
        table = {}
        for r, response in enumerate(space.responses[v.name]):
            for ci, combo in enumerate(space.parent_combos[v.name]):
                table[(*combo, r)] = response[ci]
        mechanisms[v.name] = Mechanism(
            space.refs[v.name], v.parents, (exo_refs[i].name,), table
        )
    # The space's arrays index [response, parent combination], as `Scm._compile`'s do.
    return Scm(tuple(space.refs.values()), mechanisms, exo, lookup=dict(space._lookup))


def witness_thm1_scm(
    base: Scm,
    z: Assignment,
    c: Assignment,
    d1: Value,
    d0: Value,
    decision: str = "D",
    utility: str = "Y",
) -> Scm:
    """Bound-achieving rewrite of `base` for the atomic-shift gap (d1 over d0).

    Observationally identical to `base` (the rewrites only fire on atoms whose
    natural shift-variable values differ from their actual ones, which never
    happens without an intervention).  Under do(z) given c, its gap equals the
    closed-form lower bound: off-branch atoms clamp the context to c and the
    utility to its maximum for d0 and minimum for d1.
    """
    dref = base.ref(decision)
    if d1 == d0 or d1 not in dref.domain or d0 not in dref.domain:
        raise InputError(f"bad decision pair ({d1!r}, {d0!r}) for domain {dref.domain}")
    merged = merge_assignments(c, z)
    for name, value in merged.items():
        ref = base.ref(name)
        if value not in ref.domain:
            raise InputError(f"value {value!r} outside domain of {name!r}")
    z_names = sorted(z)
    for name in z_names:
        if base.mechanisms[name].parents:
            raise UnsupportedError(
                f"shift variable {name!r} has endogenous parents; the witness "
                "construction needs exogenously driven shift variables"
            )
    yref = base.ref(utility)
    if not yref.numeric:
        raise InputError(f"utility {utility!r} must be numeric")
    y_lo, y_hi = min(yref.domain), max(yref.domain)

    z_exo = []
    for name in z_names:
        for e in base.mechanisms[name].exo_parents:
            if e not in z_exo:
                z_exo.append(e)
    exo_refs = {r.name: r for r in base.exo.variables}

    def natural(assign: Mapping[str, Value], name: str) -> Value:
        mech = base.mechanisms[name]
        return mech.table[tuple(assign[e] for e in mech.exo_parents)]

    def on_branch(assign: Mapping[str, Value]) -> bool:
        return all(assign[name] == natural(assign, name) for name in z_names)

    def rewrite(name: str, clamp) -> Mechanism:
        mech = base.mechanisms[name]
        parents = list(mech.parents)
        for extra in z_names + ([decision] if name == utility else []):
            if extra not in parents and extra != name:
                parents.append(extra)
        exo = list(mech.exo_parents)
        for extra in z_exo:
            if extra not in exo:
                exo.append(extra)

        def fn(assign: Mapping[str, Value]) -> Value:
            if on_branch(assign):
                key = tuple(assign[p] for p in mech.parents) + tuple(
                    assign[e] for e in mech.exo_parents
                )
                return mech.table[key]
            return clamp(assign)

        return Mechanism.from_function(
            base.ref(name),
            [base.ref(p) for p in parents],
            [exo_refs[e] for e in exo],
            fn,
        )

    mechanisms = {
        name: rewrite(name, lambda assign, v=value: v)
        for name, value in c.items()
        if name not in z
    }
    mechanisms[utility] = rewrite(
        utility,
        lambda assign: y_hi if assign[decision] == d0 else y_lo,
    )
    return _derive(base, mechanisms, base.exo)


# -- canonical (z, y) response tables and unknown-shift witnesses ----------


@dataclass(frozen=True)
class ResponseTypeTable:
    """Joint law of (z-response, y-response) types for binary Z and 0/1 Y.

    y-response codes: 0 never succeeds, 1 tracks Z, 2 opposes Z, 3 always
    succeeds.  Cells index (r_z, r_y) with r_z the Z-domain position.
    """

    z: VariableRef
    y: VariableRef
    cells: dict[tuple[int, int], Number]

    def __post_init__(self) -> None:
        if len(self.z.domain) != 2:
            raise InputError(f"Z must be binary, got {self.z.domain}")
        if tuple(sorted(self.y.domain)) != (0, 1):
            raise InputError(f"Y must be 0/1, got {self.y.domain}")
        cells = {}
        for (a, b), p in self.cells.items():
            if a not in (0, 1) or b not in (0, 1, 2, 3):
                raise InputError(f"bad response cell ({a}, {b})")
            if float(p) < 0:
                raise InputError(f"negative cell mass {p}")
            if p != 0:
                cells[(a, b)] = p
        total = sum(cells.values(), start=0)
        if abs(float(total) - 1.0) > 1e-12:
            raise InputError(f"cell mass {float(total)} is not 1")
        object.__setattr__(self, "cells", cells)

    def row_sums(self) -> tuple[Number, Number, Number, Number]:
        """Marginal of the y-response type; invariant under row-preserving shifts."""
        return tuple(
            sum((p for (a, b), p in self.cells.items() if b == ry), start=0)
            for ry in range(4)
        )

    def y_value(self, z_index: int, ry: int) -> int:
        lo, hi = sorted(self.y.domain)
        return (lo, (lo, hi)[z_index], (hi, lo)[z_index], hi)[ry]

    def to_scm(self) -> Scm:
        """Canonical two-variable model carrying exactly these response types."""
        rz = VariableRef(f"R_{self.z.name}", (0, 1))
        ry = VariableRef(f"R_{self.y.name}", (0, 1, 2, 3))
        exo = ExoDistribution((rz, ry), tuple((key, p) for key, p in self.cells.items()))
        z_mech = Mechanism(self.z, (), (rz.name,), {(a,): self.z.domain[a] for a in (0, 1)})
        y_table = {
            (self.z.domain[a], b): self.y_value(a, b)
            for a in (0, 1)
            for b in range(4)
        }
        y_mech = Mechanism(self.y, (self.z.name,), (ry.name,), y_table)
        return Scm((self.z, self.y), {self.z.name: z_mech, self.y.name: y_mech}, exo)


def canonical_zy_table(
    table: DistTable,
    z_name: str = "Z",
    y_name: str = "Y",
    given: Assignment | None = None,
) -> ResponseTypeTable:
    """Canonical parameterization of one (Z, Y) law with empty corner rows.

    Any observed binary law is expressible with all mass on the Z-tracking and
    Z-opposing y-responses, which satisfies the zero-cell conventions both
    extreme reshuffles need.
    """
    zy = query(table, [z_name, y_name], given)
    zref, yref = zy.ref(z_name), zy.ref(y_name)
    lo, hi = sorted(yref.domain)
    cells: dict[tuple[int, int], Number] = {}
    for a in (0, 1):
        zv = zref.domain[a]
        cells[(a, 1)] = zy.prob({z_name: zv, y_name: (lo, hi)[a]})
        cells[(a, 2)] = zy.prob({z_name: zv, y_name: (hi, lo)[a]})
    return ResponseTypeTable(zref, yref, cells)


def unknown_shift_witnesses(p_ab: ResponseTypeTable) -> tuple[Scm, Scm]:
    """Two shifted canonical models preserving the y-response row sums.

    The shift only redistributes mass across the z-response columns within
    each y-response row; the low model drives every steerable row to its
    failure column, the high model to its success column.  With the corner
    rows empty these reach success probability exactly 0 and 1.
    """

    def reshuffle(success: bool) -> ResponseTypeTable:
        cells: dict[tuple[int, int], Number] = {}
        for (a, b), p in p_ab.cells.items():
            if b == 1:
                target = (1 if success else 0, b)
            elif b == 2:
                target = (0 if success else 1, b)
            else:
                target = (a, b)
            cells[target] = cells.get(target, 0) + p
        return ResponseTypeTable(p_ab.z, p_ab.y, cells)

    return reshuffle(False).to_scm(), reshuffle(True).to_scm()
