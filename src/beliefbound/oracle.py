"""Independent certification of gap bounds by exact polytope optimization.

The closed-form bounds are verified against linear programs over canonical
response-type models: one probability per joint response type (atom), one
equality per observed per-decision cell.  The optimum of the gap objective
over that polytope is the exact partial-identification envelope, so matching
it certifies a closed-form bound as tight.

Atoms landing in the same cell of every observed block have identical
constraint columns, and thousands of them share one (the response-function
reduction of Balke & Pearl): only v's responses at the parent combinations
that some block realises can move a column.  `CanonicalAtomSpace.walk`
therefore enumerates classes of atoms, not atoms.  It visits the variables in
topological order and, on each branch, splits only on v's responses at the
parent combinations that branch realises in some block; every other response
is free.  Each leaf is a product set of atoms whose variables take one value
per block, and two leaves differ in a response that some block reads, so the
leaves are exactly the classes; a leaf's first atom (free responses 0) is
computed arithmetically.  A gap walks the data blocks together with the
objective's (d, z) and (d*, z) blocks and groups the leaves by polytope
class, objective coefficient and context indicator.  The simplex runs over
these classes, numbered in order of first atom, with each class's mass put
back on its first atom.  Under Bland's rule a later duplicate never enters
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

A gap's value is still the dot product of the per-atom program: class costs
and masses are scattered onto their first atoms in zero vectors of atom
length, because a sum over the classes alone rounds differently (the oracle
goldens pin the last ulp).  Nothing else on the build, solve and witness
paths has atom length.  Per-atom views (`CanonicalAtomSpace.atom_cells`,
`Polytope.atom_class` and `a_eq`, `feasible_point` with a per-atom objective)
are computed on access from the shared evaluation kernel
(`scm.evaluate_columns`), for callers and checks that index atoms.

Also houses the constructive side: extracting a concrete model from any
feasible point, the bound-achieving witness models for atomic shifts, and the
row-preserving reshuffles that realise the +/-1 extremes under unknown shifts.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter, mul
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


def atom_limit(override: int | str | None = None) -> int:
    """The atom cap: `override` (the CLI's --atom-limit), else the
    BELIEFBOUND_ATOM_LIMIT variable, else DEFAULT_ATOM_LIMIT.  A cap must be a
    positive integer ("1e6" is one)."""
    name, raw = "--atom-limit", override
    if override is None:
        name, raw = ATOM_LIMIT_ENV, os.environ.get(ATOM_LIMIT_ENV)
        if not raw:
            return DEFAULT_ATOM_LIMIT
    try:
        number = float(raw)
    except (TypeError, ValueError, OverflowError):
        number = 0.0
    if not (math.isfinite(number) and number.is_integer() and number >= 1):
        raise InputError(f"{name} must be a positive integer, got {raw!r}")
    return raw if isinstance(raw, int) else int(number)


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
    parents has 2**4 = 16.  Atoms are numbered by raveling their response
    indices over the name-sorted variables, and response r of a k-valued
    variable is r's base-k digits, most significant first, one per parent
    combination (the order of `product`).

    `dimension` is computed arithmetically and `walk` enumerates classes of
    atoms without visiting atoms.  `atom_cells` evaluates every atom, building
    arrays of atom length on each call, for per-atom views; `evaluate` answers
    for one atom.
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
        self._sizes = {name: len(ref.domain) for name, ref in self.refs.items()}

        cap = atom_limit(limit)
        combos = {v.name: math.prod(self._sizes[p] for p in v.parents) for v in self.variables}
        bits = sum(n * math.log2(len(v.domain)) for v, n in zip(self.variables, combos.values()))
        if bits > cap.bit_length() + 1:  # too large to be worth counting exactly
            raise AtomLimitError(
                f"canonical space needs about 2^{bits:.0f} atoms, over the cap of {cap} "
                f"(set {ATOM_LIMIT_ENV} to raise it)"
            )
        self.counts = {v.name: len(v.domain) ** combos[v.name] for v in self.variables}
        self.dimension = math.prod(self.counts.values())
        if self.dimension > cap:
            raise AtomLimitError(
                f"canonical space needs {self.dimension} atoms, over the cap of {cap} "
                f"(set {ATOM_LIMIT_ENV} to raise it)"
            )
        # The walk's arithmetic.  A branch holds, per block, the value index
        # of the decision (slot 0) and of each variable visited so far.
        self._slot = {decision.name: 0, **{name: i + 1 for i, name in enumerate(self.order)}}
        counts = list(self.counts.values())
        # An atom's index is its response indices raveled over the name-sorted variables.
        after = {v.name: math.prod(counts[i + 1 :]) for i, v in enumerate(self.variables)}
        self._walk_steps = []
        for name in self.order:
            k, n = self._sizes[name], combos[name]
            self._walk_steps.append((
                name,
                k,
                self._strided(self._parents[name]),
                [k ** (n - 1 - c) * after[name] for c in range(n)],  # atom index of each digit
            ))
        slots, strides = zip(*self._strided([v.name for v in self.variables]))
        self._cell_slots, self._cell_strides = list(slots), np.array(strides, dtype=np.intp)

    def _strided(self, names: Sequence[str]) -> list[tuple[int, int]]:
        """(slot, C-order stride) of each named variable: the terms of its ravel."""
        terms, stride = [], 1
        for name in reversed(names):
            terms.append((self._slot[name], stride))
            stride *= self._sizes[name]
        return terms[::-1]

    @cached_property
    def _lookup(self) -> dict[str, np.ndarray]:
        """Read-only [response, parent combination] -> value index arrays, one
        per variable (built on first use: the build and solve paths never
        evaluate a response)."""
        lookup = {}
        for v in self.variables:
            k, n = len(v.domain), math.prod(self._sizes[p] for p in v.parents)
            # Row r is r's base-k digits, most significant first.
            lookup[v.name] = np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
            lookup[v.name].flags.writeable = False
        return lookup

    def atoms(self):
        """Deterministic enumeration of response-index tuples (name-sorted vars)."""
        return product(*[range(self.counts[v.name]) for v in self.variables])

    def _atom_responses(self) -> dict[str, np.ndarray]:
        """Every atom's response index per variable: the per-atom view (atom
        length, built on each access)."""
        counts = [self.counts[v.name] for v in self.variables]
        return dict(zip(self._parents, np.unravel_index(np.arange(self.dimension), counts)))

    def _fixed(self, d: Value, intervention: Assignment | None = None) -> dict[str, int]:
        """Value indices held fixed under do(intervention) and decision d."""
        fixed = {self.decision.name: self.decision.index(d)}
        for name, value in (intervention or {}).items():
            if name in self._parents:
                fixed[name] = self.refs[name].index(value)
        return fixed

    def walk(self, blocks: Sequence[Mapping[str, int]]) -> tuple[np.ndarray, np.ndarray]:
        """Classes of atoms whose variables take one value in each block (a
        `_fixed` mapping each), in order of first atom: (first atom of each
        class, value indices [class, slot, block]), slot 0 holding the
        decision and slot i the i-th variable of `order`.

        A branch splits only on a variable's responses at the parent
        combinations it realises in blocks that do not fix the variable; the
        other responses are free, and 0 in the first atom.
        """
        nb = len(blocks)
        leaves = [(0, tuple(block[self.decision.name] for block in blocks))]
        for name, k, parents, weights in self._walk_steps:
            pinned = [block.get(name) for block in blocks]
            free = [b for b, pin in enumerate(pinned) if pin is None]
            terms = [(s * nb, m) for s, m in parents]  # a branch's values are slot-major
            grown = []
            for first, values in leaves:
                combos = []
                for b in free:
                    combo = 0
                    for at, m in terms:
                        combo += values[at + b] * m
                    combos.append(combo)
                realised = sorted(set(combos))
                digit_of = [realised.index(combo) for combo in combos]
                place = [weights[combo] for combo in realised]
                for digits in product(range(k), repeat=len(realised)):
                    row = pinned.copy()
                    for b, j in zip(free, digit_of):
                        row[b] = digits[j]
                    grown.append((first + sum(map(mul, place, digits)), values + tuple(row)))
            leaves = grown
        leaves.sort(key=itemgetter(0))
        first = np.array([leaf[0] for leaf in leaves], dtype=np.intp)
        values = np.array([leaf[1] for leaf in leaves], dtype=np.intp)
        return first, values.reshape(len(leaves), -1, nb)

    def cells(self, values: np.ndarray) -> np.ndarray:
        """Joint cell (C-order over the name-sorted variables) of `walk`'s
        value indices: [class, block]."""
        return self._cell_strides @ values[:, self._cell_slots, :]

    def _columns(self, fixed: Mapping[str, int], atoms=None) -> dict[str, np.ndarray]:
        """Value-index columns with the `fixed` indices held, one row per atom
        of `atoms` (response-index tuples; default: every atom)."""
        if atoms is None:
            responses, rows = self._atom_responses(), self.dimension
        else:
            responses = dict(zip(self._parents, np.asarray(atoms, dtype=np.intp).T))
            rows = len(atoms)
        return evaluate_columns(
            self.order, self._parents, self._sizes, self._lookup, responses, rows, fixed
        )

    def atom_cells(self, fixed: Mapping[str, int]) -> np.ndarray:
        """Every atom's joint cell under `fixed`: the per-atom view of `cells`."""
        columns = self._columns(fixed)
        return np.ravel_multi_index(
            [columns[v.name] for v in self.variables], [len(v.domain) for v in self.variables]
        )

    def evaluate(
        self, atom: Sequence[int], d: Value, intervention: Assignment | None = None
    ) -> dict[str, Value]:
        """Potential response of one atom under do(intervention) and decision d."""
        columns = self._columns(self._fixed(d, intervention), [atom])
        return {name: self.refs[name].domain[columns[name][0]] for name in self.order}


@dataclass(eq=False)
class Polytope:
    """Linear description of all canonical models matching the observed cells.

    `merged` holds one 0/1 constraint column per class of atoms with
    identical columns, numbered in order of first atom: `first[j]` is class
    j's lowest atom index, and `classes` maps a class's cells (one per block,
    `blocks` holding each block's `_fixed` indices) to its number.  `start`
    is the phase one of `merged x = b_eq`, which every plain gap solve starts
    its phase two from.

    `atom_class`, `a_eq` and `feasible_point` with an objective are per-atom
    views, built on access by evaluating every atom: `a_eq` for readers that
    index atoms (the benchmark's tracer reads its row count, tests compare it
    with the response-type definition), an objective because it has one
    coefficient per atom.  No build, solve or witness reads them.
    """

    space: CanonicalAtomSpace
    data: BehaviouralDataset
    merged: np.ndarray
    b_eq: np.ndarray
    first: np.ndarray
    start: lp.PhaseOne
    blocks: tuple[dict[str, int], ...]
    classes: dict[tuple[int, ...], int]

    @property
    def row_labels(self) -> tuple[str, ...]:
        """What each row of `merged` pins: a (domain, decision, cell), then the total mass."""
        names = [v.name for v in self.space.variables]
        cells = list(product(*[v.domain for v in self.space.variables]))
        return tuple(
            f"{dom.label or 'base'}: P_{d}({dict(zip(names, values))})"
            for dom in self.data.all_domains()
            for d in self.data.decisions
            for values in cells
        ) + ("total mass",)

    @property
    def atom_class(self) -> np.ndarray:
        """Each atom's class (evaluates every atom in every block)."""
        return _classes([self.space.atom_cells(block) for block in self.blocks])[0]

    @property
    def a_eq(self) -> np.ndarray:
        """The per-atom constraint matrix (a read-only copy, built on access)."""
        a_eq = self.merged[:, self.atom_class]
        a_eq.flags.writeable = False
        return a_eq

    def feasible_point(self, objective: Sequence[float] | None = None) -> np.ndarray:
        """A feasible atom-probability vector, optionally optimizing a per-atom
        direction (without one, the vertex phase one ended on)."""
        if objective is None:
            return _scatter(self.space.dimension, self.first, _vertex(self))
        objective = np.asarray(objective, float)
        atom_class = self.atom_class
        first = _classes([atom_class, objective])[1]
        with _solver_errors():
            sol = lp.phase_two(_refined_start(self, atom_class[first]), objective[first])
        return _scatter(self.space.dimension, first, sol.x)


def _classes(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Classes of atoms agreeing on every per-atom key, numbered in order of
    first atom: (class of each atom, first atom of each class).  Per-atom
    views only; the build and solve paths number the walk's leaves."""
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


def _vertex(polytope: Polytope) -> np.ndarray:
    """The class masses of the vertex phase one ended on."""
    return lp.phase_two(polytope.start, np.zeros(polytope.first.size)).x


def _scatter(dimension: int, first: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class values `x` put on their first atoms of an atom-length zero
    vector, with what follows the classes (the Charnes-Cooper t) appended."""
    out = np.zeros(dimension + x.size - first.size)
    out[first] = x[: first.size]
    out[dimension:] = x[first.size :]
    return out


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
    blocks: list[dict[str, int]] = []
    rhs: list[float] = []
    for dom in data.all_domains():
        for d in data.decisions:
            blocks.append(space._fixed(d, dom.intervened))
            table = dom.per_decision[d]
            for ref in table.scope:  # a cell outside a table's domain is an error, not a zero
                for value in space.refs[ref.name].domain:
                    ref.index(value)
            # Tables and `cells` are both name-sorted, so a cell is a table key.
            rhs += [float(table.entries.get(values, 0)) for values in cells]
    first, values = space.walk(blocks)
    keys = space.cells(values)
    merged = np.zeros((len(blocks) * len(cells) + 1, first.size))
    merged[keys + len(cells) * np.arange(len(blocks)), np.arange(first.size)[:, None]] = 1.0
    merged[-1] = 1.0
    rhs.append(1.0)
    b_eq = np.asarray(rhs)
    with _solver_errors():
        start = lp.phase_one(merged, b_eq)
    return Polytope(
        space=space,
        data=data,
        merged=merged,
        b_eq=b_eq,
        first=first,
        start=start,
        blocks=tuple(blocks),
        classes={tuple(key): j for j, key in enumerate(keys.tolist())},
    )


@dataclass(frozen=True)
class _GapClasses:
    """A gap program's classes, numbered in order of first atom: atoms of one
    polytope class (`coarse`) with one numerator coefficient `num` and, for a
    conditional gap (`den` not None), one context indicator."""

    first: np.ndarray
    coarse: np.ndarray
    num: np.ndarray
    den: np.ndarray | None


def _gap_classes(
    polytope: Polytope,
    z: Assignment,
    c: Assignment,
    d: Value,
    d_star: Value,
) -> _GapClasses:
    """The gap's classes, from one walk over the data blocks and the
    objective's (d, z) and (d*, z) blocks."""
    space = polytope.space
    utility = polytope.data.utility
    for key in (*z, *c):
        if key not in space._parents:
            raise InputError(f"{key!r} is not a modelled variable")
    merge_assignments(c, z)
    degenerate = all(name in z for name in c)
    n = len(polytope.blocks)
    first, values = space.walk([*polytope.blocks, space._fixed(d, z), space._fixed(d_star, z)])
    ev_d, ev_s = values[:, :, n], values[:, :, n + 1]
    sat = np.ones(first.size, dtype=bool)
    for name, value in c.items():
        slot = space._slot[name]
        if np.any(ev_d[:, slot] != ev_s[:, slot]):
            raise UnsupportedError(
                f"context variable {name!r} responds to the decision under do(z); the "
                "conditional objective is not a single-denominator program"
            )
        domain = space.refs[name].domain
        sat &= ev_d[:, slot] == (domain.index(value) if value in domain else -1)
    den = sat.astype(float)
    y = np.array([float(v) for v in space.refs[utility].domain])
    u = space._slot[utility]
    num = (y[ev_d[:, u]] - y[ev_s[:, u]]) * den
    cells = space.cells(values[:, :, :n]).tolist()
    coarse = np.array([polytope.classes[tuple(key)] for key in cells])

    keys = [coarse.tolist(), num.tolist()] + [den.tolist()] * (not degenerate)
    at: dict[tuple, int] = {}
    for j, key in enumerate(zip(*keys)):
        at.setdefault(key, j)  # leaves come in order of first atom
    pick = np.fromiter(at.values(), dtype=np.intp, count=len(at))
    return _GapClasses(first[pick], coarse[pick], num[pick], None if degenerate else den[pick])


def _solve_gap(
    polytope: Polytope, gap: _GapClasses, cost: np.ndarray, *messages: str
) -> np.ndarray:
    """Minimiser of cost . x over the gap's classes; for a conditional gap the
    Charnes-Cooper program [A, -b] (q, t) = 0, den . q = 1, with t appended."""
    with _solver_errors(*messages):
        if gap.den is None:
            return lp.phase_two(_refined_start(polytope, gap.coarse), cost).x
        a_eq = np.hstack([polytope.merged[:, gap.coarse], -polytope.b_eq[:, None]])
        a_eq = np.vstack([a_eq, np.append(gap.den, 0.0)])
        b_eq = np.zeros(a_eq.shape[0])
        b_eq[-1] = 1.0
        return lp.solve_lp(np.append(cost, 0.0), a_eq, b_eq).x


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
    gap = _gap_classes(polytope, z, c, d, d_star)
    sign = 1.0 if direction == "min" else -1.0
    cost = sign * gap.num
    # Charnes-Cooper (conditional gaps): q = p / (den . p), t = 1 / (den . p).
    x = _solve_gap(
        polytope,
        gap,
        cost,
        f"context {dict(c)} has zero probability under do({dict(z)}) for every "
        "compatible model",
        "fractional reduction unbounded; context probability is not bounded away from zero",
    )
    if gap.den is not None and x[-1] <= lp.FEAS_EPS:
        raise OracleError("degenerate rescaling (t = 0); context mass collapses")
    # The per-atom program's dot product (the Charnes-Cooper t costs 0): a sum
    # over the classes alone rounds differently.
    weights = np.zeros(x.size)
    weights[: cost.size] = cost
    dimension = polytope.space.dimension
    return sign * float(
        _scatter(dimension, gap.first, weights) @ _scatter(dimension, gap.first, x)
    )


def feasible_scm(polytope: Polytope) -> Scm:
    """Concrete model whose response-type atoms carry a feasible point.

    The returned model reproduces every per-decision observational joint of
    the data (up to LP tolerance); verification is by reproduction, not by
    uniqueness of the feasible point.  Each class's mass sits on its first
    atom, as in `Polytope.feasible_point()`.
    """
    x = _vertex(polytope)
    space = polytope.space
    exo_refs = tuple(
        VariableRef(f"R_{v.name}", tuple(range(space.counts[v.name]))) for v in space.variables
    )
    kept = np.flatnonzero(x > 1e-12).tolist()
    total = sum(x[j] for j in kept)
    counts = [space.counts[v.name] for v in space.variables]
    keys = zip(*[r.tolist() for r in np.unravel_index(polytope.first[kept], counts)])
    exo = ExoDistribution(exo_refs, tuple((key, x[j] / total) for key, j in zip(keys, kept)))

    decision = space.decision
    mechanisms: dict[str, Mechanism] = {
        decision.name: Mechanism.constant(decision, decision.domain[0])
    }
    for i, v in enumerate(space.variables):
        # lookup[r, k] is response r's value at parent combination k (the
        # layout of `Scm._compile`); the table maps (*combination k, r) to it.
        lookup = space._lookup[v.name]
        inputs = product(*[space.refs[p].domain for p in v.parents], range(len(lookup)))
        domain = np.fromiter(v.domain, dtype=object, count=len(v.domain))
        outputs = domain[lookup.T.ravel()].tolist()
        table = dict(zip(inputs, outputs))
        mechanisms[v.name] = Mechanism(
            space.refs[v.name], v.parents, (exo_refs[i].name,), table
        )
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
