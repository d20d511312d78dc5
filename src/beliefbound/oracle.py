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
computed arithmetically, as a Python int, since the atom count passes any
fixed-width integer on a handful of binary covariates.  A gap walks the data
blocks together with the objective's (d, z) and (d*, z) blocks and groups the
leaves by polytope class, objective coefficient and context indicator.  The
simplex runs over these classes, numbered in order of first atom, with each
class's mass put back on its first atom.  Under Bland's rule a later duplicate
never enters the basis ahead of its first occurrence, so the pivots and the
vertex are those of the per-atom program, and so is the value: the exactly
rounded sum (`math.fsum`) of each class's cost times its mass, to which the
massless atoms add nothing.

The same argument lets every gap solve skip phase one.  `build_polytope`
runs phase one once, over one column per feasibility class; a gap program's
classes refine those, so its columns are the stored ones repeated.  Duplicate
columns go through identical row operations, a basic column is an exact unit
vector with reduced cost exactly 0 (so no duplicate of it enters), and the
first-atom numbering is monotone, so the basis-index tie-breaks agree.  A cold
phase one over the gap program therefore ends on the stored tableau with its
columns gathered and each basic class moved to its first refined class, and
phase two starts there.  A conditional gap minimises (cost . x) / (den . x) by
Dinkelbach steps: each is that phase two on cost - lambda den, lambda the ratio
at the current point, and one that does not stop lowers lambda by more than
COST_EPS; num = (y_d - y_d*) den per class bounds the ratio where den . x > 0.

Nothing on the build, solve and witness paths has atom length or
response-count length: the witness decodes the responses of its support's
classes from their first atoms.  A variable's value is read off its response
by one digit rule (`CanonicalAtomSpace._values`), no lookup table: on Python
ints for one atom (`evaluate`), on index arrays for every atom.  The one
per-atom view left is `Polytope.a_eq`, built on access from
`CanonicalAtomSpace.atom_cells` for readers that count its rows; the per-atom
program itself is defined by the tests' reference.

The skeleton fixes the columns and the data only b_eq, so structure is kept per
process: `build_polytope` reuses the space, of the SPACE_CACHE_SIZE most recently
used, whose decision, names, parents, typed domains (1 is not True) and atom cap
match, and a space memoises its class program per set of data blocks and its
gap classes per question.  An entry is O(classes) per program row, its arrays
read-only; an error or an unhashable key is not kept.  A process asking one
question, as one CLI call does, gains nothing.

Also houses the constructive side: extracting a concrete model from any
feasible point, the bound-achieving witness models for atomic shifts, and the
row-preserving reshuffles that realise the +/-1 extremes under unknown shifts.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import product
from operator import itemgetter, mul
from types import MappingProxyType
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
from .scm import ExoDistribution, Mechanism, Scm, toposort
from .tables import (
    Assignment,
    BehaviouralDataset,
    DistTable,
    Number,
    Value,
    VariableRef,
    _check_pair,
    _memoised,
    merge_assignments,
    query,
)

DEFAULT_ATOM_LIMIT = 1_000_000
ATOM_LIMIT_ENV = "BELIEFBOUND_ATOM_LIMIT"
SPACE_CACHE_SIZE = 8  # spaces kept per process, least recently used dropped first


def atom_limit(override: int | str | None = None) -> int:
    """The atom cap: `override` (the CLI's --atom-limit), else the
    BELIEFBOUND_ATOM_LIMIT variable, else DEFAULT_ATOM_LIMIT.  A cap must be a
    positive integer ("1e6" is one)."""
    name, raw = "--atom-limit", override
    if override is None:
        name, raw = ATOM_LIMIT_ENV, os.environ.get(ATOM_LIMIT_ENV)
        if not raw:
            return DEFAULT_ATOM_LIMIT
    number = raw
    if isinstance(raw, str):
        with suppress(ValueError):  # exact at any size; "1e6" stays a string
            # `Decimal` has no int-string digit limit; `int` also reads "+5" and "1_0"
            number = int(Decimal(raw)) if raw.strip().isdecimal() else int(raw)
    if not isinstance(number, int):
        try:
            number = float(number)
        except (TypeError, ValueError, OverflowError):
            number = 0.0
        number = int(number) if number.is_integer() else 0  # inf and nan are not
    if number < 1:
        raise InputError(f"{name} must be a positive integer, got {raw!r}")
    return number


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

    The atom count and an atom's index are numbers, not array sizes:
    `dimension` is computed arithmetically, `walk` enumerates classes of atoms
    without visiting atoms and names each by its first atom's index (a Python
    int), and `responses` undoes an index's ravel with divmod.  `_values` reads
    the digits: `evaluate` answers for one atom in Python ints, whatever the
    space's size, and `atom_cells` for every atom in index arrays of atom
    length, built on each call, for `Polytope.a_eq` only.
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
        self._combos = combos
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
        self._programs: dict[tuple, tuple] = {}
        self._gaps: dict[tuple, _GapClasses] = {}

    def _strided(self, names: Sequence[str]) -> list[tuple[int, int]]:
        """(slot, C-order stride) of each named variable: the terms of its ravel."""
        terms, stride = [], 1
        for name in reversed(names):
            terms.append((self._slot[name], stride))
            stride *= self._sizes[name]
        return terms[::-1]

    def responses(self, atom: int) -> tuple[int, ...]:
        """Atom `atom`'s response index per name-sorted variable."""
        out = []
        for v in reversed(self.variables):
            atom, r = divmod(atom, self.counts[v.name])
            out.append(r)
        return tuple(out[::-1])

    def _fixed(self, d: Value, intervention: Assignment | None = None) -> dict[str, int]:
        """Value indices held fixed under do(intervention) and decision d."""
        fixed = {self.decision.name: self.decision.index(d)}
        for name, value in (intervention or {}).items():
            fixed[name] = self.refs[name].index(value)
        return fixed

    def walk(self, blocks: Sequence[Mapping[str, int]]) -> tuple[list[int], np.ndarray]:
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
        values = np.array([leaf[1] for leaf in leaves], dtype=np.intp)
        return [leaf[0] for leaf in leaves], values.reshape(len(leaves), -1, nb)

    def cells(self, values: np.ndarray) -> np.ndarray:
        """Joint cell (C-order over the name-sorted variables) of `walk`'s
        value indices: [class, block]."""
        return self._cell_strides @ values[:, self._cell_slots, :]

    def _program(self, blocks: Sequence[Mapping[str, int]]) -> tuple:
        """Memoised per block set: (every joint cell as a table key, each class's
        first atom, its read-only 0/1 column with the mass row, its number by its cells)."""

        def compute() -> tuple:
            cells = list(product(*[v.domain for v in self.variables]))
            first, values = self.walk(blocks)
            keys = self.cells(values)
            merged = np.zeros((len(blocks) * len(cells) + 1, len(first)))
            merged[keys + len(cells) * np.arange(len(blocks)), np.arange(len(first))[:, None]] = 1.0
            merged[-1] = 1.0
            merged.flags.writeable = False
            classes = {tuple(key): j for j, key in enumerate(keys.tolist())}
            return cells, tuple(first), merged, MappingProxyType(classes)

        return _memoised(self._programs, _items(blocks), compute)

    def _values(self, fixed: Mapping[str, int], responses: Mapping[str, int]) -> dict:
        """Value index of every variable with the `fixed` indices held; any
        other variable takes its response's base-k digit at its parents'
        combination.  Plain operators, so the responses may be Python ints (one
        atom) or intp arrays (every atom)."""
        values = dict(fixed)
        for name in self.order:
            if name not in values:
                combo = 0
                for p in self._parents[name]:
                    combo = combo * self._sizes[p] + values[p]
                k, n = self._sizes[name], self._combos[name]
                values[name] = responses[name] // k ** (n - 1 - combo) % k
        return values

    def atom_cells(self, fixed: Mapping[str, int]) -> np.ndarray:
        """Every atom's joint cell under `fixed`: the per-atom view of `cells`."""
        counts = [self.counts[v.name] for v in self.variables]
        responses = np.unravel_index(np.arange(self.dimension), counts)
        values = self._values(fixed, dict(zip(self._parents, responses)))
        cells = np.zeros(self.dimension, dtype=np.intp)
        for v in self.variables:
            cells = cells * len(v.domain) + values[v.name]
        return cells

    def evaluate(
        self, atom: Sequence[int], d: Value, intervention: Assignment | None = None
    ) -> dict[str, Value]:
        """Potential response of one atom under do(intervention) and decision d."""
        responses = dict(zip(self._parents, map(int, atom)))
        values = self._values(self._fixed(d, intervention), responses)
        return {name: self.refs[name].domain[values[name]] for name in self.order}


@dataclass(eq=False)
class Polytope:
    """Linear description of all canonical models matching the observed cells.

    `merged` holds one 0/1 constraint column per class of atoms with
    identical columns, numbered in order of first atom: `first[j]` is class
    j's lowest atom index (a Python int), and `classes` maps a class's cells
    (one per block, `blocks` holding each block's `_fixed` indices) to its
    number.  `start` is the phase one of `merged x = b_eq`, which every gap
    solve starts its phase twos from.

    `a_eq` is the per-atom view, built on access by evaluating every atom:
    the benchmark's tracer reads its row count.  No build, solve or witness
    reads it.
    """

    space: CanonicalAtomSpace
    data: BehaviouralDataset
    merged: np.ndarray
    b_eq: np.ndarray
    first: list[int]
    start: lp.PhaseOne
    blocks: tuple[dict[str, int], ...]
    classes: Mapping[tuple[int, ...], int]

    @property
    def a_eq(self) -> np.ndarray:
        """The per-atom constraint matrix, rows ordered as `merged`'s: one row
        block per data block, then the mass row (read-only, built on access)."""
        rows, n = self.merged.shape[0], self.space.dimension
        cells = (rows - 1) // len(self.blocks)
        a_eq, atoms = np.zeros((rows, n)), np.arange(n)
        for b, block in enumerate(self.blocks):
            a_eq[b * cells + self.space.atom_cells(block), atoms] = 1.0
        a_eq[-1] = 1.0
        a_eq.flags.writeable = False
        return a_eq


@contextmanager
def _solver_errors():
    """Solver failures mapped to the package's errors."""
    try:
        yield
    except lp.LpInfeasible as exc:
        raise DataError(f"infeasible polytope: {exc}") from exc
    except lp.LpUnbounded as exc:
        raise OracleError(f"unbounded solve: {exc}") from exc
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
    return lp.phase_two(polytope.start, np.zeros(len(polytope.first))).x


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
    refs = {r.name: r for r in data.scope}
    if set(refs) != {v.name for v in skeleton}:
        raise InputError(
            f"skeleton covers {sorted(v.name for v in skeleton)}, data scope is {sorted(refs)}"
        )
    for v in skeleton:
        ref = refs[v.name]
        if ref.domain != tuple(v.domain):
            raise InputError(
                f"domain mismatch for {v.name!r}: skeleton {v.domain} vs data {ref.domain}"
            )
    space = _space(data.decision, skeleton, atom_limit(limit))
    blocks = [space._fixed(d, dom.intervened) for dom in data.all_domains() for d in data.decisions]
    cells, first, merged, classes = space._program(blocks)
    rhs = []
    for dom in data.all_domains():
        for d in data.decisions:  # tables and `cells` are both name-sorted
            rhs += [float(dom.per_decision[d].entries.get(values, 0)) for values in cells]
    rhs.append(1.0)
    b_eq = np.asarray(rhs)
    with _solver_errors():
        start = lp.phase_one(merged, b_eq)
    return Polytope(
        space=space,
        data=data,
        merged=merged,
        b_eq=b_eq,
        first=list(first),
        start=start,
        blocks=tuple(blocks),
        classes=classes,
    )


def _items(blocks: Sequence[Mapping[str, int]]) -> tuple:
    """Value-index blocks as a memo key."""
    return tuple(tuple(block.items()) for block in blocks)


def _typed(values: tuple) -> tuple:
    """`values` with each one's type, in nested tuples too: 1 == 1.0 == True."""
    return tuple((type(v), _typed(v) if isinstance(v, tuple) else v) for v in values)


def _space(decision: VariableRef, skeleton: Sequence[SkeletonVariable], cap: int):
    """The space of this structure and cap: a kept one, or a fresh one for a
    structure that cannot be hashed."""
    variables = tuple((v.name, _typed(v.domain), v.parents) for v in skeleton)
    key = (decision.name, _typed(decision.domain), variables, cap)
    try:
        hash(key)
    except TypeError:
        return CanonicalAtomSpace(decision, skeleton, cap)
    return _kept_space(key, decision, tuple(skeleton), cap)


@lru_cache(maxsize=SPACE_CACHE_SIZE)  # thread-safe, unlike a dict's pop and insert
def _kept_space(key: tuple, decision: VariableRef, skeleton: tuple, cap: int):
    """`_space` of a hashable structure `key`, kept per process."""
    return CanonicalAtomSpace(decision, skeleton, cap)


@dataclass(frozen=True)
class _GapClasses:
    """A gap program's classes, numbered in order of first atom: atoms of one
    polytope class (`coarse`) with one numerator coefficient `num` and, for a
    conditional gap (`den` not None), one context indicator."""

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
    """The gap's classes, from one walk over the data blocks and the objective's
    (d, z) and (d*, z) blocks, memoised on the space (read-only arrays)."""
    space = polytope.space
    utility = polytope.data.utility
    for key in (*z, *c):
        if key not in space._parents:
            raise InputError(f"{key!r} is not a modelled variable")
    merge_assignments(c, z)
    objective = (space._fixed(d, z), space._fixed(d_star, z))

    def compute() -> _GapClasses:
        degenerate = all(name in z for name in c)
        n = len(polytope.blocks)
        values = space.walk([*polytope.blocks, *objective])[1]
        ev_d, ev_s = values[:, :, n], values[:, :, n + 1]
        sat = np.ones(len(values), dtype=bool)
        for name, value in c.items():
            slot = space._slot[name]
            if np.any(ev_d[:, slot] != ev_s[:, slot]):
                raise UnsupportedError(
                    f"context variable {name!r} responds to the decision under do(z); the "
                    "conditional objective is not a single-denominator program"
                )
            sat &= ev_d[:, slot] == space.refs[name].index(value)
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
        coarse, num, den = coarse[pick], num[pick], den[pick]
        for array in (coarse, num, den):
            array.flags.writeable = False
        return _GapClasses(coarse, num, None if degenerate else den)

    # A context value is keyed as given: values that index alike give one program.
    key = (_items(polytope.blocks), utility, _items(objective), tuple(c.items()))
    return _memoised(space._gaps, key, compute)


def _solve_gap(polytope: Polytope, gap: _GapClasses, cost: np.ndarray) -> np.ndarray | None:
    """Minimiser of cost . x over the gap's classes, from the stored phase one.
    For a conditional gap, of (cost . x) / (den . x) from the start's own vertex
    (no pivot), else the one with the most context mass; None if that has none."""
    start = _refined_start(polytope, gap.coarse)
    with _solver_errors():
        if gap.den is None:
            return lp.phase_two(start, cost).x
        vertices = (lp.phase_two(start, first).x for first in (np.zeros(cost.size), -gap.den))
        x = next((x for x in vertices if math.fsum((gap.den * x).tolist()) > lp.FEAS_EPS), None)
        if x is None:
            return None
        for _ in range(lp.MAX_PIVOTS):
            ratio = math.fsum((cost * x).tolist()) / math.fsum((gap.den * x).tolist())
            step_cost = cost - ratio * gap.den
            step = lp.phase_two(start, step_cost).x
            if math.fsum((step_cost * step).tolist()) >= -lp.COST_EPS:
                return x
            x = step
    raise OracleError(f"Dinkelbach's method stopped: no optimum after {lp.MAX_PIVOTS} steps")


def optimize_gap(
    polytope: Polytope,
    z: Assignment,
    c: Assignment,
    d: Value,
    d_star: Value,
    direction: str = "min",
) -> float:
    """Exact optimum of the preference gap over all compatible canonical models.

    A context outside the shift makes the gap a ratio, minimised by Dinkelbach
    steps; its denominator, the context's probability under do(z), must not
    depend on the decision, which the ancestry check enforces before solving.
    """
    if direction not in ("min", "max"):
        raise InputError(f"direction must be 'min' or 'max', got {direction!r}")
    _check_pair(polytope.data, d, d_star)
    gap = _gap_classes(polytope, z, c, d, d_star)
    x = _solve_gap(polytope, gap, gap.num if direction == "min" else -gap.num)
    if x is None:
        raise DataError(
            f"context {dict(c)} has zero probability under do({dict(z)}) for every compatible model"
        )
    value = math.fsum((gap.num * x).tolist())
    return value if gap.den is None else value / math.fsum((gap.den * x).tolist())


def feasible_scm(polytope: Polytope) -> Scm:
    """Concrete model whose response-type atoms carry a feasible point.

    The returned model reproduces every per-decision observational joint of
    the data (up to LP tolerance); verification is by reproduction, not by
    uniqueness of the feasible point: the vertex phase one ended on, each
    class's mass on its first atom.  R_v ranges over v's responses in those
    atoms only, so the model grows with the support, not with the space.
    """
    x = _vertex(polytope)
    space = polytope.space
    kept = np.flatnonzero(x > 1e-12).tolist()
    total = sum(x[j] for j in kept)
    keys = [space.responses(polytope.first[j]) for j in kept]
    exo_refs = tuple(
        VariableRef(f"R_{v.name}", tuple(sorted(set(column))))
        for v, column in zip(space.variables, zip(*keys))
    )
    exo = ExoDistribution(exo_refs, tuple((key, x[j] / total) for key, j in zip(keys, kept)))

    decision = space.decision
    mechanisms: dict[str, Mechanism] = {
        decision.name: Mechanism.constant(decision, decision.domain[0])
    }
    for v, ref in zip(space.variables, exo_refs):
        k, n = len(v.domain), space._combos[v.name]
        combos = list(enumerate(product(*[space.refs[p].domain for p in v.parents])))
        # Response r's value at parent combination c is its c-th base-k digit (`_values`).
        table = {
            (*combo, r): v.domain[r // k ** (n - 1 - c) % k]
            for r in ref.domain
            for c, combo in combos
        }
        mechanisms[v.name] = Mechanism(space.refs[v.name], v.parents, (ref.name,), table)
    return Scm(tuple(space.refs.values()), mechanisms, exo)


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
    if d1 == d0:
        raise InputError("decision and baseline must differ")
    dref.index(d1)  # each refuses a value outside the domain
    dref.index(d0)
    merged = merge_assignments(c, z)
    for name, value in merged.items():
        base.ref(name).index(value)  # refuses a value outside the domain
    z_names = sorted(z)
    for name in z_names:
        if base.mechanisms[name].parents:
            raise UnsupportedError(
                f"shift variable {name!r} has endogenous parents; the witness "
                "construction needs exogenously driven shift variables"
            )
    y_lo, y_hi = base.ref(utility).value_range()

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
    return Scm(base.variables, {**base.mechanisms, **mechanisms}, base.exo)


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
        self.y.check_zero_one("unknown-shift witnesses need")
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

    def to_scm(self) -> Scm:
        """Canonical two-variable model carrying exactly these response types."""
        rz = VariableRef(f"R_{self.z.name}", (0, 1))
        ry = VariableRef(f"R_{self.y.name}", (0, 1, 2, 3))
        exo = ExoDistribution((rz, ry), tuple((key, p) for key, p in self.cells.items()))
        z_mech = Mechanism(self.z, (), (rz.name,), {(a,): self.z.domain[a] for a in (0, 1)})
        lo, hi = sorted(self.y.domain)
        y_table = {
            (self.z.domain[a], b): (lo, (lo, hi)[a], (hi, lo)[a], hi)[b]
            for a in (0, 1)
            for b in range(4)
        }
        y_mech = Mechanism(self.y, (self.z.name,), (ry.name,), y_table)
        return Scm((self.z, self.y), {self.z.name: z_mech, self.y.name: y_mech}, exo)


def canonical_zy_table(table: DistTable, z_name: str = "Z", y_name: str = "Y") -> ResponseTypeTable:
    """Canonical parameterization of one (Z, Y) law with empty corner rows.

    Any observed binary law is expressible with all mass on the Z-tracking and
    Z-opposing y-responses, which satisfies the zero-cell conventions both
    extreme reshuffles need.
    """
    zy = query(table, [z_name, y_name])
    zref, yref = zy.ref(z_name), zy.ref(y_name)
    yref.check_zero_one("unknown-shift witnesses need")
    lo, hi = yref.value_range()
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
