"""Finite probability tables and behavioural datasets.

Tables are sparse mappings from full assignments over a canonical (name-sorted)
scope to probabilities.  Probabilities may be floats or ``fractions.Fraction``;
all table algebra is plain Python arithmetic, so exact rational inputs stay
exact through marginalisation, conditioning and expectations.

Table algebra makes one scan per event: `prob`, `query`, `expectation` and the
closed forms in `bounds` and `relaxations` read an event's mass and its mass
per target value from a single pass over the entries (`_scan`), and build no
intermediate `query` table for a mean.  The results are bit-identical to
summing each quantity in its own loop, on every Python version, because the
scan keeps this contract:

* a mass is ``sum(matched, start=0)`` over the matching entries in their
  stored order, never a ``+=`` loop (from Python 3.12 on ``sum`` adds floats
  with compensation and a loop does not);
* a cell accumulates as ``cells.get(k, 0) + p`` in entry order;
* a conditional cell is divided by its event's mass with `_div`, and the
  divided cells get the negativity and normalisation checks `DistTable`
  makes on construction;
* an expectation is summed over the cells in first-seen order;
* exceptions keep their type, message and order: an event is validated in
  its own key order before anything is summed, and zero-mass errors come
  before errors about the target variable;
* a scan asked for no target accumulates no cells.

Exact tables add as integers.  A table whose entries are all exactly
`Fraction` keeps an integer view (`DistTable._exact`; `ExoDistribution._exact`
for a model's atoms): L, the lcm of the entries' denominators, and each
entry's numerator over L, in entry order.  Masses, cells, the mass checks of
`DistTable` and `ExoDistribution` and the model sums in `scm` add plain ints
and build one ``Fraction(total, L)`` per result; an event with no hits is
still the int 0.  A mean over exact cells of int values reads the cells and
the mass over one common denominator the same way.  Exact addition does not
depend on order and a `Fraction` is always in lowest terms, so each result is
``==`` to, of the same type as and `repr`-equal to the `sum` above, at one
gcd per result instead of one per entry.  Float tables, tables holding any
entry that is not exactly a `Fraction` (an int, a float, a subclass) and
tables whose L is 2**63 or more keep `sum`; the limit keeps each stored
numerator to about one machine word.

A table memoises its gap envelopes (`DistTable._envelopes`): `bounds._pieces`
stores each (lower, upper) pair under (utility, c items, z items), one entry
per distinct question asked of the table.  No error is stored, and a key that
cannot be hashed (a list as a context value) is computed without the memo, so
it raises as before.  Equal keys that hash alike (``True`` and ``1``) share an
entry; the kernel compares values the same way.  Like `_exact`, the memo
relies on the table not being mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import InputError, ZeroMassError

Value = Union[int, str]
Number = Union[int, float, Fraction]
Assignment = Mapping[str, Value]

SUM_TOL = 1e-12
_EXACT_LIMIT = 2**63
_T = TypeVar("_T")


def _integer_view(probs: Sequence[Number]) -> tuple[int, tuple[int, ...]] | None:
    """(L, numerators over L) of `probs` when every one is exactly a `Fraction`
    and the lcm L of their denominators is below `_EXACT_LIMIT`; else None."""
    if set(map(type, probs)) != {Fraction}:
        return None
    common = 1
    for den in {p.denominator for p in probs}:
        common = math.lcm(common, den)
        if common >= _EXACT_LIMIT:
            return None
    return common, tuple(p.numerator * (common // p.denominator) for p in probs)


def _total(view: tuple[int, tuple[int, ...]] | None, probs: Iterable[Number]) -> Number:
    """``sum(probs, start=0)``, added as integers when `view` is theirs."""
    if view is None:
        return sum(probs, start=0)
    common, nums = view
    return Fraction(sum(nums), common)


def _memoised(memo: dict, key: tuple, compute: Callable[[], _T]) -> _T:
    """``memo[key]``, stored from ``compute()`` on a miss.  A raised error is
    not stored, and a key that cannot be hashed is computed and not stored."""
    try:
        hit = memo.get(key)
    except TypeError:
        return compute()
    if hit is None:
        hit = memo[key] = compute()
    return hit


def _close_to_one(total: Number) -> bool:
    return abs(float(total) - 1.0) <= SUM_TOL


@dataclass(frozen=True)
class VariableRef:
    """A named variable with an ordered finite domain."""

    name: str
    domain: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.domain:
            raise InputError(f"variable {self.name!r} has an empty domain")
        try:
            members = frozenset(self.domain)
        except TypeError:  # unhashable, e.g. a JSON array or object
            raise InputError(f"variable {self.name!r} has a list or object in its domain") from None
        if len(members) != len(self.domain):
            raise InputError(f"variable {self.name!r} has duplicate domain values")
        # The domain as a set, for membership checks of hashable values.
        object.__setattr__(self, "_members", members)

    def index(self, value: Value) -> int:
        try:
            return self.domain.index(value)
        except ValueError:
            raise InputError(
                f"value {value!r} not in domain of {self.name!r} {self.domain}"
            ) from None

    @property
    def numeric(self) -> bool:
        return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in self.domain)


def _sorted_scope(scope: Iterable[VariableRef]) -> tuple[VariableRef, ...]:
    refs = sorted(scope, key=lambda r: r.name)
    names = [r.name for r in refs]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate variables in scope: {names}")
    return tuple(refs)


@dataclass(frozen=True)
class DistTable:
    """Joint probability table over a canonical, name-sorted scope.

    Missing cells carry probability zero.  Construction validates
    non-negativity and normalisation (within 1e-12).
    """

    scope: tuple[VariableRef, ...]
    entries: dict[tuple[Value, ...], Number] = field(default_factory=dict)

    def __post_init__(self) -> None:
        refs = _sorted_scope(self.scope)
        original = {r.name: i for i, r in enumerate(self.scope)}
        remap = tuple(original[r.name] for r in refs)
        if remap == tuple(range(len(refs))):
            remap = None
        members = [r._members for r in refs]
        fixed: dict[tuple[Value, ...], Number] = {}
        for key, p in self.entries.items():
            key = tuple(key)
            if len(key) != len(refs):
                raise InputError(f"entry {key} does not match scope arity {len(refs)}")
            if remap is not None:
                key = tuple(key[i] for i in remap)
            # Entry keys are dict keys, so their values are hashable.
            if not all(map(frozenset.__contains__, members, key)):
                ref, v = next((r, v) for r, v in zip(refs, key) if v not in r._members)
                ref.index(v)  # raises: v is outside ref's domain
            if (type(p) is not Fraction or p.numerator < 0) and float(p) < -SUM_TOL:
                raise InputError(f"negative probability {p} at {key}")
            if key in fixed:
                raise InputError(f"duplicate entry for assignment {key}")
            fixed[key] = p
        object.__setattr__(self, "scope", refs)
        object.__setattr__(self, "entries", fixed)
        total = _total(self._exact, fixed.values())
        if not _close_to_one(total):
            raise InputError(f"table mass {float(total)} is not 1 within {SUM_TOL}")

    # -- lookups ---------------------------------------------------------

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.scope)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _exact(self) -> tuple[int, tuple[int, ...]] | None:
        """The entries' integer view (module docstring), or None."""
        return _integer_view(tuple(self.entries.values()))

    @cached_property
    def _envelopes(self) -> dict[tuple, tuple[Number, Number]]:
        """`bounds._pieces`'s memo (module docstring)."""
        return {}

    def ref(self, name: str) -> VariableRef:
        for r in self.scope:
            if r.name == name:
                return r
        raise InputError(f"variable {name!r} not in scope {self.names}")

    def _positions(self, given: Assignment) -> list[tuple[int, Value]]:
        """(scope position, value) per variable of `given`, refused by `ref`
        outside the scope and by `VariableRef.index` outside a domain."""
        out = []
        for name, value in given.items():
            i = self._index.get(name)
            ref = self.ref(name) if i is None else self.scope[i]
            ref.index(value)
            out.append((i, value))
        return out

    def prob(self, event: Assignment) -> Number:
        """Probability mass of a (possibly partial) assignment."""
        return _scan(self, event)[0]

    def assignments(self):
        """Iterate (assignment dict, probability) over stored cells."""
        for key, p in self.entries.items():
            yield dict(zip(self.names, key)), p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistTable):
            return NotImplemented
        if self.scope != other.scope:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(
            math.isclose(
                float(self.entries.get(k, 0)), float(other.entries.get(k, 0)),
                rel_tol=0.0, abs_tol=SUM_TOL,
            )
            for k in keys
        )

    __hash__ = None  # type: ignore[assignment]


def _scan(
    table: DistTable, event: Assignment, target: Sequence[str] | None = None
) -> tuple[Number, dict[tuple[Value, ...], Number]]:
    """One pass over the entries: P(event) and, when `target` names variables,
    the mass of the event per value of those variables (no cells otherwise).
    The event is validated in its own key order; a target naming a variable
    outside the scope gets no cells, so callers raise for it after their
    zero-mass checks.  See the module docstring for the summation contract.

    A one-variable event compares ``key[i]`` with its value as a 1-tuple
    comparison would (identity, then ``==``), and a one-variable target
    accumulates by the value itself and wraps each cell's key into a 1-tuple
    at the end, keeping first-seen order."""
    pos = table._positions(event)
    at = None if target is None else [table._index.get(name) for name in target]
    common, probs = table._exact or (None, table.entries.values())
    keys: Iterable[tuple[Value, ...]] = table.entries
    if len(pos) == 1:
        ((i, v),) = pos
        mask = [key[i] is v or key[i] == v for key in keys]
    elif pos:
        get, want = itemgetter(*[i for i, _ in pos]), tuple(v for _, v in pos)
        mask = [get(key) == want for key in keys]
    if pos:
        keys, probs = compress(keys, mask), compress(probs, mask)
    hits = list(probs)
    cells: dict[tuple[Value, ...], Number] = {}
    if at is not None and None not in at:
        pick = itemgetter(*at) if at else (lambda key: ())
        for key, p in zip(keys, hits):
            k = pick(key)
            cells[k] = cells.get(k, 0) + p
        if len(at) == 1:
            cells = {(k,): n for k, n in cells.items()}
    mass = sum(hits, start=0)
    if common is None or not hits:
        return mass, cells
    return Fraction(mass, common), {k: Fraction(n, common) for k, n in cells.items()}


def _conditional(
    table: DistTable, given: dict[str, Value], target: Sequence[str]
) -> tuple[Number, dict[tuple[Value, ...], Number]]:
    """P(given) and the (undivided) cells of `target` within it, from one
    scan.  Raises on a zero-mass `given`."""
    mass, cells = _scan(table, given, target)
    if given and float(mass) <= 0.0:
        raise ZeroMassError(f"conditioning event {given} has probability zero")
    return mass, cells


def query(table: DistTable, target: Sequence[str], given: Assignment | None = None) -> DistTable:
    """Conditional-marginal table P(target | given).

    Raises ZeroMassError when the conditioning event has no mass.
    """
    given = dict(given or {})
    target = sorted(set(target))
    mass, cells = _conditional(table, given, target)
    refs = [table.ref(name) for name in target]
    if given:
        cells = {k: _div(p, mass) for k, p in cells.items()}
    return DistTable(tuple(refs), cells)


def _div(num: Number, den: Number) -> Number:
    if isinstance(num, Fraction) and isinstance(den, Fraction):
        return num / den
    return float(num) / float(den)


def _check_numeric(table: DistTable, of: str) -> None:
    ref = table.ref(of)
    if not ref.numeric:
        raise InputError(f"variable {of!r} has a non-numeric domain {ref.domain}")


def _mean(cells: dict[tuple[Value, ...], Number], mass: Number | None) -> Number:
    """Mean of the first target value over the cells, each divided by `mass`
    unless it is None (an unconditional expectation).  The divided cells are
    checked as `DistTable` checks a table's probabilities, so a mean raises
    what building its `query` table would.  A given `mass` is positive
    (callers check it first).  Exact cells of int values and an exact mass
    are read over one common denominator and added as integers (module
    docstring): the mean and each message stay the same."""
    view = _integer_view((*cells.values(), *(() if mass is None else (mass,))))
    if view is not None and all(type(key[0]) is int for key in cells):
        common, nums = view
        den, nums = (common, nums) if mass is None else (nums[-1], nums[:-1])
        for key, n in zip(cells, nums):
            if n / den < -SUM_TOL:
                raise InputError(f"negative probability {Fraction(n, den)} at {key}")
        total = sum(nums) / den
        if not _close_to_one(total):
            raise InputError(f"table mass {total} is not 1 within {SUM_TOL}")
        return Fraction(sum(key[0] * n for key, n in zip(cells, nums)), den)
    if mass is not None:
        cells = {k: _div(p, mass) for k, p in cells.items()}
    for key, p in cells.items():
        if float(p) < -SUM_TOL:
            raise InputError(f"negative probability {p} at {key}")
    total = sum(cells.values(), start=0)
    if not _close_to_one(total):
        raise InputError(f"table mass {float(total)} is not 1 within {SUM_TOL}")
    return sum((key[0] * p for key, p in cells.items()), start=0)


def _moments(
    table: DistTable, of: str, given: Assignment | None = None
) -> tuple[Number, Number]:
    """(P(given), E[of | given]) from one scan, raising what `expectation`
    raises."""
    _check_numeric(table, of)
    given = dict(given or {})
    mass, cells = _conditional(table, given, (of,))
    return mass, _mean(cells, mass if given else None)


def expectation(table: DistTable, of: str, given: Assignment | None = None) -> Number:
    """Conditional mean of a numeric variable."""
    return _moments(table, of, given)[1]


def total_variation(p: DistTable, q: DistTable) -> Number:
    """Total variation distance (half the L1 distance) between two tables."""
    if p.names != q.names or tuple(r.domain for r in p.scope) != tuple(r.domain for r in q.scope):
        raise InputError(f"scope mismatch: {p.names} vs {q.names}")
    keys = set(p.entries) | set(q.entries)
    acc: Number = 0
    for k in keys:
        a = p.entries.get(k, 0)
        b = q.entries.get(k, 0)
        d = a - b if isinstance(a, Fraction) and isinstance(b, Fraction) else float(a) - float(b)
        acc = acc + abs(d)
    return acc / 2 if isinstance(acc, Fraction) else acc / 2.0


def estimate_from_samples(
    rows: Sequence[Assignment],
    weights: Sequence[Number] | None = None,
) -> DistTable:
    """Normalised frequency table from (optionally weighted) sample rows.

    Domains are inferred from the observed values, sorted.  Weighted rows let
    aggregated logs (counts) load without expansion.
    """
    rows = list(rows)
    if not rows:
        raise InputError("no sample rows")
    if weights is None:
        weights = [1] * len(rows)
    weights = list(weights)
    if len(weights) != len(rows):
        raise InputError(f"{len(weights)} weights for {len(rows)} rows")
    if any(float(w) < 0 for w in weights):
        raise InputError("negative sample weight")
    total = sum(weights, start=0)
    if float(total) <= 0:
        raise InputError("all sample weights are zero")
    names = sorted(rows[0])
    domains: dict[str, set[Value]] = {n: set() for n in names}
    counts: dict[tuple[Value, ...], Number] = {}
    for row, w in zip(rows, weights):
        if sorted(row) != names:
            raise InputError(f"row variables {sorted(row)} differ from {names}")
        key = tuple(row[n] for n in names)
        for n in names:
            domains[n].add(row[n])
        counts[key] = counts.get(key, 0) + w
    refs = tuple(
        VariableRef(n, tuple(sorted(domains[n], key=lambda v: (str(type(v)), v))))
        for n in names
    )
    return DistTable(refs, {k: _div(w, total) for k, w in counts.items()})


# -- policies and behavioural data ---------------------------------------


@dataclass(frozen=True)
class Policy:
    """Stochastic decision rule: context assignment -> distribution over decisions."""

    decision: VariableRef
    context: tuple[str, ...]
    rows: dict[tuple[Value, ...], dict[Value, Number]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(sorted(self.context)))
        for ctx, row in self.rows.items():
            if len(ctx) != len(self.context):
                raise InputError(f"context key {ctx} does not match {self.context}")
            if not _close_to_one(sum(row.values(), start=0)):
                raise InputError(f"policy row for context {ctx} does not sum to 1")
            if any(float(p) < 0 for p in row.values()):
                raise InputError(f"negative policy probability in context {ctx}")
            for d in row:
                self.decision.index(d)  # refuses a decision outside the domain


@dataclass(frozen=True)
class ExperimentalDomain:
    """Per-decision tables observed in a domain where `intervened` was held fixed."""

    label: str
    intervened: dict[str, Value]
    per_decision: dict[Value, DistTable]


@dataclass(frozen=True)
class BehaviouralDataset:
    """Observed per-decision distributions P_d(V \\ {D}), optionally per domain.

    `utility` names the bounded numeric outcome column used by every bound.
    The base (un-intervened) tables count as the empty-intervention domain.
    Every table in every domain has scope `scope`: same variables, domains, order.
    """

    decision: VariableRef
    per_decision: dict[Value, DistTable]
    utility: str = "Y"
    domains: tuple[ExperimentalDomain, ...] = ()

    def __post_init__(self) -> None:
        if set(self.per_decision) != set(self.decision.domain):
            raise InputError(
                f"per-decision tables cover {sorted(map(str, self.per_decision))}, "
                f"expected decisions {self.decision.domain}"
            )
        first = self.table(self.decision.domain[0])
        if self.decision.name in first.names:
            raise InputError("per-decision tables must not include the decision variable")
        for dom in self.all_domains():
            if set(dom.per_decision) != set(self.decision.domain):
                raise InputError(
                    f"domain {dom.label!r} has tables for decisions "
                    f"{sorted(map(str, dom.per_decision))}, expected {self.decision.domain}"
                )
            for d, t in dom.per_decision.items():
                where = f"table of decision {d!r} in domain {dom.label or '(base)'}"
                if t.names != first.names:
                    raise InputError(f"{where} has variables {t.names}, expected {first.names}")
                for got, want in zip(t.scope, first.scope):
                    if got != want:
                        raise InputError(
                            f"{where} lists {got.name!r} as {got.domain}, expected {want.domain}"
                        )
            for name, value in dom.intervened.items():
                if name not in first.names:
                    raise InputError(
                        f"domain {dom.label!r} intervenes on {name!r}, not a variable of "
                        f"its tables {first.names}"
                    )
                if value not in first.ref(name).domain:
                    raise InputError(
                        f"domain {dom.label!r} fixes {name}={value!r}, outside its domain"
                    )
        if self.utility not in first.names:
            raise InputError(f"utility {self.utility!r} not in scope {first.names}")
        ref = first.ref(self.utility)
        if not ref.numeric or not all(0 <= v <= 1 for v in ref.domain):  # NaN is not
            raise InputError(f"utility domain {ref.domain} must be numeric within [0, 1]")

    @property
    def scope(self) -> tuple[VariableRef, ...]:
        return self.table(self.decision.domain[0]).scope

    @property
    def decisions(self) -> tuple[Value, ...]:
        return self.decision.domain

    def table(self, d: Value) -> DistTable:
        """Decision d's table; refuses any d outside the decisions, unhashable too."""
        if d not in self.decisions:
            raise InputError(f"decision {d!r} not in {self.decisions}")
        return self.per_decision[d]

    def all_domains(self) -> tuple[ExperimentalDomain, ...]:
        """Base observational domain (empty intervention) plus experimental ones."""
        base = ExperimentalDomain("", {}, dict(self.per_decision))
        return (base, *self.domains)


def _check_pair(data: BehaviouralDataset, d: Value, d_star: Value) -> None:
    """A decision and a distinct baseline, both decisions of `data`."""
    if d == d_star:
        raise InputError("decision and baseline must differ")
    data.table(d)  # each refuses a value outside the decisions
    data.table(d_star)


def _check_unfixed_utility(utility: str, *parts: Assignment) -> None:
    """No part of a gap question (shift, context, protected attribute or
    covariate) names the utility: fixing it fixes the gap by definition."""
    for part in parts:
        if utility in part:
            raise InputError(
                f"the question fixes the utility {utility}={part[utility]!r}, "
                "which fixes its gap by definition"
            )


def policy_to_atomic(p_pi: DistTable, pi: Policy, d: Value) -> DistTable:
    """Recover the atomic-decision table P_d(v) from a policy-generated joint.

    Uses P_d(y, c) = P_pi(y | d, c) * P_pi(c), which is valid whenever the
    policy gives the decision positive probability in every context.
    """
    pi.decision.index(d)  # refuses a decision outside the domain
    dname = pi.decision.name
    if dname not in p_pi.names:
        raise InputError(f"joint table lacks the decision variable {dname!r}")
    for name in pi.context:
        if name not in p_pi.names:
            raise InputError(f"joint table lacks context variable {name!r}")

    from itertools import product

    ctx_refs = [p_pi.ref(name) for name in pi.context]
    cond: dict[tuple[Value, ...], Number] = {}
    for values in product(*[r.domain for r in ctx_refs]):
        ctx = dict(zip(pi.context, values))
        mass_c = p_pi.prob(ctx)
        mass_dc = p_pi.prob({**ctx, dname: d})
        if float(mass_c) <= 0 or float(mass_dc) <= 0:
            raise ZeroMassError(
                f"positivity violated at context {ctx}: "
                f"P(context)={float(mass_c)}, P(decision, context)={float(mass_dc)}"
            )
        cond[values] = _div(mass_dc, mass_c)

    keep = [i for i, name in enumerate(p_pi.names) if name != dname]
    d_at = p_pi.names.index(dname)
    ctx_at = [p_pi.names.index(name) for name in pi.context]
    out: dict[tuple[Value, ...], Number] = {}
    for key, p in p_pi.entries.items():
        if key[d_at] != d:
            continue
        ctx_key = tuple(key[i] for i in ctx_at)
        sub = tuple(key[i] for i in keep)
        out[sub] = out.get(sub, 0) + _div(p, cond[ctx_key])
    refs = tuple(p_pi.scope[i] for i in keep)
    return DistTable(refs, out)


def merge_assignments(*parts: Assignment) -> dict[str, Value]:
    """Union of partial assignments; overlapping variables must agree."""
    merged: dict[str, Value] = {}
    for part in parts:
        for name, value in part.items():
            if name in merged and merged[name] != value:
                raise InputError(
                    f"conflicting values for {name!r}: {merged[name]!r} vs {value!r}"
                )
            merged[name] = value
    return merged
