"""Finite discrete structural models: evaluation, sub-models, shifts.

A model is a set of endogenous variables, one extensional mechanism table per
variable, and a joint distribution over exogenous atoms.  Everything here is
an immutable value; every operation returns a new model or a plain result, so
concurrent use is safe.

Mechanisms are tables rather than expressions: the whole package relies on
exhaustive exogenous enumeration, and tables keep that exact (rationals pass
through untouched).

The package's one topological sort (`toposort`) lives here.  A model is
evaluated one way: `Scm` compiles each mechanism into a lookup array indexed
like its table, and `_evaluate_units` reads those arrays at the exogenous
atoms' index columns, one value-index column per variable out.  (The oracle's
canonical space needs no tables: a response's value is one of its digits.)
Only value indices enter numpy; masses are summed in Python, so rationals stay
exact.

A query under do(x) builds no sub-model: `_evaluate_units` holds x's value
indices, as the oracle's canonical space does, and never reads the intervened
mechanisms.  Every `Scm`, `submodel`'s included, compiles and checks all of
its mechanisms.

A known mechanism shift is `apply_shift(scm, mechanisms, exo=None)`: the
named variables get the given mechanisms, and `exo`, when given, joins the
exogenous atoms as an independent block.  A shift whose mechanisms are
unknown has no model here; `bounds.thm3_unknown_shift_interval` bounds it.

Each exogenous block is indexed once: `ExoDistribution._columns` holds one
read-only domain-index column per exogenous variable over the atoms, and a
derived model that keeps its parent's block (`submodel`, `apply_shift`
without `exo`) keeps the same object, so every model sum over one
block reads the same columns.  `scm_dataset` pushes the atoms straight onto
the variables other than the decision and builds one table per decision; its
entries are those of `query(joint_distribution(...), rest)`, because under
do(D=d) dropping D maps the joint's cells one to one onto those of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ModelError
from .tables import (
    Assignment,
    BehaviouralDataset,
    DistTable,
    Number,
    Policy,
    Value,
    VariableRef,
    _close_to_one,
    _integer_view,
    _total,
)


@dataclass(frozen=True)
class Mechanism:
    """Total map (parent assignment x exogenous assignment) -> target value.

    Keys are flat tuples: parent values in `parents` order followed by
    exogenous values in `exo_parents` order.
    """

    target: VariableRef
    parents: tuple[str, ...]
    exo_parents: tuple[str, ...]
    table: dict[tuple[Value, ...], Value]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "exo_parents", tuple(self.exo_parents))
        object.__setattr__(self, "table", dict(self.table))

    @classmethod
    def from_function(
        cls,
        target: VariableRef,
        parents: Sequence[VariableRef],
        exo_parents: Sequence[VariableRef],
        fn,
    ) -> "Mechanism":
        """Tabulate ``fn(assignment) -> value`` over the full input product."""
        names = [r.name for r in (*parents, *exo_parents)]
        table = {}
        for combo in product(*[r.domain for r in (*parents, *exo_parents)]):
            table[tuple(combo)] = fn(dict(zip(names, combo)))
        return cls(target, tuple(r.name for r in parents), tuple(r.name for r in exo_parents), table)

    @classmethod
    def constant(cls, target: VariableRef, value: Value) -> "Mechanism":
        target.index(value)  # refuses a value outside the domain
        return cls(target, (), (), {(): value})


@dataclass(frozen=True)
class ExoDistribution:
    """Joint distribution over exogenous atoms (one block, confounding allowed)."""

    variables: tuple[VariableRef, ...]
    atoms: tuple[tuple[tuple[Value, ...], Number], ...]

    def __post_init__(self) -> None:
        refs = tuple(self.variables)
        names = [r.name for r in refs]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate exogenous names: {names}")
        seen = set()
        atoms = []
        for key, p in self.atoms:
            key = tuple(key)
            if len(key) != len(refs):
                raise InputError(f"exogenous atom {key} does not match arity {len(refs)}")
            for ref, v in zip(refs, key):
                ref.index(v)  # refuses a value outside the domain
            if key in seen:
                raise InputError(f"duplicate exogenous atom {key}")
            if float(p) < 0:
                raise InputError(f"negative exogenous probability {p}")
            seen.add(key)
            atoms.append((key, p))
        object.__setattr__(self, "variables", refs)
        object.__setattr__(self, "atoms", tuple(atoms))
        total = _total(self._exact, (p for _, p in atoms))
        if not _close_to_one(total):
            raise InputError(f"exogenous mass {float(total)} is not 1 within 1e-12")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.variables)

    @cached_property
    def _exact(self) -> tuple[int, tuple[int, ...]] | None:
        """The atoms' integer view (see the `tables` docstring), or None."""
        return _integer_view(tuple(p for _, p in self.atoms))

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """Read-only domain-index column of each variable over `atoms`."""
        columns = []
        for j, ref in enumerate(self.variables):
            position = {v: i for i, v in enumerate(ref.domain)}
            column = np.array([position[key[j]] for key, _ in self.atoms], dtype=np.intp)
            column.flags.writeable = False
            columns.append(column)
        return tuple(columns)

    def assignments(self):
        for key, p in self.atoms:
            yield dict(zip(self.names, key)), p

    @classmethod
    def product(cls, left: "ExoDistribution", right: "ExoDistribution") -> "ExoDistribution":
        """Independent product of two blocks; zero-probability atoms dropped."""
        clash = set(left.names) & set(right.names)
        if clash:
            raise InputError(f"exogenous name clash: {sorted(clash)}")
        atoms = []
        for lk, lp in left.atoms:
            if lp == 0:
                continue
            for rk, rp in right.atoms:
                if rp == 0:
                    continue
                atoms.append((lk + rk, lp * rp))
        return cls(left.variables + right.variables, tuple(atoms))


def toposort(parents: Mapping[str, Sequence[str]]) -> tuple[str, ...]:
    """Evaluation order of the mapping's keys; raises ModelError on a cycle.

    Parents that are not keys are inputs fixed from outside (the decision of
    a canonical space) and impose no order.
    """
    graph = {name: [p for p in ps if p in parents] for name, ps in parents.items()}
    try:
        return tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise ModelError(f"cyclic dependencies among {sorted(set(exc.args[1]))}") from None


@dataclass(frozen=True)
class Scm:
    """Recursive structural model over finite domains.

    Construction rejects cyclic dependency structures and partial mechanism
    tables; the topological order is computed once and reused everywhere.
    """

    variables: tuple[VariableRef, ...]
    mechanisms: dict[str, Mechanism]
    exo: ExoDistribution
    order: tuple[str, ...] = field(init=False, compare=False)
    lookup: dict[str, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        refs = tuple(self.variables)
        names = [r.name for r in refs]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate endogenous names: {names}")
        if set(self.mechanisms) != set(names):
            raise ModelError(
                f"mechanisms cover {sorted(self.mechanisms)}, expected {sorted(names)}"
            )
        by_name = {r.name: r for r in refs}
        exo_by_name = {r.name: r for r in self.exo.variables}
        lookup = {}
        for name, mech in self.mechanisms.items():
            if mech.target.name != name or mech.target != by_name[name]:
                raise ModelError(f"mechanism for {name!r} targets {mech.target}")
            for p in mech.parents:
                if p not in by_name:
                    raise ModelError(f"{name!r} has unknown parent {p!r}")
            for e in mech.exo_parents:
                if e not in exo_by_name:
                    raise ModelError(f"{name!r} has unknown exogenous parent {e!r}")
            lookup[name] = self._compile(mech, by_name, exo_by_name)
        object.__setattr__(self, "variables", refs)
        object.__setattr__(self, "mechanisms", dict(self.mechanisms))
        parents = {name: mech.parents for name, mech in self.mechanisms.items()}
        object.__setattr__(self, "order", toposort(parents))
        object.__setattr__(self, "lookup", lookup)

    @staticmethod
    def _compile(mech: Mechanism, by_name, exo_by_name) -> np.ndarray:
        """Check the table is total into the target domain; return its lookup
        array, indexed like the table by parent then exogenous value indices."""
        parent_doms = [by_name[p].domain for p in mech.parents]
        exo_doms = [exo_by_name[e].domain for e in mech.exo_parents]
        flat = []
        for combo in product(*parent_doms, *exo_doms):
            if combo not in mech.table:
                raise ModelError(f"mechanism for {mech.target.name!r} is missing input {combo}")
            out = mech.table[combo]
            if out not in mech.target.domain:
                raise ModelError(
                    f"mechanism for {mech.target.name!r} outputs {out!r} outside domain"
                )
            flat.append(mech.target.domain.index(out))
        array = np.array(flat, dtype=np.intp).reshape([len(d) for d in (*parent_doms, *exo_doms)])
        array.flags.writeable = False
        return array

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.variables)

    def ref(self, name: str) -> VariableRef:
        for r in self.variables:
            if r.name == name:
                return r
        raise InputError(f"no endogenous variable {name!r}")


def _evaluate_units(
    scm: Scm, units: Sequence[np.ndarray], rows: int, iv: Assignment | None = None
) -> dict[str, np.ndarray]:
    """Value-index column of every variable over `rows` exogenous rows under
    do(iv): `units` holds one domain-index column per variable of `scm.exo`,
    in its order.  An intervened variable keeps its value's index; any other
    reads its lookup array at its parents' and exogenous inputs' columns."""
    exo = dict(zip(scm.exo.names, units))
    columns = {
        name: np.full(rows, scm.ref(name).index(value), dtype=np.intp)
        for name, value in (iv or {}).items()
    }
    for name in scm.order:
        if name not in columns:
            mech = scm.mechanisms[name]
            index = (*(columns[p] for p in mech.parents), *(exo[e] for e in mech.exo_parents))
            lookup = scm.lookup[name]
            columns[name] = lookup[index] if index else np.full(rows, lookup[()])
    return columns


def evaluate(scm: Scm, u: Assignment) -> dict[str, Value]:
    """Unique potential response V(u): one row of `_evaluate_units`."""
    for ref in scm.exo.variables:
        if ref.name not in u:
            raise InputError(f"exogenous variable {ref.name!r} unassigned")
    units = [np.array([ref.index(u[ref.name])], dtype=np.intp) for ref in scm.exo.variables]
    columns = _evaluate_units(scm, units, 1)
    return {name: scm.ref(name).domain[columns[name][0]] for name in scm.order}


def submodel(scm: Scm, iv: Assignment) -> Scm:
    """Sub-model under do(x): targeted mechanisms become constants."""
    if not iv:
        return scm
    new = {n: Mechanism.constant(scm.ref(n), v) for n, v in iv.items()}
    return Scm(scm.variables, {**scm.mechanisms, **new}, scm.exo)


def apply_shift(
    scm: Scm, mechanisms: Mapping[str, Mechanism], exo: ExoDistribution | None = None
) -> Scm:
    """The model with the named variables' mechanisms replaced, and `exo`,
    when given, added to the exogenous atoms as an independent block.  Empty
    `mechanisms` return `scm` itself; a name that is not an endogenous
    variable raises."""
    if not mechanisms:
        return scm
    for name in mechanisms:
        scm.ref(name)
    exo = scm.exo if exo is None else ExoDistribution.product(scm.exo, exo)
    return Scm(scm.variables, {**scm.mechanisms, **mechanisms}, exo)


def _pushforward(scm: Scm, refs: tuple[VariableRef, ...], iv: Assignment) -> DistTable:
    """The law of the name-sorted `refs` under do(iv): each exogenous atom's
    mass is added to the cell of its values, in atom order."""
    columns = _evaluate_units(scm, scm.exo._columns, len(scm.exo.atoms), iv)
    # One element per value: `np.array` would give a domain of tuples a second axis.
    values = zip(*(np.fromiter(r.domain, object, len(r.domain))[columns[r.name]] for r in refs))
    common, probs = scm.exo._exact or (None, (p for _, p in scm.exo.atoms))
    cells: dict[tuple[Value, ...], Number] = {}
    for key, p in zip(values, probs):
        cells[key] = cells.get(key, 0) + p
    if common is not None:
        cells = {k: Fraction(n, common) for k, n in cells.items()}
    return DistTable(refs, cells)


def joint_distribution(scm: Scm) -> DistTable:
    """Push the exogenous distribution through the mechanisms."""
    return _pushforward(scm, tuple(scm.ref(n) for n in sorted(scm.names)), {})


def counterfactual_probability(
    scm: Scm,
    events: Sequence[tuple[Assignment, Assignment]],
) -> Number:
    """Probability that every (do(x), partial assignment) event holds jointly.

    Sums P(u) over exogenous atoms whose potential responses satisfy all the
    listed counterfactual events simultaneously.
    """
    holds = np.ones(len(scm.exo.atoms), dtype=bool)
    for iv, event in events:
        columns = _evaluate_units(scm, scm.exo._columns, len(holds), iv)
        for name, value in event.items():
            domain = scm.ref(name).domain
            holds &= columns[name] == (domain.index(value) if value in domain else -1)
    common, probs = scm.exo._exact or (None, (p for _, p in scm.exo.atoms))
    hits = [p for p, ok in zip(probs, holds.tolist()) if ok]
    total = sum(hits, start=0)
    return total if common is None or not hits else Fraction(total, common)


# -- stochastic policies and induced data ---------------------------------


def policy_model(scm: Scm, policy: Policy) -> Scm:
    """Model whose decision variable samples from the policy.

    The policy is encoded through a fresh exogenous block: one independent
    draw of a decision per context cell, so the decision stays a deterministic
    mechanism of (context, fresh noise).
    """
    dname = policy.decision.name
    ref = scm.ref(dname)
    if ref.domain != policy.decision.domain:
        raise InputError(
            f"decision domain mismatch: model {ref.domain} vs policy {policy.decision.domain}"
        )
    ctx_refs = [scm.ref(name) for name in policy.context]
    contexts = list(product(*[r.domain for r in ctx_refs]))
    missing = [ctx for ctx in contexts if ctx not in policy.rows]
    if missing:
        raise InputError(
            f"policy lacks rows for contexts {missing[:3]}"
            + (" ..." if len(missing) > 3 else "")
        )
    choices = list(product(ref.domain, repeat=len(contexts)))

    noise_name = f"U_{dname}"
    while noise_name in scm.exo.names:
        noise_name += "_"
    noise = VariableRef(noise_name, tuple(range(len(choices))))
    atoms = []
    for i, choice in enumerate(choices):
        p: Number = 1
        for ctx, d in zip(contexts, choice):
            p = p * policy.rows[ctx].get(d, 0)
        if p != 0:
            atoms.append(((i,), p))
    exo = ExoDistribution.product(scm.exo, ExoDistribution((noise,), tuple(atoms)))

    position = {ctx: i for i, ctx in enumerate(contexts)}
    table = {
        (*ctx, i): choices[i][position[ctx]]
        for ctx in contexts
        for i in range(len(choices))
    }
    mech = Mechanism(ref, tuple(policy.context), (noise_name,), table)
    return Scm(scm.variables, {**scm.mechanisms, dname: mech}, exo)


def scm_dataset(
    scm: Scm,
    decision: str,
    utility: str = "Y",
    domains: Iterable[tuple[str, Assignment]] = (),
) -> BehaviouralDataset:
    """Per-decision behavioural tables generated by a known model.

    `domains` lists extra (label, intervened assignment) environments whose
    per-decision tables are computed under the corresponding do().
    """
    from .tables import ExperimentalDomain

    dref = scm.ref(decision)
    rest = tuple(scm.ref(n) for n in sorted(scm.names) if n != decision)

    def tables_under(base: Assignment) -> dict[Value, DistTable]:
        return {d: _pushforward(scm, rest, {**base, decision: d}) for d in dref.domain}

    extra = tuple(
        ExperimentalDomain(label, dict(iv), tables_under(iv)) for label, iv in domains
    )
    return BehaviouralDataset(dref, tables_under({}), utility=utility, domains=extra)
