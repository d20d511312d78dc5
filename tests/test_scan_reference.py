"""The one-scan table kernel against one loop per quantity.

Seeded random tables, exact and float, with zero-mass contexts, contexts that
overlap the shift, unknown variables, out-of-domain values and non-numeric
utilities, and tables with tiny negative entries.  Every closed form must give `repr`-equal endpoints, raw ends and
notes, or raise the same exception with the same message, as the reference
loops in `support`.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound import bounds
from beliefbound.errors import InputError
from beliefbound.relaxations import partial_unconfoundedness_interval
from beliefbound.tables import (
    BehaviouralDataset,
    DistTable,
    ExperimentalDomain,
    VariableRef,
    _scan,
    expectation,
    query,
)

from support import (
    reference_direct,
    reference_dist_table,
    reference_expectation,
    reference_pieces,
    reference_prob,
    reference_query,
    reference_scan,
    reference_thm4,
    reference_unconfoundedness,
)

C = VariableRef("C", (0, 1, 2))
S = VariableRef("S", ("lo", "hi"))
W = VariableRef("W", (0, 1))
Z = VariableRef("Z", (0, 1))
DEC = VariableRef("D", (0, 1, 2))
SEEDS = range(40)


def random_table(rng, refs, exact: bool, keep: float = 0.7) -> DistTable:
    """Random table over `refs`; dropped cells make some contexts zero-mass,
    and half the tables have no mass at all where C takes one of its values."""
    hole = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
    cells = [
        k for k in product(*(r.domain for r in refs))
        if rng.random() < keep and k[0] != hole
    ]
    if not cells:
        cells = [tuple(r.domain[0] for r in refs)]
    weights = [int(w) for w in rng.integers(1, 30, size=len(cells))]
    total = sum(weights)
    if exact:
        return DistTable(tuple(refs), {k: Fraction(w, total) for k, w in zip(cells, weights)})
    return DistTable(tuple(refs), {k: w / total for k, w in zip(cells, weights)})


def random_dataset(seed: int, exact: bool) -> BehaviouralDataset:
    rng = np.random.default_rng(seed)
    y = VariableRef("Y", (0, 1) if rng.random() < 0.8 else (0, 0.5, 1))
    refs = (C, S, W, y, Z)
    base = {d: random_table(rng, refs, exact) for d in DEC.domain}
    intervened = {d: random_table(rng, refs, exact) for d in DEC.domain}
    domain = ExperimentalDomain("e1", {"Z": 1}, intervened)
    return BehaviouralDataset(DEC, base, domains=(domain,))


def with_utility(data: BehaviouralDataset, utility: str) -> BehaviouralDataset:
    """The dataset with another utility column, skipping the dataset's checks
    so a non-numeric or unknown utility reaches the closed forms."""
    out = object.__new__(BehaviouralDataset)
    for f in dataclasses.fields(data):
        object.__setattr__(out, f.name, getattr(data, f.name))
    object.__setattr__(out, "utility", utility)
    return out


def random_event(rng, names=("C", "W")) -> dict:
    event = {}
    for name in names:
        if rng.random() < 0.5:
            event[name] = int(rng.integers(0, 3 if name == "C" else 2))
    roll = rng.random()
    if roll < 0.08:
        event["Q"] = 0                      # unknown variable
    elif roll < 0.16:
        event["W"] = 7                      # value outside the domain
    elif roll < 0.3:
        event["Z"] = int(rng.integers(0, 2))  # overlaps the shift
    return event


def outcome(fn, *args):
    try:
        iv = fn(*args)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return tuple(
        repr(getattr(iv, name))
        for name in ("lower", "upper", "raw_lower", "raw_upper", "notes", "tight", "kind")
    )


def scalar_outcome(fn, *args):
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def pair(rng):
    d = int(rng.integers(0, 3))
    ds = int(rng.integers(0, 3)) if rng.random() < 0.1 else (d + int(rng.integers(1, 3))) % 3
    return d, ds


def closed_form_cases(rng, data):
    """(name, new call, reference call) for one random question per form."""
    c = random_event(rng)
    z = {"Z": int(rng.integers(0, 2))}
    if rng.random() < 0.2:
        z["W"] = int(rng.integers(0, 2))
    d, ds = pair(rng)
    exact = isinstance(next(iter(data.table(0).entries.values())), Fraction)
    sigma = random_table(rng, (C, W, Z), exact, keep=0.85)
    c4 = {**random_event(rng, ("C",)), **z} if rng.random() < 0.8 else dict(c)
    attr_c = {k: v for k, v in c.items() if k != "Z"} if rng.random() < 0.9 else dict(c)
    z0 = {"Z": int(rng.integers(0, 2))}
    joint = random_table(rng, (C, DEC, W, data.table(0).ref("Y"), Z), exact)
    zu = {**random_event(rng, ("C",)), "Z": z["Z"]} if rng.random() < 0.8 else dict(z)
    return [
        ("thm1", (bounds.thm1_gap_interval, data, c, z, d, ds), None),
        ("thm2", (bounds.thm2_multidomain_lower, data, c, {"Z": 1, **z}, d, ds), None),
        ("thm4", (bounds.thm4_covariate_shift_lower, data, sigma, c4, z, d, ds),
         (reference_thm4, data, sigma, c4, z, d, ds)),
        ("fairness", (bounds.fairness_gap_interval, data, d, z0, attr_c), None),
        ("harm", (bounds.harm_gap_interval, data, d, ds, c), None),
        ("direct", (bounds.direct_discrimination_interval, data, d, {"Z": 0}, {"Z": 1}, attr_c),
         (reference_direct, data, d, {"Z": 0}, {"Z": 1}, attr_c)),
        ("causal", (bounds.causal_harm_interval, joint, d, ds, c), None),
        ("unconf", (partial_unconfoundedness_interval, data, zu, {"W": 0}, {"W": 1}, d, ds),
         (reference_unconfoundedness, data, zu, {"W": 0}, {"W": 1}, d, ds)),
    ]


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_closed_forms_match_one_loop_per_quantity(exact, monkeypatch):
    seen = {}
    for seed in SEEDS:
        rng = np.random.default_rng(1000 + seed)
        base = random_dataset(seed, exact)
        for data in (base, with_utility(base, "S"), with_utility(base, "Q")):
            for name, new, ref in closed_form_cases(rng, data):
                got = outcome(*new)
                if ref is None:
                    # thm1/thm2 read tables only through `_pieces`, fairness
                    # and harm only through `expectation`, causal harm only
                    # through `prob`.
                    with monkeypatch.context() as m:
                        m.setattr(DistTable, "prob", reference_prob)
                        m.setattr(bounds, "_pieces", reference_pieces)
                        m.setattr(bounds, "expectation", reference_expectation)
                        want = outcome(*new)
                else:
                    want = outcome(*ref)
                assert got == want, (name, seed, new[1:])
                seen.setdefault(name, set()).add(got[0] == "raised")
    # Every form was seen both answering and raising.
    assert all(kinds == {True, False} for kinds in seen.values()), seen


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_table_algebra_matches_one_loop_per_quantity(exact):
    for seed in SEEDS:
        rng = np.random.default_rng(2000 + seed)
        data = random_dataset(seed, exact)
        for table in data.per_decision.values():
            for _ in range(4):
                event = random_event(rng, ("C", "W", "Z"))
                assert scalar_outcome(table.prob, event) == scalar_outcome(
                    reference_prob, table, event
                )
                for of in ("Y", "S", "Q"):
                    assert scalar_outcome(expectation, table, of, event) == scalar_outcome(
                        reference_expectation, table, of, event
                    )
                target = [n for n in ("C", "W", "Y", "Q") if rng.random() < 0.4]
                try:
                    want = reference_query(table, target, event)
                except Exception as exc:
                    with pytest.raises(type(exc)) as caught:
                        query(table, target, event)
                    assert str(caught.value) == str(exc)
                    continue
                got = query(table, target, event)
                assert got == want
                assert got.scope == want.scope
                assert repr(list(got.entries.items())) == repr(list(want.entries.items()))


def test_tiny_negative_entries_raise_as_the_query_table_would():
    """Entries down to -1e-12 are accepted, but a conditional or marginal cell
    below it fails the check `DistTable` makes, as building `query`'s table
    did."""
    y = VariableRef("Y", (0, 1))
    conditional = DistTable(
        (C, y), {(0, 0): -1e-12, (0, 1): 0.05 + 1e-12, (1, 0): 0.5, (2, 1): 0.45}
    )
    marginal = DistTable(
        (C, y), {(0, 0): -8e-13, (1, 0): -8e-13, (0, 1): 0.5, (1, 1): 0.5 + 1.6e-12}
    )
    for table, given in ((conditional, {"C": 0}), (marginal, {})):
        got = scalar_outcome(expectation, table, "Y", given)
        assert got[:2] == ("raised", InputError) and "negative probability" in got[2]
        assert got == scalar_outcome(reference_expectation, table, "Y", given)
    got = scalar_outcome(bounds._pieces, conditional, "Y", {}, {"C": 0})
    assert got[:2] == ("raised", InputError)
    assert got == scalar_outcome(reference_pieces, conditional, "Y", {}, {"C": 0})


def test_marginal_mass_off_by_rounding_raises_as_the_query_table_would():
    """A table whose mass is 1 + 1e-12 to the last ulp: its Y marginal,
    summed in another grouping, lands one ulp outside the tolerance."""
    y = VariableRef("Y", (0, 1))
    masses = [0.22017494306998728, 0.08520283543642329, 0.13387968378081494,
              0.16387642070553174, 0.25509576770893433, 0.1417703492993084]
    table = DistTable((C, y), dict(zip(product(C.domain, y.domain), masses)))
    got = scalar_outcome(expectation, table, "Y", {})
    assert got[:2] == ("raised", InputError) and "is not 1 within" in got[2]
    assert got == scalar_outcome(reference_expectation, table, "Y", {})


# Event values per variable: string values equal to the domain's but not the
# same object, and values of another type equal to an int domain value.
ONE_VARIABLE_EVENTS = {
    "S": ("lo", "hi", "".join(["h", "i"])),
    "W": (0, 1, True, False, 1.0, 0.0),
    "C": (0, 1, 2, 2.0, Fraction(1)),
}


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_one_variable_events_and_targets_match_the_reference(exact):
    targets = (None, [], ["S"], ["W"], ["C"], ["S", "W"], ["W", "C"], ["Q"])
    for seed in SEEDS:
        rng = np.random.default_rng(3000 + seed)
        table = random_table(rng, (C, S, W, Z), exact, keep=0.5)
        for name, values in ONE_VARIABLE_EVENTS.items():
            for value in values:
                for target in targets:
                    got = _scan(table, {name: value}, target)
                    want = reference_scan(table, {name: value}, target)
                    assert repr(got) == repr(want), (seed, name, value, target)
                    assert type(got[0]) is type(want[0])


def test_a_one_variable_event_with_no_hits_is_the_int_zero():
    exact = DistTable((S, W), {("lo", 0): Fraction(1, 3), ("lo", 1): Fraction(2, 3)})
    floats = DistTable((S, W), {("lo", 0): 0.25, ("lo", 1): 0.75})
    for table in (exact, floats):
        for target in (None, ["W"], ["S", "W"]):
            mass, cells = _scan(table, {"S": "hi"}, target)
            assert type(mass) is int and mass == 0 and cells == {}
        assert type(table.prob({"S": "hi"})) is int


class Distinct(tuple):
    """A key equal only to itself: a dict holds it beside the plain tuple of
    the same values, and `tuple()` turns it into that tuple."""

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


def faulty_entries(rng, scope, exact: bool) -> dict:
    """A normalised table over `scope` with up to three faults, mostly on its
    first two entries: wrong arity, an out-of-domain value, a negative entry,
    a key that duplicates another only once both are plain tuples, and values
    of another type equal to an int domain value (not a fault)."""
    keys = [k for k in product(*(r.domain for r in scope)) if rng.random() < 0.8]
    keys = keys or [tuple(r.domain[0] for r in scope)]
    weights = [int(w) for w in rng.integers(1, 30, size=len(keys))]
    total = sum(weights)
    items = [(k, Fraction(w, total) if exact else w / total) for k, w in zip(keys, weights)]
    for fault in rng.choice(["arity", "domain", "negative", "duplicate", "alias"],
                            size=int(rng.integers(0, 4))):
        j = int(rng.integers(0, min(2, len(items))))  # faults pile up on one entry
        key, p = items[j]
        if fault == "arity":
            items.insert(j, (key[:-1] if rng.random() < 0.5 else (*key, 0), p))
        elif fault == "domain":
            at = int(rng.integers(0, len(key)))
            items[j] = ((*key[:at], "zz" if rng.random() < 0.5 else 7, *key[at + 1:]), p)
        elif fault == "negative":
            tiny = rng.random() < 0.3  # within the tolerance: accepted
            if exact:
                items[j] = (key, Fraction(-1, 10**14) if tiny else -p)
            else:
                items[j] = (key, -1e-13 if tiny else -p)
        elif fault == "duplicate":
            items.insert(int(rng.integers(0, len(items) + 1)), (Distinct(key), p))
        else:
            items[j] = (tuple(True if v == 1 else 1.0 if v == 2 else v for v in key), p)
    return dict(items)


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_table_construction_raises_the_reference_first_error(exact):
    def build(make, scope, entries):
        try:
            refs, fixed = make(scope, entries)
        except InputError as exc:
            return ("raised", str(exc))
        return (refs, repr(list(fixed.items())))

    def construct(scope, entries):
        table = DistTable(scope, entries)
        return table.scope, table.entries

    raised, built = set(), 0
    for seed in range(200):
        rng = np.random.default_rng(4000 + seed)
        scope = (Z, C, S) if seed % 2 else (C, S, Z)  # unsorted / sorted
        entries = faulty_entries(rng, scope, exact)
        got = build(construct, scope, entries)
        assert got == build(reference_dist_table, scope, entries), (seed, entries)
        if got[0] == "raised":
            raised.add(got[1].split(" ")[0])
        else:
            built += 1
    # Every fault was seen first at least once, and some tables were built.
    assert {"entry", "value", "negative", "duplicate"} <= raised, raised
    assert built > 0
