"""Exact tables add as integers: the integer kernel against `sum`.

Seeded tables of every kind the kernel meets: one shared denominator, many
coprime denominators, zero entries, tiny negative entries, `int` entries,
mixed `Fraction`/float entries and a common denominator past 2**63.  Masses,
cells, conditional tables, means, the mass checks of `DistTable` and
`ExoDistribution`, model joints and counterfactual probabilities must be
`==`, of the same type and `repr`-equal to the `sum`-based references in
`support`, or raise the same exception with the same message.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound.errors import InputError
from beliefbound.scm import (
    ExoDistribution,
    Mechanism,
    Scm,
    counterfactual_probability,
    joint_distribution,
)
from beliefbound.tables import (
    SUM_TOL,
    DistTable,
    VariableRef,
    _scan,
    _total,
    expectation,
    query,
)

from support import (
    reference_counterfactual,
    reference_expectation,
    reference_joint,
    reference_prob,
    reference_query,
    reference_scan,
)

A = VariableRef("A", (0, 1, 2))
B = VariableRef("B", ("x", "y"))
Y = VariableRef("Y", (0, 0.5, 1))
REFS = (A, B, Y)
KINDS = ("shared", "coprime", "zeros", "negative", "int", "mixed", "wide")
SEEDS = range(210)
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137)


class Rational(Fraction):
    """A `Fraction` subclass: the kernel leaves such tables to `sum`."""


def random_probs(rng, kind: str, n: int) -> list:
    """`n` probabilities of the given kind that sum to 1 (within `SUM_TOL`
    for the tiny negative kind; one list in eight lands just outside it)."""
    weights = [int(w) for w in rng.integers(1, 30, size=n)]
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    if kind == "coprime":
        probs = [Fraction(int(rng.integers(1, 8)), 4 * PRIMES[i % len(PRIMES)])
                 for i in range(n - 1)]
        probs.append(1 - sum(probs))
    elif kind == "zeros":
        probs = [Fraction(0) if rng.random() < 0.4 else p for p in probs]
        probs[0] += 1 - sum(probs)
    elif kind == "negative" and n > 1:
        tiny = Fraction(int(rng.integers(1, 10)), 10**13)
        probs[0], probs[1] = -tiny, probs[1] + probs[0] + tiny
    elif kind == "int":
        # Ints, or a Fraction subclass beside int zeros.
        probs = [0] * n
        if n > 1 and rng.random() < 0.5:
            probs[0], probs[1] = Fraction(1, 2), Rational(1, 2)
        else:
            probs[int(rng.integers(0, n))] = 1
    elif kind == "mixed":
        probs = [float(p) if rng.random() < 0.5 else p for p in probs]
    elif kind == "wide" and n > 2:
        # Coprime denominators near 2**62 and 2**31: their lcm passes 2**63.
        head = [Fraction(1, 2**62 + 135), Fraction(1, 2**31 - 1)]
        scale = (1 - sum(head)) / sum(probs[2:])
        probs = head + [p * scale for p in probs[2:]]
    if rng.random() < 0.125:
        probs[-1] += Fraction(3, 10**12)
    return probs


def random_table_entries(rng, kind: str) -> dict:
    cells = [k for k in product(*(r.domain for r in REFS)) if rng.random() < 0.6]
    cells = cells or [(0, "x", 0)]
    return dict(zip(cells, random_probs(rng, kind, len(cells))))


def random_event(rng) -> dict:
    event = {}
    if rng.random() < 0.6:
        event["A"] = int(rng.integers(0, 3))
    if rng.random() < 0.5:
        event["B"] = "xy"[int(rng.integers(0, 2))]
    roll = rng.random()
    if roll < 0.05:
        event["Q"] = 0                      # unknown variable
    elif roll < 0.1:
        event["A"] = 7                      # value outside the domain
    return event


def outcome(fn, *args):
    """What a call returns, compared by value, type and `repr`, or what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    if isinstance(result, DistTable):
        result = result.entries
    if isinstance(result, tuple):  # a scan: (mass, cells)
        return ("ok", *(shape(part) for part in result))
    return ("ok", shape(result))


def shape(value):
    if isinstance(value, dict):
        return [(k, type(v), repr(v)) for k, v in value.items()], value
    return type(value), repr(value), value


def table_or_raise(entries: dict) -> DistTable:
    """The `sum` reference of `DistTable`'s mass check, then the table."""
    total = sum(entries.values(), start=0)
    if abs(float(total) - 1.0) > SUM_TOL:
        raise InputError(f"table mass {float(total)} is not 1 within {SUM_TOL}")
    return DistTable(REFS, entries)


@pytest.mark.parametrize("kind", KINDS)
def test_table_algebra_matches_sum(kind):
    built = 0
    for seed in SEEDS[KINDS.index(kind)::len(KINDS)]:
        rng = np.random.default_rng(seed)
        entries = random_table_entries(rng, kind)
        want = outcome(table_or_raise, entries)
        assert outcome(DistTable, REFS, entries) == want, (kind, seed)
        if want[0] == "raised":
            continue
        built += 1
        table = DistTable(REFS, entries)
        assert outcome(_total, table._exact, table.entries.values()) == outcome(
            sum, table.entries.values(), 0
        )
        for _ in range(4):
            event = random_event(rng)
            assert outcome(table.prob, event) == outcome(reference_prob, table, event)
            for target in (None, ["Y"], ["A", "Y"], ["B", "Q"]):
                assert outcome(_scan, table, event, target) == outcome(
                    reference_scan, table, event, target
                ), (kind, seed, event, target)
            for of in ("Y", "A", "B"):
                assert outcome(expectation, table, of, event) == outcome(
                    reference_expectation, table, of, event
                )
            target = [n for n in ("A", "B", "Y") if rng.random() < 0.5]
            assert outcome(query, table, target, event) == outcome(
                reference_query, table, target, event
            )
    assert built > 0


def random_model(rng, kind: str) -> Scm | None:
    """A model Z <- U, Y <- (Z, U) whose exogenous block has probabilities of
    the given kind, or None when that block is rejected as `sum` rejects it."""
    u = VariableRef("U", tuple(range(int(rng.integers(2, 12)))))
    atoms = tuple(((i,), p) for i, p in enumerate(random_probs(rng, kind, len(u.domain))))
    built = outcome(ExoDistribution, (u,), atoms)
    total = sum((p for _, p in atoms), start=0)
    if any(float(p) < 0 for _, p in atoms):
        want = ("raised", InputError,
                f"negative exogenous probability {next(p for _, p in atoms if float(p) < 0)}")
    elif abs(float(total) - 1.0) > SUM_TOL:
        want = ("raised", InputError, f"exogenous mass {float(total)} is not 1 within 1e-12")
    else:
        want = built
    assert built == want
    if built[0] == "raised":
        return None
    z = VariableRef("Z", (0, 1))
    z_out = rng.integers(0, 2, size=len(u.domain))
    y_out = rng.integers(0, 3, size=(2, len(u.domain)))
    mechanisms = {
        "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
        "Y": Mechanism.from_function(
            Y, (z,), (u,), lambda a: Y.domain[y_out[a["Z"], a["U"]]]
        ),
    }
    return Scm((z, Y), mechanisms, ExoDistribution((u,), atoms))


@pytest.mark.parametrize("kind", KINDS)
def test_model_sums_match_sum(kind):
    built = 0
    for seed in SEEDS[KINDS.index(kind)::len(KINDS)]:
        rng = np.random.default_rng(10_000 + seed)
        scm = random_model(rng, kind)
        if scm is None:
            continue
        built += 1
        assert outcome(joint_distribution, scm) == outcome(reference_joint, scm)
        for _ in range(3):
            events = [
                ({} if rng.random() < 0.5 else {"Z": int(rng.integers(0, 2))},
                 {"Y": Y.domain[int(rng.integers(0, 3))]} if rng.random() < 0.7 else {})
                for _ in range(int(rng.integers(1, 3)))
            ]
            if rng.random() < 0.1:
                events.append(({}, {"Y": 7}))  # a value outside the domain: never holds
            assert outcome(counterfactual_probability, scm, events) == outcome(
                reference_counterfactual, scm, events
            ), (kind, seed, events)
    # Exogenous blocks reject every negative atom, tiny or not.
    assert (built > 0) == (kind != "negative")


def test_the_wide_kind_passes_the_limit():
    # Such tables keep `sum`; the others get an integer view.
    rng = np.random.default_rng(0)
    wide = DistTable(REFS, random_table_entries(rng, "wide"))
    assert math.lcm(*(p.denominator for p in wide.entries.values())) >= 2**63
    assert wide._exact is None
    assert DistTable(REFS, random_table_entries(rng, "coprime"))._exact is not None


def test_a_table_holding_a_float_keeps_float_sums():
    # One float entry makes every sum over it a float, added in entry order;
    # an integer view of this table would make the B=x mass Fraction(3, 10).
    table = DistTable(
        (A, B), {(0, "x"): Fraction(1, 10), (1, "x"): 0.2, (2, "y"): Fraction(7, 10)}
    )
    mass, cells = _scan(table, {"B": "x"}, ["B"])
    assert repr(mass) == repr(cells[("x",)]) == "0.30000000000000004"
    assert table._exact is None
