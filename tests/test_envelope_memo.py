"""The per-table envelope memo of `bounds._pieces`.

A warm memo must answer thm1, thm2 and both verdicts exactly as a freshly
loaded copy of the same tables does: `repr`- and type-equal values, or the
same exception with the same text.  The questions come in a shuffled order
that mixes reordered context and shift dicts, ``True`` for ``1``, zero-mass
contexts and unhashable values, so later questions hit entries that earlier,
differently written ones stored.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound import bounds, tables
from beliefbound.bounds import _pieces, thm1_gap_interval, thm2_multidomain_lower
from beliefbound.errors import InputError, ZeroMassError
from beliefbound.predictability import strong_verdict, weak_verdict
from beliefbound.tables import BehaviouralDataset, DistTable, ExperimentalDomain, VariableRef

C = VariableRef("C", (0, 1, 2))
W = VariableRef("W", (0, 1))
Z = VariableRef("Z", (0, 1))
Y_DOMAINS = ((0, 1), (0, 0.5), (0.25, 0.5, 1))


def random_dataset(seed: int, exact: bool) -> BehaviouralDataset:
    """2-4 decisions over (C, W, Y, Z) with an experimental do(Z=1) domain;
    about a fifth of the cells are empty, so some contexts have no mass."""
    rng = np.random.default_rng(seed)
    decision = VariableRef("D", tuple(range(int(rng.integers(2, 5)))))
    y = VariableRef("Y", Y_DOMAINS[seed % len(Y_DOMAINS)])
    refs = (C, W, y, Z)
    cells = list(product(*(r.domain for r in refs)))

    def table() -> DistTable:
        weights = [int(w) for w in rng.integers(-4, 20, size=len(cells)).clip(0)]
        weights[-1] += 1
        total = sum(weights)
        return DistTable(refs, {
            k: Fraction(w, total) if exact else w / total for k, w in zip(cells, weights) if w
        })

    base = {d: table() for d in decision.domain}
    domain = ExperimentalDomain("exp", {"Z": 1}, {d: table() for d in decision.domain})
    return BehaviouralDataset(decision, base, domains=(domain,))


def fresh(data: BehaviouralDataset) -> BehaviouralDataset:
    """The dataset with every table rebuilt from its entries: empty memos."""

    def copy(per_decision):
        return {d: DistTable(t.scope, dict(t.entries)) for d, t in per_decision.items()}

    return dataclasses.replace(
        data,
        per_decision=copy(data.per_decision),
        domains=tuple(
            dataclasses.replace(dom, per_decision=copy(dom.per_decision)) for dom in data.domains
        ),
    )


# (c, z) questions: each base question, then the same written another way.
QUESTIONS = [
    ({}, {"Z": 1}),
    ({}, {"Z": 0}),
    ({"Z": 1}, {"Z": 1}),
    ({"Z": True}, {"Z": True}),
    ({"W": 1}, {"Z": 1}),
    ({"W": True}, {"Z": 1.0}),
    ({"C": 2, "W": 0}, {"Z": 1}),
    ({"W": 0, "C": 2}, {"Z": 1}),
    ({"C": 1}, {"Z": 1, "W": 1}),
    ({"C": 1}, {"W": 1, "Z": 1}),
    ({"C": 1}, {"Z": 1}),
    ({"W": [1]}, {"Z": 1}),  # unhashable: computed, never stored
]


def interval(fn, data, c, z, d, d_star):
    """The interval's fields but its digest (a hash of the arguments, which
    the memo does not touch), each as `repr` and type."""
    try:
        iv = fn(data, c, z, d, d_star)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    fields = ("lower", "upper", "raw_lower", "raw_upper", "notes", "tight")
    return [(repr(getattr(iv, f)), type(getattr(iv, f))) for f in fields]


def verdict(run, closed, data, c, z):
    def provider(d, d_star):
        return closed(data, c, z, d, d_star).lower

    try:
        v = run(provider, data.decisions, c)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return repr(v), [type(cert.lower) for cert in v.certificates]


def pieces(data, c, z):
    out = []
    for dom in data.all_domains():
        for d in data.decisions:
            try:
                got = _pieces(dom.per_decision[d], data.utility, c, z)
            except Exception as exc:
                got = ("raised", type(exc), str(exc))
            out.append((repr(got), type(got)))
    return out


def answers(data, c, z):
    """Every memo reader's answer to one (c, z) question."""
    pairs = [(a, b) for a in data.decisions for b in data.decisions if a != b]
    out = [pieces(data, c, z)]
    for closed in (thm1_gap_interval, thm2_multidomain_lower):
        out += [interval(closed, data, c, z, a, b) for a, b in pairs]
        out += [verdict(run, closed, data, c, z) for run in (weak_verdict, strong_verdict)]
    return out


def assert_warm_equals_fresh(data, rng):
    warm = fresh(data)
    asked = [*QUESTIONS, *QUESTIONS]
    rng.shuffle(asked)
    for c, z in asked:
        assert answers(warm, c, z) == answers(fresh(data), c, z), (c, z)
    memo = warm.table(warm.decisions[0])._envelopes
    # One entry per key asked and answered: ``True`` and ``1.0`` share the
    # entry of ``1``, and a reordered dict is a key of its own.
    assert 0 < len(memo) <= 9


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_warm_memo_answers_as_a_fresh_copy(exact):
    rng = np.random.default_rng(7 + exact)
    raised = answered = 0
    for seed in range(40):
        data = random_dataset(seed, exact)
        assert_warm_equals_fresh(data, rng)
        for c, z in QUESTIONS[:7]:
            got = answers(data, c, z)[1]
            raised += got[0] == "raised"
            answered += got[0] != "raised"
    assert raised and answered  # zero-mass contexts as well as answers


def test_warm_memo_answers_as_a_fresh_copy_on_the_fixtures(medai, medai_exp):
    rng = np.random.default_rng(3)
    for data in (medai, medai_exp):
        assert_warm_equals_fresh(data, rng)


def test_zero_mass_raises_the_same_text_twice():
    data = random_dataset(0, exact=True)
    table = data.table(0)
    hole = {k: p for k, p in table.entries.items() if k[0] != 1}
    total = sum(hole.values())
    data = dataclasses.replace(
        data, per_decision={**data.per_decision, 0: DistTable(
            table.scope, {k: p / total for k, p in hole.items()})},
    )
    seen = []
    for _ in range(2):
        with pytest.raises(ZeroMassError) as err:
            thm1_gap_interval(data, {"C": 1}, {"Z": 1}, 0, 1)
        seen.append(str(err.value))
    assert seen[0] == seen[1] == "event {'C': 1, 'Z': 1} has zero probability in the table"
    assert data.table(0)._envelopes == {}


def test_a_verdict_computes_one_envelope_per_table(monkeypatch):
    """4 decisions: the weak verdict's 12 ordered pairs scan each table twice
    (its event with the utility, then the shift), 8 scans where one envelope
    per decision per pair made 48; a thm1 on the same question then scans
    nothing."""
    data = next(
        data for data in (random_dataset(seed, exact=False) for seed in range(100))
        if len(data.decisions) == 4
    )
    scans = []
    original = tables._scan

    def counting(*args, **kwargs):
        scans.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(tables, "_scan", counting)
    monkeypatch.setattr(bounds, "_scan", counting)

    def provider(d, d_star):
        return thm1_gap_interval(data, {"Z": 1}, {"Z": 1}, d, d_star).lower

    weak_verdict(provider, data.decisions, {"Z": 1})
    assert len(scans) == 8
    thm1_gap_interval(data, {"Z": 1}, {"Z": 1}, 3, 0)
    assert len(scans) == 8


@pytest.mark.parametrize("c, z, message", [
    ({"W": [1]}, {"Z": 1}, "value [1] not in domain of 'W' (0, 1)"),
    ({}, {"Z": {1: 2}}, "value {1: 2} not in domain of 'Z' (0, 1)"),
])
def test_an_unhashable_value_raises_the_input_error_unmemoised(c, z, message):
    data = random_dataset(1, exact=False)
    for closed in (thm1_gap_interval, thm2_multidomain_lower):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            closed(data, c, z, 0, 1)
    assert data.table(0)._envelopes == {}


def test_threads_sharing_one_memo_get_the_fresh_answers():
    """Four threads (more than the two cores CI gives) ask the same questions
    of one dataset at a short switch interval: two threads may compute one
    entry and store it twice, but each must read what a fresh copy answers."""
    data = random_dataset(2, exact=True)
    want = [answers(fresh(data), c, z) for c, z in QUESTIONS]
    errors = []

    def ask(order):
        try:
            for c_i in order:
                c, z = QUESTIONS[c_i]
                assert answers(data, c, z) == want[c_i], (c, z)
        except Exception as exc:  # reported after the join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(5)
        threads = [
            threading.Thread(target=ask, args=(rng.permutation(len(QUESTIONS)).tolist(),))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
