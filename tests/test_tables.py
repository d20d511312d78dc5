"""Table algebra, ingestion, and the policy-to-atomic conversion."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbound.errors import InputError, ZeroMassError
from beliefbound.scm import joint_distribution, policy_model, submodel
from beliefbound.tables import (
    DistTable,
    Policy,
    VariableRef,
    estimate_from_samples,
    expectation,
    merge_assignments,
    policy_to_atomic,
    query,
    total_variation,
)

from support import random_behaviour_model

Y = VariableRef("Y", (0, 1))
Z = VariableRef("Z", (0, 1))


def table(cells):
    return DistTable((Y, Z), cells)


def test_query_conditional_fixture(medai):
    assert query(medai.table(1), ["Y"], {"Z": 1}).prob({"Y": 1}) == 1
    assert query(medai.table(0), ["Y"], {"Z": 1}).prob({"Y": 1}) == Fraction(1, 2)


def test_query_identity(medai):
    t = medai.table(0)
    assert query(t, [r.name for r in t.scope]) == t


def test_query_zero_mass_event(medai):
    with pytest.raises(ZeroMassError):
        query(medai.table(1), ["Y"], {"Y": 0, "Z": 1})


def test_expectation_fixture(medai):
    assert expectation(medai.table(1), "Y", {"Z": 1}) == 1
    assert expectation(medai.table(0), "Y") == Fraction(2, 5)


def test_expectation_point_mass():
    t = DistTable((Y,), {(1,): 1})
    assert expectation(t, "Y") == 1


def test_expectation_rejects_symbolic_domain():
    colour = VariableRef("C", ("red", "blue"))
    t = DistTable((colour,), {("red",): 0.5, ("blue",): 0.5})
    with pytest.raises(InputError):
        expectation(t, "C")


def test_expectation_query_consistency():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        t = table({(1, 1): p[0], (1, 0): p[1], (0, 1): p[2], (0, 0): p[3]})
        for given in ({}, {"Z": 1}, {"Z": 0}):
            cond = query(t, ["Y"], given)
            direct = expectation(t, "Y", given)
            assert direct == sum(k[0] * v for k, v in cond.entries.items())


def test_total_variation_basics(medai):
    t = medai.table(1)
    assert total_variation(t, t) == 0
    a = DistTable((Y,), {(0,): 1})
    b = DistTable((Y,), {(1,): 1})
    assert total_variation(a, b) == 1


def test_total_variation_scope_mismatch():
    a = DistTable((Y,), {(0,): 1})
    b = DistTable((Z,), {(0,): 1})
    with pytest.raises(InputError):
        total_variation(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_total_variation_is_a_metric(a, b, c):
    def normalize(w):
        s = sum(w)
        cells = [x / s for x in w]
        return table({(1, 1): cells[0], (1, 0): cells[1], (0, 1): cells[2], (0, 0): cells[3]})

    p, q, r = normalize(a), normalize(b), normalize(c)
    assert abs(total_variation(p, q) - total_variation(q, p)) <= 1e-12
    assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12
    assert 0 <= total_variation(p, q) <= 1


def test_estimate_from_samples_replicates_fixture(medai):
    # Five unit-weight rows mirroring the treated column of the atom table.
    rows = [
        {"Y": 1, "Z": 1},
        {"Y": 1, "Z": 0},
        {"Y": 0, "Z": 0},
        {"Y": 1, "Z": 1},
        {"Y": 0, "Z": 0},
    ]
    est = estimate_from_samples(rows)
    assert est == medai.table(1)


def test_estimate_from_samples_point_mass_and_weights():
    assert estimate_from_samples([{"Y": 1}]).prob({"Y": 1}) == 1
    est = estimate_from_samples([{"Y": 1}, {"Y": 0}], weights=[3, 1])
    assert est.prob({"Y": 1}) == Fraction(3, 4)


def test_estimate_from_samples_errors():
    with pytest.raises(InputError):
        estimate_from_samples([])
    with pytest.raises(InputError):
        estimate_from_samples([{"Y": 1}], weights=[0])


def test_policy_to_atomic_uniform_policy(m1):
    half = Fraction(1, 2)
    policy = Policy(m1.ref("D"), ("Z",), {(z,): {0: half, 1: half} for z in (0, 1)})
    p_pi = joint_distribution(policy_model(m1, policy))
    for d in (0, 1):
        truth = query(joint_distribution(submodel(m1, {"D": d})), ["Y", "Z"])
        assert policy_to_atomic(p_pi, policy, d) == truth


def test_policy_to_atomic_near_deterministic(m1):
    eps = 1e-9
    rows = {
        (z,): {1: 1 - eps, 0: eps} for z in (0, 1)
    }
    policy = Policy(m1.ref("D"), ("Z",), rows)
    p_pi = joint_distribution(policy_model(m1, policy))
    got = policy_to_atomic(p_pi, policy, 1)
    conditional = query(p_pi, ["Y", "Z"], {"D": 1})
    for assignment, _ in got.assignments():
        assert float(got.prob(assignment)) == pytest.approx(
            float(conditional.prob(assignment)), abs=1e-6
        )


def test_policy_to_atomic_positivity_violation(m1):
    policy = Policy(
        m1.ref("D"), ("Z",),
        {(0,): {1: 1, 0: 0}, (1,): {1: 1, 0: 0}},
    )
    p_pi = joint_distribution(policy_model(m1, policy))
    with pytest.raises(ZeroMassError) as err:
        policy_to_atomic(p_pi, policy, 0)
    assert "Z" in str(err.value)


def test_policy_round_trip_random_models():
    rng = np.random.default_rng(123)
    for seed in range(100):
        scm = random_behaviour_model(seed)
        rows = {}
        for z in (0, 1):
            w = rng.dirichlet((2.0, 2.0)) * 0.9 + 0.05
            rows[(z,)] = {0: float(w[0]), 1: float(w[1])}
        policy = Policy(scm.ref("D"), ("Z",), rows)
        p_pi = joint_distribution(policy_model(scm, policy))
        for d in (0, 1):
            truth = query(joint_distribution(submodel(scm, {"D": d})), ["Y", "Z"])
            got = policy_to_atomic(p_pi, policy, d)
            for y in (0, 1):
                for z in (0, 1):
                    cell = {"Y": y, "Z": z}
                    assert abs(float(got.prob(cell)) - float(truth.prob(cell))) <= 1e-9


def test_merge_assignments_conflict():
    assert merge_assignments({"A": 1}, {"B": 2}) == {"A": 1, "B": 2}
    with pytest.raises(InputError):
        merge_assignments({"A": 1}, {"A": 2})


def test_scope_canonicalization_is_name_sorted():
    t = DistTable((Z, Y), {(1, 1): 0.5, (0, 0): 0.5})  # scope given out of order
    assert t.names == ("Y", "Z")
    assert t.prob({"Y": 1, "Z": 1}) == 0.5


def test_dataset_validation(medai):
    from beliefbound.tables import BehaviouralDataset

    with pytest.raises(InputError):
        BehaviouralDataset(VariableRef("D", (0, 1)), {0: medai.table(0)})
    with pytest.raises(InputError):
        BehaviouralDataset(
            VariableRef("D", (0, 1)),
            {0: medai.table(0), 1: medai.table(1)},
            utility="Q",
        )


def test_every_tables_utility_domain_is_checked():
    """A later decision's (or domain's) table with a non-numeric utility is
    rejected at construction, naming the decision and the domain, instead of
    failing later with a TypeError in the bounds that sort the domain."""
    from beliefbound.bounds import harm_gap_interval
    from beliefbound.relaxations import proxy_alignment_lower
    from beliefbound.tables import BehaviouralDataset, ExperimentalDomain

    dref = VariableRef("D", (0, 1))
    good = DistTable((Y,), {(0,): 0.5, (1,): 0.5})
    bad = DistTable((VariableRef("Y", (0, "a")),), {(0,): 0.5, ("a",): 0.5})
    with pytest.raises(InputError, match=r"decision 1 in domain \(base\) lists 'Y' as \(0, 'a'\)"):
        BehaviouralDataset(dref, {0: good, 1: bad})
    with pytest.raises(InputError, match="decision 0 in domain e1 lists 'Y' as"):
        BehaviouralDataset(
            dref, {0: good, 1: good},
            domains=(ExperimentalDomain("e1", {}, {0: bad, 1: good}),),
        )
    nan = float("nan")
    for high in (2, nan):
        above = DistTable((VariableRef("Y", (0, high)),), {(0,): 0.5, (high,): 0.5})
        with pytest.raises(InputError, match=r"decision 1 in domain \(base\) lists 'Y' as"):
            BehaviouralDataset(dref, {0: good, 1: above})
    # The checked dataset still answers both bounds that sort the domain.
    data = BehaviouralDataset(dref, {0: good, 1: good})
    assert harm_gap_interval(data, 1, 0, {}).upper == 0.5
    assert proxy_alignment_lower(data, 1.0, {}, 0, 1) == -0.5


# -- one scope per dataset ----------------------------------------------------

_OTHER_SCOPES = {
    "extra value": (Y, VariableRef("Z", (0, 1, 2))),
    "missing value": (Y, VariableRef("Z", (0,))),
    "reordered values": (Y, VariableRef("Z", (1, 0))),
    "utility domain": (VariableRef("Y", (0, 0.5, 1)), Z),
}


@pytest.mark.parametrize("where", ["base", "e1"])
@pytest.mark.parametrize("kind", sorted(_OTHER_SCOPES))
def test_a_table_listing_other_domains_is_rejected(kind, where):
    """Every table, base or experimental, lists `data.scope` exactly; the
    first other table is named with its variable's two domains."""
    from beliefbound.tables import BehaviouralDataset, ExperimentalDomain

    scope = _OTHER_SCOPES[kind]
    odd = DistTable(scope, {(0, 0): 0.5, (1, 0): 0.5})
    good = table({(0, 0): 0.5, (1, 0): 0.5})
    base = {0: good, 1: odd if where == "base" else good}
    domain = ExperimentalDomain("e1", {}, {0: good, 1: odd if where == "e1" else good})
    got, want = next((r, w) for r, w in zip(odd.scope, good.scope) if r != w)
    label = "(base)" if where == "base" else "e1"
    message = (
        f"table of decision 1 in domain {label} lists {got.name!r} as {got.domain}, "
        f"expected {want.domain}"
    )
    with pytest.raises(InputError) as caught:
        BehaviouralDataset(VariableRef("D", (0, 1)), base, domains=(domain,))
    assert str(caught.value) == message


def test_a_table_over_other_variables_is_rejected():
    from beliefbound.tables import BehaviouralDataset, ExperimentalDomain

    good = table({(0, 0): 0.5, (1, 0): 0.5})
    narrow = DistTable((Y,), {(0,): 0.5, (1,): 0.5})
    domain = ExperimentalDomain("e1", {}, {0: narrow, 1: good})
    with pytest.raises(InputError) as caught:
        BehaviouralDataset(VariableRef("D", (0, 1)), {0: good, 1: good}, domains=(domain,))
    assert str(caught.value) == (
        "table of decision 0 in domain e1 has variables ('Y',), expected ('Y', 'Z')"
    )


def test_a_utility_outside_the_unit_interval_is_rejected_once():
    from beliefbound.tables import BehaviouralDataset

    wide = DistTable((VariableRef("Y", (0, 2)),), {(0,): 0.5, (2,): 0.5})
    with pytest.raises(InputError) as caught:
        BehaviouralDataset(VariableRef("D", (0, 1)), {0: wide, 1: wide})
    assert str(caught.value) == "utility domain (0, 2) must be numeric within [0, 1]"


def test_datasets_that_answered_wrongly_are_rejected_at_construction():
    """Tables that disagree on a domain gave wrong answers when each reader
    took domains from one table: with Y in (0, 1) for decision 0 and
    (0, 0.5, 1) for decision 1, the TV ball at radius 0 read 0.0 where the
    point value is 0.25 (the Y=0.5 mass dropped), the sampler rejected every
    proposal, and the harm interval [0, 0.25] was reported tight; with Z in
    (0, 1, 2) for decision 1, fairness raised for one decision only and the
    oracle reported an infeasible polytope.  Both datasets now fail to load."""
    from beliefbound.tables import BehaviouralDataset

    dref = VariableRef("D", (0, 1))
    y3, z3 = VariableRef("Y", (0, 0.5, 1)), VariableRef("Z", (0, 1, 2))
    with pytest.raises(InputError, match=r"lists 'Y' as \(0, 0\.5, 1\), expected \(0, 1\)"):
        BehaviouralDataset(dref, {
            0: table({(0, 1): 0.5, (1, 1): 0.5}),
            1: DistTable((y3, Z), {(0, 1): 0.5, (0.5, 1): 0.5}),
        })
    with pytest.raises(InputError, match=r"lists 'Z' as \(0, 1, 2\), expected \(0, 1\)"):
        BehaviouralDataset(dref, {
            0: table({(0, 0): 0.5, (1, 1): 0.5}),
            1: DistTable((Y, z3), {(0, 0): 0.5, (1, 2): 0.5}),
        })
