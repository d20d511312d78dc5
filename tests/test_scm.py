"""Model engine: evaluation, sub-models, shifts, joint and counterfactual laws."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from beliefbound.errors import InputError, ModelError
from beliefbound.scm import (
    ExoDistribution,
    Mechanism,
    Scm,
    apply_shift,
    counterfactual_probability,
    evaluate,
    joint_distribution,
    policy_model,
    scm_dataset,
    submodel,
)
from beliefbound.tables import Policy, VariableRef, total_variation

from support import assert_lookups_compiled_once, random_behaviour_model

FIFTH = Fraction(1, 5)


def test_evaluate_fixture_rows(m1):
    assert evaluate(submodel(m1, {"D": 1}), {"U": 4}) == {"D": 1, "Z": 1, "Y": 1}
    assert evaluate(submodel(m1, {"D": 0}), {"U": 5}) == {"D": 0, "Z": 0, "Y": 0}


def test_evaluate_constant_mechanism():
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", (0,))
    scm = Scm(
        (y,),
        {"Y": Mechanism.constant(y, 1)},
        ExoDistribution((u,), (((0,), 1),)),
    )
    assert evaluate(scm, {"U": 0}) == {"Y": 1}


def test_evaluate_missing_exogenous(m1):
    with pytest.raises(InputError):
        evaluate(m1, {})


def test_submodel_replaces_only_target(m1):
    sub = submodel(m1, {"Z": 1})
    assert sub.mechanisms["Z"].table == {(): 1}
    assert sub.mechanisms["Y"] == m1.mechanisms["Y"]
    assert sub.exo == m1.exo


def test_submodel_empty_is_identity(m1):
    assert submodel(m1, {}) is m1
    assert submodel(m1, {}) is m1


def test_submodel_rejects_bad_value(m1):
    with pytest.raises(InputError, match=r"^value 7 not in domain of 'Z' \(0, 1\)$"):
        submodel(m1, {"Z": 7})


def test_exogenous_value_outside_its_domain_is_refused():
    u = VariableRef("U", (0, 1))
    with pytest.raises(InputError, match=r"^value 2 not in domain of 'U' \(0, 1\)$"):
        ExoDistribution((u,), (((0,), 0.5), ((2,), 0.5)))


def test_queries_reject_a_bad_intervention_value(m1):
    message = r"^value 7 not in domain of 'Z' \(0, 1\)$"
    with pytest.raises(InputError, match=message):
        counterfactual_probability(m1, [({"Z": 7}, {"Y": 1})])
    with pytest.raises(InputError, match=message):
        scm_dataset(m1, "D", domains=[("exp", {"Z": 7})])
    with pytest.raises(InputError, match=r"^no endogenous variable 'Q'$"):
        counterfactual_probability(m1, [({"Q": 0}, {"Y": 1})])


def test_model_queries_build_no_model(m1, m2, monkeypatch):
    """do(x) holds x's value indices in the kernel: no query builds an `Scm`."""
    built = []
    init = Scm.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Scm, "__post_init__", counted)
    for model in (m1, m2):
        scm_dataset(model, "D", domains=[("exp", {"Z": 1}), ("both", {"Z": 0, "Y": 1})])
        counterfactual_probability(model, [({"D": 1}, {"Y": 1}), ({"D": 0, "Z": 1}, {"Y": 0})])
        joint_distribution(model)
    assert built == []


@pytest.mark.parametrize("name", ["lookup", "order"])
def test_scm_takes_no_precompiled_arrays(m1, name):
    """Every model compiles and checks its own mechanisms."""
    with pytest.raises(TypeError):
        Scm(m1.variables, m1.mechanisms, m1.exo, **{name: getattr(m1, name)})


def test_joint_distribution_fixture_values(m1, m2):
    assert joint_distribution(submodel(m1, {"D": 1})).prob({"Z": 1, "Y": 1}) == Fraction(2, 5)
    assert joint_distribution(submodel(m1, {"D": 1, "Z": 1})).prob({"Y": 1}) == Fraction(4, 5)
    assert joint_distribution(submodel(m2, {"D": 0, "Z": 1})).prob({"Y": 1}) == Fraction(4, 5)


def test_joint_distribution_normalized_random():
    for seed in range(20):
        scm = random_behaviour_model(seed)
        total = sum(joint_distribution(scm).entries.values())
        assert abs(float(total) - 1.0) <= 1e-12


def test_counterfactual_probability_fixture(m1):
    assert counterfactual_probability(m1, [({"D": 1, "Z": 1}, {"Y": 1})]) == Fraction(4, 5)
    # Joint cross-world event, from enumerating the five exogenous atoms.
    joint = counterfactual_probability(m1, [({"D": 0}, {"Y": 1}), ({"D": 1}, {"Y": 0})])
    assert joint == FIFTH


def test_effectiveness_axiom(m1):
    for z in (0, 1):
        assert counterfactual_probability(m1, [({"Z": z}, {"Z": z})]) == 1
    for seed in range(10):
        scm = random_behaviour_model(seed)
        assert counterfactual_probability(scm, [({"Z": 1, "D": 0}, {"Z": 1, "D": 0})]) == 1


def test_composition_axiom_random_models():
    rng = np.random.default_rng(5)
    for seed in range(25):
        scm = random_behaviour_model(seed)
        x = {"D": int(rng.integers(0, 2))}
        sub = submodel(scm, x)
        for u, _ in scm.exo.assignments():
            values = evaluate(sub, u)
            w = {"Z": values["Z"]}
            again = evaluate(submodel(scm, {**x, **w}), u)
            assert again == values


def test_apply_shift_constant_equals_intervention(m1):
    z = m1.ref("Z")
    shifted = apply_shift(m1, {"Z": Mechanism.constant(z, 1)})
    sub = submodel(m1, {"Z": 1})
    assert shifted.mechanisms["Z"].table == sub.mechanisms["Z"].table
    assert joint_distribution(shifted) == joint_distribution(sub)


def test_apply_shift_bernoulli_block(m1):
    z = m1.ref("Z")
    coin = VariableRef("U_shift", (0, 1))
    block = ExoDistribution((coin,), (((1,), Fraction(9, 10)), ((0,), Fraction(1, 10))))
    tossed = Mechanism.from_function(z, (), (coin,), lambda a: a["U_shift"])
    shifted = apply_shift(m1, {"Z": tossed}, exo=block)
    assert joint_distribution(shifted).prob({"Z": 1}) == Fraction(9, 10)


def test_apply_shift_empty_is_identity(m1):
    assert apply_shift(m1, {}) is m1


def test_apply_shift_unknown_variable_rejected(m1):
    z = m1.ref("Z")
    with pytest.raises(InputError, match="no endogenous variable 'Q'"):
        apply_shift(m1, {"Q": Mechanism.constant(z, 1)})


def test_apply_shift_cyclic_result_rejected(m1):
    z = m1.ref("Z")
    y = m1.ref("Y")
    looped = Mechanism.from_function(z, (y,), (), lambda a: a["Y"])
    with pytest.raises(ModelError):
        apply_shift(m1, {"Z": looped})


def test_cyclic_model_rejected():
    a = VariableRef("A", (0, 1))
    b = VariableRef("B", (0, 1))
    u = VariableRef("U", (0,))
    mechanisms = {
        "A": Mechanism(a, ("B",), (), {(0,): 0, (1,): 1}),
        "B": Mechanism(b, ("A",), (), {(0,): 0, (1,): 1}),
    }
    with pytest.raises(ModelError):
        Scm((a, b), mechanisms, ExoDistribution((u,), (((0,), 1),)))


def test_partial_mechanism_rejected():
    a = VariableRef("A", (0, 1))
    u = VariableRef("U", (0, 1))
    with pytest.raises(ModelError):
        Scm(
            (a,),
            {"A": Mechanism(a, (), (u.name,), {(0,): 0})},
            ExoDistribution((u,), (((0,), 0.5), ((1,), 0.5))),
        )


def test_observational_equivalence_of_variants(m1, m2):
    from beliefbound.scm import scm_dataset

    left = scm_dataset(m1, "D")
    right = scm_dataset(m2, "D")
    for d in (0, 1):
        assert total_variation(left.table(d), right.table(d)) == 0


def test_variant_optima_disagree_under_clamp(m1, m2):
    def mean(scm, d):
        return joint_distribution(submodel(scm, {"D": d, "Z": 1})).prob({"Y": 1})

    assert mean(m1, 1) > mean(m1, 0)
    assert mean(m2, 1) < mean(m2, 0)


def test_interventions_compose_with_product_blocks():
    # Two independent exogenous blocks, one per variable, with confounding off.
    x = VariableRef("X", (0, 1))
    y = VariableRef("Y", (0, 1))
    ux = VariableRef("UX", (0, 1))
    uy = VariableRef("UY", (0, 1))
    exo = ExoDistribution.product(
        ExoDistribution((ux,), (((0,), 0.3), ((1,), 0.7))),
        ExoDistribution((uy,), (((0,), 0.6), ((1,), 0.4))),
    )
    mechanisms = {
        "X": Mechanism.from_function(x, (), (ux,), lambda a: a["UX"]),
        "Y": Mechanism.from_function(y, (x,), (uy,), lambda a: a["X"] ^ a["UY"]),
    }
    scm = Scm((x, y), mechanisms, exo)
    assert abs(float(joint_distribution(submodel(scm, {"X": 1})).prob({"Y": 1})) - 0.6) < 1e-12


def test_derived_models_reuse_lookups_that_match_a_fresh_compile(m1, m2):
    coin = VariableRef("U_shift", (0, 1))
    block = ExoDistribution((coin,), (((1,), Fraction(9, 10)), ((0,), Fraction(1, 10))))
    for base in (m1, m2, *(random_behaviour_model(seed) for seed in range(5))):
        z = base.ref("Z")
        tossed = Mechanism.from_function(z, (), (coin,), lambda a: a["U_shift"])
        rows = {(0,): {0: FIFTH, 1: 1 - FIFTH}, (1,): {0: 1, 1: 0}}
        derived = [
            submodel(base, {"Z": 1}),
            submodel(base, {"D": 1, "Z": 0}),
            submodel(submodel(base, {"Z": 0}), {"D": 0}),
            apply_shift(base, {"Z": Mechanism.constant(z, 1)}),
            apply_shift(base, {"Z": tossed}, block),
            policy_model(base, Policy(base.ref("D"), ("Z",), rows)),
        ]
        for model in derived:
            assert_lookups_compiled_once(model, domains=[("exp", {"Z": 1})])
        assert_lookups_compiled_once(base)


@pytest.mark.parametrize("zero", [0.0, Fraction(0)], ids=["float", "fraction"])
def test_product_drops_zero_probability_atoms(zero):
    a = ExoDistribution((VariableRef("A", (0, 1, 2)),),
                        (((0,), 0.25), ((1,), zero), ((2,), 0.75)))
    b = ExoDistribution((VariableRef("B", (0, 1)),), (((0,), zero), ((1,), 1.0)))
    assert ExoDistribution.product(a, b).atoms == (((0, 1), 0.25), ((2, 1), 0.75))


def test_exact_atoms_below_the_float_range_are_kept(m1):
    """An exact atom whose float is 0.0 is not a zero atom: products and
    policy blocks keep it, and the mass stays exactly 1."""
    tiny = Fraction(1, 10**400)
    a = ExoDistribution((VariableRef("A", (0, 1)),), (((0,), 1 - tiny), ((1,), tiny)))
    half = Fraction(1, 2)
    coin = ExoDistribution((VariableRef("B", (0, 1)),), (((0,), half), ((1,), half)))
    both = ExoDistribution.product(a, coin)
    assert len(both.atoms) == 4
    assert sum(p for _, p in both.atoms) == 1
    rows = {(): {0: 1 - tiny, 1: tiny}}
    model = policy_model(m1, Policy(m1.ref("D"), (), rows))
    assert len(model.exo.atoms) == 2 * len(m1.exo.atoms)
    assert sum(p for _, p in model.exo.atoms) == 1


def test_tuple_valued_variables_keep_their_values_in_every_query():
    """A domain of tuples is one value per tuple: the joint law, the data and
    the counterfactual probability all key X by (0, 0) and (1, 1)."""
    d, u, y = VariableRef("D", (0, 1)), VariableRef("U", (0, 1)), VariableRef("Y", (0, 1))
    x = VariableRef("X", ((0, 0), (1, 1)))
    quarter = Fraction(1, 4)
    model = Scm(
        (d, x, y),
        {
            "D": Mechanism(d, (), ("U",), {(0,): 0, (1,): 1}),
            "X": Mechanism(x, ("D",), (), {(0,): (0, 0), (1,): (1, 1)}),
            "Y": Mechanism(y, ("X",), (), {((0, 0),): 0, ((1, 1),): 1}),
        },
        ExoDistribution((u,), (((0,), quarter), ((1,), 1 - quarter))),
    )
    joint = {(0, (0, 0), 0): quarter, (1, (1, 1), 1): 1 - quarter}
    assert joint_distribution(model).entries == joint
    data = scm_dataset(model, "D", domains=[("exp", {"X": (0, 0)})])
    assert data.table(1).entries == {((1, 1), 1): 1}
    assert data.domains[0].per_decision[1].entries == {((0, 0), 0): 1}
    assert counterfactual_probability(model, [({}, {"X": (1, 1)})]) == 1 - quarter
