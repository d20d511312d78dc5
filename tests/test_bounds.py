"""Closed-form interval formulas and their structural invariants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbound import bounds
from beliefbound.bounds import (
    GapInterval,
    causal_harm_interval,
    digest,
    direct_discrimination_interval,
    fairness_gap_interval,
    harm_gap_interval,
    thm1_gap_interval,
    thm2_multidomain_lower,
    thm3_unknown_shift_interval,
    thm4_covariate_shift_lower,
)
from beliefbound.errors import DataError, InputError, ZeroMassError
from beliefbound.predictability import strong_verdict, weak_verdict
from beliefbound.scm import counterfactual_probability, joint_distribution, scm_dataset, submodel
from beliefbound.tables import BehaviouralDataset, DistTable, VariableRef, expectation

from support import (
    exact_dataset,
    half_utility_dataset,
    random_behaviour_model,
    random_binary_dataset,
    ternary_v_dataset,
)

Z1 = {"Z": 1}
Y = VariableRef("Y", (0, 1))
Z = VariableRef("Z", (0, 1))


def sigma_table(p1) -> DistTable:
    return DistTable((Z,), {(1,): Fraction(p1), (0,): 1 - Fraction(p1)})


# -- known-shift interval ----------------------------------------------------


def test_thm1_fixture_values(medai):
    gap = thm1_gap_interval(medai, Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(-0.4, abs=1e-12)
    assert gap.upper == pytest.approx(0.8, abs=1e-12)
    assert gap.tight and gap.kind == "preference"
    swapped = thm1_gap_interval(medai, Z1, Z1, 0, 1)
    assert swapped.lower == pytest.approx(-0.8, abs=1e-12)
    assert swapped.upper == pytest.approx(0.4, abs=1e-12)


def test_thm1_point_when_shift_value_almost_sure():
    data = exact_dataset({
        0: {(1, 1): Fraction(3, 10), (0, 1): Fraction(7, 10)},
        1: {(1, 1): Fraction(9, 10), (0, 1): Fraction(1, 10)},
    })
    gap = thm1_gap_interval(data, Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(0.6, abs=1e-12)
    assert gap.upper == pytest.approx(0.6, abs=1e-12)


def test_thm1_uniform_tables():
    quarter = Fraction(1, 4)
    data = exact_dataset({
        d: {(y, z): quarter for y in (0, 1) for z in (0, 1)} for d in (0, 1)
    })
    gap = thm1_gap_interval(data, Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(-0.5, abs=1e-12)


def test_thm1_overlapping_context_spellings_agree(medai):
    # Context repeating the shift assignment is merged, not double-counted.
    with_overlap = thm1_gap_interval(medai, {"Z": 1}, Z1, 1, 0)
    plain = thm1_gap_interval(medai, {}, Z1, 1, 0)
    assert with_overlap.lower == plain.lower
    assert with_overlap.upper == plain.upper


def test_thm1_preconditions(medai):
    with pytest.raises(ZeroMassError):
        thm1_gap_interval(medai, {"Y": 0}, Z1, 1, 0)  # P_d1(Y=0, Z=1) = 0
    with pytest.raises(InputError):
        thm1_gap_interval(medai, Z1, Z1, 1, 1)
    with pytest.raises(InputError):
        thm1_gap_interval(medai, {"Z": 0}, Z1, 1, 0)  # conflicting overlap


# -- multi-domain pooling ----------------------------------------------------


def test_thm2_single_empty_domain_reduces_to_thm1(medai):
    pooled = thm2_multidomain_lower(medai, Z1, Z1, 1, 0)
    single = thm1_gap_interval(medai, Z1, Z1, 1, 0)
    assert pooled.lower == pytest.approx(single.lower, abs=1e-12)
    assert pooled.upper == pytest.approx(single.upper, abs=1e-12)
    assert pooled.tight


def test_thm2_experimental_domain_point_identifies(medai_exp):
    pooled = thm2_multidomain_lower(medai_exp, Z1, Z1, 1, 0)
    assert pooled.lower == pytest.approx(0.6, abs=1e-12)
    assert pooled.upper == pytest.approx(0.6, abs=1e-12)
    assert pooled.tight  # two domains


def test_thm2_duplicate_domain_changes_nothing(medai):
    from beliefbound.tables import BehaviouralDataset, ExperimentalDomain

    doubled = BehaviouralDataset(
        medai.decision,
        dict(medai.per_decision),
        utility=medai.utility,
        domains=(ExperimentalDomain("copy", {}, dict(medai.per_decision)),),
    )
    pooled = thm2_multidomain_lower(doubled, Z1, Z1, 1, 0)
    single = thm1_gap_interval(medai, Z1, Z1, 1, 0)
    assert pooled.lower == pytest.approx(single.lower, abs=1e-12)
    assert pooled.upper == pytest.approx(single.upper, abs=1e-12)
    assert pooled.tight  # two domains, still within the proved-tight regime


def test_thm2_rejects_domain_outside_shift(medai_exp):
    with pytest.raises(InputError):
        thm2_multidomain_lower(medai_exp, {}, {}, 1, 0)


def test_thm2_round_off_never_crosses_a_point_identified_zero_gap():
    # Float tables, identical for both decisions: the do(Z=1) domain point-
    # identifies a zero gap, but (0.65 + 1) - 1 rounds below 0.65, so the
    # pooled endpoints cross by an ulp unless the hull is reported.
    from beliefbound.predictability import strong_verdict, weak_verdict
    from beliefbound.tables import BehaviouralDataset, ExperimentalDomain

    decision = VariableRef("D", (0, 1))
    base = DistTable((Y, Z), {(0, 0): 0.2, (1, 0): 0.3, (0, 1): 0.175, (1, 1): 0.325})
    shifted = DistTable((Y, Z), {(0, 0): 0.0, (1, 0): 0.0, (0, 1): 0.35, (1, 1): 0.65})
    data = BehaviouralDataset(
        decision,
        {0: base, 1: base},
        domains=(ExperimentalDomain("exp", dict(Z1), {0: shifted, 1: shifted}),),
    )
    forward = thm2_multidomain_lower(data, Z1, Z1, 1, 0)
    backward = thm2_multidomain_lower(data, Z1, Z1, 0, 1)
    for interval in (forward, backward):
        assert interval.lower <= 0.0 <= interval.upper
        assert interval.raw_lower > interval.raw_upper
        assert (interval.lower, interval.upper) == (interval.raw_upper, interval.raw_lower)
        assert any("round-off" in note for note in interval.notes)
    assert forward.lower == -backward.upper and backward.lower == -forward.upper
    assert not (forward.lower > 0.0 and backward.lower > 0.0)

    def provider(d, d_star):
        return thm2_multidomain_lower(data, Z1, Z1, d, d_star).lower

    assert weak_verdict(provider, data.decisions, Z1).surviving == {0, 1}
    assert strong_verdict(provider, data.decisions, Z1).strong_winner is None


def test_thm2_dominates_thm1_on_random_two_domain_data():
    strict = 0
    checked = 0
    seed = 0
    while checked < 50:
        scm = random_behaviour_model(seed)
        seed += 1
        data = scm_dataset(scm, "D", domains=[("exp", {"Z": 1})])
        try:
            single = thm1_gap_interval(data, Z1, Z1, 1, 0)
            pooled = thm2_multidomain_lower(data, Z1, Z1, 1, 0)
        except ZeroMassError:
            continue
        checked += 1
        assert pooled.lower >= single.lower - 1e-12
        assert pooled.upper <= single.upper + 1e-12
        if pooled.lower > single.lower + 1e-9:
            strict += 1
    assert strict >= 1


# -- unknown shift -----------------------------------------------------------


def test_thm3_is_the_trivial_interval():
    gap = thm3_unknown_shift_interval()
    assert (gap.lower, gap.upper) == (-1.0, 1.0)
    assert gap.tight


# -- covariate-informed shift -------------------------------------------------


def test_thm4_fixture_values(medai):
    gap = thm4_covariate_shift_lower(medai, sigma_table("0.9"), Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(1 - 1.4 / 0.9, abs=1e-12)
    assert -0.56 <= gap.lower <= -0.55
    assert not gap.tight
    swapped = thm4_covariate_shift_lower(medai, sigma_table("0.9"), Z1, Z1, 0, 1)
    assert swapped.lower == pytest.approx(-1.0, abs=1e-12)


def test_thm4_reduces_to_thm1_at_point_mass(medai):
    gap = thm4_covariate_shift_lower(medai, sigma_table(1), Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(-0.4, abs=1e-12)
    swapped = thm4_covariate_shift_lower(medai, sigma_table(1), Z1, Z1, 0, 1)
    assert swapped.lower == pytest.approx(-0.8, abs=1e-12)


def test_thm4_zero_sigma_mass(medai):
    with pytest.raises(ZeroMassError):
        thm4_covariate_shift_lower(medai, sigma_table(0), Z1, Z1, 1, 0)


def test_thm4_upper_is_flagged_as_mirror(medai):
    gap = thm4_covariate_shift_lower(medai, sigma_table("0.9"), Z1, Z1, 1, 0)
    assert any("mirror" in note for note in gap.notes)


def test_thm4_zero_upper_end_is_positive_zero():
    # Both decisions always succeed at Z = 1: the swapped pair's lower end is
    # 0.0, and its mirror must print as 0.0, not -0.0.
    data = exact_dataset({0: {(1, 1): 1}, 1: {(1, 1): 1}})
    gap = thm4_covariate_shift_lower(data, sigma_table(1), Z1, Z1, 1, 0)
    assert (gap.lower, gap.upper) == (0.0, 0.0)
    assert math.copysign(1.0, gap.upper) == 1.0


# -- fairness ----------------------------------------------------------------


def test_fairness_fixture(medai):
    gap = fairness_gap_interval(medai, 1, {"Z": 0}, {})
    assert gap.lower == pytest.approx(-1 / 3, abs=1e-12)
    assert gap.upper == pytest.approx(2 / 3, abs=1e-12)
    assert gap.tight


def test_fairness_extreme_baselines():
    data = exact_dataset({
        0: {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)},
        1: {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)},
    })
    gap = fairness_gap_interval(data, 1, {"Z": 0}, {})
    assert (gap.lower, gap.upper) == (-1.0, 0.0)  # E = 1 at the baseline
    other = fairness_gap_interval(data, 1, {"Z": 1}, {})
    assert (other.lower, other.upper) == (0.0, 1.0)  # E = 0


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
)
def test_fairness_width_exactly_one(pz, py0, py1):
    data = exact_dataset({
        d: {
            (1, 1): Fraction(pz).limit_denominator(997) * Fraction(py1).limit_denominator(991),
            (0, 1): Fraction(pz).limit_denominator(997) * (1 - Fraction(py1).limit_denominator(991)),
            (1, 0): (1 - Fraction(pz).limit_denominator(997)) * Fraction(py0).limit_denominator(991),
            (0, 0): (1 - Fraction(pz).limit_denominator(997)) * (1 - Fraction(py0).limit_denominator(991)),
        }
        for d in (0, 1)
    })
    gap = fairness_gap_interval(data, 1, {"Z": 0}, {})
    assert gap.upper - gap.lower == 1.0


def test_fairness_rejects_attribute_in_context(medai):
    with pytest.raises(InputError):
        fairness_gap_interval(medai, 1, {"Z": 0}, {"Z": 1})


def test_fairness_lower_end_at_the_least_utility_is_positive_zero():
    # E_1[Y | Z=0] = 0 is the utility's least value: the lower end is
    # lo - E = 0.0, where -(E - lo) would be -0.0 and print as "-0.0".
    data = exact_dataset({
        0: {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
        1: {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 4)},
    })
    gap = fairness_gap_interval(data, 1, {"Z": 0}, {})
    assert (gap.lower, gap.upper) == (0.0, 1.0)
    assert math.copysign(1.0, gap.lower) == 1.0


# -- counterfactual harm -------------------------------------------------------


def test_harm_fixture(medai):
    gap = harm_gap_interval(medai, 1, 0, {})
    assert gap.lower == pytest.approx(0.0, abs=1e-12)
    assert gap.upper == pytest.approx(0.4, abs=1e-12)
    assert gap.tight and gap.kind == "harm"


def test_harm_forced_overlap_and_empty_baseline():
    full = exact_dataset({
        0: {(1, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)},
        1: {(1, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)},
    })
    gap = harm_gap_interval(full, 1, 0, {})
    assert (gap.lower, gap.upper) == (1.0, 1.0)
    never = exact_dataset({
        0: {(0, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)},
        1: {(1, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)},
    })
    gap = harm_gap_interval(never, 1, 0, {})
    assert (gap.lower, gap.upper) == (0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_harm_frechet_property(a, b):
    # Directly exercise the envelope and the couplings that achieve it.
    lower = max(0.0, a + b - 1.0)
    upper = min(a, b)
    assert lower <= upper + 1e-12
    # Comonotone coupling achieves the upper end, antitone the lower end.
    como = min(a, b)
    anti = max(0.0, a + b - 1.0)
    assert abs(como - upper) <= 1e-12 and abs(anti - lower) <= 1e-12


def test_harm_rejects_nonbinary_utility():
    half = VariableRef("Y", (0, 1, 2))
    z = VariableRef("Z", (0, 1))
    t = DistTable((half, z), {(0, 0): 0.5, (2, 1): 0.5})
    from beliefbound.tables import BehaviouralDataset

    with pytest.raises(InputError):
        data = BehaviouralDataset(VariableRef("D", (0, 1)), {0: t, 1: t})
        harm_gap_interval(data, 1, 0, {})


# -- direct discrimination ------------------------------------------------------


def test_direct_discrimination_fixture(medai):
    gap = direct_discrimination_interval(medai, 1, {"Z": 0}, {"Z": 1}, {})
    assert gap.lower == pytest.approx(-0.2, abs=1e-12)
    assert gap.upper == pytest.approx(0.8, abs=1e-12)
    assert gap.tight


def test_direct_discrimination_point_mass_attribute():
    data = exact_dataset({
        0: {(1, 1): Fraction(1, 2), (0, 1): Fraction(1, 2)},
        1: {(1, 1): Fraction(3, 4), (0, 1): Fraction(1, 4)},
    })
    with pytest.raises(ZeroMassError):
        # z0 slice carries no mass at all
        direct_discrimination_interval(data, 1, {"Z": 0}, {"Z": 1}, {})


def test_direct_discrimination_symmetric_table():
    m = Fraction(1, 2)
    data = exact_dataset({
        d: {(1, 1): Fraction(1, 4), (0, 1): Fraction(1, 4),
            (1, 0): Fraction(1, 4), (0, 0): Fraction(1, 4)}
        for d in (0, 1)
    })
    gap = direct_discrimination_interval(data, 1, {"Z": 0}, {"Z": 1}, {})
    assert gap.lower == pytest.approx(float(m - 1), abs=1e-12)
    assert gap.upper == pytest.approx(float(1 - m), abs=1e-12)
    assert gap.lower == -gap.upper


@pytest.mark.parametrize("domain", [(0, 1), (0, 0.5), (0.2, 0.7), (0.1, 0.4, 0.9)])
@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_fairness_and_direct_discrimination_contain_the_hidden_truth(domain, exact):
    # Unobserved mass lies anywhere in the utility's range, not in [0, 1]:
    # both intervals must hold the hidden model's counterfactual gap.
    y = VariableRef("Y", domain)
    for seed in range(20):
        scm = random_behaviour_model(seed, y=y)
        data = scm_dataset(scm, "D")
        if not exact:
            data = BehaviouralDataset(data.decision, {
                d: DistTable(t.scope, {k: float(p) for k, p in t.entries.items()})
                for d, t in data.per_decision.items()
            })
        for d in (0, 1):
            for z0, z1 in ((0, 1), (1, 0)):
                mass = counterfactual_probability(scm, [({"D": d}, {"Z": z0})])
                flipped = sum(
                    v * counterfactual_probability(
                        scm, [({"D": d}, {"Z": z0}), ({"D": d, "Z": z1}, {"Y": v})]
                    )
                    for v in domain
                )
                stayed = sum(
                    v * counterfactual_probability(scm, [({"D": d}, {"Z": z0, "Y": v})])
                    for v in domain
                )
                truth = float((flipped - stayed) / mass)
                gap = fairness_gap_interval(data, d, {"Z": z0}, {})
                assert gap.lower - 1e-12 <= truth <= gap.upper + 1e-12, (seed, d, z0)
                assert gap.upper - gap.lower == pytest.approx(max(domain) - min(domain), abs=1e-12)
            means = {
                z: expectation(joint_distribution(submodel(scm, {"D": d, "Z": z})), "Y")
                for z in (0, 1)
            }
            truth = float(means[1] - means[0])
            gap = direct_discrimination_interval(data, d, {"Z": 0}, {"Z": 1}, {})
            assert gap.lower - 1e-12 <= truth <= gap.upper + 1e-12, (seed, d)


# -- a question that fixes the utility ------------------------------------------

YZ1 = {"Y": 1, "Z": 1}

_FIXES_THE_UTILITY = {
    "thm1-shift": lambda data: thm1_gap_interval(data, {}, {"Y": 1}, 1, 0),
    "thm1-context": lambda data: thm1_gap_interval(data, {"Y": 1}, Z1, 1, 0),
    "thm2": lambda data: thm2_multidomain_lower(data, {"Y": 1}, Z1, 1, 0),
    "thm4": lambda data: thm4_covariate_shift_lower(
        data, DistTable((Y, Z), {(1, 1): Fraction(1, 2), (0, 1): Fraction(1, 2)}), YZ1, Z1, 1, 0
    ),
    "fairness-attribute": lambda data: fairness_gap_interval(data, 1, {"Y": 0}, {}),
    "fairness-context": lambda data: fairness_gap_interval(data, 1, {"Z": 1}, {"Y": 1}),
    "harm": lambda data: harm_gap_interval(data, 1, 0, {"Y": 1}),
    "direct-attribute": lambda data: direct_discrimination_interval(
        data, 1, {"Y": 0}, {"Y": 1}, {}
    ),
    "direct-context": lambda data: direct_discrimination_interval(
        data, 1, {"Z": 0}, {"Z": 1}, {"Y": 1}
    ),
}


@pytest.mark.parametrize("form", sorted(_FIXES_THE_UTILITY))
def test_a_question_that_fixes_the_utility_is_refused(medai, form):
    """A shift, context, protected attribute or covariate naming the utility
    fixes the gap by definition; no form may report an interval for it."""
    with pytest.raises(InputError, match="fixes the utility Y="):
        _FIXES_THE_UTILITY[form](medai)


# -- a malformed question: one refusal per rule ----------------------------------

_MALFORMED = {
    "fairness-decision": (
        lambda medai: fairness_gap_interval(medai, 7, {"Z": 0}, {}),
        "decision 7 not in (0, 1)",
    ),
    "fairness-unhashable-decision": (
        lambda medai: fairness_gap_interval(medai, [1], {"Z": 0}, {}),
        "decision [1] not in (0, 1)",
    ),
    "fairness-two-attributes": (
        lambda medai: fairness_gap_interval(ternary_v_dataset(), 1, {"V": 0, "Z": 1}, {}),
        "z0 must assign only the protected attribute",
    ),
    "fairness-binary": (
        lambda medai: fairness_gap_interval(ternary_v_dataset(), 1, {"V": 0}, {}),
        "protected attribute 'V' must be binary, got (0, 1, 2)",
    ),
    "fairness-value": (
        lambda medai: fairness_gap_interval(medai, 1, {"Z": 7}, {}),
        "value 7 not in domain of 'Z' (0, 1)",
    ),
    "fairness-context": (
        lambda medai: fairness_gap_interval(medai, 1, {"Z": 0}, {"Z": 0}),
        "protected attribute 'Z' must not appear in the context",
    ),
    "direct-decision": (
        lambda medai: direct_discrimination_interval(medai, 7, {"Z": 0}, {"Z": 1}, {}),
        "decision 7 not in (0, 1)",
    ),
    "direct-same-single": (
        lambda medai: direct_discrimination_interval(medai, 1, {"Z": 0}, {}, {}),
        "z0 and z1 must assign only the protected attribute",
    ),
    "direct-binary": (
        lambda medai: direct_discrimination_interval(
            ternary_v_dataset(), 1, {"V": 0}, {"V": 1}, {}
        ),
        "protected attribute 'V' must be binary, got (0, 1, 2)",
    ),
    "direct-differ": (
        lambda medai: direct_discrimination_interval(medai, 1, {"Z": 1}, {"Z": 1}, {}),
        "z0 and z1 must differ",
    ),
    "direct-context": (
        lambda medai: direct_discrimination_interval(medai, 1, {"Z": 0}, {"Z": 1}, {"Z": 1}),
        "protected attribute 'Z' must not appear in the context",
    ),
    "harm-binary": (
        lambda medai: harm_gap_interval(half_utility_dataset(), 1, 0, {}),
        "harm bounds need a binary 0/1 utility, got (0, 0.5, 1)",
    ),
    "causal-harm-decision-column": (
        lambda medai: causal_harm_interval(medai.table(1), 1, 0, {}),
        "table lacks the decision column 'D'",
    ),
    "causal-harm-binary": (
        lambda medai: causal_harm_interval(half_utility_dataset().table(1), 1, 0, {}, decision="Z"),
        "causal harm needs a binary 0/1 utility, got (0, 0.5, 1)",
    ),
    "causal-harm-text-utility": (
        lambda medai: causal_harm_interval(
            DistTable((VariableRef("D", (0, 1)), VariableRef("Y", (0, "x"))),
                      {(1, "x"): 0.5, (0, 0): 0.5}), 1, 0, {}
        ),
        "causal harm needs a binary 0/1 utility, got (0, 'x')",
    ),
    "causal-harm-value": (
        lambda medai: causal_harm_interval(
            joint_table(0.3, 0.2, 0.2, 0.3), 1, 0, {}, harm_value=7
        ),
        "harm value 7 outside domain of 'Y'",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_a_malformed_question_gets_its_one_refusal(medai, case):
    call, message = _MALFORMED[case]
    with pytest.raises(InputError) as exc:
        call(medai)
    assert str(exc.value) == message


def test_thm4_crossed_ends_are_a_data_error():
    # P_d(Z=1) = 1 and P_d(c) = 1/100 in both tables, with all of the shifted
    # covariate mass on c: the lower end (0.99) passes the mirrored upper (-0.99).
    w = VariableRef("W", (0, 1))
    table = DistTable((w, Y, Z), {
        (1, 1, 1): Fraction(1, 100), (0, 1, 1): Fraction(49, 100), (0, 0, 1): Fraction(1, 2),
    })
    data = BehaviouralDataset(VariableRef("D", (0, 1)), {0: table, 1: table})
    sigma = DistTable((w, Z), {(1, 1): Fraction(1)})
    with pytest.raises(DataError) as exc:
        thm4_covariate_shift_lower(data, sigma, {"Z": 1, "W": 1}, Z1, 1, 0)
    assert str(exc.value) == (
        "covariate-shift: lower 0.99 exceeds upper -0.99; inputs are mutually inconsistent"
    )


# -- causal harm ------------------------------------------------------------


def joint_table(p11, p10, p01, p00):
    d = VariableRef("D", (0, 1))
    return DistTable(
        (d, Y),
        {(1, 1): p11, (1, 0): p10, (0, 1): p01, (0, 0): p00},
    )


def test_causal_harm_direct_substitution():
    # P_{d1}(y1|c)=0.6, P_{d0}(y0|c)=0.6, P(d1|c)=0.5
    t = joint_table(0.3, 0.2, 0.2, 0.3)
    gap = causal_harm_interval(t, 1, 0, {})
    assert gap.lower == 0.0
    assert gap.upper == pytest.approx(1.0, abs=1e-12)


def test_causal_harm_trivial_ends():
    never = joint_table(0.0, 0.5, 0.2, 0.3)
    assert causal_harm_interval(never, 1, 0, {}).upper == pytest.approx(0.0, abs=1e-12)
    # The printed upper is q_{y1|d1} (1 - P(d1)) / (q_{y0|d0} P(d0)); with a
    # binary decision the policy cancels, so concentrating the policy on d1
    # leaves the raw value at the conditional ratio (clamped into [0, 1]).
    nearly = joint_table(0.049, 0.931, 0.018, 0.002)
    gap = causal_harm_interval(nearly, 1, 0, {})
    ratio = (0.049 / 0.98) / (0.002 / 0.02)
    assert gap.upper == pytest.approx(min(1.0, ratio), abs=1e-12)


def test_causal_harm_notes_the_cancelled_lower():
    t = joint_table(0.3, 0.2, 0.2, 0.3)
    gap = causal_harm_interval(t, 1, 0, {})
    assert any("cancels" in note for note in gap.notes)


def test_causal_harm_zero_denominator():
    t = joint_table(0.5, 0.2, 0.3, 0.0)
    with pytest.raises(ZeroMassError):
        causal_harm_interval(t, 1, 0, {})


# -- interval plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "raw_lower, raw_upper, lo, ends",
    [
        (-0.5, 0.5, -1.0, (-0.5, 0.5, None, None, ("own",))),
        (-1.0, 1.0, -1.0, (-1.0, 1.0, None, None, ("own",))),
        (-1.5, 0.5, -1.0, (-1.0, 0.5, -1.5, None, ("own", "lower clamped from -1.5"))),
        (-0.5, 1.25, -1.0, (-0.5, 1.0, None, 1.25, ("own", "upper clamped from 1.25"))),
        (-1.5, 1.25, -1.0, (-1.0, 1.0, -1.5, 1.25,
                            ("own", "lower clamped from -1.5", "upper clamped from 1.25"))),
        (0.0, 0.5, 0, (0.0, 0.5, None, None, ("own",))),
        (-0.25, 2.5, 0, (0, 1.0, -0.25, 2.5,
                         ("own", "lower clamped from -0.25", "upper clamped from 2.5"))),
    ],
)
def test_clamped_reports_each_end_the_clamp_moved(raw_lower, raw_upper, lo, ends):
    notes = ["own"]
    got = bounds._clamped(raw_lower, raw_upper, notes, lo=lo)
    keys = ("lower", "upper", "raw_lower", "raw_upper", "notes")
    assert tuple(got[k] for k in keys) == ends
    assert [repr(got[k]) for k in keys] == [repr(v) for v in ends]  # 0.0 stays a float
    assert notes == ["own"]  # the form's list is not extended in place
    GapInterval(kind="causal-harm" if lo == 0 else "preference", theorem="t", tight=False,
                inputs_digest="x", **got)


def test_gap_interval_validation():
    with pytest.raises(DataError):
        GapInterval(0.5, -0.5, "preference", "t", True, "x")
    with pytest.raises(InputError):
        GapInterval(-2.0, 0.0, "preference", "t", True, "x")
    with pytest.raises(InputError):
        GapInterval(0.0, 0.5, "nonsense", "t", True, "x")
    with pytest.raises(InputError):
        GapInterval(-0.5, 0.5, "harm", "t", True, "x")


def test_gap_interval_takes_a_digest_or_a_payload():
    gap = GapInterval(-0.5, 0.5, "preference", "t", True, "x")
    assert gap == GapInterval(-0.5, 0.5, "preference", "t", True, inputs_digest="x")
    assert gap.inputs_digest == "x" and gap.as_dict()["inputs_digest"] == "x"
    assert gap != GapInterval(-0.5, 0.5, "preference", "t", True, "y")
    lazy = GapInterval(-0.5, 0.5, "preference", "t", True, {"op": "t"})
    assert lazy.inputs_digest == digest({"op": "t"})
    assert "inputs_digest='" + digest({"op": "t"}) + "'" in repr(lazy)
    assert "'op'" not in repr(lazy)  # the payload never shows
    with pytest.raises(TypeError):
        GapInterval(-0.5, 0.5, "preference", "t", True)  # still required


def test_verdicts_never_compute_a_digest(medai, medai_exp, monkeypatch):
    def refuse(payload):
        raise AssertionError("digest computed")

    monkeypatch.setattr(bounds, "digest", refuse)
    for data in (medai, medai_exp):
        for thm in (thm1_gap_interval, thm2_multidomain_lower):
            def provider(d, d_star):
                return thm(data, {}, Z1, d, d_star).lower

            assert weak_verdict(provider, data.decisions, {}, 0.0).surviving
            assert strong_verdict(provider, data.decisions, {}, 0.0).mode == "strong"


def test_digest_read_late_equals_the_eager_digest(medai, medai_exp):
    sigma = sigma_table(Fraction(3, 5))
    joint = joint_table(0.3, 0.2, 0.1, 0.4)
    tables = {str(k): v for k, v in medai.per_decision.items()}
    cases = [
        (thm1_gap_interval(medai, {}, Z1, 1, 0),
         {"op": "thm1", "c": {}, "z": Z1, "d": 1, "d_star": 0, "tables": tables}),
        (thm2_multidomain_lower(medai_exp, {}, Z1, 1, 0),
         {"op": "thm2", "c": {}, "z": Z1, "d": 1, "d_star": 0, "domains": ["", "do_z1"]}),
        (thm3_unknown_shift_interval(), {"op": "thm3"}),
        (thm4_covariate_shift_lower(medai, sigma, Z1, Z1, 1, 0),
         {"op": "thm4", "c": Z1, "z": Z1, "d": 1, "d_star": 0, "sigma": sigma}),
        (fairness_gap_interval(medai, 1, {"Z": 0}, {}),
         {"op": "fairness", "d": 1, "z0": {"Z": 0}, "c": {}}),
        (harm_gap_interval(medai, 1, 0, {}), {"op": "harm", "d": 1, "d0": 0, "c": {}}),
        (direct_discrimination_interval(medai, 1, {"Z": 0}, {"Z": 1}, {}),
         {"op": "direct", "d": 1, "z0": {"Z": 0}, "z1": {"Z": 1}, "c": {}}),
        (causal_harm_interval(joint, 1, 0, {}),
         {"op": "causal-harm", "d1": 1, "d0": 0, "c": {}, "table": joint}),
    ]
    for gap, payload in cases:
        assert gap.as_dict()["inputs_digest"] == digest(payload), gap.theorem


def test_interval_ranges_hold_on_random_data():
    for seed in range(30):
        data = random_binary_dataset(seed)
        for (d, ds) in ((1, 0), (0, 1)):
            gap = thm1_gap_interval(data, Z1, Z1, d, ds)
            assert -1 - 1e-9 <= gap.lower <= gap.upper <= 1 + 1e-9
            harm = harm_gap_interval(data, d, ds, {})
            assert 0 <= harm.lower <= harm.upper <= 1
