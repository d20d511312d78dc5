"""Verdict logic and its soundness against hidden generating models."""

from __future__ import annotations

import numpy as np
import pytest

from beliefbound.bounds import thm1_gap_interval, thm2_multidomain_lower, thm3_unknown_shift_interval
from beliefbound.errors import InputError, ProviderError, ZeroMassError
from beliefbound.predictability import strong_verdict, weak_verdict
from beliefbound.scm import joint_distribution, scm_dataset, submodel
from beliefbound.tables import expectation

from support import random_behaviour_model

Z1 = {"Z": 1}


def thm1_provider(data):
    return lambda d, d_star: thm1_gap_interval(data, Z1, Z1, d, d_star).lower


def thm2_provider(data):
    return lambda d, d_star: thm2_multidomain_lower(data, Z1, Z1, d, d_star).lower


def test_weak_nothing_ruled_out_on_base_fixture(medai):
    verdict = weak_verdict(thm1_provider(medai), medai.decisions, Z1)
    assert verdict.ruled_out == frozenset()
    assert verdict.surviving == frozenset({0, 1})
    assert verdict.strong_winner is None


def test_weak_rules_out_baseline_with_experiment(medai_exp):
    verdict = weak_verdict(thm2_provider(medai_exp), medai_exp.decisions, Z1)
    assert verdict.ruled_out == frozenset({0})
    assert verdict.certificates[0].preferred == 1
    assert verdict.certificates[0].lower == pytest.approx(0.6, abs=1e-12)
    assert verdict.strong_winner == 1  # binary decision set: weak implies strong


def test_margin_above_gap_blocks_ruling_out(medai_exp):
    verdict = weak_verdict(thm2_provider(medai_exp), medai_exp.decisions, Z1, lam=0.7)
    assert verdict.ruled_out == frozenset()


def test_tie_at_margin_does_not_rule_out(medai_exp):
    verdict = weak_verdict(thm2_provider(medai_exp), medai_exp.decisions, Z1, lam=0.6)
    assert verdict.ruled_out == frozenset()


def test_strong_winner_with_experiment(medai_exp):
    verdict = strong_verdict(thm2_provider(medai_exp), medai_exp.decisions, Z1)
    assert verdict.strong_winner == 1
    assert verdict.ruled_out == frozenset({0})
    assert verdict.surviving == frozenset({1})


def test_strong_no_winner_on_base_fixture(medai):
    verdict = strong_verdict(thm1_provider(medai), medai.decisions, Z1)
    assert verdict.strong_winner is None
    assert verdict.surviving == frozenset({0, 1})


def test_unknown_shift_never_yields_a_winner(medai, medai_exp):
    provider = lambda d, d_star: thm3_unknown_shift_interval().lower
    for data in (medai, medai_exp):
        assert weak_verdict(provider, data.decisions, Z1).ruled_out == frozenset()
        assert strong_verdict(provider, data.decisions, Z1).strong_winner is None


def test_lambda_monotonicity_random_providers():
    # Random valid providers: each pair has a gap g, and each order's lower
    # bound sits below its own gap (g and -g), so no pair is certified both
    # ways (the verdicts reject a provider that does that).
    rng = np.random.default_rng(11)
    decisions = (0, 1, 2)
    narrowed = 0
    for _ in range(40):
        values = {}
        for d, s in [(0, 1), (0, 2), (1, 2)]:
            gap = float(rng.uniform(-1, 1))
            values[d, s] = gap - float(rng.uniform(0, 1))
            values[s, d] = -gap - float(rng.uniform(0, 1))
        provider = lambda d, s, v=values: v[(d, s)]
        lam1, lam2 = sorted(rng.uniform(0.0, 1.0, size=2))
        big = weak_verdict(provider, decisions, lam=float(lam2)).ruled_out
        small = weak_verdict(provider, decisions, lam=float(lam1)).ruled_out
        assert big <= small
        narrowed += big < small
    assert narrowed >= 10  # the larger margin does rule out less


def test_strong_implies_weak_shape():
    # winner must leave exactly the rival set ruled out
    provider = lambda d, s: 0.3 if d == "a" else -1.0
    verdict = strong_verdict(provider, ("a", "b", "c"))
    assert verdict.strong_winner == "a"
    assert verdict.ruled_out == frozenset({"b", "c"})
    assert verdict.surviving == frozenset({"a"})


def test_soundness_against_hidden_models():
    checked = 0
    seed = 0
    while checked < 100:
        scm = random_behaviour_model(seed)
        seed += 1
        data = scm_dataset(scm, "D")
        provider = thm1_provider(data)
        try:
            verdict = weak_verdict(provider, data.decisions, Z1)
        except ProviderError:
            continue  # positivity precondition failed; not a grounded-fixture case
        checked += 1
        means = {
            d: float(expectation(joint_distribution(submodel(scm, {"D": d, "Z": 1})), "Y"))
            for d in data.decisions
        }
        top = max(means.values())
        optima = {d for d, value in means.items() if value >= top - 1e-12}
        assert not (verdict.ruled_out & optima), (seed - 1, means, verdict)


def test_provider_failure_carries_pair_identity(medai):
    def broken(d, d_star):
        raise ZeroMassError("boom")

    with pytest.raises(ProviderError) as err:
        weak_verdict(broken, medai.decisions, Z1)
    assert "d_star" in str(err.value)


def test_input_validation(medai):
    provider = thm1_provider(medai)
    with pytest.raises(InputError):
        weak_verdict(provider, (1,), Z1)
    with pytest.raises(InputError):
        weak_verdict(provider, (0, 1), Z1, lam=-0.1)


@pytest.mark.parametrize("verdict", [weak_verdict, strong_verdict])
@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_margin_must_be_finite(medai, verdict, lam):
    with pytest.raises(InputError, match=f"^margin must be a finite number >= 0, got {lam}$"):
        verdict(thm1_provider(medai), medai.decisions, Z1, lam)


def test_inconsistent_mutual_winners_rejected():
    provider = lambda d, s: 1.0  # every pair "certified" both ways
    with pytest.raises(ProviderError):
        strong_verdict(provider, (0, 1))


@pytest.mark.parametrize("verdict", [weak_verdict, strong_verdict])
def test_a_nan_lower_bound_is_a_provider_error(verdict):
    # NaN > lam is false, so a NaN used to certify nothing without a word.
    provider = lambda d, s: float("nan") if (d, s) == (1, 0) else -0.5
    with pytest.raises(
        ProviderError, match=r"^gap-lower provider returned NaN for pair \(d=1, d_star=0\)$"
    ):
        verdict(provider, (0, 1, 2))


@pytest.mark.parametrize("verdict", [weak_verdict, strong_verdict])
@pytest.mark.parametrize("value", [1.0, float("inf")])
def test_a_pair_certified_both_ways_is_a_provider_error(verdict, value):
    # The weak verdict used to rule out both decisions of such a pair.
    provider = lambda d, s: value
    with pytest.raises(ProviderError, match=r"^bound provider certifies mutually dominant "
                       r"decisions \[0, 1\]; valid gap bounds cannot do that$"):
        verdict(provider, (0, 1))


def test_weak_verdict_names_the_pair_certified_both_ways():
    provider = lambda d, s: 0.2 if {d, s} == {"b", "c"} else -0.1
    with pytest.raises(ProviderError, match=r"decisions \['b', 'c'\]"):
        weak_verdict(provider, ("a", "b", "c"))
