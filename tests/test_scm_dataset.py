"""`scm_dataset` against the marginal of each sub-model's joint.

`scm_dataset` pushes the exogenous atoms straight onto the variables other
than the decision, over index columns built once per exogenous block.  On
seeded exact and float models, with and without experimental domains, under a
shift with its own exogenous block and under a stochastic policy, every
per-decision table must have the reference's keys in the reference's order
and `==`, type- and `repr`-equal values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound.scm import (
    ExoDistribution,
    Mechanism,
    Scm,
    apply_shift,
    counterfactual_probability,
    policy_model,
    scm_dataset,
    submodel,
)
from beliefbound.tables import Policy, VariableRef

from support import reference_counterfactual, reference_scm_dataset

W = VariableRef("W", ("lo", "hi"))
Z = VariableRef("Z", (0, 1))
SEEDS = range(60)
DOMAINS = (("z1", {"Z": 1}), ("w-hi", {"W": "hi"}), ("z0-lo", {"Z": 0, "W": "lo"}))


def _masses(rng, count: int, exact: bool) -> list:
    weights = [int(w) for w in rng.integers(1, 30, size=count)]
    total = sum(weights)
    return [Fraction(w, total) if exact else w / total for w in weights]


def random_model(seed: int, exact: bool) -> Scm:
    """Z <- U1, W <- (Z, U2), D <- (W, U1), Y <- (D, Z, W, U1, U2) over one
    confounded block (U1, U2) with some atoms missing; D has two or three
    values and Y two or three (numeric, within [0, 1])."""
    rng = np.random.default_rng(seed)
    u1 = VariableRef("U1", tuple(range(int(rng.integers(2, 5)))))
    u2 = VariableRef("U2", ("a", "b", "c"))
    keys = [k for k in product(u1.domain, u2.domain) if rng.random() < 0.7] or [(0, "a")]
    exo = ExoDistribution((u1, u2), tuple(zip(keys, _masses(rng, len(keys), exact))))
    d = VariableRef("D", (0, 1) if rng.random() < 0.5 else (0, 1, 2))
    y = VariableRef("Y", (0, 1) if rng.random() < 0.7 else (0, 0.5, 1))

    def draw(ref, parents, exo_parents):
        table = {
            combo: ref.domain[int(rng.integers(0, len(ref.domain)))]
            for combo in product(*(r.domain for r in (*parents, *exo_parents)))
        }
        return Mechanism(ref, [r.name for r in parents], [r.name for r in exo_parents], table)

    mechanisms = {
        "Z": draw(Z, (), (u1,)),
        "W": draw(W, (Z,), (u2,)),
        "D": draw(d, (W,), (u1,)),
        "Y": draw(y, (d, Z, W), (u1, u2)),
    }
    return Scm((d, W, y, Z), mechanisms, exo)


def shifted(scm: Scm, seed: int, exact: bool) -> Scm:
    """W replaced by a mechanism of Z and a fresh coin block."""
    rng = np.random.default_rng(10_000 + seed)
    coin = VariableRef("V", (0, 1))
    block = ExoDistribution((coin,), tuple(zip(((0,), (1,)), _masses(rng, 2, exact))))
    tossed = Mechanism.from_function(
        W, (Z,), (coin,), lambda a: W.domain[a["Z"] ^ a["V"]]
    )
    return apply_shift(scm, {"W": tossed}, block)


def with_policy(scm: Scm, seed: int, exact: bool) -> Scm:
    """The decision drawn from a random policy of W."""
    rng = np.random.default_rng(20_000 + seed)
    dref = scm.ref("D")
    rows = {(w,): dict(zip(dref.domain, _masses(rng, len(dref.domain), exact))) for w in W.domain}
    return policy_model(scm, Policy(dref, ("W",), rows))


def assert_same_tables(got, want) -> None:
    assert got.decision == want.decision and got.utility == want.utility
    assert [(x.label, x.intervened) for x in got.domains] == [
        (x.label, x.intervened) for x in want.domains
    ]
    for have, expected in zip(got.all_domains(), want.all_domains()):
        assert list(have.per_decision) == list(expected.per_decision)
        for d, table in expected.per_decision.items():
            mine = have.per_decision[d]
            assert mine.scope == table.scope
            assert list(mine.entries) == list(table.entries)
            for key, p in table.entries.items():
                q = mine.entries[key]
                assert q == p and type(q) is type(p) and repr(q) == repr(p), (d, key)


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_scm_dataset_matches_the_marginal_of_each_joint(exact):
    for seed in SEEDS:
        base = random_model(seed, exact)
        rng = np.random.default_rng(30_000 + seed)
        domains = [dom for dom in DOMAINS if rng.random() < 0.5]
        for model in (base, shifted(base, seed, exact), with_policy(base, seed, exact)):
            for doms in ((), domains):
                got = scm_dataset(model, "D", domains=doms)
                assert_same_tables(got, reference_scm_dataset(model, "D", domains=doms))


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_counterfactual_probability_matches_one_evaluate_per_atom(exact):
    events = [({"D": 1}, {"Y": 1}), ({"D": 0, "Z": 1}, {"W": "hi"})]
    for seed in range(20):
        model = shifted(random_model(seed, exact), seed, exact)
        got = counterfactual_probability(model, events)
        want = reference_counterfactual(model, events)
        assert got == want and type(got) is type(want) and repr(got) == repr(want)


def test_derived_models_share_read_only_index_columns():
    scm = random_model(3, exact=True)
    columns = scm.exo._columns
    for derived in (
        submodel(scm, {"D": 1}),
        submodel(submodel(scm, {"Z": 0}), {"D": 0}),
        apply_shift(scm, {"Z": Mechanism.constant(Z, 1)}),
    ):
        assert derived.exo is scm.exo
        assert derived.exo._columns is columns
    for j, (ref, column) in enumerate(zip(scm.exo.variables, columns)):
        assert column.dtype == np.intp
        assert column.tolist() == [ref.domain.index(key[j]) for key, _ in scm.exo.atoms]
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    # A new block gets its own columns.
    assert shifted(scm, 3, True).exo._columns is not columns
