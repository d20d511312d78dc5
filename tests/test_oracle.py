"""Polytope oracle: certification of closed forms and witness constructions."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound.bounds import thm1_gap_interval
from beliefbound.errors import (
    AtomLimitError,
    DataError,
    InputError,
    ModelError,
    OracleError,
    UnsupportedError,
)
from beliefbound import lp
from beliefbound.oracle import (
    _gap_classes,
    _kept_space,
    _refined_start,
    _solve_gap,
    _vertex,
    CanonicalAtomSpace,
    ResponseTypeTable,
    SkeletonVariable,
    atom_limit,
    build_polytope,
    canonical_zy_table,
    feasible_scm,
    optimize_gap,
    unknown_shift_witnesses,
    witness_thm1_scm,
)
from beliefbound.scm import (
    ExoDistribution,
    Mechanism,
    Scm,
    joint_distribution,
    scm_dataset,
    submodel,
)
from beliefbound.tables import (
    BehaviouralDataset,
    DistTable,
    ExperimentalDomain,
    VariableRef,
    expectation,
    query,
    total_variation,
)

from support import (
    assert_lookups_compiled_once,
    exact_dataset,
    k_valued_shift_dataset,
    random_behaviour_model,
    random_binary_dataset,
    reference_atoms,
    reference_charnes_cooper,
    reference_classes,
    reference_columns,
    reference_exo,
    reference_gap,
    reference_objective_terms,
    reference_program,
    reference_tables,
    wide_skeleton_dataset,
    wyz_dataset,
)

Z1 = {"Z": 1}
SKELETON = [SkeletonVariable("Z", (0, 1)), SkeletonVariable("Y", (0, 1), ("D", "Z"))]


def medai_polytope(medai):
    return build_polytope(medai, SKELETON)


# -- canonical space ----------------------------------------------------------


def test_response_type_counts(medai):
    space = CanonicalAtomSpace(medai.decision, SKELETON)
    assert space.counts["Z"] == 2
    assert space.counts["Y"] == 16
    assert space.dimension == 32


def test_single_variable_space():
    d = VariableRef("D", (0,))
    space = CanonicalAtomSpace(d, [SkeletonVariable("Y", (0, 1))])
    assert space.dimension == 2


def test_atom_limit_guard(medai, monkeypatch):
    with pytest.raises(AtomLimitError):
        CanonicalAtomSpace(medai.decision, SKELETON, limit=16)
    monkeypatch.setenv("BELIEFBOUND_ATOM_LIMIT", "16")
    with pytest.raises(AtomLimitError):
        CanonicalAtomSpace(medai.decision, SKELETON)
    monkeypatch.setenv("BELIEFBOUND_ATOM_LIMIT", "1e6")
    assert CanonicalAtomSpace(medai.decision, SKELETON).dimension == 32


def test_atom_limit_compares_int_caps_as_ints():
    """Caps of 2**1024 and more overflow `float()`; they are compared as ints."""
    assert atom_limit(10**400) == 10**400
    assert atom_limit(str(10**400)) == 10**400
    assert atom_limit("1e6") == 1_000_000
    data, skeleton = wide_skeleton_dataset(3)
    assert build_polytope(data, skeleton, limit=10**400).space.dimension == 2 * 4**3 * 2**32


@pytest.mark.parametrize("padding", ["", " "])
def test_atom_limit_reads_a_cap_of_any_number_of_digits(padding):
    """`int()` refuses a string past Python's int-string digit limit (4,300
    digits by default); such a cap is still a positive integer."""
    raw = padding + "1" * 5000 + padding
    assert atom_limit(raw) == (10**5000 - 1) // 9
    with pytest.raises(InputError, match="must be a positive integer"):
        atom_limit("1" * 5000 + "e1")


def test_cyclic_skeleton_rejected(medai):
    skeleton = [
        SkeletonVariable("W", (0, 1), ("Z",)),
        SkeletonVariable("Z", (0, 1), ("W",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    with pytest.raises(ModelError):
        CanonicalAtomSpace(medai.decision, skeleton)


def reference_evaluate(skeleton, decision, atom, d, intervention):
    """One atom's potential response, straight from the response-type definition."""
    variables = sorted(skeleton, key=lambda v: v.name)
    domains = {v.name: v.domain for v in variables}
    domains[decision.name] = decision.domain
    values = {decision.name: d}
    while len(values) <= len(variables):
        for i, v in enumerate(variables):
            if v.name in values or any(p not in values for p in v.parents):
                continue
            if v.name in intervention:
                values[v.name] = intervention[v.name]
                continue
            combos = list(product(*[domains[p] for p in v.parents]))
            response = list(product(v.domain, repeat=len(combos)))[atom[i]]
            values[v.name] = response[combos.index(tuple(values[p] for p in v.parents))]
    del values[decision.name]
    return values


def chained_dataset(seed, sizes):
    """Data from a random model with Z -> W -> Y <- D and a do(Z=1) domain."""
    rng = np.random.default_rng(seed)
    d = VariableRef("D", (0, 1))
    z, w = (VariableRef(n, tuple(range(sizes[n]))) for n in "ZW")
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(6)))
    weights = [int(w) for w in rng.integers(1, 9, size=6)]
    z_out = rng.integers(0, sizes["Z"], size=6)
    w_out = rng.integers(0, sizes["W"], size=(sizes["Z"], 6))
    y_out = rng.integers(0, 2, size=(2, sizes["W"], 6))
    model = Scm(
        (d, w, y, z),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
            "W": Mechanism.from_function(w, (z,), (u,), lambda a: int(w_out[a["Z"], a["U"]])),
            "Y": Mechanism.from_function(
                y, (d, w), (u,), lambda a: int(y_out[a["D"], a["W"], a["U"]])
            ),
        },
        ExoDistribution(
            (u,), tuple(((i,), Fraction(w, sum(weights))) for i, w in enumerate(weights))
        ),
    )
    skeleton = [
        SkeletonVariable("Z", z.domain),
        SkeletonVariable("W", w.domain, ("Z",)),
        SkeletonVariable("Y", y.domain, ("D", "W")),
    ]
    return scm_dataset(model, "D", domains=[("exp", Z1)]), skeleton


@pytest.mark.parametrize("sizes", [{"Z": 3, "W": 2}, {"Z": 2, "W": 3}])
def test_vectorised_build_matches_per_atom_reference(sizes):
    for seed in range(2):
        data, skeleton = chained_dataset(seed, sizes)
        poly = build_polytope(data, skeleton)
        space = poly.space
        atoms = reference_atoms(space)
        names = [v.name for v in space.variables]
        rows = []
        for dom in data.all_domains():
            for d in data.decisions:
                evaluated = [
                    reference_evaluate(skeleton, data.decision, a, d, dom.intervened)
                    for a in atoms
                ]
                for cell in product(*[v.domain for v in space.variables]):
                    assignment = dict(zip(names, cell))
                    rows.append([1.0 if ev == assignment else 0.0 for ev in evaluated])
        rows.append([1.0] * len(atoms))
        assert np.array_equal(poly.a_eq, np.array(rows))
        for c in (Z1, {"W": 1}, {"Z": 1, "W": 0}):
            num, den, degenerate = reference_objective_terms(poly, Z1, c, 1, 0)
            want_num, want_den = [], []
            for a in atoms:
                ev1 = reference_evaluate(skeleton, data.decision, a, 1, Z1)
                ev0 = reference_evaluate(skeleton, data.decision, a, 0, Z1)
                sat = 1.0 if all(ev1[k] == v for k, v in c.items()) else 0.0
                want_num.append((float(ev1["Y"]) - float(ev0["Y"])) * sat)
                want_den.append(sat)
            assert np.array_equal(num, np.array(want_num))
            assert np.array_equal(den, np.array(want_den))
            # The walk's classes carry their first atom's coefficients.
            gap = _gap_classes(poly, Z1, c, 1, 0)
            first = gap_first_atoms(poly, num, den, degenerate)
            assert np.array_equal(gap.num, num[first])
            assert (gap.den is None) == degenerate
            assert degenerate or np.array_equal(gap.den, den[first])
        for a in atoms[:: max(1, len(atoms) // 50)]:
            assert space.evaluate(a, 1, Z1) == reference_evaluate(
                skeleton, data.decision, a, 1, Z1
            )


@pytest.mark.parametrize("intervention", [Z1, {"W": 1}])
@pytest.mark.parametrize("sizes", [{"Z": 3, "W": 2}, {"Z": 2, "W": 3}])
def test_digit_rule_matches_the_reference_on_every_atom(sizes, intervention):
    """`atom_cells` and `evaluate` agree with the response-type definition on
    every atom, under do(Z=1) and under do(W=1) on the chain's middle variable."""
    data, skeleton = chained_dataset(0, sizes)
    space = build_polytope(data, skeleton).space
    shape = [len(v.domain) for v in space.variables]
    for d in data.decisions:
        columns = reference_columns(space, d, intervention)
        cells = np.ravel_multi_index([columns[v.name] for v in space.variables], shape)
        assert np.array_equal(space.atom_cells(space._fixed(d, intervention)), cells)
        for a in reference_atoms(space):
            assert space.evaluate(a, d, intervention) == reference_evaluate(
                skeleton, data.decision, a, d, intervention
            )


def test_evaluate_reads_classes_past_any_fixed_width_index():
    """On the k = 5 wide skeleton (7e41 atoms; Y's response index has 128
    bits) `evaluate` of each class's first atom gives the walk's values in
    every block."""
    data, skeleton = wide_skeleton_dataset(5)
    poly = build_polytope(data, skeleton, limit=2**200)
    space = poly.space
    first, values = space.walk(poly.blocks)
    settings = [(d, dom.intervened) for dom in data.all_domains() for d in data.decisions]
    assert len(first) == 256 and len(settings) == len(poly.blocks)
    for j, atom in enumerate(first):
        for b, (d, intervention) in enumerate(settings):
            want = {
                name: space.refs[name].domain[values[j, space._slot[name], b]]
                for name in space.order
            }
            assert space.evaluate(space.responses(atom), d, intervention) == want


# -- polytope -----------------------------------------------------------------


def scatter(poly, first, x):
    """Class values `x` put on their first atoms of an atom-length zero vector."""
    out = np.zeros(poly.space.dimension)
    out[first] = x
    return out


def charnes_cooper_gap(poly, z, c, d, d_star, direction):
    """The gap by the per-atom Charnes-Cooper program, solved by `lp.solve_lp`."""
    cost, a_eq, b_eq, sign = reference_charnes_cooper(poly, z, c, d, d_star, direction)
    return sign * math.fsum((cost * lp.solve_lp(cost, a_eq, b_eq).x).tolist())


def gap_first_atoms(poly, num, den, degenerate):
    """First atom of each of a gap's classes, by the per-atom reference."""
    of_atom = reference_program(poly)[2]
    return reference_classes([of_atom, num] if degenerate else [of_atom, num, den])[1]


def vertex(poly):
    """The atom-probability vector of the vertex phase one ended on."""
    return scatter(poly, poly.first, _vertex(poly))


def test_polytope_rows_and_feasibility(medai):
    poly = medai_polytope(medai)
    assert poly.a_eq.shape == (9, 32)  # 2 decisions x 4 cells + mass row
    x = vertex(poly)
    assert np.all(x >= -1e-9)
    assert abs(x.sum() - 1.0) <= 1e-9


def test_single_binary_variable_feasibility():
    d = VariableRef("D", (0,))
    y = VariableRef("Y", (0, 1))
    table = DistTable((y,), {(1,): 0.3, (0,): 0.7})
    data = BehaviouralDataset(d, {0: table})
    poly = build_polytope(data, [SkeletonVariable("Y", (0, 1))])
    x = vertex(poly)
    assert x[1] == pytest.approx(0.3, abs=1e-9)  # constant-success atom mass


def test_inconsistent_tables_rejected():
    # Decision-dependent Z marginal cannot come from a D-independent Z root.
    data = exact_dataset({
        0: {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)},
        1: {(1, 1): Fraction(1, 4), (0, 0): Fraction(3, 4)},
    })
    with pytest.raises(DataError):
        build_polytope(data, SKELETON)


def test_table_lacking_a_skeleton_value_rejected():
    """A table whose domain lacks a value of the skeleton's is malformed, not
    a table with zero mass at that value."""
    y, z = VariableRef("Y", (0, 1)), VariableRef("Z", (0, 1))
    tables = {
        0: DistTable((y, z), {(1, 1): 0.5, (0, 0): 0.5}),
        1: DistTable((y, VariableRef("Z", (0,))), {(1, 0): 1.0}),
    }
    with pytest.raises(InputError, match=r"decision 1 in domain \(base\) lists 'Z' as \(0,\)"):
        build_polytope(BehaviouralDataset(VariableRef("D", (0, 1)), tables), SKELETON)


# -- gap optimization ---------------------------------------------------------


def test_lp_matches_fixture_ends(medai):
    poly = medai_polytope(medai)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "min") == pytest.approx(-0.4, abs=1e-9)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "max") == pytest.approx(0.8, abs=1e-9)
    assert optimize_gap(poly, Z1, Z1, 0, 1, "min") == pytest.approx(-0.8, abs=1e-9)


def test_lp_uniform_tables_match_closed_form():
    quarter = Fraction(1, 4)
    data = exact_dataset({
        d: {(y, z): quarter for y in (0, 1) for z in (0, 1)} for d in (0, 1)
    })
    poly = build_polytope(data, SKELETON)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "min") == pytest.approx(-0.5, abs=1e-9)


def test_lp_certifies_thm1_on_random_datasets():
    for seed in range(50):
        data = random_binary_dataset(seed)
        poly = build_polytope(data, SKELETON)
        closed = thm1_gap_interval(data, Z1, Z1, 1, 0)
        assert optimize_gap(poly, Z1, Z1, 1, 0, "min") == pytest.approx(
            closed.lower, abs=1e-9
        )
        assert optimize_gap(poly, Z1, Z1, 1, 0, "max") == pytest.approx(
            closed.upper, abs=1e-9
        )


def test_lp_with_decision_dependent_marginals():
    # A decision-responsive Z needs the richer skeleton; the closed form
    # still matches the exact optimum there.
    tables = {
        0: DistTable(
            (VariableRef("Y", (0, 1)), VariableRef("Z", (0, 1))),
            {(1, 1): 0.2, (0, 1): 0.2, (1, 0): 0.3, (0, 0): 0.3},
        ),
        1: DistTable(
            (VariableRef("Y", (0, 1)), VariableRef("Z", (0, 1))),
            {(1, 1): 0.4, (0, 1): 0.3, (1, 0): 0.2, (0, 0): 0.1},
        ),
    }
    data = BehaviouralDataset(VariableRef("D", (0, 1)), tables)
    skeleton = [
        SkeletonVariable("Z", (0, 1), ("D",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    poly = build_polytope(data, skeleton)
    closed = thm1_gap_interval(data, Z1, Z1, 1, 0)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "min") == pytest.approx(closed.lower, abs=1e-9)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "max") == pytest.approx(closed.upper, abs=1e-9)


def test_conditional_context_reduction_matches_closed_form():
    # Third variable C between Z and Y; conditioning on C=1 exercises the
    # fractional-program reduction.
    rng = np.random.default_rng(7)
    d = VariableRef("D", (0, 1))
    z = VariableRef("Z", (0, 1))
    cvar = VariableRef("C", (0, 1))
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(8)))
    weights = rng.integers(1, 9, size=8)
    probs = [Fraction(int(w), int(weights.sum())) for w in weights]
    z_out = rng.integers(0, 2, size=8)
    z_out[0], z_out[1] = 0, 1
    c_out = rng.integers(0, 2, size=(2, 8))
    c_out[0, 2], c_out[1, 2] = 1, 1
    y_out = rng.integers(0, 2, size=(2, 2, 2, 8))
    scm = Scm(
        (d, z, cvar, y),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
            "C": Mechanism.from_function(
                cvar, (z,), (u,), lambda a: int(c_out[a["Z"], a["U"]])
            ),
            "Y": Mechanism.from_function(
                y, (d, z, cvar), (u,),
                lambda a: int(y_out[a["D"], a["Z"], a["C"], a["U"]]),
            ),
        },
        ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs))),
    )
    data = scm_dataset(scm, "D")
    skeleton = [
        SkeletonVariable("Z", (0, 1)),
        SkeletonVariable("C", (0, 1), ("Z",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z", "C")),
    ]
    poly = build_polytope(data, skeleton)
    closed = thm1_gap_interval(data, {"C": 1}, Z1, 1, 0)
    assert optimize_gap(poly, Z1, {"C": 1}, 1, 0, "min") == pytest.approx(
        closed.lower, abs=1e-9
    )
    assert optimize_gap(poly, Z1, {"C": 1}, 1, 0, "max") == pytest.approx(
        closed.upper, abs=1e-9
    )


def test_context_value_outside_its_domain_is_an_input_error():
    data, skeleton = chained_dataset(0, {"Z": 2, "W": 2})
    poly = build_polytope(data, skeleton)
    with pytest.raises(InputError, match=r"^value 7 not in domain of 'W' \(0, 1\)$"):
        optimize_gap(poly, Z1, {"W": 7}, 1, 0, "min")


def test_experimental_domain_constraints_certify_pooling(medai_exp):
    # With the do(Z=1) domain in the polytope, the LP point-identifies the
    # gap at the pooled bound's value: multi-domain tightness for two domains.
    poly = build_polytope(medai_exp, SKELETON)
    assert poly.a_eq.shape == (17, 32)  # 2 domains x 8 cells + mass row
    assert optimize_gap(poly, Z1, Z1, 1, 0, "min") == pytest.approx(0.6, abs=1e-9)
    assert optimize_gap(poly, Z1, Z1, 1, 0, "max") == pytest.approx(0.6, abs=1e-9)


def test_experimental_domains_tighten_random_polytopes():
    from beliefbound.bounds import thm2_multidomain_lower
    from beliefbound.scm import scm_dataset as make_dataset
    from beliefbound.errors import ZeroMassError
    from support import random_behaviour_model

    checked = 0
    seed = 0
    while checked < 15:
        scm = random_behaviour_model(seed)
        seed += 1
        data = make_dataset(scm, "D", domains=[("exp", {"Z": 1})])
        try:
            pooled = thm2_multidomain_lower(data, Z1, Z1, 1, 0)
        except ZeroMassError:
            continue
        checked += 1
        poly = build_polytope(data, SKELETON)
        lp_min = optimize_gap(poly, Z1, Z1, 1, 0, "min")
        lp_max = optimize_gap(poly, Z1, Z1, 1, 0, "max")
        # The closed form is valid for every model in the constrained
        # polytope, and proved tight for two domains.
        assert lp_min == pytest.approx(pooled.lower, abs=1e-9)
        assert lp_max == pytest.approx(pooled.upper, abs=1e-9)


def test_conditional_sandwich_on_random_feasible_points():
    # Fractional objective values of random feasible models must sit between
    # the reported conditional optima.
    rng = np.random.default_rng(31)
    d = VariableRef("D", (0, 1))
    z = VariableRef("Z", (0, 1))
    cvar = VariableRef("C", (0, 1))
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(7)))
    weights = rng.integers(1, 9, size=7)
    probs = [Fraction(int(w), int(weights.sum())) for w in weights]
    z_out = rng.integers(0, 2, size=7)
    z_out[0], z_out[1] = 0, 1
    c_out = rng.integers(0, 2, size=(2, 7))
    c_out[1, 0], c_out[1, 1] = 1, 1
    y_out = rng.integers(0, 2, size=(2, 2, 2, 7))
    model = Scm(
        (d, z, cvar, y),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
            "C": Mechanism.from_function(
                cvar, (z,), (u,), lambda a: int(c_out[a["Z"], a["U"]])
            ),
            "Y": Mechanism.from_function(
                y, (d, z, cvar), (u,),
                lambda a: int(y_out[a["D"], a["Z"], a["C"], a["U"]]),
            ),
        },
        ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs))),
    )
    data = scm_dataset(model, "D")
    skeleton = [
        SkeletonVariable("Z", (0, 1)),
        SkeletonVariable("C", (0, 1), ("Z",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z", "C")),
    ]
    poly = build_polytope(data, skeleton)
    low = optimize_gap(poly, Z1, {"C": 1}, 1, 0, "min")
    high = optimize_gap(poly, Z1, {"C": 1}, 1, 0, "max")
    space = poly.space
    num, den = [], []
    for atom in reference_atoms(space):
        ev1 = space.evaluate(atom, 1, Z1)
        ev0 = space.evaluate(atom, 0, Z1)
        sat = 1.0 if ev1["C"] == 1 else 0.0
        num.append((float(ev1["Y"]) - float(ev0["Y"])) * sat)
        den.append(sat)
    num, den = np.array(num), np.array(den)
    a_eq, b_eq = reference_program(poly)[:2]
    for _ in range(60):
        q = lp.solve_lp(rng.uniform(-1, 1, size=space.dimension), a_eq, b_eq).x
        mass = float(den @ q)
        if mass <= 1e-9:
            continue
        value = float(num @ q) / mass
        assert low - 1e-9 <= value <= high + 1e-9


def test_three_valued_shift_variable_matches_closed_form():
    rng = np.random.default_rng(13)
    d = VariableRef("D", (0, 1))
    z3 = VariableRef("Z", (0, 1, 2))
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(9)))
    weights = rng.integers(1, 9, size=9)
    probs = [Fraction(int(w), int(weights.sum())) for w in weights]
    z_out = rng.integers(0, 3, size=9)
    z_out[0], z_out[1], z_out[2] = 0, 1, 2
    y_out = rng.integers(0, 2, size=(2, 3, 9))
    model = Scm(
        (d, z3, y),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z3, (), (u,), lambda a: int(z_out[a["U"]])),
            "Y": Mechanism.from_function(
                y, (d, z3), (u,), lambda a: int(y_out[a["D"], a["Z"], a["U"]])
            ),
        },
        ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs))),
    )
    data = scm_dataset(model, "D")
    skeleton = [
        SkeletonVariable("Z", (0, 1, 2)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    poly = build_polytope(data, skeleton)
    assert poly.space.dimension == 3 * 2 ** 6
    for target in (0, 1, 2):
        query_z = {"Z": target}
        closed = thm1_gap_interval(data, query_z, query_z, 1, 0)
        assert optimize_gap(poly, query_z, query_z, 1, 0, "min") == pytest.approx(
            closed.lower, abs=1e-9
        )
        assert optimize_gap(poly, query_z, query_z, 1, 0, "max") == pytest.approx(
            closed.upper, abs=1e-9
        )


def test_decision_ancestral_context_refused(medai):
    skeleton = [
        SkeletonVariable("Z", (0, 1), ("D",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    poly = build_polytope(medai, skeleton)
    with pytest.raises(UnsupportedError):
        optimize_gap(poly, {}, Z1, 1, 0, "min")


def test_sandwich_soundness_random_feasible_points(medai):
    poly = medai_polytope(medai)
    low = optimize_gap(poly, Z1, Z1, 1, 0, "min")
    high = optimize_gap(poly, Z1, Z1, 1, 0, "max")
    rng = np.random.default_rng(17)
    space = poly.space
    weights = []
    for atom in reference_atoms(space):
        ev1 = space.evaluate(atom, 1, Z1)
        ev0 = space.evaluate(atom, 0, Z1)
        weights.append(float(ev1["Y"]) - float(ev0["Y"]))
    weights = np.array(weights)
    a_eq, b_eq = reference_program(poly)[:2]
    for _ in range(100):
        x = lp.solve_lp(rng.uniform(-1, 1, size=space.dimension), a_eq, b_eq).x
        value = float(weights @ x)
        assert low - 1e-9 <= value <= high + 1e-9


@pytest.mark.parametrize("sizes", [{"Z": 3, "W": 2}, {"Z": 2, "W": 3}])
@pytest.mark.parametrize("with_domain", [False, True])
def test_merged_columns_match_per_atom_program(sizes, with_domain):
    """Bland's rule pivots a class of identical columns as it pivots the
    class's first atom, so values, points and witnesses equal those of the
    per-atom program exactly; a conditional value is also within 1e-12 of the
    per-atom Charnes-Cooper program's."""
    for seed in range(2):
        data, skeleton = chained_dataset(seed, sizes)
        if not with_domain:
            data = dataclasses.replace(data, domains=())
        poly = build_polytope(data, skeleton)
        a_eq, b_eq = reference_program(poly)[:2]
        for c in (Z1, {"W": 1}):
            num, den, degenerate = reference_objective_terms(poly, Z1, c, 1, 0)
            gap = _gap_classes(poly, Z1, c, 1, 0)
            first = gap_first_atoms(poly, num, den, degenerate)
            for sign, direction in ((1.0, "min"), (-1.0, "max")):
                value, want = reference_gap(poly, Z1, c, 1, 0, direction)
                got = _solve_gap(poly, gap, sign * gap.num)
                assert repr(optimize_gap(poly, Z1, c, 1, 0, direction)) == repr(value)
                assert scatter(poly, first, got).tobytes() == want.tobytes()
                if not degenerate:
                    cc = charnes_cooper_gap(poly, Z1, c, 1, 0, direction)
                    assert abs(value - cc) <= 1e-12
        x = lp.solve_lp(np.zeros(poly.space.dimension), a_eq, b_eq).x
        assert np.array_equal(vertex(poly), x)
        assert feasible_scm(poly).exo == reference_exo(poly.space, x)


def random_skeleton_case(seed):
    """A random skeleton of Z, an optional W and the utility Y <- D, and data
    drawn from a random canonical model on it.

    Z and W take 2 or 3 values and Y 2 or 3 (0, 0.5, 1); W may hang off Z (a
    chain); the decision may be a parent of Z or W; the data may carry an
    experimental do(Z) domain.  Returns (data, skeleton, features).
    """
    rng = np.random.default_rng(seed)
    d = VariableRef("D", (0, 1))
    while True:
        z = tuple(range(int(rng.integers(2, 4))))
        y = ((0, 1), (0, 0.5, 1))[int(rng.integers(2))]
        w = tuple(range(int(rng.integers(2, 4)))) if rng.random() < 0.7 else None
        chain = w is not None and rng.random() < 0.5
        with_decision = str(rng.choice(["", "Z", "W"] if w else ["", "Z"]))
        y_parents = ["D", *(n for n in ("W", "Z") if (n == "Z" or w) and rng.random() < 0.8)]
        skeleton = [
            SkeletonVariable("Z", z, ("D",) if with_decision == "Z" else ()),
            SkeletonVariable("Y", y, tuple(y_parents)),
        ]
        if w:
            w_parents = ("D",) * (with_decision == "W") + ("Z",) * chain
            skeleton.append(SkeletonVariable("W", w, w_parents))
        try:
            space = CanonicalAtomSpace(d, skeleton, limit=2_000)
            break
        except AtomLimitError:
            continue
    atoms = rng.choice(space.dimension, size=int(rng.integers(2, 9)), replace=False)
    weights = [Fraction(int(n), 1) for n in rng.integers(1, 9, size=atoms.size)]
    total = sum(weights)

    def tables(intervention):
        out = {}
        for dv in d.domain:
            columns = reference_columns(space, dv, intervention)
            entries = {}
            for atom, weight in zip(atoms, weights):
                cell = tuple(v.domain[columns[v.name][atom]] for v in space.variables)
                entries[cell] = entries.get(cell, 0) + weight / total
            out[dv] = DistTable(tuple(space.refs[v.name] for v in space.variables), entries)
        return out

    domains = ()
    if rng.random() < 0.5:
        z0 = {"Z": z[int(rng.integers(len(z)))]}
        domains = (ExperimentalDomain("exp", z0, tables(z0)),)
    data = BehaviouralDataset(d, tables({}), domains=domains)
    features = {
        "three-valued": max(len(z), len(y), len(w or ())) == 3,
        "chain": chain,
        "decision parent": bool(with_decision),
        "domain": bool(domains),
    }
    return data, skeleton, features


_REFERENCE_ERRORS = {
    lp.LpInfeasible: DataError,
    lp.LpUnbounded: OracleError,
    lp.LpIterationLimit: OracleError,
}


def _outcome(solve):
    """repr of the value, or the package error class it raised."""
    try:
        return repr(solve())
    except (InputError, DataError, OracleError, UnsupportedError) as exc:
        return type(exc).__name__
    except tuple(_REFERENCE_ERRORS) as exc:
        return _REFERENCE_ERRORS[type(exc)].__name__


def random_skeleton_questions(poly, seed):
    """The gap questions (z, c, (d, d*)) asked of a `random_skeleton_case`
    polytope: a shift on every other variable but Y (every one on odd seeds),
    and the contexts z, empty, each other variable at 1 and z with it at 0."""
    names = [v.name for v in poly.space.variables]
    for z_name in names[:: 1 + seed % 2]:
        if z_name == "Y":
            continue
        z = {z_name: poly.space.refs[z_name].domain[-1]}
        others = [n for n in ("W", "Z") if n in names and n != z_name]
        for c in [z, {}, *({n: 1} for n in others), *({**z, n: 0} for n in others)]:
            for pair in ((1, 0), (0, 1)):
                yield z, c, pair


def test_class_walk_matches_the_per_atom_program_on_random_skeletons():
    """The walk's classes give the per-atom program's merged columns, phase
    one, first atoms, gap values (to the bit, sign of zero included) and
    witness, on random skeletons, data, shifts and contexts.  A conditional
    value is also within 1e-12 of the per-atom Charnes-Cooper program's, and
    fails with the same error type."""
    seen = dict.fromkeys(
        ["three-valued", "chain", "decision parent", "domain", "degenerate",
         "conditional", "UnsupportedError"], 0
    )
    for seed in range(30):
        data, skeleton, features = random_skeleton_case(seed)
        poly = build_polytope(data, skeleton)
        a_eq, b_eq, of_atom, first = reference_program(poly)
        assert np.array_equal(poly.merged, a_eq[:, first])
        assert np.array_equal(poly.b_eq, b_eq)
        assert np.array_equal(poly.first, first)
        start = lp.phase_one(a_eq[:, first], b_eq)
        assert poly.start.tableau.tobytes() == start.tableau.tobytes()
        assert poly.start.basis == start.basis
        assert np.array_equal(poly.a_eq, a_eq)

        space = poly.space
        names = [v.name for v in space.variables]
        for z, c, pair in random_skeleton_questions(poly, seed):
            try:
                num, den, degenerate = reference_objective_terms(poly, z, c, *pair)
            except (InputError, UnsupportedError):
                pass
            else:
                keys = [of_atom, num] if degenerate else [of_atom, num, den]
                want_first = reference_classes(keys)[1]
                gap = _gap_classes(poly, z, c, *pair)
                assert np.array_equal(gap.coarse, of_atom[want_first])
                assert gap.num.tobytes() == num[want_first].tobytes()
            for direction in ("min", "max"):
                got = _outcome(lambda: optimize_gap(poly, z, c, *pair, direction))
                want = _outcome(lambda: reference_gap(poly, z, c, *pair, direction)[0])
                assert got == want, (seed, z, c, pair, direction)
                kind = "degenerate" if all(k in z for k in c) else "conditional"
                seen[got if got == "UnsupportedError" else kind] += 1
                if kind == "conditional":
                    cc = _outcome(lambda: charnes_cooper_gap(poly, z, c, *pair, direction))
                    if got.endswith("Error"):
                        assert got == cc, (seed, z, c, pair, direction)
                    else:
                        assert abs(float(got) - float(cc)) <= 1e-12, (seed, z, c, pair)
        x = lp.solve_lp(np.zeros(space.dimension), a_eq, b_eq).x
        model = feasible_scm(poly)
        assert model.exo == reference_exo(space, x)
        assert {n: model.mechanisms[n].table for n in names} == reference_tables(
            space, model.exo
        )
        for name, flag in features.items():
            seen[name] += flag
    assert all(seen.values()), seen


def test_conditional_gaps_match_highs_on_random_skeletons():
    """Both ends of every conditional gap of the random skeletons agree within
    1e-9 with HiGHS on the per-atom Charnes-Cooper program, an independent
    solver on the other program shape.  A context of no mass in any
    compatible model is infeasible there and a DataError here; questions the
    objective refuses raise the reference's error type."""
    optimize = pytest.importorskip("scipy.optimize")
    seen = {"value": 0, "DataError": 0, "refused": 0}
    for seed in range(30):
        data, skeleton, _ = random_skeleton_case(seed)
        poly = build_polytope(data, skeleton)
        for z, c, pair in random_skeleton_questions(poly, seed):
            if all(k in z for k in c):
                continue
            for direction in ("min", "max"):
                question = (poly, z, c, *pair, direction)
                try:
                    cost, a_eq, b_eq, sign = reference_charnes_cooper(*question)
                except (InputError, UnsupportedError) as exc:
                    with pytest.raises(type(exc)):
                        optimize_gap(*question)
                    seen["refused"] += 1
                    continue
                ref = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
                if ref.status == 2:  # infeasible
                    with pytest.raises(DataError, match="has zero probability under do"):
                        optimize_gap(*question)
                    seen["DataError"] += 1
                else:
                    assert ref.status == 0
                    assert optimize_gap(*question) == pytest.approx(sign * ref.fun, abs=1e-9)
                    seen["value"] += 1
    assert min(seen.values()) > 0, seen


# W is never 1 in these cells, and Z takes both values.
NO_W = [(0, 0, 0), (0, 1, 1), (0, 0, 1)]
WYZ_SKELETON = [
    SkeletonVariable("Z", (0, 1)),
    SkeletonVariable("W", (0, 1)),
    SkeletonVariable("Y", (0, 1), ("D", "W", "Z")),
]


def test_a_context_of_no_mass_in_any_model_is_a_data_error():
    """W is a root never seen at 1, so no compatible model gives W=1 mass."""
    poly = build_polytope(wyz_dataset(NO_W), WYZ_SKELETON)
    for direction in ("min", "max"):
        with pytest.raises(DataError) as info:
            optimize_gap(poly, Z1, {"W": 1}, 1, 0, direction)
        assert str(info.value) == (
            "context {'W': 1} has zero probability under do({'Z': 1}) for every compatible model"
        )


def test_a_start_without_context_mass_moves_to_the_most_context_mass(monkeypatch):
    """With W <- Z, W's response at Z=1 is free on the atoms seen at Z=0, and
    the start's own vertex takes it at 0: the solve falls back to the vertex
    of most context mass, and still matches both per-atom references."""
    skeleton = [*WYZ_SKELETON[:1], SkeletonVariable("W", (0, 1), ("Z",)), WYZ_SKELETON[2]]
    poly = build_polytope(wyz_dataset(NO_W), skeleton)
    gap = _gap_classes(poly, Z1, {"W": 1}, 1, 0)
    start = _refined_start(poly, gap.coarse)
    assert lp.phase_two(start, np.zeros(gap.num.size)).x @ gap.den == 0.0
    costs = []
    phase_two = lp.phase_two
    monkeypatch.setattr(lp, "phase_two", lambda start, c: costs.append(c) or phase_two(start, c))
    for direction in ("min", "max"):
        costs.clear()
        value = optimize_gap(poly, Z1, {"W": 1}, 1, 0, direction)
        assert costs[1].tobytes() == (-gap.den).tobytes()
        assert repr(value) == repr(reference_gap(poly, Z1, {"W": 1}, 1, 0, direction)[0])
        assert abs(value - charnes_cooper_gap(poly, Z1, {"W": 1}, 1, 0, direction)) <= 1e-12
        assert value == (-1.0 if direction == "min" else 1.0)


def test_dinkelbach_steps_stop_at_the_pivot_cap(monkeypatch):
    """A phase two that always returns a point of lower ratio cannot hold the
    solve: it stops after MAX_PIVOTS steps with an OracleError."""
    skeleton = [*WYZ_SKELETON[:1], SkeletonVariable("W", (0, 1), ("Z",)), WYZ_SKELETON[2]]
    poly = build_polytope(wyz_dataset(NO_W), skeleton)
    gap = _gap_classes(poly, Z1, {"W": 1}, 1, 0)
    in_context = np.flatnonzero(gap.den)
    high = in_context[gap.num[in_context].argmax()]
    low = in_context[gap.num[in_context].argmin()]
    calls = []

    def improving(start, cost):
        calls.append(cost)
        x = np.zeros(gap.num.size)
        x[high], x[low] = 1 / len(calls), 1 - 1 / len(calls)  # the ratio falls each call
        return lp.LpSolution(x, float(cost @ x))

    monkeypatch.setattr(lp, "phase_two", improving)
    monkeypatch.setattr(lp, "MAX_PIVOTS", 5)
    with pytest.raises(OracleError, match="^Dinkelbach's method stopped: no optimum after 5 steps$"):
        optimize_gap(poly, Z1, {"W": 1}, 1, 0, "min")
    assert len(calls) == 6  # the start's vertex and five steps


@pytest.mark.parametrize("c", [Z1, {"W": 1, "Z": 1}, {"W": 1}])
def test_a_zero_gap_is_positive_zero_at_both_ends(c):
    """A gap identified as 0 is 0.0 at the max too, not -0.0."""
    poly = build_polytope(wyz_dataset([(1, 1, 1)]), WYZ_SKELETON)
    assert [repr(optimize_gap(poly, Z1, c, 1, 0, d)) for d in ("min", "max")] == ["0.0", "0.0"]


def test_refined_programs_start_from_the_stored_phase_one(medai, medai_exp):
    """A cold phase one over a gap program's refined columns ends exactly on
    the polytope's stored tableau with its columns gathered and each basic
    class moved to its first refined class."""
    rng = np.random.default_rng(5)
    polytopes = [build_polytope(medai, SKELETON), build_polytope(medai_exp, SKELETON)]
    for sizes in ({"Z": 3, "W": 2}, {"Z": 2, "W": 3}):
        for seed in range(2):
            polytopes.append(build_polytope(*chained_dataset(seed, sizes)))
    checked = 0
    for poly in polytopes:
        num = reference_objective_terms(poly, Z1, Z1, 1, 0)[0]
        of_atom = reference_program(poly)[2]
        dimension = poly.space.dimension
        for cost in (num, -num, rng.integers(-1, 2, dimension), rng.integers(0, 2, dimension)):
            coarse = of_atom[reference_classes([of_atom, cost])[1]]
            cold = lp.phase_one(poly.merged[:, coarse], poly.b_eq)
            start = _refined_start(poly, coarse)
            assert start.tableau.tobytes() == cold.tableau.tobytes()
            assert start.basis == cold.basis
            checked += coarse.size > poly.merged.shape[1]
    assert checked >= 10  # programs whose classes are strictly finer


def _count_phases(monkeypatch):
    """Record the matrix shape of every `lp.phase_one` call and the (rows,
    columns) of every phase two's start."""
    shapes, starts = [], []
    phase_one, phase_two = lp.phase_one, lp.phase_two

    def counted_one(a, b):
        shapes.append(np.shape(a))
        return phase_one(a, b)

    def counted_two(start, c):
        starts.append((start.tableau.shape[0], start.tableau.shape[1] - 1))
        return phase_two(start, c)

    monkeypatch.setattr(lp, "phase_one", counted_one)
    monkeypatch.setattr(lp, "phase_two", counted_two)
    return shapes, starts


@pytest.mark.usefixtures("cold_spaces")
def test_merged_programs_stay_small(monkeypatch):
    """Z in 0..6 and Y <- (D, Z) give 114,688 atoms but only 28 distinct
    feasibility columns: Z's value and Y's responses at (0, Z) and (1, Z)."""
    data, skeleton = k_valued_shift_dataset(7)
    shapes, starts = _count_phases(monkeypatch)
    poly = build_polytope(data, skeleton)
    assert poly.space.dimension == 114_688
    assert shapes == [(29, 28)] and starts == []
    for direction in ("min", "max"):
        optimize_gap(poly, Z1, Z1, 1, 0, direction)
    assert shapes == [(29, 28)]
    assert len(starts) == 2 and all(cols <= 100 for _, cols in starts)


@pytest.mark.usefixtures("cold_spaces")
def test_build_solve_and_witness_enumerate_classes_not_atoms(monkeypatch):
    """On the 114,688-atom shape the build, both gap solves and the witness
    run with the per-atom view and the digit rule it reads disabled.  The build and
    the witness each allocate less than one float per atom in all, and a
    solve under 64 KiB."""
    import tracemalloc

    data, skeleton = k_valued_shift_dataset(7)

    def per_atom(*args, **kwargs):
        raise AssertionError("per-atom view used")

    monkeypatch.setattr(CanonicalAtomSpace, "_values", per_atom)
    monkeypatch.setattr(CanonicalAtomSpace, "atom_cells", per_atom)
    tracemalloc.start()
    try:
        poly = build_polytope(data, skeleton)
        atom_vector = 8 * poly.space.dimension
        assert tracemalloc.get_traced_memory()[1] < atom_vector
        for direction in ("min", "max"):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            optimize_gap(poly, Z1, Z1, 1, 0, direction)
            assert tracemalloc.get_traced_memory()[1] - held < 2**16
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = feasible_scm(poly)
        assert tracemalloc.get_traced_memory()[1] - held < atom_vector
    finally:
        tracemalloc.stop()
    assert len(model.exo.atoms) <= poly.merged.shape[0]
    assert all(len(ref.domain) <= len(model.exo.atoms) for ref in model.exo.variables)
    with pytest.raises(AssertionError, match="per-atom"):
        poly.a_eq


@pytest.mark.parametrize("k", [3, 4, 5])
def test_wide_skeletons_certify_with_a_witness(k):
    """Z a root, W1..Wk <- Z and Y <- (D, Z, W1..Wk) have 5.5e11 atoms at
    k = 3 and 7e41 at k = 5, past any fixed-width index.  With the cap raised
    both ends certify thm1 and the witness reproduces the tables, in under a
    second from build to witness tables."""
    import time

    data, skeleton = wide_skeleton_dataset(k)
    start = time.perf_counter()
    poly = build_polytope(data, skeleton, limit=2**200)
    ends = [optimize_gap(poly, Z1, Z1, 1, 0, direction) for direction in ("min", "max")]
    tables = scm_dataset(feasible_scm(poly), "D")
    elapsed = time.perf_counter() - start
    assert poly.space.dimension == 2 * 4**k * 2 ** (2 ** (k + 2))
    closed = thm1_gap_interval(data, Z1, Z1, 1, 0)
    assert ends == pytest.approx([closed.lower, closed.upper], abs=1e-9)
    for d in data.decisions:
        want, got = data.table(d).entries, tables.table(d).entries
        for cell in {*want, *got}:
            assert float(got.get(cell, 0)) == pytest.approx(float(want.get(cell, 0)), abs=1e-9)
    assert elapsed < 1.0


@pytest.mark.parametrize("c", [Z1, {"W1": 1}], ids=["degenerate", "conditional"])
def test_both_ends_of_one_polytope_match_a_fresh_polytope(c):
    """Both ends asked of one polytope are `repr`-equal to each end asked of
    a fresh one: a gap solve leaves the polytope as it found it."""
    data, skeleton = wide_skeleton_dataset(3)
    fresh = [
        repr(optimize_gap(build_polytope(data, skeleton, limit=2**200), Z1, c, 1, 0, direction))
        for direction in ("min", "max")
    ]
    poly = build_polytope(data, skeleton, limit=2**200)
    ends = [repr(optimize_gap(poly, Z1, c, 1, 0, direction)) for direction in ("min", "max")]
    assert ends == fresh


def test_a_gap_error_raises_on_every_ask(medai):
    skeleton = [
        SkeletonVariable("Z", (0, 1), ("D",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    poly = build_polytope(medai, skeleton)
    for _ in range(2):
        with pytest.raises(UnsupportedError, match="responds to the decision"):
            optimize_gap(poly, {}, Z1, 1, 0, "min")
        with pytest.raises(InputError, match="^'Q' is not a modelled variable$"):
            optimize_gap(poly, {"Q": 1}, Z1, 1, 0, "min")


def test_gap_values_do_not_depend_on_the_blas_thread_count():
    """A gap's value is an exact sum over classes, never a BLAS reduction
    over atoms, so one and two OpenBLAS threads agree to the bit on the
    24,576- and 114,688-atom shapes."""
    import os
    import subprocess
    import sys

    import beliefbound

    script = (
        "from beliefbound.oracle import build_polytope, optimize_gap\n"
        "from support import k_valued_shift_dataset\n"
        "for k in (6, 7):\n"
        "    poly = build_polytope(*k_valued_shift_dataset(k))\n"
        "    print(poly.space.dimension, [repr(optimize_gap(poly, {'Z': z}, {'Z': z}, 1, 0, d))\n"
        "                                 for z in range(k) for d in ('min', 'max')])\n"
    )
    src = os.path.dirname(os.path.dirname(beliefbound.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
        ).stdout
        for threads in ("1", "2")
    ]
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["24576", "114688"]
    assert outputs[0] == outputs[1]


# -- structure kept per skeleton ----------------------------------------------


def kept_spaces():
    return _kept_space.cache_info().currsize


def _answers(data, skeleton, pivots):
    """Everything one polytope gives, as bytes, reprs and pivot counts: its
    program, both contexts' gap classes and both ends of each, and its witness."""
    pivots.clear()
    poly = build_polytope(data, skeleton)
    out = [poly.first, poly.merged.tobytes(), poly.b_eq.tobytes(), len(pivots)]
    for c in (Z1, {"W": 1}):
        gap = _gap_classes(poly, Z1, c, 1, 0)
        out += [gap.coarse.tobytes(), gap.num.tobytes(), gap.den is None or gap.den.tobytes()]
        for direction in ("min", "max"):
            pivots.clear()
            out += [repr(optimize_gap(poly, Z1, c, 1, 0, direction)), len(pivots)]
    model = feasible_scm(poly)
    return out + [model.exo], model


@pytest.mark.usefixtures("cold_spaces")
def test_a_kept_space_answers_as_a_fresh_one(monkeypatch):
    """Seeded datasets on one skeleton, plain and with an experimental domain,
    give the same classes, values (by repr), pivot counts and witness from a
    kept space as from a fresh one, and each witness reproduces its tables."""
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(args[-1]) or pivot(*args))
    cases = []
    for sizes in ({"Z": 3, "W": 2}, {"Z": 2, "W": 3}):
        for seed in range(3):
            data, skeleton = chained_dataset(seed, sizes)
            cases += [(data, skeleton), (dataclasses.replace(data, domains=()), skeleton)]
    fresh = []
    for data, skeleton in cases:
        _kept_space.cache_clear()
        fresh.append(_answers(data, skeleton, pivots)[0])
    for (data, skeleton), want in zip(cases, fresh):
        got, model = _answers(data, skeleton, pivots)
        assert got == want
        domains = [(dom.label, dom.intervened) for dom in data.domains]
        tables = scm_dataset(model, "D", domains=domains)
        for mine, theirs in zip(data.all_domains(), tables.all_domains()):
            for d in data.decisions:
                want_cells, got_cells = mine.per_decision[d].entries, theirs.per_decision[d].entries
                for cell in {*want_cells, *got_cells}:
                    assert float(got_cells.get(cell, 0)) == pytest.approx(
                        float(want_cells.get(cell, 0)), abs=1e-9
                    )
    assert kept_spaces() == 2 and len({repr(answer) for answer in fresh}) == len(cases)


@pytest.mark.usefixtures("cold_spaces")
def test_datasets_on_one_skeleton_do_not_share_values():
    """Two datasets asked in turn of one kept space each give their own fresh
    values: only structure is kept."""
    datasets = [
        wyz_dataset([(0, 1, 1), (1, 0, 0), (1, 1, 1)]),
        wyz_dataset([(0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]),
    ]

    def ends(data):
        poly = build_polytope(data, WYZ_SKELETON)
        contexts, directions = (Z1, {"W": 1}), ("min", "max")
        return [repr(optimize_gap(poly, Z1, c, 1, 0, d)) for c in contexts for d in directions]

    fresh = []
    for data in datasets:
        _kept_space.cache_clear()
        fresh.append(ends(data))
    assert fresh[0] != fresh[1]
    assert [ends(data) for data in datasets * 2] == fresh * 2
    assert kept_spaces() == 1


@pytest.mark.usefixtures("cold_spaces")
def test_a_second_build_on_a_skeleton_walks_no_classes(medai, monkeypatch):
    """The class program and a gap's classes are walked once per skeleton and
    question; every build reads its own tables."""
    walks = []
    walk = CanonicalAtomSpace.walk
    monkeypatch.setattr(CanonicalAtomSpace, "walk", lambda *args: walks.append(1) or walk(*args))
    first = build_polytope(random_binary_dataset(0), SKELETON)
    optimize_gap(first, Z1, Z1, 1, 0, "min")
    assert len(walks) == 2
    second = build_polytope(random_binary_dataset(1), SKELETON)
    optimize_gap(second, Z1, Z1, 1, 0, "max")
    assert len(walks) == 2 and second.space is first.space
    assert second.b_eq.tobytes() != first.b_eq.tobytes()
    optimize_gap(second, Z1, {}, 1, 0, "min")  # a new question
    build_polytope(medai, SKELETON)  # medai's exact tables have the same structure
    assert len(walks) == 3


@pytest.mark.usefixtures("cold_spaces")
def test_bool_and_int_domains_get_spaces_of_their_own():
    """(0, 1) and (False, True) are equal tuples, but a space keeps its
    domains' values: the witness of each dataset carries that dataset's types."""
    ints = random_binary_dataset(3)
    z = VariableRef("Z", (False, True))
    bools = BehaviouralDataset(ints.decision, {
        d: DistTable((ints.table(d).ref("Y"), z), {
            (y, bool(zv)): p for (y, zv), p in ints.table(d).entries.items()
        })
        for d in ints.decisions
    })
    bool_skeleton = [SkeletonVariable("Z", z.domain), SKELETON[1]]
    for data, skeleton, kind in ((ints, SKELETON, int), (bools, bool_skeleton, bool)) * 2:
        poly = build_polytope(data, skeleton)
        want = optimize_gap(build_polytope(ints, SKELETON), Z1, Z1, 1, 0, "min")
        assert optimize_gap(poly, {"Z": 1}, {"Z": 1}, 1, 0, "min") == want
        tables = scm_dataset(feasible_scm(poly), "D")
        for d in data.decisions:
            assert {type(cell[1]) for cell in tables.table(d).entries} == {kind}
    assert kept_spaces() == 2


@pytest.mark.usefixtures("cold_spaces")
def test_a_lowered_atom_cap_refuses_a_kept_space(medai, monkeypatch):
    assert build_polytope(medai, SKELETON).space.dimension == 32
    monkeypatch.setenv("BELIEFBOUND_ATOM_LIMIT", "16")
    with pytest.raises(AtomLimitError, match="needs 32 atoms, over the cap of 16"):
        build_polytope(medai, SKELETON)
    assert kept_spaces() == 1


@pytest.mark.usefixtures("cold_spaces")
def test_kept_arrays_are_read_only(medai):
    poly = build_polytope(medai, SKELETON)
    gap = _gap_classes(poly, {}, Z1, 1, 0)
    for array in (poly.merged, gap.coarse, gap.num, gap.den):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(TypeError):
        poly.classes[()] = 0
    poly.first.append(-1)  # the polytope's own list
    assert build_polytope(medai, SKELETON).first == poly.first[:-1]


@pytest.mark.usefixtures("cold_spaces")
def test_a_skeleton_that_cannot_be_hashed_is_checked_and_not_kept(medai):
    """A list for a parent name is refused as an unknown parent, with a
    space already kept, and is not kept itself."""
    build_polytope(medai, SKELETON)
    skeleton = [SkeletonVariable("Z", (0, 1)), SkeletonVariable("Y", (0, 1), (["D"], "Z"))]
    for _ in range(2):
        with pytest.raises(InputError, match="unknown parent"):
            build_polytope(medai, skeleton)
    assert kept_spaces() == 1


# -- model extraction and witnesses -------------------------------------------


def test_feasible_scm_reproduces_data(medai):
    model = feasible_scm(medai_polytope(medai))
    for d in (0, 1):
        joint = query(joint_distribution(submodel(model, {"D": d})), ["Y", "Z"])
        for y in (0, 1):
            for z in (0, 1):
                cell = {"Y": y, "Z": z}
                assert float(joint.prob(cell)) == pytest.approx(
                    float(medai.table(d).prob(cell)), abs=1e-9
                )


def test_feasible_scm_point_mass_data():
    d = VariableRef("D", (0, 1))
    y = VariableRef("Y", (0, 1))
    z = VariableRef("Z", (0, 1))
    table = DistTable((y, z), {(1, 1): 1})
    data = BehaviouralDataset(d, {0: table, 1: table})
    model = feasible_scm(build_polytope(data, SKELETON))
    for dv in (0, 1):
        assert joint_distribution(submodel(model, {"D": dv})).prob({"Y": 1, "Z": 1}) == pytest.approx(1.0, abs=1e-9)


def test_witness_achieves_lower_bound(medai, m1):
    for base in (m1, feasible_scm(medai_polytope(medai))):
        witness = witness_thm1_scm(base, Z1, Z1, 1, 0)
        observed = scm_dataset(witness, "D")
        for d in (0, 1):
            assert total_variation(observed.table(d), medai.table(d)) <= 1e-12
        gap = float(
            expectation(joint_distribution(submodel(witness, {"D": 1, "Z": 1})), "Y")
            - expectation(joint_distribution(submodel(witness, {"D": 0, "Z": 1})), "Y")
        )
        assert gap == pytest.approx(thm1_gap_interval(medai, Z1, Z1, 1, 0).lower, abs=1e-9)


def test_witness_swapped_pair(m1, medai):
    witness = witness_thm1_scm(m1, Z1, Z1, 0, 1)
    gap = float(
        expectation(joint_distribution(submodel(witness, {"D": 0, "Z": 1})), "Y")
        - expectation(joint_distribution(submodel(witness, {"D": 1, "Z": 1})), "Y")
    )
    assert gap == pytest.approx(-0.8, abs=1e-9)


def test_witness_with_almost_sure_shift_value():
    data = exact_dataset({
        0: {(1, 1): Fraction(3, 10), (0, 1): Fraction(7, 10)},
        1: {(1, 1): Fraction(9, 10), (0, 1): Fraction(1, 10)},
    })
    base = feasible_scm(build_polytope(data, SKELETON))
    witness = witness_thm1_scm(base, Z1, Z1, 1, 0)
    gap = float(
        expectation(joint_distribution(submodel(witness, {"D": 1, "Z": 1})), "Y")
        - expectation(joint_distribution(submodel(witness, {"D": 0, "Z": 1})), "Y")
    )
    assert gap == pytest.approx(0.6, abs=1e-9)  # point-identified value


def test_witness_general_context_variable():
    # Context distinct from the shift: the off-branch clamp must land on the
    # queried context for the gap to hit the closed form.
    rng = np.random.default_rng(40)
    d = VariableRef("D", (0, 1))
    z = VariableRef("Z", (0, 1))
    cvar = VariableRef("C", (0, 1))
    y = VariableRef("Y", (0, 1))
    u = VariableRef("U", tuple(range(6)))
    weights = rng.integers(1, 9, size=6)
    probs = [Fraction(int(w), int(weights.sum())) for w in weights]
    z_out = rng.integers(0, 2, size=6)
    z_out[0], z_out[1] = 0, 1
    c_out = rng.integers(0, 2, size=(2, 6))
    c_out[1, 0], c_out[1, 1] = 1, 1  # keep P(C=1, Z=1) positive
    y_out = rng.integers(0, 2, size=(2, 2, 2, 6))
    base = Scm(
        (d, z, cvar, y),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: int(z_out[a["U"]])),
            "C": Mechanism.from_function(
                cvar, (z,), (u,), lambda a: int(c_out[a["Z"], a["U"]])
            ),
            "Y": Mechanism.from_function(
                y, (d, z, cvar), (u,),
                lambda a: int(y_out[a["D"], a["Z"], a["C"], a["U"]]),
            ),
        },
        ExoDistribution((u,), tuple(((i,), p) for i, p in enumerate(probs))),
    )
    data = scm_dataset(base, "D")
    closed = thm1_gap_interval(data, {"C": 1}, Z1, 1, 0)
    witness = witness_thm1_scm(base, Z1, {"C": 1}, 1, 0)
    observed = scm_dataset(witness, "D")
    for dv in (0, 1):
        assert total_variation(observed.table(dv), data.table(dv)) <= 1e-12
    def clamped_mean(dv):
        joint = joint_distribution(submodel(witness, {"D": dv, "Z": 1}))
        return expectation(joint, "Y", {"C": 1})
    gap = float(clamped_mean(1) - clamped_mean(0))
    assert gap == pytest.approx(closed.lower, abs=1e-9)


def test_witness_models_reuse_lookups_that_match_a_fresh_compile(medai, medai_exp, m1, m2):
    problems = [(medai, SKELETON), (medai_exp, SKELETON)]
    problems += [
        (scm_dataset(random_behaviour_model(seed), "D", domains=[("exp", Z1)]), SKELETON)
        for seed in range(3)
    ]
    problems += [chained_dataset(seed, {"Z": 3, "W": 2}) for seed in range(2)]
    models = [witness_thm1_scm(m, Z1, Z1, 1, 0) for m in (m1, m2)]
    for data, skeleton in problems:
        base = feasible_scm(build_polytope(data, skeleton))
        models += [base, *(witness_thm1_scm(base, Z1, Z1, *pair) for pair in ((1, 0), (0, 1)))]
        if "W" in base.names:
            models.append(witness_thm1_scm(base, Z1, {"W": 1}, 1, 0))
    for model in models:
        assert_lookups_compiled_once(model, domains=[("exp", Z1)])


@pytest.mark.usefixtures("cold_spaces")
def test_feasible_scm_reuses_the_polytope_point(medai, monkeypatch):
    """Phase one runs once per polytope: gaps, conditional ones included, and
    witnesses start phase two from it."""
    shapes, starts = _count_phases(monkeypatch)
    poly = build_polytope(medai, SKELETON)
    assert len(shapes) == 1 and starts == []
    model = feasible_scm(poly)
    assert model.exo == reference_exo(poly.space, vertex(poly))
    assert feasible_scm(poly).exo == model.exo
    for _ in range(3):
        for direction in ("min", "max"):
            optimize_gap(poly, Z1, Z1, 1, 0, direction)
    plain = len(starts)
    for direction in ("min", "max"):
        optimize_gap(poly, {}, Z1, 1, 0, direction)  # a context outside the shift
    assert len(shapes) == 1
    assert len(starts) >= plain + 4  # each end: its start's vertex and a step


def test_witness_needs_exogenous_shift_variable(m1):
    base = m1
    skeleton_with_parented_z = [
        SkeletonVariable("Z", (0, 1), ("D",)),
        SkeletonVariable("Y", (0, 1), ("D", "Z")),
    ]
    data = scm_dataset(base, "D")
    rich = feasible_scm(build_polytope(data, skeleton_with_parented_z))
    with pytest.raises(UnsupportedError):
        witness_thm1_scm(rich, Z1, Z1, 1, 0)


@pytest.mark.parametrize(
    "pair, message",
    [
        ((1, 1), "^decision and baseline must differ$"),
        ((7, 0), r"^value 7 not in domain of 'D' \(0, 1\)$"),
        ((1, 7), r"^value 7 not in domain of 'D' \(0, 1\)$"),
    ],
    ids=["equal", "decision", "baseline"],
)
def test_witness_refuses_a_bad_decision_pair(m1, pair, message):
    with pytest.raises(InputError, match=message):
        witness_thm1_scm(m1, Z1, Z1, *pair)


def test_witness_refuses_a_utility_without_a_numeric_range():
    model = random_behaviour_model(0, y=VariableRef("Y", ("no", "yes")))
    with pytest.raises(InputError) as exc:
        witness_thm1_scm(model, Z1, Z1, 1, 0)
    assert str(exc.value) == "variable 'Y' has a non-numeric domain ('no', 'yes')"


# -- unknown-shift witnesses ----------------------------------------------------


def test_canonical_table_matches_observed_cells(medai):
    pab = canonical_zy_table(medai.table(1))
    model = pab.to_scm()
    joint = joint_distribution(model)
    for z in (0, 1):
        for y in (0, 1):
            assert joint.prob({"Z": z, "Y": y}) == medai.table(1).prob({"Z": z, "Y": y})


def test_unknown_shift_witnesses_reach_both_ends(medai):
    pab1 = canonical_zy_table(medai.table(1))
    pab0 = canonical_zy_table(medai.table(0))
    low1, high1 = unknown_shift_witnesses(pab1)
    low0, high0 = unknown_shift_witnesses(pab0)
    delta_low = joint_distribution(low1).prob({"Y": 1}) - joint_distribution(high0).prob({"Y": 1})
    delta_high = joint_distribution(high1).prob({"Y": 1}) - joint_distribution(low0).prob({"Y": 1})
    assert float(delta_low) == pytest.approx(-1.0, abs=1e-12)
    assert float(delta_high) == pytest.approx(1.0, abs=1e-12)


def test_unknown_shift_preserves_row_sums(medai):
    pab = canonical_zy_table(medai.table(1))
    originals = pab.row_sums()
    for shifted in unknown_shift_witnesses(pab):
        # Witness exogenous atoms are (r_z, r_y) pairs; marginalise out r_z.
        sums = [0, 0, 0, 0]
        for (a, b), p in shifted.exo.atoms:
            sums[b] = sums[b] + p
        assert tuple(sums) == originals


def test_unknown_shift_degenerate_success_data():
    # All mass in the always-succeed row: no reshuffle can touch success.
    y = VariableRef("Y", (0, 1))
    z = VariableRef("Z", (0, 1))
    pab = ResponseTypeTable(z, y, {(1, 3): Fraction(2, 5), (0, 3): Fraction(3, 5)})
    low, high = unknown_shift_witnesses(pab)
    assert joint_distribution(low).prob({"Y": 1}) == 1
    assert joint_distribution(high).prob({"Y": 1}) == 1


@pytest.mark.parametrize("call", ["table", "canonical"])
def test_a_y_domain_mixing_text_and_numbers_is_refused_before_it_sorts(call):
    z, y = VariableRef("Z", (0, 1)), VariableRef("Y", (0, "x"))
    message = r"^unknown-shift witnesses need a binary 0/1 utility, got \(0, 'x'\)$"
    with pytest.raises(InputError, match=message):
        if call == "table":
            ResponseTypeTable(z, y, {(0, 1): 1})
        else:
            canonical_zy_table(DistTable((z, y), {(0, 0): 0.5, (1, "x"): 0.5}))
