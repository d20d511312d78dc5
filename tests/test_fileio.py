"""Serialization round trips and ingestion edge cases."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from beliefbound.errors import InputError, ZeroMassError
from beliefbound.fileio import (
    dataset_from_log,
    dump_dataset,
    dump_scm,
    dump_table,
    load_csv_log,
    load_dataset,
    load_scm,
    load_table,
)
from beliefbound.fixtures import fixture_path, medai_dataset, medai_scm
from beliefbound.scm import joint_distribution, scm_dataset, submodel
from beliefbound.tables import total_variation


def test_scm_round_trip_produces_identical_behaviour(tmp_path):
    doc = dump_scm(medai_scm())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    loaded = load_scm(path)
    left = scm_dataset(loaded, "D")
    right = medai_dataset()
    for d in (0, 1):
        assert total_variation(left.table(d), right.table(d)) == 0


def test_shipped_tables_are_the_shipped_models_tables():
    model = load_scm(fixture_path("medai.scm.json"))
    assert load_dataset(fixture_path("medai.tables.json")) == scm_dataset(model, "D")
    experiment = load_dataset(fixture_path("medai_experiment.tables.json"))
    assert experiment == scm_dataset(model, "D", domains=[("do_z1", {"Z": 1})])
    assert experiment.domains[0].intervened == {"Z": 1}


def test_alt_model_behaves_as_medai_with_the_opposite_optimum_under_do_z1():
    do_z1 = [("do_z1", {"Z": 1})]
    medai, alt = (
        scm_dataset(load_scm(fixture_path(f"{name}.scm.json")), "D", domains=do_z1)
        for name in ("medai", "medai_alt")
    )
    assert alt.per_decision == medai.per_decision
    gaps = [
        data.domains[0].per_decision[1].prob({"Y": 1})
        - data.domains[0].per_decision[0].prob({"Y": 1})
        for data in (medai, alt)
    ]
    assert gaps == [Fraction(3, 5), Fraction(-2, 5)]


def test_decimal_strings_parse_exactly(tmp_path):
    doc = {
        "scope": [{"name": "Y", "domain": [0, 1]}],
        "entries": [
            {"assignment": {"Y": 0}, "p": "0.2"},
            {"assignment": {"Y": 1}, "p": "0.8"},
        ],
    }
    table = load_table(doc)
    assert table.prob({"Y": 1}) == Fraction(4, 5)
    # Fractions survive a dump/load cycle through their string form.
    again = load_table(dump_table(table))
    assert again.prob({"Y": 1}) == Fraction(4, 5)


def test_bad_probability_literal_rejected():
    doc = {
        "scope": [{"name": "Y", "domain": [0, 1]}],
        "entries": [{"assignment": {"Y": 0}, "p": "lots"}],
    }
    with pytest.raises(InputError):
        load_table(doc)


def test_dataset_round_trip(tmp_path):
    data = medai_dataset()
    doc = dump_dataset(data)
    loaded = load_dataset(doc)
    for d in (0, 1):
        assert loaded.table(d) == data.table(d)
    assert loaded.utility == "Y"


def test_csv_log_parsing(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("D,Y,weight\n0,1,2\n1,0,1.5\nfoo,1,1\n", encoding="utf-8")
    rows, weights = load_csv_log(path)
    assert rows == [{"D": 0, "Y": 1}, {"D": 1, "Y": 0}, {"D": "foo", "Y": 1}]
    assert weights == [2.0, 1.5, 1.0]


def test_csv_log_without_weights(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("D,Y\n0,1\n1,0\n", encoding="utf-8")
    rows, weights = load_csv_log(path)
    assert weights == [1.0, 1.0]


def test_dataset_from_log_recovers_interventional_tables(m1):
    # Exact uniform-policy frequencies over the treated/untreated joints.
    rows, weights = [], []
    for d in (0, 1):
        joint = joint_distribution(submodel(m1, {"D": d}))
        for assignment, p in joint.assignments():
            rows.append(assignment)
            weights.append(float(p) / 2)
    data = dataset_from_log(rows, weights, "D", ["Z"])
    truth = medai_dataset()
    for d in (0, 1):
        assert total_variation(data.table(d), truth.table(d)) <= 1e-12


def test_dataset_from_log_rejects_deterministic_policy():
    # The policy never explores D=0 in the Z=1 context.
    rows = [
        {"D": 1, "Y": 1, "Z": 1},
        {"D": 1, "Y": 0, "Z": 0},
        {"D": 0, "Y": 1, "Z": 0},
    ]
    with pytest.raises(ZeroMassError) as err:
        dataset_from_log(rows, None, "D", ["Z"])
    assert "Z" in str(err.value)  # diagnostic names the offending context


def test_dataset_from_log_names_an_unknown_context_variable():
    rows = [{"D": 0, "Y": 1, "Z": 0}, {"D": 1, "Y": 0, "Z": 1}]
    with pytest.raises(InputError, match="joint table lacks context variable 'Q'"):
        dataset_from_log(rows, None, "D", ["Q"])


def test_report_rejects_non_finite_numbers():
    from beliefbound.report import Report

    report = Report(command="bounds", request={"x": float("nan")})
    with pytest.raises(InputError):
        report.as_dict()


def _without(doc, *where):
    """A copy of ``doc`` with the key at the end of the path ``where`` removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in where[:-1]:
        node = node[key]
    del node[where[-1]]
    return doc


@pytest.mark.parametrize(
    "load, where, message",
    [
        (load_dataset, ("decision",), "dataset lacks field 'decision'"),
        (load_dataset, ("decision", "domain"), "decision lacks field 'domain'"),
        (load_dataset, ("per_decision", "0", "scope", 0, "name"),
         "scope entry lacks field 'name'"),
        (load_dataset, ("per_decision", "1", "entries", 2, "p"), "entry lacks field 'p'"),
        (load_dataset, ("per_decision", "1", "entries", 0, "assignment", "Z"),
         "entry assignment lacks field 'Z'"),
        (load_dataset, ("domains", 0, "label"), "domain lacks field 'label'"),
        (load_scm, ("variables",), "model lacks field 'variables'"),
        (load_scm, ("mechanisms", "Y", 0, "value"), "mechanism row for 'Y' lacks field 'value'"),
        (load_scm, ("mechanisms", "Y", 0, "given", "Z"),
         "mechanism row for 'Y' given lacks field 'Z'"),
        (load_scm, ("exogenous_distribution", 0, "assignment"),
         "exogenous_distribution entry lacks field 'assignment'"),
    ],
)
def test_missing_field_names_the_field_and_its_owner(load, where, message):
    name = "medai.scm.json" if load is load_scm else "medai_experiment.tables.json"
    doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    with pytest.raises(InputError) as info:
        load(_without(doc, *where))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "load, where, message",
    [
        (load_dataset, ("decision", "domain"), "decision field 'domain'"),
        (load_dataset, ("per_decision", "0", "scope"), "table field 'scope'"),
        (load_dataset, ("per_decision", "1", "scope", 1, "domain"), "scope entry field 'domain'"),
        (load_dataset, ("per_decision", "1", "entries"), "table field 'entries'"),
        (load_scm, ("variables",), "model field 'variables'"),
        (load_scm, ("variables", 0, "domain"), "variables entry field 'domain'"),
        (load_scm, ("variables", 2, "parents"), "variables entry field 'parents'"),
        (load_scm, ("variables", 1, "exo_parents"), "variables entry field 'exo_parents'"),
        (load_scm, ("exogenous", 0, "domain"), "exogenous entry field 'domain'"),
    ],
)
def test_null_array_field_names_the_field_and_its_owner(load, where, message):
    name = "medai.scm.json" if load is load_scm else "medai_experiment.tables.json"
    doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = None
    with pytest.raises(InputError) as info:
        load(doc)
    assert str(info.value) == f"{message} must be a JSON array, not None"


@pytest.mark.parametrize(
    "load, where, value, message",
    [
        (load_dataset, ("decision", "domain"), [[0], [1]],
         "variable 'D' has a list or object in its domain"),
        (load_dataset, ("per_decision", "0", "scope", 1, "domain"), [0, {}],
         "variable 'Z' has a list or object in its domain"),
        (load_dataset, ("per_decision", "0", "scope", 0, "name"), ["Y"],
         "scope entry field 'name' must be a JSON string, not ['Y']"),
        (load_dataset, ("per_decision", "1", "entries", 0, "assignment", "Z"), [1],
         "entry assignment field 'Z' must be a JSON scalar, not [1]"),
        (load_dataset, ("domains", 0, "intervened"), ["Z", 1],
         "domain field 'intervened' must be a JSON object, not ['Z', 1]"),
        (load_dataset, ("domains",), None, "dataset field 'domains' must be a JSON array, not None"),
        (load_scm, ("exogenous",), None, "model field 'exogenous' must be a JSON array, not None"),
        (load_scm, ("exogenous_distribution",), None,
         "model field 'exogenous_distribution' must be a JSON array, not None"),
        (load_scm, ("exogenous_distribution", 0, "assignment", "U"), {"a": 1},
         "exogenous assignment field 'U' must be a JSON scalar, not {'a': 1}"),
        (load_scm, ("mechanisms", "Y", 0, "given", "Z"), [0],
         "mechanism row for 'Y' given field 'Z' must be a JSON scalar, not [0]"),
        (load_scm, ("variables", 2, "parents"), [["D"]],
         "variables entry field 'parents' must hold JSON strings, not ['D']"),
        (load_scm, ("mechanisms", "Y"), 3, "mechanisms field 'Y' must be a JSON array, not 3"),
    ],
)
def test_wrongly_typed_value_names_the_field_and_its_owner(load, where, value, message):
    name = "medai.scm.json" if load is load_scm else "medai_experiment.tables.json"
    doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(InputError) as info:
        load(doc)
    assert str(info.value) == message
