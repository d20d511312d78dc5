"""CLI contract: flags, report shapes, golden bytes, exit codes."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbound import __version__, fileio
from beliefbound.cli import main
from beliefbound.scm import ExoDistribution, Mechanism, Scm, scm_dataset
from beliefbound.tables import BehaviouralDataset, DistTable, VariableRef

from support import random_behaviour_model, wyz_dataset

REPO = Path(__file__).resolve().parents[1]
FIXTURES = "src/beliefbound/fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"

GOLDEN_CASES = {
    "bounds_intervention": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "intervention",
        "--shift", "Z=1", "--context", "Z=1", "--decision", "1", "--baseline", "0",
    ],
    "bounds_intervention_swapped": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "intervention",
        "--shift", "Z=1", "--context", "Z=1", "--decision", "0", "--baseline", "1",
    ],
    "bounds_multidomain": [
        "bounds", "--data", f"{FIXTURES}/medai_experiment.tables.json", "--theorem",
        "multidomain", "--shift", "Z=1", "--context", "Z=1",
        "--decision", "1", "--baseline", "0",
    ],
    "bounds_unknown_shift": ["bounds", "--theorem", "unknown-shift"],
    "bounds_covariate_shift": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "covariate-shift",
        "--sigma-context", "Z=1:0.9", "--shift", "Z=1", "--context", "Z=1",
        "--decision", "1", "--baseline", "0",
    ],
    "bounds_fairness": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "fairness",
        "--decision", "1", "--attribute-baseline", "Z=0",
    ],
    "bounds_harm": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "harm",
        "--decision", "1", "--baseline", "0",
    ],
    "bounds_direct_discrimination": [
        "bounds", "--data", f"{FIXTURES}/medai.tables.json", "--theorem",
        "direct-discrimination", "--decision", "1",
        "--attribute-baseline", "Z=0", "--attribute-value", "Z=1",
    ],
    "bounds_causal_harm": [
        "bounds", "--data", "tests/data/policy_joint.json", "--theorem", "causal-harm",
        "--decision", "1", "--baseline", "0",
    ],
    "predict_weak": [
        "predict", "--data", f"{FIXTURES}/medai.tables.json", "--theorem", "intervention",
        "--shift", "Z=1", "--context", "Z=1", "--mode", "weak",
    ],
    "predict_strong": [
        "predict", "--data", f"{FIXTURES}/medai_experiment.tables.json", "--theorem",
        "multidomain", "--shift", "Z=1", "--context", "Z=1", "--mode", "strong",
    ],
    "oracle_min": [
        "oracle", "--data", f"{FIXTURES}/medai.tables.json", "--direction", "min",
        "--shift", "Z=1", "--context", "Z=1", "--decision", "1", "--baseline", "0",
    ],
    "oracle_max": [
        "oracle", "--data", f"{FIXTURES}/medai.tables.json", "--direction", "max",
        "--shift", "Z=1", "--context", "Z=1", "--decision", "1", "--baseline", "0",
    ],
    "relax_exact": [
        "relax", "--data", f"{FIXTURES}/medai.tables.json", "--kind", "approx-grounding",
        "--delta", "0.1", "--shift", "Z=1", "--context", "Z=1",
        "--decision", "1", "--baseline", "0",
    ],
    "relax_sample_seed7": [
        "relax", "--data", f"{FIXTURES}/medai.tables.json", "--kind", "approx-grounding",
        "--delta", "0.1", "--method", "sample", "--seed", "7", "--shift", "Z=1",
        "--context", "Z=1", "--decision", "0", "--baseline", "1",
    ],
    "relax_proxy": [
        "relax", "--data", f"{FIXTURES}/medai.tables.json", "--kind", "proxy",
        "--alpha", "0.9", "--shift", "Z=1", "--decision", "1", "--baseline", "0",
    ],
}


_SKELETON = {
    "variables": [
        {"name": "Y", "domain": [0, 1], "parents": ["D", "Z"]},
        {"name": "Z", "parents": []},
    ]
}


def run_inprocess(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv, env=None, cwd=REPO):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "beliefbound.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=full_env,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name, capsys, monkeypatch):
    code, out, _ = run_inprocess(GOLDEN_CASES[name], capsys, monkeypatch)
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == expected


def test_reports_are_deterministic(capsys, monkeypatch):
    argv = GOLDEN_CASES["relax_sample_seed7"]
    _, first, _ = run_inprocess(argv, capsys, monkeypatch)
    _, second, _ = run_inprocess(argv, capsys, monkeypatch)
    assert first == second


def test_scm_and_tables_ingestion_agree(capsys, monkeypatch):
    base = GOLDEN_CASES["bounds_intervention"]
    _, from_tables, _ = run_inprocess(base, capsys, monkeypatch)
    swapped = [a.replace("medai.tables.json", "medai.scm.json") for a in base]
    _, from_scm, _ = run_inprocess(swapped, capsys, monkeypatch)
    left = json.loads(from_tables)
    right = json.loads(from_scm)
    assert left["intervals"] == right["intervals"]  # cell-exact round trip


def test_csv_ingestion_matches_tables(tmp_path, capsys, monkeypatch):
    # Log of the uniform-policy joint over (D, Y, Z): weights are 20x the
    # exact joint probabilities, so frequencies reproduce the tables exactly.
    rows = [
        ("0", "0", "0", 4), ("0", "0", "1", 2), ("0", "1", "0", 2), ("0", "1", "1", 2),
        ("1", "0", "0", 4), ("1", "1", "0", 2), ("1", "1", "1", 4),
    ]
    log = tmp_path / "log.csv"
    log.write_text(
        "D,Y,Z,weight\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n",
        encoding="utf-8",
    )
    argv = [
        "bounds", "--data", str(log), "--theorem", "intervention",
        "--context-vars", "Z", "--shift", "Z=1", "--context", "Z=1",
        "--decision", "1", "--baseline", "0",
    ]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["intervals"][0]["lower"] == pytest.approx(-0.4, abs=1e-12)


def test_table_format_output(capsys, monkeypatch):
    argv = GOLDEN_CASES["bounds_intervention"] + ["--format", "table"]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert code == 0
    assert "known-shift" in out and "tight" in out


_MEDAI = f"{FIXTURES}/medai.tables.json"


def _table(command: str, *lines: str) -> str:
    return "\n".join([f"beliefbound {__version__} :: {command}", *lines]) + "\n"


_GAP_ECHO = ("  baseline: 0", "  context: {'Z': 1}", f"  data: {_MEDAI}", "  decision: 1")
_TABLES = {
    "predict_weak": _table(
        "predict", "  context: {'Z': 1}", f"  data: {_MEDAI}", "  lambda: 0.0",
        "  mode: weak", "  shift: {'Z': 1}", "  theorem: intervention",
        "  mode=weak lambda=0.0 ruled_out=[] surviving=[0, 1]",
    ),
    "predict_strong": _table(
        "predict", "  context: {'Z': 1}", f"  data: {FIXTURES}/medai_experiment.tables.json",
        "  lambda: 0.0", "  mode: strong", "  shift: {'Z': 1}", "  theorem: multidomain",
        "  mode=strong lambda=0.0 ruled_out=[0] surviving=[1]",
        "  strong winner: 1",
        "    1 beats 0 (lower +0.600000)",
    ),
    "oracle_min": _table(
        "oracle", *_GAP_ECHO, "  direction: min", "  shift: {'Z': 1}", "  tolerance: 1e-06",
        "  lp=-0.400000000 closed-form=-0.400000000 delta=0.000e+00 (certified)",
    ),
    "relax_exact": _table(
        "relax", *_GAP_ECHO, "  shift: {'Z': 1}", "  approx-grounding: -0.600000 (exact-lp)",
    ),
    "relax_proxy": _table(
        "relax", "  baseline: 0", "  context: {}", f"  data: {_MEDAI}", "  decision: 1",
        "  shift: {'Z': 1}", "  proxy: -0.640000 (closed-form)",
    ),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_table_reports(name, capsys, monkeypatch):
    argv = GOLDEN_CASES[name] + ["--format", "table"]
    assert run_inprocess(argv, capsys, monkeypatch) == (0, _TABLES[name], "")


def test_table_report_prints_interval_warnings(capsys, monkeypatch):
    argv = GOLDEN_CASES["bounds_covariate_shift"] + ["--format", "table"]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert code == 0
    assert out.endswith(
        "  [-0.555556, +1.000000]  preference (covariate-shift, not tight)\n"
        "  warning: upper bound is the mirrored lower bound of the swapped pair, "
        "not a stated result\n"
    )


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_both_report_formats_refuse_a_non_finite_value(fmt):
    from beliefbound.errors import InputError
    from beliefbound.report import Report

    report = Report(
        "relax", {}, relaxation={"kind": "proxy", "method": "closed-form",
                                 "value": float("nan")},
    )
    with pytest.raises(InputError, match=r"non-finite value at report\.relaxation\.value"):
        report.render(fmt)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_predict_refuses_a_non_finite_margin(raw, fmt, capsys, monkeypatch):
    argv = GOLDEN_CASES["predict_weak"] + ["--lambda", raw, "--format", fmt]
    assert run_inprocess(argv, capsys, monkeypatch) == (
        2, "", f"error: margin must be a finite number >= 0, got {raw}\n"
    )


def test_a_float_domain_value_names_its_cell(tmp_path, capsys, monkeypatch):
    # The fixture with Z relabelled 0 -> 0.5, 1 -> 1.5 gives the fixture's
    # interval at Z=1.5.
    doc = json.loads((REPO / _MEDAI).read_text())
    for table in doc["per_decision"].values():
        next(r for r in table["scope"] if r["name"] == "Z")["domain"] = [0.5, 1.5]
        for entry in table["entries"]:
            entry["assignment"]["Z"] += 0.5
    path = tmp_path / "float_z.json"
    path.write_text(json.dumps(doc))
    argv = ["bounds", "--data", str(path), "--theorem", "intervention", "--shift", "Z=1.5",
            "--context", "Z=1.5", "--decision", "1", "--baseline", "0"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, err) == (0, "")
    _, expected, _ = run_inprocess(GOLDEN_CASES["bounds_intervention"], capsys, monkeypatch)
    ends = [(i["lower"], i["upper"]) for i in json.loads(out)["intervals"]]
    assert ends == [(i["lower"], i["upper"]) for i in json.loads(expected)["intervals"]]


@pytest.mark.parametrize("method", [[], ["--method", "sample", "--seed", "3"]],
                         ids=["exact-lp", "sample"])
def test_ball_relaxation_refuses_a_shift_value_outside_its_domain(
    method, capsys, monkeypatch
):
    argv = ["relax", "--data", _MEDAI, "--kind", "approx-grounding", "--delta", "0.1",
            *method, "--shift", "Z=7", "--context", "Z=7", "--decision", "1",
            "--baseline", "0"]
    assert run_inprocess(argv, capsys, monkeypatch) == (
        2, "", "error: value 7 not in domain of 'Z' (0, 1)\n"
    )


def test_oracle_refuses_a_context_value_outside_its_domain(tmp_path, capsys, monkeypatch):
    w, y, z = (VariableRef(name, (0, 1)) for name in "WYZ")
    uniform = DistTable((w, y, z), {cell: Fraction(1, 8) for cell in product((0, 1), repeat=3)})
    path = tmp_path / "wyz.json"
    path.write_text(json.dumps(fileio.dump_dataset(
        BehaviouralDataset(VariableRef("D", (0, 1)), {0: uniform, 1: uniform})
    )))
    argv = ["oracle", "--data", str(path), "--direction", "min", "--shift", "Z=1",
            "--context", "W=7", "--decision", "1", "--baseline", "0"]
    assert run_inprocess(argv, capsys, monkeypatch) == (
        2, "", "error: value 7 not in domain of 'W' (0, 1)\n"
    )


def _wyz_file(tmp_path, cells):
    """`wyz_dataset(cells)` written as a dataset file."""
    path = tmp_path / "wyz.json"
    path.write_text(json.dumps(fileio.dump_dataset(wyz_dataset(cells))))
    return str(path)


def test_oracle_prints_a_zero_max_gap_as_positive_zero(tmp_path, capsys, monkeypatch):
    argv = ["oracle", "--data", _wyz_file(tmp_path, [(1, 1, 1)]), "--shift", "Z=1",
            "--context", "Z=1", "--decision", "1", "--baseline", "0", "--direction", "max"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert '"lp_value": 0.0,' in out and "-0.0" not in out


def test_oracle_exits_two_on_a_context_of_no_mass(tmp_path, capsys, monkeypatch):
    skeleton = tmp_path / "skeleton.json"
    skeleton.write_text(json.dumps({"variables": [
        {"name": "W"}, {"name": "Z"}, {"name": "Y", "parents": ["D", "W", "Z"]},
    ]}))
    data = _wyz_file(tmp_path, [(0, 0, 0), (0, 1, 1), (0, 0, 1)])
    argv = ["oracle", "--data", data, "--skeleton", str(skeleton), "--shift", "Z=1",
            "--context", "W=1", "--decision", "1", "--baseline", "0", "--direction", "min"]
    assert run_inprocess(argv, capsys, monkeypatch) == (2, "", (
        "error: event {'W': 1, 'Z': 1} has zero probability in the table\n"
    ))


def test_oracle_refuses_a_question_the_closed_form_refuses_before_building(
    capsys, monkeypatch
):
    from beliefbound import oracle

    calls = []
    build = oracle.build_polytope
    monkeypatch.setattr(oracle, "build_polytope", lambda *a: calls.append(a) or build(*a))
    argv = ["oracle", "--data", _MEDAI, "--shift", "Y=1", "--decision", "1",
            "--baseline", "0", "--direction", "min"]
    assert run_inprocess(argv, capsys, monkeypatch) == (2, "", (
        "error: the question fixes the utility Y=1, which fixes its gap by definition\n"
    ))
    assert calls == []


def test_assignment_parser():
    from beliefbound.cli import parse_assignment
    from beliefbound.errors import InputError

    assert parse_assignment("Z=1,W=a") == {"Z": 1, "W": "a"}
    # Values read as CSV cells do: an int, else a float, else the text.
    assert parse_assignment("Z=1.5,W=1e3,V= a ") == {"Z": 1.5, "W": 1000.0, "V": "a"}
    assert parse_assignment(None) == {}
    with pytest.raises(InputError):
        parse_assignment("Z=1,Z=0")
    with pytest.raises(InputError):
        parse_assignment("Z:1")


def test_sigma_parser_completes_binary_remainder(medai):
    from beliefbound.cli import parse_sigma_context

    table = parse_sigma_context("Z=1:0.9", medai)
    assert table.prob({"Z": 1}) == pytest.approx(0.9)
    assert table.prob({"Z": 0}) == pytest.approx(0.1)
    full = parse_sigma_context("Z=1:0.25;Z=0:0.75", medai)
    assert full.prob({"Z": 0}) == pytest.approx(0.75)


@pytest.mark.parametrize(
    "sigma, message",
    [
        ("Z=1:0.5;Z=1:0.4", "repeated cell in shifted-covariate chunk 'Z=1:0.4'"),
        ("Z=1:abc", "bad probability in shifted-covariate chunk 'Z=1:abc'"),
    ],
)
def test_sigma_context_rejects_a_repeated_cell_and_an_unreadable_probability(
    sigma, message, capsys, monkeypatch
):
    argv = [a if a != "Z=1:0.9" else sigma for a in GOLDEN_CASES["bounds_covariate_shift"]]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_PREFERENCE_FIXTURES = ("medai.tables.json", "medai_experiment.tables.json")


def test_predict_certificates_carry_the_bounds_lower_end(capsys, monkeypatch):
    from beliefbound.cli import _PREFERENCE

    compared = 0
    for theorem in _PREFERENCE:
        for fixture in _PREFERENCE_FIXTURES:
            question = ["--data", f"{FIXTURES}/{fixture}", "--theorem", theorem,
                        "--shift", "Z=1", "--context", "Z=1"]
            for mode in ("weak", "strong"):
                code, out, _ = run_inprocess(
                    ["predict", *question, "--mode", mode], capsys, monkeypatch
                )
                assert code == 0
                for cert in json.loads(out)["verdict"]["certificates"]:
                    pair = ["--decision", str(cert["preferred"]),
                            "--baseline", str(cert["ruled_out"])]
                    code, out, _ = run_inprocess(
                        ["bounds", *question, *pair], capsys, monkeypatch
                    )
                    assert code == 0
                    assert json.loads(out)["intervals"][0]["lower"] == cert["lower"]
                    compared += 1
    assert compared == 2  # multidomain rules 0 out on the experiment, in both modes


def test_report_version_is_the_package_version():
    import beliefbound
    from beliefbound.report import Report

    assert Report("bounds", {}).as_dict()["version"] == beliefbound.__version__


# -- exit-code contract (subprocess harness) ----------------------------------


def test_exit_zero_on_success():
    result = run_subprocess(GOLDEN_CASES["bounds_intervention"])
    assert result.returncode == 0
    assert result.stderr == ""


def test_exit_two_on_parse_error():
    result = run_subprocess(
        ["bounds", "--data", "no-such-file.json", "--theorem", "intervention",
         "--shift", "Z=1", "--context", "Z=1", "--decision", "1", "--baseline", "0"]
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("content", [None, "[1]", "{"])
def test_unknown_shift_reads_a_given_data_file(content, tmp_path, capsys, monkeypatch):
    """The interval is [-1, 1] whatever the data, but a missing or malformed
    --data file is an error, as for every other theorem."""
    path = tmp_path / "data.json"
    if content is not None:
        path.write_text(content)
    argv = ["bounds", "--theorem", "unknown-shift", "--data", str(path)]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    argv[-1] = f"{FIXTURES}/medai.tables.json"
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert code == 0
    ((interval,),) = [json.loads(out)["intervals"]]
    assert (interval["lower"], interval["upper"]) == (-1.0, 1.0)


@pytest.mark.parametrize(
    "context, message",
    [
        ("Z=0", "conflicting values for 'Z': 0 vs 1"),
        ("Y=1", "{what} is implemented for the reduced objective with context inside the "
                "shift; got context {{'Y': 1}} vs shift {{'Z': 1}}"),
    ],
    ids=["conflicting", "outside"],
)
@pytest.mark.parametrize(
    "kind, what",
    [(["approx-grounding", "--delta", "0.1"], "the ball relaxation"),
     (["proxy", "--alpha", "0.9"], "the proxy bound")],
    ids=["ball", "proxy"],
)
def test_relaxations_need_the_context_inside_the_shift(
    kind, what, context, message, capsys, monkeypatch
):
    argv = ["relax", "--data", f"{FIXTURES}/medai.tables.json", "--kind", *kind,
            "--shift", "Z=1", "--context", context, "--decision", "1", "--baseline", "0"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message.format(what=what)}\n")


_PAIR = ["--decision", "1", "--baseline", "0"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["bounds", "--theorem", "intervention", "--shift", "Y=1", *_PAIR], 1),
        (["oracle", "--direction", "min", "--shift", "Y=1", *_PAIR], 1),
        (["bounds", "--theorem", "intervention", "--shift", "Z=1", "--context", "Y=1", *_PAIR], 1),
        (["bounds", "--theorem", "fairness", "--decision", "1", "--attribute-baseline", "Y=0"], 0),
        (["bounds", "--theorem", "direct-discrimination", "--decision", "1",
          "--attribute-baseline", "Y=0", "--attribute-value", "Y=1"], 0),
        (["bounds", "--theorem", "harm", "--context", "Y=1", *_PAIR], 1),
    ],
    ids=["shift", "oracle", "context", "fairness", "direct-discrimination", "harm"],
)
def test_a_question_that_fixes_the_utility_exits_two(argv, value, capsys, monkeypatch):
    argv = [*argv, "--data", f"{FIXTURES}/medai.tables.json"]
    assert run_inprocess(argv, capsys, monkeypatch) == (
        2, "", f"error: the question fixes the utility Y={value}, which fixes its gap by "
               "definition\n",
    )


def test_a_dataset_whose_tables_list_other_domains_exits_two(tmp_path, capsys, monkeypatch):
    doc = json.loads((REPO / FIXTURES / "medai.tables.json").read_text())
    scope = doc["per_decision"]["1"]["scope"]
    z = next(ref for ref in scope if ref["name"] == "Z")
    z["domain"] = z["domain"][::-1]
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(doc))
    argv = ["bounds", "--theorem", "intervention", "--data", str(path), *_GAP]
    assert run_inprocess(argv, capsys, monkeypatch) == (
        2, "", "error: table of decision 1 in domain (base) lists 'Z' as (1, 0), "
               "expected (0, 1)\n",
    )


def test_default_skeleton_lets_context_respond_to_shift(tmp_path, capsys, monkeypatch):
    # Hidden model: W <- (Z, U), Y <- (D, W, U).  The default skeleton must let
    # the context W respond to do(Z=1), or the LP optimises over a model class
    # that excludes the closed form's witness and reports a false mismatch.
    d, z, w, y = (VariableRef(name, (0, 1)) for name in "DZWY")
    u = VariableRef("U", (0, 1, 2, 3))
    w_out = [[0, 1, 1, 1], [0, 0, 1, 1]]
    y_out = [[[0, 0, 1, 0], [0, 1, 0, 0]], [[1, 1, 0, 0], [1, 1, 1, 1]]]
    model = Scm(
        (d, w, y, z),
        {
            "D": Mechanism.constant(d, 0),
            "Z": Mechanism.from_function(z, (), (u,), lambda a: a["U"] % 2),
            "W": Mechanism.from_function(w, (z,), (u,), lambda a: w_out[a["Z"]][a["U"]]),
            "Y": Mechanism.from_function(
                y, (d, w), (u,), lambda a: y_out[a["D"]][a["W"]][a["U"]]
            ),
        },
        ExoDistribution((u,), tuple(((i,), 0.25) for i in range(4))),
    )
    path = tmp_path / "wyz.json"
    path.write_text(json.dumps(fileio.dump_dataset(scm_dataset(model, "D"))))
    for direction in ("min", "max"):
        argv = ["oracle", "--data", str(path), "--shift", "Z=1", "--context", "Z=1,W=1",
                "--direction", direction, "--decision", "1", "--baseline", "0"]
        code, out, _ = run_inprocess(argv, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["oracle"]["certified"] is True


def test_exit_two_on_domain_error(tmp_path):
    # Skew the treated Z-marginal away from the untreated one: no
    # decision-independent Z root can generate both tables.
    doc = json.loads((REPO / FIXTURES / "medai.tables.json").read_text())
    patch = {(0, 0): "0.5", (1, 0): "0.3", (1, 1): "0.2"}
    for entry in doc["per_decision"]["1"]["entries"]:
        key = (entry["assignment"]["Y"], entry["assignment"]["Z"])
        entry["p"] = patch[key]
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    result = run_subprocess(
        ["oracle", "--data", str(bad), "--direction", "min", "--shift", "Z=1",
         "--context", "Z=1", "--decision", "1", "--baseline", "0"]
    )
    assert result.returncode == 2
    assert "infeasible" in result.stderr


def test_exit_two_when_simplex_hits_pivot_cap(capsys, monkeypatch):
    from beliefbound import lp

    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    code, out, err = run_inprocess(GOLDEN_CASES["oracle_min"], capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "pivots" in err
    assert err.count("\n") == 1


def test_exit_three_when_verdict_required(capsys, monkeypatch):
    argv = GOLDEN_CASES["predict_weak"] + ["--require-verdict"]
    result = run_subprocess(argv)
    assert result.returncode == 3
    assert "ruled out" in result.stderr


def test_exit_four_on_certification_mismatch(tmp_path):
    """With Y <- D only, do(Z = 1) cannot move Y, so the LP pins the gap at
    0.2 while thm1 claims [-0.4, 0.8] as tight: both ends miss by 0.6."""
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps({
        "variables": [{"name": "Y", "parents": ["D"]}, {"name": "Z", "parents": []}]
    }))
    for name in ("oracle_min", "oracle_max"):
        result = run_subprocess([*GOLDEN_CASES[name], "--skeleton", str(path)])
        assert result.returncode == 4
        assert json.loads(result.stdout)["oracle"]["delta"] == pytest.approx(0.6, abs=1e-12)
        assert result.stderr == "error: oracle delta 6.000e-01 exceeds tolerance 1.000e-06\n"


def test_fixture_certifies_at_zero_tolerance(capsys, monkeypatch):
    """The gap's value is an exactly rounded class sum, so the fixture's
    lower end reads -0.4 to the bit."""
    argv = GOLDEN_CASES["oracle_min"] + ["--tol", "0"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"]["delta"] == 0.0


def test_exit_five_on_atom_limit():
    result = run_subprocess(
        GOLDEN_CASES["oracle_min"], env={"BELIEFBOUND_ATOM_LIMIT": "8"}
    )
    assert result.returncode == 5
    assert "atom" in result.stderr.lower()


def test_atom_limit_over_the_cap_names_the_full_count(capsys, monkeypatch):
    monkeypatch.setenv("BELIEFBOUND_ATOM_LIMIT", "8")
    code, out, err = run_inprocess(GOLDEN_CASES["oracle_min"], capsys, monkeypatch)
    assert (code, out) == (5, "")
    assert err == (
        "error: canonical space needs 32 atoms, over the cap of 8 "
        "(set BELIEFBOUND_ATOM_LIMIT to raise it)\n"
    )


@pytest.mark.parametrize("raw", ["inf", "1e400", "abc", "nan", " ", "0", "-5", "2.5"])
def test_malformed_atom_limit_variable_is_an_input_error(raw, capsys, monkeypatch):
    monkeypatch.setenv("BELIEFBOUND_ATOM_LIMIT", raw)
    code, out, err = run_inprocess(GOLDEN_CASES["oracle_min"], capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: BELIEFBOUND_ATOM_LIMIT must be a positive integer, got {raw!r}\n"


@pytest.mark.parametrize("raw", ["0", "-5", "abc", "inf"])
def test_malformed_atom_limit_flag_is_an_input_error(raw, capsys, monkeypatch):
    argv = GOLDEN_CASES["oracle_min"] + [f"--atom-limit={raw}"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: --atom-limit must be a positive integer, got {raw!r}\n"


@pytest.mark.parametrize("raw", ["-1", "nan", "inf", "-inf"])
def test_tolerance_must_be_finite_and_non_negative(raw, capsys, monkeypatch):
    argv = GOLDEN_CASES["oracle_min"] + [f"--tol={raw}"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite number >= 0") and err.count("\n") == 1


def test_lambda_flag_blocks_verdict(capsys, monkeypatch):
    argv = GOLDEN_CASES["predict_strong"] + ["--lambda", "0.7"]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["ruled_out"] == []
    assert report["verdict"]["strong_winner"] is None


def test_sample_without_seed_is_an_error():
    argv = [
        "relax", "--data", f"{FIXTURES}/medai.tables.json", "--kind", "approx-grounding",
        "--delta", "0.1", "--method", "sample", "--shift", "Z=1",
        "--decision", "1", "--baseline", "0",
    ]
    result = run_subprocess(argv)
    assert result.returncode == 2
    assert "seed" in result.stderr


@pytest.mark.parametrize("concentration", ["-1", "0", "nan", "inf"])
def test_exit_two_on_bad_concentration(concentration, capsys, monkeypatch):
    argv = GOLDEN_CASES["relax_sample_seed7"] + ["--concentration", concentration]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: concentration must be finite and > 0, got {float(concentration)}\n"


@pytest.mark.parametrize(
    "fixture, where",
    [
        ("medai_experiment.tables.json", ("per_decision",)),
        ("medai_experiment.tables.json", ("domains", 0, "per_decision")),
        ("medai.scm.json", ("mechanisms",)),
    ],
)
def test_exit_two_when_an_object_field_is_a_list(fixture, where, tmp_path):
    doc = json.loads((REPO / FIXTURES / fixture).read_text())
    values = list(functools.reduce(operator.getitem, where, doc).values())
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps(_replaced(doc, where, values)))
    result = run_subprocess(
        ["bounds", "--data", str(bad), "--theorem", "harm", "--decision", "1", "--baseline", "0"]
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:") and where[-1] in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "intervened, message",
    [
        (None, "domain 'do_z1' has tables for decisions ['1'], expected (0, 1)"),
        ({"Z": 1, "Q": 0},
         "domain 'do_z1' intervenes on 'Q', not a variable of its tables ('Y', 'Z')"),
        ({"Q": 1}, "domain 'do_z1' intervenes on 'Q', not a variable of its tables ('Y', 'Z')"),
        ({"D": 1}, "domain 'do_z1' intervenes on 'D', not a variable of its tables ('Y', 'Z')"),
        ({"Z": 7}, "domain 'do_z1' fixes Z=7, outside its domain"),
        ({"Z": [1]}, "domain 'do_z1' fixes Z=[1], outside its domain"),
    ],
)
def test_exit_two_on_a_domain_its_tables_cannot_describe(
    intervened, message, tmp_path, capsys, monkeypatch
):
    """A domain must have a table for every decision (`None`: the fixture's
    domain without its decision-0 table) and intervene only on its tables'
    variables, within their domains."""
    doc = json.loads((REPO / FIXTURES / "medai_experiment.tables.json").read_text())
    domain = doc["domains"][0]
    if intervened is None:
        del domain["per_decision"]["0"]
    else:
        domain["intervened"] = intervened
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    for command in (
        ["oracle", "--direction", "min"],
        ["bounds", "--theorem", "multidomain"],
    ):
        argv = [command[0], "--data", str(path), *command[1:], *_GAP]
        assert run_inprocess(argv, capsys, monkeypatch) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "skeleton, message",
    [
        ({}, "skeleton lacks field 'variables'"),
        ({"variables": [{"domain": [0, 1]}]}, "skeleton variables entry lacks field 'name'"),
        ({"variables": [{"name": "Z"}, 3]},
         "skeleton variables entry must be a JSON object, not 3"),
        ({"variables": None}, "skeleton field 'variables' must be a JSON array, not None"),
        ({"variables": [{"name": "Y", "parents": None}]},
         "skeleton variable 'Y' field 'parents' must be a JSON array, not None"),
        ({"variables": [{"name": "Z", "domain": [[0], 1]}, {"name": "Y"}]},
         "domain mismatch for 'Z': skeleton ([0], 1) vs data (0, 1)"),
    ],
)
def test_exit_two_on_malformed_skeleton(skeleton, message, tmp_path, capsys, monkeypatch):
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(skeleton))
    argv = [*GOLDEN_CASES["oracle_min"], "--skeleton", str(path)]
    assert run_inprocess(argv, capsys, monkeypatch) == (2, "", f"error: {message}\n")


def test_explicit_skeleton_reproduces_the_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(_SKELETON))
    argv = [*GOLDEN_CASES["oracle_min"], "--skeleton", str(path)]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out) == (0, (GOLDEN / "oracle_min.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1e400/3"])
@pytest.mark.parametrize(
    "fixture, where",
    [
        ("medai.tables.json", ("per_decision", "0", "entries", 0, "p")),
        ("medai.scm.json", ("exogenous_distribution", 0, "p")),
    ],
    ids=["table", "exogenous"],
)
def test_exit_two_on_a_probability_literal_too_large_for_a_float(
    literal, fixture, where, tmp_path, capsys, monkeypatch
):
    doc = json.loads((REPO / FIXTURES / fixture).read_text())
    path = tmp_path / fixture
    path.write_text(json.dumps(_replaced(doc, where, literal)))
    argv = ["bounds", "--data", str(path), "--theorem", "harm", "--decision", "1",
            "--baseline", "0"]
    code, out, err = run_inprocess(argv, capsys, monkeypatch)
    assert (code, out, err) == (2, "", f"error: bad probability literal {literal!r}\n")


def test_exit_two_on_json_nested_too_deeply(tmp_path, capsys, monkeypatch):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_inprocess(
        ["bounds", "--data", str(deep), "--theorem", "harm", "--decision", "1",
         "--baseline", "0"], capsys, monkeypatch
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested" in err and err.count("\n") == 1


def test_oracle_certifies_the_pooled_bound_on_experimental_data(capsys, monkeypatch):
    # The experimental domain constrains the LP, so the closed form it must
    # match is the pooled multi-domain interval, not the single-domain one.
    for direction in ("min", "max"):
        argv = ["oracle", "--data", f"{FIXTURES}/medai_experiment.tables.json",
                "--direction", direction, "--shift", "Z=1", "--context", "Z=1",
                "--decision", "1", "--baseline", "0"]
        code, out, _ = run_inprocess(argv, capsys, monkeypatch)
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["certified"] is True
        assert oracle["closed_form"] == pytest.approx(0.6, abs=1e-12)


def test_oracle_pools_only_the_domains_that_agree_with_the_shift(capsys, monkeypatch):
    # The fixture's experimental domain fixes Z=1; under do(Z=0) it cannot be
    # pooled, so the certified closed form is the base-only (thm1) interval.
    thm1 = ["bounds", "--theorem", "intervention", "--data",
            f"{FIXTURES}/medai_experiment.tables.json", "--shift", "Z=0",
            "--context", "Z=0", "--decision", "1", "--baseline", "0"]
    code, out, _ = run_inprocess(thm1, capsys, monkeypatch)
    assert code == 0
    (interval,) = json.loads(out)["intervals"]
    for direction, endpoint in (("min", "lower"), ("max", "upper")):
        argv = ["oracle", "--data", f"{FIXTURES}/medai_experiment.tables.json",
                "--direction", direction, "--shift", "Z=0", "--context", "Z=0",
                "--decision", "1", "--baseline", "0"]
        code, out, _ = run_inprocess(argv, capsys, monkeypatch)
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["certified"] is True
        assert oracle["closed_form"] == interval[endpoint]


# -- utility domains narrower than [0, 1] --------------------------------------


def _relabelled(doc: dict, values: dict) -> dict:
    """A dataset document with every table's Y values renamed by `values`."""
    out = json.loads(json.dumps(doc))
    tables = [*out["per_decision"].values()]
    tables += [t for dom in out.get("domains", ()) for t in dom["per_decision"].values()]
    for table in tables:
        for ref in table["scope"]:
            if ref["name"] == "Y":
                ref["domain"] = [values[v] for v in ref["domain"]]
        for entry in table["entries"]:
            entry["assignment"]["Y"] = values[entry["assignment"]["Y"]]
    return out


def _oracle(path, direction, capsys, monkeypatch) -> tuple[int, dict]:
    argv = ["oracle", "--data", str(path), "--direction", direction, "--shift", "Z=1",
            "--context", "Z=1", "--decision", "1", "--baseline", "0"]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    return code, json.loads(out)["oracle"]


def test_relabelled_fixture_certifies_in_both_directions(tmp_path, capsys, monkeypatch):
    # The fixture with Y in {0, 0.5}: unobserved mass goes to 0 and 0.5, so
    # the closed form is half the fixture's [-0.4, 0.8], as the LP says.
    doc = json.loads((REPO / FIXTURES / "medai.tables.json").read_text())
    path = tmp_path / "half.json"
    path.write_text(json.dumps(_relabelled(doc, {0: 0, 1: 0.5})))
    for direction, value in (("min", -0.2), ("max", 0.4)):
        code, oracle = _oracle(path, direction, capsys, monkeypatch)
        assert code == 0 and oracle["certified"] is True
        assert oracle["closed_form"] == pytest.approx(value, abs=1e-12)
    argv = ["bounds", "--data", str(path), "--theorem", "fairness", "--decision", "1",
            "--attribute-baseline", "Z=0"]
    code, out, _ = run_inprocess(argv, capsys, monkeypatch)
    (interval,) = json.loads(out)["intervals"]
    assert code == 0 and interval["tight"] is True
    assert interval["lower"] == pytest.approx(-1 / 6, abs=1e-12)
    assert interval["upper"] == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("domain", [(0, 0.5), (0.2, 0.7), (0.1, 0.4, 0.9)])
@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_oracle_certifies_any_utility_range(domain, exact, tmp_path, capsys, monkeypatch):
    """thm1 (base tables only) and thm2 (with the do(Z=1) domain) match the LP
    at the default tolerance in both directions, for hidden models whose
    utility takes the listed values."""
    y = VariableRef("Y", domain)
    for seed in range(3):
        pooled = scm_dataset(random_behaviour_model(seed, y=y), "D", domains=[("exp", {"Z": 1})])
        if not exact:
            def to_float(tables):
                return {d: DistTable(t.scope, {k: float(p) for k, p in t.entries.items()})
                        for d, t in tables.items()}

            pooled = replace(
                pooled,
                per_decision=to_float(pooled.per_decision),
                domains=tuple(replace(dom, per_decision=to_float(dom.per_decision))
                              for dom in pooled.domains),
            )
        for data in (replace(pooled, domains=()), pooled):
            path = tmp_path / f"data{seed}.json"
            path.write_text(json.dumps(fileio.dump_dataset(data)))
            for direction in ("min", "max"):
                code, oracle = _oracle(path, direction, capsys, monkeypatch)
                assert (code, oracle["certified"]) == (0, True), (seed, direction, oracle)


# -- start-up: numpy stays off the closed-form path ----------------------------

_IMPORT_PROBE = """
import contextlib, io, json, sys
import beliefbound, beliefbound.cli
runs = [("import", "numpy" in sys.modules, "")]
for name, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = beliefbound.cli.main(argv)
    runs.append((name, "numpy" in sys.modules, out.getvalue() if code == 0 else code))
print(json.dumps(runs))
"""


def test_closed_form_commands_never_import_numpy():
    names = ["bounds_intervention", "predict_weak", "relax_proxy", "relax_exact", "oracle_min"]
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE,
         json.dumps([(name, GOLDEN_CASES[name]) for name in names])],
        capture_output=True, text=True, cwd=REPO, check=True,
    )
    runs = json.loads(result.stdout)
    assert [(name, numpy) for name, numpy, _ in runs] == [
        ("import", False), ("bounds_intervention", False), ("predict_weak", False),
        ("relax_proxy", False), ("relax_exact", False), ("oracle_min", True),
    ]
    for name, _, out in runs[1:]:
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_package_exports_resolve_on_first_access():
    import beliefbound

    namespace: dict = {}
    exec("from beliefbound import *", namespace)
    assert set(beliefbound.__all__) <= set(namespace) & set(dir(beliefbound))
    for name in beliefbound.__all__:
        assert getattr(beliefbound, name) is namespace[name]
    assert set(beliefbound.__all__) <= set(vars(beliefbound))  # resolved once, cached
    for module in ("bounds", "lp", "oracle", "relaxations", "scm", "tables"):
        assert getattr(beliefbound, module).__name__ == f"beliefbound.{module}"
    with pytest.raises(AttributeError):
        beliefbound.no_such_name


# -- malformed inputs (fuzz) ---------------------------------------------------

_NAMES = st.sampled_from(["D", "Y", "Z", "W"])
_VALUES = st.one_of(st.integers(0, 2), st.sampled_from(["0", "a"]))
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=3), _NAMES
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(_NAMES, st.text(max_size=3)), inner, max_size=3),
    ),
    max_leaves=6,
)


def _shaped(strategy):
    """Mostly the well-formed shape, sometimes any JSON value in its place."""
    return st.one_of(_JSON, strategy, strategy, strategy)


_VARIABLE = st.fixed_dictionaries(
    {"name": _shaped(_NAMES), "domain": _shaped(st.lists(_VALUES, max_size=3))}
)
_PROB = st.one_of(
    st.sampled_from(["1/2", "1/4", "0", "1", "-1/3", "1/0", "x", "1e400"]),
    st.floats(-0.5, 1.5),
    st.floats(),
    st.integers(-1, 2),
)
_ENTRY = st.fixed_dictionaries(
    {"assignment": _shaped(st.dictionaries(_NAMES, _VALUES, max_size=3)), "p": _shaped(_PROB)}
)
_TABLE = st.fixed_dictionaries(
    {
        "scope": _shaped(st.lists(_shaped(_VARIABLE), max_size=3)),
        "entries": _shaped(st.lists(_shaped(_ENTRY), max_size=6)),
    }
)
_PER_DECISION = st.dictionaries(st.sampled_from(["0", "1", "2", "a"]), _shaped(_TABLE), max_size=3)
_DOMAIN = st.fixed_dictionaries(
    {
        "label": _shaped(st.text(max_size=3)),
        "intervened": _shaped(st.dictionaries(_NAMES, _VALUES, max_size=2)),
        "per_decision": _shaped(_PER_DECISION),
    }
)
_DATASET = st.fixed_dictionaries(
    {"decision": _shaped(_VARIABLE), "per_decision": _shaped(_PER_DECISION)},
    optional={"utility": _shaped(_NAMES), "domains": _shaped(st.lists(_DOMAIN, max_size=2))},
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _replaced(doc, where, value):
    """A copy of ``doc`` with the subtree at key path ``where`` set to ``value``."""
    if not where:
        return value
    out = json.loads(json.dumps(doc))
    functools.reduce(operator.getitem, where[:-1], out)[where[-1]] = value
    return out


def _mutated(doc: Path | dict):
    """The document (or the one at path ``doc``) with one subtree replaced by
    any JSON value; every depth is as likely as any other, so top-level keys
    get hit too."""
    if not isinstance(doc, dict):
        doc = json.loads((REPO / doc).read_text(encoding="utf-8"))
    by_depth: dict[int, list] = {}
    for where in _paths(doc):
        by_depth.setdefault(len(where), []).append(where)
    wheres = st.sampled_from(sorted(by_depth)).flatmap(lambda k: st.sampled_from(by_depth[k]))
    return st.builds(functools.partial(_replaced, doc), wheres, _JSON)


def _filled(weights, exact, domain):
    """Dataset over (Y, Z), one table per weight list, cells in (Y, Z) order.
    `domain` adds a do(Z=1) domain that keeps each list's Z=1 cells ("z1"),
    the same without decision 0's table ("omit"), or one that intervenes on W,
    which the tables do not hold, as well ("w")."""

    def table(ws):
        total = sum(ws) or 1
        return {
            "scope": [{"name": "Y", "domain": [0, 1]}, {"name": "Z", "domain": [0, 1]}],
            "entries": [
                {"assignment": {"Y": y, "Z": z}, "p": f"{w}/{total}" if exact else w / total}
                for (y, z), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), ws)
            ],
        }

    doc = {
        "decision": {"name": "D", "domain": list(range(len(weights)))},
        "per_decision": {str(d): table(ws) for d, ws in enumerate(weights)},
    }
    if domain:
        per_decision = {str(d): table([0, ws[1], 0, ws[3]]) for d, ws in enumerate(weights)}
        if domain == "omit":
            del per_decision["0"]
        intervened = {"Z": 1, "W": 0} if domain == "w" else {"Z": 1}
        doc["domains"] = [{"label": "exp", "intervened": intervened, "per_decision": per_decision}]
    return doc


_FILLED = st.builds(
    _filled,
    st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=2, max_size=3),
    st.booleans(),
    st.sampled_from([None, "z1", "omit", "w"]),
)
_DOCUMENTS = st.one_of(
    _DATASET,
    _TABLE,
    _FILLED,
    _mutated(Path(FIXTURES) / "medai_experiment.tables.json"),
    _mutated(Path("tests/data/policy_joint.json")),
    _mutated(Path(FIXTURES) / "medai.scm.json"),
)
_LOGS = st.builds(
    lambda header, rows: "\n".join(",".join(cells) for cells in [header, *rows]) + "\n",
    st.lists(st.sampled_from(["D", "Y", "Z", "weight"]), max_size=5),
    st.lists(
        st.lists(st.sampled_from(["0", "1", "", "a", "0.5", "-1", "nan", "1e400"]), max_size=5),
        max_size=8,
    ),
)
_FILES = st.one_of(
    _DOCUMENTS.map(lambda doc: ("input.json", json.dumps(doc))),
    _LOGS.map(lambda text: ("log.csv", text)),
)
_GAP = ["--shift", "Z=1", "--context", "Z=1", "--decision", "1", "--baseline", "0"]
_COMMANDS = [
    ["bounds", "--theorem", "intervention", *_GAP],
    ["bounds", "--theorem", "multidomain", *_GAP],
    ["bounds", "--theorem", "covariate-shift", "--sigma-context", "Z=1:0.9", *_GAP],
    ["bounds", "--theorem", "fairness", "--decision", "1", "--attribute-baseline", "Z=0"],
    ["bounds", "--theorem", "harm", "--decision", "1", "--baseline", "0"],
    ["bounds", "--theorem", "direct-discrimination", "--decision", "1",
     "--attribute-baseline", "Z=0", "--attribute-value", "Z=1"],
    ["bounds", "--theorem", "causal-harm", "--decision", "1", "--baseline", "0"],
    ["predict", "--theorem", "intervention", "--shift", "Z=1", "--context", "Z=1",
     "--mode", "weak", "--require-verdict"],
    ["predict", "--theorem", "multidomain", "--shift", "Z=1", "--context", "Z=1",
     "--mode", "strong"],
    ["oracle", "--direction", "min", "--atom-limit", "4096", *_GAP],
    ["relax", "--kind", "approx-grounding", "--delta", "0.1", *_GAP],
    ["relax", "--kind", "approx-grounding", "--delta", "0.1", "--method", "sample",
     "--samples", "20", "--seed", "1", *_GAP],
    ["relax", "--kind", "proxy", "--alpha", "0.9", *_GAP],
]


def _run_on_file(name: str, text: str, argv) -> str:
    """Run the CLI with ``{}`` in ``argv`` replaced by a file holding ``text``;
    check the exit contract and return stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if arg == "{}" else arg for arg in argv])
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (code, err)
    assert "Traceback" not in err
    # Name the missing or wrongly typed field instead.
    assert not err.startswith(("error: KeyError", "error: TypeError")), err
    assert err.count("\n") == (code != 0), err
    if code == 0:
        json.loads(out.getvalue())
    return err


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_FILES, st.sampled_from(_COMMANDS))
def test_malformed_inputs_exit_with_one_line_diagnostic(file, command):
    _run_on_file(*file, [command[0], "--data", "{}", "--context-vars", "Z", *command[1:]])


_DOMAIN_COMMANDS = [cmd for cmd in _COMMANDS if cmd[0] == "oracle" or "multidomain" in cmd]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_FILLED, st.sampled_from(_DOMAIN_COMMANDS))
def test_domains_of_filled_datasets_exit_with_one_line_diagnostic(doc, command):
    """The commands that read a dataset's domains: a domain without a
    decision's table or intervening outside its tables is an error, and the
    oracle never reports a mismatch with a closed form it certifies."""
    argv = [command[0], "--data", "{}", "--context-vars", "Z", *command[1:]]
    err = _run_on_file("input.json", json.dumps(doc), argv)
    if any(
        "W" in dom["intervened"] or len(dom["per_decision"]) < len(doc["per_decision"])
        for dom in doc.get("domains", ())
    ):
        assert err, "a domain its tables cannot describe was accepted"
    assert not err.startswith("error: oracle delta"), err


_SKELETON_VARIABLE = st.fixed_dictionaries(
    {"name": _shaped(_NAMES)},
    optional={
        "domain": _shaped(st.lists(_VALUES, max_size=3)),
        "parents": _shaped(st.lists(_NAMES, max_size=3)),
    },
)
_SKELETONS = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"variables": _shaped(st.lists(_shaped(_SKELETON_VARIABLE), max_size=3))}
    ),
    _mutated(_SKELETON),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SKELETONS, st.sampled_from(["medai.tables.json", "medai_experiment.tables.json"]))
def test_malformed_skeletons_exit_with_one_line_diagnostic(skeleton, data):
    oracle = next(cmd for cmd in _COMMANDS if cmd[0] == "oracle")
    argv = [*oracle, "--data", f"{REPO / FIXTURES / data}", "--skeleton", "{}"]
    _run_on_file("skeleton.json", json.dumps(skeleton), argv)


def regenerate():
    import contextlib
    import io as iolib
    import os

    os.chdir(REPO)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        buffer = iolib.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert code == 0, (name, code)
        (GOLDEN / f"{name}.json").write_text(buffer.getvalue(), encoding="utf-8")
        print("wrote", name)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
