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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefbound import fileio
from beliefbound.cli import main
from beliefbound.scm import ExoDistribution, Mechanism, Scm, scm_dataset
from beliefbound.tables import VariableRef

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


def test_assignment_parser():
    from beliefbound.cli import parse_assignment
    from beliefbound.errors import InputError

    assert parse_assignment("Z=1,W=a") == {"Z": 1, "W": "a"}
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


def test_exit_four_on_certification_mismatch():
    argv = GOLDEN_CASES["oracle_min"] + ["--tol", "1e-30"]
    result = run_subprocess(argv)
    assert result.returncode == 4
    assert "delta" in result.stderr


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
    names = ["bounds_intervention", "predict_weak", "relax_proxy", "oracle_min"]
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE,
         json.dumps([(name, GOLDEN_CASES[name]) for name in names])],
        capture_output=True, text=True, cwd=REPO, check=True,
    )
    runs = json.loads(result.stdout)
    assert [(name, numpy) for name, numpy, _ in runs] == [
        ("import", False), ("bounds_intervention", False), ("predict_weak", False),
        ("relax_proxy", False), ("oracle_min", True),
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


def _filled(weights, exact, with_domain):
    """Dataset over (Y, Z), one table per weight list, cells in (Y, Z) order;
    the optional do(Z=1) domain keeps each list's Z=1 cells."""

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
    if with_domain:
        per_decision = {str(d): table([0, ws[1], 0, ws[3]]) for d, ws in enumerate(weights)}
        doc["domains"] = [{"label": "exp", "intervened": {"Z": 1}, "per_decision": per_decision}]
    return doc


_FILLED = st.builds(
    _filled,
    st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=2, max_size=3),
    st.booleans(),
    st.booleans(),
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
