"""CLI contract: flags, report shapes, golden bytes, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
