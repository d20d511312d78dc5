"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 bench/selftest.py
(The root test suite does not collect this file.)
"""

from __future__ import annotations

import sys
import traceback

import gen
import ladder
import run
from stats import percentile, tail_permille
from tracer import Tracer, install, self_times


def test_smallest_seed_certifies_at_every_rung():
    run.import_package()
    from tracer import Counters

    for rung, (_, atoms) in gen.RUNGS.items():
        model = gen.ladder_model(rung, 0)
        assert gen.canonical_atoms(model.roots) == atoms
        data, skeleton = ladder.setup({"docs": {rung: model.dataset_doc()}})[rung]
        variant = ladder.Variant(False, False, False, "min")
        truth = float(model.gap(1, 0, ladder.SHIFT, ladder.SHIFT))
        tracer = Tracer()
        install(tracer)
        try:
            assert ladder.certify(data, skeleton, variant, truth, Counters().counters) is None
        finally:
            tracer.uninstall()
        assert tracer.counters["oracle.atoms"] == atoms


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: union is 5);
    # a has child c [2, 3] and 0.5 of light calls charged to it.
    spans = [
        ["root", 0.0, 10.0, None, 0.0],
        ["a", 1.0, 4.0, 0, 0.5],
        ["b", 3.0, 6.0, 0, 0.0],
        ["c", 2.0, 3.0, 1, 0.0],
    ]
    assert self_times(spans) == [5.0, 1.5, 3.0, 1.0]


def test_tracer_summary_and_restore():
    run.import_package()
    from beliefbound import bounds, fileio, oracle, tables

    original_prob = tables.DistTable.prob
    original_query = tables.query
    tracer = Tracer()
    install(tracer)
    try:
        assert oracle.query is tables.query is not original_query  # alias wrapped too
        data = fileio.load_dataset(gen.LatentModel(1, {"Z": 2}).dataset_doc())
        bounds.thm1_gap_interval(data, {"Z": 1}, {"Z": 1}, 1, 0)
    finally:
        tracer.uninstall()
    assert tables.DistTable.prob is original_prob and tables.query is original_query
    summary = tracer.summary()
    row = summary["bounds.thm1_gap_interval"]
    assert row["calls"] == 1 and 0.0 <= row["self_ms"] <= row["ms"]
    assert summary["tables.prob"]["calls"] > 0 and "self_ms" not in summary["tables.prob"]


def test_tail_percentile_rule():
    cases = {
        5: 500, 19: 500, 20: 500, 39: 500, 40: 750, 99: 750, 100: 900, 199: 900,
        200: 950, 999: 950, 1000: 990, 9999: 990, 10000: 999, 10**6: 999,
    }
    for n, expected in cases.items():
        assert tail_permille(n) == expected, (n, tail_permille(n), expected)
    values = list(range(1, 101))
    assert percentile(values, 900) == 90 and percentile(values, 500) == 50
    assert percentile([7.0], 999) == 7.0


def test_verdict_provider_calls_are_counted():
    run.import_package()
    from beliefbound import predictability

    tracer = Tracer()
    install(tracer)
    try:
        verdict = predictability.weak_verdict(lambda d, d_star: 0.0, [0, 1, 2])
    finally:
        tracer.uninstall()
    assert not verdict.ruled_out
    assert tracer.counters["predictability.provider_calls"] == 6  # ordered pairs


def test_run_length_and_tail_percentile_are_fixed_per_workload():
    # A run's sample count depends only on --seconds, never on the code's
    # speed; at the benchmark's run length each tail percentile below has at
    # least ten samples beyond it and sits inside a latency cluster.
    import json
    from pathlib import Path

    import clifix
    import mix
    from tracer import Counters

    run.import_package()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    inputs = mix.generate(0)
    per_cycle = {
        "oracle-ladder": sum(len(v) for v in ladder.SCHEDULE.values()),
        "closed-form-mix": len(mix.cycle(mix.setup(inputs), inputs, mix.expected(inputs),
                                         Counters())),
        "cli-fixture": len(clifix.CASES),
    }
    expected = {"oracle-ladder": 900, "closed-form-mix": 990, "cli-fixture": 750}
    for name, q in expected.items():
        n = run.cycles_for(name, seconds) * per_cycle[name]
        assert tail_permille(n) == q, (name, n, tail_permille(n), q)


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
