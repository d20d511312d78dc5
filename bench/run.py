"""beliefbound benchmark: one closed-loop client, one job at a time.

Usage (from the repository root):

    python3 bench/run.py --workload oracle-ladder --seed 1 --seconds 15 --trace 0

Workloads: ``oracle-ladder`` (LP certification at 1k / 25k / 115k canonical
atoms), ``closed-form-mix`` (closed-form bounds, verdicts, relaxations and
model queries on a panel of small datasets) and ``cli-fixture`` (the golden
CLI commands, each in a fresh interpreter).  A run is a fixed number of whole
cycles that depends only on ``--seconds`` (``cycles_for``), so two commits
run the same jobs and their order statistics use the same sample count.
Job costs are read on the CPU clock (see ``cpu_seconds``); wall times are
printed beside them.  Every job's output is checked; a job that raises or
fails its check counts as failed.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same cycles run once untraced and once traced, and the per-layer metrics
(per cycle) and the tracing overhead are printed instead.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-ladder", "closed-form-mix", "cli-fixture")
SETUP_PROBES = 5
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5
WARMUP_S = 1.0
# Cycles per 25 s of run length.  At the seed commit (src/ of 5c40cd1) on a
# 2-vCPU VM these take about 26 s (ladder), 21 s (mix) and 23 s (CLI) of CPU
# time, and they put each workload's tail percentile inside a latency cluster
# (see selftest.py).
CYCLES_PER_25_S = {"oracle-ladder": 1, "closed-form-mix": 10, "cli-fixture": 5}
RUNG_METRICS = ("certify_ms.1k", "certify_ms.25k", "certify_ms.115k")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child, ...)."""


def thread_env() -> dict[str, str]:
    """One BLAS/OpenMP thread, in the harness and in every child.

    With more, OpenBLAS workers busy-wait after each call, and the CPU clock
    counts that spin only while another CPU is idle: on a 2-vCPU VM it added
    40-75 ms to each CLI child and moved cli-fixture's median job by 14%
    between two sets of runs of the same code.  The package's arrays are too
    small for a second thread to help.
    """
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {name: "1" for name in names}


def child_env() -> dict[str, str]:
    env = {**os.environ, **thread_env()}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S, **kwargs
    )


def import_package():
    """Import ``beliefbound`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "beliefbound" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import beliefbound

    if not Path(beliefbound.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"beliefbound imported from {beliefbound.__file__}, not {SRC}")
    return beliefbound


# -- the closed loop ------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time (user + system) of this process, its threads and its reaped children.

    Job costs are read on this clock rather than the wall clock: for a
    one-client loop on an idle machine the two agree, but on a shared VM the
    wall clock also counts the time the VM was descheduled, and that steal
    time was the largest source of run-to-run spread.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(CYCLES_PER_25_S[workload] * seconds / 25))


def loop(jobs, cycles):
    """Run ``cycles`` whole cycles of ``jobs``.

    Returns (records, wall seconds); a record is
    (tag, CPU seconds, wall seconds, error).  A job tagged None is run
    untimed and unchecked: it only settles the process between timed jobs.
    """
    records = []
    start = time.perf_counter()
    for _ in range(cycles):
        for tag, job in jobs:
            if tag is None:
                job()
                continue
            t0, w0 = cpu_seconds(), time.perf_counter()
            try:
                error = job()
            except Exception as exc:  # a failed job is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
                if sum(1 for r in records if r[3]) < MAX_REPORTED_FAILURES:
                    traceback.print_exc()
            records.append((tag, cpu_seconds() - t0, time.perf_counter() - w0, error))
    return records, time.perf_counter() - start


def warm_up(jobs, budget_s=WARMUP_S) -> None:
    """Run the first jobs untimed until the budget is spent, so lazy set-up is done."""
    start = time.perf_counter()
    for _, job in jobs:
        try:
            job()
        except Exception:  # the timed loop reports it
            pass
        if time.perf_counter() - start >= budget_s:
            return


def report_failures(records) -> None:
    failed = [r for r in records if r[3]]
    for tag, _, _, error in failed[:MAX_REPORTED_FAILURES]:
        print(f"FAILED [{tag}] {error}", file=sys.stderr)


def end_to_end(records, cycles, setup_times, peak_rss_kb) -> dict:
    """Set-up, throughput, latency median and tail, peak RSS, all on the CPU clock.

    ``setup_times`` is a list of (CPU, wall) seconds.  The wall-clock figures
    are printed beside the metrics.
    """
    from stats import median, percentile, permille_label, tail_permille

    latencies = [r[1] for r in records]
    walls = [r[2] for r in records]
    q = tail_permille(len(latencies))
    print(f"job_tail_ms is the {permille_label(q)} latency of n={len(latencies)} jobs "
          f"({cycles} cycles); jobs_per_s is n over their summed CPU time")
    print(f"wall clock: job p50 {median(walls) * 1e3:.4f} ms, "
          f"set-up {median([w for _, w in setup_times]):.4f} s")
    return {
        "setup_s": (median([cpu for cpu, _ in setup_times]), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (median(latencies) * 1e3, "ms"),
        "job_tail_ms": (percentile(latencies, q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def wall_metrics(records, setup_times) -> dict:
    """Wall-clock job median and set-up, for the traced run's per-layer report."""
    from stats import median

    return {
        "wall.job_p50_ms": (median([r[2] for r in records]) * 1e3, "ms"),
        "wall.setup_s": (median([w for _, w in setup_times]), "s"),
    }


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(summary: dict, counters: dict, cycles: int, extra: dict) -> dict:
    """Every per-layer metric (0 where a layer is idle).

    Traced totals are per cycle of the workload; ``extra`` carries the
    untraced per-process and per-rung medians.
    """

    def get(name, field):
        return summary.get(name, {}).get(field, 0.0)

    def module_self(prefix):
        return sum(row.get("self_ms", 0.0) for name, row in summary.items()
                   if name.startswith(prefix))

    per_cycle = {
        "oracle.evaluate.calls": (get("oracle.evaluate", "calls"), "count/cycle"),
        "oracle.evaluate.ms": (get("oracle.evaluate", "ms"), "ms/cycle"),
        "oracle.build_polytope.self_ms": (get("oracle.build_polytope", "self_ms"), "ms/cycle"),
        "oracle.optimize_gap.self_ms": (get("oracle.optimize_gap", "self_ms"), "ms/cycle"),
        "oracle.feasible_scm.self_ms": (get("oracle.feasible_scm", "self_ms"), "ms/cycle"),
        "oracle.atoms": (counters.get("oracle.atoms", 0), "count/cycle"),
        "oracle.rows": (counters.get("oracle.rows", 0), "count/cycle"),
        "oracle.cond_untight": (counters.get("oracle.cond_untight", 0), "count/cycle"),
        "lp.solve_lp.calls": (get("lp.solve_lp", "calls"), "count/cycle"),
        "lp.solve_lp.ms": (get("lp.solve_lp", "ms"), "ms/cycle"),
        "lp.solve_lp.cols": (counters.get("lp.solve_lp.cols", 0), "count/cycle"),
        "lp.solve_lp.rows": (counters.get("lp.solve_lp.rows", 0), "count/cycle"),
        "tables.prob.calls": (get("tables.prob", "calls"), "count/cycle"),
        "tables.prob.ms": (get("tables.prob", "ms"), "ms/cycle"),
        "tables.query.calls": (get("tables.query", "calls"), "count/cycle"),
        "tables.query.ms": (get("tables.query", "ms"), "ms/cycle"),
        "tables.expectation.ms": (get("tables.expectation", "ms"), "ms/cycle"),
        "tables.DistTable.calls": (get("tables.DistTable", "calls"), "count/cycle"),
        "tables.DistTable.ms": (get("tables.DistTable", "ms"), "ms/cycle"),
        "bounds.self_ms": (module_self("bounds."), "ms/cycle"),
        "bounds.digest.calls": (get("bounds.digest", "calls"), "count/cycle"),
        "bounds.digest.ms": (get("bounds.digest", "ms"), "ms/cycle"),
        "predictability.verdict.ms": (
            get("predictability.weak_verdict", "ms") + get("predictability.strong_verdict", "ms"),
            "ms/cycle",
        ),
        "predictability.provider_calls": (
            counters.get("predictability.provider_calls", 0), "count/cycle"
        ),
        "predictability.tie_conflicts": (
            counters.get("predictability.tie_conflicts", 0), "count/cycle"
        ),
        "relaxations.exact_lp.self_ms": (
            get("relaxations.approx_grounding_lower[exact-lp]", "self_ms"), "ms/cycle"
        ),
        "relaxations.sample.ms": (get("relaxations.approx_grounding_lower[sample]", "ms"),
                                  "ms/cycle"),
        "scm.evaluate.calls": (get("scm.evaluate", "calls"), "count/cycle"),
        "scm.evaluate.ms": (get("scm.evaluate", "ms"), "ms/cycle"),
        "scm.joint_distribution.ms": (get("scm.joint_distribution", "ms"), "ms/cycle"),
        "scm.scm_dataset.ms": (get("scm.scm_dataset", "ms"), "ms/cycle"),
        "scm.counterfactual_probability.ms": (get("scm.counterfactual_probability", "ms"),
                                              "ms/cycle"),
        "fileio.load_dataset.ms": (get("fileio.load_dataset", "ms"), "ms/cycle"),
        "fileio.load_table.ms": (get("fileio.load_table", "ms"), "ms/cycle"),
        "report.render.ms": (get("report.render", "ms"), "ms/cycle"),
        "cli.main.self_ms": (get("cli.main", "self_ms"), "ms/cycle"),
    }
    out = {name: (value / cycles, unit) for name, (value, unit) in per_cycle.items()}
    for name in ("cli.import_ms", "cli.interpreter_ms", *RUNG_METRICS):
        out[name] = (extra.get(name, 0.0), "ms")
    return out


def overhead(untraced_wall, traced_wall, cycles) -> dict:
    print(f"tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s "
          f"over {cycles} cycles")
    return {
        "trace.overhead_ms": ((traced_wall - untraced_wall) * 1e3 / cycles, "ms/cycle"),
        "trace.overhead_pct": (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"),
    }


# -- in-process workloads -------------------------------------------------------


def workload_module(name):
    if name == "oracle-ladder":
        import ladder

        return ladder
    import mix

    return mix


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """CPU and wall seconds to import the package and load one seed's inputs.

    The generator is not counted.
    """
    module = workload_module(name)
    inputs = module.generate(seed)
    t0, w0 = time.process_time(), time.perf_counter()
    import_package()
    module.setup(inputs)
    return time.process_time() - t0, time.perf_counter() - w0


def probe_setup_times(name: str, seed: int) -> list[tuple[float, float]]:
    """(CPU, wall) set-up samples from fresh children, after one warm-up child."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-probe"]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = run_child(argv, text=True)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        if i:
            times.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return times


def run_inprocess(name: str, seed: int, seconds: float, trace: bool):
    from tracer import Counters, Tracer, install

    module = workload_module(name)
    inputs = module.generate(seed)
    setup_times = probe_setup_times(name, seed)
    import_package()
    loaded = module.setup(inputs)
    probe = Counters()
    jobs = module.cycle(loaded, inputs, module.expected(inputs), probe)
    warm_up(jobs)
    probe.counters.clear()
    cycles = cycles_for(name, seconds)
    records, wall = loop(jobs, cycles)
    rungs = module.rung_medians(records) if hasattr(module, "rung_medians") else {}
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for metric, value in rungs.items():
            print(f"{metric} = {value:.4f} ms (per-layer metric, untraced)")
        return records, end_to_end(records, cycles, setup_times, rss)
    probe.counters.clear()
    tracer = Tracer()
    install(tracer)
    try:
        traced, traced_wall = loop(jobs, cycles)
    finally:
        tracer.uninstall()
    counters = {**tracer.counters, **probe.counters}
    metrics = layer_metrics(tracer.summary(), counters, cycles, rungs)
    metrics.update(wall_metrics(records, setup_times))
    metrics.update(overhead(wall, traced_wall, cycles))
    return records + traced, metrics


# -- cli-fixture ----------------------------------------------------------------


def cli_job(argv, golden: bytes, sink=None):
    def job():
        done = run_child(argv)
        if done.returncode != 0:
            return f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}"
        if done.stdout != golden:
            return "stdout differs from the golden report"
        if sink is not None:
            lines = done.stderr.decode().strip().splitlines()
            if not lines or not lines[-1].startswith("BENCH_TRACE "):
                return "traced child printed no trace summary"
            sink.append(json.loads(lines[-1][len("BENCH_TRACE "):]))
        return None

    return job


def timed_children(argv, count) -> list[tuple[float, float]]:
    """(CPU, wall) seconds of ``count`` runs of one child, after one warm-up run."""
    times = []
    for i in range(count + 1):
        t0, w0 = cpu_seconds(), time.perf_counter()
        done = run_child(argv)
        dt, dw = cpu_seconds() - t0, time.perf_counter() - w0
        if done.returncode != 0:
            raise BenchError(f"{argv} failed: {done.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append((dt, dw))
    return times


def run_cli(seed: int, seconds: float, trace: bool):
    import clifix
    from stats import median

    golden_dir = ROOT / "tests" / "golden"
    if not (SRC / "beliefbound" / "cli.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    present = {p.stem for p in golden_dir.glob("*.json")}
    if present != set(clifix.CASES):
        raise BenchError(f"golden reports {sorted(present)} do not match the command list")
    order = clifix.generate(seed)
    golden = {case: (golden_dir / f"{case}.json").read_bytes() for case in order}
    setup_times = timed_children([sys.executable, "-c", "import beliefbound.cli"], SETUP_PROBES)
    base = [sys.executable, "-m", "beliefbound.cli"]
    jobs = [(case, cli_job(base + clifix.CASES[case], golden[case])) for case in order]
    warm_up(jobs)
    cycles = cycles_for("cli-fixture", seconds)
    records, wall = loop(jobs, cycles)
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return records, end_to_end(records, cycles, setup_times, rss)
    summaries = []
    wrapper = [sys.executable, str(HERE / "cli_child.py")]
    traced_jobs = [
        (case, cli_job(wrapper + clifix.CASES[case], golden[case], summaries)) for case in order
    ]
    traced, traced_wall = loop(traced_jobs, cycles)
    merged: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for item in summaries:
        for name, row in item["summary"].items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0.0) + value
        for name, value in item["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    extra = {
        "cli.import_ms": median([item["import_ms"] for item in summaries]),
        "cli.interpreter_ms": median(
            [cpu for cpu, _ in timed_children([sys.executable, "-c", "pass"], INTERPRETER_PROBES)]
        ) * 1e3,
    }
    metrics = layer_metrics(merged, counters, cycles, extra)
    metrics.update(wall_metrics(records, setup_times))
    metrics.update(overhead(wall, traced_wall, cycles))
    return records + traced, metrics


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one import-and-load of the inputs")
    args = parser.parse_args(argv)
    os.environ.update(thread_env())
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        if args.workload == "cli-fixture":
            records, metrics = run_cli(args.seed, args.seconds, bool(args.trace))
        else:
            records, metrics = run_inprocess(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report_failures(records)
    failed = sum(1 for r in records if r[3])
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
