"""oracle-ladder: in-process certification jobs at three canonical-space sizes.

Each job mirrors ``beliefbound oracle``: build the response-type polytope
under the CLI's default skeleton, optimise the gap in one direction under
do(Z=1), and compare with the closed form (thm1, or thm2 when the dataset
carries the do(Z=1) experimental domain).  Conditional jobs (context W=1) take
the Charnes-Cooper path; witness jobs also extract ``feasible_scm`` and check
that it reproduces the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import gen

SHIFT = {"Z": 1}
TOL = 1e-6


@dataclass(frozen=True)
class Variant:
    domain: bool
    conditional: bool
    witness: bool
    direction: str


# (domain, conditional) flags: plain, experimental domain, conditional context.
P, D, C = (False, False), (True, False), (False, True)
# One 1k cycle: seven plain or conditional jobs, two domain jobs, two
# domain jobs with a witness.  The three kinds form separate latency clusters
# (about 40, 75 and 100 ms).
ONE_K = (
    Variant(*P, False, "min"), Variant(*P, False, "max"), Variant(*C, False, "min"),
    Variant(*P, False, "min"), Variant(*P, False, "max"), Variant(*P, False, "min"),
    Variant(*P, False, "max"), Variant(*D, False, "min"), Variant(*D, False, "max"),
    Variant(*D, True, "min"), Variant(*D, True, "max"),
)
ONE_K_CYCLES = 17
# rung -> job variants of one round.  The 115k rung has no W, so no context
# job, and no domain job: one costs 7-9 s, a third of the round, and its
# simplex time varies by +-15% from seed to seed; the domain LP shape is
# covered at 1k and 25k.
SCHEDULE = {
    "1k": ONE_K * ONE_K_CYCLES,
    "25k": (Variant(*P, False, "min"), Variant(*P, False, "max"), Variant(*C, False, "min"),
            Variant(*D, False, "max"), Variant(*P, True, "max")),
    "115k": (Variant(*P, False, "min"), Variant(*P, False, "max")),
}
# A round is 194 jobs, so job_tail_ms is the p90 (19 jobs beyond it: the seven
# large jobs and twelve of the 34 1k witness jobs) and the median falls in the
# 1k plain cluster; neither order statistic sits on a gap between clusters.
# The two 1k jobs after a 25k or 115k job pay 20-40 ms to grow the heap again,
# which a user running one job per process does not, so that many untimed 1k
# jobs follow each large job.
SETTLE_JOBS = 2
RUNG_INDEX = {name: i for i, name in enumerate(gen.RUNGS)}


def _job_keys():
    """One round as (rung, index, variant): the 1k cycles, every second one
    followed by one larger job, so the samples of every rung spread over the
    whole round instead of sharing one stretch of machine noise."""
    large = [("25k", 0), ("115k", 0), ("25k", 1), ("25k", 2), ("115k", 1), ("25k", 3), ("25k", 4)]
    assert sorted(large) == sorted(
        (rung, i) for rung in ("25k", "115k") for i in range(len(SCHEDULE[rung]))
    )
    for r in range(ONE_K_CYCLES):
        for v, variant in enumerate(ONE_K):
            yield "1k", r * len(ONE_K) + v, variant
        if r % 2 and r // 2 < len(large):
            rung, i = large[r // 2]
            yield rung, i, SCHEDULE[rung][i]


def generate(seed: int) -> dict:
    """Hidden models and dataset documents for every job of one round."""
    models, docs = {}, {}
    for rung, i, variant in _job_keys():
        model = gen.ladder_model(rung, seed * 10_007 + RUNG_INDEX[rung] * 1_009 + i)
        models[rung, i] = model
        docs[rung, i] = model.dataset_doc(SHIFT if variant.domain else None)
    return {"models": models, "docs": docs}


def expected(inputs: dict) -> dict:
    """The hidden models' true gaps under do(Z=1), per job."""
    return {
        (rung, i): float(
            inputs["models"][rung, i].gap(1, 0, SHIFT, {"W": 1} if variant.conditional else SHIFT)
        )
        for rung, i, variant in _job_keys()
    }


def setup(inputs: dict) -> dict:
    """Load every dataset and declare its default skeleton via the package."""
    from beliefbound import fileio, oracle

    loaded = {}
    for key, doc in inputs["docs"].items():
        data = fileio.load_dataset(doc)
        skeleton = []
        for ref in data.scope:
            if ref.name == data.utility:
                others = [r.name for r in data.scope if r.name != ref.name]
                skeleton.append(
                    oracle.SkeletonVariable(ref.name, ref.domain, (data.decision.name, *others))
                )
            else:
                skeleton.append(oracle.SkeletonVariable(ref.name, ref.domain))
        loaded[key] = (data, skeleton)
    return loaded


def _tables_match(witness_data, data) -> str | None:
    pairs = [(witness_data.per_decision, data.per_decision)]
    pairs += [(w.per_decision, o.per_decision) for w, o in zip(witness_data.domains, data.domains)]
    for got, want in pairs:
        for d, table in want.items():
            keys = set(table.entries) | set(got[d].entries)
            for k in keys:
                if abs(float(got[d].entries.get(k, 0)) - float(table.entries.get(k, 0))) > TOL:
                    return f"witness table differs at decision {d} cell {k}"
    return None


def certify(data, skeleton, variant: Variant, truth: float, counters) -> str | None:
    """One certification job; returns an error message or None."""
    from beliefbound import bounds, oracle, scm

    context = {"W": 1} if variant.conditional else SHIFT
    polytope = oracle.build_polytope(data, skeleton)
    lp_value = oracle.optimize_gap(polytope, SHIFT, context, 1, 0, variant.direction)
    closed_form = bounds.thm2_multidomain_lower if variant.domain else bounds.thm1_gap_interval
    closed = closed_form(data, context, SHIFT, 1, 0)
    lo, hi = closed.lower, closed.upper
    endpoint = lo if variant.direction == "min" else hi
    if not lo - 1e-9 <= truth <= hi + 1e-9:
        return f"true gap {truth} outside closed form [{lo}, {hi}]"
    if variant.direction == "min" and lp_value > truth + TOL:
        return f"LP minimum {lp_value} above the true gap {truth}"
    if variant.direction == "max" and lp_value < truth - TOL:
        return f"LP maximum {lp_value} below the true gap {truth}"
    if variant.conditional:
        if not lo - TOL <= lp_value <= hi + TOL:
            return f"LP value {lp_value} outside closed form [{lo}, {hi}]"
        if abs(lp_value - endpoint) > TOL:
            counters["oracle.cond_untight"] += 1
    elif abs(lp_value - endpoint) > TOL or not closed.tight:
        return f"uncertified: LP {lp_value} vs closed form {endpoint}"
    if variant.witness:
        model = oracle.feasible_scm(polytope)
        domains = [(dom.label, dom.intervened) for dom in data.domains]
        return _tables_match(scm.scm_dataset(model, data.decision.name, domains=domains), data)
    return None


def cycle(loaded: dict, inputs: dict, truths: dict, probe) -> list:
    """One round of jobs as (tag, callable) pairs; a None tag marks an untimed job."""
    counters = probe.counters
    jobs = []
    for rung, i, variant in _job_keys():
        data, skeleton = loaded[rung, i]
        truth = truths[rung, i]
        job = lambda d=data, s=skeleton, v=variant, t=truth: certify(d, s, v, t, counters)
        jobs.append((rung, job))
        if rung != "1k":
            jobs += [(None, jobs[k][1]) for k in range(SETTLE_JOBS)]
    return jobs


def rung_medians(records) -> dict:
    """Median certification job per rung, in ms."""
    from stats import median

    return {
        f"certify_ms.{rung}": median([r[1] for r in records if r[0] == rung]) * 1e3
        for rung in gen.RUNGS
    }
