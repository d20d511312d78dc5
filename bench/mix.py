"""closed-form-mix: in-process user questions on seeded latent-variable datasets.

A fixed panel of dataset shapes (2-4 decisions, 4 to 120 cells, exact or
float entries, with or without the do(Z=1) experimental domain) is filled
with seeded numbers.  Each dataset is asked every question that applies to
it: thm1-thm4, fairness, harm, direct discrimination, causal harm, weak and
strong verdicts, the TV-ball relaxation (exact LP on tables of at most 24
cells; the sampler, with the package's default settings, on one dataset per
pass), the proxy relaxation, partial unconfoundedness, and
``scm_dataset`` / ``counterfactual_probability`` on the hidden model.  The
oracle is never called.
"""

from __future__ import annotations

import random

import gen

SHIFT = {"Z": 1}
TOL = 1e-9
ROUNDOFF = 1e-12
TV_MAX_CELLS = 24
# The sampler runs with the package's defaults (10,000 proposals,
# concentration 400), as the CLI does.  One call costs about 0.5 s on an
# 8-cell table, as much as 300 other questions, so it is asked on one
# dataset of the panel only: this one (8 cells, float entries).
SAMPLER_SLOT = 3
KIND_RANGES = {
    "preference": (-1.0, 1.0),
    "fairness": (-1.0, 1.0),
    "harm": (0.0, 1.0),
    "direct-discrimination": (-1.0, 1.0),
    "causal-harm": (0.0, 1.0),
}

# (extra roots beside Z, decisions, latent size, exact entries, experimental domain)
PANEL = (
    ({}, 2, 2, True, False),
    ({}, 3, 3, False, True),
    ({}, 4, 2, False, False),
    ({"W": 2}, 2, 3, False, False),
    ({"W": 2}, 3, 2, True, True),
    ({"W": 2}, 4, 3, False, True),
    ({"W": 2}, 4, 2, True, False),
    ({"W": 2, "A": 2}, 2, 2, True, True),
    ({"W": 2, "A": 2}, 3, 3, False, False),
    ({"W": 2, "A": 3}, 2, 3, False, True),
    ({"W": 2, "A": 3}, 4, 2, True, False),
    ({"A": 3}, 2, 2, True, True),
    ({"W": 2, "A": 5}, 3, 2, True, True),
    ({"W": 2, "A": 5}, 2, 3, False, False),
    ({"W": 2, "A": 5, "B": 2}, 2, 2, False, True),
    ({"W": 2, "A": 5, "B": 3}, 3, 3, True, False),
)


def _cells(model) -> int:
    n = 1
    for dom in model.domains.values():
        n *= len(dom)
    return n


REPLICAS = 4


def generate(seed: int) -> dict:
    """Documents and question parameters for every dataset of the panel."""
    slots = []
    for i, (extra, n_dec, latent, exact, domain) in enumerate(PANEL * REPLICAS):
        rng = random.Random(seed * 7_919 + i)
        model = gen.LatentModel(
            rng.randrange(2**31), {"Z": 2, **extra}, n_dec, latent, exact
        )
        has_w = "W" in model.roots
        s = rng.randint(3, 9) / 10
        slots.append({
            "hidden": model,
            "dataset": model.dataset_doc(SHIFT if domain else None),
            "model": model.model_doc(),
            "joint": model.policy_joint_doc(rng.randrange(2**31)),
            "sigma": {
                "scope": [{"name": "Z", "domain": [0, 1]}],
                "entries": [{"assignment": {"Z": 1}, "p": s}, {"assignment": {"Z": 0}, "p": 1 - s}],
            },
            "domain": domain,
            "exact": exact,
            "has_w": has_w,
            "ctx": {"W": 1} if has_w else {},
            "cells": _cells(model),
            "delta": rng.choice((0.05, 0.1, 0.2)),
            "alpha": rng.choice((0.5, 0.8, 0.9)),
            "lam": rng.choice((0.0, 0.05)),
            "sample_seed": rng.randrange(2**31),
            "sampler": i == SAMPLER_SLOT,
            "domains": [("exp", SHIFT)] if domain else [],
        })
    return {"slots": slots}


def expected(inputs: dict) -> list:
    """The hidden models' true values for every dataset, computed exactly."""
    out = []
    for slot in inputs["slots"]:
        model, ctx = slot["hidden"], slot["ctx"]
        pairs = [(a, b) for a in model.decisions for b in model.decisions if a != b]
        out.append({
            "gap": float(model.gap(1, 0, SHIFT, SHIFT)),
            "gap_ctx": float(model.gap(1, 0, SHIFT, ctx)),
            "pair_gaps": {(a, b): float(model.gap(a, b, SHIFT, SHIFT)) for a, b in pairs},
            "fairness": float(model.fairness_gap(1, "Z", 0, ctx)),
            "harm": float(model.harm_mass(1, 0, ctx)),
            "direct": float(model.direct_gap(1, "Z", 0, 1)),
            "cf_harm": model.prob([(1, None, {"Y": 1}), (0, None, {"Y": 1})]),
            "tables": {d: model.table(d) for d in model.decisions},
            "exp_tables": (
                {d: model.table(d, SHIFT) for d in model.decisions} if slot["domain"] else {}
            ),
        })
    return out


def setup(inputs: dict) -> list:
    """Load every dataset, model and table through the package's loaders."""
    from beliefbound import fileio, relaxations

    loaded = []
    for slot in inputs["slots"]:
        loaded.append({
            "data": fileio.load_dataset(slot["dataset"]),
            "model": fileio.load_scm(slot["model"]),
            "joint": fileio.load_table(slot["joint"]),
            "sigma": fileio.load_table(slot["sigma"]),
            "ball": relaxations.GroundingBall(slot["delta"]),
        })
    return loaded


def _interval(gap, truth=None) -> str | None:
    lo, hi = KIND_RANGES[gap.kind]
    if not (lo - TOL <= gap.lower <= gap.upper + TOL and gap.upper <= hi + TOL):
        return f"{gap.theorem}: [{gap.lower}, {gap.upper}] outside {gap.kind} range"
    if truth is not None and not gap.lower - TOL <= truth <= gap.upper + TOL:
        return f"{gap.theorem}: [{gap.lower}, {gap.upper}] misses true value {truth}"
    return None


def _verdict(verdict, decisions, pair_gaps, lam) -> str | None:
    if verdict.ruled_out | verdict.surviving != frozenset(decisions):
        return f"{verdict.mode} verdict does not partition the decisions"
    if not verdict.surviving:
        return f"{verdict.mode} verdict rules out every decision"
    for cert in verdict.certificates:
        truth = pair_gaps[cert.preferred, cert.ruled_out]
        if not lam < cert.lower <= truth + TOL:
            return f"{verdict.mode} certificate {cert} contradicts true gap {truth}"
    return None


def _tie_conflict(provider, decisions, pair_gaps, lam) -> bool:
    """Whether some pair is certified both ways only through float round-off.

    Known defect: on float tables a point-identified zero gap can come back as
    a lower bound of about +2e-16 for both orders.  With lam = 0 the strict
    test then certifies both, so the strong verdict raises ProviderError and
    the weak verdict rules out every decision.  Such jobs are counted in
    ``predictability.tie_conflicts`` instead of failing, so the defect stays
    visible; any other conflict is a failure.
    """
    conflicts = [
        (a, b) for a in decisions for b in decisions
        if a != b and provider(a, b) > lam and provider(b, a) > lam
    ]
    return bool(conflicts) and all(
        pair_gaps[a, b] == 0 and abs(provider(a, b)) <= ROUNDOFF for a, b in conflicts
    )


def _same_tables(got, want: dict, exact: bool) -> str | None:
    for d, cells in want.items():
        table = got[d]
        for key, p in cells.items():
            have = table.entries.get(key, 0)
            if (have != p) if exact else abs(float(have) - float(p)) > 1e-12:
                return f"scm_dataset cell {key} for decision {d}: {have} != {p}"
    return None


def questions(slot: dict, obj: dict, truth: dict, probe) -> list:
    """Every (tag, callable) question that applies to one dataset."""
    from beliefbound import bounds, predictability, relaxations, scm
    from beliefbound.errors import ProviderError

    data, ctx = obj["data"], slot["ctx"]
    exact = slot["exact"]

    def provider(d, d_star):
        closed = bounds.thm2_multidomain_lower if slot["domain"] else bounds.thm1_gap_interval
        return closed(data, SHIFT, SHIFT, d, d_star).lower

    def verdict(kind):
        run = getattr(predictability, f"{kind}_verdict")
        try:
            v = run(provider, data.decisions, SHIFT, slot["lam"])
        except ProviderError:
            if not _tie_conflict(provider, data.decisions, truth["pair_gaps"], slot["lam"]):
                raise
            probe.counters["predictability.tie_conflicts"] += 1
            return None
        if not v.surviving and _tie_conflict(
            provider, data.decisions, truth["pair_gaps"], slot["lam"]
        ):
            probe.counters["predictability.tie_conflicts"] += 1
            return None
        return _verdict(v, data.decisions, truth["pair_gaps"], slot["lam"])

    ball_values = {}

    def ball(method):
        kwargs = {"seed": slot["sample_seed"]} if method == "sample" else {}
        value = relaxations.approx_grounding_lower(
            data, obj["ball"], SHIFT, SHIFT, 1, 0, method, **kwargs
        )
        ball_values[method] = value
        if not -1.0 - TOL <= value <= truth["gap"] + TOL:
            return f"TV-ball {method} value {value} outside [-1, {truth['gap']}]"
        if method == "sample" and value < ball_values.get("exact-lp", -1.0) - TOL:
            return f"sampled TV-ball value {value} below the exact minimum"
        return None

    def proxy():
        value = relaxations.proxy_alignment_lower(data, slot["alpha"], SHIFT, 1, 0)
        if not -1.0 - TOL <= value <= truth["gap"] + TOL:
            return f"proxy value {value} outside [-1, {truth['gap']}]"
        return None

    def hidden_tables():
        got = scm.scm_dataset(obj["model"], "D", domains=slot["domains"])
        return _same_tables(got.per_decision, truth["tables"], exact) or (
            _same_tables(got.domains[0].per_decision, truth["exp_tables"], exact)
            if slot["domain"] else None
        )

    def hidden_harm():
        p = scm.counterfactual_probability(
            obj["model"], [({"D": 1}, {"Y": 1}), ({"D": 0}, {"Y": 1})]
        )
        want = truth["cf_harm"]
        if (p != want) if exact else abs(float(p) - float(want)) > 1e-12:
            return f"counterfactual probability {p} != {want}"
        return None

    jobs = [
        ("thm1", lambda: _interval(bounds.thm1_gap_interval(data, SHIFT, SHIFT, 1, 0),
                                   truth["gap"])),
        ("thm3", lambda: _interval(bounds.thm3_unknown_shift_interval(), truth["gap"])),
        ("thm4", lambda: _interval(
            bounds.thm4_covariate_shift_lower(data, obj["sigma"], SHIFT, SHIFT, 1, 0))),
        ("fairness", lambda: _interval(
            bounds.fairness_gap_interval(data, 1, {"Z": 0}, ctx), truth["fairness"])),
        ("harm", lambda: _interval(bounds.harm_gap_interval(data, 1, 0, ctx), truth["harm"])),
        ("direct", lambda: _interval(
            bounds.direct_discrimination_interval(data, 1, {"Z": 0}, {"Z": 1}, {}),
            truth["direct"])),
        ("causal-harm", lambda: _interval(bounds.causal_harm_interval(obj["joint"], 1, 0, {}))),
        ("weak", lambda: verdict("weak")),
        ("strong", lambda: verdict("strong")),
        ("proxy", proxy),
        ("scm_dataset", hidden_tables),
        ("counterfactual", hidden_harm),
    ]
    if slot["has_w"]:
        jobs += [
            ("thm1-ctx", lambda: _interval(bounds.thm1_gap_interval(data, ctx, SHIFT, 1, 0),
                                           truth["gap_ctx"])),
            ("unconfounded", lambda: _interval(
                relaxations.partial_unconfoundedness_interval(
                    data, SHIFT, {"W": 0}, {"W": 1}, 1, 0))),
        ]
    if slot["domain"]:
        jobs.append(("thm2", lambda: _interval(
            bounds.thm2_multidomain_lower(data, SHIFT, SHIFT, 1, 0), truth["gap"])))
    if slot["cells"] <= TV_MAX_CELLS:
        jobs.append(("tv-exact", lambda: ball("exact-lp")))
    if slot["sampler"]:
        jobs.append(("tv-sample", lambda: ball("sample")))
    return jobs


def cycle(loaded: list, inputs: dict, truths: list, probe) -> list:
    """One pass over the panel as (tag, callable) pairs."""
    jobs = []
    for slot, obj, truth in zip(inputs["slots"], loaded, truths):
        jobs += questions(slot, obj, truth, probe)
    return jobs
