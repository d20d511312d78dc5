"""Closed-form partial-identification bounds on behavioural gap quantities.

Each operation maps observed per-decision tables to a provenance-carrying
interval on a gap the agent's internal model cannot be asked about directly:
preference gaps under shifts, counterfactual fairness and harm gaps, direct
discrimination, and causal harm.  Formulas are pure functions of the tables;
the one state kept is each table's envelope memo (`_pieces`): keyed by
(utility, c items, z items), no error stored, one entry per distinct (c, z)
asked, valid because tables are immutable (contract in `tables`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataError, InputError, ZeroMassError
from .tables import (
    Assignment,
    BehaviouralDataset,
    DistTable,
    Number,
    Value,
    VariableRef,
    _check_pair,
    _check_unfixed_utility,
    _mean,
    _memoised,
    _moments,
    _scan,
    expectation,
    merge_assignments,
)

KIND_RANGES = {
    "preference": (-1.0, 1.0),
    "fairness": (-1.0, 1.0),
    "harm": (0.0, 1.0),
    "direct-discrimination": (-1.0, 1.0),
    "causal-harm": (0.0, 1.0),
}

_RANGE_TOL = 1e-9


class _LazyDigest:
    """Data descriptor for `GapInterval.inputs_digest`: stores a digest string
    or a payload, and replaces a payload by its digest on first read."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: type | None = None) -> str:
        if obj is None:
            raise AttributeError(self.name)  # no class-level default: required
        value = obj.__dict__[self.name]
        if not isinstance(value, str):
            value = obj.__dict__[self.name] = digest(value)
        return value

    def __set__(self, obj: object, value: str | dict) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class GapInterval:
    """[lower, upper] bound on a gap, with provenance.

    `tight` is set only when the sourcing theorem proves both endpoints are
    achieved by data-compatible models.  `raw_lower`/`raw_upper` keep the
    pre-clamp values whenever a clamp fired; `notes` records clamps and known
    formula caveats so reports can surface them as warnings.

    `inputs_digest` may be given as a ready digest string or as the payload
    of bound inputs; a payload is hashed with `digest` when the field is
    first read (by `as_dict`, `repr`, `==` or `hash`), and that first read
    is what imports hashlib.  Verdicts, relaxations and the oracle read only
    the ends, so they never pay for the hash or load OpenSSL.
    """

    lower: float
    upper: float
    kind: str
    theorem: str
    tight: bool
    inputs_digest: str | dict = _LazyDigest()
    raw_lower: float | None = None
    raw_upper: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KIND_RANGES:
            raise InputError(f"unknown interval kind {self.kind!r}")
        lo, hi = KIND_RANGES[self.kind]
        if self.lower > self.upper + _RANGE_TOL:
            raise DataError(
                f"{self.theorem}: lower {self.lower} exceeds upper {self.upper}; "
                "inputs are mutually inconsistent"
            )
        if self.lower < lo - _RANGE_TOL or self.upper > hi + _RANGE_TOL:
            raise InputError(
                f"{self.theorem}: interval [{self.lower}, {self.upper}] outside "
                f"the {self.kind} range [{lo}, {hi}]"
            )
        object.__setattr__(self, "notes", tuple(self.notes))

    def as_dict(self) -> dict:
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "kind": self.kind,
            "theorem": self.theorem,
            "tight": self.tight,
            "inputs_digest": self.inputs_digest,
            "notes": list(self.notes),
        }
        if self.raw_lower is not None:
            out["raw_lower"] = self.raw_lower
        if self.raw_upper is not None:
            out["raw_upper"] = self.raw_upper
        return out


def digest(payload: object) -> str:
    """Stable short digest of bound inputs, for report provenance.

    hashlib is imported here, not at module level: it maps OpenSSL's
    libcrypto (3.5 MB of RSS with OpenSSL 3.0 on x86-64 Linux), and only a
    report that prints a digest needs it, so oracle, verdict and relaxation
    runs never load it.
    """
    import hashlib

    def default(obj):
        if isinstance(obj, DistTable):
            return {
                "scope": [[r.name, list(r.domain)] for r in obj.scope],
                "entries": sorted(
                    (list(map(str, k)), float(p)) for k, p in obj.entries.items()
                ),
            }
        return str(obj)

    blob = json.dumps(payload, sort_keys=True, default=default).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _pieces(
    table: DistTable, utility: str, c: Assignment, z: Assignment
) -> tuple[Number, Number]:
    """Per-decision envelope of E[Y | do(z), c] from one observational table,
    with the unobserved mass 1 - P(z) at the utility domain's least value lo
    (lower end) or greatest value hi (upper end).

    lower = (E[Y|c,z] P(c,z) + lo (1 - P(z))) / (P(c,z) + 1 - P(z))
    upper = (E[Y|c,z] P(c,z) + hi (1 - P(z))) / (P(c,z) + 1 - P(z))

    Memoised on the table (module docstring): a verdict over K decisions
    computes one envelope per decision's table, not two per ordered pair.
    """
    key = (utility, tuple(c.items()), tuple(z.items()))
    return _memoised(table._envelopes, key, lambda: _envelope(table, utility, c, z))


def _envelope(
    table: DistTable, utility: str, c: Assignment, z: Assignment
) -> tuple[Number, Number]:
    """`_pieces` computed from two scans of the table."""
    cz = merge_assignments(c, z)
    p_cz, cells = _scan(table, cz, (utility,))
    p_z = table.prob(z)
    den = p_cz + 1 - p_z
    if float(p_cz) <= 0.0:
        raise ZeroMassError(f"event {cz} has zero probability in the table")
    if float(den) <= 0.0:
        raise ZeroMassError(f"denominator P{cz} + 1 - P{dict(z)} vanishes")
    lo, hi = table.ref(utility).value_range()
    e = _mean(cells, p_cz if cz else None)
    _check_unfixed_utility(utility, c, z)
    return (e * p_cz + lo - lo * p_z) / den, (e * p_cz + hi - hi * p_z) / den


def _gap_box(utility: VariableRef) -> tuple[float, float]:
    """[lo - hi, hi - lo]: the range of a gap in a utility with range [lo, hi]."""
    lo, hi = utility.value_range()
    return float(lo - hi), float(hi - lo)


def _clamped(
    raw_lower: float, raw_upper: float, notes: list[str], box: tuple[float, float]
) -> dict:
    """`GapInterval`'s `lower`, `upper`, `raw_lower`, `raw_upper` and `notes`
    for raw ends clamped to `box`: a `raw_*` is kept, and a "clamped from"
    note follows the form's own `notes`, only for an end the clamp moved."""
    lo, hi = box
    notes = list(notes)
    if raw_lower < lo:
        notes.append(f"lower clamped from {raw_lower}")
    if raw_upper > hi:
        notes.append(f"upper clamped from {raw_upper}")
    return {
        "lower": max(raw_lower, lo),
        "upper": min(raw_upper, hi),
        "raw_lower": raw_lower if raw_lower < lo else None,
        "raw_upper": raw_upper if raw_upper > hi else None,
        "notes": tuple(notes),
    }


def _check_flip(
    table: DistTable, role: str, held: Assignment, held_name: str, **parts: Assignment
) -> None:
    """The parts name the one variable a theorem flips: one variable, the same
    in each part, binary in `table`, at two different values when two parts
    are given, and not in the `held` assignment."""
    first, *rest = parts.values()
    name = next(iter(first), None)
    if any(len(part) != 1 or name not in part for part in parts.values()):
        raise InputError(f"{' and '.join(parts)} must assign only the {role}")
    domain = table.ref(name).domain
    if len(domain) != 2:
        raise InputError(f"{role} {name!r} must be binary, got {domain}")
    if any(part[name] == first[name] for part in rest):
        raise InputError(f"{' and '.join(parts)} must differ")
    if name in held:
        raise InputError(f"{role} {name!r} must not appear in the {held_name}")


def thm1_gap_interval(
    data: BehaviouralDataset,
    c: Assignment,
    z: Assignment,
    d: Value,
    d_star: Value,
) -> GapInterval:
    """Preference-gap interval under a known atomic shift do(z), context c.

    Both endpoints are achieved by models that reproduce the observed tables,
    so the interval is tight.
    """
    _check_pair(data, d, d_star)
    lo_d, up_d = _pieces(data.table(d), data.utility, c, z)
    lo_s, up_s = _pieces(data.table(d_star), data.utility, c, z)
    return GapInterval(
        lower=float(lo_d - up_s),
        upper=float(up_d - lo_s),
        kind="preference",
        theorem="known-shift",
        tight=True,
        inputs_digest={"op": "thm1", "c": dict(c), "z": dict(z), "d": d, "d_star": d_star,
                       "tables": {str(k): v for k, v in data.per_decision.items()}},
    )


def thm2_multidomain_lower(
    data: BehaviouralDataset,
    c: Assignment,
    z: Assignment,
    d: Value,
    d_star: Value,
) -> GapInterval:
    """Preference-gap interval pooled over experimentally grounded domains.

    Every ordered pair of domains yields a valid single-domain interval whose
    shift target shrinks to the not-yet-intervened part of z; the pooled lower
    bound is the max (and the upper the min) over pairs.  Tightness is proved
    for at most two domains, so the flag is set only for k <= 2.
    """
    _check_pair(data, d, d_star)
    domains = data.all_domains()
    pieces = []
    for dom in domains:
        extra = set(dom.intervened) - set(z)
        if extra:
            raise InputError(
                f"domain {dom.label or '(base)'} intervenes on {sorted(extra)}, "
                "which is outside the shift set"
            )
        for name, value in dom.intervened.items():
            if z[name] != value:
                raise InputError(
                    f"domain {dom.label or '(base)'} fixes {name}={value!r} but the "
                    f"shift sets {name}={z[name]!r}"
                )
        residual = {k: v for k, v in z.items() if k not in dom.intervened}
        pieces.append(
            (
                dom.label,
                _pieces(dom.per_decision[d], data.utility, c, residual),
                _pieces(dom.per_decision[d_star], data.utility, c, residual),
            )
        )
    lower, lower_pair = max(
        ((float(pi[0] - pj[1]), (li, lj)) for li, pi, _ in pieces for lj, _, pj in pieces),
        key=lambda t: t[0],
    )
    upper, upper_pair = min(
        ((float(pi[1] - pj[0]), (li, lj)) for li, pi, _ in pieces for lj, _, pj in pieces),
        key=lambda t: t[0],
    )
    notes = [f"lower from domain pair {lower_pair}", f"upper from domain pair {upper_pair}"]
    raw = {}
    if upper < lower <= upper + _RANGE_TOL:
        # Round-off crossed the pooled endpoints of a point-identified gap; the
        # hull of the two still contains it, and mirrors exactly under a swap.
        notes.append(f"endpoints {lower} > {upper} crossed by round-off; reporting their hull")
        raw = {"raw_lower": lower, "raw_upper": upper}
        lower, upper = upper, lower
    return GapInterval(
        lower=lower,
        upper=upper,
        kind="preference",
        theorem="multi-domain",
        tight=len(domains) <= 2,
        inputs_digest={"op": "thm2", "c": dict(c), "z": dict(z), "d": d, "d_star": d_star,
                       "domains": [dom.label for dom in domains]},
        notes=tuple(notes),
        **raw,
    )


def thm3_unknown_shift_interval(data: BehaviouralDataset | None = None) -> GapInterval:
    """Preference gap under a shift whose nature is unknown: [lo - hi, hi - lo]
    for the utility's range [lo, hi] in `data`, [-1, 1] without data.  Tight
    only for a 0/1 utility: `oracle.unknown_shift_witnesses` reach both ends.
    """
    ref = (VariableRef("Y", (0, 1)) if data is None
           else data.table(data.decisions[0]).ref(data.utility))
    lower, upper = _gap_box(ref)
    return GapInterval(
        lower=lower,
        upper=upper,
        kind="preference",
        theorem="unknown-shift",
        tight=ref.zero_one,
        inputs_digest={"op": "thm3"} if data is None else {"op": "thm3", "utility": ref.domain},
    )


def thm4_covariate_shift_lower(
    data: BehaviouralDataset,
    p_sigma_c: DistTable,
    c: Assignment,
    z: Assignment,
    d: Value,
    d_star: Value,
) -> GapInterval:
    """Preference-gap interval when only the shifted covariate table is known.

    Lower bound:
        1 - (2 + E_{d*}[Y|c] P_{d*}(c) - E_d[Y|c] P_d(c)
               - P_d(z) - P_{d*}(z) + P_d(c)) / P_sigma(c)
    clamped to [lo - hi, hi - lo], lo and hi the utility's range (the formula
    is the 0/1 one).  The upper bound mirrors the swapped pair's lower bound, a
    derived convenience; the interval is not tight in general.
    """
    _check_pair(data, d, d_star)
    extra = set(z) - set(c)
    if extra:
        raise InputError(f"shift variables {sorted(extra)} are not context variables")
    merge_assignments(c, z)
    ps = p_sigma_c.prob(c)
    if float(ps) <= 0.0:
        raise ZeroMassError(f"context {dict(c)} has zero shifted probability")

    # (P_t(c), E_t[Y|c]) per decision, one scan each, then P_t(z).
    moments = {t: _moments(data.table(t), data.utility, c) for t in (d, d_star)}
    p_z = {t: data.table(t).prob(z) for t in (d, d_star)}

    def raw_lower(a: Value, b: Value) -> float:
        (pa_c, e_a), (pb_c, e_b) = moments[a], moments[b]
        num = 2 + e_b * pb_c - e_a * pa_c - p_z[a] - p_z[b] + pa_c
        return float(1 - num / ps)

    lo_raw = raw_lower(d, d_star)
    up_raw = 0.0 - raw_lower(d_star, d)  # not -x, which is -0.0 when x is 0.0
    ends = _clamped(lo_raw, up_raw, [
        "upper bound is the mirrored lower bound of the swapped pair, not a stated result"
    ], _gap_box(data.table(d).ref(data.utility)))
    _check_unfixed_utility(data.utility, c, z)
    return GapInterval(
        kind="preference",
        theorem="covariate-shift",
        tight=False,
        inputs_digest={"op": "thm4", "c": dict(c), "z": dict(z), "d": d, "d_star": d_star,
                       "sigma": p_sigma_c},
        **ends,
    )


def fairness_gap_interval(
    data: BehaviouralDataset,
    d: Value,
    z0: Assignment,
    c: Assignment,
) -> GapInterval:
    """Counterfactual fairness gap relative to baseline attribute value z0.

    The interval is [lo - E, hi - E] with E = E_d[Y | z0, c] and [lo, hi] the
    utility domain's range: width hi - lo, whatever the data.  Flipping the
    protected attribute is never ruled in or out by behaviour alone.
    """
    table = data.table(d)
    _check_flip(table, "protected attribute", c, "context", z0=z0)
    e = expectation(table, data.utility, merge_assignments(z0, c))
    lo, hi = table.ref(data.utility).value_range()
    _check_unfixed_utility(data.utility, z0, c)
    lower = float(lo - e)  # not -(e - lo), which is -0.0 when e == lo
    return GapInterval(
        lower=lower,
        upper=lower + (hi - lo),
        kind="fairness",
        theorem="counterfactual-fairness",
        tight=True,
        inputs_digest={"op": "fairness", "d": d, "z0": dict(z0), "c": dict(c)},
    )


def harm_gap_interval(
    data: BehaviouralDataset,
    d: Value,
    d0: Value,
    c: Assignment,
) -> GapInterval:
    """Counterfactual harm gap of d against baseline d0 in context c.

    With a = E_d[Y|c] and b = E_{d0}[Y|c], the joint-counterfactual harm mass
    is limited to the Frechet interval [max(0, a + b - 1), min(a, b)].
    """
    _check_pair(data, d, d0)
    data.table(d).ref(data.utility).check_zero_one("harm bounds need")
    a = float(expectation(data.table(d), data.utility, c))
    b = float(expectation(data.table(d0), data.utility, c))
    _check_unfixed_utility(data.utility, c)
    return GapInterval(
        lower=max(0.0, a + b - 1.0),
        upper=min(a, b),
        kind="harm",
        theorem="counterfactual-harm",
        tight=True,
        inputs_digest={"op": "harm", "d": d, "d0": d0, "c": dict(c)},
    )


def direct_discrimination_interval(
    data: BehaviouralDataset,
    d: Value,
    z0: Assignment,
    z1: Assignment,
    c: Assignment,
) -> GapInterval:
    """Direct-discrimination gap: utility difference when the protected
    attribute is set to z1 versus z0 with everything else held at c.  The
    unobserved mass of each side lies anywhere in the utility domain's range
    [lo, hi]."""
    table = data.table(d)
    _check_flip(table, "protected attribute", c, "context", z0=z0, z1=z1)
    p1, e1 = _moments(table, data.utility, merge_assignments(z1, c))
    p0, e0 = _moments(table, data.utility, merge_assignments(z0, c))
    lo, hi = table.ref(data.utility).value_range()
    _check_unfixed_utility(data.utility, z0, c)
    diff = e1 * p1 - e0 * p0
    lower = diff + hi * p0 - hi + lo - lo * p1
    upper = diff + hi - hi * p1 - lo + lo * p0
    return GapInterval(
        lower=float(lower),
        upper=float(upper),
        kind="direct-discrimination",
        theorem="direct-discrimination",
        tight=True,
        inputs_digest={"op": "direct", "d": d, "z0": dict(z0), "z1": dict(z1), "c": dict(c)},
    )


def causal_harm_interval(
    p: DistTable,
    d1: Value,
    d0: Value,
    c: Assignment,
    decision: str = "D",
    utility: str = "Y",
    harm_value: Value = 1,
) -> GapInterval:
    """Causal harm gap of d1 against d0 from one observational joint table.

    The table must include the training policy's decision column.  The printed
    lower-bound numerator cancels to zero once the interventional conditionals
    are read off the observational table, so the lower bound is identically
    zero; this is kept as stated and flagged in the notes rather than repaired.
    """
    if d1 == d0:
        raise InputError("decision and baseline must differ")
    p.ref(decision)  # refuses a table without the decision column
    yref = p.ref(utility)
    yref.check_zero_one("causal harm needs")
    y1, y0 = harm_value, yref.domain[1 - yref.index(harm_value)]

    c = dict(c)
    p_y1_d1 = p.prob(merge_assignments({utility: y1, decision: d1}, c))
    p_d1 = p.prob(merge_assignments({decision: d1}, c))
    p_y0_d0 = p.prob(merge_assignments({utility: y0, decision: d0}, c))
    p_d0 = p.prob(merge_assignments({decision: d0}, c))
    p_c = p.prob(c)
    if float(p_c) <= 0 or float(p_d1) <= 0 or float(p_d0) <= 0:
        raise ZeroMassError(f"decision marginals undefined given context {c}")
    q_y1_d1 = p_y1_d1 / p_d1          # P_{d1}(y1 | c) under grounding
    q_y0_d0 = p_y0_d0 / p_d0          # P_{d0}(y0 | c)
    pol_d1 = p_d1 / p_c               # P(d1 | c), the training policy
    pol_d0 = p_d0 / p_c
    den = q_y0_d0 * pol_d0
    if float(den) <= 0.0:
        raise ZeroMassError(
            f"baseline event (utility={y0!r}, decision={d0!r}) has zero mass given {c}"
        )
    up_raw = float(q_y1_d1 * (1 - pol_d1) / den)
    return GapInterval(
        kind="causal-harm",
        theorem="causal-harm",
        tight=False,
        inputs_digest={"op": "causal-harm", "d1": d1, "d0": d0, "c": dict(c), "table": p},
        **_clamped(0.0, max(0.0, up_raw), [
            "lower-bound numerator cancels to zero under grounding (kept as stated)"
        ], (0.0, 1.0)),
    )
