"""Command-line front door.

Subcommands: ``bounds`` (closed-form intervals), ``predict`` (weak/strong
verdicts), ``oracle`` (LP certification of the closed forms), ``relax``
(ball/proxy relaxations).  A command returns its report's fields and a
failure line or None; `main` alone builds and writes the report to stdout,
writes the one ``error:`` line to stderr and picks the exit code, so stderr
holds one line exactly when the code is not 0.  A malformed command line is
that one line too, not argparse's usage block.

Exit codes: 0 success; 2 parse/domain errors; 3 ``predict --require-verdict``
with nothing ruled out; 4 oracle certification failed (a tight claim more than
``--tol`` from the LP's optimum, or a form claiming no tightness more than
``--tol`` inside it: unsound); 5 atom limit breached.  A 3 or a 4 comes after
the report.

Start-up: ``bounds``, ``predict`` and ``relax --kind proxy`` on table,
dataset or CSV inputs never import numpy.  ``oracle`` imports it once its
question passes the closed form; ``relax --kind approx-grounding`` and any
model (``mechanisms``) input import it when they run, through the modules
that need it.  Every ``bounds`` command maps OpenSSL (hashlib), because its
report prints a provenance digest; ``predict``, ``oracle`` and ``relax`` read
interval ends only and skip it, except ``relax --method sample``, whose
numpy.random import loads it.  ``predict`` alone loads the verdict module.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from . import bounds as bnd
from . import fileio
from .errors import AtomLimitError, BeliefBoundError, InputError
from .report import Report
from .tables import SUM_TOL, BehaviouralDataset, DistTable, Value, estimate_from_samples

if TYPE_CHECKING:
    from .oracle import SkeletonVariable

# The preference-gap closed forms over (data, c, z, d, d*): `bounds` runs them
# for these theorems, and `predict` takes its --theorem choices from the keys
# and its provider's lower ends from the forms.
_PREFERENCE = {
    "intervention": bnd.thm1_gap_interval,
    "multidomain": bnd.thm2_multidomain_lower,
    "unknown-shift": lambda data, c, z, d, d_star: bnd.thm3_unknown_shift_interval(data),
}

THEOREMS = (
    *_PREFERENCE,
    "covariate-shift",
    "fairness",
    "harm",
    "direct-discrimination",
    "causal-harm",
)


def parse_assignment(raw: str | None) -> dict[str, Value]:
    """Comma-separated name=value pairs; a value reads as a CSV cell does."""
    if not raw:
        return {}
    out: dict[str, Value] = {}
    for chunk in raw.split(","):
        if "=" not in chunk:
            raise InputError(f"bad assignment chunk {chunk!r} (want name=value)")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in out:
            raise InputError(f"variable {name!r} assigned twice")
        out[name] = fileio.parse_cell(value)
    return out


def parse_sigma_context(raw: str, data: BehaviouralDataset) -> DistTable:
    """Shifted covariate table from "Z=1:0.9" style pairs (';'-separated).

    With a single variable, one omitted domain value absorbs the leftover
    mass, so binary covariates need only the shifted cell.
    """
    cells: dict[tuple[Value, ...], float] = {}
    names: set[str] = set()
    for chunk in raw.split(";"):
        if ":" not in chunk:
            raise InputError(f"bad shifted-covariate chunk {chunk!r} (want name=value:prob)")
        assignment_part, prob_part = chunk.rsplit(":", 1)
        assignment = parse_assignment(assignment_part)
        names.update(assignment)
        key = tuple(assignment[n] for n in sorted(assignment))
        if key in cells:
            raise InputError(f"repeated cell in shifted-covariate chunk {chunk!r}")
        try:
            cells[key] = float(prob_part)
        except ValueError:
            raise InputError(f"bad probability in shifted-covariate chunk {chunk!r}") from None
    sorted_names = sorted(names)
    refs = [data.table(data.decisions[0]).ref(n) for n in sorted_names]
    total = sum(cells.values())
    if total < 1.0 - SUM_TOL and len(refs) == 1:
        missing = [v for v in refs[0].domain if (v,) not in cells]
        if len(missing) == 1:
            cells[(missing[0],)] = 1.0 - total
    return DistTable(tuple(refs), cells)


def _load_data(args):
    if not args.data:
        raise InputError("this request needs --data")
    return fileio.load_input(args.data)


def _variables(args) -> tuple[str, str]:
    """(decision, utility) names: --decision-var and --utility-var, else D and Y."""
    return ("D" if args.decision_var is None else args.decision_var,
            "Y" if args.utility_var is None else args.utility_var)


def _dataset_from_args(args) -> BehaviouralDataset:
    kind, payload = _load_data(args)
    if kind == "dataset":  # names its own decision and utility
        for flag, given, own in (("--decision-var", args.decision_var, payload.decision.name),
                                 ("--utility-var", args.utility_var, payload.utility)):
            if given not in (None, own):
                raise InputError(f"{flag} {given!r} differs from the dataset's {own!r}")
        return payload
    if kind == "scm":
        from .scm import scm_dataset

        return scm_dataset(payload, *_variables(args))
    if kind == "log":
        rows, weights = payload
        context = [s for s in (args.context_vars or "").split(",") if s]
        if not context:
            raise InputError("CSV ingestion needs --context-vars naming the policy inputs")
        decision, utility = _variables(args)
        return fileio.dataset_from_log(rows, weights, decision, context, utility)
    raise InputError("--data must be a model, dataset, or CSV log for this command")


def _joint_from_args(args) -> DistTable:
    kind, payload = _load_data(args)
    if kind == "table":
        return payload
    if kind == "log":
        rows, weights = payload
        return estimate_from_samples(rows, weights)
    raise InputError(
        "causal-harm needs a joint distribution (table JSON or CSV log) including "
        "the decision column"
    )


def _require(args, names: list[str], label: str | None = None) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) in (None, "")]
    if missing:
        label = label or f"--theorem {getattr(args, 'theorem', args.command)}"
        raise InputError(f"{label} needs " + ", ".join(f"--{n}" for n in missing))


def _gap_question(args, label: str) -> tuple[BehaviouralDataset, dict, dict, Value, Value]:
    """(data, c, z, d, d*) of a command that asks about one ordered gap."""
    _require(args, ["decision", "baseline", "shift"], label=label)
    data = _dataset_from_args(args)
    c = parse_assignment(args.context)
    z = parse_assignment(args.shift)
    return data, c, z, fileio.parse_cell(args.decision), fileio.parse_cell(args.baseline)


def _request(args, c: dict, z: dict, **extra) -> dict:
    """The echoed request of a command about one (decision, baseline) pair."""
    return {"data": args.data, "context": c, "shift": z, "decision": args.decision,
            "baseline": args.baseline, **extra}


def _interval_warnings(intervals: list[dict]) -> list[str]:
    skip = ("lower from domain pair", "upper from domain pair")
    return [
        note
        for interval in intervals
        for note in interval.get("notes", [])
        if not note.startswith(skip)
    ]


def cmd_bounds(args) -> tuple[dict, None]:
    c = parse_assignment(args.context)
    z = parse_assignment(args.shift)
    d, d0 = (None if v is None else fileio.parse_cell(v) for v in (args.decision, args.baseline))
    request = _request(args, c, z, theorem=args.theorem)
    theorem = args.theorem
    if theorem == "unknown-shift":  # a given --data sets the utility's range
        interval = bnd.thm3_unknown_shift_interval(_dataset_from_args(args) if args.data else None)
    elif theorem == "causal-harm":
        _require(args, ["decision", "baseline"])
        joint = _joint_from_args(args)
        interval = bnd.causal_harm_interval(
            joint, d, d0, c, *_variables(args),  # decision, utility
            harm_value=fileio.parse_cell(args.harm_value),
        )
    else:
        data = _dataset_from_args(args)
        if theorem in _PREFERENCE:
            _require(args, ["decision", "baseline", "shift"])
            interval = _PREFERENCE[theorem](data, c, z, d, d0)
        elif theorem == "covariate-shift":
            _require(args, ["decision", "baseline", "shift", "sigma-context"])
            sigma = parse_sigma_context(args.sigma_context, data)
            interval = bnd.thm4_covariate_shift_lower(data, sigma, c, z, d, d0)
            request["sigma_context"] = args.sigma_context
        elif theorem == "fairness":
            _require(args, ["decision", "attribute-baseline"])
            z0 = parse_assignment(args.attribute_baseline)
            interval = bnd.fairness_gap_interval(data, d, z0, c)
            request["attribute_baseline"] = z0
        elif theorem == "harm":
            _require(args, ["decision", "baseline"])
            interval = bnd.harm_gap_interval(data, d, d0, c)
        elif theorem == "direct-discrimination":
            _require(args, ["decision", "attribute-baseline", "attribute-value"])
            z0 = parse_assignment(args.attribute_baseline)
            z1 = parse_assignment(args.attribute_value)
            interval = bnd.direct_discrimination_interval(data, d, z0, z1, c)
            request["attribute_baseline"] = z0
            request["attribute_value"] = z1
        else:  # pragma: no cover - argparse rejects other values
            raise InputError(f"unknown theorem {theorem!r}")
    intervals = [interval.as_dict()]
    return {"request": request, "intervals": intervals,
            "warnings": _interval_warnings(intervals)}, None


def cmd_predict(args) -> tuple[dict, str | None]:
    from .predictability import strong_verdict, weak_verdict

    data = _dataset_from_args(args)
    c = parse_assignment(args.context)
    z = parse_assignment(args.shift)
    form = _PREFERENCE[args.theorem]
    run = weak_verdict if args.mode == "weak" else strong_verdict
    verdict = run(lambda d, d0: form(data, c, z, d, d0).lower, data.decisions, c, args.lam)
    request = {"theorem": args.theorem, "data": args.data, "context": c, "shift": z,
               "mode": args.mode, "lambda": args.lam}
    failed = args.require_verdict and not verdict.ruled_out
    return ({"request": request, "verdict": verdict.as_dict()},
            "no decision could be ruled out" if failed else None)


def _skeleton_from_args(
    args, data: BehaviouralDataset, z: dict[str, Value], c: dict[str, Value]
) -> list[SkeletonVariable]:
    if args.skeleton:
        return fileio.load_skeleton(args.skeleton, data.scope)
    from .oracle import SkeletonVariable

    # Default: the utility responds to the decision and every other variable;
    # a context variable outside the shift responds to the shift variables, so
    # do(z) can move it; everything else is a root.
    shifted = [r.name for r in data.scope if r.name in z and r.name != data.utility]
    out = []
    for ref in data.scope:
        if ref.name == data.utility:
            parents = (data.decision.name, *[r.name for r in data.scope if r.name != ref.name])
        elif ref.name in c and ref.name not in z:
            parents = tuple(shifted)
        else:
            parents = ()
        out.append(SkeletonVariable(ref.name, ref.domain, parents))
    return out


def cmd_oracle(args) -> tuple[dict, str | None]:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol}")
    data, c, z, d, d0 = _gap_question(args, "oracle")
    # The LP is constrained by every domain; the closed form pools those whose
    # intervention agrees with do(z) (the base alone, i.e. thm1, when none does).
    # It runs first, so a question it refuses builds no polytope and imports no
    # numpy.
    agree = tuple(
        dom for dom in data.domains
        if all(k in z and z[k] == v for k, v in dom.intervened.items())
    )
    closed = bnd.thm2_multidomain_lower(replace(data, domains=agree), c, z, d, d0)
    from .oracle import atom_limit, build_polytope, optimize_gap

    limit = atom_limit(args.atom_limit)
    skeleton = _skeleton_from_args(args, data, z, c)
    polytope = build_polytope(data, skeleton, limit)
    lp_value = optimize_gap(polytope, z, c, d, d0, args.direction)
    closed_value = closed.lower if args.direction == "min" else closed.upper
    delta = abs(lp_value - closed_value)
    # A form that claims no tightness need only be sound: <= the LP's min, >= its max.
    slack = lp_value - closed_value if args.direction == "min" else closed_value - lp_value
    certified = delta <= args.tol if closed.tight else slack >= -args.tol
    oracle = {
        "atoms": polytope.space.dimension,
        "constraints": int(polytope.b_eq.shape[0]),
        "direction": args.direction,
        "lp_value": lp_value,
        "closed_form": float(closed_value),
        "delta": delta,
        "certified": certified,
        "tight_claimed": closed.tight,
        **({} if closed.tight else {"slack": slack}),
    }
    what = "oracle delta" if closed.tight else "unsound closed form: overreach"
    failure = None if certified else f"{what} {delta:.3e} exceeds tolerance {args.tol:.3e}"
    request = _request(args, c, z, direction=args.direction, tolerance=args.tol)
    return {"request": request, "oracle": oracle}, failure


def cmd_relax(args) -> tuple[dict, None]:
    from . import relaxations

    data, c, z, d, d0 = _gap_question(args, "relax")
    if args.kind == "approx-grounding":
        if args.delta is None:
            raise InputError("approx-grounding needs --delta")
        if args.method == "sample" and args.seed is None:
            raise InputError("sampling needs an explicit --seed")
        samples = relaxations.DEFAULT_SAMPLES if args.samples is None else args.samples
        concentration = (relaxations.DEFAULT_CONCENTRATION if args.concentration is None
                         else args.concentration)
        value = relaxations.approx_grounding_lower(
            data, relaxations.GroundingBall(args.delta), c, z, d, d0, method=args.method,
            n_samples=samples, seed=args.seed, concentration=concentration,
        )
        payload = {"kind": "approx-grounding", "method": args.method, "delta": args.delta,
                   "value": value}
        if args.method == "sample":
            payload.update(samples=samples, concentration=concentration)
    else:
        if args.alpha is None:
            raise InputError("proxy needs --alpha")
        relaxations._check_reduced(c, z, "the proxy bound")
        value = relaxations.proxy_alignment_lower(data, args.alpha, z, d, d0)
        payload = {"kind": "proxy", "method": "closed-form", "alpha": args.alpha,
                   "value": value}
    return {"request": _request(args, c, z), "relaxation": payload}, None


def _add_common(sub, pair: bool = True) -> None:
    sub.add_argument("--data", help="model JSON, dataset JSON, table JSON, or CSV log")
    sub.add_argument("--decision-var", help="decision variable (default D; a dataset has its own)")
    sub.add_argument("--utility-var", help="utility variable (default Y; a dataset has its own)")
    sub.add_argument("--context-vars", help="policy inputs for CSV ingestion (comma list)")
    sub.add_argument("--shift", help="shift assignment, e.g. Z=1")
    sub.add_argument("--context", help="context assignment, e.g. Z=1")
    if pair:  # the decision and baseline of one gap; `predict` compares every decision
        sub.add_argument("--decision", help="decision value")
        sub.add_argument("--baseline", help="baseline decision value")
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--seed", type=int, default=None, help="echoed into the report")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an `InputError`, so it ends in
    `main`'s one ``error:`` line rather than a usage block, and reads no
    abbreviated flag (``predict --decision`` is not ``--decision-var``);
    subparsers inherit the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beliefbound",
        description="Behavioural bounds on preference, fairness, and harm gaps",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    b = commands.add_parser("bounds", help="closed-form gap intervals")
    _add_common(b)
    b.add_argument("--theorem", choices=THEOREMS, required=True)
    b.add_argument("--sigma-context", help='shifted covariate cells, e.g. "Z=1:0.9"')
    b.add_argument("--attribute-baseline", help="protected attribute baseline, e.g. Z=0")
    b.add_argument("--attribute-value", help="protected attribute flip value, e.g. Z=1")
    b.add_argument("--harm-value", default="1", help="utility value counted as the harm event")
    b.set_defaults(func=cmd_bounds)

    p = commands.add_parser("predict", help="weak/strong predictability verdicts")
    _add_common(p, pair=False)
    p.add_argument("--theorem", choices=tuple(_PREFERENCE), default="intervention")
    p.add_argument("--mode", choices=("weak", "strong"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="rationality margin")
    p.add_argument("--require-verdict", action="store_true",
                   help="exit 3 when nothing is ruled out")
    p.set_defaults(func=cmd_predict)

    o = commands.add_parser("oracle", help="LP certification of the closed forms")
    _add_common(o)
    o.add_argument("--direction", choices=("min", "max"), required=True)
    o.add_argument("--tol", type=float, default=1e-6)
    o.add_argument("--skeleton", help="JSON variable/parent declaration")
    o.add_argument("--atom-limit", help="cap on canonical atoms (a positive integer)")
    o.set_defaults(func=cmd_oracle)

    r = commands.add_parser("relax", help="approximate-grounding and proxy bounds")
    _add_common(r)
    r.add_argument("--kind", choices=("approx-grounding", "proxy"), required=True)
    r.add_argument("--delta", type=float, default=None, help="total-variation radius")
    r.add_argument("--alpha", type=float, default=None, help="proxy alignment level")
    r.add_argument("--method", choices=("exact-lp", "sample"), default="exact-lp")
    r.add_argument("--samples", type=int, help="sampler proposals (package default)")
    r.add_argument("--concentration", type=float, help="sampler concentration (package default)")
    r.set_defaults(func=cmd_relax)
    return parser


def main(argv=None) -> int:
    """Run one command: the report to stdout, then on any exit code but 0 one
    ``error:`` line to stderr.  A report that fails to render (a non-finite
    value) is an exit 2 with nothing on stdout."""
    code = 0
    try:
        args = build_parser().parse_args(argv)
        fields, failure = args.func(args)
        sys.stdout.write(Report(args.command, seed=args.seed, **fields).render(args.format))
        if failure is not None:
            code = 3 if args.command == "predict" else 4
    except BeliefBoundError as exc:
        failure = str(exc).splitlines()[0]
        code = 5 if isinstance(exc, AtomLimitError) else 2
    except (OSError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        failure, code = f"{exc.__class__.__name__}: {str(exc).splitlines()[0]}", 2
    if code:
        sys.stderr.write(f"error: {failure}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
