"""Reading models, tables, datasets and sample logs; writing the first three.

Formats:
  * model description (JSON): ``variables`` (name, domain, parents,
    exo_parents), ``exogenous`` (name, domain), ``exogenous_distribution``
    (list of {assignment, p}), ``mechanisms`` (per target: list of
    {given, value}).  Probabilities may be exact decimal strings.
  * distribution (JSON): {scope, entries: [{assignment, p}]}.
  * behavioural dataset (JSON): decision, utility, per-decision distribution
    objects, optional experimental domains.
  * sample log (CSV): header of variable names plus an optional ``weight``
    column.
  * skeleton (JSON): ``variables``, each {name, domain (default the data's),
    parents (default none)}.

`load_input` reads a ``--data`` file: a ``.csv`` is a sample log, a JSON object
a model, dataset or table by its ``mechanisms``, ``per_decision`` or ``entries``
key, tried in that order.  No other module reads a file.

A repeated JSON key, table assignment, exogenous atom, mechanism row or CSV
column is an `InputError`, not a silent choice of one copy.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import InputError
from .tables import (
    BehaviouralDataset,
    DistTable,
    ExperimentalDomain,
    Number,
    Policy,
    Value,
    VariableRef,
    estimate_from_samples,
    policy_to_atomic,
)

if TYPE_CHECKING:
    from .oracle import SkeletonVariable
    from .scm import Scm


def _parse_prob(raw) -> Number:
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
            float(value)  # the checks compare probabilities as floats
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad probability literal {raw!r}") from exc
        return value
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise InputError(f"bad probability value {raw!r}")


def _dump_prob(p: Number):
    return str(p) if isinstance(p, Fraction) else float(p)


def _repeat(keys: list):
    """The first of `keys` that repeats an earlier one, or None."""
    return next((k for i, k in enumerate(keys) if k in keys[:i]), None)


def _load_json(source) -> dict:
    if isinstance(source, Mapping):
        return dict(source)

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = _repeat([k for k, _ in pairs])
            raise InputError(f"{source}: JSON object repeats key {key!r}")
        return obj

    path = source if hasattr(source, "read_text") else Path(source)  # a zipped resource too
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except RecursionError as exc:
        raise InputError(f"{source}: JSON nested too deeply") from exc


def _mapping(node, what: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise InputError(f"{what} must be a JSON object, not {node!r:.40}")
    return node


def _array(node, key: str, owner: str, *default) -> Sequence:
    """``node[key]``, or ``default`` when given and the key is absent, as a JSON array."""
    value = node.get(key, *default) if default else _field(node, key, owner)
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{owner} field {key!r} must be a JSON array, not {value!r:.40}")
    return value


def _fields(node, keys: Sequence, owner: str) -> tuple:
    """``node``'s values at ``keys``; a missing one is an `InputError` naming
    the field and its owner."""
    if type(node) is not dict:  # parsed JSON objects are dicts; skip the slower check
        node = _mapping(node, owner)
    try:
        return tuple(map(node.__getitem__, keys))
    except KeyError as exc:
        raise InputError(f"{owner} lacks field {exc.args[0]!r}") from None


def _field(node, key: str, owner: str):
    return _fields(node, (key,), owner)[0]


def _keyed_rows(rows, fields, keys: Sequence[str], owner: str, key_owner: str) -> dict:
    """``{key: value}`` of JSON objects `rows`, each with an assignment at
    ``fields[0]`` (read at `keys`) and a value at ``fields[1]``; a key that
    holds a value that does not hash (a JSON array or object), or repeats, is
    an `InputError`."""
    out = {}
    for row in rows:
        assignment, value = _fields(row, fields, owner)
        key = _fields(assignment, keys, key_owner)
        try:
            repeated = key in out
        except TypeError:
            name, bad = next(kv for kv in zip(keys, key) if not _hashes(kv[1]))
            raise InputError(
                f"{key_owner} field {name!r} must be a JSON scalar, not {bad!r:.40}"
            ) from None
        if repeated:
            raise InputError(f"duplicate {owner} at {assignment}")
        out[key] = value
    return out


def _hashes(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _names(node, key: str, owner: str, *default) -> tuple[str, ...]:
    """`_array` of variable names: every entry must be a JSON string."""
    names = tuple(_array(node, key, owner, *default))
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"{owner} field {key!r} must hold JSON strings, not {name!r:.40}")
    return names


def _ref(obj, owner: str) -> VariableRef:
    name = _field(obj, "name", owner)
    if not isinstance(name, str):
        raise InputError(f"{owner} field 'name' must be a JSON string, not {name!r:.40}")
    return VariableRef(name, tuple(_array(obj, "domain", owner)))


# -- structural models -----------------------------------------------------


def load_scm(source) -> Scm:
    from .scm import ExoDistribution, Mechanism, Scm

    doc = _load_json(source)
    exo_refs = {
        r.name: r
        for r in (_ref(obj, "exogenous entry") for obj in _array(doc, "exogenous", "model", []))
    }
    atoms = _keyed_rows(_array(doc, "exogenous_distribution", "model", []), ("assignment", "p"),
                        tuple(exo_refs), "exogenous_distribution entry", "exogenous assignment")
    exo = ExoDistribution(tuple(exo_refs.values()),
                          tuple((key, _parse_prob(p)) for key, p in atoms.items()))

    variables = []
    mechanisms = {}
    for spec in _array(doc, "variables", "model"):
        ref = _ref(spec, "variables entry")
        variables.append(ref)
        parents = _names(spec, "parents", "variables entry", ())
        exo_parents = _names(spec, "exo_parents", "variables entry", ())
        rows = _mapping(_field(doc, "mechanisms", "model"), "mechanisms")
        if rows.get(ref.name) is None:
            raise InputError(f"no mechanism rows for variable {ref.name!r}")
        owner = f"mechanism row for {ref.name!r}"
        table = _keyed_rows(_array(rows, ref.name, "mechanisms"), ("given", "value"),
                            (*parents, *exo_parents), owner, f"{owner} given")
        mechanisms[ref.name] = Mechanism(ref, parents, exo_parents, table)
    return Scm(tuple(variables), mechanisms, exo)


def dump_scm(scm: Scm) -> dict:
    mechanisms = {}
    for name in scm.names:
        mech = scm.mechanisms[name]
        inputs = (*mech.parents, *mech.exo_parents)
        rows = sorted(mech.table.items(), key=lambda kv: str(kv[0]))
        mechanisms[name] = [{"given": dict(zip(inputs, k)), "value": v} for k, v in rows]
    return {
        "variables": [
            {
                "name": r.name,
                "domain": list(r.domain),
                "parents": list(scm.mechanisms[r.name].parents),
                "exo_parents": list(scm.mechanisms[r.name].exo_parents),
            }
            for r in scm.variables
        ],
        "exogenous": [
            {"name": r.name, "domain": list(r.domain)} for r in scm.exo.variables
        ],
        "exogenous_distribution": [
            {"assignment": dict(zip(scm.exo.names, key)), "p": _dump_prob(p)}
            for key, p in scm.exo.atoms
        ],
        "mechanisms": mechanisms,
    }


# -- distribution tables and datasets ---------------------------------------


def load_table(source) -> DistTable:
    doc = _load_json(source)
    refs = tuple(_ref(obj, "scope entry") for obj in _array(doc, "scope", "table"))
    entries = _keyed_rows(_array(doc, "entries", "table"), ("assignment", "p"),
                          [r.name for r in refs], "entry", "entry assignment")
    return DistTable(refs, {key: _parse_prob(p) for key, p in entries.items()})


def dump_table(table: DistTable) -> dict:
    return {
        "scope": [{"name": r.name, "domain": list(r.domain)} for r in table.scope],
        "entries": [
            {"assignment": dict(zip(table.names, key)), "p": _dump_prob(p)}
            for key, p in sorted(table.entries.items(), key=lambda kv: str(kv[0]))
        ],
    }


def _decision_key(domain: Sequence[Value], key: str) -> Value:
    matches = [v for v in domain if str(v) == key]
    if len(matches) != 1:
        raise InputError(f"decision key {key!r} is ambiguous or unknown in {domain}")
    return matches[0]


def _load_per_decision(doc: Mapping, domain: Sequence[Value]) -> dict[Value, DistTable]:
    return {
        _decision_key(domain, key): load_table(_mapping(table_doc, "per_decision table"))
        for key, table_doc in _mapping(doc, "per_decision").items()
    }


def load_dataset(source) -> BehaviouralDataset:
    doc = _load_json(source)
    decision = _ref(_field(doc, "decision", "dataset"), "decision")
    per_decision = _load_per_decision(_field(doc, "per_decision", "dataset"), decision.domain)
    domains = tuple(
        ExperimentalDomain(
            _field(dom, "label", "domain"),
            dict(_mapping(dom.get("intervened", {}), "domain field 'intervened'")),
            _load_per_decision(_field(dom, "per_decision", "domain"), decision.domain),
        )
        for dom in _array(doc, "domains", "dataset", [])
    )
    return BehaviouralDataset(
        decision, per_decision, utility=doc.get("utility", "Y"), domains=domains
    )


def _dump_per_decision(per_decision: Mapping[Value, DistTable]) -> dict:
    tables = sorted(per_decision.items(), key=lambda kv: str(kv[0]))
    return {str(d): dump_table(t) for d, t in tables}


def dump_dataset(data: BehaviouralDataset) -> dict:
    out = {
        "decision": {"name": data.decision.name, "domain": list(data.decision.domain)},
        "utility": data.utility,
        "per_decision": _dump_per_decision(data.per_decision),
    }
    if data.domains:
        out["domains"] = [
            {"label": dom.label, "intervened": dict(dom.intervened),
             "per_decision": _dump_per_decision(dom.per_decision)}
            for dom in data.domains
        ]
    return out


# -- CSV sample logs ---------------------------------------------------------


def parse_cell(raw: str) -> Value:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def load_csv_log(source) -> tuple[list[dict[str, Value]], list[float]]:
    """Rows and weights from a UTF-8 sample log with a header line; a weight
    cell must hold a finite number."""
    import csv  # only CSV inputs pay for it

    path = Path(source)
    rows: list[dict[str, Value]] = []
    weights: list[float] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty log")
        if (repeated := _repeat(reader.fieldnames)) is not None:
            raise InputError(f"{path}: header repeats column {repeated!r}")
        for record in reader:
            row = {}
            for name, raw in record.items():
                if raw is None or name is None:
                    raise InputError(f"{path}: ragged row {record}")
                row[name] = raw if name == "weight" else parse_cell(raw)
            cell = row.pop("weight", "1")
            try:
                weight = float(cell)
            except ValueError:
                weight = math.nan
            if not math.isfinite(weight):
                raise InputError(
                    f"{path}: line {reader.line_num}: weight {cell!r} is not a finite number"
                )
            weights.append(weight)
            rows.append(row)
    return rows, weights


def dataset_from_log(
    rows: Sequence[Mapping[str, Value]],
    weights: Sequence[float] | None,
    decision: str,
    context: Sequence[str],
    utility: str = "Y",
) -> BehaviouralDataset:
    """Behavioural dataset from a policy-generated log.

    The joint frequency table is converted decision-by-decision through the
    policy identity P_d(v) = P(v, d) / P(d | context), which needs the policy
    to be positive on every context (deterministic logs are rejected).
    """
    joint = estimate_from_samples(list(rows), weights)
    dref = joint.ref(decision)
    # `policy_to_atomic` reads P(d | context) off the joint, not the policy's rows.
    policy = Policy(dref, tuple(context), {})
    per_decision = {d: policy_to_atomic(joint, policy, d) for d in dref.domain}
    return BehaviouralDataset(dref, per_decision, utility=utility)


def load_input(source) -> tuple[str, object]:
    """(kind, payload) of a ``--data`` file, kind one of scm, dataset, table
    and log (payload `load_csv_log`'s rows and weights)."""
    path = Path(source)
    if path.suffix.lower() == ".csv":
        return "log", load_csv_log(path)
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    # Called by name, not through a table built at import: a wrapped loader is the one run.
    if "mechanisms" in doc:
        return "scm", load_scm(doc)
    if "per_decision" in doc:
        return "dataset", load_dataset(doc)
    if "entries" in doc:
        return "table", load_table(doc)
    raise InputError(f"{source}: unrecognised input format")


def load_skeleton(source, scope: Sequence[VariableRef]) -> list[SkeletonVariable]:
    """The skeleton file's variables, each named in `scope`, the data's."""
    from .oracle import SkeletonVariable  # numpy only for the commands that read a skeleton

    refs = {r.name: r for r in scope}
    out = []
    for item in _array(_load_json(source), "variables", "skeleton"):
        name = _field(item, "name", "skeleton variables entry")
        if name not in tuple(refs):  # compared, not hashed: a name may be any JSON value
            raise InputError(f"skeleton variable {name!r} not in data scope")
        owner = f"skeleton variable {name!r}"
        domain = _array(item, "domain", owner, refs[name].domain)
        out.append(SkeletonVariable(name, domain, _array(item, "parents", owner, ())))
    return out
