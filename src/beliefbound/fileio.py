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
"""

from __future__ import annotations

import csv
import json
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


def _load_json(source) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
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


def _not_scalar(values: tuple, keys: Sequence[str], owner: str) -> InputError:
    """The error for a table key that failed to hash: one of its `values`
    (read from fields `keys`) is a JSON array or object."""
    key, value = next(kv for kv in zip(keys, values) if isinstance(kv[1], (list, dict)))
    return InputError(f"{owner} field {key!r} must be a JSON scalar, not {value!r:.40}")


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
    atoms = []
    for item in _array(doc, "exogenous_distribution", "model", []):
        assignment, p = _fields(item, ("assignment", "p"), "exogenous_distribution entry")
        key = _fields(assignment, exo_refs, "exogenous assignment")
        try:
            hash(key)
        except TypeError:
            raise _not_scalar(key, tuple(exo_refs), "exogenous assignment") from None
        atoms.append((key, _parse_prob(p)))
    exo = ExoDistribution(tuple(exo_refs.values()), tuple(atoms))

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
        table = {}
        owner = f"mechanism row for {ref.name!r}"
        inputs = (*parents, *exo_parents)
        for row in _array(rows, ref.name, "mechanisms"):
            given, value = _fields(row, ("given", "value"), owner)
            key = _fields(given, inputs, f"{owner} given")
            try:
                duplicate = key in table
            except TypeError:
                raise _not_scalar(key, inputs, f"{owner} given") from None
            if duplicate:
                raise InputError(f"duplicate mechanism row for {ref.name!r} at {given}")
            table[key] = value
        mechanisms[ref.name] = Mechanism(ref, parents, exo_parents, table)
    return Scm(tuple(variables), mechanisms, exo)


def dump_scm(scm: Scm) -> dict:
    mechanisms = {}
    for name in scm.names:
        mech = scm.mechanisms[name]
        rows = []
        for key, value in sorted(mech.table.items(), key=lambda kv: str(kv[0])):
            given = dict(zip((*mech.parents, *mech.exo_parents), key))
            rows.append({"given": given, "value": value})
        mechanisms[name] = rows
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
    names = [r.name for r in refs]
    entries = {}
    for item in _array(doc, "entries", "table"):
        assignment, p = _fields(item, ("assignment", "p"), "entry")
        key = _fields(assignment, names, "entry assignment")
        try:
            entries[key] = _parse_prob(p)
        except TypeError:
            raise _not_scalar(key, names, "entry assignment") from None
    return DistTable(refs, entries)


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


def dump_dataset(data: BehaviouralDataset) -> dict:
    out = {
        "decision": {"name": data.decision.name, "domain": list(data.decision.domain)},
        "utility": data.utility,
        "per_decision": {
            str(d): dump_table(t) for d, t in sorted(data.per_decision.items(), key=lambda kv: str(kv[0]))
        },
    }
    if data.domains:
        out["domains"] = [
            {
                "label": dom.label,
                "intervened": dict(dom.intervened),
                "per_decision": {
                    str(d): dump_table(t)
                    for d, t in sorted(dom.per_decision.items(), key=lambda kv: str(kv[0]))
                },
            }
            for dom in data.domains
        ]
    return out


# -- CSV sample logs ---------------------------------------------------------


def _parse_cell(raw: str) -> Value:
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
    """Rows and weights from a UTF-8 sample log with a header line."""
    path = Path(source)
    rows: list[dict[str, Value]] = []
    weights: list[float] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty log")
        has_weight = "weight" in reader.fieldnames
        for record in reader:
            weight = 1.0
            row = {}
            for name, raw in record.items():
                if raw is None or name is None:
                    raise InputError(f"{path}: ragged row {record}")
                if name == "weight" and has_weight:
                    weight = float(raw)
                else:
                    row[name] = _parse_cell(raw)
            rows.append(row)
            weights.append(weight)
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
