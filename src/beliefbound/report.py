"""Machine-readable run reports.

One Report per CLI invocation: the echoed request, computed intervals or
verdicts, oracle certification numbers, and the warnings that fired (clamps,
known formula caveats).  JSON output is key-sorted and timestamp-free so that
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__
from .errors import InputError

TOOL_NAME = "beliefbound"


def _check_finite(node, path="report") -> None:
    if isinstance(node, float) and not math.isfinite(node):
        raise InputError(f"non-finite value at {path}")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_finite(value, f"{path}[{i}]")


@dataclass
class Report:
    command: str
    request: dict
    intervals: list[dict] = field(default_factory=list)
    verdict: dict | None = None
    oracle: dict | None = None
    relaxation: dict | None = None
    warnings: list[str] = field(default_factory=list)
    seed: int | None = None

    def as_dict(self) -> dict:
        out = {
            "tool": TOOL_NAME,
            "version": __version__,
            "command": self.command,
            "request": self.request,
            "warnings": list(self.warnings),
            "seed": self.seed,
        }
        if self.intervals:
            out["intervals"] = self.intervals
        if self.verdict is not None:
            out["verdict"] = self.verdict
        if self.oracle is not None:
            out["oracle"] = self.oracle
        if self.relaxation is not None:
            out["relaxation"] = self.relaxation
        _check_finite(out)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        doc = self.as_dict()
        lines = [f"{doc['tool']} {doc['version']} :: {doc['command']}"]
        for key, value in sorted(doc["request"].items()):
            lines.append(f"  {key}: {value}")
        for interval in doc.get("intervals", []):
            tight = "tight" if interval.get("tight") else "not tight"
            lines.append(
                f"  [{interval['lower']:+.6f}, {interval['upper']:+.6f}]  "
                f"{interval['kind']} ({interval['theorem']}, {tight})"
            )
        if "verdict" in doc:
            v = doc["verdict"]
            lines.append(
                f"  mode={v['mode']} lambda={v['lambda']} "
                f"ruled_out={v['ruled_out']} surviving={v['surviving']}"
            )
            if v.get("strong_winner") is not None:
                lines.append(f"  strong winner: {v['strong_winner']}")
            for cert in v.get("certificates", []):
                lines.append(
                    f"    {cert['preferred']} beats {cert['ruled_out']} "
                    f"(lower {cert['lower']:+.6f})"
                )
        if "oracle" in doc:
            o = doc["oracle"]
            lines.append(
                f"  lp={o['lp_value']:+.9f} closed-form={o['closed_form']:+.9f} "
                f"delta={o['delta']:.3e} ({'certified' if o['certified'] else 'MISMATCH'})"
            )
        if "relaxation" in doc:
            r = doc["relaxation"]
            lines.append(f"  {r['kind']}: {r['value']:+.6f} ({r['method']})")
        for warning in doc["warnings"]:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "table":
            return self.to_table()
        raise InputError(f"unknown report format {fmt!r}")
