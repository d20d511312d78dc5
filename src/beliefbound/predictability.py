"""Weak and strong predictability verdicts from pairwise gap lower bounds.

A decision is ruled out once some rival's preference gap over it has a lower
bound strictly above the rationality margin.  Ties at the margin never rule
out: the certifying inequality is strict.  An answer no valid bound gives, a
NaN lower bound or a pair certified both ways, raises `ProviderError` in both
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isnan
from typing import Callable, Iterable, NamedTuple

from .errors import InputError, ProviderError
from .tables import Assignment, Value

BoundFn = Callable[[Value, Value], float]


class Certificate(NamedTuple):
    """`preferred` beats `ruled_out` with the given certified lower bound."""

    preferred: Value
    ruled_out: Value
    lower: float


@dataclass(frozen=True)
class PredictabilityVerdict:
    mode: str
    ruled_out: frozenset
    surviving: frozenset
    strong_winner: Value | None
    lam: float
    certificates: tuple[Certificate, ...]
    context: dict

    def __post_init__(self) -> None:
        if self.ruled_out & self.surviving:
            raise InputError("ruled_out and surviving overlap")
        winner_expected = len(self.surviving) == 1
        if winner_expected != (self.strong_winner is not None):
            raise InputError("strong_winner must be present iff one decision survives")

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "lambda": self.lam,
            "context": dict(self.context),
            "ruled_out": sorted(self.ruled_out, key=str),
            "surviving": sorted(self.surviving, key=str),
            "strong_winner": self.strong_winner,
            "certificates": [
                {"preferred": c.preferred, "ruled_out": c.ruled_out, "lower": c.lower}
                for c in self.certificates
            ],
        }


def _pair_lower(bound_fn: BoundFn, d: Value, d_star: Value) -> float:
    try:
        lower = float(bound_fn(d, d_star))
    except Exception as exc:
        raise ProviderError(
            f"gap-lower provider failed for pair (d={d!r}, d_star={d_star!r}): {exc}"
        ) from exc
    if isnan(lower):
        raise ProviderError(
            f"gap-lower provider returned NaN for pair (d={d!r}, d_star={d_star!r})"
        )
    return lower


def _mutually_dominant(decisions: Iterable[Value]) -> ProviderError:
    return ProviderError(
        f"bound provider certifies mutually dominant decisions {list(decisions)}; "
        "valid gap bounds cannot do that"
    )


def _check_inputs(decisions: Iterable[Value], lam: float) -> tuple[Value, ...]:
    decisions = tuple(decisions)
    if len(decisions) < 2:
        raise InputError("need at least two decisions")
    if len(set(decisions)) != len(decisions):
        raise InputError("duplicate decisions")
    if not (isfinite(lam) and lam >= 0):
        raise InputError(f"margin must be a finite number >= 0, got {lam}")
    return decisions


def weak_verdict(
    bound_fn: BoundFn,
    decisions: Iterable[Value],
    c: Assignment | None = None,
    lam: float = 0.0,
) -> PredictabilityVerdict:
    """Rule out every decision some rival provably beats by more than lam.

    A certificate is kept for each ruled-out decision: the rival with the
    largest certified lower bound.  A pair certified both ways raises
    `ProviderError`, as in `strong_verdict`: valid bounds cannot do that.
    """
    decisions = _check_inputs(decisions, lam)
    ruled: set[Value] = set()
    certified: set[tuple[Value, Value]] = set()
    certificates: list[Certificate] = []
    for d_star in decisions:
        best: Certificate | None = None
        for d in decisions:
            if d == d_star:
                continue
            lb = _pair_lower(bound_fn, d, d_star)
            if lb > lam:
                if (d_star, d) in certified:
                    raise _mutually_dominant(x for x in decisions if x in (d, d_star))
                certified.add((d, d_star))
                if best is None or lb > best.lower:
                    best = Certificate(d, d_star, lb)
        if best is not None:
            ruled.add(d_star)
            certificates.append(best)
    surviving = frozenset(decisions) - frozenset(ruled)
    winner = next(iter(surviving)) if len(surviving) == 1 else None
    return PredictabilityVerdict(
        mode="weak",
        ruled_out=frozenset(ruled),
        surviving=surviving,
        strong_winner=winner,
        lam=lam,
        certificates=tuple(certificates),
        context=dict(c or {}),
    )


def strong_verdict(
    bound_fn: BoundFn,
    decisions: Iterable[Value],
    c: Assignment | None = None,
    lam: float = 0.0,
) -> PredictabilityVerdict:
    """Identify a winner that provably beats every rival pairwise.

    The quantifier is the literal "for all rivals" test: a decision wins only
    when each of its pairwise gap lower bounds clears the margin.  Without such
    a decision nothing is ruled out (uniqueness cannot be certified).
    """
    decisions = _check_inputs(decisions, lam)
    witness: dict[Value, tuple[Certificate, ...]] = {}
    for w in decisions:
        certs = []
        for rival in decisions:
            if rival == w:
                continue
            lb = _pair_lower(bound_fn, w, rival)
            if lb > lam:
                certs.append(Certificate(w, rival, lb))
            else:
                break
        else:
            witness[w] = tuple(certs)
    if len(witness) > 1:
        raise _mutually_dominant(witness)
    surviving = frozenset(witness or decisions)
    return PredictabilityVerdict(
        mode="strong",
        ruled_out=frozenset(decisions) - surviving,
        surviving=surviving,
        strong_winner=next(iter(witness), None),
        lam=lam,
        certificates=next(iter(witness.values()), ()),
        context=dict(c or {}),
    )
