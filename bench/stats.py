"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, in tenths of a percent so the rule stays integral.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)


def tail_permille(n: int) -> int:
    """Highest ladder percentile with at least 10 of n samples beyond it.

    Samples beyond the q-per-mille percentile number n * (1000 - q) / 1000.
    Below 20 samples no ladder entry qualifies and the median is used.
    """
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1000 - q) >= 10_000:
            best = q
    return best


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * permille / 1000))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def permille_label(q: int) -> str:
    return f"p{q // 10}" if q % 10 == 0 else f"p{q / 10}"
