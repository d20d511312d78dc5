"""Bounds under weakened assumptions.

Three relaxations of the exact-grounding story: behaviour known only up to a
total-variation ball, utility observed only through an aligned proxy, and
structural side-knowledge that one covariate deconfounds the shifted variable
from the utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isfinite
from operator import itemgetter
from typing import Sequence

from .bounds import GapInterval, _check_flip, _clamped, _gap_box
from .errors import InputError, SamplingError, UnsupportedError
from .tables import (
    Assignment,
    BehaviouralDataset,
    DistTable,
    Number,
    Value,
    _check_pair,
    _check_unfixed_utility,
    _moments,
    merge_assignments,
)

DEFAULT_SAMPLES = 10_000
DEFAULT_CONCENTRATION = 400.0
# The sampler draws proposals in blocks; the widest block temporary, both
# decisions' draws (at most twice the table's width per row), holds about
# this many floats.
_BLOCK_FLOATS = 2**14


@dataclass(frozen=True)
class GroundingBall:
    """Total-variation neighbourhood of radius `delta` around each
    per-decision table of the dataset a bound is called with.  A ball around
    other tables is the same call on a dataset that holds those tables.
    """

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise InputError(f"delta must lie in [0, 1], got {self.delta}")


def _check_reduced(c: Assignment, z: Assignment, what: str) -> None:
    """The reduced objective's precondition: the context lies inside the shift."""
    if merge_assignments(c, z) != dict(z):
        raise UnsupportedError(
            f"{what} is implemented for the reduced objective with context inside "
            f"the shift; got context {dict(c)} vs shift {dict(z)}"
        )


def _tv_objective(
    data: BehaviouralDataset, z: Assignment
) -> tuple[list[tuple[Value, ...]], list[Number], list[Number], Number]:
    """The cells of `data.scope`, each one's coefficient on the decision's side,
    (Y - lo) 1_z, and on the baseline's, (hi - Y) 1_z, and the objective's
    constant lo - hi, for the utility domain's least and greatest values lo
    and hi (a 0/1 utility keeps Y, 1 - Y and -1)."""
    table = data.table(data.decisions[0])
    table._positions(z)  # refuses a variable or value outside the scope
    at = table._index
    cells = list(product(*[r.domain for r in table.scope]))
    hits = [not any(cell[at[n]] != v for n, v in z.items()) for cell in cells]
    y = at[data.utility]
    lo, hi = table.ref(data.utility).value_range()
    success = [cell[y] - lo if hit else 0 for cell, hit in zip(cells, hits)]
    failure = [hi - cell[y] if hit else 0 for cell, hit in zip(cells, hits)]
    return cells, success, failure, lo - hi


def _ball_minimum(
    centre: DistTable,
    coeffs: Sequence[Number],
    delta: float,
    cells: list[tuple[Value, ...]],
) -> Number:
    """min coeffs . p over the simplex intersected with the TV ball of radius
    delta around the centre, unrounded.

    Moving mass m from a cell onto another changes the value by m times their
    coefficients' difference and uses m of the radius, so the minimum moves up
    to delta of mass from the cells with the highest coefficients onto one with
    the lowest.  The sum runs in the table's own arithmetic (delta enters as
    the exact value of its float), so an all-`Fraction` table gets the exact
    minimum.
    """
    lowest = min(coeffs)
    budget = Fraction(delta)
    value = 0
    masses = [centre.entries.get(k, 0) for k in cells]
    for c, p in sorted(zip(coeffs, masses), key=itemgetter(0), reverse=True):
        moved = min(budget, p) if c > lowest else 0
        budget -= moved
        value += c * p - moved * (c - lowest)
    return value


def approx_grounding_lower(
    data: BehaviouralDataset,
    ball: GroundingBall,
    c: Assignment,
    z: Assignment,
    d: Value,
    d_star: Value,
    method: str = "exact-lp",
    *,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
    concentration: float = DEFAULT_CONCENTRATION,
) -> float:
    """Worst-case gap lower bound when tables are known only up to a TV ball.

    The objective is the reduced form, the context inside the shift,
        E[(Y-lo) 1_z] under d  +  E[(hi-Y) 1_z] under d*  +  lo - hi,
    for the utility domain's range [lo, hi] (thm1's lower end at radius 0),
    minimised over independent TV balls around the two decisions' tables in
    `data`, over the cells of `data.scope` (`_tv_objective`).
    `exact-lp` takes each ball's minimum in closed form (`_ball_minimum`) and
    rounds their sum once, in plain Python; `sample` reproduces the
    propose/accept procedure (simplex proposals concentrated on the centres,
    rejected outside the ball) and returns the empirical minimum, which can
    only sit above the exact one.

    Proposals are drawn in blocks of rows, with one gamma draw per block
    normalised as numpy's Dirichlet normalises it, so the random stream, each
    accept decision and the result are those of one `rng.dirichlet` call per
    decision per proposal. When either decision's largest weight
    (concentration times its largest centre cell) is below 0.1, numpy's
    Dirichlet breaks sticks instead, and the block is filled from those
    per-proposal calls.
    """
    _check_reduced(c, z, "the ball relaxation")
    _check_pair(data, d, d_star)
    cells, success, failure, offset = _tv_objective(data, z)
    _check_unfixed_utility(data.utility, c, z)
    centres = {t: data.table(t) for t in (d, d_star)}

    if method == "exact-lp":
        return float(
            _ball_minimum(centres[d], success, ball.delta, cells)
            + _ball_minimum(centres[d_star], failure, ball.delta, cells)
            + offset
        )
    if method != "sample":
        raise InputError(f"method must be 'exact-lp' or 'sample', got {method!r}")
    if seed is None or seed < 0:
        raise InputError(f"the sampling method needs an explicit seed >= 0, got {seed}")
    if n_samples < 1:
        raise InputError("need at least one proposal")
    if not (isfinite(concentration) and concentration > 0):
        raise InputError(f"concentration must be finite and > 0, got {concentration}")

    import numpy as np

    rng = np.random.default_rng(seed)
    coeff = {d: np.array(success, dtype=float), d_star: np.array(failure, dtype=float)}
    centre_vecs = {t: np.array([float(centres[t].entries.get(k, 0)) for k in cells])
                   for t in (d, d_star)}
    index = {t: np.flatnonzero(centre_vecs[t] > 0.0) for t in (d, d_star)}
    alphas = {t: centre_vecs[t][index[t]] * concentration for t in (d, d_star)}
    # Column slices of one proposal row: d's draw, then d*'s, as the stream
    # yields them.
    k_d = len(index[d])
    slices = {d: slice(0, k_d), d_star: slice(k_d, None)}
    weights = np.concatenate([alphas[d], alphas[d_star]])
    # numpy's Dirichlet normalises gammas only when the largest weight is at
    # least 0.1; below that it breaks sticks with beta variates.
    stick_breaking = min(alphas[d].max(), alphas[d_star].max()) < 0.1
    block = max(1, _BLOCK_FLOATS // (2 * len(cells)))
    best = np.inf
    accepted = 0
    for start in range(0, n_samples, block):
        rows = min(block, n_samples - start)
        if stick_breaking:
            draws = np.array(
                [np.concatenate([rng.dirichlet(alphas[t]) for t in (d, d_star)])
                 for _ in range(rows)]
            )
        else:
            draws = rng.standard_gamma(weights, size=(rows, len(weights)))
            for t in (d, d_star):
                gammas = draws[:, slices[t]]
                # Left-to-right running sums times the reciprocal, as numpy's
                # Dirichlet normalises (np.sum adds pairwise, in another order).
                gammas *= 1.0 / np.add.accumulate(gammas, axis=1)[:, -1:]
        value = np.zeros(rows)
        ok = np.ones(rows, dtype=bool)
        for t in (d, d_star):
            full = np.zeros((rows, len(cells)))
            full[:, index[t]] = draws[:, slices[t]]
            # One BLAS ddot per row, as `coeff @ row` does; a gemv over the
            # block sums in another order.
            value += np.matmul(full[:, None, :], coeff[t][:, None])[:, 0, 0]
            full -= centre_vecs[t]
            ok &= ~(0.5 * np.abs(full, out=full).sum(axis=1) > ball.delta)
        accepted += int(ok.sum())
        if ok.any():
            best = min(best, float((value[ok] + offset).min()))
    if not accepted:
        raise SamplingError(
            f"no proposal landed inside the TV ball after {n_samples} draws; "
            "increase n_samples or the concentration"
        )
    return float(best)


def proxy_alignment_lower(
    data: BehaviouralDataset,
    alpha: float,
    z: Assignment,
    d: Value,
    d_star: Value,
) -> float:
    """Gap lower bound when the agent optimises an internal proxy of Y.

    With P(proxy succeeds | Y succeeds, z) >= alpha the only surviving
    constraint is alpha * P_d(z, Y=1) - 1; alpha = 0 is fully uninformative.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    _check_pair(data, d, d_star)
    table = data.table(d)
    table.ref(data.utility).check_zero_one("proxy bounds need")
    mass = table.prob(merge_assignments(z, {data.utility: 1}))
    _check_unfixed_utility(data.utility, z)
    return float(alpha * mass - 1)


def partial_unconfoundedness_interval(
    data: BehaviouralDataset,
    z: Assignment,
    w0: Assignment,
    w1: Assignment,
    d: Value,
    d_star: Value,
) -> GapInterval:
    """Gap interval when a binary covariate W deconfounds the shifted variable.

    Per decision the post-shift utility mean is pinned between
        E[Y 1_{z,w}] + (1 - P(z,w)) E[Y | z, w~]      (lower)
        E[Y 1_z] + (1 - P(z)) E[Y | z, w]             (upper)
    with (w, w~) ordered so that E[Y | z, w] >= E[Y | z, w~]; labels swap per
    decision when the data orders the slices the other way round.  The ends
    cannot cross: upper - lower = (1 - P(z)) (E[Y | z, w] - E[Y | z, w~]) >= 0.
    """
    _check_pair(data, d, d_star)
    _check_flip(data.table(d), "covariate", z, "shift", w0=w0, w1=w1)

    swapped = []

    def envelope(t: Value) -> tuple[float, float]:
        table = data.table(t)
        p_hi, e_hi = _moments(table, data.utility, merge_assignments(z, w1))
        p_lo, e_lo = _moments(table, data.utility, merge_assignments(z, w0))
        if float(e_hi) >= float(e_lo):
            p_zw, e_w, e_wt = p_hi, e_hi, e_lo
        else:
            p_zw, e_w, e_wt = p_lo, e_lo, e_hi
            swapped.append(t)
        p_z, e_z = _moments(table, data.utility, z)
        lower = e_w * p_zw + (1 - p_zw) * e_wt
        upper = e_z * p_z + (1 - p_z) * e_w
        return float(lower), float(upper)

    lo_d, up_d = envelope(d)
    lo_s, up_s = envelope(d_star)
    notes = [f"slice labels swapped for decisions {sorted(map(str, swapped))}"] if swapped else []
    ends = _clamped(lo_d - up_s, up_d - lo_s, notes, _gap_box(data.table(d).ref(data.utility)))
    _check_unfixed_utility(data.utility, z, w0)
    return GapInterval(
        kind="preference",
        theorem="partial-unconfoundedness",
        tight=False,
        inputs_digest={"op": "unconf", "z": dict(z), "w0": dict(w0), "w1": dict(w1),
                       "d": d, "d_star": d_star},
        **ends,
    )
