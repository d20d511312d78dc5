"""Ball, proxy, and deconfounding relaxations."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from beliefbound import relaxations
from beliefbound.bounds import thm1_gap_interval
from beliefbound.errors import InputError, SamplingError, UnsupportedError, ZeroMassError
from beliefbound.relaxations import (
    GroundingBall,
    _ball_minimum,
    _tv_objective,
    approx_grounding_lower,
    partial_unconfoundedness_interval,
    proxy_alignment_lower,
)
from beliefbound.scm import ExoDistribution, Mechanism, Scm, scm_dataset
from beliefbound.tables import DistTable, VariableRef

from support import (
    half_utility_dataset,
    random_wyz_dataset,
    reference_ball_minimum,
    ternary_v_dataset,
)

Z1 = {"Z": 1}


def test_exact_lp_fixture_minima(medai):
    # The fixture is exact and the minimum is rounded once.
    ball = GroundingBall(0.1)
    assert approx_grounding_lower(medai, ball, Z1, Z1, 1, 0) == -0.6
    assert approx_grounding_lower(medai, ball, Z1, Z1, 0, 1) == -0.9


def test_zero_radius_recovers_grounded_bound(medai):
    value = approx_grounding_lower(medai, GroundingBall(0.0), Z1, Z1, 1, 0)
    assert value == pytest.approx(thm1_gap_interval(medai, Z1, Z1, 1, 0).lower, abs=1e-12)


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_zero_radius_is_thm1_lower_on_any_utility_range(exact):
    """At radius 0 the ball bound is thm1's lower end, with unobserved mass at
    the utility domain's least and greatest values: `==` where both sides are
    exact (`Fraction` tables with a 0/1 utility; a utility value strictly
    inside (0, 1) is a float), within 1e-12 otherwise.  The sampler never
    lands below the exact minimum of its ball."""
    ranges = ((0, 1), (0, 0.5), (0.25, 0.75), (0.2, 0.5, 0.9))
    compared = 0
    for seed in range(40):
        y_domain = ranges[seed % len(ranges)]
        data = random_wyz_dataset(seed, 2 + seed % 3, 2, 2, exact, y_domain)
        d, d_star = data.decisions[-1], data.decisions[0]
        for z in ({"Z": 1}, {"W": 1, "Z": 0}):
            try:
                want = thm1_gap_interval(data, z, z, d, d_star).lower
            except ZeroMassError:
                continue
            got = approx_grounding_lower(data, GroundingBall(0.0), z, z, d, d_star)
            if exact and y_domain == (0, 1):
                assert got == want, (seed, z)
            else:
                assert got == pytest.approx(want, abs=1e-12), (seed, z)
            compared += 1
            ball = GroundingBall(0.2)
            floor = approx_grounding_lower(data, ball, z, z, d, d_star)
            sampled = approx_grounding_lower(
                data, ball, z, z, d, d_star, method="sample", seed=seed, n_samples=300
            )
            assert sampled >= floor - 1e-12, (seed, z, sampled, floor)
    assert compared >= 60


def test_ball_monotone_in_radius(medai):
    values = [
        approx_grounding_lower(medai, GroundingBall(delta), Z1, Z1, 1, 0)
        for delta in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(-1.0, abs=1e-9)


def random_ball_cases(exact, count=600):
    """(centre, coeffs, delta, cells) over one variable of 1 to 8 cells:
    integer weights with about a fifth of the cells empty, coefficients drawn
    from four values so that ties are common, and radii from 0 to 1, a third
    of them above the mass that can move, each a multiple of 2**-20.  `exact`
    gives `Fraction` entries and coefficients, otherwise floats."""
    rng = np.random.default_rng(31 + exact)
    values = [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)]
    for _ in range(count):
        n = int(rng.integers(1, 9))
        x = VariableRef("X", tuple(range(n)))
        cells = [(i,) for i in x.domain]
        weights = [int(w) for w in rng.integers(-2, 9, size=n).clip(0)]
        weights[int(rng.integers(n))] += 1
        total = sum(weights)
        coeffs = [values[i] for i in rng.integers(0, len(values), size=n)]
        if not exact:
            coeffs = [float(c) for c in coeffs]
        centre = DistTable((x,), {
            cell: Fraction(w, total) if exact else w / total
            for cell, w in zip(cells, weights) if w
        })
        movable = sum(Fraction(w, total) for w, c in zip(weights, coeffs) if c > min(coeffs))
        if rng.random() < 1 / 3:
            delta = float(rng.uniform(float(movable), 1.0))
        else:
            delta = float(rng.uniform(0.0, 1.0))
        delta = round(delta * 2**20) / 2**20
        yield centre, coeffs, delta, cells, movable


@pytest.mark.parametrize("exact", [False, True])
def test_ball_minimum_matches_the_linear_program(exact):
    """The closed form against the TV-ball program it replaced, on 600 float
    and 600 `Fraction` tables; an exact table's minimum stays a `Fraction`."""
    above = 0
    for centre, coeffs, delta, cells, movable in random_ball_cases(exact):
        value = _ball_minimum(centre, coeffs, delta, cells)
        assert float(value) == pytest.approx(
            reference_ball_minimum(centre, coeffs, delta, cells), abs=1e-12
        )
        assert isinstance(value, Fraction) == exact
        above += delta > movable
    assert above >= 150


@pytest.mark.parametrize("exact", [False, True])
def test_ball_minimum_matches_highs(exact):
    optimize = pytest.importorskip("scipy.optimize")
    for centre, coeffs, delta, cells, _ in random_ball_cases(exact):
        # p, then its moves up (a) and down (b) from the centre.
        n = len(cells)
        centre_vec = [float(centre.entries.get(k, 0)) for k in cells]
        eye = np.eye(n)
        ref = optimize.linprog(
            np.concatenate([np.asarray(coeffs, dtype=float), np.zeros(2 * n)]),
            A_ub=np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :],
            b_ub=[2 * delta],
            A_eq=np.vstack([np.hstack([eye, -eye, eye]),
                            np.concatenate([np.ones(n), np.zeros(2 * n)])]),
            b_eq=[*centre_vec, 1.0],
            bounds=(0, None),
            method="highs",
        )
        assert ref.status == 0
        assert float(_ball_minimum(centre, coeffs, delta, cells)) == pytest.approx(
            ref.fun, abs=1e-12
        )


def test_sampling_lands_in_bands_and_dominates_lp(medai):
    ball = GroundingBall(0.1)
    s1 = approx_grounding_lower(
        medai, ball, Z1, Z1, 1, 0, method="sample", seed=7
    )
    s0 = approx_grounding_lower(
        medai, ball, Z1, Z1, 0, 1, method="sample", seed=7
    )
    assert -0.60 <= s1 <= -0.50
    assert -0.90 <= s0 <= -0.84
    assert s1 >= approx_grounding_lower(medai, ball, Z1, Z1, 1, 0) - 1e-12
    assert s0 >= approx_grounding_lower(medai, ball, Z1, Z1, 0, 1) - 1e-12


def test_sampling_is_deterministic_per_seed(medai):
    ball = GroundingBall(0.1)
    kwargs = dict(method="sample", seed=99, n_samples=2000)
    a = approx_grounding_lower(medai, ball, Z1, Z1, 1, 0, **kwargs)
    b = approx_grounding_lower(medai, ball, Z1, Z1, 1, 0, **kwargs)
    assert a == b
    c = approx_grounding_lower(medai, ball, Z1, Z1, 1, 0, method="sample", seed=100,
                               n_samples=2000)
    assert a != c  # different stream, almost surely a different minimum


@pytest.mark.parametrize("method", [{}, {"method": "sample", "seed": 3}],
                         ids=["exact-lp", "sample"])
def test_ball_refuses_a_shift_value_outside_its_domain(medai, method):
    with pytest.raises(InputError, match=r"^value 7 not in domain of 'Z' \(0, 1\)$"):
        approx_grounding_lower(medai, GroundingBall(0.1), {"Z": 7}, {"Z": 7}, 1, 0, **method)


def test_sampling_needs_seed_and_accepts_something(medai):
    ball = GroundingBall(0.1)
    with pytest.raises(InputError):
        approx_grounding_lower(medai, ball, Z1, Z1, 1, 0, method="sample")
    # A tiny ball with a loose proposal distribution rejects everything.
    with pytest.raises(SamplingError):
        approx_grounding_lower(
            medai, GroundingBall(1e-9), Z1, Z1, 1, 0,
            method="sample", seed=1, n_samples=50, concentration=5.0,
        )


def test_sampling_refuses_a_negative_seed_before_numpy_reads_it(medai):
    with pytest.raises(InputError, match=r"^the sampling method needs an explicit seed >= 0, "
                                         r"got -1$"):
        approx_grounding_lower(medai, GroundingBall(0.1), Z1, Z1, 1, 0, method="sample", seed=-1)


# -- the block sampler against the per-draw loop --------------------------------


def per_draw_sample(data, ball, z, d, d_star, *, n_samples, seed, concentration):
    """The sampler as one `rng.dirichlet` call per decision per proposal, the
    reference the block sampler must match bit for bit."""
    cells, success, failure, offset = _tv_objective(data, z)
    setup = []
    for t, side in ((d, success), (d_star, failure)):
        centre = data.table(t)
        coeff = np.array(side)
        support = [k for k in cells if float(centre.entries.get(k, 0)) > 0.0]
        alpha = np.array([float(centre.entries[k]) for k in support]) * concentration
        index = [cells.index(k) for k in support]
        centre_vec = np.array([float(centre.entries.get(k, 0)) for k in cells])
        setup.append((coeff, alpha, index, centre_vec))
    rng = np.random.default_rng(seed)
    best = np.inf
    accepted = 0
    for _ in range(n_samples):
        value = 0.0
        ok = True
        for coeff, alpha, index, centre_vec in setup:
            draw = rng.dirichlet(alpha)
            full = np.zeros(len(cells))
            full[index] = draw
            tv = 0.5 * float(np.abs(full - centre_vec).sum())
            if tv > ball.delta:
                ok = False
            value += float(coeff @ full)
        if ok:
            accepted += 1
            best = min(best, value + offset)
    if not accepted:
        raise SamplingError(
            f"no proposal landed inside the TV ball after {n_samples} draws; "
            "increase n_samples or the concentration"
        )
    return float(best)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SamplingError as exc:
        return ("SamplingError", str(exc))


def assert_sampler_parity(data, ball, d, d_star, *, n_samples, seed, concentration):
    kwargs = dict(n_samples=n_samples, seed=seed, concentration=concentration)
    block = _outcome(approx_grounding_lower, data, ball, Z1, Z1, d, d_star,
                     method="sample", **kwargs)
    loop = _outcome(per_draw_sample, data, ball, Z1, d, d_star, **kwargs)
    assert block == loop  # the same float, or the same error
    return block


def block_rows(cells):
    return max(1, relaxations._BLOCK_FLOATS // (2 * cells))


@pytest.mark.parametrize("seed", [7, 99])
@pytest.mark.parametrize("d, d_star", [(1, 0), (0, 1)])
def test_block_sampler_matches_per_draw_loop_on_fixture(medai, seed, d, d_star):
    value = assert_sampler_parity(
        medai, GroundingBall(0.1), d, d_star, n_samples=relaxations.DEFAULT_SAMPLES,
        seed=seed, concentration=relaxations.DEFAULT_CONCENTRATION,
    )
    assert isinstance(value, float)


# Each radius sits near the median distance of a proposal pair, so blocks hold
# accepted and rejected rows; a utility taking 0.3 makes the dot products round.
@pytest.mark.parametrize(
    "seed, n_decisions, z_size, w_size, exact, y_domain, delta",
    [
        (1, 2, 2, 1, False, (0, 1), 0.04),  # 4 cells
        (2, 3, 2, 2, True, (0, 0.3, 1), 0.07),  # 12 cells
        (3, 4, 3, 3, False, (0, 0.3, 1), 0.09),  # 27 cells
        (4, 2, 4, 4, True, (0, 0.3, 1), 0.125),  # 48 cells, past BLAS's blocked ddot
        (5, 3, 4, 8, False, (0, 0.3, 1), 0.16),  # 96 cells
    ],
)
@pytest.mark.parametrize("blocks", ["one row", "one block and a row", "several blocks"])
def test_block_sampler_matches_per_draw_loop(seed, n_decisions, z_size, w_size, exact,
                                             y_domain, delta, blocks):
    data = random_wyz_dataset(seed, n_decisions, z_size, w_size, exact, y_domain)
    rows = block_rows(len(y_domain) * z_size * w_size)
    n_samples = {"one row": 1, "one block and a row": rows + 1,
                 "several blocks": 3 * rows + 5}[blocks]
    assert_sampler_parity(
        data, GroundingBall(delta), n_decisions - 1, 0, n_samples=n_samples,
        seed=seed, concentration=relaxations.DEFAULT_CONCENTRATION,
    )


@pytest.mark.parametrize("w_size", [4, 8])
def test_block_sampler_matches_per_draw_loop_two_proposals_at_a_time(w_size):
    # The minimum hides most rows, so pin pairs of proposals (a one-row block
    # would reduce any matrix product to a dot); every draw is accepted.
    data = random_wyz_dataset(w_size, 2, 4, w_size, False, (0, 0.3, 1))
    for seed in range(40):
        assert_sampler_parity(
            data, GroundingBall(1.0), 1, 0, n_samples=2, seed=seed,
            concentration=relaxations.DEFAULT_CONCENTRATION,
        )


def test_block_sampler_matches_per_draw_loop_on_explicit_centres():
    data = random_wyz_dataset(11, 3, 3, 2, False, (0, 0.3, 1))
    other = random_wyz_dataset(12, 3, 3, 2, True, (0, 0.3, 1))
    centred = replace(data, per_decision={0: data.table(0), 1: other.table(1), 2: other.table(0)})
    for d, d_star in ((1, 2), (2, 1)):
        value = assert_sampler_parity(
            centred, GroundingBall(0.09), d, d_star, n_samples=2 * block_rows(18) + 3, seed=3,
            concentration=250.0,
        )
        assert isinstance(value, float)


def test_block_sampler_matches_per_draw_loop_below_gamma_weights():
    # numpy's Dirichlet breaks sticks when the largest weight is below 0.1:
    # everywhere at concentration 0.05, and for the near-uniform decision only
    # at concentration 1, where the other decision's heaviest cell weighs 0.9.
    data = random_wyz_dataset(21, 2, 3, 4, False, (0, 0.3, 1))
    spread = DistTable(data.scope, {
        cell: 1 / 36 for cell in product(*[r.domain for r in data.scope])
    })
    peaked_cells = list(spread.entries)
    peaked = DistTable(data.scope, {
        k: 0.9 if i == 0 else 0.1 / 35 for i, k in enumerate(peaked_cells)
    })
    mixed = replace(data, per_decision={0: spread, 1: peaked})
    for centred, concentration in ((data, 0.05), (mixed, 1.0)):
        for d, d_star in ((1, 0), (0, 1)):
            value = assert_sampler_parity(
                centred, GroundingBall(0.95), d, d_star, n_samples=block_rows(36) + 1, seed=5,
                concentration=concentration,
            )
            assert isinstance(value, float)


def test_block_sampler_raises_the_loops_error_when_nothing_lands(medai):
    value = assert_sampler_parity(
        medai, GroundingBall(1e-9), 1, 0, n_samples=50, seed=1, concentration=5.0
    )
    assert value[0] == "SamplingError"


def test_context_outside_shift_unsupported(medai):
    with pytest.raises(UnsupportedError):
        approx_grounding_lower(medai, GroundingBall(0.1), {"Y": 1}, Z1, 1, 0)


def test_proxy_fixture_values(medai):
    assert proxy_alignment_lower(medai, 0.9, Z1, 1, 0) == pytest.approx(-0.64, abs=1e-12)
    assert proxy_alignment_lower(medai, 0.9, Z1, 0, 1) == pytest.approx(-0.82, abs=1e-12)
    assert proxy_alignment_lower(medai, 0.0, Z1, 1, 0) == -1.0


def test_proxy_endpoint_alpha_one(medai):
    value = proxy_alignment_lower(medai, 1.0, Z1, 1, 0)
    assert value == pytest.approx(float(medai.table(1).prob({"Z": 1, "Y": 1})) - 1, abs=1e-12)


def test_proxy_validation(medai):
    with pytest.raises(InputError):
        proxy_alignment_lower(medai, 1.5, Z1, 1, 0)


# -- partial unconfoundedness -------------------------------------------------


def augmented_fixture():
    from beliefbound.fixtures import medai_scm

    base = medai_scm()
    u = base.exo.variables[0]
    w = VariableRef("W", (0, 1))
    mechanisms = dict(base.mechanisms)
    mechanisms["W"] = Mechanism.from_function(w, (), (u,), lambda a: int(a["U"] in (1, 2)))
    return Scm((*base.variables, w), mechanisms, base.exo)


def test_unconfoundedness_tightens_fixture(medai):
    data = scm_dataset(augmented_fixture(), "D")
    gap = partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"W": 1}, 1, 0)
    single = thm1_gap_interval(medai, Z1, Z1, 1, 0)
    assert gap.lower == pytest.approx(0.2, abs=1e-12)  # frozen from atom enumeration
    assert gap.upper == pytest.approx(0.8, abs=1e-12)
    assert gap.lower >= single.lower - 1e-12
    assert gap.upper <= single.upper + 1e-12


def unconfounded_model(seed: int) -> Scm:
    """Premise holds by construction: independent noises, W -> Z, no W-Y link
    except through observables."""
    rng = np.random.default_rng(seed)
    d = VariableRef("D", (0, 1))
    w = VariableRef("W", (0, 1))
    z = VariableRef("Z", (0, 1))
    y = VariableRef("Y", (0, 1))
    uw = VariableRef("UW", (0, 1))
    uz = VariableRef("UZ", (0, 1))
    uy = VariableRef("UY", (0, 1, 2, 3))
    def frac_dist(ref):
        weights = rng.integers(1, 9, size=len(ref.domain))
        total = int(weights.sum())
        return ExoDistribution(
            (ref,), tuple(((v,), Fraction(int(wt), total)) for v, wt in zip(ref.domain, weights))
        )
    exo = ExoDistribution.product(
        ExoDistribution.product(frac_dist(uw), frac_dist(uz)), frac_dist(uy)
    )
    z_out = rng.integers(0, 2, size=(2, 2))
    z_out[0, 0], z_out[0, 1] = 0, 1  # keep both Z values reachable
    y_out = rng.integers(0, 2, size=(2, 2, 2, 4))
    mechanisms = {
        "D": Mechanism.constant(d, 0),
        "W": Mechanism.from_function(w, (), (uw,), lambda a: a["UW"]),
        "Z": Mechanism.from_function(z, (w,), (uz,), lambda a: int(z_out[a["W"], a["UZ"]])),
        "Y": Mechanism.from_function(
            y, (d, z, w), (uy,), lambda a: int(y_out[a["D"], a["Z"], a["W"], a["UY"]])
        ),
    }
    return Scm((d, w, z, y), mechanisms, exo)


def test_unconfoundedness_dominates_on_premise_fixtures(medai):
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        model = unconfounded_model(seed)
        data = scm_dataset(model, "D")
        try:
            gap = partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"W": 1}, 1, 0)
            single = thm1_gap_interval(data, Z1, Z1, 1, 0)
        except Exception:
            continue  # zero-mass slice; skip that draw
        checked += 1
        assert gap.lower >= single.lower - 1e-12
        assert gap.upper <= single.upper + 1e-12


def test_fully_informative_covariate_point_identifies():
    # Y ignores Z (and W) entirely, so the premise holds and both slice means
    # coincide: the interval collapses to the true point gap.
    d = VariableRef("D", (0, 1))
    w = VariableRef("W", (0, 1))
    z = VariableRef("Z", (0, 1))
    y = VariableRef("Y", (0, 1))
    uw = VariableRef("UW", (0, 1))
    uz = VariableRef("UZ", (0, 1))
    uy = VariableRef("UY", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
    exo = ExoDistribution.product(
        ExoDistribution.product(
            ExoDistribution((uw,), (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2)))),
            ExoDistribution((uz,), (((0,), Fraction(2, 5)), ((1,), Fraction(3, 5)))),
        ),
        ExoDistribution((uy,), tuple(((i,), Fraction(1, 10)) for i in range(10))),
    )
    mechanisms = {
        "D": Mechanism.constant(d, 0),
        "W": Mechanism.from_function(w, (), (uw,), lambda a: a["UW"]),
        "Z": Mechanism.from_function(z, (), (uz,), lambda a: a["UZ"]),
        "Y": Mechanism.from_function(
            y, (d,), (uy,), lambda a: int(a["UY"] < 3 + 4 * a["D"])
        ),
    }
    model = Scm((d, w, z, y), mechanisms, exo)
    data = scm_dataset(model, "D")
    gap = partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"W": 1}, 1, 0)
    assert gap.upper - gap.lower <= 1e-9
    assert gap.lower == pytest.approx(0.4, abs=1e-9)  # E[Y|d1] - E[Y|d0] = 0.7 - 0.3


def test_unconfoundedness_digest_read_late_equals_the_eager_digest():
    from beliefbound.bounds import digest

    data = scm_dataset(augmented_fixture(), "D")
    gap = partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"W": 1}, 1, 0)
    payload = {"op": "unconf", "z": Z1, "w0": {"W": 0}, "w1": {"W": 1}, "d": 1, "d_star": 0}
    assert gap.as_dict()["inputs_digest"] == digest(payload)


def test_unconfoundedness_validation(medai):
    data = scm_dataset(augmented_fixture(), "D")
    with pytest.raises(InputError):
        partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"W": 0}, 1, 0)
    with pytest.raises(InputError):
        partial_unconfoundedness_interval(data, Z1, {"W": 0}, {"V": 1}, 1, 0)
    with pytest.raises(InputError):
        partial_unconfoundedness_interval(data, {"W": 1}, {"W": 0}, {"W": 1}, 1, 0)


@pytest.mark.parametrize("w0, w1, z, message", [
    ({"W": 0}, {"V": 1}, Z1, "w0 and w1 must assign only the covariate"),
    ({"V": 0}, {"V": 1}, Z1, "covariate 'V' must be binary, got (0, 1, 2)"),
    ({"W": 0}, {"W": 0}, Z1, "w0 and w1 must differ"),
    ({"W": 0}, {"W": 1}, {"W": 1}, "covariate 'W' must not appear in the shift"),
])
def test_unconfoundedness_refuses_all_but_one_binary_covariate_flipped(w0, w1, z, message):
    data = ternary_v_dataset() if "V" in w0 else scm_dataset(augmented_fixture(), "D")
    with pytest.raises(InputError) as exc:
        partial_unconfoundedness_interval(data, z, w0, w1, 1, 0)
    assert str(exc.value) == message


def test_proxy_refuses_a_utility_that_is_not_zero_one():
    with pytest.raises(InputError) as exc:
        proxy_alignment_lower(half_utility_dataset(), 0.9, Z1, 1, 0)
    assert str(exc.value) == "proxy bounds need a binary 0/1 utility, got (0, 0.5, 1)"


# -- the decision pair: one check, shared with the closed forms -----------------

_PAIR_CALLS = {
    "approx-grounding": lambda data, d, d_star: approx_grounding_lower(
        data, GroundingBall(0.1), Z1, Z1, d, d_star
    ),
    "proxy": lambda data, d, d_star: proxy_alignment_lower(data, 0.9, Z1, d, d_star),
    "unconfoundedness": lambda data, d, d_star: partial_unconfoundedness_interval(
        data, Z1, {"W": 0}, {"W": 1}, d, d_star
    ),
}


@pytest.mark.parametrize("name", sorted(_PAIR_CALLS))
@pytest.mark.parametrize(
    "d, d_star, message",
    [
        (1, 1, "decision and baseline must differ"),
        (1, 7, "decision 7 not in (0, 1)"),
        (7, 0, "decision 7 not in (0, 1)"),
        ([1], 0, "decision [1] not in (0, 1)"),
    ],
)
def test_relaxations_check_the_pair_as_the_closed_forms_do(medai, name, d, d_star, message):
    with pytest.raises(InputError) as exc:
        _PAIR_CALLS[name](medai, d, d_star)
    assert str(exc.value) == message


# -- a question that fixes the utility ------------------------------------------

_FIXES_THE_UTILITY = {
    "approx-grounding": lambda data: approx_grounding_lower(
        data, GroundingBall(0.1), {"Y": 1, "Z": 1}, {"Y": 1, "Z": 1}, 1, 0
    ),
    "proxy": lambda data: proxy_alignment_lower(data, 0.9, {"Y": 1, "Z": 1}, 1, 0),
    "unconfoundedness-shift": lambda data: partial_unconfoundedness_interval(
        data, {"Y": 1, "Z": 1}, {"W": 0}, {"W": 1}, 1, 0
    ),
    "unconfoundedness-covariate": lambda data: partial_unconfoundedness_interval(
        data, Z1, {"Y": 0}, {"Y": 1}, 1, 0
    ),
}


@pytest.mark.parametrize("name", sorted(_FIXES_THE_UTILITY))
def test_relaxations_refuse_a_question_that_fixes_the_utility(name):
    # Seed 1's tables give every conditioning event mass, so only the check
    # can refuse the question.
    data = random_wyz_dataset(1, 2, 2, 2, exact=True)
    with pytest.raises(InputError, match="fixes the utility Y="):
        _FIXES_THE_UTILITY[name](data)
