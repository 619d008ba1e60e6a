"""Minkowski causality, proper time, function predicates, and the distance
functional. Derived expectations are per-segment arithmetic and the analytic
distance. The library takes both extremal problems in closed form (the
straight chord for maximal proper time, beta* = 0.5 ln(v/u) for the boost
infimum); the searches that check them live here: seeded random causal curves
and compass moves of the chord's vertices never beat the chord, and a dense
rapidity sweep never goes below the functional's value."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nccausal import (
    CoordinateOverflow,
    Curve,
    Event,
    GradientMismatch,
    Grid,
    NonCausalSegment,
    NotCausallyRelated,
    ScalarField,
    affine_field,
    boost_field,
    causally_precedes,
    is_causal_function,
    is_steep_function,
    lorentz_distance_functional,
    lorentzian_distance,
    max_proper_time,
    proper_time,
)
from nccausal import spacetime
from nccausal.verify import random_spacelike_pair, random_timelike_pair

E = Event
DBL_MAX = sys.float_info.max


def test_event_rejects_non_finite():
    with pytest.raises(ValueError):
        Event(math.nan, 0.0)
    with pytest.raises(ValueError):
        Event(0.0, math.inf)


def test_causally_precedes_examples():
    assert causally_precedes(E(0, 0), E(1, 0.5))
    assert not causally_precedes(E(0, 0), E(1, 2))
    assert causally_precedes(E(0, 0), E(0, 0))


def test_lorentzian_distance_examples():
    assert lorentzian_distance(E(0, 0), E(5, 3)) == 4.0
    assert lorentzian_distance(E(0, 0), E(1, 1)) == 0.0
    assert lorentzian_distance(E(0, 0), E(0, 1)) == 0.0
    assert lorentzian_distance(E(0, 0), E(-2, 0)) == 0.0


def test_curve_needs_two_vertices():
    with pytest.raises(ValueError):
        Curve((E(0, 0),))


def test_proper_time_examples():
    assert proper_time(Curve((E(0, 0), E(1, 0)))) == 1.0
    assert proper_time(Curve((E(0, 0), E(1, 1)))) == 0.0
    # segments (1, 0.6) and (1, -0.6): sqrt(1 - 0.36) = 0.8 each
    got = proper_time(Curve((E(0, 0), E(1, 0.6), E(2, 0))))
    assert math.isclose(got, 1.6, abs_tol=1e-12)


def test_proper_time_flags_first_bad_segment():
    with pytest.raises(NonCausalSegment) as info:
        proper_time(Curve((E(0, 0), E(1, 2), E(3, 2))))
    assert info.value.index == 0
    with pytest.raises(NonCausalSegment) as info:
        proper_time(Curve((E(0, 0), E(1, 0), E(1, 0.5))))
    assert info.value.index == 1


def test_max_proper_time_straight_segment():
    assert max_proper_time(E(0, 0), E(2, 0), 1) == 2.0


def test_max_proper_time_converges_to_distance():
    got = max_proper_time(E(0, 0), E(5, 3), 8)
    assert abs(got - 4.0) <= 1e-3


def test_max_proper_time_null_pair_is_zero():
    for n in (1, 2, 5):
        assert max_proper_time(E(0, 0), E(1, 1), n) == 0.0


def test_max_proper_time_requires_causal_pair():
    with pytest.raises(NotCausallyRelated):
        max_proper_time(E(0, 0), E(0, 1), 3)


@pytest.mark.parametrize("n", [0, -2, 2.5, 3.0, True, "6", None])
def test_max_proper_time_rejects_a_segment_count_before_the_pair(n):
    # a causal pair, a non-causal one and identical events alike
    for p, q in ((E(0, 0), E(2, 1)), (E(0, 0), E(0, 1)), (E(1, 1), E(1, 1))):
        with pytest.raises(ValueError, match="n_segments"):
            max_proper_time(p, q, n)


def test_max_proper_time_below_distance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        for n in (1, 3, 6):
            assert max_proper_time(p, q, n) <= d + 1e-9


def test_max_proper_time_is_the_distance():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        for n in (1, 2, 5, 8):
            assert abs(max_proper_time(p, q, n) - d) <= 1e-12 * max(1.0, d)


def _random_causal_curve(p, q, n, rng):
    """Vertices sampled one after another inside the future cone of the
    previous vertex and the past cone of q."""
    verts, cur = [p], p
    for _ in range(n - 1):
        t = float(rng.uniform(cur.t, q.t))
        lo = max(cur.x - (t - cur.t), q.x - (q.t - t))
        hi = min(cur.x + (t - cur.t), q.x + (q.t - t))
        cur = Event(t, float(rng.uniform(lo, hi)) if hi > lo else lo)
        verts.append(cur)
    return Curve(verts + [q])


def test_random_causal_curves_never_beat_max_proper_time():
    rng = np.random.default_rng(17)
    sampled = 0
    for _ in range(20):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        for n in (2, 3, 6, 8):
            best = max_proper_time(p, q, n)
            for _ in range(25):
                try:
                    tau = proper_time(_random_causal_curve(p, q, n, rng))
                except NonCausalSegment:
                    continue  # rounding put a sampled vertex outside the cone
                sampled += 1
                assert tau <= best + 1e-12 * max(1.0, d)
    assert sampled >= 1900


COMPASS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def test_compass_moves_of_the_chord_never_beat_it():
    rng = np.random.default_rng(18)
    moved = 0
    for _ in range(10):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        scale = max(q.t - p.t, abs(q.x - p.x), 1.0)
        for n in (2, 4, 6):
            best, chord = spacetime._chord(p, q, n)
            for i in range(1, n):
                for step in scale * 0.25 * 0.5 ** np.arange(0, 24, 3):
                    for ut, ux in COMPASS:
                        verts = list(chord)
                        verts[i] = Event(verts[i].t + step * ut, verts[i].x + step * ux)
                        try:
                            tau = proper_time(Curve(verts))
                        except NonCausalSegment:
                            continue
                        moved += 1
                        assert tau <= best + 1e-12 * max(1.0, d)
    assert moved >= 1000


def test_max_proper_time_chord_near_the_light_cone():
    # cut in six, this chord has pieces that rounding puts just outside the
    # cone; the single segment [p, q] has the same proper time and is causal
    p = Event(1.879621435201635, 2.47653346366633)
    q = Event(3.7388651849264565, 4.33577721339115)
    tau, verts = spacetime._chord(p, q, 6)
    assert verts == [p, q]
    assert tau == lorentzian_distance(p, q) > 0.0
    assert max_proper_time(p, q, 6) == tau


def test_is_causal_function_examples():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 11, 11)
    assert is_causal_function(affine_field(1.0, 0.0), grid)
    assert not is_causal_function(affine_field(0.0, 1.0), grid)
    arctan_t = ScalarField(lambda t, x: (np.arctan(t), 1.0 / (1.0 + t * t), np.zeros_like(t)))
    assert is_causal_function(arctan_t, grid)


def test_is_causal_function_rejects_bad_gradient():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    lying = ScalarField(lambda t, x: (t, np.full_like(t, 2.0), np.zeros_like(t)))
    with pytest.raises(GradientMismatch):
        is_causal_function(lying, grid)


def test_gradient_check_rejects_non_finite_differences():
    # the values at the events (x = 0) are 0, but both x-steps overflow, so
    # no x-difference is finite: the supplied gradient cannot be confirmed
    overflowing = ScalarField(
        lambda t, x: (1e300 * (t * x), np.full_like(t, 5.0), np.zeros_like(t))
    )
    with pytest.raises(GradientMismatch):
        is_causal_function(overflowing, Grid(1e10, 2e10, 0.0, 0.0, 3, 1))


@pytest.mark.parametrize("gt, gx", [
    (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf), (np.nan, 0.0), (1.0, np.nan),
])
def test_gradient_check_rejects_a_non_finite_supplied_gradient(gt, gx):
    # the values are finite (f = t), so only the supplied gradient is wrong;
    # an infinite one must not make the tolerance infinite
    lying = ScalarField(lambda t, x: (t, np.full_like(t, gt), np.full_like(t, gx)))
    for certificate in (is_causal_function, is_steep_function):
        with pytest.raises(GradientMismatch):
            certificate(lying, Grid(-1.0, 1.0, -1.0, 1.0, 3, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, grid", [
    # the right gradient; the value at (-DBL_MAX, -DBL_MAX) is -1.5 DBL_MAX
    (affine_field(1.0, 0.5), Grid(-DBL_MAX, 0.0, -DBL_MAX, 0.0, 3, 3)),
    # a gradient off by a factor 2e299; the values are about 1e310
    (
        ScalarField(lambda t, x: (1e300 * t, np.full_like(t, 5.0), np.zeros_like(t))),
        Grid(1e10, 2e10, 0.0, 1.0, 3, 3),
    ),
])
def test_field_values_beyond_the_double_range_raise(field, grid):
    # without a finite value at the event the gradient can be neither
    # confirmed nor refuted: that is an overflow, not a mismatch
    for certificate in (is_causal_function, is_steep_function):
        with pytest.raises(CoordinateOverflow, match="field's value"):
            certificate(field, grid)


@pytest.mark.parametrize("grid", [
    Grid(1.0, DBL_MAX, 0.0, 1.0, 3, 3),
    Grid(-DBL_MAX, -1.0, 0.0, 1.0, 3, 3),
    Grid(0.0, 1.0, 1.0, DBL_MAX, 3, 3),
    Grid(0.0, 1.0, -DBL_MAX, -1.0, 3, 3),
])
def test_gradient_check_at_the_largest_doubles(grid):
    # steps past the double range are taken one-sided, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ct, cx in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.5, -0.5)):
            assert is_causal_function(affine_field(ct, cx), grid) == (ct >= abs(cx))
        for gt, gx in ((1.01, 0.5), (1.0, 0.505)):  # 1% off
            lying = ScalarField(
                lambda t, x, gt=gt, gx=gx: (t + 0.5 * x, np.full_like(t, gt), np.full_like(t, gx))
            )
            with pytest.raises(GradientMismatch):
                is_causal_function(lying, grid)


def test_is_steep_function_examples():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 11, 11)
    assert is_steep_function(affine_field(1.0, 0.0), grid)  # borderline
    assert is_steep_function(boost_field(1.0), grid)
    # df/dt ~ 1e7 to 1e8: borderline up to rounding of the order of 1e-9
    for beta in (-21.9, -19.3, -17.8, 16.9, 19.0):
        assert is_steep_function(boost_field(beta), grid)
    assert not is_steep_function(affine_field(0.5, 0.0), grid)


def test_is_steep_function_rejects_bad_gradient():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    lying = ScalarField(lambda t, x: (2.0 * t, np.full_like(t, 3.0), np.zeros_like(t)))
    with pytest.raises(GradientMismatch):
        is_steep_function(lying, grid)


BOOST_BETAS = np.linspace(-spacetime.BOOST_CAP, spacetime.BOOST_CAP, 241)


def test_steep_certificate_accepts_boost_gradients_up_to_cap():
    gt, gx = np.cosh(BOOST_BETAS), np.sinh(BOOST_BETAS)
    assert spacetime._steep_certificate(gt, gx)
    for i in range(len(BOOST_BETAS)):
        assert spacetime._steep_certificate(gt[i : i + 1], gx[i : i + 1])


def test_steep_certificate_rejects_slightly_shallow_gradients_up_to_cap():
    gx = np.sinh(BOOST_BETAS)
    gt = np.sqrt(1.0 + gx * gx) * (1.0 - 1e-6)
    assert not spacetime._steep_certificate(gt, gx)
    for i in range(len(BOOST_BETAS)):
        assert not spacetime._steep_certificate(gt[i : i + 1], gx[i : i + 1])


def test_boost_gradient_check_rejects_lying_family():
    ct, cx = np.cosh(BOOST_BETAS)[:, None], np.sinh(BOOST_BETAS)[:, None]
    t, x = np.array([-2.0, 0.0, 3.0]), np.array([1.0, 0.0, -4.0])

    def family(ts, xs):
        return ct * ts + cx * xs

    spacetime._check_gradients(family, ct, cx, t, x)
    with pytest.raises(GradientMismatch):
        spacetime._check_gradients(family, ct * 1.01, cx, t, x)


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e9, 1e10, 1e12, 1e15])
def test_functional_at_large_coordinates(scale):
    # the finite-difference step grows with the coordinates, so rounding of
    # the two values no longer swamps their difference far from the origin
    tau = lorentz_distance_functional(E(scale, 0.0), E(scale + 2.0, 1.0))
    assert abs(tau - math.sqrt(3.0)) <= 1e-9 * max(1.0, tau)
    if scale == 1e9:
        ct, cx = np.cosh(BOOST_BETAS)[:, None], np.sinh(BOOST_BETAS)[:, None]
        t, x = np.array([scale - 1.0, scale, scale + 3.0]), np.array([-1.0, 0.0, 2.0])

        def family(ts, xs):
            return ct * ts + cx * xs

        spacetime._check_gradients(family, ct, cx, t, x)
        with pytest.raises(GradientMismatch):
            spacetime._check_gradients(family, ct * 1.01, cx, t, x)


def test_functional_certifies_exactly_the_rapidities_it_evaluated(monkeypatch):
    evaluated, checked, certified = [], [], []
    gain, certificate = spacetime._boost_gain, spacetime._steep_certificate
    gradient_check = spacetime._check_gradients

    def spy_gain(u, v, beta):
        evaluated.append(beta)
        return gain(u, v, beta)

    def spy_certificate(gt, gx):
        certified.append((gt.tolist(), gx.tolist()))
        return certificate(gt, gx)

    def spy_gradient_check(value, gt, gx, t, x):
        checked.append((np.ravel(gt).tolist(), np.ravel(gx).tolist(), np.size(t)))
        return gradient_check(value, gt, gx, t, x)

    monkeypatch.setattr(spacetime, "_boost_gain", spy_gain)
    monkeypatch.setattr(spacetime, "_check_gradients", spy_gradient_check)
    monkeypatch.setattr(spacetime, "_steep_certificate", spy_certificate)
    cases = [E(5, 3), E(3.0, 2.9999999999999467), E(1, 1), E(0, 1), E(-1, 0), E(0, 0)]
    for q in cases:
        evaluated.clear()
        checked.clear()
        certified.clear()
        lorentz_distance_functional(E(0, 0), q)
        assert len(certified) == 1 and len(evaluated) == 1
        beta = evaluated[0]
        assert abs(beta) <= spacetime.BOOST_CAP
        # one member, certified at all nine rectangle events
        gt, gx = certified[0]
        assert len(gt) == 9
        assert set(zip(gt, gx)) == {(math.cosh(beta), math.sinh(beta))}
        # the same gradients were checked against finite differences there
        assert checked == [(gt, gx, 9)]


def _sweep_pairs():
    rng = np.random.default_rng(19)
    pairs = [(E(0, 0), E(5, 3)), (E(0, 0), E(1, 0)), (E(0, 0), E(1, 1)),
             (E(0, 0), E(2, -2)), (E(0, 0), E(0, 1)), (E(0, 0), E(-1, 0.5)),
             (E(-3e4, 2e4), E(7e4, -5e4)), (E(0, 0), E(3.0, 2.9999999999999467))]
    for dt in (0.5, 3.0):
        for k in (2, 8, 20, 40, 59):
            for sign in (1.0, -1.0):
                pairs.append((E(0, 0), E(dt, sign * dt * (1.0 - 10.0 ** (-k / 4)))))
    for _ in range(10):
        pairs.append(random_timelike_pair(rng))
        pairs.append(random_spacelike_pair(rng))
    return pairs


def test_rapidity_sweep_never_goes_below_the_functional():
    cap = spacetime.BOOST_CAP
    for p, q in _sweep_pairs():
        dt, dx = q.t - p.t, q.x - p.x
        u, v = dt + dx, dt - dx
        betas = [np.linspace(-cap, cap, 24001)]
        if u > 0.0 and v > 0.0:
            star = 0.5 * math.log(v / u)
            betas.append(star + np.linspace(-1e-3, 1e-3, 2001))
        betas = np.concatenate(betas)
        betas = betas[np.abs(betas) <= cap]
        sweep = np.maximum(0.0, 0.5 * (u * np.exp(betas) + v * np.exp(-betas)))
        got = lorentz_distance_functional(p, q)
        tau = lorentzian_distance(p, q)
        assert float(sweep.min()) >= got - 1e-12 * max(1.0, tau), (p, q)


def test_functional_value_is_the_gain_at_the_certified_rapidity(monkeypatch):
    fields, certified = [], []
    field, certificate = spacetime.boost_field, spacetime._steep_certificate

    def spy_field(beta):
        fields.append(beta)
        return field(beta)

    def spy_certificate(gt, gx):
        certified.append(set(zip(gt.tolist(), gx.tolist())))
        return certificate(gt, gx)

    monkeypatch.setattr(spacetime, "boost_field", spy_field)
    monkeypatch.setattr(spacetime, "_steep_certificate", spy_certificate)
    for p, q in _sweep_pairs():
        fields.clear()
        certified.clear()
        got = lorentz_distance_functional(p, q)
        assert len(fields) == 1 and len(certified) == 1
        beta = fields[0]
        assert certified[0] == {(math.cosh(beta), math.sinh(beta))}
        dt, dx = q.t - p.t, q.x - p.x
        u, v = dt + dx, dt - dx
        gain = spacetime._boost_gain(u, v, beta)
        if u > 0.0 and v > 0.0:
            assert got == gain, (p, q)
        else:
            # the certified member reaches (or, on the cone, all but reaches) 0
            assert got == 0.0
            assert gain <= 1e-20 * max(1.0, abs(dt)), (p, q)


def test_causal_functions_form_a_convex_cone():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = boost_field(0.7)
    g = ScalarField(lambda t, x: (np.arctan(t), 1.0 / (1.0 + t * t), np.zeros_like(t)))
    for lam in (0.0, 0.5, 3.0):
        combo = ScalarField(
            lambda t, x, lam=lam: tuple(lam * a + b for a, b in zip(f.jet(t, x), g.jet(t, x)))
        )
        assert is_causal_function(combo, grid)


def test_functional_equals_distance_on_timelike_pair():
    got = lorentz_distance_functional(E(0, 0), E(5, 3))
    assert abs(got - 4.0) <= 1e-9


def test_functional_spacelike_is_zero():
    assert lorentz_distance_functional(E(0, 0), E(0, 1)) == 0.0


def test_functional_pure_time_step():
    got = lorentz_distance_functional(E(0, 0), E(1, 0))
    assert abs(got - 1.0) <= 1e-9


def test_functional_null_pair_vanishes():
    assert lorentz_distance_functional(E(0, 0), E(1, 1)) == 0.0
    assert lorentz_distance_functional(E(0, 0), E(2, -2)) == 0.0
    assert lorentz_distance_functional(E(0, 0), E(1e5, 1e5)) == 0.0


def test_functional_near_null_sweep():
    # |dx|/dt = 1 - 10^(-k/4) approaches the light cone to within a few ulps;
    # the reference is the factored form, since dt^2 - dx^2 itself cancels
    # (about 3 % of tau at k >= 50)
    for dt in (0.5, 1.0, 3.0, 10.0):
        for k in range(1, 60):
            for sign in (1.0, -1.0):
                dx = sign * dt * (1.0 - 10.0 ** (-k / 4))
                tau = math.sqrt((dt - dx) * (dt + dx))
                got = lorentz_distance_functional(E(0, 0), E(dt, dx))
                assert abs(got - tau) <= 1e-9 * max(1.0, tau), (dt, k, sign)


def test_functional_dominates_distance():
    rng = np.random.default_rng(13)
    for i in range(20):
        if i % 2 == 0:
            p, q = random_timelike_pair(rng)
        else:
            p, q = random_spacelike_pair(rng)
        d = lorentzian_distance(p, q)
        functional = lorentz_distance_functional(p, q)
        assert functional >= d - 1e-9
        assert abs(functional - d) <= 1e-9


def test_lorentzian_distance_properties():
    rng = np.random.default_rng(14)
    for _ in range(200):
        p, q = random_timelike_pair(rng)
        dt = float(rng.uniform(0.3, 2.0))
        dx = dt * float(rng.uniform(-0.9, 0.9))
        r = Event(q.t + dt, q.x + dx)
        dpq, dqr, dpr = (
            lorentzian_distance(p, q),
            lorentzian_distance(q, r),
            lorentzian_distance(p, r),
        )
        assert lorentzian_distance(p, p) == 0.0
        assert dpq > 0.0
        assert lorentzian_distance(q, p) == 0.0
        assert dpr >= dpq + dqr - 1e-12


def test_causal_order_is_a_partial_order():
    rng = np.random.default_rng(15)
    for _ in range(300):
        p = Event(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        q = Event(p.t + float(rng.uniform(0, 2)), p.x + float(rng.uniform(-2, 2)))
        r = Event(q.t + float(rng.uniform(0, 2)), q.x + float(rng.uniform(-2, 2)))
        assert causally_precedes(p, p)
        if causally_precedes(p, q) and causally_precedes(q, p):
            assert p == q
        if causally_precedes(p, q) and causally_precedes(q, r):
            assert causally_precedes(p, r)


def exact_distance(p, q):
    """sqrt(dt^2 - dx^2) for integer-valued coordinates, in exact integer
    arithmetic (the floor of the root, far below a double's ulp here)."""
    dt, dx = int(q.t) - int(p.t), int(q.x) - int(p.x)
    return float(math.isqrt(dt * dt - dx * dx))


# Causal pairs whose squared differences overflow a double; in the second
# pair the differences themselves overflow, yet the distance is finite.
OVERFLOWING_PAIRS = [
    (E(0.0, 0.0), E(1e308, 0.9e308)),
    (E(-1e308, -1e308), E(1e308, 0.8e308)),
]


@pytest.mark.parametrize("p, q", OVERFLOWING_PAIRS)
def test_overflowing_interval_keeps_finite_distances(p, q):
    want = exact_distance(p, q)
    assert causally_precedes(p, q) and not causally_precedes(q, p)
    assert lorentzian_distance(p, q) == pytest.approx(want, rel=1e-15)
    assert lorentzian_distance(q, p) == 0.0
    assert lorentz_distance_functional(p, q) == pytest.approx(want, rel=1e-14)
    assert lorentz_distance_functional(q, p) == 0.0
    for n in (1, 2, 3, 8):
        assert max_proper_time(p, q, n) == pytest.approx(want, rel=1e-14)


def test_distances_beyond_the_double_range_raise():
    p, q = E(-1e308, 0.0), E(1e308, 0.0)
    assert causally_precedes(p, q)
    for value in (
        lambda: lorentzian_distance(p, q),
        lambda: lorentz_distance_functional(p, q),
        lambda: max_proper_time(p, q, 3),
        lambda: proper_time(Curve((p, E(0.0, 0.0), q))),  # two finite pieces
    ):
        with pytest.raises(CoordinateOverflow):
            value()


@pytest.mark.parametrize(
    "p, q, want",
    [
        (E(1e300, 0.0), E(1e300, 1.0), 0.0),  # spacelike, certified at beta = -cap
        (E(-1e300, 2.0), E(-1e300, 1.0), 0.0),
        (E(0.0, 1.7976931348623157e308), E(1.0, 1.7976931348623157e308), 1.0),  # beta = 0
    ],
)
def test_functional_far_from_the_origin(p, q, want):
    # the certified member's values overflow on the rectangle around the
    # pair; being linear, it is certified on the scaled pair's rectangle
    assert lorentz_distance_functional(p, q) == want


def test_overflowing_differences_keep_the_causal_order():
    p = E(-1e308, -1e308)
    assert causally_precedes(p, E(1e308, 1e308))  # lightlike
    assert not causally_precedes(p, E(1e308, 1.5e308))  # spacelike
    assert not causally_precedes(E(1e308, 1e308), p)


def test_large_finite_squares_keep_the_plain_formula():
    p, q = E(-3e153, 1e153), E(5e153, -2e153)
    dt, dx = q.t - p.t, q.x - p.x
    assert lorentzian_distance(p, q) == math.sqrt(dt * dt - dx * dx)


def test_grid_layout_row_major_t_outer():
    grid = Grid(0.0, 1.0, 10.0, 11.0, 2, 3)
    events = grid.events()
    assert events[0] == Event(0.0, 10.0)
    assert events[1] == Event(0.0, 10.5)
    assert events[3] == Event(1.0, 10.0)
    assert len(events) == 6


@pytest.mark.parametrize("bounds", [
    (math.nan, 1.0, 0.0, 1.0),
    (0.0, math.inf, 0.0, 1.0),
    (0.0, 1.0, -math.inf, 1.0),
    (0.0, 1.0, 0.0, math.nan),
    (-DBL_MAX, DBL_MAX, 0.0, 1.0),  # the span overflows
    (0.0, 1.0, -1e308, 1e308),
    (0.0, DBL_MAX, 0.0, 1.0),  # DBL_MAX / 3 * 3 rounds past the double range
])
def test_grid_rejects_non_finite_coordinates(bounds):
    with pytest.raises(ValueError):
        Grid(*bounds, 4, 4)


def test_grid_checks_its_last_coordinates_without_building_the_axes():
    tracemalloc.start()
    try:
        Grid(0.0, 1.0, 0.0, 1.0, 2 * 10**6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 1.0, 1), (0.0, 1.0, 7), (-3.0, 0.1, 30), (1e-3, 1e300, 4),
    (-1e300, 1e300, 3), (0.3, 0.30000000000000004, 1000), (-5.5, -5.5, 9),
])
def test_axis_end_is_the_last_axis_value(lo, hi, n):
    assert spacetime._axis_end(lo, hi, n) == spacetime._axis(lo, hi, n)[-1]


def test_grid_refined_keeps_endpoints():
    grid = Grid(0.0, 1.0, 0.0, 2.0, 3, 5)
    fine = grid.refined(2)
    assert (fine.n_t, fine.n_x) == (5, 9)
    assert fine.t_values()[0] == 0.0 and fine.t_values()[-1] == 1.0
