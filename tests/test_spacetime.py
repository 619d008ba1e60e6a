"""Minkowski causality, proper time, function predicates, and the distance
functional. Derived expectations are per-segment arithmetic or the ascent
oracle converging to the analytic distance."""

import math

import numpy as np
import pytest

from nccausal import (
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
    default_boost_grid,
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


def test_max_proper_time_below_distance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        for n in (1, 3, 6):
            assert max_proper_time(p, q, n) <= d + 1e-9


def test_is_causal_function_examples():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 11, 11)
    assert is_causal_function(affine_field(1.0, 0.0), grid)
    assert not is_causal_function(affine_field(0.0, 1.0), grid)
    arctan_t = ScalarField(
        value=lambda e: math.atan(e.t),
        gradient=lambda e: (1.0 / (1.0 + e.t * e.t), 0.0),
    )
    assert is_causal_function(arctan_t, grid)


def test_is_causal_function_rejects_bad_gradient():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    lying = ScalarField(value=lambda e: e.t, gradient=lambda e: (2.0, 0.0))
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
    lying = ScalarField(value=lambda e: 2.0 * e.t, gradient=lambda e: (3.0, 0.0))
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
    cases = [
        (E(5, 3), None),
        (E(3.0, 2.9999999999999467), None),
        (E(1, 1), None),
        (E(0, 1), None),
        (E(5, 3), [0.0]),
    ]
    for q, boost_grid in cases:
        evaluated.clear()
        checked.clear()
        certified.clear()
        lorentz_distance_functional(E(0, 0), q, boost_grid=boost_grid)
        assert len(certified) == 1
        betas = np.array(evaluated)
        gt, gx = certified[0]
        assert len(gt) == len(betas) >= len(boost_grid or default_boost_grid())
        assert set(zip(gt, gx)) == set(zip(np.cosh(betas).tolist(), np.sinh(betas).tolist()))
        # the same members were gradient-checked at all nine rectangle events
        assert checked == [(gt, gx, 9)]


def test_causal_functions_form_a_convex_cone():
    grid = Grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = boost_field(0.7)
    g = ScalarField(
        value=lambda e: math.atan(e.t),
        gradient=lambda e: (1.0 / (1.0 + e.t * e.t), 0.0),
    )
    for lam in (0.0, 0.5, 3.0):
        combo = ScalarField(
            value=lambda e, lam=lam: lam * f.value(e) + g.value(e),
            gradient=lambda e, lam=lam: (
                lam * f.gradient(e)[0] + g.gradient(e)[0],
                lam * f.gradient(e)[1] + g.gradient(e)[1],
            ),
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


def test_functional_requires_symmetric_grid():
    with pytest.raises(ValueError):
        lorentz_distance_functional(E(0, 0), E(1, 0), boost_grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        lorentz_distance_functional(E(0, 0), E(1, 0), boost_grid=[])


def test_functional_single_point_grid_still_refines():
    got = lorentz_distance_functional(E(0, 0), E(5, 3), boost_grid=[0.0])
    assert abs(got - 4.0) <= 1e-9


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


def test_grid_layout_row_major_t_outer():
    grid = Grid(0.0, 1.0, 10.0, 11.0, 2, 3)
    events = grid.events()
    assert events[0] == Event(0.0, 10.0)
    assert events[1] == Event(0.0, 10.5)
    assert events[3] == Event(1.0, 10.0)
    assert len(events) == 6


def test_grid_refined_keeps_endpoints():
    grid = Grid(0.0, 1.0, 0.0, 2.0, 3, 5)
    fine = grid.refined(2)
    assert (fine.n_t, fine.n_x) == (5, 9)
    assert fine.t_values()[0] == 0.0 and fine.t_values()[-1] == 1.0
