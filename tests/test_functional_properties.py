"""Property tests of the Lorentzian distance functional: large coordinates
and pairs within a few ulps of the light cone. The reference proper time is
the factored form sqrt((dt - dx)(dt + dx)), which does not cancel near the
cone."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal import Event, lorentz_distance_functional

coordinate = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
extent = st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False)
# |dx|/dt = 1 -+ 10^-k: from clearly off the cone down to below one ulp
closeness = st.floats(0.0, 17.0, allow_nan=False, allow_infinity=False)


def _check(p: Event, q: Event) -> None:
    dt, dx = q.t - p.t, q.x - p.x
    got = lorentz_distance_functional(p, q)
    if dt < abs(dx) or dt < 0.0:
        assert got == 0.0
        return
    tau = math.sqrt((dt - dx) * (dt + dx))
    band = 1e-9 * max(1.0, tau)
    assert got >= tau - band
    assert abs(got - tau) <= band


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coordinate, coordinate, coordinate, coordinate)
def test_functional_matches_proper_time_at_large_offsets(pt, px, qt, qx):
    _check(Event(pt, px), Event(qt, qx))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coordinate, coordinate, extent, closeness, st.sampled_from((-1.0, 1.0)),
       st.sampled_from((-1.0, 1.0)))
def test_functional_near_the_light_cone(pt, px, dt, k, sign, side):
    # side -1 lands just inside the cone (timelike), +1 just outside (spacelike)
    dx = sign * dt * (1.0 + side * 10.0 ** -k)
    _check(Event(pt, px), Event(pt + dt, px + dx))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coordinate, coordinate, extent, st.sampled_from((-1.0, 1.0)))
def test_functional_exactly_null_is_zero(pt, px, dt, sign):
    p, q = Event(pt, px), Event(pt + dt, px + sign * dt)
    if abs(q.x - p.x) == q.t - p.t:
        assert lorentz_distance_functional(p, q) == 0.0
