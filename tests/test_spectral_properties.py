"""Property tests of the spectral distance on pairs that share a parallel of
latitude up to LATITUDE_TOL, near-pole latitudes included: exact symmetry,
exact zero on the diagonal, the triangle inequality, and the infinite verdict
just past the tolerance."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal import FiniteDirac, spectral_distance, state_on_parallel
from nccausal.finite_geometry import LATITUDE_TOL

pole_distance = st.floats(0.0, 1e-6, allow_nan=False, allow_infinity=False)
latitude = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    pole_distance.map(lambda e: 1.0 - e),
    pole_distance.map(lambda e: e - 1.0),
)
angle = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)
# kept clear of the tolerance by far more than the latitudes' rounding
within = st.floats(0.0, 0.999 * LATITUDE_TOL, allow_nan=False, allow_infinity=False)
beyond = st.floats(1.001 * LATITUDE_TOL, 2.0 * LATITUDE_TOL, allow_nan=False,
                   allow_infinity=False)
dirac = st.sampled_from(
    (FiniteDirac(0.0, 1.0), FiniteDirac(1.0, 3.5), FiniteDirac(0.3, 0.05))
)


def _toward_equator(z: float, offset: float) -> float:
    return z - offset if z > 0.0 else z + offset


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dirac, latitude, within, angle, angle)
def test_spectral_distance_is_exactly_symmetric(df, z, offset, th1, th2):
    a = state_on_parallel(z, th1)
    b = state_on_parallel(_toward_equator(z, offset), th2)
    dab, dba = spectral_distance(df, a, b), spectral_distance(df, b, a)
    assert not dab.is_infinite
    assert dab.value == dba.value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dirac, latitude, angle)
def test_spectral_distance_to_itself_is_zero(df, z, th):
    s = state_on_parallel(z, th)
    assert spectral_distance(df, s, s).value == 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dirac, latitude, within, within, angle, angle, angle)
def test_spectral_distance_triangle_inequality(df, z, off_b, off_c, th_a, th_b, th_c):
    # both offsets point the same way, so every pair stays within the tolerance
    a = state_on_parallel(z, th_a)
    b = state_on_parallel(_toward_equator(z, 0.5 * off_b), th_b)
    c = state_on_parallel(_toward_equator(z, 0.5 * off_c), th_c)
    dab = spectral_distance(df, a, b).value
    dbc = spectral_distance(df, b, c).value
    dac = spectral_distance(df, a, c).value
    assert dac <= dab + dbc + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dirac, latitude, beyond, angle, angle)
def test_spectral_distance_past_the_latitude_tolerance_is_infinite(df, z, offset, th1, th2):
    a = state_on_parallel(z, th1)
    b = state_on_parallel(_toward_equator(z, offset), th2)
    assert spectral_distance(df, a, b).is_infinite
    assert spectral_distance(df, b, a).is_infinite
