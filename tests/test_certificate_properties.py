"""Property tests of the gradient certificates on affine fields, with
coefficients up to 1e308: f = ct*t + cx*x is causal iff ct >= |cx| and steep
iff ct >= hypot(1, cx), and neither certificate warns on the way. Within a
band of relative width 1e-8 around the boundary the certificates' tolerance
decides, so the property does not look there. Where a value of the field at
a grid corner leaves the double range, the answer is CoordinateOverflow."""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nccausal import CoordinateOverflow, Grid, affine_field, is_causal_function, is_steep_function

GRID = Grid(-1.0, 1.0, -1.0, 1.0, 3, 3)
BAND = 1e-8
coefficient = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)


def _outside_band(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) > BAND * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coefficient, coefficient)
@example(1e308, 0.0)
@example(1.0, 1.5e308)
@example(-1e308, 1e308)
def test_affine_certificates_match_the_coefficients(ct, cx):
    field = affine_field(ct, cx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if math.isinf(abs(ct) + abs(cx)):  # the value at a corner
            for certificate in (is_causal_function, is_steep_function):
                with pytest.raises(CoordinateOverflow):
                    certificate(field, GRID)
            return
        if _outside_band(ct, abs(cx)):
            assert is_causal_function(field, GRID) == (ct >= abs(cx))
        if _outside_band(ct, math.hypot(1.0, cx)):
            assert is_steep_function(field, GRID) == (ct >= math.hypot(1.0, cx))
