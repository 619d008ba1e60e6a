"""Property tests of the separating search's closed-form witnesses on pairs
that fail the base clause (spacelike, within a few ulps of the light cone,
or past-directed) or the latitude clause. Every witness returned must be in
the causal cone on the whole plane: its symbol is checked at events far
outside any grid and on the search rectangle four times refined."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal import (
    Event,
    FiniteDirac,
    Grid,
    ProductState,
    causally_related,
    product_symbol,
    separating_element_search,
    state_on_parallel,
)
from nccausal.product_causality import NSD_TOL, WITNESS_TOL, NotRelatedReason

DF = FiniteDirac(1.0, 2.0)
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)

coordinate = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
extent = st.floats(1e-2, 1e3, allow_nan=False, allow_infinity=False)
# |dt/dx| = 1 - 10^-k: from clearly spacelike down to below one ulp
closeness = st.floats(0.0, 17.0, allow_nan=False, allow_infinity=False)
sign = st.sampled_from((-1.0, 1.0))
latitude_value = st.floats(-0.9, 0.9, allow_nan=False, allow_infinity=False)


def far_events(witness, p, q, rng):
    """Events far from the pair: uniform over a wide box and, for a boosted
    tanh, along its transition line through the midpoint of p and q, where it
    is steepest. There its gradient is exactly (cosh beta, sinh beta)."""
    t = rng.uniform(-1e6, 1e6, 200)
    x = rng.uniform(-1e6, 1e6, 200)
    tc, xc = 0.5 * p.t + 0.5 * q.t, 0.5 * p.x + 0.5 * q.x
    _, ch, sh = witness.dictionary.profiles[0].jet(tc, xc)
    if ch > 0.0:
        along = rng.uniform(-1e4, 1e4, 200)
        t = np.concatenate([t, tc + (rng.uniform(-3.0, 3.0, 200) - sh * along) / ch])
        x = np.concatenate([x, xc + along])
    return t, x


def check_cone_membership(witness, w1, w2):
    p, q = w1.event, w2.event
    assert witness.eval_state(w2) - witness.eval_state(w1) < -WITNESS_TOL
    t, x = far_events(witness, p, q, np.random.default_rng(0))
    u, ut, ux = (np.broadcast_to(j, t.shape) for j in witness.dictionary.profiles[0].jet(t, x))
    h = sum(c * m for c, m in zip(witness.coefficients, PAULI))
    a, at, ax = (j[:, None, None] * h for j in (u, ut, ux))
    lam = np.linalg.eigvalsh(product_symbol(a, at, ax, DF))[:, -1]
    assert lam.max() <= NSD_TOL
    sep = math.hypot(q.t - p.t, q.x - p.x)
    grid = Grid.covering(p, q, margin=sep + 1.0, n_t=13, n_x=13)
    assert witness.is_certified(grid.refined(4), DF)


def search(p, q, z1, z2):
    w1 = ProductState(p, state_on_parallel(z1, 0.3))
    w2 = ProductState(q, state_on_parallel(z2, 0.3))
    return w1, w2, separating_element_search(w1, w2, DF)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coordinate, coordinate, extent, closeness, sign, sign, latitude_value)
def test_spacelike_witnesses_are_in_the_cone(pt, px, dx, k, t_sign, x_sign, z):
    dt = t_sign * dx * (1.0 - 10.0 ** -k)
    p = Event(pt, px)
    q = Event(pt + dt, px + x_sign * dx)
    w1, w2, witness = search(p, q, z, z)
    if causally_related(w1, w2, DF).reason is not NotRelatedReason.BASE_NOT_CAUSAL:
        assert witness is None
        return  # rounding put q on or inside the cone
    if k <= 6.0:
        assert witness is not None
    if witness is not None:
        check_cone_membership(witness, w1, w2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coordinate, coordinate, extent, st.floats(-1.0, 1.0), latitude_value,
       latitude_value)
def test_past_directed_witnesses_are_in_the_cone(pt, px, dt, slope, z1, z2):
    p = Event(pt, px)
    q = Event(pt - dt, px + slope * dt)
    w1, w2, witness = search(p, q, z1, z2)
    assert causally_related(w1, w2, DF).reason is NotRelatedReason.BASE_NOT_CAUSAL
    assert witness is not None
    check_cone_membership(witness, w1, w2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coordinate, coordinate, extent, st.floats(-1.0, 1.0), latitude_value,
       latitude_value)
def test_latitude_witnesses_are_in_the_cone(pt, px, dt, slope, z1, z2):
    p = Event(pt, px)
    q = Event(pt + dt, px + slope * dt)
    w1, w2, witness = search(p, q, z1, z2)
    reason = causally_related(w1, w2, DF).reason
    if reason is not NotRelatedReason.LATITUDE_MISMATCH:
        return  # rounding put q outside the cone, or the latitudes agree
    if abs(z1 - z2) > 2.0 * WITNESS_TOL:
        assert witness is not None
    if witness is not None:
        assert witness.describe().endswith("const*sz")
        check_cone_membership(witness, w1, w2)
