"""The array forms of the causal order, the product predicate and the
curve oracle against their scalar forms, bit for bit: ``causal_order``
against ``causally_precedes``/``lorentzian_distance``, ``parallel_bloch``
against ``state_on_parallel``, ``causal_verdicts`` against
``causally_related`` on every field of the verdict, and ``curve_oracles``
against ``curve_oracle``, including their errors. The cases sit where a
last-bit difference would change an answer: the light cone, the pole,
latitude, speed and oracle-slack thresholds, and coordinates whose squares
or differences overflow."""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal import (
    CoordinateOverflow,
    Event,
    FiniteDirac,
    InternalState,
    NonCausalSegment,
    ProductState,
    ProductStates,
    causal_order,
    causal_verdicts,
    causally_precedes,
    causally_related,
    curve_oracle,
    curve_oracles,
    lorentzian_distance,
    parallel_bloch,
    state_on_parallel,
)
from nccausal.finite_geometry import LATITUDE_TOL, POLE_TOL
from nccausal.product_causality import ORACLE_SLACK, SPEED_SLACK
from nccausal.scene import default_scene
from nccausal.verify import random_product_pairs, related_product_pairs

DBL_MAX = sys.float_info.max
DIRAC = default_scene().dirac
UNIT_GAP = FiniteDirac(0.0, 1.0)
# the two internal Dirac operators of the benchmark workloads, gaps 1 and 2.5
BENCHMARK_DIRACS = (UNIT_GAP, FiniteDirac(0.5, 3.0))

small = st.floats(-10.0, 10.0)
huge = st.one_of(
    st.floats(-DBL_MAX, DBL_MAX),
    st.sampled_from([1e308, -1e308, 1.5e308, -1.5e308, DBL_MAX, -DBL_MAX, 0.9e308]),
)
coordinate = st.one_of(small, huge)


def _scalar_order(p, q):
    """The scalar answers, or the error type the distance raises."""
    try:
        return causally_precedes(p, q), lorentzian_distance(p, q)
    except CoordinateOverflow:
        return CoordinateOverflow


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate), min_size=1, max_size=6))
def test_causal_order_is_the_scalar_order(rows):
    p = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    q = (np.array([r[2] for r in rows]), np.array([r[3] for r in rows]))
    want = [_scalar_order(Event(a, b), Event(c, d)) for a, b, c, d in rows]
    if CoordinateOverflow in want:
        with pytest.raises(CoordinateOverflow):
            causal_order(p, q)
        return
    precedes, tau = causal_order(p, q)
    assert precedes.tolist() == [w[0] for w in want]
    assert [t.hex() for t in tau.tolist()] == [w[1].hex() for w in want]


# pairs whose two differences both overflow: lightlike, spacelike,
# past-directed, timelike; and squares that overflow with finite differences
OVERFLOWING = [
    (-1e308, -1e308, 1e308, 1e308),
    (-1e308, -1e308, 1e308, 1.5e308),
    (1e308, 1e308, -1e308, -1e308),
    (-1e308, -0.5e308, 1e308, 0.6e308),
    (-1e308, -0.95e308, 1e308, 0.95e308),
    (0.0, 0.0, 1e308, 0.9e308),
    (1e200, -1e200, 3e200, 1e200),
]


def test_causal_order_on_overflowing_differences():
    rows = OVERFLOWING
    p = (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    q = (np.array([r[2] for r in rows]), np.array([r[3] for r in rows]))
    precedes, tau = causal_order(p, q)
    want = [_scalar_order(Event(a, b), Event(c, d)) for a, b, c, d in rows]
    assert precedes.tolist() == [w[0] for w in want] == [True, False, False, True, True, True, True]
    assert [t.hex() for t in tau.tolist()] == [w[1].hex() for w in want]


def test_causal_order_raises_the_first_overflow_in_flat_order():
    # distances 2e308 and 3e308: the message names the first
    p = (np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    q = (np.array([-1e308, -1.5e308]), np.array([0.0, 0.0]))
    with pytest.raises(CoordinateOverflow) as array:
        causal_order(q, (p[0] + np.array([1e308, 1.5e308]), p[1]))
    with pytest.raises(CoordinateOverflow) as scalar:
        lorentzian_distance(Event(-1e308, 0.0), Event(1e308, 0.0))
    assert str(array.value) == str(scalar.value)


def test_causal_order_broadcasts_one_event_against_a_stack():
    t = np.array([1.0, 2.0, 0.5])
    precedes, tau = causal_order((0.0, 0.0), (t, np.array([0.0, 2.0, 1.0])))
    assert precedes.tolist() == [True, True, False]
    assert tau.tolist() == [1.0, 0.0, 0.0]


latitudes = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, 1.0, 0.0, -0.0, 1.0 - POLE_TOL, -1.0 + POLE_TOL]),
)
angles = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.pi, -math.pi]))


def _hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(latitudes, angles), min_size=1, max_size=8))
def test_parallel_bloch_is_the_scalar_bloch_vector(rows):
    x, y, z = parallel_bloch([r[0] for r in rows], [r[1] for r in rows])
    for i, (lat, angle) in enumerate(rows):
        want = state_on_parallel(lat, angle).bloch
        assert _hexes((x[i], y[i], z[i])) == _hexes(want), (lat, angle)


def test_parallel_bloch_matches_a_large_seeded_stack():
    # the scalar cosine, sine and squares, and C's hypot: numpy's array
    # versions differ from them on a share of such draws on some builds
    rng = np.random.default_rng(7)
    lat, angle = rng.uniform(-1.0, 1.0, 5000), rng.uniform(-4.0, 4.0, 5000)
    got = np.stack(parallel_bloch(lat, angle), axis=-1)
    want = [state_on_parallel(a, b).bloch for a, b in zip(lat.tolist(), angle.tolist())]
    assert [_hexes(g) for g in got] == [_hexes(w) for w in want]


@pytest.mark.parametrize(
    "lat, angle", [(1.5, 0.0), (math.nan, 0.0), (0.3, math.inf), (0.3, math.nan)]
)
def test_parallel_bloch_rejects_what_state_on_parallel_rejects(lat, angle):
    with pytest.raises(ValueError):
        state_on_parallel(lat, angle)
    with pytest.raises(ValueError):
        parallel_bloch([0.0, lat], [0.0, angle])


def _stack(states):
    return ProductStates(
        (np.array([w.event.t for w in states]), np.array([w.event.x for w in states])),
        tuple(np.array([w.internal.bloch[k] for w in states]) for k in range(3)),
    )


def _fields(verdict):
    """The fields of a scalar verdict, floats by their bits."""
    dtheta = verdict.delta_theta
    return (
        verdict.related,
        verdict.reason,
        verdict.base_causal,
        verdict.latitude_gap.hex(),
        None if dtheta is None else dtheta.hex(),
        verdict.theta_budget.hex(),
    )


def _stacked_fields(verdicts, i):
    """The fields of pair i of stacked verdicts, in the scalar's form: a nan
    delta_theta is the scalar's None."""
    dtheta = float(verdicts.delta_theta[i])
    return (
        bool(verdicts.related[i]),
        verdicts.reason[i],
        bool(verdicts.base_causal[i]),
        float(verdicts.latitude_gap[i]).hex(),
        None if math.isnan(dtheta) else dtheta.hex(),
        float(verdicts.theta_budget[i]).hex(),
    )


def _assert_same_verdicts(pairs, df):
    """The stacked verdicts on the pairs are the scalar ones, field by
    field, or both raise CoordinateOverflow."""
    w1, w2 = _stack([a for a, _ in pairs]), _stack([b for _, b in pairs])
    try:
        want = [causally_related(a, b, df) for a, b in pairs]
    except CoordinateOverflow:
        with pytest.raises(CoordinateOverflow):
            causal_verdicts(w1, w2, df)
        return
    got = causal_verdicts(w1, w2, df)
    assert [_stacked_fields(got, i) for i in range(len(pairs))] == [_fields(v) for v in want]


def _scalar_oracles(pairs, df, n_segments):
    """The scalar oracle pair by pair, or the type and message of the error
    that the loop raises first."""
    try:
        return [curve_oracle(a, b, df, n_segments) for a, b in pairs]
    except (CoordinateOverflow, NonCausalSegment) as error:
        return type(error), str(error)


segments = st.sampled_from([1, 2, 3, 6, 11])


def _assert_same_oracle(pairs, df, n_segments=6):
    """The stacked oracle on the pairs is the scalar one, pair by pair, or
    both raise the same error with the same message."""
    w1, w2 = _stack([a for a, _ in pairs]), _stack([b for _, b in pairs])
    want = _scalar_oracles(pairs, df, n_segments)
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as error:
            curve_oracles(w1, w2, df, n_segments)
        assert str(error.value) == want[1]
        return
    got = curve_oracles(w1, w2, df, n_segments)
    assert got.dtype == bool and got.tolist() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_stacked_predicate_on_seeded_draws(seed):
    rng = np.random.default_rng(seed)
    _assert_same_verdicts(list(random_product_pairs(rng, DIRAC, 40).pairs()), DIRAC)
    _assert_same_verdicts(list(related_product_pairs(rng, DIRAC, 20).pairs()), DIRAC)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(-192, 192),
    st.integers(-192, 192),
    st.integers(0, 128),
    st.sampled_from([1.0, -1.0]),
    st.floats(-0.9, 0.9),
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, 1e-12, 0.1, 2.0]),
    segments,
)
def test_stacked_predicate_on_dyadic_null_pairs(t, x, s, sign, lat, angle, turn, n):
    # dt == |dx| bitwise, a zero proper-time budget, and states equal or
    # turned at one event or at two
    p, q = Event(t / 64.0, x / 64.0), Event((t + s) / 64.0, (x + sign * s) / 64.0)
    s1, s2 = state_on_parallel(lat, angle), state_on_parallel(lat, angle + turn)
    pairs = [
        (ProductState(p, s1), ProductState(q, s2)),
        (ProductState(q, s1), ProductState(p, s1)),
        (ProductState(p, s1), ProductState(p, s1)),
        (ProductState(p, s1), ProductState(p, s2)),
    ]
    _assert_same_verdicts(pairs, DIRAC)
    _assert_same_oracle(pairs, DIRAC, n)


def _bloch_state(x, y, z):
    """A state given by its Bloch coordinates alone, which are all that the
    predicate reads."""
    return InternalState(1 + 0j, 0j, (x, y, z))


def _nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


pole = st.builds(
    lambda sign, ulps: sign * _nudged(1.0 - POLE_TOL, ulps),
    st.sampled_from([1.0, -1.0]),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pole, pole, st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), small, small)
def test_stacked_predicate_at_the_pole_threshold(z1, z2, th1, th2, dt, dx):
    p, q = Event(0.0, 0.0), Event(abs(dt) + abs(dx), dx)
    pairs = []
    for za, zb in ((z1, z2), (z1, z1), (1.0, z2), (-1.0, -1.0)):
        ra, rb = math.sqrt(1.0 - za * za), math.sqrt(1.0 - zb * zb)
        a = _bloch_state(ra * math.cos(th1), ra * math.sin(th1), za)
        b = _bloch_state(rb * math.cos(th2), rb * math.sin(th2), zb)
        pairs += [
            (ProductState(p, a), ProductState(q, b)),
            (ProductState(p, a), ProductState(p, b)),
        ]
    _assert_same_verdicts(pairs, DIRAC)
    _assert_same_oracle(pairs, DIRAC)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.sampled_from([1.0, -1.0]), st.floats(-math.pi, math.pi), small)
def test_stacked_predicate_at_the_latitude_threshold(ulps, sign, angle, dt):
    # the gap |0 - z| is z itself: LATITUDE_TOL moved by a few ulps
    z = sign * _nudged(LATITUDE_TOL, ulps)
    p, q = Event(0.0, 0.0), Event(abs(dt), 0.0)
    a = _bloch_state(1.0, 0.0, 0.0)
    b = _bloch_state(math.cos(angle), math.sin(angle), z)
    _assert_same_verdicts([(ProductState(p, a), ProductState(q, b))], DIRAC)
    _assert_same_oracle([(ProductState(p, a), ProductState(q, b))], DIRAC)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3 * 2**20), st.integers(-6, 6), st.sampled_from([1.0, -1.0]))
def test_stacked_predicate_at_the_speed_threshold(steps, ulps, sign):
    # a dyadic proper time tau = steps / 2**20 below pi, taken exactly, and
    # a turn within a few ulps of tau + SPEED_SLACK
    tau = steps / 2.0**20
    turn = sign * _nudged(tau + SPEED_SLACK, ulps)
    p, q = Event(0.0, 0.0), Event(tau, 0.0)
    a = _bloch_state(1.0, 0.0, 0.0)
    b = _bloch_state(math.cos(turn), math.sin(turn), 0.0)
    _assert_same_verdicts([(ProductState(p, a), ProductState(q, b))], UNIT_GAP)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(huge, huge, huge, huge), min_size=1, max_size=4), st.floats(-0.9, 0.9))
def test_stacked_predicate_far_from_the_origin(rows, lat):
    # squares and differences that overflow take the rescaled path, and a
    # budget beyond the double range raises as the scalar forms do
    s = state_on_parallel(lat, 0.4)
    pairs = [(ProductState(Event(a, b), s), ProductState(Event(c, d), s)) for a, b, c, d in rows]
    _assert_same_verdicts(pairs, DIRAC)
    _assert_same_oracle(pairs, DIRAC)


def test_stacked_predicate_on_overflowing_differences():
    s1, s2 = state_on_parallel(0.2, 0.1), state_on_parallel(0.2, 3.0)
    pairs = [
        (ProductState(Event(a, b), s1), ProductState(Event(c, d), s))
        for a, b, c, d in OVERFLOWING
        for s in (s1, s2)
    ]
    _assert_same_verdicts(pairs, DIRAC)
    _assert_same_oracle(pairs, DIRAC)


def test_stacked_verdicts_broadcast_one_state_over_a_stack():
    shared = state_on_parallel(0.3, 0.7)
    t = np.array([0.0, 1.0, 2.0])
    got = causal_verdicts(
        ProductStates((0.0, 0.0), shared.bloch),
        ProductStates((t, np.zeros(3)), shared.bloch),
        DIRAC,
    )
    assert got.related.tolist() == [True, True, True]
    assert got.latitude_gap.shape == got.delta_theta.shape == (3,)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((DIRAC, *BENCHMARK_DIRACS)))
def test_stacked_oracle_on_seeded_draws(seed, df):
    rng = np.random.default_rng(seed)
    for stack in (random_product_pairs(rng, df, 300), related_product_pairs(rng, df, 100)):
        want = [curve_oracle(a, b, df) for a, b in stack.pairs()]
        assert curve_oracles(*stack.states(), df).tolist() == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.integers(1, 16),
    st.sampled_from([1.0, -1.0]),
    st.floats(-0.9, 0.9),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
    segments,
)
def test_stacked_oracle_near_the_light_cone(t, x, dt, k, sign, lat, angle, share, n):
    # |dx| / dt = 1 - 10**-k: pieces of the chord that rounding puts outside
    # the cone, and turns that take a share of the budget or cross it
    p, q = Event(t, x), Event(t + dt, x + sign * dt * (1.0 - 10.0**-k))
    s1 = state_on_parallel(lat, angle)
    budget = lorentzian_distance(p, q)
    pairs = [
        (ProductState(p, s1), ProductState(q, state_on_parallel(lat, angle + c * budget)))
        for c in (share, 1.0, 1.0 + share)
    ]
    _assert_same_oracle(pairs, UNIT_GAP, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 3 * 2**20),
    st.integers(-6, 6),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([1.0, -1.0]),
    segments,
)
def test_stacked_oracle_in_the_slack_band(steps, ulps, band, sign, n):
    # a dyadic proper time tau below pi, and a turn a few ulps from tau,
    # from tau + ORACLE_SLACK, or inside the band between them
    tau = steps / 2.0**20
    turn = sign * _nudged(tau + band * ORACLE_SLACK, ulps)
    p, q = Event(0.0, 0.0), Event(tau, 0.0)
    a = _bloch_state(1.0, 0.0, 0.0)
    b = _bloch_state(math.cos(turn), math.sin(turn), 0.0)
    _assert_same_oracle([(ProductState(p, a), ProductState(q, b))], UNIT_GAP, n)


far = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.integers(5, 300),
    st.floats(1.0, 9.99),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(far, far, far, far), min_size=1, max_size=4),
    st.tuples(far, far, small, small),
    st.floats(-0.9, 0.9),
    st.floats(0.0, 1.0),
    segments,
)
def test_stacked_oracle_far_from_the_origin(rows, nearby, lat, turn, n):
    # events 1e5 to 1e300 from the origin: squares and vertices that take
    # the rescaled path, and a short causal step away from a far event
    s1, s2 = state_on_parallel(lat, 0.4), state_on_parallel(lat, 0.4 + turn)
    t, x, dt, dx = nearby
    rows = [*rows, (t, x, t + abs(dt) + abs(dx), x + dx)]
    pairs = [
        (ProductState(Event(a, b), s1), ProductState(Event(c, d), s))
        for a, b, c, d in rows
        for s in (s1, s2)
    ]
    _assert_same_oracle(pairs, DIRAC, n)


def test_stacked_oracle_on_chords_with_empty_pieces():
    # one ulp of t is 2 at 1e16: vertices of the six-piece chord round onto
    # each other, so the chord falls back to [p, q], which is lifted
    s1, s2 = state_on_parallel(0.2, 0.1), state_on_parallel(0.2, 1.1)
    events = [
        (Event(1e16, 0.0), Event(1e16 + 4.0, 0.0)),
        (Event(1e16, 1e16), Event(1e16 + 8.0, 1e16 + 2.0)),
    ]
    pairs = [(ProductState(p, s1), ProductState(q, s)) for p, q in events for s in (s1, s2)]
    _assert_same_oracle(pairs, DIRAC)


def test_stacked_oracle_raises_the_first_overflow_in_flat_order():
    # proper times 2e308 and 3e308 between states on one parallel; the same
    # overflowing pair off the parallel is answered False, as the scalar does
    s, off = state_on_parallel(0.2, 0.1), state_on_parallel(0.5, 0.1)
    pairs = [
        (ProductState(Event(0.0, 0.0), s), ProductState(Event(1.0, 0.0), s)),
        (ProductState(Event(-1.5e308, 0.0), s), ProductState(Event(1.5e308, 0.0), off)),
        (ProductState(Event(-1e308, 0.0), s), ProductState(Event(1e308, 0.0), s)),
        (ProductState(Event(-1.5e308, 0.0), s), ProductState(Event(1.5e308, 0.0), s)),
    ]
    with pytest.raises(CoordinateOverflow) as scalar:
        curve_oracle(*pairs[2], DIRAC)
    with pytest.raises(CoordinateOverflow) as stacked:
        curve_oracles(_stack([a for a, _ in pairs]), _stack([b for _, b in pairs]), DIRAC)
    assert str(stacked.value) == str(scalar.value)
    assert curve_oracles(_stack([pairs[1][0]]), _stack([pairs[1][1]]), DIRAC).tolist() == [False]


def test_stacked_oracle_broadcasts_one_state_over_a_stack():
    shared = state_on_parallel(0.3, 0.7)
    t = np.array([[0.0, 1.0, 2.0], [0.5, -1.0, 3.0]])
    got = curve_oracles(
        ProductStates((0.0, 0.0), shared.bloch),
        ProductStates((t, np.zeros_like(t)), shared.bloch),
        DIRAC,
    )
    assert got.shape == (2, 3)
    assert got.tolist() == [[True, True, True], [True, False, True]]


@pytest.mark.parametrize("n", [0, -1, 2.5, 6.0, True, "6"])
def test_stacked_oracle_rejects_a_segment_count_whatever_the_pairs(n):
    shared = state_on_parallel(0.3, 0.7)
    for q in ((1.0, 0.0), (0.0, 1.0), (np.array([]), np.array([]))):
        with pytest.raises(ValueError, match="n_segments"):
            curve_oracles(
                ProductStates((0.0, 0.0), shared.bloch), ProductStates(q, shared.bloch), DIRAC, n
            )
