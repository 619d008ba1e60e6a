"""Product-state causal predicate, reachable arcs, curve oracle, operator
symbol, and the separating-element search.

Kronecker expectations are assembled from literal matrices in this file
(``reference_symbol`` is the independent oracle for the library's block
assembly), and the predicate is cross-checked against the curve oracle on
mixed random pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nccausal.verify as verify
from nccausal import (
    CausalElement,
    CoordinateOverflow,
    Event,
    FiniteDirac,
    Grid,
    GridTooSmall,
    LongitudeArc,
    NonCausalSegment,
    NotHermitian,
    NotRelatedReason,
    PoleState,
    ProductCurve,
    ProductState,
    ScalarField,
    causal_symbol,
    causally_precedes,
    causally_related,
    curve_oracle,
    ensure_hermitian,
    is_causal_function,
    latitude,
    make_state,
    minimal_angle_gap,
    product_symbol,
    reachable_grid,
    reachable_longitudes,
    separating_element_search,
    speed_bound,
    state_eval,
    state_on_parallel,
)
from nccausal.product_causality import (
    _GRADIENT_BLOCKS,
    _UNIT_GAP_BLOCKS,
    _boost_tanh_profile,
    _const_profile,
    _symbol_blocks,
)
from nccausal.scene import default_scene
from nccausal.spacetime import NSD_TOL
from nccausal.verify import cone_atoms, random_product_pair, related_product_pair

E = Event
I2 = np.eye(2, dtype=complex)
G0 = np.array([[1j, 0], [0, -1j]])
G1 = np.array([[0, 1], [1, 0]], dtype=complex)
GM = G0 @ G1
PAULI = (
    I2,
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
)
BETAS = (0.0, 0.75, -0.75, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)


def equator(theta):
    return state_on_parallel(0.0, theta)


def reference_symbol(a, at, ax, df):
    """j[D, a] multiplied out from literal Kronecker products:
    (i g0 (x) I)(-i g0 (x) da/dt - i g1 (x) da/dx + gm (x) [D, a])."""
    d = df.matrix()
    return np.kron(1j * G0, I2) @ (
        np.kron(-1j * G0, at) + np.kron(-1j * G1, ax) + np.kron(GM, d @ a - a @ d)
    )


def bump_profile(tc, xc, width):
    """A Gaussian bump centred at (tc, xc): a scalar field that is not causal,
    since it falls toward the future of its centre."""
    w2 = width * width

    def jet(t, x):
        dt = t - tc
        dx = x - xc
        u = np.exp(-(dt * dt + dx * dx) / (2.0 * w2))
        return u, -dt / w2 * u, -dx / w2 * u

    return ScalarField(jet, f"bump[{tc:g},{xc:g};{width:g}]")


def dictionary_profiles(p, q):
    """The library's profiles centred at the midpoint of p and q, the constant
    and tanh of the time coordinate boosted by each rapidity of BETAS, and
    two Gaussian bumps of widths the separation (at least 1) and half of it."""
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    width = max(math.hypot(q.t - p.t, q.x - p.x), 1.0)
    return (
        (_const_profile(),)
        + tuple(_boost_tanh_profile(b, tc, xc) for b in BETAS)
        + (bump_profile(tc, xc, width), bump_profile(tc, xc, 0.5 * width))
    )


def reference_jets(p, q):
    """The profiles of ``dictionary_profiles(p, q)`` written out with math.tanh
    and math.exp, each mapping (t, x) to (u, du/dt, du/dx): the constant,
    tanh of the time coordinate boosted by each rapidity of BETAS, and two
    Gaussian bumps, all centred at the midpoint of p and q."""
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    width = max(math.hypot(q.t - p.t, q.x - p.x), 1.0)

    def tanh_boost(beta):
        ch, sh = math.cosh(beta), math.sinh(beta)

        def jet(t, x):
            u = math.tanh(ch * (t - tc) + sh * (x - xc))
            return u, (1.0 - u * u) * ch, (1.0 - u * u) * sh

        return jet

    def bump(w):
        def jet(t, x):
            u = math.exp(-((t - tc) ** 2 + (x - xc) ** 2) / (2.0 * w * w))
            return u, -(t - tc) / (w * w) * u, -(x - xc) / (w * w) * u

        return jet

    return (
        [lambda t, x: (1.0, 0.0, 0.0)]
        + [tanh_boost(b) for b in BETAS]
        + [bump(width), bump(0.5 * width)]
    )


def kronecker_blocks(df):
    """The twelve symbol blocks of the Pauli basis built for one operator from
    literal Kronecker products and symmetrized: -i g1 (x) [D, H_j] for a,
    -I (x) H_j for da/dt and gm (x) H_j for da/dx."""
    d = df.matrix()
    blocks = [
        [np.kron(-1j * G1, d @ h - h @ d) for h in PAULI],
        [-np.kron(I2, h) for h in PAULI],
        [np.kron(GM, h) for h in PAULI],
    ]
    return ensure_hermitian(np.array(blocks))


def same_bits(a, b):
    """Equal arrays whose zero parts also carry the same signs."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def random_hermitian(rng, size=()):
    diag = rng.uniform(-2, 2, size + (2,))
    off = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)
    m = np.zeros(size + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = diag[..., 0], diag[..., 1]
    m[..., 1, 0], m[..., 0, 1] = off, off.conj()
    return m


def test_speed_bound_examples():
    assert speed_bound(FiniteDirac(1.0, 2.0)) == 1.0
    assert speed_bound(FiniteDirac(0.0, 1.0)) == 1.0
    assert speed_bound(FiniteDirac(-3.0, 3.0)) == 6.0


def test_minimal_angle_gap_wraps():
    assert minimal_angle_gap(0.0, 0.0) == 0.0
    assert math.isclose(minimal_angle_gap(-3.0, 3.0), 2 * math.pi - 6.0, abs_tol=1e-15)
    assert math.isclose(minimal_angle_gap(0.1, 2 * math.pi + 0.4), 0.3, abs_tol=1e-12)
    assert minimal_angle_gap(0.0, math.pi) <= math.pi


def test_product_symbol_constant_scalar_vanishes():
    df = FiniteDirac(1.0, 2.0)
    sym = product_symbol(3.0 * I2, 0.0 * I2, 0.0 * I2, df)
    assert np.max(np.abs(sym)) == 0.0


def test_product_symbol_time_slope_is_minus_identity():
    # oracle: kron assembly from the literal basis, da/dt = I
    df = FiniteDirac(1.0, 2.0)
    oracle = np.kron(1j * G0, I2) @ np.kron(-1j * G0, I2)
    assert np.max(np.abs(oracle + np.eye(4))) == 0.0
    sym = product_symbol(0.0 * I2, I2, 0.0 * I2, df)
    assert np.max(np.abs(sym + np.eye(4))) <= 1e-14
    assert np.linalg.eigvalsh(sym)[-1] <= 1e-9


def test_product_symbol_reduces_to_scalar_symbol():
    df = FiniteDirac(0.5, -1.0)
    rng = np.random.default_rng(21)
    for _ in range(50):
        dft, dfx, val = rng.uniform(-2, 2, 3)
        sym = product_symbol(val * I2, dft * I2, dfx * I2, df)
        reduced = np.kron(causal_symbol(dft, dfx), I2)
        assert np.max(np.abs(sym - reduced)) <= 1e-12


def test_product_symbol_commutator_term_is_hermitian():
    df = FiniteDirac(0.0, 2.0)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sym = product_symbol(sx, 0.0 * I2, 0.0 * I2, df)
    assert np.max(np.abs(sym - sym.conj().T)) <= 1e-14
    # oracle: [D, sx] is anti-Hermitian, and kron(-i g1, comm) flips it Hermitian
    comm = df.matrix() @ sx - sx @ df.matrix()
    assert np.max(np.abs(comm + comm.conj().T)) == 0.0
    oracle = np.kron(-1j * G1, comm)
    assert np.max(np.abs(sym - oracle)) <= 1e-14


@pytest.mark.parametrize("df", [FiniteDirac(1.0, 2.0), FiniteDirac(0.5, -1.5)])
def test_product_symbol_matches_kronecker_reference(df):
    rng = np.random.default_rng(25)
    for _ in range(200):
        a, at, ax = (random_hermitian(rng) for _ in range(3))
        sym = product_symbol(a, at, ax, df)
        assert np.max(np.abs(sym - reference_symbol(a, at, ax, df))) <= 1e-12


def test_product_symbol_stack_matches_single_calls():
    df = FiniteDirac(1.0, 2.0)
    rng = np.random.default_rng(26)
    a, at, ax = (random_hermitian(rng, (7,)) for _ in range(3))
    stack = product_symbol(a, at, ax, df)
    assert stack.shape == (7, 4, 4)
    for i in range(7):
        single = product_symbol(a[i], at[i], ax[i], df)
        assert np.array_equal(stack[i], single)
        assert np.max(np.abs(single - reference_symbol(a[i], at[i], ax[i], df))) <= 1e-12


def test_symbol_blocks_match_the_kronecker_construction_bit_for_bit():
    # the default scene's and both benchmark operators, both signs of the
    # gap d1 - d2, and random operators over twelve decades
    rng = np.random.default_rng(30)
    pairs = [(0.0, 1.0), (1.0, 0.0), (0.5, 3.0), (3.0, 0.5), (0.5, -1.5), (-2.0, -7.25)]
    pairs += [tuple(rng.standard_normal(2) * 10.0 ** rng.uniform(-6, 6, 2)) for _ in range(200)]
    for d1, d2 in pairs:
        df = FiniteDirac(float(d1), float(d2))
        assert same_bits(_symbol_blocks(df), kronecker_blocks(df)), df


def test_symbol_block_constants_are_read_only():
    for blocks in (_UNIT_GAP_BLOCKS, _GRADIENT_BLOCKS):
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0


def test_eval_state_is_state_eval_of_the_element_value():
    # oracle: the state's value on the matrix u(t, x) H; bit for bit on the
    # signed unit Pauli vectors, the only ones the library builds, and within
    # 4 ulps of the terms' scale on random ones
    rng = np.random.default_rng(31)
    profiles = dictionary_profiles(E(0, 0), E(2, 0.5))
    units = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)]
    eps = np.finfo(float).eps
    for n in range(300):
        internal = (
            state_on_parallel(rng.uniform(-1, 1), rng.uniform(-4, 4))
            if n % 2
            else make_state(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        )
        w = ProductState(E(*rng.uniform(-4, 4, 2)), internal)
        profile = profiles[rng.integers(len(profiles))]
        u = profile.jet(w.event.t, w.event.x)[0]
        for pauli in units + [rng.uniform(-3, 3, 4)]:
            got = CausalElement(profile, pauli).eval_state(w)
            want = state_eval(w.internal, u * np.tensordot(pauli, np.array(PAULI), 1))
            x, y, z = w.internal.bloch
            scale = abs(u) * np.dot(np.abs(pauli), np.abs([1.0, z, x, y]))
            assert abs(got - want) <= 4 * eps * scale
            if np.count_nonzero(pauli) == 1:
                assert got.hex() == float(want).hex(), (pauli, w)


def test_max_symbol_eigenvalue_matches_per_event_reference():
    df = FiniteDirac(1.0, 2.0)
    rng = np.random.default_rng(27)
    p, q = E(0, 0), E(2, 0.5)
    profiles = dictionary_profiles(p, q)
    jets = reference_jets(p, q)
    assert len(profiles) == len(jets)
    grid = Grid(-3.0, 5.0, -3.0, 3.5, 9, 9)
    for profile, jet in zip(profiles, jets):
        for _ in range(2):
            element = CausalElement(profile, rng.uniform(-1, 1, len(PAULI)))
            h = sum(c * m for c, m in zip(element.pauli, PAULI))
            worst = -math.inf
            for e in grid.events():
                u, ut, ux = jet(e.t, e.x)
                sym = reference_symbol(u * h, ut * h, ux * h, df)
                worst = max(worst, float(np.linalg.eigvalsh(sym)[-1]))
            assert abs(element.max_symbol_eigenvalue(grid, df) - worst) <= 1e-12


def test_tabulated_profiles_match_their_reference_and_differences():
    rng = np.random.default_rng(28)
    p, q = E(-0.4, 0.3), E(1.7, -0.6)
    t, x = rng.uniform(-4, 4, (2, 200))
    h = 1e-6
    for profile, jet in zip(dictionary_profiles(p, q), reference_jets(p, q), strict=True):
        table = np.array(profile.jet(t, x))
        assert table.shape == (3, 200)
        want = np.array([jet(a, b) for a, b in zip(t, x)]).T
        assert np.max(np.abs(table - want)) <= 1e-12
        # the tabulated gradient is the derivative of the tabulated value
        value = [
            profile.jet(t + dt, x + dx)[0]
            for dt, dx in ((h, 0), (-h, 0), (0, h), (0, -h))
        ]
        assert np.max(np.abs((value[0] - value[1]) / (2 * h) - table[1])) <= 1e-7
        assert np.max(np.abs((value[2] - value[3]) / (2 * h) - table[2])) <= 1e-7


def test_dictionary_profiles_are_scalar_fields():
    # on the search grid the constant and every boosted tanh profile are
    # causal and both bumps are not; every profile's gradient passes the
    # finite-difference check, which would raise otherwise
    rng = np.random.default_rng(32)
    df = FiniteDirac(1.0, 2.0)
    pairs = [(E(-0.4, 0.3), E(1.7, -0.6))]
    pairs += [tuple(w.event for w in random_product_pair(rng, df)) for _ in range(6)]
    for p, q in pairs:
        sep = math.hypot(q.t - p.t, q.x - p.x)
        grid = Grid.covering(p, q, margin=sep + 1.0, n_t=13, n_x=13)
        profiles = dictionary_profiles(p, q)
        names = [f.name.partition("[")[0] for f in profiles]
        verdicts = [is_causal_function(f, grid) for f in profiles]
        assert names == ["const"] + ["tanh_boost"] * len(BETAS) + ["bump"] * 2
        assert verdicts == [True] * (1 + len(BETAS)) + [False] * 2, (p, q)


def test_constant_profile_gives_floats_on_floats_and_arrays_on_arrays():
    jet = _const_profile().jet
    values = jet(0.25, -1.5)
    assert values == (1.0, 0.0, 0.0) and all(type(v) is float for v in values)
    assert not any(math.copysign(1.0, v) < 0.0 for v in values)
    t = np.array([[-0.0, 2.0], [1e300, -3.0]])
    u, ut, ux = jet(t, -t)
    for v, want in ((u, 1.0), (ut, 0.0), (ux, 0.0)):
        assert v.shape == t.shape and v.dtype == float and (v == want).all()
        assert not np.signbit(v).any()


def test_product_symbol_rejects_non_hermitian_input():
    df = FiniteDirac(0.0, 1.0)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        product_symbol(bad, I2, I2, df)


def test_causally_related_reflexive():
    df = FiniteDirac(1.0, 2.0)
    w = ProductState(E(0.3, -1.2), state_on_parallel(0.4, 2.0))
    assert causally_related(w, w, df).related


def test_causally_related_speed_example():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    ok = causally_related(w1, ProductState(E(2, 0), equator(1.5)), df)
    assert ok.related
    assert math.isclose(ok.delta_theta, 1.5)
    assert math.isclose(ok.theta_budget, 2.0)
    assert math.isclose(ok.speed_margin, 0.5)

    too_fast = causally_related(w1, ProductState(E(2, 0), equator(math.pi)), df)
    assert not too_fast.related
    assert too_fast.reason is NotRelatedReason.SPEED_LIMIT_EXCEEDED


def test_causally_related_failure_reasons_in_order():
    df = FiniteDirac(0.0, 1.0)
    base_fail = causally_related(
        ProductState(E(0, 0), equator(0.0)),
        ProductState(E(0, 1), state_on_parallel(0.5, math.pi)),
        df,
    )
    assert base_fail.reason is NotRelatedReason.BASE_NOT_CAUSAL

    lat_fail = causally_related(
        ProductState(E(0, 0), equator(0.0)),
        ProductState(E(3, 0), state_on_parallel(0.5, math.pi)),
        df,
    )
    assert lat_fail.reason is NotRelatedReason.LATITUDE_MISMATCH


def test_causally_related_pole_pairs():
    df = FiniteDirac(0.0, 1.0)
    north = make_state([1.0, 0.0])
    south = make_state([0.0, 1.0])
    same_pole = causally_related(
        ProductState(E(0, 0), north), ProductState(E(1, 0), north), df
    )
    assert same_pole.related
    assert same_pole.delta_theta is None

    opposite = causally_related(
        ProductState(E(0, 0), north), ProductState(E(1, 0), south), df
    )
    assert not opposite.related
    assert opposite.reason is NotRelatedReason.LATITUDE_MISMATCH

    past_pole = causally_related(
        ProductState(E(1, 0), north), ProductState(E(0, 0), north), df
    )
    assert past_pole.reason is NotRelatedReason.BASE_NOT_CAUSAL


def test_lightlike_rigidity_of_internal_state():
    df = FiniteDirac(1.0, 2.5)
    s = state_on_parallel(-0.2, 0.9)
    same = causally_related(
        ProductState(E(0, 0), s), ProductState(E(2, 2), s), df
    )
    assert same.related
    moved = causally_related(
        ProductState(E(0, 0), s),
        ProductState(E(2, 2), state_on_parallel(-0.2, 1.1)),
        df,
    )
    assert not moved.related
    assert moved.reason is NotRelatedReason.SPEED_LIMIT_EXCEEDED


def test_restriction_to_base_order():
    df = FiniteDirac(0.0, 1.0)
    s = state_on_parallel(0.3, 0.7)
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = E(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        q = E(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        got = causally_related(ProductState(p, s), ProductState(q, s), df).related
        assert got == causally_precedes(p, q)


def test_reachable_longitudes_spacelike_is_empty():
    df = FiniteDirac(0.0, 1.0)
    w = ProductState(E(0, 0), equator(0.3))
    assert reachable_longitudes(w, E(0, 1), df).kind == "empty"


def test_reachable_longitudes_full_circle_at_pi_budget():
    df = FiniteDirac(0.0, 1.0)
    w = ProductState(E(0, 0), equator(0.3))
    arc = reachable_longitudes(w, E(math.pi, 0), df)
    assert arc.kind == "full"
    assert arc.contains(-3.0) and arc.contains(2.0)


def test_reachable_longitudes_lightcone_pins_the_angle():
    df = FiniteDirac(0.0, 1.0)
    w = ProductState(E(0, 0), equator(0.3))
    arc = reachable_longitudes(w, E(1, 1), df)
    assert arc.kind == "arc"
    assert arc.half_width == 0.0
    assert arc.contains(0.3)
    assert not arc.contains(0.35)


def test_reachable_longitudes_pole_raises():
    df = FiniteDirac(0.0, 1.0)
    w = ProductState(E(0, 0), make_state([1.0, 0.0]))
    with pytest.raises(PoleState):
        reachable_longitudes(w, E(1, 0), df)
    with pytest.raises(PoleState):
        reachable_grid(w, Grid(0.0, 1.0, 0.0, 1.0, 2, 2), df)


def _reachable_oracle(w, grid, df):
    """reachable_longitudes event by event, t-major, in the layout of
    reachable_grid."""
    arcs = [reachable_longitudes(w, e, df) for e in grid.events()]
    flags = {"empty": 0, "arc": 1, "full": 2}
    return (
        [a.theta_min for a in arcs],
        [a.theta_max for a in arcs],
        [flags[a.kind] for a in arcs],
    )


def _reachable_cases(rng):
    """(source event, grid) pairs covering every branch of the closed form."""
    cases = [(E(0.0, 0.0), Grid(0.0, 2.0, -2.0, 2.0, 5, 9))]  # rows on the light cone
    for _ in range(8):  # rows within a few ulps of it
        p = E(*rng.uniform(-3.0, 3.0, 2))
        t = p.t + rng.uniform(0.1, 5.0)
        x = p.x + rng.choice((-1.0, 1.0)) * (t - p.t)
        cases.append((p, Grid(t, t, x - 4 * math.ulp(x), x + 4 * math.ulp(x), 1, 9)))
    for _ in range(10):  # empty rows, arcs and full circles
        p = E(*rng.uniform(-3.0, 3.0, 2))
        t_max = p.t + rng.uniform(1.0, 8.0)
        cases.append((p, Grid(p.t - 1.0, t_max, p.x - 4.0, p.x + 4.0, 13, 17)))
    # squared intervals overflow, distances do not
    cases.append((E(-1e200, 3e199), Grid(1e200, 3e200, -2e200, 2e200, 5, 9)))
    # both differences overflow
    cases.append((E(-1e308, -1e308), Grid(0.9e308, 1e308, 0.9e308, 1e308, 5, 5)))
    return cases


@pytest.mark.parametrize("gap", [1.0, 2.5])
def test_reachable_grid_matches_the_scalar_arcs_bit_for_bit(gap):
    rng = np.random.default_rng(20141)
    df = FiniteDirac(0.0, gap)
    flags = set()
    for p, grid in _reachable_cases(rng):
        w = ProductState(p, state_on_parallel(rng.uniform(-0.9, 0.9), rng.uniform(-3.0, 3.0)))
        got = [a.tolist() for a in reachable_grid(w, grid, df)]
        assert got == list(_reachable_oracle(w, grid, df)), (p, grid)
        flags.update(got[2])
    assert flags == {0, 1, 2}


def test_reachable_grid_raises_the_first_scalar_overflow():
    # distances 1.7e308 (rescaled), 2.55e308 and 3.4e308 (both overflow) by row
    df = FiniteDirac(0.0, 1.0)
    w = ProductState(E(-1.7e308, 0.0), equator(0.3))
    grid = Grid(0.0, 1.7e308, -1.0, 1.0, 3, 3)
    with pytest.raises(CoordinateOverflow) as scalar:
        _reachable_oracle(w, grid, df)
    with pytest.raises(CoordinateOverflow) as array:
        reachable_grid(w, grid, df)
    assert str(array.value) == str(scalar.value)


def test_longitude_arc_window():
    arc = LongitudeArc.partial(center=3.0, half_width=0.5)
    assert arc.contains(3.4)
    assert arc.contains(-2.9)  # wraps past pi
    assert not arc.contains(0.0)


def test_product_curve_validation():
    df = FiniteDirac(0.0, 2.0)
    good = ProductCurve(((E(0, 0), 0.0), (E(1, 0), 1.9), (E(2, 0), 3.8)))
    good.validate(df)  # |dtheta| = 1.9 <= 2 * 1 per segment
    bad = ProductCurve(((E(0, 0), 0.0), (E(1, 0), 2.5)))
    with pytest.raises(NonCausalSegment):
        bad.validate(df)
    bad_base = ProductCurve(((E(0, 0), 0.0), (E(0.5, 1.0), 0.1)))
    with pytest.raises(NonCausalSegment):
        bad_base.validate(df)


def test_overflowing_interval_in_the_product_layer():
    """Events whose squared interval overflows: about 4.36e307 of proper
    time, far more than any angle needs."""
    df = FiniteDirac(0.0, 1.0)
    p, q = E(0.0, 0.0), E(1e308, 0.9e308)
    w1 = ProductState(p, state_on_parallel(0.2, 0.1))
    w2 = ProductState(q, state_on_parallel(0.2, 3.0))
    arc = reachable_longitudes(w1, q, df)
    assert arc.kind == "full" and arc.half_width == math.pi
    verdict = causally_related(w1, w2, df)
    assert verdict.related
    assert verdict.theta_budget == pytest.approx(math.sqrt(0.19) * 1e308, rel=1e-14)
    assert curve_oracle(w1, w2, df, n_segments=3)
    far = E(-1e308, 0.0), E(1e308, 0.0)
    with pytest.raises(CoordinateOverflow):
        causally_related(ProductState(far[0], w1.internal), ProductState(far[1], w2.internal), df)


def test_product_curve_validates_overflowing_segments():
    df = FiniteDirac(0.0, 1.0)
    start, end = E(0.0, 0.0), E(1e200, 0.5e200)
    ProductCurve(((start, 0.0), (end, 3.0))).validate(df)
    with pytest.raises(NonCausalSegment):
        ProductCurve(((start, 0.0), (end, 1e300))).validate(df)


def test_curve_oracle_trivial_and_speed_cases():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    assert curve_oracle(w1, w1, df)
    assert curve_oracle(w1, ProductState(E(2, 0), equator(1.5)), df)
    assert not curve_oracle(w1, ProductState(E(2, 0), equator(math.pi)), df)
    assert not curve_oracle(w1, ProductState(E(0, 1), equator(0.0)), df)
    assert not curve_oracle(
        w1, ProductState(E(2, 0), state_on_parallel(0.5, 0.0)), df
    )


@pytest.mark.parametrize("n", [0, -1, 2.5, 6.0, False, "6"])
def test_curve_oracle_rejects_a_segment_count_whatever_the_pair(n):
    # a related pair, a base failure, a latitude failure and a pole pair
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    for w2 in (
        ProductState(E(2, 0), equator(0.5)),
        ProductState(E(0, 1), equator(0.0)),
        ProductState(E(2, 0), state_on_parallel(0.5, 0.0)),
    ):
        with pytest.raises(ValueError, match="n_segments"):
            curve_oracle(w1, w2, df, n_segments=n)
    north = ProductState(E(0, 0), state_on_parallel(1.0, 0.0))
    with pytest.raises(ValueError, match="n_segments"):
        curve_oracle(north, north, df, n_segments=n)


def test_curve_oracle_borderline_within_slack():
    df = FiniteDirac(0.0, 1.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    w2 = ProductState(E(2, 0), equator(2.0))  # budget exactly 2.0
    assert curve_oracle(w1, w2, df)


def test_curve_oracle_uses_minimal_arc_winding():
    df = FiniteDirac(0.0, 1.0)
    # longitudes 3.0 and -3.0: minimal arc 2*pi - 6 ~ 0.283, direct gap 6.0
    w1 = ProductState(E(0, 0), equator(3.0))
    w2 = ProductState(E(0.5, 0), equator(-3.0))
    assert minimal_angle_gap(3.0, -3.0) < 0.5 * speed_bound(df)
    assert curve_oracle(w1, w2, df)
    assert causally_related(w1, w2, df).related


def test_curve_oracle_near_the_light_cone():
    # rounding puts pieces of the six-piece chord just outside the cone; the
    # oracle still lifts a valid curve and agrees with the predicate
    df = FiniteDirac(1.0, 2.0)
    state = equator(0.3)
    w1 = ProductState(E(1.879621435201635, 2.47653346366633), state)
    w2 = ProductState(E(3.7388651849264565, 4.33577721339115), state)
    assert causally_related(w1, w2, df).related
    assert curve_oracle(w1, w2, df, n_segments=6)


def test_curve_oracle_agrees_with_predicate():
    df = FiniteDirac(1.0, 2.0)
    rng = np.random.default_rng(23)
    compared = 0
    for _ in range(150):
        w1, w2 = random_product_pair(rng, df)
        verdict = causally_related(w1, w2, df)
        if (
            verdict.base_causal
            and verdict.delta_theta is not None
            and abs(verdict.delta_theta - verdict.theta_budget) < 1e-3
        ):
            continue
        compared += 1
        assert verdict.related == curve_oracle(w1, w2, df, n_segments=6)
    assert compared > 100


def test_separating_search_latitude_witness():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), state_on_parallel(0.6, 0.2))
    w2 = ProductState(E(2, 0), state_on_parallel(0.1, 0.2))
    witness = separating_element_search(w1, w2, df)
    assert witness is not None
    gap = witness.eval_state(w2) - witness.eval_state(w1)
    assert gap < -1e-6
    # re-certify on a twice finer grid
    sep = math.hypot(2.0, 0.0)
    grid = Grid.covering(w1.event, w2.event, margin=sep + 1.0, n_t=13, n_x=13)
    assert witness.is_certified(grid.refined(2), df)


def test_separating_search_spacelike_witness():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    w2 = ProductState(E(0.3, 1.5), equator(0.0))
    witness = separating_element_search(w1, w2, df)
    assert witness is not None
    assert witness.eval_state(w2) - witness.eval_state(w1) < -1e-6


def test_separating_search_past_directed_witness():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(1.0, 0), equator(0.0))
    w2 = ProductState(E(-1.0, 0), equator(0.0))
    witness = separating_element_search(w1, w2, df)
    assert witness is not None
    assert witness.eval_state(w2) - witness.eval_state(w1) < -1e-6


def test_separating_search_related_pair_finds_nothing():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    w2 = ProductState(E(2, 0), equator(1.5))
    assert separating_element_search(w1, w2, df) is None


def reference_atom_search(w1, w2, df):
    """Every signed atom of the monotonicity profiles, brute force: its gap
    w2(a) - w1(a) and the largest eigenvalue of its reference symbol over
    the 13x13 grid covering both events with margin their separation plus 1,
    as (k, sign, gap, lam) in (k, +/-) order.

    ``reference_symbol`` is linear in (a, da/dt, da/dx), so the symbol of
    u H at an event is u, du/dt and du/dx times its images of (H, 0, 0),
    (0, H, 0) and (0, 0, H)."""
    p, q = w1.event, w2.event
    sep = math.hypot(q.t - p.t, q.x - p.x)
    grid = Grid.covering(p, q, margin=sep + 1.0, n_t=13, n_x=13)
    zero = np.zeros((2, 2), dtype=complex)
    atoms = []
    for jet in reference_jets(p, q):
        jets = np.array([jet(e.t, e.x) for e in grid.events()])
        u_p, u_q = jet(p.t, p.x)[0], jet(q.t, q.x)[0]
        for h in PAULI:
            images = np.array(
                [
                    reference_symbol(h, zero, zero, df),
                    reference_symbol(zero, h, zero, df),
                    reference_symbol(zero, zero, h, df),
                ]
            )
            eig = np.linalg.eigvalsh(np.einsum("er,rab->eab", jets, images))
            gap = u_q * state_eval(w2.internal, h) - u_p * state_eval(w1.internal, h)
            k = len(atoms) // 2
            atoms.append((k, 1.0, gap, float(np.max(eig[:, -1]))))
            atoms.append((k, -1.0, -gap, float(-np.min(eig[:, 0]))))
    return atoms


@pytest.mark.parametrize(
    "df, seed", [(FiniteDirac(1.0, 2.0), 29), (FiniteDirac(0.5, -1.5), 30)]
)
def test_separating_search_beats_the_best_reference_atom(df, seed):
    # base pairs: no +tanh_boost*id atom of BETAS separates them further;
    # latitude pairs: the gap is -|z1 - z2|, that of the best const +-sz atom;
    # speed and related pairs: no witness
    rng = np.random.default_rng(seed)
    wanted = {"latitude": 3, "base": 3, "speed": 3, "related": 3}
    while any(wanted.values()):
        if rng.uniform() < 0.3:
            w1, w2 = related_product_pair(rng, df)
        else:
            w1, w2 = random_product_pair(rng, df)
        reason = causally_related(w1, w2, df).reason
        kind = "related" if reason is None else reason.value
        if not wanted[kind]:
            continue
        wanted[kind] -= 1
        witness = separating_element_search(w1, w2, df)
        if kind in ("speed", "related"):
            assert witness is None, kind
            continue
        assert witness is not None, kind
        gap = witness.eval_state(w2) - witness.eval_state(w1)
        atoms = reference_atom_search(w1, w2, df)
        if kind == "base":
            # atom k is profile k // 4 times Pauli k % 4; profiles 1..9 are
            # the boosted tanh profiles
            tanh_id = [a[2] for a in atoms if a[1] > 0 and a[0] % 4 == 0
                       and 1 <= a[0] // 4 <= len(BETAS)]
            assert gap <= min(tanh_id) + 1e-12
        else:
            const_sz = [a[2] for a in atoms if a[0] == 1]
            zgap = abs(latitude(w1.internal) - latitude(w2.internal))
            assert abs(gap - min(const_sz)) <= 1e-12 and abs(gap + zgap) <= 1e-12


def test_separating_search_rejects_small_grid():
    df = FiniteDirac(1.0, 2.0)
    w1 = ProductState(E(0, 0), equator(0.0))
    w2 = ProductState(E(4, 0), equator(0.5))
    tight = Grid(-0.5, 4.5, -0.5, 0.5, 5, 5)
    with pytest.raises(GridTooSmall):
        separating_element_search(w1, w2, df, grid=tight)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, q", [
    (E(0.0, 0.0), E(1e300, 1e299)),  # their separation's square overflows
    (E(-1e308, 0.0), E(1e308, 0.0)),  # the separation overflows
    (E(1e308, 0.0), E(1.5e308, 0.0)),  # the sum of their coordinates overflows
])
def test_separating_search_far_apart_latitude_pairs(p, q):
    df = FiniteDirac(0.0, 1.0)
    w1 = ProductState(p, state_on_parallel(0.2, 0.1))
    w2 = ProductState(q, state_on_parallel(0.5, 0.1))
    witness = separating_element_search(w1, w2, df)
    assert witness.describe() == "-1*const*sz"
    assert witness.eval_state(w2) - witness.eval_state(w1) == pytest.approx(-0.3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, q", [
    (E(1e308, 0.0), E(-1e308, 0.0)),  # past-directed, the separation overflows
    (E(0.0, 0.0), E(1e300, 1e301)),  # spacelike, its square overflows
    (E(-1e308, -1e308), E(-1e308, 1e308)),  # spacelike, the separation overflows
])
def test_separating_search_far_apart_base_pairs(p, q):
    df = FiniteDirac(0.0, 1.0)
    w1 = ProductState(p, state_on_parallel(0.2, 0.1))
    w2 = ProductState(q, state_on_parallel(0.2, 0.1))
    witness = separating_element_search(w1, w2, df)
    assert witness.describe().startswith("+1*tanh_boost[")
    assert witness.eval_state(w2) - witness.eval_state(w1) == pytest.approx(-2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, q", [
    (E(-1e308, 1e308), E(1e308, -1.1e308)),
    (E(-1e308, -1e308), E(1e308, 1.1e308)),
    (E(-5e307, 5e307), E(1e308, -1.5e308)),
])
def test_separating_search_far_apart_raises_overflow(p, q):
    # spacelike pairs whose boosted time at the events is inf - inf
    df = FiniteDirac(0.0, 1.0)
    w1 = ProductState(p, state_on_parallel(0.2, 0.1))
    w2 = ProductState(q, state_on_parallel(0.2, 0.1))
    with pytest.raises(CoordinateOverflow):
        separating_element_search(w1, w2, df)


def test_certified_atoms_are_monotone_along_the_order():
    df = FiniteDirac(1.0, 2.0)
    rng = np.random.default_rng(24)
    atoms = cone_atoms(E(0, 0), E(2, 0.5))
    assert len(atoms) == 2 + len(BETAS)
    for _ in range(10):
        w1, w2 = related_product_pair(rng, df)
        for element in atoms:
            assert element.eval_state(w1) <= element.eval_state(w2) + 1e-9


FINE = Grid(-8.0, 8.0, -8.0, 8.0, 161, 161)


@pytest.mark.parametrize("seed", [5, 42])
def test_cone_atoms_are_in_the_cone_and_the_dropped_candidates_are_not(monkeypatch, seed):
    # the first related pair of verify's cone_monotonicity row at the seed;
    # the row's atoms have a negative semidefinite symbol on a fine grid of
    # its rectangle, and each candidate it leaves out is clearly positive
    df = default_scene().dirac
    seen = []
    monkeypatch.setattr(
        verify, "cone_atoms", lambda p, q: seen.append((p, q)) or cone_atoms(p, q)
    )
    verify.run_suites("product", seed, df)
    p, q = seen[0]
    for atom in cone_atoms(p, q):
        assert atom.max_symbol_eigenvalue(FINE, df) <= NSD_TOL, atom.describe()
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    width = max(math.hypot(q.t - p.t, q.x - p.x), 1.0)
    units = np.eye(4)
    dropped = [
        CausalElement(_boost_tanh_profile(b, tc, xc), units[k])
        for b in BETAS
        for k in (1, 2, 3)
    ]
    dropped += [CausalElement(_const_profile(), units[k]) for k in (2, 3)]
    dropped += [
        CausalElement(bump_profile(tc, xc, w), unit)
        for w in (width, 0.5 * width)
        for unit in units
    ]
    for atom in dropped:
        assert atom.max_symbol_eigenvalue(FINE, df) > 0.5, atom.describe()  # 0.63 at least


coordinate = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coordinate, coordinate, coordinate, coordinate, coordinate, coordinate, coordinate)
def test_diagonal_element_symbol_has_the_closed_form_eigenvalues(u, ut, ux, c0, cz, d1, d2):
    # u (c0 id + cz sz) commutes with the diagonal D_F, so its symbol is
    # (-u_t I + u_x gamma_m) (x) H, with eigenvalues (-u_t +- |u_x|)(c0 +- cz)
    assume(abs(d1 - d2) > 1e-12)
    h = np.diag([c0 + cz, c0 - cz]).astype(complex)
    got = np.linalg.eigvalsh(product_symbol(u * h, ut * h, ux * h, FiniteDirac(d1, d2)))
    want = sorted((-ut + s * abs(ux)) * (c0 + r * cz) for s in (1, -1) for r in (1, -1))
    scale = (abs(ut) + abs(ux)) * (abs(c0) + abs(cz))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


def test_causal_element_coefficient_validation():
    profile = _const_profile()
    with pytest.raises(ValueError):
        CausalElement(profile, np.zeros(3))
    with pytest.raises(ValueError):
        CausalElement(profile, [1.0, math.nan, 0.0, 0.0])
    element = CausalElement(profile, [0.0, -1.0, 0.0, 0.0])
    assert (element.profile, element.pauli.tolist()) == (profile, [0.0, -1.0, 0.0, 0.0])
    assert not element.pauli.flags.writeable


def test_causal_verdict_requires_reason_iff_not_related():
    from nccausal import CausalVerdict

    with pytest.raises(ValueError):
        CausalVerdict(
            related=True,
            reason=NotRelatedReason.BASE_NOT_CAUSAL,
            base_causal=False,
            latitude_gap=0.0,
            delta_theta=0.0,
            theta_budget=0.0,
        )
    with pytest.raises(ValueError):
        CausalVerdict(
            related=False,
            reason=None,
            base_causal=True,
            latitude_gap=0.0,
            delta_theta=0.0,
            theta_budget=0.0,
        )
