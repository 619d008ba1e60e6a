"""Internal states, Bloch coordinates, and the spectral distance.

Brute-force oracles live in this file: the commutator norm is cross-checked
against singular values, and the closed-form spectral distance against the
explicit maximizer, a sampled supremum over the feasible set, and the
independent sine form in latitude and longitude.
"""

import cmath
import math

import numpy as np
import pytest

from nccausal import (
    DistanceResult,
    FiniteDirac,
    NotHermitian,
    NotUnitary,
    PoleState,
    ZeroVector,
    commutator_norm,
    divergence_witness,
    latitude,
    longitude,
    make_state,
    parallel_distance_closed_form,
    spectral_distance,
    spectral_distance_general,
    state_eval,
    state_on_parallel,
    unitary_conjugate,
)
from nccausal.finite_geometry import LATITUDE_TOL
from nccausal.verify import random_cross_latitude_pair, random_parallel_pair, random_unitary

SQ2 = 1.0 / math.sqrt(2.0)


def test_finite_dirac_rejects_degenerate_spectrum():
    with pytest.raises(ValueError):
        FiniteDirac(1.0, 1.0)
    with pytest.raises(ValueError):
        FiniteDirac(2.0, 2.0 + 1e-13)


def test_make_state_north_pole():
    s = make_state([1.0, 0.0])
    assert s.bloch == (0.0, 0.0, 1.0)


def test_make_state_bloch_formulas():
    # x = 2 Re(conj(xi1) xi2), y = 2 Im(conj(xi1) xi2): checked by direct arithmetic
    s = make_state([SQ2, SQ2])
    assert math.isclose(s.bloch[0], 2.0 * (SQ2 * SQ2), abs_tol=1e-15)
    assert np.allclose(s.bloch, (1.0, 0.0, 0.0), atol=1e-15)
    s = make_state([SQ2, 1j * SQ2])
    assert np.allclose(s.bloch, (0.0, 1.0, 0.0), atol=1e-15)


def test_make_state_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        make_state([0.0, 0.0])
    with pytest.raises(ZeroVector):
        make_state([1e-13, 1e-13])


def test_make_state_rescales_components_whose_squares_overflow():
    rng = np.random.default_rng(20)
    vectors = [[SQ2, SQ2], [0.6, 0.8j], [1.0, 0.0], [0.0, -1.0]]
    vectors += list(rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2)))
    for v in vectors:
        want = make_state(v)
        for scale in (1e200, 1e300, -1e250j):
            got = make_state(np.asarray(v) * scale)
            assert abs(got.xi1 - want.xi1) <= 1e-15
            assert abs(got.xi2 - want.xi2) <= 1e-15
            assert np.allclose(got.bloch, want.bloch, rtol=0.0, atol=1e-15)
    assert make_state([1e300, 0.0]).bloch == (0.0, 0.0, 1.0)
    big = make_state([1.7e308 + 1.7e308j, 1.7e308])
    assert abs(latitude(big) - 1.0 / 3.0) <= 1e-15


@pytest.mark.parametrize(
    "v", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 1.0], [complex(1.0, math.inf), 0.0]]
)
def test_make_state_rejects_non_finite_components(v):
    with pytest.raises(ValueError):
        make_state(v)


def test_make_state_phase_fixing_is_canonical():
    base = make_state([0.6, 0.8j])
    assert base.xi1.imag == 0.0
    assert base.xi1.real > 0.0
    for phase in (1.0, -1.0, 1j, -1j):  # exact rotations reproduce bitwise
        again = make_state([0.6 * phase, 0.8j * phase])
        assert again.xi1 == base.xi1
        assert again.xi2 == base.xi2
    irrational = make_state([0.6 * np.exp(0.7j), 0.8j * np.exp(0.7j)])
    assert abs(irrational.xi1 - base.xi1) <= 1e-15
    assert abs(irrational.xi2 - base.xi2) <= 1e-15


def test_make_state_phase_fixes_second_component_when_first_vanishes():
    s = make_state([0.0, -1.0])
    assert s.xi1 == 0.0
    assert s.xi2 == 1.0


def _state_bits(s):
    """Every float of a state, as bit patterns: equal values with the same
    sign on their zeros give equal lists."""
    parts = (s.xi1.real, s.xi1.imag, s.xi2.real, s.xi2.imag, *s.bloch)
    return [float(v).hex() for v in parts]


def test_state_on_parallel_is_make_state_of_its_vector_bit_for_bit():
    # oracle: make_state normalizing and phase-fixing the same vector
    rng = np.random.default_rng(61)
    z, theta = rng.uniform(-1.0, 1.0, 10_000), rng.uniform(-50.0, 50.0, 10_000)
    draws = list(zip(z.tolist(), theta.tolist()))
    edges = [
        (z, th)
        for z in (-1.0, -1.0 + 2.0**-53, -0.0, 0.0, 1.0 - 2.0**-53, 1.0)
        for th in (0.0, math.pi, -math.pi)
    ]
    for z, th in draws + edges:
        vector = [math.sqrt(0.5 * (1.0 + z)), cmath.exp(1j * th) * math.sqrt(0.5 * (1.0 - z))]
        want = make_state(vector)
        got = state_on_parallel(z, th)
        assert (got.xi1, got.xi2, got.bloch) == (want.xi1, want.xi2, want.bloch), (z, th)
        assert _state_bits(got) == _state_bits(want), (z, th)


@pytest.mark.parametrize(
    "z, theta",
    [(0.3, math.nan), (0.3, math.inf), (0.3, -math.inf),
     (math.nan, 0.3), (1.0000001, 0.3), (-1.0000001, 0.3)],
)
def test_state_on_parallel_rejects_non_finite_angles_and_bad_latitudes(z, theta):
    with pytest.raises(ValueError):
        state_on_parallel(z, theta)


def test_latitude_examples():
    assert latitude(make_state([1.0, 0.0])) == 1.0
    assert abs(latitude(make_state([SQ2, SQ2]))) <= 1e-15
    # |xi1|^2 - |xi2|^2 = 3/4 - 1/4
    assert math.isclose(latitude(make_state([math.sqrt(3) / 2, 0.5])), 0.5, abs_tol=1e-15)


def test_longitude_examples():
    assert longitude(make_state([SQ2, SQ2])) == 0.0
    assert math.isclose(longitude(make_state([SQ2, 1j * SQ2])), math.pi / 2, abs_tol=1e-15)
    with pytest.raises(PoleState):
        longitude(make_state([1.0, 0.0]))


def test_longitude_range_is_half_open():
    th = longitude(state_on_parallel(0.0, math.pi))
    assert -math.pi < th <= math.pi


def test_state_eval_examples():
    s = make_state([1.0, 0.0])
    assert state_eval(s, np.diag([3.0, 7.0])) == 3.0
    s = make_state([SQ2, SQ2])
    # direct quadratic form: [s1 s2] [[0,1],[1,0]] [s1 s2]^T = 2 s1 s2 = 1
    assert math.isclose(state_eval(s, np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0, abs_tol=1e-15)


def test_state_eval_identity_is_normalization():
    # exactly 1 on the identity and exactly the latitude on sz
    rng = np.random.default_rng(3)
    sz = np.diag([1.0, -1.0])
    states = [make_state(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(20)]
    states += [state_on_parallel(0.0, 0.0), state_on_parallel(0.5, 0.4), make_state([0.0, 1.0])]
    for s in states:
        assert state_eval(s, np.eye(2)) == 1.0
        assert state_eval(s, sz) == latitude(s)


def test_state_eval_matches_the_quadratic_form():
    # oracle: xi* a xi from the state vector, within a few ulps of the scale
    rng = np.random.default_rng(5)
    for _ in range(500):
        s = make_state(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = m + m.conj().T
        xi = np.array([s.xi1, s.xi2])
        want = float(np.real(xi.conj() @ a @ xi))
        assert abs(state_eval(s, a) - want) <= 8 * np.finfo(float).eps * np.abs(a).sum()
    with pytest.raises(ValueError):
        state_eval(s, np.eye(3))


def test_make_state_invariants_on_random_vectors():
    rng = np.random.default_rng(44)
    for _ in range(200):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = make_state(v)
        assert abs(abs(s.xi1) ** 2 + abs(s.xi2) ** 2 - 1.0) <= 1e-12
        x, y, z = s.bloch
        assert abs(x * x + y * y + z * z - 1.0) <= 1e-10
        pivot = s.xi1 if abs(s.xi1) > 1e-12 else s.xi2
        assert pivot.imag == 0.0 and pivot.real >= 0.0


def test_commutator_norm_examples():
    df = FiniteDirac(0.0, 1.0)
    assert commutator_norm(df, np.diag([5.0, -5.0])) == 0.0
    assert math.isclose(commutator_norm(df, np.array([[0, 1], [1, 0]], dtype=complex)), 1.0, abs_tol=1e-15)
    df = FiniteDirac(1.0, 3.0)
    a = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    assert math.isclose(commutator_norm(df, a), 1.0, abs_tol=1e-15)


def test_commutator_norm_matches_singular_value_oracle():
    rng = np.random.default_rng(4)
    df = FiniteDirac(-0.7, 1.9)
    d = df.matrix()
    for _ in range(200):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.5 * (m + m.conj().T)
        oracle = float(np.linalg.svd(d @ a - a @ d, compute_uv=False)[0])
        assert math.isclose(commutator_norm(df, a), oracle, abs_tol=1e-12)
        assert math.isclose(commutator_norm(df, a), df.gap * abs(a[0, 1]), abs_tol=1e-12)


def test_commutator_norm_of_a_stack_is_each_matrix_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    df = FiniteDirac(-0.7, 1.9)
    m = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    stack = 0.5 * (m + m.conj().swapaxes(-1, -2))
    got = commutator_norm(df, stack)
    assert isinstance(got, np.ndarray) and got.shape == (40,)
    assert got.tolist() == [commutator_norm(df, a) for a in stack]
    assert commutator_norm(df, stack.reshape(4, 10, 2, 2)).tolist() == got.reshape(4, 10).tolist()


def test_commutator_norm_of_one_matrix_is_a_float():
    got = commutator_norm(FiniteDirac(0.0, 1.0), np.array([[0, 1], [1, 0]], dtype=complex))
    assert type(got) is float


def test_commutator_norm_rejects_one_non_hermitian_matrix_in_a_stack():
    stack = np.zeros((5, 2, 2), dtype=complex)
    stack[3, 0, 1] = 1.0
    with pytest.raises(NotHermitian):
        commutator_norm(FiniteDirac(0.0, 1.0), stack)


def test_distance_result_validation():
    with pytest.raises(ValueError):
        DistanceResult(-1.0)
    assert DistanceResult.infinite().is_infinite
    assert not DistanceResult.finite(0.0).is_infinite


def test_spectral_distance_identical_states_is_zero():
    df = FiniteDirac(0.0, 1.0)
    s = state_on_parallel(0.3, 1.1)
    d = spectral_distance(df, s, s)
    assert not d.is_infinite
    assert d.value <= 1e-12


def test_spectral_distance_equator_antipodal():
    """Optimum 2 at a = [[0,1],[1,0]]; feasible-point sampling confirms the sup."""
    df = FiniteDirac(0.0, 1.0)
    s1 = state_on_parallel(0.0, 0.0)
    s2 = state_on_parallel(0.0, math.pi)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutator_norm(df, sx) <= 1.0 + 1e-12
    achieved = abs(state_eval(s1, sx) - state_eval(s2, sx))
    assert math.isclose(achieved, 2.0, abs_tol=1e-12)

    rng = np.random.default_rng(5)
    best = 0.0
    for _ in range(2000):
        diag = rng.uniform(-5, 5, 2)
        r = math.sqrt(rng.uniform(0, 1))
        ang = rng.uniform(-math.pi, math.pi)
        off = r * complex(math.cos(ang), math.sin(ang))
        a = np.array([[diag[0], off], [np.conj(off), diag[1]]])
        assert commutator_norm(df, a) <= 1.0 + 1e-12
        best = max(best, abs(state_eval(s1, a) - state_eval(s2, a)))
    assert best <= 2.0 + 1e-9

    d = spectral_distance(df, s1, s2)
    assert math.isclose(d.value, 2.0, abs_tol=1e-6)


def test_spectral_distance_cross_latitude_is_infinite():
    df = FiniteDirac(0.0, 1.0)
    north = make_state([1.0, 0.0])
    equator = state_on_parallel(0.0, 0.4)
    assert spectral_distance(df, north, equator).is_infinite


def _feasible_samples(df: FiniteDirac, rng: np.random.Generator) -> list[np.ndarray]:
    """2000 Hermitian elements with commutator norm at most one: a random
    diagonal plus an off-diagonal entry inside the disk |a12| <= 1/gap for the
    first half and on its boundary for the second."""
    radius = 1.0 / df.gap
    samples = []
    for k in range(2000):
        diag = rng.uniform(-5, 5, 2)
        r = radius * (math.sqrt(rng.uniform(0, 1)) if k < 1000 else 1.0)
        ang = rng.uniform(-math.pi, math.pi)
        off = r * complex(math.cos(ang), math.sin(ang))
        a = np.array([[diag[0], off], [np.conj(off), diag[1]]])
        assert commutator_norm(df, a) <= 1.0 + 1e-12
        samples.append(a)
    return samples


def test_spectral_distance_attained_by_explicit_maximizer():
    """The off-diagonal element aligned with the projector difference,
    a* = (1/gap) [[0, conj(D10)/|D10|], [D10/|D10|, 0]] with D = P1 - P2, is
    feasible and attains the distance, and no sampled feasible element does
    better: the closed form is the supremum, checked without using it."""
    df = FiniteDirac(0.5, 2.0)
    rng = np.random.default_rng(6)
    samples = _feasible_samples(df, np.random.default_rng(60))
    for _ in range(30):
        s1, s2 = random_parallel_pair(rng)
        got = spectral_distance(df, s1, s2).value
        want = parallel_distance_closed_form(df, s1, s2)
        assert abs(got - want) <= 1e-6

        d10 = s1.xi2 * s1.xi1.conjugate() - s2.xi2 * s2.xi1.conjugate()
        u = d10 / abs(d10)
        a_star = np.array([[0.0, u.conjugate()], [u, 0.0]]) / df.gap
        assert commutator_norm(df, a_star) <= 1.0 + 1e-12
        attained = abs(state_eval(s1, a_star) - state_eval(s2, a_star))
        assert abs(attained - got) <= 1e-12

        best = max(abs(state_eval(s1, a) - state_eval(s2, a)) for a in samples)
        assert best <= got + 1e-12


def test_spectral_distance_close_pairs_match_closed_form():
    """Nearly identical states keep full relative accuracy at every scale of
    longitude offset."""
    for df in (FiniteDirac(0.0, 1.0), FiniteDirac(1.0, 3.5)):
        for dtheta in (3.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-8):
            s1 = state_on_parallel(0.3, 0.2)
            s2 = state_on_parallel(0.3, 0.2 + dtheta)
            got = spectral_distance(df, s1, s2).value
            want = parallel_distance_closed_form(df, s1, s2)
            assert abs(got - want) <= 1e-6 * want + 1e-12


def test_spectral_distance_symmetry_and_triangle():
    df = FiniteDirac(0.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = rng.uniform(-0.8, 0.8)
        a, b, c = (state_on_parallel(z, rng.uniform(-math.pi, math.pi)) for _ in range(3))
        dab = spectral_distance(df, a, b).value
        dba = spectral_distance(df, b, a).value
        dbc = spectral_distance(df, b, c).value
        dac = spectral_distance(df, a, c).value
        assert abs(dab - dba) <= 1e-6
        assert dac <= dab + dbc + 1e-6


def test_spectral_distance_longitude_shift_invariance():
    df = FiniteDirac(1.0, 2.5)
    base = spectral_distance(df, state_on_parallel(0.4, 0.3), state_on_parallel(0.4, 1.7)).value
    for delta in (-2.0, 0.9, 3.0):
        shifted = spectral_distance(
            df,
            state_on_parallel(0.4, 0.3 + delta),
            state_on_parallel(0.4, 1.7 + delta),
        ).value
        assert abs(shifted - base) <= 1e-6


def test_divergence_witness_exceeds_threshold_and_stays_feasible():
    df = FiniteDirac(0.0, 1.0)
    s1 = make_state([1.0, 0.0])
    s2 = state_on_parallel(0.0, 0.0)
    gain = divergence_witness(df, s1, s2)
    assert gain > 1e6
    # every scale of the witness direction commutes with the Dirac operator
    for k in range(0, 120, 7):
        c = math.ldexp(1.0, k)
        assert commutator_norm(df, np.diag([complex(c), complex(-c)])) == 0.0


def doubling_witness(s1, s2, threshold=1e6, max_doublings=120):
    """Oracle for the closed form: double the scale c of diag(c, -c) from 1
    until the evaluation gap exceeds the threshold, evaluating every step."""
    scale = 1.0
    gain = 0.0
    for _ in range(max_doublings):
        a = np.diag([complex(scale), complex(-scale)])
        gain = abs(state_eval(s1, a) - state_eval(s2, a))
        if gain > threshold:
            return gain
        scale *= 2.0
    return gain


def test_divergence_witness_matches_the_doubling_search():
    rng = np.random.default_rng(31)
    pairs = [random_cross_latitude_pair(rng) for _ in range(300)]
    pairs += [(make_state([1.0, 0.0]), state_on_parallel(0.3, 1.0)),
              (state_on_parallel(-0.2, 0.5), make_state([0.0, 1.0]))]
    while len(pairs) < 600:  # latitude gaps just above the tolerance
        z = float(rng.uniform(-0.95, 0.95))
        dz = LATITUDE_TOL * float(rng.uniform(1.0, 3.0))
        s1 = state_on_parallel(z, float(rng.uniform(-math.pi, math.pi)))
        s2 = state_on_parallel(z + dz, float(rng.uniform(-math.pi, math.pi)))
        if abs(latitude(s1) - latitude(s2)) > LATITUDE_TOL:
            pairs.append((s1, s2))
    df = FiniteDirac(-2.0, 1.5)
    for s1, s2 in pairs:
        assert divergence_witness(df, s1, s2) == doubling_witness(s1, s2), (s1, s2)


def test_divergence_witness_rejects_shared_parallel():
    df = FiniteDirac(0.0, 1.0)
    s1, s2 = state_on_parallel(0.2, 0.0), state_on_parallel(0.2, 1.0)
    with pytest.raises(ValueError):
        divergence_witness(df, s1, s2)


def test_unitary_conjugate_identity_and_permutation():
    df = FiniteDirac(1.0, 3.0)
    rot = unitary_conjugate(df, np.eye(2))
    assert np.allclose(rot.matrix, np.diag([1.0, 3.0]))
    swap = unitary_conjugate(df, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(swap.matrix, np.diag([3.0, 1.0]))


def test_unitary_conjugate_rejects_non_unitary():
    df = FiniteDirac(1.0, 3.0)
    with pytest.raises(NotUnitary):
        unitary_conjugate(df, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_distance_invariant_under_twenty_random_rotations():
    df = FiniteDirac(0.0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        s1, s2 = random_parallel_pair(rng)
        base = spectral_distance(df, s1, s2).value
        u = random_unitary(rng)
        rot = unitary_conjugate(df, u)
        moved = rot.spectral_distance(rot.map_state(s1), rot.map_state(s2))
        assert abs(moved.value - base) <= 1e-6


def test_spectral_distance_general_matches_diagonal_case():
    df = FiniteDirac(0.0, 1.0)
    s1, s2 = state_on_parallel(0.2, 0.5), state_on_parallel(0.2, 2.0)
    direct = spectral_distance(df, s1, s2).value
    general = spectral_distance_general(df.matrix(), s1, s2).value
    assert abs(direct - general) <= 1e-9
