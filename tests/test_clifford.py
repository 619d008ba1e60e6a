"""Gamma-matrix basis, operator symbols, and the semidefiniteness test.

The expected values here are produced by test-local oracles: literal matrices
multiplied out directly, and numpy's general eigensolver as a cross-check of
the closed-form 2x2 eigenvalue path. The library writes both symbols entry by
entry; the matrix products of the gamma matrices they come from are
assembled here, and the two must agree bit for bit.
"""

import math
import sys

import numpy as np
import pytest

from nccausal import (
    NotHermitian,
    causal_symbol,
    ensure_hermitian,
    hermitian_eigenvalues,
    is_nsd,
    standard_basis,
    steep_symbol,
)

# independent literals, assembled by hand rather than taken from the module
G0 = np.array([[1j, 0], [0, -1j]])
G1 = np.array([[0, 1], [1, 0]], dtype=complex)
GM = G0 @ G1
J = 1j * G0
DBL_MAX = sys.float_info.max


def _product_symbol(dft, dfx, grading):
    """j @ (-i*gamma0*dft - i*gamma1*dfx + grading) for a gradient with two
    trailing axes added, symmetrized as (m + m*)/2."""
    dft = np.asarray(dft, dtype=float)[..., None, None]
    dfx = np.asarray(dfx, dtype=float)[..., None, None]
    inner = -1j * G0 * dft - 1j * G1 * dfx
    if grading is not None:
        inner = inner + grading
    m = (1j * G0) @ inner
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _oracle_causal_symbol(dft, dfx):
    return _product_symbol(dft, dfx, None)


def _oracle_steep_symbol(dft, dfx):
    return _product_symbol(dft, dfx, 1j * GM)


def test_standard_basis_matches_literals():
    b = standard_basis()
    assert np.array_equal(b.gamma0, G0)
    assert np.array_equal(b.gamma1, G1)
    assert np.array_equal(b.gamma_m, GM)
    assert np.array_equal(b.j, np.diag([-1.0 + 0j, 1.0 + 0j]))


def test_j_squares_to_identity():
    assert np.max(np.abs(J @ J - np.eye(2))) == 0.0


def test_anticommutator_vanishes():
    assert np.max(np.abs(G0 @ G1 + G1 @ G0)) == 0.0


def test_clifford_relations_signature():
    eta = np.diag([-1.0, 1.0])
    gammas = (G0, G1)
    for a in range(2):
        for b in range(2):
            anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            assert np.max(np.abs(anti - 2 * eta[a, b] * np.eye(2))) <= 1e-14


def test_krein_adjoint_identity_direct_arithmetic():
    # (gamma1)* == -J gamma1 J, multiplied out with the literal matrices
    assert np.max(np.abs(G1.conj().T + J @ G1 @ J)) <= 1e-14
    assert np.max(np.abs(G0.conj().T + J @ G0 @ J)) <= 1e-14


def test_basis_invariant_report_is_tight():
    errs = standard_basis().check_invariants()
    assert set(errs) == {
        "clifford_relations",
        "j_squares_to_identity",
        "j_selfadjoint",
        "j_anticommutes_grading",
        "krein_adjoint_identity",
        "grading_consistency",
    }
    assert all(v <= 1e-14 for v in errs.values())


def test_causal_symbol_zero_gradient():
    assert np.max(np.abs(causal_symbol(0.0, 0.0))) == 0.0


def test_causal_symbol_time_gradient_is_minus_identity():
    # oracle: assemble (i g0) @ (-i g0 * 1) from the literals
    oracle = (1j * G0) @ (-1j * G0)
    assert np.max(np.abs(oracle + np.eye(2))) == 0.0
    assert np.max(np.abs(causal_symbol(1.0, 0.0) + np.eye(2))) <= 1e-14


def test_causal_symbol_space_gradient_is_indefinite():
    m = causal_symbol(0.0, 1.0)
    oracle = np.linalg.eigvalsh((1j * G0) @ (-1j * G1))
    assert np.allclose(oracle, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(hermitian_eigenvalues(m), oracle, atol=1e-12)


def test_causal_symbol_eigenvalues_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
        m = causal_symbol(a, b)
        lapack = np.linalg.eigvalsh(m)
        closed = hermitian_eigenvalues(m)
        expected = sorted((-a - abs(b), -a + abs(b)))
        assert np.allclose(closed, lapack, atol=1e-12)
        assert np.allclose(closed, expected, atol=1e-12)


def test_steep_symbol_time_gradient_is_borderline():
    m = steep_symbol(1.0, 0.0)
    oracle = (1j * G0) @ (-1j * G0 + 1j * GM)
    assert np.allclose(np.linalg.eigvalsh(oracle), [-2.0, 0.0], atol=1e-14)
    assert np.allclose(hermitian_eigenvalues(m), [-2.0, 0.0], atol=1e-12)


def test_steep_symbol_boost_family_is_borderline():
    for beta in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        m = steep_symbol(math.cosh(beta), math.sinh(beta))
        assert abs(hermitian_eigenvalues(m)[-1]) <= 1e-12


def test_steep_symbol_constant_is_never_steep():
    assert np.allclose(hermitian_eigenvalues(steep_symbol(0.0, 0.0)), [-1.0, 1.0])


def test_steep_symbol_eigenvalues_random():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
        root = math.sqrt(1.0 + b * b)
        got = hermitian_eigenvalues(steep_symbol(a, b))
        assert np.allclose(got, sorted((-a - root, -a + root)), atol=1e-12)


def test_causal_symbol_is_linear():
    rng = np.random.default_rng(9)
    for _ in range(100):
        lam = rng.uniform(-3, 3)
        a1, b1, a2, b2 = rng.uniform(-3, 3, 4)
        lhs = causal_symbol(lam * a1 + a2, lam * b1 + b2)
        rhs = lam * causal_symbol(a1, b1) + causal_symbol(a2, b2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_batched_symbols_match_scalar_calls():
    # one assembly path: the array call must equal the scalar calls exactly
    rng = np.random.default_rng(10)
    dft, dfx = rng.uniform(-4, 4, (2, 1000))
    for symbol in (causal_symbol, steep_symbol):
        stack = symbol(dft, dfx)
        assert stack.shape == (1000, 2, 2)
        single = np.array([symbol(float(a), float(b)) for a, b in zip(dft, dfx)])
        assert np.array_equal(stack, single)
        eig = hermitian_eigenvalues(stack)
        assert eig.shape == (1000, 2)
        assert np.array_equal(eig, np.array([hermitian_eigenvalues(m) for m in single]))
        verdicts = is_nsd(stack, 1e-9)
        assert verdicts.shape == (1000,)
        assert verdicts.tolist() == [is_nsd(m, 1e-9) for m in single]


def _spread(rng, shape):
    """Signed doubles with magnitudes from 1e-300 to 1e300."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)


_RNG = np.random.default_rng(11)
_ZEROS = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0])
SYMBOL_INPUTS = {
    "random stack": (_RNG.uniform(-4, 4, 1000), _RNG.uniform(-4, 4, 1000)),
    "wide magnitudes": (_spread(_RNG, 1000), _spread(_RNG, 1000)),
    "largest magnitudes": (
        np.array([1e300, -1e300, 1e300, -1e300, 1.0, 0.0]),
        np.array([1e300, 1e300, -1e300, -1e300, -1e300, 1e300]),
    ),
    "scalars": (1.5, -2.0),
    "scalar zeros": (0.0, -0.0),
    "negative scalar zeros": (-0.0, 0.0),
    "signed zeros": (_ZEROS, _ZEROS[[1, 0, 3, 2, 0, 1]]),
    "2-D": (_RNG.normal(size=(3, 4)), _RNG.normal(size=(3, 4))),
    "scalar against array": (2.0, _RNG.normal(size=5)),
    "array against signed zero": (_RNG.normal(size=5), -0.0),
    "broadcast rows against columns": (_RNG.normal(size=(3, 1)), _RNG.normal(size=4)),
}


@pytest.mark.parametrize("inputs", SYMBOL_INPUTS.values(), ids=SYMBOL_INPUTS.keys())
@pytest.mark.parametrize("symbol, oracle", [
    (causal_symbol, _oracle_causal_symbol),
    (steep_symbol, _oracle_steep_symbol),
])
def test_closed_form_symbols_are_the_gamma_products(symbol, oracle, inputs):
    got, want = symbol(*inputs), oracle(*inputs)
    assert got.shape == want.shape == np.broadcast_shapes(*map(np.shape, inputs)) + (2, 2)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_entries_near_the_largest_double_do_not_overflow():
    # each entry is halved before the two are added, so a Hermitian matrix
    # whose entries are finite keeps them, and so do its eigenvalues
    m = np.diag([1e308, -1e308]).astype(complex)
    assert np.array_equal(ensure_hermitian(m), m)
    assert hermitian_eigenvalues(m).tolist() == [-1e308, 1e308]
    assert hermitian_eigenvalues(np.diag([DBL_MAX, DBL_MAX])).tolist() == [DBL_MAX, DBL_MAX]
    assert is_nsd(causal_symbol(1e308, 0.0), 1e-9)
    # the lower eigenvalue, -2e308, is beyond the double range; the top one is 0
    assert is_nsd(causal_symbol(1e308, 1e308), 1e-9)
    assert is_nsd(steep_symbol(1e308, 0.0), 1e-9)
    assert not is_nsd(steep_symbol(1.0, 1.5e308), 1e-9)


def test_is_nsd_trivial_cases():
    assert is_nsd(np.zeros((2, 2)), 1e-9)
    assert is_nsd(-np.eye(2), 1e-9)
    assert not is_nsd(np.diag([1.0, -1.0]), 1e-9)


def test_is_nsd_four_by_four():
    assert is_nsd(-np.eye(4), 1e-9)
    assert not is_nsd(np.diag([1.0, -1.0, -2.0, -3.0]), 1e-9)


def test_is_nsd_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        is_nsd(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)


def test_ensure_hermitian_symmetrizes_dust():
    m = np.array([[1.0, 1e-12 * 1j], [0.0, 2.0]])
    out = ensure_hermitian(m)
    assert np.max(np.abs(out - out.conj().T)) == 0.0


def test_ensure_hermitian_rejects_large_skew():
    with pytest.raises(NotHermitian):
        ensure_hermitian(np.array([[0.0, 1e-3], [-1e-3, 0.0]]))


def test_ensure_hermitian_rejects_one_bad_matrix_in_a_stack():
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = 1e-3
    with pytest.raises(NotHermitian):
        ensure_hermitian(stack)
