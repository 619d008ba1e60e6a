"""Fixed 2D gamma-matrix representation and the Hermitian operator symbols
that encode the causal and steep conditions.

The representation is pinned to gamma0 = diag(i, -i), gamma1 = [[0, 1], [1, 0]],
so the fundamental symmetry j = i*gamma0 = diag(-1, 1) is real diagonal and
the grading gamma_m = gamma0 @ gamma1 = [[0, i], [-i, 0]]. In this basis both
symbols have closed-form entries, written directly rather than multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian

HERMITICITY_GUARD = 1e-10


def ensure_hermitian(m: np.ndarray, guard: float = HERMITICITY_GUARD) -> np.ndarray:
    """Return the symmetrized matrix (m + m*)/2, or that of each matrix in a
    stack of shape (..., k, k).

    Inputs whose anti-Hermitian part exceeds ``guard`` entrywise are rejected
    rather than silently corrected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitian(f"expected a square matrix or a stack of them, got shape {m.shape}")
    half = 0.5 * m  # halved first, so that entries near DBL_MAX stay finite
    adjoint = half.conj().swapaxes(-1, -2)
    skew = np.abs(half - adjoint)
    anti = float(skew.max()) if skew.size else 0.0
    if anti > guard:
        raise NotHermitian(f"anti-Hermitian part {anti:.3e} exceeds guard {guard:.1e}")
    return half + adjoint


_LOWER_UPPER = np.array([-1.0, 1.0])


def _mean_radius(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and half-gap of the two eigenvalues of each Hermitian 2x2 matrix,
    from the trace/determinant closed form. Each diagonal entry is halved
    before the two are added, so that entries near DBL_MAX stay finite."""
    a = 0.5 * m[..., 0, 0].real
    d = 0.5 * m[..., 1, 1].real
    off = m[..., 0, 1]
    return a + d, np.hypot(a - d, np.hypot(off.real, off.imag))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    stack: shape (..., k, k) gives (..., k).

    The 2x2 case uses the trace/determinant closed form (the hot path); larger
    matrices fall back to the iterative LAPACK solver.
    """
    if m.shape[-2:] == (2, 2):
        mean, radius = _mean_radius(m)
        return mean[..., None] + radius[..., None] * _LOWER_UPPER
    return np.linalg.eigvalsh(m)


def is_nsd(m: np.ndarray, tol: float | np.ndarray) -> bool | np.ndarray:
    """True iff the (validated Hermitian) matrix is negative semidefinite,
    i.e. its largest eigenvalue does not exceed ``tol``.

    A stack of shape (..., k, k) gives one verdict per matrix, as a boolean
    array; ``tol`` may then be an array that broadcasts against the stack.
    A 2x2 matrix's smaller eigenvalue is not computed, so it may lie beyond
    the double range.
    """
    m = ensure_hermitian(m)
    if m.shape[-2:] == (2, 2):
        mean, radius = _mean_radius(m)
        top = mean + radius
    else:
        top = np.linalg.eigvalsh(m)[..., -1]
    verdict = top <= tol
    return bool(verdict) if verdict.ndim == 0 else verdict


@dataclass(frozen=True, eq=False)
class CliffordBasis:
    """The fixed gamma matrices, grading and fundamental symmetry.

    gamma0 is anti-Hermitian and squares to -1, gamma1 is Hermitian and squares
    to +1 (signature (-, +)); gamma_m = gamma0 @ gamma1 is the grading and
    j = i*gamma0 the fundamental symmetry.
    """

    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma_m: np.ndarray
    j: np.ndarray

    def check_invariants(self) -> dict[str, float]:
        """Max entrywise error of each defining identity, keyed by name."""
        i2 = np.eye(2)
        eta = np.diag([-1.0, 1.0])
        gammas = (self.gamma0, self.gamma1)
        cliff = 0.0
        for a in range(2):
            for b in range(2):
                anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
                cliff = max(cliff, float(np.max(np.abs(anti - 2.0 * eta[a, b] * i2))))
        adjoint = max(
            float(np.max(np.abs(g.conj().T + self.j @ g @ self.j))) for g in gammas
        )
        return {
            "clifford_relations": cliff,
            "j_squares_to_identity": float(np.max(np.abs(self.j @ self.j - i2))),
            "j_selfadjoint": float(np.max(np.abs(self.j - self.j.conj().T))),
            "j_anticommutes_grading": float(
                np.max(np.abs(self.j @ self.gamma_m + self.gamma_m @ self.j))
            ),
            "krein_adjoint_identity": adjoint,
            "grading_consistency": float(
                np.max(np.abs(self.gamma_m - self.gamma0 @ self.gamma1))
            ),
        }


def standard_basis() -> CliffordBasis:
    """The pinned representation: gamma0 = diag(i, -i), gamma1 = [[0,1],[1,0]]."""
    gamma0 = np.array([[1j, 0.0], [0.0, -1j]])
    gamma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    gamma_m = gamma0 @ gamma1
    j = 1j * gamma0
    for m in (gamma0, gamma1, gamma_m, j):
        m.setflags(write=False)
    return CliffordBasis(gamma0, gamma1, gamma_m, j)


def _gradient_symbol(
    dft: float | np.ndarray, dfx: float | np.ndarray, gamma1_weight: float
) -> np.ndarray:
    """The Hermitian matrix [[-dft, w + i*dfx], [w - i*dfx, -dft]] with
    w = ``gamma1_weight``, entry by entry.

    Scalar components give one 2x2 matrix; arrays give a stack with their
    broadcast shape in front. The diagonal is written 0.0 - dft and the
    imaginary parts 0.0 +- dfx, so that a zero component gives +0.0 in every
    entry, as the product of the gamma matrices does.
    """
    dft = np.asarray(dft, dtype=float)
    dfx = np.asarray(dfx, dtype=float)
    out = np.empty(np.broadcast_shapes(dft.shape, dfx.shape) + (2, 2), complex)
    out[..., 0, 0] = out[..., 1, 1] = 0.0 - dft
    out[..., 0, 1] = out[..., 1, 0] = gamma1_weight
    out.imag[..., 0, 1] = 0.0 + dfx
    out.imag[..., 1, 0] = 0.0 - dfx
    return out


def causal_symbol(dft: float | np.ndarray, dfx: float | np.ndarray) -> np.ndarray:
    """Pointwise symbol of j*[dirac, f] for a scalar function with gradient
    (dft, dfx) = (df/dt, df/dx).

    It is (i*gamma0) @ (-i*gamma0*dft - i*gamma1*dfx) = -dft*I + dfx*gamma_m
    = [[-dft, i*dfx], [-i*dfx, -dft]], Hermitian by construction. The
    eigenvalues are -dft +- |dfx|, so the symbol is negative semidefinite
    exactly when the gradient is future-directed causal (dft >= |dfx|).
    Scalar components give one 2x2 matrix; arrays of shape (n,) give the
    stack of shape (n, 2, 2).
    """
    return _gradient_symbol(dft, dfx, 0.0)


def steep_symbol(dft: float | np.ndarray, dfx: float | np.ndarray) -> np.ndarray:
    """Pointwise symbol of j*([dirac, f] + i*gamma_m).

    The added term is (i*gamma0)(i*gamma_m) = gamma1, so the symbol is
    [[-dft, 1 + i*dfx], [1 - i*dfx, -dft]]. Eigenvalues are
    -dft +- sqrt(1 + dfx^2): negative semidefinite exactly for steep
    gradients (dft >= sqrt(1 + dfx^2)), the feasible set of the distance
    functional. Shapes as for :func:`causal_symbol`.
    """
    return _gradient_symbol(dft, dfx, 1.0)
