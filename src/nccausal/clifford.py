"""Fixed 2D gamma-matrix representation and the Hermitian operator symbols
that encode the causal and steep conditions.

The representation is pinned to gamma0 = diag(i, -i), gamma1 = [[0, 1], [1, 0]],
so the fundamental symmetry j = i*gamma0 = diag(-1, 1) is real diagonal and
every symbol assembles from a handful of cheap 2x2 products.
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
    adjoint = m.conj().swapaxes(-1, -2)
    skew = np.abs(m - adjoint)
    anti = 0.5 * float(skew.max()) if skew.size else 0.0
    if anti > guard:
        raise NotHermitian(f"anti-Hermitian part {anti:.3e} exceeds guard {guard:.1e}")
    return 0.5 * (m + adjoint)


_LOWER_UPPER = np.array([-1.0, 1.0])


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    stack: shape (..., k, k) gives (..., k).

    The 2x2 case uses the trace/determinant closed form (the hot path); larger
    matrices fall back to the iterative LAPACK solver.
    """
    if m.shape[-2:] == (2, 2):
        a = m[..., 0, 0].real
        d = m[..., 1, 1].real
        off = m[..., 0, 1]
        mean = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), np.hypot(off.real, off.imag))
        return mean[..., None] + radius[..., None] * _LOWER_UPPER
    return np.linalg.eigvalsh(m)


def is_nsd(m: np.ndarray, tol: float | np.ndarray) -> bool | np.ndarray:
    """True iff the (validated Hermitian) matrix is negative semidefinite,
    i.e. its largest eigenvalue does not exceed ``tol``.

    A stack of shape (..., k, k) gives one verdict per matrix, as a boolean
    array; ``tol`` may then be an array that broadcasts against the stack.
    """
    verdict = hermitian_eigenvalues(ensure_hermitian(m))[..., -1] <= tol
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


_BASIS = standard_basis()


def _gradient_axes(
    dft: float | np.ndarray, dfx: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient components with two trailing axes, so that a scalar gradient
    broadcasts against the 2x2 basis to one matrix and a gradient array of
    shape (n,) to a stack of shape (n, 2, 2)."""
    dft = np.asarray(dft, dtype=float)[..., None, None]
    dfx = np.asarray(dfx, dtype=float)[..., None, None]
    return dft, dfx


def causal_symbol(dft: float | np.ndarray, dfx: float | np.ndarray) -> np.ndarray:
    """Pointwise symbol of j*[dirac, f] for a scalar function with gradient
    (dft, dfx) = (df/dt, df/dx).

    Assembled as (i*gamma0) @ (-i*gamma0*dft - i*gamma1*dfx); the eigenvalues
    are -dft +- |dfx|, so the symbol is negative semidefinite exactly when the
    gradient is future-directed causal (dft >= |dfx|). Scalar components give
    one 2x2 matrix; arrays of shape (n,) give the stack of shape (n, 2, 2).
    """
    b = _BASIS
    dft, dfx = _gradient_axes(dft, dfx)
    m = (1j * b.gamma0) @ (-1j * b.gamma0 * dft - 1j * b.gamma1 * dfx)
    return ensure_hermitian(m)


def steep_symbol(dft: float | np.ndarray, dfx: float | np.ndarray) -> np.ndarray:
    """Pointwise symbol of j*([dirac, f] + i*gamma_m).

    Eigenvalues are -dft +- sqrt(1 + dfx^2): negative semidefinite exactly for
    steep gradients (dft >= sqrt(1 + dfx^2)), the feasible set of the distance
    functional. Shapes as for :func:`causal_symbol`.
    """
    b = _BASIS
    dft, dfx = _gradient_axes(dft, dfx)
    m = (1j * b.gamma0) @ (
        -1j * b.gamma0 * dft - 1j * b.gamma1 * dfx + 1j * b.gamma_m
    )
    return ensure_hermitian(m)
