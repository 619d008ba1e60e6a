"""Pure states of the two-level internal algebra and the spectral distance
between them.

States are normalized, phase-fixed vectors in C^2 carrying their Bloch
coordinates (x, y, z); z is the latitude and the polar angle in the x-y plane
the longitude. The distance is a maximization over Hermitian 2x2 elements
with commutator norm at most one; for a diagonal Dirac operator it has the
exact closed form chord / |d1 - d2| between the Bloch vectors' projections on
the equatorial plane. Pairs on different parallels of latitude are infinitely
far apart: the diagonal direction of the algebra commutes with the internal
Dirac operator, so nothing bounds it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clifford import ensure_hermitian
from .errors import NotUnitary, PoleState, ZeroVector

LATITUDE_TOL = 1e-9
DIVERGENCE_THRESHOLD = 1e6
_THRESHOLD_MANTISSA, _THRESHOLD_EXP = math.frexp(DIVERGENCE_THRESHOLD)
POLE_TOL = 1e-12
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FiniteDirac:
    """Diagonal internal Dirac operator diag(d1, d2) with distinct eigenvalues."""

    d1: float
    d2: float

    def __post_init__(self):
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError("Dirac eigenvalues must be finite")
        if abs(self.d1 - self.d2) <= 1e-12:
            raise ValueError(
                "degenerate internal Dirac operator (d1 == d2): every pair of "
                "states would sit at infinite distance"
            )

    def matrix(self) -> np.ndarray:
        return np.diag([complex(self.d1), complex(self.d2)])

    @property
    def gap(self) -> float:
        return abs(self.d1 - self.d2)


@dataclass(frozen=True)
class InternalState:
    """Normalized, phase-fixed pure state with cached Bloch coordinates.

    Construct through :func:`make_state` or :func:`state_on_parallel`; the
    phase convention (first component above threshold real and nonnegative)
    makes instances canonical.
    """

    xi1: complex
    xi2: complex
    bloch: tuple[float, float, float]


def _state_vector(s: InternalState) -> np.ndarray:
    return np.array([s.xi1, s.xi2])


def make_state(v) -> InternalState:
    """Normalize and phase-fix a C^2 vector, computing Bloch coordinates
    x = 2 Re(conj(xi1) xi2), y = 2 Im(conj(xi1) xi2), z = |xi1|^2 - |xi2|^2.

    Raises ValueError on non-finite components. Finite components whose
    squares overflow are first scaled down by the largest of their real and
    imaginary magnitudes."""
    arr = np.asarray(v, dtype=complex).reshape(2)
    if not np.all(np.isfinite(arr)):
        raise ValueError("state components must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm):
        arr = arr / np.max(np.abs([arr.real, arr.imag]))
        norm = float(np.linalg.norm(arr))
    if norm <= _NORM_FLOOR:
        raise ZeroVector(f"cannot normalize a vector of norm {norm:.3e}")
    # idempotent on canonical input: skip the no-op steps so a state survives
    # a serialize/parse cycle bitwise
    if abs(norm - 1.0) > 1e-14:
        arr = arr / norm
    for idx in range(2):
        comp = arr[idx]
        if abs(comp) > _NORM_FLOOR:
            if not (comp.imag == 0.0 and comp.real > 0.0):
                arr = arr * (comp.conjugate() / abs(comp))
                arr[idx] = abs(arr[idx])  # drop rotation dust
                renorm = float(np.linalg.norm(arr))
                if abs(renorm - 1.0) > 1e-14:
                    arr = arr / renorm
            break
    xi1, xi2 = complex(arr[0]), complex(arr[1])
    return InternalState(xi1, xi2, _bloch(xi1, xi2))


def _bloch(xi1: complex, xi2: complex) -> tuple[float, float, float]:
    cross = xi1.conjugate() * xi2
    return (2.0 * cross.real, 2.0 * cross.imag, abs(xi1) ** 2 - abs(xi2) ** 2)


def state_on_parallel(z: float, theta: float) -> InternalState:
    """State at latitude z and angle theta on its parallel, in closed form.

    The vector (sqrt((1 + z) / 2), e^(i theta) sqrt((1 - z) / 2)) is already
    canonical: its first component is real and positive and its norm is
    within a few ulps of 1, so :func:`make_state` would return it unchanged.
    Only at z = -1, where the first component vanishes, does the phase of the
    second still need fixing. Raises ValueError for z outside [-1, 1] and for
    a non-finite theta."""
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"latitude must lie in [-1, 1], got {z}")
    if not math.isfinite(theta):
        raise ValueError(f"angle on the parallel must be finite, got {theta}")
    xi1 = complex(math.sqrt(0.5 * (1.0 + z)))
    xi2 = cmath.exp(1j * theta) * math.sqrt(0.5 * (1.0 - z))
    if z == -1.0:
        return make_state([xi1, xi2])
    return InternalState(xi1, xi2, _bloch(xi1, xi2))


def _mapped(f, *arrays) -> np.ndarray:
    """The scalar function f applied element by element to arrays of one
    shape: where numpy's array versions of a libm function round
    differently from the scalar one, this keeps the scalar's bits."""
    shape = np.shape(arrays[0])
    flat = (np.ravel(a).tolist() for a in arrays)
    return np.fromiter(map(f, *flat), dtype=float, count=math.prod(shape)).reshape(shape)


def parallel_bloch(z, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bloch coordinates (x, y, z) of ``state_on_parallel(z, theta)``
    over stacks of latitudes and angles that broadcast together (floats
    count as stacks of one), bit for bit, as three arrays; a latitude
    outside [-1, 1] or a non-finite angle raises ValueError.

    The complex arithmetic of :func:`state_on_parallel` and ``_bloch``, one
    real operation at a time, zero terms included so that every sign of zero
    comes out the same. Cosine, sine and the squares are the scalar ``math``
    and ``**`` ones, mapped over the arrays, and the modulus is C's hypot,
    which complex ``abs`` calls: numpy's array cosine, sine and complex
    ``abs``, and its squares, can differ in the last bit. The south pole
    z = -1 takes :func:`make_state`'s phase fix, as there.
    """
    z, theta = np.broadcast_arrays(*np.atleast_1d(np.asarray(z, float), np.asarray(theta, float)))
    if not (np.all(np.abs(z) <= 1.0) and np.all(np.isfinite(theta))):
        raise ValueError("latitudes must lie in [-1, 1] and angles on the parallel be finite")
    a = np.sqrt(0.5 * (1.0 + z))
    b = np.sqrt(0.5 * (1.0 - z))
    angle = 0.0 + theta  # the imaginary part of 1j * theta
    c, s = _mapped(math.cos, angle), _mapped(math.sin, angle)
    re, im = c * b - s * 0.0, c * 0.0 + s * b  # e^(i theta) * b
    # conj(xi1) * xi2 with xi1 = a + 0j
    x = 2.0 * (a * re - (-0.0) * im)
    y = 2.0 * (a * im + (-0.0) * re)
    # |xi|^2 as ``abs(xi) ** 2`` takes it: C's pow, not a * a
    two = np.full(a.shape, 2.0)
    z_out = _mapped(pow, a, two) - _mapped(pow, np.hypot(re, im), two)
    for i in map(tuple, np.argwhere(z == -1.0)):
        x[i], y[i], z_out[i] = state_on_parallel(-1.0, float(theta[i])).bloch
    return x, y, z_out


def latitude(s: InternalState) -> float:
    return s.bloch[2]


def is_pole(s: InternalState) -> bool:
    return abs(s.bloch[2]) >= 1.0 - POLE_TOL


def longitude(s: InternalState) -> float:
    """Angle on the parallel of latitude, in (-pi, pi]. Undefined at the poles."""
    if is_pole(s):
        raise PoleState(f"longitude undefined at latitude {s.bloch[2]:+.6f}")
    theta = math.atan2(s.bloch[1], s.bloch[0])
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


def bloch_close(b1: Sequence[float], b2: Sequence[float], tol: float) -> bool:
    """Proximity of two Bloch vectors, the test behind :func:`states_close`."""
    return math.dist(b1, b2) <= tol


def states_close(s1: InternalState, s2: InternalState, tol: float) -> bool:
    """Bloch-vector proximity; the canonical way to compare states up to tol."""
    return bloch_close(s1.bloch, s2.bloch, tol)


def state_eval(s: InternalState, a: np.ndarray) -> float:
    """Evaluation of the state on a Hermitian element, xi* a xi, in Bloch form
    0.5 (a00 + a11) + 0.5 (a00 - a11) z + Re(a01) x - Im(a01) y: exactly 1 on
    the identity and exactly z on sz."""
    a = ensure_hermitian(a)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    x, y, z = s.bloch
    a00, a11, a01 = a[0, 0].real, a[1, 1].real, a[0, 1]
    return float(0.5 * (a00 + a11) + 0.5 * (a00 - a11) * z + a01.real * x - a01.imag * y)


def commutator_norm(df: FiniteDirac, a: np.ndarray) -> float | np.ndarray:
    """Operator norm of [D, a]; equals |d1 - d2| * |a12| for Hermitian a.

    A single matrix gives a float; a stack of shape (..., 2, 2) gives the
    array of shape (...) of each matrix's norm.
    """
    a = ensure_hermitian(a)
    d = df.matrix()
    norm = np.linalg.norm(d @ a - a @ d, 2, axis=(-2, -1))
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True)
class DistanceResult:
    """Finite value or the infinite marker (value None)."""

    value: float | None

    def __post_init__(self):
        if self.value is not None and self.value < 0.0:
            raise ValueError("finite distance must be nonnegative")

    @classmethod
    def finite(cls, value: float) -> "DistanceResult":
        return cls(float(value))

    @classmethod
    def infinite(cls) -> "DistanceResult":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def spectral_distance(
    df: FiniteDirac, s1: InternalState, s2: InternalState
) -> DistanceResult:
    """Supremum of |s1(a) - s2(a)| over Hermitian a with commutator norm <= 1.

    Latitude mismatch beyond 1e-9 is reported as infinite analytically (the
    unconstrained diagonal direction makes the objective unbounded; see
    :func:`divergence_witness` for a constructive certificate). Otherwise the
    supremum is attained on the disk |a12| <= 1/|d1 - d2| at the off-diagonal
    element aligned with the projector difference, which gives the exact value
    2 |(P1 - P2)_21| / |d1 - d2| (Iochum, Krajewski and Martinetti, "Distances
    in finite spaces from noncommutative geometry", J. Geom. Phys. 2001). That
    entry is half the difference of the Bloch vectors' equatorial parts, so the
    value is their chord over the gap, which stays valid at the poles.
    """
    if abs(latitude(s1) - latitude(s2)) > LATITUDE_TOL:
        return DistanceResult.infinite()
    dx = s1.bloch[0] - s2.bloch[0]
    dy = s1.bloch[1] - s2.bloch[1]
    return DistanceResult.finite(math.hypot(dx, dy) / df.gap)


def parallel_distance_closed_form(
    df: FiniteDirac, s1: InternalState, s2: InternalState
) -> float:
    """Closed form 2 sqrt(1 - z^2) |sin(dtheta / 2)| / |d1 - d2| for a pair on
    a shared parallel of latitude z.

    Written in latitude and longitude, independently of the Bloch chord that
    :func:`spectral_distance` uses, so the two cross-check each other; the
    test suite validates both against the explicit maximizer and a sampled
    supremum over the feasible set.
    """
    z1, z2 = latitude(s1), latitude(s2)
    if abs(z1 - z2) > LATITUDE_TOL:
        raise ValueError("closed form requires a shared parallel of latitude")
    if is_pole(s1) or is_pole(s2):
        # chord form; identical to the sine form when longitudes exist
        dx = s1.bloch[0] - s2.bloch[0]
        dy = s1.bloch[1] - s2.bloch[1]
        return math.hypot(dx, dy) / df.gap
    z = 0.5 * (z1 + z2)
    dtheta = longitude(s2) - longitude(s1)
    return 2.0 * math.sqrt(max(0.0, 1.0 - z * z)) * abs(math.sin(0.5 * dtheta)) / df.gap


def divergence_witness(df: FiniteDirac, s1: InternalState, s2: InternalState) -> float:
    """Constructive unboundedness certificate for a cross-latitude pair.

    The diagonal element diag(c, -c) commutes with the diagonal Dirac
    operator, so it is feasible at every scale c, and for c a power of two its
    evaluation gap is exactly c times that of diag(1, -1). The witness is the
    first power of two (c >= 1) whose gap exceeds ``DIVERGENCE_THRESHOLD``,
    found from the binary exponents of the unit gap and the threshold; its
    gap is returned.
    """
    if abs(latitude(s1) - latitude(s2)) <= LATITUDE_TOL:
        raise ValueError("states share a parallel of latitude; the objective is bounded")
    unit = np.diag([complex(1.0), complex(-1.0)])
    gap = abs(state_eval(s1, unit) - state_eval(s2, unit))
    mantissa, exponent = math.frexp(gap)
    # m 2^e exceeds M 2^E (m, M in [0.5, 1)) iff e > E, or e == E and m > M
    k = _THRESHOLD_EXP - exponent + (mantissa <= _THRESHOLD_MANTISSA)
    return math.ldexp(gap, max(k, 0))


@dataclass(frozen=True, eq=False)
class RotatedDirac:
    """Unitary conjugate u D u* of a diagonal Dirac, with the induced state map."""

    matrix: np.ndarray
    unitary: np.ndarray

    def map_state(self, s: InternalState) -> InternalState:
        return make_state(self.unitary @ _state_vector(s))

    def spectral_distance(self, s1: InternalState, s2: InternalState) -> DistanceResult:
        return spectral_distance_general(self.matrix, s1, s2)


def unitary_conjugate(df: FiniteDirac, u: np.ndarray) -> RotatedDirac:
    """Conjugated Dirac operator u D u*; used to test rotation invariance."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-12:
        raise NotUnitary("conjugation requires a 2x2 unitary matrix (tol 1e-12)")
    matrix = u @ df.matrix() @ u.conj().T
    return RotatedDirac(matrix=matrix, unitary=u)


def spectral_distance_general(
    matrix: np.ndarray,
    s1: InternalState,
    s2: InternalState,
) -> DistanceResult:
    """Distance under a general Hermitian internal Dirac operator.

    Diagonalizes the operator and applies :func:`spectral_distance` to the
    states transported into its eigenbasis.
    """
    m = ensure_hermitian(matrix)
    evals, vecs = np.linalg.eigh(m)
    df = FiniteDirac(float(evals[0]), float(evals[1]))
    t1 = make_state(vecs.conj().T @ _state_vector(s1))
    t2 = make_state(vecs.conj().T @ _state_vector(s2))
    return spectral_distance(df, t1, t2)
