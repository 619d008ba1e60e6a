"""Pure states of the two-level internal algebra and the spectral distance
between them.

States are normalized, phase-fixed vectors in C^2 carrying their Bloch
coordinates (x, y, z); z is the latitude and the polar angle in the x-y plane
the longitude. The distance is a constrained maximization over Hermitian 2x2
elements with commutator norm at most one. Pairs on different parallels of
latitude are infinitely far apart: the diagonal direction of the algebra
commutes with the internal Dirac operator, so nothing bounds it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clifford import ensure_hermitian
from .errors import NotUnitary, PoleState, ZeroVector

LATITUDE_TOL = 1e-9
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

    Construct through :func:`make_state`; the phase convention (first component
    above threshold real and nonnegative) makes instances canonical.
    """

    xi1: complex
    xi2: complex
    bloch: tuple[float, float, float]


def _state_vector(s: InternalState) -> np.ndarray:
    return np.array([s.xi1, s.xi2])


def make_state(v) -> InternalState:
    """Normalize and phase-fix a C^2 vector, computing Bloch coordinates
    x = 2 Re(conj(xi1) xi2), y = 2 Im(conj(xi1) xi2), z = |xi1|^2 - |xi2|^2."""
    arr = np.asarray(v, dtype=complex).reshape(2)
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
    cross = xi1.conjugate() * xi2
    bloch = (2.0 * cross.real, 2.0 * cross.imag, abs(xi1) ** 2 - abs(xi2) ** 2)
    return InternalState(xi1, xi2, bloch)


def state_on_parallel(z: float, theta: float) -> InternalState:
    """State at latitude z and angle theta on its parallel."""
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"latitude must lie in [-1, 1], got {z}")
    return make_state(
        [
            math.sqrt(0.5 * (1.0 + z)),
            cmath.exp(1j * theta) * math.sqrt(0.5 * (1.0 - z)),
        ]
    )


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


def states_close(s1: InternalState, s2: InternalState, tol: float) -> bool:
    """Bloch-vector proximity; the canonical way to compare states up to tol."""
    return math.dist(s1.bloch, s2.bloch) <= tol


def state_eval(s: InternalState, a: np.ndarray) -> float:
    """Evaluation of the state on a Hermitian element: xi* a xi."""
    a = ensure_hermitian(a)
    v = _state_vector(s)
    return float(np.real(v.conj() @ a @ v))


def commutator_norm(df: FiniteDirac, a: np.ndarray) -> float:
    """Operator norm of [D, a]; equals |d1 - d2| * |a12| for Hermitian a."""
    a = ensure_hermitian(a)
    d = df.matrix()
    return float(np.linalg.norm(d @ a - a @ d, 2))


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected-ascent controls for the spectral distance."""

    seed: int = 42
    n_starts: int = 32
    step: float = 0.1
    max_iter: int = 10_000
    tol: float = 1e-10
    diag_clip: float = 1e6


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


def _projector_difference(s1: InternalState, s2: InternalState) -> np.ndarray:
    v1, v2 = _state_vector(s1), _state_vector(s2)
    return np.outer(v1, v1.conj()) - np.outer(v2, v2.conj())


def spectral_distance(
    df: FiniteDirac,
    s1: InternalState,
    s2: InternalState,
    opts: OptimizerOptions | None = None,
) -> DistanceResult:
    """Supremum of |s1(a) - s2(a)| over Hermitian a with commutator norm <= 1.

    Latitude mismatch beyond 1e-9 is reported as infinite analytically (the
    unconstrained diagonal direction makes the objective unbounded; see
    :func:`divergence_witness` for a constructive certificate). Otherwise the
    value comes from seeded multi-start projected gradient ascent on the four
    real parameters (a11, a22, Re a12, Im a12); the feasible set is the product
    of a clipped box for the diagonal and the disk |a12| <= 1/|d1 - d2|. The
    diagonal moves ``step`` times its gradient per iteration and the disk
    coordinates ``step`` disk radii along theirs, so the iteration count grows
    only with the logarithm of distance / ``tol``.
    """
    opts = opts or OptimizerOptions()
    if abs(latitude(s1) - latitude(s2)) > LATITUDE_TOL:
        return DistanceResult.infinite()
    delta = _projector_difference(s1, s2)
    # objective is linear in (a11, a22, Re a12, Im a12)
    grad = np.array(
        [
            delta[0, 0].real,
            delta[1, 1].real,
            2.0 * delta[1, 0].real,
            -2.0 * delta[1, 0].imag,
        ]
    )
    radius = 1.0 / df.gap
    rng = np.random.default_rng(opts.seed)
    x = np.empty((opts.n_starts, 4))
    x[:, 0] = rng.uniform(-1.0, 1.0, opts.n_starts)
    x[:, 1] = rng.uniform(-1.0, 1.0, opts.n_starts)
    angles = rng.uniform(-math.pi, math.pi, opts.n_starts)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, opts.n_starts))
    x[:, 2] = radii * np.cos(angles)
    x[:, 3] = radii * np.sin(angles)
    # the disk coordinates move ``step`` radii per iteration along the
    # gradient's direction, so the angular error on the boundary shrinks by
    # the same factor whatever the gradient's size: near-identical states
    # take no more iterations than distant ones
    move = opts.step * grad
    disk = math.hypot(grad[2], grad[3])
    if disk > 0.0:
        move[2:] = (opts.step * radius) * (grad[2:] / disk)
    best = x @ grad
    for _ in range(opts.max_iter):
        x += move
        np.clip(x[:, :2], -opts.diag_clip, opts.diag_clip, out=x[:, :2])
        norms = np.hypot(x[:, 2], x[:, 3])
        over = norms > radius
        if np.any(over):
            scale = radius / norms[over]
            x[over, 2] *= scale
            x[over, 3] *= scale
        current = x @ grad
        improvement = float(np.max(current - best))
        best = np.maximum(best, current)
        if improvement < opts.tol:
            break
    return DistanceResult.finite(max(float(best.max()), 0.0))


def parallel_distance_closed_form(
    df: FiniteDirac, s1: InternalState, s2: InternalState
) -> float:
    """Closed form 2 sqrt(1 - z^2) |sin(dtheta / 2)| / |d1 - d2| for a pair on
    a shared parallel of latitude z.

    Derived from the optimizer geometry (chordal distance in the equatorial
    plane over the commutator radius); the test suite validates it against the
    numerical optimizer before it is trusted as an oracle anywhere.
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


def divergence_witness(
    df: FiniteDirac,
    s1: InternalState,
    s2: InternalState,
    threshold: float = 1e6,
    max_doublings: int = 120,
) -> float:
    """Constructive unboundedness certificate for a cross-latitude pair.

    Scales the diagonal element diag(c, -c), which commutes with the Dirac
    operator (so it is feasible at every scale), doubling c until the
    evaluation gap exceeds ``threshold``; returns the achieved gap.
    """
    dz = latitude(s1) - latitude(s2)
    if abs(dz) <= LATITUDE_TOL:
        raise ValueError("states share a parallel of latitude; the objective is bounded")
    scale = 1.0
    gain = 0.0
    for _ in range(max_doublings):
        a = np.diag([complex(scale), complex(-scale)])
        if commutator_norm(df, a) > 1.0:
            raise RuntimeError("diagonal witness unexpectedly infeasible")
        gain = abs(state_eval(s1, a) - state_eval(s2, a))
        if gain > threshold:
            return gain
        scale *= 2.0
    return gain


@dataclass(frozen=True, eq=False)
class RotatedDirac:
    """Unitary conjugate u D u* of a diagonal Dirac, with the induced state map."""

    matrix: np.ndarray
    unitary: np.ndarray
    note: str

    def map_state(self, s: InternalState) -> InternalState:
        return make_state(self.unitary @ _state_vector(s))

    def spectral_distance(
        self,
        s1: InternalState,
        s2: InternalState,
        opts: OptimizerOptions | None = None,
    ) -> DistanceResult:
        return spectral_distance_general(self.matrix, s1, s2, opts)


def unitary_conjugate(df: FiniteDirac, u: np.ndarray) -> RotatedDirac:
    """Conjugated Dirac operator u D u*; used to test rotation invariance."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-12:
        raise NotUnitary("conjugation requires a 2x2 unitary matrix (tol 1e-12)")
    matrix = u @ df.matrix() @ u.conj().T
    return RotatedDirac(
        matrix=matrix,
        unitary=u,
        note="states transform as xi -> u xi; all distances are invariant",
    )


def spectral_distance_general(
    matrix: np.ndarray,
    s1: InternalState,
    s2: InternalState,
    opts: OptimizerOptions | None = None,
) -> DistanceResult:
    """Distance under a general Hermitian internal Dirac operator.

    Diagonalizes the operator and runs the standard optimizer in its
    eigenbasis; the unitarily transported states feed the same ascent.
    """
    m = ensure_hermitian(matrix)
    evals, vecs = np.linalg.eigh(m)
    df = FiniteDirac(float(evals[0]), float(evals[1]))
    t1 = make_state(vecs.conj().T @ _state_vector(s1))
    t2 = make_state(vecs.conj().T @ _state_vector(s2))
    return spectral_distance(df, t1, t2, opts)
