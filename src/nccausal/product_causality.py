"""Causal structure on product states (event, internal state).

Implements the three-condition causal predicate (base order, shared parallel
of latitude, internal angular motion within the proper-time budget), reachable
longitude arcs, a curve-based oracle over the product metric, the 4x4
operator symbol of matrix-valued elements, and a separating-element search
certifying non-causality against the operator cone.

Every symbol comes from one batched assembly: a real combination of twelve
constant Hermitian blocks, weighted by the Pauli coordinates of the element's
value and gradient at each event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .clifford import ensure_hermitian, standard_basis
from .errors import GridTooSmall, NonCausalSegment, PoleState
from .finite_geometry import (
    LATITUDE_TOL,
    FiniteDirac,
    InternalState,
    is_pole,
    latitude,
    longitude,
    state_eval,
)
from .spacetime import (
    Event,
    Grid,
    _chord,
    causally_precedes,
    lorentzian_distance,
)

SPEED_SLACK = 1e-12
NSD_TOL = 1e-9
TWO_PI = 2.0 * math.pi

_PAULI_NAMES = ("id", "sz", "sx", "sy")
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]],
    dtype=complex,
)
_PAULI.setflags(write=False)


def _symbol_blocks(df: FiniteDirac) -> np.ndarray:
    """The constant Hermitian blocks A_j = -I (x) H_j, B_j = gamma_m (x) H_j and
    C_j = -i gamma1 (x) [D, H_j] of the Pauli basis H_j, shape (3, 4, 4, 4).

    They are j[D, a] = (i gamma0 (x) I)(-i gamma0 (x) da/dt - i gamma1 (x) da/dx
    + gamma_m (x) [D, a]) multiplied out for a = H_j: i gamma0 times -i gamma0,
    -i gamma1 and gamma_m gives -I, gamma_m and -i gamma1.
    """
    b = standard_basis()
    d = df.matrix()
    blocks = [
        [-np.kron(np.eye(2), h) for h in _PAULI],
        [np.kron(b.gamma_m, h) for h in _PAULI],
        [np.kron(-1j * b.gamma1, d @ h - h @ d) for h in _PAULI],
    ]
    return ensure_hermitian(np.array(blocks))


def _assemble_symbols(
    coef_t: np.ndarray, coef_x: np.ndarray, coef_v: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Symbols sum_j coef_t[j] A_j + coef_x[j] B_j + coef_v[j] C_j of shape
    (..., 4, 4) from the Pauli coordinates of da/dt, da/dx and a, (..., 4)
    each. Real coordinates of Hermitian blocks give Hermitian symbols."""
    a_blocks, b_blocks, c_blocks = blocks
    return (
        np.einsum("...j,jab->...ab", coef_t, a_blocks)
        + np.einsum("...j,jab->...ab", coef_x, b_blocks)
        + np.einsum("...j,jab->...ab", coef_v, c_blocks)
    )


@dataclass(frozen=True)
class ProductState:
    """A noncommutative event: a base event paired with an internal state."""

    event: Event
    internal: InternalState


def speed_bound(df: FiniteDirac) -> float:
    """The internal speed limit |d1 - d2|: angular distance per unit proper time."""
    return df.gap


def minimal_angle_gap(theta1: float, theta2: float) -> float:
    """Minimal angular distance between longitudes, in [0, pi].

    This is the single place where the winding convention lives: a longer
    winding path only loosens the speed constraint, so the minimal arc governs
    reachability.
    """
    d = (theta2 - theta1) % TWO_PI
    return min(d, TWO_PI - d)


def product_symbol(
    a_val: np.ndarray,
    da_dt: np.ndarray,
    da_dx: np.ndarray,
    df: FiniteDirac,
) -> np.ndarray:
    """Pointwise 4x4 symbol j[D, a] of a matrix-valued element from its value
    and gradient; stacks of shape (..., 2, 2) give symbols of shape (..., 4, 4).

    Each (validated Hermitian) input is expanded in Pauli coordinates
    0.5 tr(m H_j) and the symbol assembled from the constant blocks of
    :func:`_symbol_blocks`.
    """
    at, ax, a = (
        0.5 * np.einsum("...ab,jba->...j", ensure_hermitian(m), _PAULI).real
        for m in (da_dt, da_dx, a_val)
    )
    return _assemble_symbols(at, ax, a, _symbol_blocks(df))


class NotRelatedReason(Enum):
    BASE_NOT_CAUSAL = "base"
    LATITUDE_MISMATCH = "latitude"
    SPEED_LIMIT_EXCEEDED = "speed"


@dataclass(frozen=True)
class CausalVerdict:
    """Outcome of the causal predicate with the three condition diagnostics.

    ``delta_theta`` is None when the longitude clause is vacuous (a pole pair).
    """

    related: bool
    reason: Optional[NotRelatedReason]
    base_causal: bool
    latitude_gap: float
    delta_theta: Optional[float]
    theta_budget: float

    def __post_init__(self):
        if self.related != (self.reason is None):
            raise ValueError("reason must be present exactly when not related")

    @property
    def speed_margin(self) -> Optional[float]:
        if self.delta_theta is None:
            return None
        return self.theta_budget - self.delta_theta


def causally_related(
    w1: ProductState, w2: ProductState, df: FiniteDirac
) -> CausalVerdict:
    """Decide w1 <= w2: base events causally ordered, equal latitudes (within
    1e-9), and minimal angular gap within |d1 - d2| times the Lorentzian
    distance (slack 1e-12). The first failing condition names the reason.

    When both internal states sit at the same pole (within tolerance) the
    longitude clause is vacuous: no internal motion is possible or needed.
    """
    p, q = w1.event, w2.event
    base = causally_precedes(p, q)
    zgap = abs(latitude(w1.internal) - latitude(w2.internal))
    budget = speed_bound(df) * lorentzian_distance(p, q)
    pole_pair = is_pole(w1.internal) or is_pole(w2.internal)
    dtheta: Optional[float] = None
    if not pole_pair:
        dtheta = minimal_angle_gap(longitude(w1.internal), longitude(w2.internal))

    reason: Optional[NotRelatedReason] = None
    if not base:
        reason = NotRelatedReason.BASE_NOT_CAUSAL
    elif zgap > LATITUDE_TOL:
        reason = NotRelatedReason.LATITUDE_MISMATCH
    elif dtheta is not None and dtheta > budget + SPEED_SLACK:
        reason = NotRelatedReason.SPEED_LIMIT_EXCEEDED
    return CausalVerdict(
        related=reason is None,
        reason=reason,
        base_causal=base,
        latitude_gap=zgap,
        delta_theta=dtheta,
        theta_budget=budget,
    )


@dataclass(frozen=True)
class LongitudeArc:
    """Closed arc of longitudes on the circle: empty, a partial arc, or full."""

    kind: str  # "empty" | "arc" | "full"
    center: float = 0.0
    half_width: float = 0.0

    @classmethod
    def empty(cls) -> "LongitudeArc":
        return cls("empty")

    @classmethod
    def partial(cls, center: float, half_width: float) -> "LongitudeArc":
        return cls("arc", center, half_width)

    @classmethod
    def full(cls, center: float) -> "LongitudeArc":
        return cls("full", center, math.pi)

    @property
    def theta_min(self) -> float:
        if self.kind == "empty":
            return 0.0
        return self.center - self.half_width

    @property
    def theta_max(self) -> float:
        if self.kind == "empty":
            return 0.0
        return self.center + self.half_width

    def contains(self, theta: float) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "full":
            return True
        return minimal_angle_gap(self.center, theta) <= self.half_width + 1e-12


def reachable_longitudes(w: ProductState, q: Event, df: FiniteDirac) -> LongitudeArc:
    """Arc of longitudes reachable at the target event q from the product
    state w: half-width |d1 - d2| * Lorentzian distance around the source
    longitude; empty when q is not in the causal future of the base event;
    the full circle once the half-width reaches pi."""
    if is_pole(w.internal):
        raise PoleState("no internal motion is possible at a pole")
    p = w.event
    if not causally_precedes(p, q):
        return LongitudeArc.empty()
    center = longitude(w.internal)
    half = speed_bound(df) * lorentzian_distance(p, q)
    if half >= math.pi:
        return LongitudeArc.full(center)
    return LongitudeArc.partial(center, half)


@dataclass(frozen=True)
class ProductCurve:
    """Piecewise-linear curve in the product of the plane and a parallel.

    The angle coordinate is unwrapped (winding allowed). Validity requires the
    base projection to be future-directed causal and each segment to satisfy
    (dtheta)^2 <= (d1 - d2)^2 (dt^2 - dx^2).
    """

    vertices: tuple[tuple[Event, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", tuple((e, float(th)) for e, th in self.vertices)
        )
        if len(self.vertices) < 2:
            raise ValueError("a product curve needs at least two vertices")

    def validate(self, df: FiniteDirac, tol: float = 0.0) -> None:
        gap2 = df.gap * df.gap
        for i in range(len(self.vertices) - 1):
            (a, tha), (b, thb) = self.vertices[i], self.vertices[i + 1]
            dt = b.t - a.t
            dx = b.x - a.x
            if dt <= 0.0 or dt < abs(dx):
                raise NonCausalSegment(i, f"segment {i}: base step not causal")
            dth = thb - tha
            if dth * dth > gap2 * (dt * dt - dx * dx) + tol:
                raise NonCausalSegment(
                    i, f"segment {i}: internal angular speed exceeds the bound"
                )


def _lift_curve(
    base_vertices: list[Event], theta_start: float, delta_theta: float
) -> ProductCurve:
    """Lift a base curve to the product by spreading the angular displacement
    proportionally to per-segment proper time."""
    taus = []
    for i in range(len(base_vertices) - 1):
        a, b = base_vertices[i], base_vertices[i + 1]
        dt = b.t - a.t
        dx = b.x - a.x
        taus.append(math.sqrt(max(dt * dt - dx * dx, 0.0)))
    total = sum(taus)
    verts = [(base_vertices[0], theta_start)]
    acc = 0.0
    for i, tau in enumerate(taus):
        acc += tau
        frac = acc / total if total > 0.0 else 1.0
        verts.append((base_vertices[i + 1], theta_start + delta_theta * frac))
    return ProductCurve(tuple(verts))


def curve_oracle(
    w1: ProductState,
    w2: ProductState,
    df: FiniteDirac,
    n_segments: int = 6,
    *,
    slack: float = 1e-3,
) -> bool:
    """Curve-based test for a product curve from w1 to w2.

    Takes the base chord from p to q in ``n_segments`` pieces, which has the
    maximal proper time, then checks whether some angular displacement
    (winding k in {-1, 0, 1}) fits within the speed bound times that proper
    time, up to the slack. When it fits, the chord is lifted to an explicit
    product curve, which must pass :meth:`ProductCurve.validate`.
    Independent of :func:`causally_related`, against which it is compared in
    the test suite.
    """
    p, q = w1.event, w2.event
    if not causally_precedes(p, q):
        return False
    if abs(latitude(w1.internal) - latitude(w2.internal)) > LATITUDE_TOL:
        return False  # internal motion is confined to one parallel
    tau, base_vertices = _chord(p, q, n_segments)
    budget = speed_bound(df) * tau
    if is_pole(w1.internal) or is_pole(w2.internal):
        return True  # same pole within tolerance: constant internal leg
    th1 = longitude(w1.internal)
    th2 = longitude(w2.internal)
    deltas = [th2 - th1 + TWO_PI * k for k in (-1, 0, 1)]
    delta = min(deltas, key=abs)
    if abs(delta) > budget + slack:
        return False
    if abs(delta) <= budget and tau > 0.0:
        # materialize the witness curve and check it satisfies the invariant
        lifted = _lift_curve(base_vertices, th1, delta)
        lifted.validate(df, tol=1e-9)
    return True


# --------------------------------------------------------------------------
# Separating elements: dictionary, cone certification, and the search
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Bounded smooth scalar profile with an analytic gradient."""

    name: str
    value: Callable[[Event], float]
    gradient: Callable[[Event], tuple[float, float]]


def _const_profile() -> Profile:
    return Profile("const", lambda e: 1.0, lambda e: (0.0, 0.0))


def _boost_tanh_profile(beta: float, tc: float = 0.0, xc: float = 0.0) -> Profile:
    """tanh of a boosted time coordinate, shifted to transition at (tc, xc).

    Causal for every rapidity: the gradient is sech^2 * (cosh beta, sinh beta)
    and cosh > |sinh|. Centering keeps the transition between the probed
    events, where the profile actually separates them.
    """
    ch, sh = math.cosh(beta), math.sinh(beta)

    def value(e: Event) -> float:
        return math.tanh(ch * (e.t - tc) + sh * (e.x - xc))

    def gradient(e: Event) -> tuple[float, float]:
        u = value(e)
        s = 1.0 - u * u
        return (s * ch, s * sh)

    return Profile(f"tanh_boost[{beta:g}]@({tc:g},{xc:g})", value, gradient)


def _bump_profile(tc: float, xc: float, width: float) -> Profile:
    w2 = width * width

    def value(e: Event) -> float:
        dt = e.t - tc
        dx = e.x - xc
        return math.exp(-(dt * dt + dx * dx) / (2.0 * w2))

    def gradient(e: Event) -> tuple[float, float]:
        v = value(e)
        return (-(e.t - tc) / w2 * v, -(e.x - xc) / w2 * v)

    return Profile(f"bump[{tc:g},{xc:g};{width:g}]", value, gradient)


@dataclass(frozen=True, eq=False)
class ElementDictionary:
    """Profiles times the Pauli basis (id, sz, sx, sy); atom k is profile
    k // 4 times Pauli matrix k % 4."""

    profiles: tuple[Profile, ...]

    @property
    def size(self) -> int:
        return len(self.profiles) * len(_PAULI)

    def atom(self, k: int) -> tuple[Profile, np.ndarray]:
        i, j = divmod(k, len(_PAULI))
        return self.profiles[i], _PAULI[j]

    def atom_name(self, k: int) -> str:
        i, j = divmod(k, len(_PAULI))
        return f"{self.profiles[i].name}*{_PAULI_NAMES[j]}"


BETA_GRID = (0.0, 0.75, -0.75, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)


def default_dictionary(p: Event, q: Event) -> ElementDictionary:
    """Profiles: the constant, tanh of boosted time coordinates (rapidities
    ``BETA_GRID``), and bumps centered between the two events."""
    sep = math.hypot(q.t - p.t, q.x - p.x)
    width = max(sep, 1.0)
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    profiles = (
        [_const_profile()]
        + [_boost_tanh_profile(b, tc, xc) for b in BETA_GRID]
        + [_bump_profile(tc, xc, width), _bump_profile(tc, xc, 0.5 * width)]
    )
    return ElementDictionary(profiles=tuple(profiles))


@dataclass(frozen=True, eq=False)
class CausalElement:
    """Matrix-valued function a(t, x) = sum_k c_k u_k(t, x) H_k."""

    dictionary: ElementDictionary
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.dictionary.size,):
            raise ValueError(
                f"expected {self.dictionary.size} coefficients, got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def value_at(self, e: Event) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for k, c in enumerate(self.coefficients):
            if c == 0.0:
                continue
            prof, mat = self.dictionary.atom(k)
            out += c * prof.value(e) * mat
        return out

    def max_symbol_eigenvalue(self, grid: Grid, df: FiniteDirac) -> float:
        """Largest eigenvalue of the symbol over all grid events."""
        tables = _dictionary_tables(self.dictionary, grid.events())
        return _max_eigenvalue(self.coefficients, tables, _symbol_blocks(df))

    def is_certified(self, grid: Grid, df: FiniteDirac) -> bool:
        """Membership certificate for the operator cone: the symbol is negative
        semidefinite (within ``NSD_TOL``) at every grid point."""
        return self.max_symbol_eigenvalue(grid, df) <= NSD_TOL

    def eval_state(self, w: ProductState) -> float:
        return state_eval(w.internal, self.value_at(w.event))

    def describe(self) -> str:
        parts = [
            f"{c:+.6g}*{self.dictionary.atom_name(k)}"
            for k, c in enumerate(self.coefficients)
            if abs(c) > 1e-12
        ]
        return " ".join(parts) if parts else "0"


SEARCH_SEED = 42
SEARCH_ITERATIONS = 120
PENALTY_WEIGHTS = (1e3, 1e5)
SEARCH_STEP = 0.05
WITNESS_TOL = 1e-6


def _dictionary_tables(
    dictionary: ElementDictionary, events: list[Event]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_e, n_p = len(events), len(dictionary.profiles)
    u = np.empty((n_e, n_p))
    ut = np.empty((n_e, n_p))
    ux = np.empty((n_e, n_p))
    for j, prof in enumerate(dictionary.profiles):
        for i, e in enumerate(events):
            u[i, j] = prof.value(e)
            ut[i, j], ux[i, j] = prof.gradient(e)
    return u, ut, ux


def _element_symbols(
    coeffs: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    blocks: np.ndarray,
) -> np.ndarray:
    """Symbols of sum_k c_k u_k H_k at every tabulated event, shape (n_e, 4, 4)."""
    u, ut, ux = tables
    c2 = coeffs.reshape(-1, len(_PAULI))
    return _assemble_symbols(ut @ c2, ux @ c2, u @ c2, blocks)


def _max_eigenvalue(
    coeffs: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    blocks: np.ndarray,
) -> float:
    symbols = _element_symbols(coeffs, tables, blocks)
    return float(np.max(np.linalg.eigvalsh(symbols)[:, -1]))


def separating_element_search(
    w1: ProductState,
    w2: ProductState,
    df: FiniteDirac,
    dictionary: ElementDictionary | None = None,
    grid: Grid | None = None,
) -> Optional[CausalElement]:
    """Search for a cone element a with w2(a) - w1(a) < -1e-6.

    Such an element proves the states are not causally related (a returned
    witness is re-verified negative semidefinite pointwise on the grid before
    being accepted). ``None`` means no witness was found within budget, which
    by itself is inconclusive.

    The search scans the signed dictionary atoms exactly, then runs a penalty
    method on the coefficient box: minimize the evaluation gap plus a weight
    times the squared positive part of the largest symbol eigenvalue over the
    grid, with exact re-verification of the final candidate.
    """
    p, q = w1.event, w2.event
    if dictionary is None:
        dictionary = default_dictionary(p, q)
    sep = math.hypot(q.t - p.t, q.x - p.x)
    if grid is None:
        grid = Grid.covering(p, q, margin=sep + 1.0, n_t=13, n_x=13)
    else:
        slack = 1e-9
        if (
            grid.t_min > min(p.t, q.t) - sep + slack
            or grid.t_max < max(p.t, q.t) + sep - slack
            or grid.x_min > min(p.x, q.x) - sep + slack
            or grid.x_max < max(p.x, q.x) + sep - slack
        ):
            raise GridTooSmall(
                "grid must cover both events with margin at least their separation"
            )

    events = grid.events()
    tables = _dictionary_tables(dictionary, events)
    blocks = _symbol_blocks(df)
    n_mat = len(_PAULI)
    k_total = dictionary.size

    # objective vector: gap[k] = w2(u_k H_k) - w1(u_k H_k), linear in coefficients
    gap = np.empty(k_total)
    for k in range(k_total):
        prof, mat = dictionary.atom(k)
        gap[k] = prof.value(q) * state_eval(w2.internal, mat) - prof.value(
            p
        ) * state_eval(w1.internal, mat)

    best_obj = 0.0
    best_c: Optional[np.ndarray] = None

    # pass 1: signed single atoms (the extreme points of the coefficient box)
    for k in range(k_total):
        for sign in (1.0, -1.0):
            obj = sign * gap[k]
            if obj >= -WITNESS_TOL or obj >= best_obj:
                continue
            c = np.zeros(k_total)
            c[k] = sign
            if _max_eigenvalue(c, tables, blocks) <= NSD_TOL:
                best_obj = obj
                best_c = c

    # pass 2: penalty method over the full coefficient box
    if best_c is None:
        abc = blocks.reshape(-1, 4, 4)  # (3 * n_mat, 4, 4) stacked for quad forms
        u, ut, ux = tables
        rng = np.random.default_rng(SEARCH_SEED)
        c = 0.01 * rng.standard_normal(k_total)
        for weight in PENALTY_WEIGHTS:
            for it in range(SEARCH_ITERATIONS):
                vals, vecs = np.linalg.eigh(_element_symbols(c, tables, blocks))
                lam = vals[:, -1]
                grad = gap.copy()
                active = np.nonzero(lam > 0.0)[0]
                if active.size:
                    # top eigenvectors where the penalty is live
                    tops = vecs[active, :, -1]
                    quads = np.einsum(
                        "ea,mab,eb->em", tops.conj(), abc, tops
                    ).real  # (n_active, 3 * n_mat)
                    w = 2.0 * weight * lam[active]
                    qa = w[:, None] * quads[:, :n_mat]
                    qb = w[:, None] * quads[:, n_mat : 2 * n_mat]
                    qc = w[:, None] * quads[:, 2 * n_mat :]
                    contrib = (
                        ut[active].T @ qa + ux[active].T @ qb + u[active].T @ qc
                    )
                    grad += contrib.ravel()
                c = np.clip(c - SEARCH_STEP / math.sqrt(1.0 + it) * grad, -1.0, 1.0)
        obj = float(gap @ c)
        if (
            obj < -WITNESS_TOL
            and obj < best_obj
            and _max_eigenvalue(c, tables, blocks) <= NSD_TOL
        ):
            best_obj = obj
            best_c = c

    if best_c is None:
        return None
    return CausalElement(dictionary=dictionary, coefficients=best_c)
