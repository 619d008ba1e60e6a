"""Causal structure on product states (event, internal state).

Implements the three-condition causal predicate (base order, shared parallel
of latitude, internal angular motion within the proper-time budget), reachable
longitude arcs, a curve-based oracle over the product metric, the 4x4
operator symbol of matrix-valued elements, and a separating-element search
certifying non-causality against the operator cone.

Every symbol comes from one batched assembly: one matrix product of the
Pauli coordinates of the element's value and gradient at each event with
twelve Hermitian blocks. They are built once, at import: the eight of the
gradient are constants, and the four of the value are the gap d1 - d2 times
constants, because [D, H] = (d1 - d2)/2 [sz, H]. A cone element is one
spacetime scalar field times one constant Hermitian matrix, so its symbols
over a grid are the field's jet, tabulated in one array call, times the
matrix's Pauli coordinates, and its value on a state is the field's value
times the matrix's in Bloch form.

The separating search answers in closed form, from the first failing clause.
A base failure is refuted by tanh of a boosted time coordinate times the
identity, whose symbol has eigenvalues -sech^2 e^-|beta| <= 0 on the whole
plane; a latitude failure by the constant +-sz, which commutes with D_F and
so has a zero symbol. A pair whose base is causal and whose latitudes agree
gets no witness: that search is open.

The predicate, the curve oracle and the reachable arcs each have two entry
points with one set of formulas: one pair or event at a time (the API of
single answers, and the tests' oracle), and a stack of pairs or a whole
grid as arrays, which the verify gate and `scan` use. The array predicate
and oracle take the Bloch coordinates of the states and answer as the
scalar forms do, bit for bit: the predicate every field of its verdict, the
oracle its chord, its lifted curve's check and its errors. Where numpy's
array arctan2 can round differently from ``math.atan2``, the longitudes go
through the scalar function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .clifford import ensure_hermitian, standard_basis
from .errors import CoordinateOverflow, GridTooSmall, NonCausalSegment, PoleState
from .finite_geometry import (
    LATITUDE_TOL,
    POLE_TOL,
    FiniteDirac,
    InternalState,
    _mapped,
    is_pole,
    latitude,
    longitude,
)
from .spacetime import (
    NSD_TOL,
    Event,
    Grid,
    ScalarField,
    _check_segment_count,
    _chord,
    _chords,
    _scaled,
    causal_future,
    causal_order,
    causally_precedes,
    lorentzian_distance,
)

SPEED_SLACK = 1e-12
ORACLE_SLACK = 1e-3
TWO_PI = 2.0 * math.pi

_PAULI_NAMES = ("id", "sz", "sx", "sy")
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]],
    dtype=complex,
)
_PAULI.setflags(write=False)


def _constant_blocks() -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian blocks of the Pauli basis H_j that do not depend on D_F:
    -i gamma1 (x) [D, H_j] per unit gap d1 - d2, shape (4, 4, 4), and
    -I (x) H_j for da/dt and gamma_m (x) H_j for da/dx, shape (2, 4, 4, 4).

    They are j[D, a] = (i gamma0 (x) I)(-i gamma0 (x) da/dt - i gamma1 (x) da/dx
    + gamma_m (x) [D, a]) multiplied out for a = H_j: i gamma0 times -i gamma0,
    -i gamma1 and gamma_m gives -I, gamma_m and -i gamma1. Writing
    D = (d1 + d2)/2 I + (d1 - d2)/2 sz gives [D, H] = (d1 - d2)/2 [sz, H].
    """
    b = standard_basis()
    sz = _PAULI[1]
    unit_gap = [np.kron(-1j * b.gamma1, 0.5 * (sz @ h - h @ sz)) for h in _PAULI]
    gradient = [
        [-np.kron(np.eye(2), h) for h in _PAULI],
        [np.kron(b.gamma_m, h) for h in _PAULI],
    ]
    blocks = ensure_hermitian(np.array(unit_gap)), ensure_hermitian(np.array(gradient))
    for m in blocks:
        m.setflags(write=False)
    return blocks


_UNIT_GAP_BLOCKS, _GRADIENT_BLOCKS = _constant_blocks()


def _symbol_blocks(df: FiniteDirac) -> np.ndarray:
    """The Hermitian blocks of the Pauli basis H_j for D_F, shape (3, 4, 4, 4),
    in the order of the coordinates they weight: -i gamma1 (x) [D, H_j] for a,
    -I (x) H_j for da/dt and gamma_m (x) H_j for da/dx. Only the first set
    depends on D_F, as the gap d1 - d2 times :func:`_constant_blocks`'s unit
    blocks; adding +0.0 clears the sign that a negative gap puts on their
    zero parts."""
    scaled = (df.d1 - df.d2) * _UNIT_GAP_BLOCKS + 0.0
    return np.concatenate([scaled[None], _GRADIENT_BLOCKS])


def _assemble_symbols(coords: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Symbols sum_ij coords[..., i, j] blocks[i, j] of shape (..., 4, 4) from
    the Pauli coordinates (..., 3, 4) of a, da/dt and da/dx, in one matrix
    product. Real coordinates of Hermitian blocks give Hermitian symbols."""
    lead = coords.shape[:-2]
    flat = coords.reshape(lead + (12,)) @ blocks.reshape(12, 16)
    return flat.reshape(lead + (4, 4))


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
    0.5 tr(m H_j) and the symbol assembled from the blocks of
    :func:`_symbol_blocks`: module constants, those of the value scaled by
    the gap d1 - d2.
    """
    coords = np.stack(
        [
            0.5 * np.einsum("...ab,jba->...j", ensure_hermitian(m), _PAULI).real
            for m in (a_val, da_dt, da_dx)
        ],
        axis=-2,
    )
    return _assemble_symbols(coords, _symbol_blocks(df))


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


class ProductStates(NamedTuple):
    """A stack of product states as arrays of one shape: the events'
    coordinates (t, x) and the internal states' Bloch coordinates (x, y, z),
    as :func:`nccausal.finite_geometry.parallel_bloch` returns them."""

    event: tuple[np.ndarray, np.ndarray]
    bloch: tuple[np.ndarray, np.ndarray, np.ndarray]


class CausalVerdicts(NamedTuple):
    """The fields of :class:`CausalVerdict` over a stack of pairs, one array
    each: ``reason`` holds a :class:`NotRelatedReason` or None per pair, and
    ``delta_theta`` is nan where the longitude clause is vacuous."""

    related: np.ndarray
    reason: np.ndarray
    base_causal: np.ndarray
    latitude_gap: np.ndarray
    delta_theta: np.ndarray
    theta_budget: np.ndarray


def _longitudes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`nccausal.finite_geometry.longitude` of Bloch coordinates x and
    y, element by element through ``math.atan2`` (numpy's array arctan2 can
    differ in the last bit), with no pole check."""
    theta = _mapped(math.atan2, y, x)
    return np.where(theta <= -math.pi, theta + 2.0 * math.pi, theta)


def causal_verdicts(w1: ProductStates, w2: ProductStates, df: FiniteDirac) -> CausalVerdicts:
    """:func:`causally_related` pair by pair over two stacks of product
    states, with its formulas, bit for bit: the base order and distance of
    :func:`nccausal.spacetime.causal_order`, the latitude gap, the pole
    test, and :func:`minimal_angle_gap` of the two longitudes against the
    budget plus ``SPEED_SLACK``. The first failing clause names each reason.
    A distance beyond the double range raises :class:`CoordinateOverflow`,
    as the scalar predicate does.
    """
    base, tau = causal_order(w1.event, w2.event)
    x1, y1, z1, x2, y2, z2, base, tau = np.broadcast_arrays(*w1.bloch, *w2.bloch, base, tau)
    zgap = np.abs(z1 - z2)
    with np.errstate(over="ignore"):
        budget = speed_bound(df) * tau
    pole_pair = (np.abs(z1) >= 1.0 - POLE_TOL) | (np.abs(z2) >= 1.0 - POLE_TOL)
    d = np.remainder(_longitudes(x2, y2) - _longitudes(x1, y1), TWO_PI)
    dtheta = np.minimum(d, TWO_PI - d)

    latitude_fails = zgap > LATITUDE_TOL
    speed_fails = ~pole_pair & (dtheta > budget + SPEED_SLACK)
    reason = np.select(
        [~base, latitude_fails, speed_fails],
        [
            NotRelatedReason.BASE_NOT_CAUSAL,
            NotRelatedReason.LATITUDE_MISMATCH,
            NotRelatedReason.SPEED_LIMIT_EXCEEDED,
        ],
        None,
    )
    return CausalVerdicts(
        related=base & ~latitude_fails & ~speed_fails,
        reason=reason,
        base_causal=base,
        latitude_gap=zgap,
        delta_theta=np.where(pole_pair, np.nan, dtheta),
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


def reachable_grid(
    w: ProductState, grid: Grid, df: FiniteDirac
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`reachable_longitudes` at every event of the grid, t-major, as
    three flat arrays: theta_min, theta_max and the kind as a flag (0 empty,
    1 arc, 2 full), bit for bit the scalar answers and errors."""
    if is_pole(w.internal):
        raise PoleState("no internal motion is possible at a pole")
    precedes, tau = causal_future(w.event, grid)
    center = longitude(w.internal)
    with np.errstate(over="ignore"):
        half = speed_bound(df) * tau
    full = half >= math.pi
    half = np.where(full, math.pi, half)
    flag = np.where(precedes, np.where(full, 2, 1), 0)
    return (
        np.where(precedes, center - half, 0.0),
        np.where(precedes, center + half, 0.0),
        flag,
    )


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
            if dt <= 0.0 or not causally_precedes(a, b):
                raise NonCausalSegment(i, f"segment {i}: base step not causal")
            dth = thb - tha
            interval = dt * dt - dx * dx
            if not math.isfinite(interval):  # compare the roots instead
                too_fast = abs(dth) > df.gap * lorentzian_distance(a, b)
            else:
                too_fast = dth * dth > gap2 * interval + tol
            if too_fast:
                raise NonCausalSegment(
                    i, f"segment {i}: internal angular speed exceeds the bound"
                )


def _lift_curve(
    base_vertices: list[Event], theta_start: float, delta_theta: float
) -> ProductCurve:
    """Lift a base curve to the product by spreading the angular displacement
    proportionally to per-segment proper time."""
    taus = [lorentzian_distance(a, b) for a, b in zip(base_vertices, base_vertices[1:])]
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
) -> bool:
    """Curve-based test for a product curve from w1 to w2.

    Takes the base chord from p to q in ``n_segments`` pieces, which has the
    maximal proper time, then checks whether some angular displacement
    (winding k in {-1, 0, 1}) fits within the speed bound times that proper
    time, up to ``ORACLE_SLACK``. When it fits, the chord is lifted to an
    explicit product curve, which must pass :meth:`ProductCurve.validate`.
    Independent of :func:`causally_related`, against which it is compared in
    the test suite; the verify gate compares the predicate with its stacked
    form, :func:`curve_oracles`. ``n_segments`` must be an int of at least
    1, or ValueError is raised whatever the pair.
    """
    _check_segment_count(n_segments)
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
    if abs(delta) > budget + ORACLE_SLACK:
        return False
    if abs(delta) <= budget and tau > 0.0:
        # materialize the witness curve and check it satisfies the invariant
        lifted = _lift_curve(base_vertices, th1, delta)
        lifted.validate(df, tol=1e-9)
    return True


def curve_oracles(
    w1: ProductStates, w2: ProductStates, df: FiniteDirac, n_segments: int = 6
) -> np.ndarray:
    """:func:`curve_oracle` pair by pair over two stacks of product states,
    as a boolean array of their broadcast shape, bit for bit, with its
    errors: the first pair in flat order whose proper time overflows raises
    :class:`CoordinateOverflow`. The pairs that fit the budget strictly are
    lifted as :func:`_lift_curve` lifts them and checked in one pass; the
    first failing one is rebuilt as a :class:`ProductCurve` and validated,
    which raises its :class:`NonCausalSegment`."""
    arrays = (np.asarray(c, dtype=float) for c in (*w1.event, *w2.event, *w1.bloch, *w2.bloch))
    columns = np.broadcast_arrays(*arrays)
    pt, px, qt, qx, x1, y1, z1, x2, y2, z2 = (c.ravel() for c in columns)
    related = np.zeros(pt.size, dtype=bool)
    rows = np.flatnonzero(~(np.abs(z1 - z2) > LATITUDE_TOL))
    p, q = np.stack([pt, px])[:, rows], np.stack([qt, qx])[:, rows]
    precedes, tau, v, fallback = _chords(p, q, n_segments)
    rows, tau, v, fallback = rows[precedes], tau[precedes], v[:, precedes], fallback[precedes]
    x1, y1, z1, x2, y2, z2 = (c[rows] for c in (x1, y1, z1, x2, y2, z2))
    with np.errstate(over="ignore", invalid="ignore"):
        budget = speed_bound(df) * tau
        pole = (np.abs(z1) >= 1.0 - POLE_TOL) | (np.abs(z2) >= 1.0 - POLE_TOL)
        th1 = _longitudes(x1, y1)
        windings = (_longitudes(x2, y2) - th1)[:, None] + TWO_PI * np.array([-1.0, 0.0, 1.0])
        delta = windings[np.arange(len(rows)), np.argmin(np.abs(windings), axis=1)]
        related[rows] = pole | ~(np.abs(delta) > budget + ORACLE_SLACK)

        lift = ~pole & (np.abs(delta) <= budget) & (tau > 0.0)
        v, fallback, th1, delta = v[:, lift], fallback[lift], th1[lift], delta[lift]
        causal, piece = causal_order(v[..., :-1], v[..., 1:])
        acc = np.cumsum(piece, axis=1)  # a fallback chord's pieces past [p, q] are empty
        frac = np.where(acc[:, -1:] > 0.0, acc / acc[:, -1:], 1.0)
        theta = np.concatenate([th1[:, None], th1[:, None] + delta[:, None] * frac], axis=1)
        (dt, dx), dth = np.diff(v), np.diff(theta)
        interval = dt * dt - dx * dx
        too_fast = np.where(
            np.isfinite(interval),
            dth * dth > df.gap * df.gap * interval + 1e-9,
            np.abs(dth) > df.gap * piece,
        )
    active = ~fallback[:, None] | (np.arange(dt.shape[1]) == 0)
    bad = active & ((dt <= 0.0) | ~causal | too_fast)
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        m = 2 if fallback[r] else v.shape[2]
        events = map(Event, *v[:, r, :m].tolist())
        ProductCurve(tuple(zip(events, theta[r, :m].tolist()))).validate(df, tol=1e-9)
        raise RuntimeError("stacked and scalar checks of a lifted curve disagree")
    return related.reshape(columns[0].shape)


# --------------------------------------------------------------------------
# Separating elements: profiles, cone certification, and the search
# --------------------------------------------------------------------------


def _const_jet(t, x):
    # a single event (eval_state) gets plain floats, without numpy's array
    # constructors
    if isinstance(t, float):
        return 1.0, 0.0, 0.0
    return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


def _const_profile() -> ScalarField:
    return ScalarField(_const_jet, "const")


def _boost_tanh_profile(beta: float, tc: float = 0.0, xc: float = 0.0) -> ScalarField:
    """tanh of a boosted time coordinate, shifted to transition at (tc, xc).

    Causal for every rapidity: the gradient is sech^2 * (cosh beta, sinh beta)
    and cosh > |sinh|. Centering keeps the transition between the probed
    events, where the profile actually separates them.
    """
    ch, sh = math.cosh(beta), math.sinh(beta)

    def jet(t, x):
        u = np.tanh(ch * (t - tc) + sh * (x - xc))
        s = 1.0 - u * u
        return u, s * ch, s * sh

    return ScalarField(jet, f"tanh_boost[{beta:g}]@({tc:g},{xc:g})")


@dataclass(frozen=True, eq=False)
class CausalElement:
    """Matrix-valued function a(t, x) = u(t, x) H: one scalar profile u times
    the constant Hermitian matrix H whose Pauli coordinates, in the order
    (id, sz, sx, sy), are ``pauli``."""

    profile: ScalarField
    pauli: np.ndarray

    def __post_init__(self):
        c = np.array(self.pauli, dtype=float)
        if c.shape != (len(_PAULI),) or not np.all(np.isfinite(c)):
            raise ValueError(f"expected {len(_PAULI)} finite Pauli coordinates, got {c}")
        c.setflags(write=False)
        object.__setattr__(self, "pauli", c)

    def max_symbol_eigenvalue(self, grid: Grid, df: FiniteDirac) -> float:
        """Largest eigenvalue of the symbol over all grid events."""
        jet = np.stack(self.profile.jet(*grid.coordinates()), axis=-1)
        symbols = _assemble_symbols(jet[:, :, None] * self.pauli, _symbol_blocks(df))
        return float(np.max(np.linalg.eigvalsh(symbols)[:, -1]))

    def is_certified(self, grid: Grid, df: FiniteDirac) -> bool:
        """Membership certificate for the operator cone: the symbol is negative
        semidefinite (within ``NSD_TOL``) at every grid point."""
        return self.max_symbol_eigenvalue(grid, df) <= NSD_TOL

    def eval_state(self, w: ProductState) -> float:
        """The state's value u(t, x) <xi| H |xi> in Bloch form,
        u c_id + u c_z z + u c_x x + u c_y y."""
        u = float(self.profile.jet(w.event.t, w.event.x)[0])
        c_id, c_z, c_x, c_y = self.pauli.tolist()
        x, y, z = w.internal.bloch
        return u * c_id + u * c_z * z + u * c_x * x + u * c_y * y

    def describe(self) -> str:
        parts = [
            f"{c:+.6g}*{self.profile.name}*{name}"
            for c, name in zip(self.pauli, _PAULI_NAMES)
            if abs(c) > 1e-12
        ]
        return " ".join(parts) if parts else "0"


WITNESS_TOL = 1e-6
# The base witness's rapidity: at least 4, the steepest boosted tanh atom of
# verify's cone-monotonicity row, and that far past the root of the gain.
# Like those atoms, the witness is in the cone on the whole plane by the
# closed form of its symbol's eigenvalues, -f_t +- |f_x| = -sech^2 e^-|beta|.
# The rapidity is capped where a grid certificate still rounds below
# NSD_TOL: the symbol's entries grow as cosh(beta) while its largest
# eigenvalue shrinks as sech^2 e^-|beta|, and from |beta| of about 18 the
# rounding of the symbol and of its 4x4 eigensolve outweighs it.
WITNESS_RAPIDITY = 4.0
WITNESS_BOOST_CAP = 16.0


def _witness_rapidity(p: Event, q: Event) -> float:
    """Rapidity of the boosted-tanh witness for a pair where p does not
    precede q.

    In light-cone form, u = dt + dx and v = dt - dx with at least one of them
    negative, the gain 0.5 * (u e^beta + v e^-beta) of the boosted time falls
    toward beta = +inf when u < 0 and toward -inf when v < 0; the side with
    the more negative term is taken. When u and v have opposite signs the
    gain is negative only past its root 0.5 * ln(-v / u), so the rapidity
    goes ``WITNESS_RAPIDITY`` past the root, and never closer to 0 than
    ``WITNESS_RAPIDITY``. The gain is monotone beyond, so no rapidity on that
    side of magnitude at most ``WITNESS_RAPIDITY`` gives a more negative one.
    Only the signs of u and v and their ratio matter, so an overflowing pair
    is scaled.
    """
    dt, dx = q.t - p.t, q.x - p.x
    u, v = dt + dx, dt - dx
    if not (math.isfinite(u) and math.isfinite(v)):
        return _witness_rapidity(_scaled(p), _scaled(q))
    side = 1.0 if u < v else -1.0
    reach = WITNESS_RAPIDITY
    if min(u, v) < 0.0 < max(u, v):  # spacelike: past the root on that side
        reach += max(0.0, side * 0.5 * (math.log(abs(v)) - math.log(abs(u))))
    return side * min(reach, WITNESS_BOOST_CAP)


def separating_element_search(
    w1: ProductState,
    w2: ProductState,
    df: FiniteDirac,
    grid: Grid | None = None,
) -> Optional[CausalElement]:
    """Search for a cone element a with w2(a) - w1(a) < -WITNESS_TOL.

    Such an element proves the states are not causally related. The
    candidate is a closed form for the first failing clause, in the order of
    :func:`causally_related`:

    - base order: ``+tanh(t cosh beta + x sinh beta) * id`` centred between
      the events, at the rapidity of :func:`_witness_rapidity`. Its symbol
      is -f_t I + f_x (gamma_m (x) I), whose eigenvalues
      -f_t +- |f_x| = -sech^2 e^-|beta| are <= 0 on the whole plane.
    - latitude: the constant ``sign(z1 - z2) * sz``, whose symbol is zero
      because it commutes with D_F; its gap is exactly -|z1 - z2|.

    The candidate is returned when its gap is below ``-WITNESS_TOL``. A pair
    whose base is causal and whose latitudes agree (a speed-limit failure or
    a related pair) returns ``None`` at once: no atom u H with
    H = c0 id + cz sz in the cone separates it, since its symbol's
    eigenvalues (-u_t +- |u_x|)(c0 +- cz) put it in the cone only when u is
    constant or +-u is causal with +-H positive semidefinite, so ``None`` by
    itself is inconclusive.

    Neither closed form depends on ``df``, and no work depends on ``grid``.
    When a grid is passed it must cover both events with margin at least
    their separation, or :class:`GridTooSmall` is raised. A base witness
    whose evaluation leaves the double range raises
    :class:`CoordinateOverflow`.
    """
    p, q = w1.event, w2.event
    if grid is not None:
        sep = math.hypot(q.t - p.t, q.x - p.x)
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

    # the clause order of causally_related, without the distance that only
    # the speed clause needs
    if not causally_precedes(p, q):
        tc, xc = 0.5 * p.t + 0.5 * q.t, 0.5 * p.x + 0.5 * q.x
        profile = _boost_tanh_profile(_witness_rapidity(p, q), tc, xc)
        pauli = [1.0, 0.0, 0.0, 0.0]
    elif abs(latitude(w1.internal) - latitude(w2.internal)) > LATITUDE_TOL:
        profile = _const_profile()
        sign = math.copysign(1.0, latitude(w1.internal) - latitude(w2.internal))
        pauli = [0.0, sign, 0.0, 0.0]
    else:
        return None
    witness = CausalElement(profile, pauli)
    gap = witness.eval_state(w2) - witness.eval_state(w1)
    if not math.isfinite(gap):
        raise CoordinateOverflow("the witness's values leave the double range")
    return witness if gap < -WITNESS_TOL else None
