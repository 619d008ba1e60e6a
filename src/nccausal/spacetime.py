"""2D Minkowski causality: events, causal order, proper time along
piecewise-linear curves, grid-based causal/steep function predicates, and the
distance functional evaluated over the boost family of steep functions.

Both extremal problems have closed forms on the plane: the straight chord
maximizes proper time over causal curves (reverse triangle inequality), and
the boost family's infimum sits at the rapidity beta* = 0.5 ln(v/u), with
u = dt + dx and v = dt - dx. The searches that check them live in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import causal_symbol, is_nsd, steep_symbol
from .errors import (
    GradientMismatch,
    NonCausalSegment,
    NotCausallyRelated,
)

NSD_TOL = 1e-9
FD_STEP = 1e-5
BOOST_CAP = 60.0


@dataclass(frozen=True)
class Event:
    """A point (t, x) of the 2D Minkowski plane."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("event coordinates must be finite")


def causally_precedes(p: Event, q: Event) -> bool:
    """True iff q lies in the closed future cone of p."""
    return (q.t - p.t) >= abs(q.x - p.x)


def lorentzian_distance(p: Event, q: Event) -> float:
    """sqrt(dt^2 - dx^2) when p precedes q, else 0."""
    dt = q.t - p.t
    dx = q.x - p.x
    if dt < abs(dx):
        return 0.0
    return math.sqrt(max(dt * dt - dx * dx, 0.0))


@dataclass(frozen=True)
class Curve:
    """Piecewise-linear curve; segments are validated when proper time is taken."""

    vertices: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 2:
            raise ValueError("a curve needs at least two vertices")


def _segment_tau(a: Event, b: Event) -> float | None:
    """Proper time of one future-directed causal segment, or None if infeasible."""
    dt = b.t - a.t
    dx = b.x - a.x
    if dt <= 0.0 or dt < abs(dx):
        return None
    return math.sqrt(max(dt * dt - dx * dx, 0.0))


def proper_time(curve: Curve) -> float:
    """Sum of per-segment proper times sqrt(dt^2 - dx^2).

    Raises :class:`NonCausalSegment` naming the first segment with dt <= 0 or
    dt < |dx|.
    """
    total = 0.0
    vs = curve.vertices
    for i in range(len(vs) - 1):
        tau = _segment_tau(vs[i], vs[i + 1])
        if tau is None:
            raise NonCausalSegment(i)
        total += tau
    return total


def _chord(p: Event, q: Event, n_segments: int) -> tuple[float, list[Event]]:
    """Proper time and vertices of the straight chord from p to q cut into
    ``n_segments`` equal pieces.

    A piece that rounding puts outside the cone (only possible for pairs
    within a few ulps of it) makes the chord fall back to the single segment
    [p, q], which is causal and has the same proper time.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    if not causally_precedes(p, q):
        raise NotCausallyRelated(f"no causal curve from {p} to {q}")
    if p.t == q.t and p.x == q.x:
        return 0.0, [p, q]
    dt, dx = q.t - p.t, q.x - p.x
    n = n_segments
    verts = [Event(p.t + dt * k / n, p.x + dx * k / n) for k in range(n)] + [q]
    seg = [_segment_tau(verts[i], verts[i + 1]) for i in range(n)]
    if None in seg:
        verts, seg = [p, q], [_segment_tau(p, q)]
    return sum(seg), verts


def max_proper_time(p: Event, q: Event, n_segments: int) -> float:
    """Maximal proper time over causal curves from p to q with ``n_segments``
    linear pieces.

    The straight chord attains it: by the reverse triangle inequality no
    causal curve from p to q is longer than sqrt(dt^2 - dx^2). The value is
    the chord's proper time summed piece by piece; the search over bent
    curves that checks it lives in the tests.
    """
    return _chord(p, q, n_segments)[0]


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of events together with its gradient (df/dt, df/dx)."""

    value: Callable[[Event], float]
    gradient: Callable[[Event], tuple[float, float]]


def affine_field(ct: float, cx: float, c0: float = 0.0) -> ScalarField:
    return ScalarField(
        value=lambda e: ct * e.t + cx * e.x + c0,
        gradient=lambda e: (ct, cx),
    )


def boost_field(beta: float) -> ScalarField:
    """f(t, x) = t cosh(beta) + x sinh(beta); borderline steep for every beta."""
    return affine_field(math.cosh(beta), math.sinh(beta))


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular sample of events; rows iterate t-major."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    n_t: int = 101
    n_x: int = 101

    def __post_init__(self):
        if self.n_t < 1 or self.n_x < 1:
            raise ValueError("grid needs at least one point per axis")
        if self.t_max < self.t_min or self.x_max < self.x_min:
            raise ValueError("grid bounds are inverted")

    def t_values(self) -> list[float]:
        if self.n_t == 1:
            return [self.t_min]
        h = (self.t_max - self.t_min) / (self.n_t - 1)
        return [self.t_min + h * i for i in range(self.n_t)]

    def x_values(self) -> list[float]:
        if self.n_x == 1:
            return [self.x_min]
        h = (self.x_max - self.x_min) / (self.n_x - 1)
        return [self.x_min + h * i for i in range(self.n_x)]

    def events(self) -> list[Event]:
        return [Event(t, x) for t in self.t_values() for x in self.x_values()]

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(
            self.t_min,
            self.t_max,
            self.x_min,
            self.x_max,
            factor * (self.n_t - 1) + 1,
            factor * (self.n_x - 1) + 1,
        )

    @classmethod
    def covering(
        cls, p: Event, q: Event, margin: float, n_t: int = 101, n_x: int = 101
    ) -> "Grid":
        return cls(
            min(p.t, q.t) - margin,
            max(p.t, q.t) + margin,
            min(p.x, q.x) - margin,
            max(p.x, q.x) + margin,
            n_t,
            n_x,
        )


def _check_gradients(value, gt, gx, t, x) -> None:
    """Raise :class:`GradientMismatch` at the first event where the supplied
    gradient (gt, gx) disagrees with central finite differences of
    ``value(t, x)``, an array function of the event coordinates.

    All arguments broadcast together, so one call checks a whole family of
    gradients at every event.
    """
    h = FD_STEP
    fdt = (value(t + h, x) - value(t - h, x)) / (2.0 * h)
    fdx = (value(t, x + h) - value(t, x - h)) / (2.0 * h)
    tol = np.maximum(1e-5, 1e-3 * np.hypot(gt, gx))
    t, x, bad = np.broadcast_arrays(t, x, np.hypot(fdt - gt, fdx - gx) > tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise GradientMismatch(
            f"gradient disagrees with finite differences at t={t.flat[k]:g}, x={x.flat[k]:g}"
        )


def _checked_gradients(f: ScalarField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Supplied gradient of f at every grid event, validated against central
    finite differences."""
    events = grid.events()
    t, x = np.array([(e.t, e.x) for e in events]).T
    gt, gx = np.array([f.gradient(e) for e in events], dtype=float).T

    def value(ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.array([f.value(Event(a, b)) for a, b in zip(ts.tolist(), xs.tolist())])

    _check_gradients(value, gt, gx, t, x)
    return gt, gx


def _cone_certificate(kind: str, symbols: np.ndarray, scalar_margin, tol) -> bool:
    """True iff every symbol in the stack is negative semidefinite within
    ``tol``; each verdict is cross-checked against the scalar inequality
    ``scalar_margin <= tol``."""
    matrix_ok = is_nsd(symbols, tol)
    if np.any(matrix_ok != (scalar_margin <= tol)):
        raise RuntimeError(
            f"matrix and scalar {kind} predicates disagree; eigenvalue path broken"
        )
    return bool(np.all(matrix_ok))


def _steep_certificate(gt: np.ndarray, gx: np.ndarray) -> bool:
    """True iff every gradient (gt[i], gx[i]) is steep, certified by one
    batched steep-symbol test.

    The tolerance NSD_TOL * max(1, |df/dt|) is relative to the gradient's
    scale: the largest eigenvalue -df/dt + sqrt(1 + (df/dx)^2) of a
    borderline-steep gradient carries rounding error of the order of the
    unit roundoff times df/dt, which an absolute tolerance would flag once
    df/dt grows past a few million (boost rapidities beyond about 16).
    """
    tol = NSD_TOL * np.maximum(1.0, np.abs(gt))
    return _cone_certificate(
        "steep", steep_symbol(gt, gx), np.sqrt(1.0 + gx * gx) - gt, tol
    )


def is_causal_function(f: ScalarField, grid: Grid) -> bool:
    """True iff the causal symbol is negative semidefinite at every grid point.

    The matrix test is cross-checked against the scalar inequality
    df/dt >= |df/dx| at each point; the gradient is validated against central
    finite differences (raising :class:`GradientMismatch` on failure).
    """
    gt, gx = _checked_gradients(f, grid)
    return _cone_certificate("causal", causal_symbol(gt, gx), np.abs(gx) - gt, NSD_TOL)


def is_steep_function(f: ScalarField, grid: Grid) -> bool:
    """True iff the steep symbol is negative semidefinite at every grid point
    (scalar form df/dt >= sqrt(1 + (df/dx)^2), cross-checked pointwise).

    Gradients are validated against central finite differences first
    (raising :class:`GradientMismatch` on failure); the tolerance is the
    scale-relative one of the steep certificate.
    """
    return _steep_certificate(*_checked_gradients(f, grid))


def _boost_family_is_steep(betas: np.ndarray, grid: Grid) -> bool:
    """Certify the boost members t cosh(beta) + x sinh(beta) for all ``betas``
    at once: their gradients (cosh(beta), sinh(beta)) are checked against
    central finite differences at every event of ``grid``, then certified
    steep in one batched call."""
    ct, cx = np.cosh(betas), np.sinh(betas)
    t, x = np.array([(e.t, e.x) for e in grid.events()]).T
    _check_gradients(
        lambda ts, xs: ct[:, None] * ts + cx[:, None] * xs,
        ct[:, None],
        cx[:, None],
        t,
        x,
    )
    return _steep_certificate(ct, cx)


def _boost_gain(u: float, v: float, beta: float) -> float:
    """f(q) - f(p) for the boost member of rapidity ``beta``, in light-cone
    form: with u = dt + dx and v = dt - dx, dt cosh(beta) + dx sinh(beta)
    equals 0.5 * (u e^beta + v e^-beta). For a causal pair both terms are
    nonnegative, so no digits are lost to cancellation near the light cone."""
    return 0.5 * (u * math.exp(beta) + v * math.exp(-beta))


def _boost_rapidity(u: float, v: float) -> float:
    """Rapidity of the boost member with the smallest gain, clamped to
    |beta| <= BOOST_CAP.

    For a strictly future-timelike pair (u > 0 and v > 0) the gain
    0.5 * (u e^beta + v e^-beta) is least at beta* = 0.5 * ln(v / u), where it
    equals sqrt(u v). Otherwise the infimum is reached or approached at the
    cap on the side where the gain falls (at beta = 0 when neither does): for
    an exactly null pair the gain there is about u e^-60 or v e^-60, far below
    every tolerance in use, and for every other pair it is at most zero.
    """
    if u > 0.0 and v > 0.0:
        beta = 0.5 * (math.log(v) - math.log(u))
    elif u > 0.0:
        beta = -math.inf
    elif v > 0.0:
        beta = math.inf
    else:
        beta = 0.0
    return min(max(beta, -BOOST_CAP), BOOST_CAP)


def lorentz_distance_functional(p: Event, q: Event) -> float:
    """Distance functional inf over steep f of max(0, f(q) - f(p)), evaluated
    on the boost family t cosh(beta) + x sinh(beta).

    The infimum over the family is taken in closed form: with u = dt + dx and
    v = dt - dx, the gain is least at beta* = 0.5 * ln(v / u) (clamped to
    |beta| <= BOOST_CAP), where the light-cone form
    0.5 * (u e^beta + v e^-beta) equals sqrt(u v) and its two terms never
    cancel, so near-null pairs keep full relative accuracy. Every pair that
    is not strictly future-timelike gives exactly 0.

    Before the value is returned, the member at the rapidity used is
    certified in one steep certificate on a small rectangle covering both
    events: its gradient is checked against central finite differences at
    every event of the rectangle, then its steep symbol is tested with the
    scale-relative tolerance NSD_TOL * max(1, |df/dt|). The value equals that
    member's gain, sqrt(dt^2 - dx^2) up to rounding for timelike pairs.
    """
    dt = q.t - p.t
    dx = q.x - p.x
    u, v = dt + dx, dt - dx
    beta = _boost_rapidity(u, v)
    gain = _boost_gain(u, v, beta)
    check_grid = Grid.covering(p, q, margin=1.0, n_t=3, n_x=3)
    if not _boost_family_is_steep(np.array([beta]), check_grid):
        raise RuntimeError("boost family member failed the steep certificate")
    return gain if u > 0.0 and v > 0.0 else 0.0
