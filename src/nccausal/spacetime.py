"""2D Minkowski causality: events, causal order, proper time along
piecewise-linear curves, grid-based causal/steep function predicates, and the
distance functional evaluated over the boost family of steep functions.

A scalar field is its jet: one function returning (f, df/dt, df/dx), which
the predicates evaluate once on a whole grid of coordinates.

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
    CoordinateOverflow,
    GradientMismatch,
    NonCausalSegment,
    NotCausallyRelated,
)

NSD_TOL = 1e-9
FD_STEP = 1e-5
BOOST_CAP = 60.0
# Pairs whose squared interval overflows are worked on at 2**-RESCALE_EXP
# scale: any difference of doubles is then below 2**426, its square finite,
# and every event of such a pair keeps its bits down to far below its
# largest coordinate's ulp.
RESCALE_EXP = 600


@dataclass(frozen=True)
class Event:
    """A point (t, x) of the 2D Minkowski plane."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("event coordinates must be finite")


def _scaled(e: Event) -> Event:
    """The event with both coordinates multiplied by 2**-RESCALE_EXP."""
    return Event(math.ldexp(e.t, -RESCALE_EXP), math.ldexp(e.x, -RESCALE_EXP))


def _unscaled(value: float) -> float:
    """A length taken between :func:`_scaled` events, back at full scale."""
    try:
        return math.ldexp(value, RESCALE_EXP)
    except OverflowError:
        raise CoordinateOverflow(
            f"a length of {value:g} * 2**{RESCALE_EXP} exceeds the double range"
        ) from None


def causally_precedes(p: Event, q: Event) -> bool:
    """True iff q lies in the closed future cone of p."""
    dt, adx = q.t - p.t, abs(q.x - p.x)
    if dt == adx == math.inf:  # both differences overflow
        return causally_precedes(_scaled(p), _scaled(q))
    return dt >= adx


def lorentzian_distance(p: Event, q: Event) -> float:
    """sqrt(dt^2 - dx^2) when p precedes q, else 0.

    When the squares overflow, the root is taken between the events scaled
    by 2**-RESCALE_EXP and scaled back; a distance beyond the double range
    raises :class:`CoordinateOverflow`.
    """
    dt = q.t - p.t
    dx = q.x - p.x
    if dt < abs(dx):
        return 0.0
    interval = dt * dt - dx * dx
    if not math.isfinite(interval):
        return _unscaled(lorentzian_distance(_scaled(p), _scaled(q)))
    return math.sqrt(max(interval, 0.0))


def causal_order(p, q) -> tuple[np.ndarray, np.ndarray]:
    """:func:`causally_precedes` and :func:`lorentzian_distance` pair by
    pair: p and q are (t, x) pairs of arrays (or floats) that broadcast to
    one shape, and the two answers are arrays of that shape.

    The same formulas element by element, bit for bit: pairs whose squared
    interval is not finite, or whose two differences both overflow, are
    worked on at 2**-RESCALE_EXP scale, and the first distance beyond the
    double range, in flat order, raises :class:`CoordinateOverflow`.
    """
    pt, px, qt, qx = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (*p, *q)))
    with np.errstate(over="ignore", invalid="ignore"):
        dt, dx = qt - pt, qx - px
        adx = np.abs(dx)
        interval = dt * dt - dx * dx
        precedes = dt >= adx
        tau = np.where(precedes, np.sqrt(np.maximum(interval, 0.0)), 0.0)
        big = precedes & ~np.isfinite(interval)
        if big.any():
            sdt = np.ldexp(qt[big], -RESCALE_EXP) - np.ldexp(pt[big], -RESCALE_EXP)
            sdx = np.ldexp(qx[big], -RESCALE_EXP) - np.ldexp(px[big], -RESCALE_EXP)
            both_inf = np.isinf(dt[big]) & np.isinf(adx[big])
            precedes[big] = np.where(both_inf, sdt >= np.abs(sdx), True)
            stau = np.sqrt(np.maximum(sdt * sdt - sdx * sdx, 0.0))
            tau[big] = np.ldexp(stau, RESCALE_EXP)
            over = np.isinf(tau[big])
            if over.any():
                _unscaled(float(stau[np.argmax(over)]))  # raises CoordinateOverflow
    return precedes, tau


def causal_future(p: Event, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """:func:`causal_order` from p to every event of the grid, t-major, as
    two flat arrays."""
    return causal_order((p.t, p.x), grid.coordinates())


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
    if b.t - a.t <= 0.0 or not causally_precedes(a, b):
        return None
    return lorentzian_distance(a, b)


def proper_time(curve: Curve) -> float:
    """Sum of per-segment proper times sqrt(dt^2 - dx^2).

    Raises :class:`NonCausalSegment` naming the first segment with dt <= 0 or
    dt < |dx|, and :class:`CoordinateOverflow` when the sum exceeds the
    double range.
    """
    total = 0.0
    vs = curve.vertices
    for i in range(len(vs) - 1):
        tau = _segment_tau(vs[i], vs[i + 1])
        if tau is None:
            raise NonCausalSegment(i)
        total += tau
    if not math.isfinite(total):
        raise CoordinateOverflow("the proper time of the curve exceeds the double range")
    return total


def _check_segment_count(n) -> None:
    """Raise ValueError unless n is an int of at least 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n_segments must be an int of at least 1, got {n!r}")


def _chord(p: Event, q: Event, n_segments: int) -> tuple[float, list[Event]]:
    """Proper time and vertices of the straight chord from p to q cut into
    ``n_segments`` equal pieces.

    A piece that rounding puts outside the cone (only possible for pairs
    within a few ulps of it) makes the chord fall back to the single segment
    [p, q], which is causal and has the same proper time. A chord whose
    squared interval or vertices overflow is cut between the events scaled
    by 2**-RESCALE_EXP, and its proper time and vertices scaled back.
    """
    _check_segment_count(n_segments)
    if not causally_precedes(p, q):
        raise NotCausallyRelated(f"no causal curve from {p} to {q}")
    if p.t == q.t and p.x == q.x:
        return 0.0, [p, q]
    dt, dx = q.t - p.t, q.x - p.x
    n = n_segments
    if not all(map(math.isfinite, (dt * dt - dx * dx, dt * (n - 1), dx * (n - 1)))):
        tau, verts = _chord(_scaled(p), _scaled(q), n)
        inner = [Event(_unscaled(v.t), _unscaled(v.x)) for v in verts[1:-1]]
        return _unscaled(tau), [p, *inner, q]
    verts = [Event(p.t + dt * k / n, p.x + dx * k / n) for k in range(n)] + [q]
    seg = [_segment_tau(verts[i], verts[i + 1]) for i in range(n)]
    if None in seg:
        verts, seg = [p, q], [_segment_tau(p, q)]
    return sum(seg), verts


def _chords(p, q, n_segments: int):
    """:func:`_chord` pair by pair, bit for bit, over events p and q given
    as arrays (t, x) of shape (2, len): whether p precedes q and, for those
    pairs, the proper time, the vertices of shape (2, len, n_segments + 1),
    and whether the chord fell back to [p, q] (its vertices are then p and
    q repeated). The order is taken at the scale the chord is cut at, where
    no distance overflows; the first proper time beyond the double range
    raises :class:`CoordinateOverflow`."""
    _check_segment_count(n_segments)
    n = n_segments
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dt, dx = q - p
        big = ~(
            np.isfinite(dt * dt - dx * dx) & np.isfinite(dt * (n - 1)) & np.isfinite(dx * (n - 1))
        )
        a, b = (np.where(big, np.ldexp(e, -RESCALE_EXP), e) for e in (p, q))
        precedes, whole = causal_order(a, b)
        v = np.concatenate([a[..., None] + (b - a)[..., None] * np.arange(n) / n, b[..., None]], -1)
        causal, piece = causal_order(v[..., :-1], v[..., 1:])
        fallback = ~np.all(causal & (np.diff(v[0]) > 0.0), axis=1)
        scaled = np.where(fallback, whole, np.cumsum(piece, axis=1)[:, -1])
        tau = np.where(big, np.ldexp(scaled, RESCALE_EXP), scaled)
        over = precedes & np.isinf(tau)
        if over.any():
            _unscaled(float(scaled[np.argmax(over)]))  # raises CoordinateOverflow
        v = np.where(big[:, None], np.ldexp(v, RESCALE_EXP), v)
    v[..., 0] = np.where(big | fallback, p, v[..., 0])
    v[..., -1] = q
    v[:, fallback, 1:] = q[:, fallback, None]
    return precedes, tau, v, fallback


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
    """A differentiable scalar field on the plane, given by its jet.

    ``jet(t, x)`` returns (f, df/dt, df/dx) and works on floats and, element
    by element, on arrays of coordinates.
    """

    jet: Callable
    name: str = ""


def affine_field(ct: float, cx: float, c0: float = 0.0) -> ScalarField:
    def jet(t, x):
        return ct * t + cx * x + c0, np.full(np.shape(t), ct), np.full(np.shape(t), cx)

    return ScalarField(jet)


def boost_field(beta: float) -> ScalarField:
    """f(t, x) = t cosh(beta) + x sinh(beta); borderline steep for every beta."""
    return affine_field(math.cosh(beta), math.sinh(beta))


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """The n evenly spaced values from lo to hi of one grid axis."""
    if n == 1:
        return [lo]
    h = (hi - lo) / (n - 1)
    return [lo + h * i for i in range(n)]


def _axis_end(lo: float, hi: float, n: int) -> float:
    """The last value of ``_axis(lo, hi, n)``, the same double without the list."""
    return lo if n == 1 else lo + (hi - lo) / (n - 1) * (n - 1)


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
        # the last value of an axis is its largest; rounding can carry it past
        # the double range even when both bounds are finite
        ends = (
            _axis_end(self.t_min, self.t_max, self.n_t),
            _axis_end(self.x_min, self.x_max, self.n_x),
        )
        if not all(map(math.isfinite, (self.t_min, self.t_max, self.x_min, self.x_max, *ends))):
            raise ValueError("grid bounds and coordinates must be finite")

    def t_values(self) -> list[float]:
        return _axis(self.t_min, self.t_max, self.n_t)

    def x_values(self) -> list[float]:
        return _axis(self.x_min, self.x_max, self.n_x)

    def events(self) -> list[Event]:
        return [Event(t, x) for t in self.t_values() for x in self.x_values()]

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (t, x) of :meth:`events`, as two flat arrays."""
        t = np.array(self.t_values()).repeat(self.n_x)
        return t, np.array(self.x_values() * self.n_t)

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


def _difference(hi, lo, mid, h):
    """(hi - lo) / 2h, the central difference of the values a step h above
    and below, except where one of them is not finite: there the difference
    is one-sided, from the value mid between them (nan where neither is)."""
    up, down = np.isfinite(hi), np.isfinite(lo)
    return (np.where(up, hi, mid) - np.where(down, lo, mid)) / ((1.0 * up + down) * h)


def _at_first(t, x, bad) -> str:
    """The coordinates of the first event flagged in ``bad``, which
    broadcasts against the flat event coordinates t and x."""
    t, x, bad = np.broadcast_arrays(t, x, bad)
    k = int(np.argmax(bad))
    return f"t={t.flat[k]:g}, x={x.flat[k]:g}"


def _check_gradients(value, gt, gx, t, x) -> None:
    """Raise :class:`GradientMismatch` at the first event where the supplied
    gradient (gt, gx) disagrees with central finite differences of
    ``value(t, x)``, an array function of the event coordinates.

    t and x are the coordinates of the events, two flat arrays of one length;
    the gradient broadcasts against them, so one call checks a whole family
    of gradients at every event. The step is ``FD_STEP * max(1, |t|, |x|)``
    per event, so that far from the origin the difference of the two values
    still stands well above their rounding error. The event and its four
    steps are evaluated in one call of ``value``. Where a step leaves the
    double range, in the coordinate or in the value, the difference is
    one-sided. Where a difference or the supplied gradient is not finite,
    the gradient cannot be confirmed and counts as a mismatch. Where the
    value at an event is not finite, nothing is left to compare the gradient
    with: :class:`CoordinateOverflow` is raised instead.
    """
    h = FD_STEP * np.maximum(1.0, np.maximum(np.abs(t), np.abs(x)))
    n = len(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = value(np.concatenate([t + h, t - h, t, t, t]), np.concatenate([x, x, x + h, x - h, x]))
        t_up, t_down, x_up, x_down, mid = (v[..., k * n : (k + 1) * n] for k in range(5))
        fdt = _difference(t_up, t_down, mid, h)
        fdx = _difference(x_up, x_down, mid, h)
    if not np.isfinite(mid).all():
        raise CoordinateOverflow(
            f"the field's value at {_at_first(t, x, ~np.isfinite(mid))} exceeds the double range"
        )
    tol = np.maximum(1e-5, 1e-3 * np.hypot(gt, gx))
    # nan compares False, so a non-finite difference counts as a mismatch; an
    # infinite supplied gradient would make tol infinite, so it is tested apart
    bad = ~(np.hypot(fdt - gt, fdx - gx) <= tol) | ~(np.isfinite(gt) & np.isfinite(gx))
    if bad.any():
        raise GradientMismatch(
            f"gradient disagrees with finite differences at {_at_first(t, x, bad)}"
        )


def _checked_gradients(f: ScalarField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Supplied gradient of f at every grid event, validated against central
    finite differences of its value. A value beyond the double range at a
    grid event raises :class:`CoordinateOverflow`."""
    t, x = grid.coordinates()
    with np.errstate(over="ignore", invalid="ignore"):  # checked with the differences
        _, gt, gx = f.jet(t, x)
    _check_gradients(lambda ts, xs: f.jet(ts, xs)[0], gt, gx, t, x)
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
        "steep", steep_symbol(gt, gx), np.hypot(1.0, gx) - gt, tol
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
    certified by :func:`is_steep_function` on the 3x3 rectangle covering both
    events with margin 1: its gradient is checked against central finite
    differences at the nine events, then its steep symbol is tested with the
    scale-relative tolerance NSD_TOL * max(1, |df/dt|). The value equals that
    member's gain, sqrt(dt^2 - dx^2) up to rounding for timelike pairs.
    Each member is linear, so a pair whose squared interval overflows is
    evaluated scaled by 2**-RESCALE_EXP and its value scaled back, and a
    member whose values would overflow on the rectangle is certified on the
    rectangle of the scaled pair.
    """
    dt = q.t - p.t
    dx = q.x - p.x
    if not math.isfinite(dt * dt - dx * dx):  # the value scales with the pair
        return _unscaled(lorentz_distance_functional(_scaled(p), _scaled(q)))
    u, v = dt + dx, dt - dx
    beta = _boost_rapidity(u, v)
    gain = _boost_gain(u, v, beta)
    reach = 2.0 * math.exp(abs(beta)) * (1.0 + max(map(abs, (p.t, p.x, q.t, q.x))))
    if not math.isfinite(reach):  # the member's values overflow on the rectangle
        p, q = _scaled(p), _scaled(q)
    if not is_steep_function(boost_field(beta), Grid.covering(p, q, margin=1.0, n_t=3, n_x=3)):
        raise RuntimeError("boost member failed the steep certificate")
    return gain if u > 0.0 and v > 0.0 else 0.0
