"""2D Minkowski causality: events, causal order, proper time along
piecewise-linear curves, grid-based causal/steep function predicates, and the
distance functional evaluated over the boost family of steep functions.
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


def _chord_vertices(p: Event, q: Event, n: int) -> list[Event]:
    return [
        Event(p.t + (q.t - p.t) * k / n, p.x + (q.x - p.x) * k / n)
        for k in range(n + 1)
    ]


def _random_causal_vertices(
    p: Event, q: Event, n: int, rng: np.random.Generator
) -> list[Event]:
    """Sample interior vertices sequentially inside cone(previous) & past(q)."""
    verts = [p]
    cur = p
    for _ in range(n - 1):
        t = float(rng.uniform(cur.t, q.t))
        lo = max(cur.x - (t - cur.t), q.x - (q.t - t))
        hi = min(cur.x + (t - cur.t), q.x + (q.t - t))
        x = float(rng.uniform(lo, hi)) if hi > lo else lo
        cur = Event(t, x)
        verts.append(cur)
    verts.append(q)
    return verts


_COMPASS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _compass_ascent(verts: list[Event], scale: float) -> tuple[float, list[Event]]:
    """Coordinate ascent on interior vertices with a shrinking compass step."""
    n = len(verts) - 1
    seg = [_segment_tau(verts[i], verts[i + 1]) for i in range(n)]
    if any(s is None for s in seg):
        return -math.inf, verts
    step = 0.25 * scale
    floor = 1e-7 * scale
    sweeps = 0
    while step > floor and sweeps < 600:
        sweeps += 1
        improved = False
        for i in range(1, n):
            base = seg[i - 1] + seg[i]
            best_gain = 1e-15
            best = None
            for ut, ux in _COMPASS:
                cand = Event(verts[i].t + step * ut, verts[i].x + step * ux)
                left = _segment_tau(verts[i - 1], cand)
                if left is None:
                    continue
                right = _segment_tau(cand, verts[i + 1])
                if right is None:
                    continue
                gain = left + right - base
                if gain > best_gain:
                    best_gain = gain
                    best = (cand, left, right)
            if best is not None:
                verts[i] = best[0]
                seg[i - 1] = best[1]
                seg[i] = best[2]
                improved = True
        if not improved:
            step *= 0.5
    return sum(seg), verts


def _ascend_proper_time(
    p: Event, q: Event, n_segments: int, *, seed: int = 42, n_starts: int = 4
) -> tuple[float, list[Event]]:
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    if not causally_precedes(p, q):
        raise NotCausallyRelated(f"no causal curve from {p} to {q}")
    if p.t == q.t and p.x == q.x:
        return 0.0, [p, q]
    if n_segments == 1:
        tau = _segment_tau(p, q)
        return (tau if tau is not None else 0.0), [p, q]
    scale = max(q.t - p.t, abs(q.x - p.x), 1.0)
    rng = np.random.default_rng(seed)
    best_val = -math.inf
    best_curve: list[Event] = []
    for start in range(max(1, n_starts)):
        if start == 0:
            verts = _chord_vertices(p, q, n_segments)
        else:
            verts = _random_causal_vertices(p, q, n_segments, rng)
            if any(
                _segment_tau(verts[i], verts[i + 1]) is None
                for i in range(len(verts) - 1)
            ):
                verts = _chord_vertices(p, q, n_segments)
        val, verts = _compass_ascent(verts, scale)
        if val > best_val:
            best_val = val
            best_curve = verts
    return best_val, best_curve


def max_proper_time(
    p: Event, q: Event, n_segments: int, *, seed: int = 42, n_starts: int = 4
) -> float:
    """Maximal proper time over discretized causal curves from p to q with
    ``n_segments`` pieces (seeded multi-start coordinate ascent).

    Converges to the Lorentzian distance from below; the brute-force oracle
    for it.
    """
    value, _ = _ascend_proper_time(p, q, n_segments, seed=seed, n_starts=n_starts)
    return value


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


def default_boost_grid(span: float = 6.0, points: int = 49) -> list[float]:
    """Symmetric rapidity grid used by the distance functional."""
    return [float(b) for b in np.linspace(-span, span, points)]


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimum value of a unimodal function on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = min(fc, fd)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
        best = min(best, fc, fd)
    return best


def _boost_infimum(gain: Callable[[float], float], grid: list[float]) -> float:
    """Minimum of ``gain`` over the rapidities: coarse ``grid`` first, then
    golden section on the bracket around the coarse minimum. A minimum on the
    grid boundary is re-bracketed by a downhill walk with doubling steps,
    capped at |beta| = BOOST_CAP. Values at or below zero end the search
    with 0."""
    n = len(grid)
    values = [gain(b) for b in grid]
    best = min(values)
    if best <= 0.0:
        return 0.0
    i = values.index(best)

    if 0 < i < n - 1:
        lo, hi = grid[i - 1], grid[i + 1]
    else:
        # minimum on the sampled boundary: walk downhill with doubling steps
        step = max(grid[1] - grid[0], 0.5) if n > 1 else 1.0
        if n > 1:
            direction = -1.0 if i == 0 else 1.0
            inner = grid[1] if i == 0 else grid[n - 2]
        else:
            left, right = gain(grid[0] - step), gain(grid[0] + step)
            if min(left, right) <= 0.0:
                return 0.0
            if left >= best and right >= best:
                lo, hi = grid[0] - step, grid[0] + step
                refined = _golden_section(gain, lo, hi)
                return max(0.0, min(best, refined))
            direction = -1.0 if left < right else 1.0
            inner = grid[0] - direction * step
            best = min(best, left, right)
        beta, val = grid[i], values[i]
        bracket = None
        while True:
            nxt = beta + direction * step
            if abs(nxt) > BOOST_CAP:
                break
            nval = gain(nxt)
            if nval <= 0.0:
                return 0.0
            if nval >= val:
                # downhill run turned around: minimum lies between nxt and inner
                bracket = (nxt, inner) if direction < 0 else (inner, nxt)
                break
            inner, beta, val = beta, nxt, nval
            step *= 2.0
        if bracket is None:
            # monotone tail (lightlike direction): infimum approached at the cap
            return max(0.0, min(val, gain(direction * BOOST_CAP)))
        lo, hi = bracket

    refined = _golden_section(gain, lo, hi)
    return max(0.0, min(best, refined))


def lorentz_distance_functional(
    p: Event, q: Event, boost_grid: list[float] | None = None
) -> float:
    """Distance functional inf over steep f of max(0, f(q) - f(p)), evaluated
    on the boost family t cosh(beta) + x sinh(beta).

    Each rapidity is evaluated with plain float arithmetic in light-cone form,
    0.5 * ((dt + dx) e^beta + (dt - dx) e^-beta), whose terms never cancel
    for a causal pair, so near-null pairs keep full relative accuracy. The
    coarse grid minimum is refined by golden section to an interval of 1e-10;
    boundary minima are re-bracketed by doubling steps, capped at |beta| = 60
    (where the boost family's values are far below every tolerance in use).
    An exactly null pair (dt + dx == 0 or dt - dx == 0) gives exactly 0, the
    limit that the capped search only approaches.

    Before the value is returned, every rapidity the search used is certified
    in one batched steep certificate on a small rectangle covering both
    events: each member's gradient is checked against central finite
    differences at every event of the rectangle, then its steep symbol is
    tested with the scale-relative tolerance NSD_TOL * max(1, |df/dt|).
    On the Minkowski plane the result matches sqrt(dt^2 - dx^2) for causal
    pairs and 0 otherwise.
    """
    if boost_grid is None:
        boost_grid = default_boost_grid()
    grid = sorted(float(b) for b in boost_grid)
    if not grid:
        raise ValueError("boost grid must be nonempty")
    n = len(grid)
    if any(abs(grid[i] + grid[n - 1 - i]) > 1e-12 for i in range(n)):
        raise ValueError("boost grid must be symmetric around 0")
    dt = q.t - p.t
    dx = q.x - p.x
    u, v = dt + dx, dt - dx
    used: list[float] = []

    def gain(beta: float) -> float:
        used.append(beta)
        return _boost_gain(u, v, beta)

    value = _boost_infimum(gain, grid)
    check_grid = Grid.covering(p, q, margin=1.0, n_t=3, n_x=3)
    if not _boost_family_is_steep(np.array(used), check_grid):
        raise RuntimeError("boost family member failed the steep certificate")
    return 0.0 if u == 0.0 or v == 0.0 else value
