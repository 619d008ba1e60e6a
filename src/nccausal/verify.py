"""Runnable invariant suites behind the ``verify`` command.

Each suite returns :class:`CheckResult` rows, the package's one registry of
invariant checks: the CLI prints one line per row and can write them as a
CSV artifact, and the acceptance tests assert rows by name. All randomness
flows from a single seed, so repeated runs are bit-identical;
``tests/data/verify_seed42.csv``, ``verify_seed3.csv`` and
``verify_seed0.csv`` pin every row. A scalar draw goes through ``_uniform``,
which gives ``Generator.uniform``'s value and generator state at the cost of
one ``Generator.random``. A sample set checked by a library call that takes
arrays is drawn as one block, in the generator's per-sample order, and
checked in stacked calls. Samples whose number of draws branches on a draw
come from a block of an upper bound of doubles: one walk over the branch
draws finds each sample's start, the samples are gathered from the block,
and the generator is rewound and draws the doubles used again, so it ends
where the scalar draws would.

The seeded generators at the top are shared with the test suite. Each
sample formula is written once, over a stack; a scalar generator is a
stack of one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import (
    causal_symbol,
    hermitian_eigenvalues,
    standard_basis,
    steep_symbol,
)
from .finite_geometry import (
    FiniteDirac,
    InternalState,
    bloch_close,
    commutator_norm,
    divergence_witness,
    latitude,
    longitude,
    parallel_bloch,
    parallel_distance_closed_form,
    spectral_distance,
    state_on_parallel,
    unitary_conjugate,
)
from .product_causality import (
    CausalElement,
    ProductState,
    ProductStates,
    _boost_tanh_profile,
    _const_profile,
    _longitudes,
    causal_verdicts,
    causally_related,
    curve_oracles,
    product_symbol,
    speed_bound,
)
from .spacetime import (
    Event,
    Grid,
    ScalarField,
    affine_field,
    boost_field,
    causal_order,
    is_causal_function,
    lorentz_distance_functional,
    lorentzian_distance,
    max_proper_time,
)

SUITE_NAMES = ("clifford", "finite", "spacetime", "product")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float  # measured error or violation count, written to the CSV artifact


# --------------------------------------------------------------------------
# Seeded generators (shared with the tests)
# --------------------------------------------------------------------------


def _from_unit(r, lo, hi):
    """``Generator.uniform(lo, hi)``'s value for the unit double r (or an
    array of them): numpy draws it as ``lo + (hi - lo) * next_double``."""
    return lo + (hi - lo) * r


def _uniform(rng: np.random.Generator, lo, hi, size=None):
    """The draw ``rng.uniform(lo, hi, size)``, bit for bit and with the same
    generator state, without the cost of ``Generator.uniform``'s dispatch."""
    return _from_unit(rng.random(size), lo, hi)


# Each sample formula is written once, over a stack: row i of r holds
# sample i's doubles in the order that drawing them one by one takes them,
# and the sample comes out as arrays of coordinates. The scalar generators
# are stacks of one.


def _event_stack(r: np.ndarray):
    """Events uniform in [-3, 3)^2, as (t, x), from the draws r[:, 0:2]."""
    return _from_unit(r[:, 0], -3.0, 3.0), _from_unit(r[:, 1], -3.0, 3.0)


def _causal_pair_stack(r: np.ndarray):
    """An event p and a point of its closed future cone (timelike to
    lightlike mix), from the draws r[:, 0:4]."""
    pt, px = _event_stack(r)
    dt = _from_unit(r[:, 2], 0.0, 3.0)
    dx = dt * _from_unit(r[:, 3], -1.0, 1.0)
    return (pt, px), (pt + dt, px + dx)


def _timelike_pair_stack(r: np.ndarray):
    """An event p and a point 0.3 to 2.8 later at a speed below 0.9, from
    the draws r[:, 0:4]."""
    pt, px = _event_stack(r)
    dt = _from_unit(r[:, 2], 0.3, 0.3 + 2.5)
    dx = dt * _from_unit(r[:, 3], -0.9, 0.9)
    return (pt, px), (pt + dt, px + dx)


def _spacelike_pair_stack(r: np.ndarray):
    """A pair with |dt| <= 0.95 |dx|, so neither precedes the other, from
    the draws r[:, 0:5]."""
    pt, px = _event_stack(r)
    dx = _from_unit(r[:, 2], 0.3, 2.5) * np.where(r[:, 3] < 0.5, 1.0, -1.0)
    dt = np.abs(dx) * _from_unit(r[:, 4], -0.95, 0.95)
    return (pt, px), (pt + dt, px + dx)


def _cross_latitude_stack(r: np.ndarray):
    """Two states on parallels 0.05 to 0.8 apart, as (z, theta), from the
    draws r[:, 0:4]."""
    z1 = _from_unit(r[:, 0], -0.95, 0.95)
    shift = _from_unit(r[:, 1], 0.05, 0.8)
    z2 = np.where(z1 + shift <= 0.98, z1 + shift, z1 - shift)
    th1 = _from_unit(r[:, 2], -math.pi, math.pi)
    return (z1, th1), (z2, _from_unit(r[:, 3], -math.pi, math.pi))


def _first(columns) -> tuple[float, ...]:
    """Sample 0 of a stack's columns, as floats."""
    return tuple(c.item() for c in columns)


def _one_event_pair(rng: np.random.Generator, stack, draws: int) -> tuple[Event, Event]:
    p, q = stack(rng.random((1, draws)))
    return Event(*_first(p)), Event(*_first(q))


def random_event(rng: np.random.Generator) -> Event:
    return Event(*_first(_event_stack(rng.random((1, 2)))))


def random_causal_pair(rng: np.random.Generator) -> tuple[Event, Event]:
    """One pair of :func:`_causal_pair_stack`."""
    return _one_event_pair(rng, _causal_pair_stack, 4)


def random_timelike_pair(rng: np.random.Generator) -> tuple[Event, Event]:
    """One pair of :func:`_timelike_pair_stack`."""
    return _one_event_pair(rng, _timelike_pair_stack, 4)


def random_spacelike_pair(rng: np.random.Generator) -> tuple[Event, Event]:
    """One pair of :func:`_spacelike_pair_stack`."""
    return _one_event_pair(rng, _spacelike_pair_stack, 5)


def random_null_pair(rng: np.random.Generator) -> tuple[Event, Event]:
    """Exactly lightlike pair: coordinates on a dyadic lattice so that
    dt == |dx| holds bitwise (no rounding slop on the cone)."""
    t = float(rng.integers(-192, 193)) / 64.0
    x = float(rng.integers(-192, 193)) / 64.0
    s = float(rng.integers(13, 129)) / 64.0
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return Event(t, x), Event(t + s, x + sign * s)


def random_parallel_pair(
    rng: np.random.Generator,
    z_max: float = 0.9,
    min_dtheta: float = 0.3,
) -> tuple[InternalState, InternalState]:
    """Two states on one (bitwise identical) parallel of latitude."""
    z = _uniform(rng, -z_max, z_max)
    th = _uniform(rng, -math.pi, math.pi)
    dth = _uniform(rng, min_dtheta, math.pi)
    if rng.random() < 0.5:
        dth = -dth
    return state_on_parallel(z, th), state_on_parallel(z, th + dth)


def random_cross_latitude_pair(
    rng: np.random.Generator,
) -> tuple[InternalState, InternalState]:
    """One pair of :func:`_cross_latitude_stack`."""
    s1, s2 = _cross_latitude_stack(rng.random((1, 4)))
    return state_on_parallel(*_first(s1)), state_on_parallel(*_first(s2))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    """A stack of n Hermitian 2x2 matrices; each draws its real part, then its
    imaginary part, as (2, 2) standard normals."""
    g = rng.standard_normal((n, 2, 2, 2))
    m = scale * (g[:, 0] + 1j * g[:, 1])
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# --------------------------------------------------------------------------
# Stacked draws: a loop's samples as one block of doubles, in the order
# that drawing them one by one takes them, mapped by the stack formulas
# above; a single product pair is a stack of one.
# --------------------------------------------------------------------------


class PairStack(NamedTuple):
    """n product pairs as arrays: the events p and q as (t, x), and the
    states as the (z, theta) of :func:`state_on_parallel`."""

    p: tuple[np.ndarray, np.ndarray]
    q: tuple[np.ndarray, np.ndarray]
    s1: tuple[np.ndarray, np.ndarray]
    s2: tuple[np.ndarray, np.ndarray]

    def states(self) -> tuple[ProductStates, ProductStates]:
        return (
            ProductStates(self.p, parallel_bloch(*self.s1)),
            ProductStates(self.q, parallel_bloch(*self.s2)),
        )

    def pairs(self) -> Iterator[tuple[ProductState, ProductState]]:
        """The pairs one by one, as product states."""
        columns = (a.tolist() for c in (self.p, self.q, self.s1, self.s2) for a in c)
        for pt, px, qt, qx, z1, th1, z2, th2 in zip(*columns):
            yield (
                ProductState(Event(pt, px), state_on_parallel(z1, th1)),
                ProductState(Event(qt, qx), state_on_parallel(z2, th2)),
            )


def _pick(mask, a: tuple, b: tuple) -> tuple:
    """Element by element, the arrays of a where mask holds, else of b."""
    return tuple(np.where(mask, x, y) for x, y in zip(a, b))


# random_product_pairs' branches: a future-directed causal pair below
# FUTURE_KIND, a spacelike pair below SPACELIKE_KIND, else a past-directed
# one; both states on one parallel below SHARED_PARALLEL
FUTURE_KIND, SPACELIKE_KIND, SHARED_PARALLEL = 0.55, 0.8, 0.75
PRODUCT_PAIR_DRAWS = 13  # the most doubles that one product pair draws


def _product_pair_end(draws: Sequence[float], k: int) -> int:
    """Where the next sample starts when a product pair starts at draws[k]:
    after the kind, a causal (4 draws) or spacelike (5) pair, the latitude,
    the angle and the parallel's coin, one more angle or a cross-latitude
    pair (4)."""
    j = k + (6 if FUTURE_KIND <= draws[k] < SPACELIKE_KIND else 5)
    return j + (4 if draws[j + 2] < SHARED_PARALLEL else 7)


def _product_pair_stack(draws: np.ndarray, starts) -> PairStack:
    """The product pairs that start at draws[starts]."""
    r = draws[np.asarray(starts)[:, None] + np.arange(PRODUCT_PAIR_DRAWS)]
    kind = r[:, 0]
    spacelike = (FUTURE_KIND <= kind) & (kind < SPACELIKE_KIND)
    past = kind >= SPACELIKE_KIND
    causal_p, causal_q = _causal_pair_stack(r[:, 1:])
    space_p, space_q = _spacelike_pair_stack(r[:, 1:])
    p = _pick(spacelike, space_p, _pick(past, causal_q, causal_p))
    q = _pick(spacelike, space_q, _pick(past, causal_p, causal_q))
    tail = np.where(spacelike[:, None], r[:, 6:], r[:, 5:-1])
    z = _from_unit(tail[:, 0], -0.9, 0.9)
    th1 = _from_unit(tail[:, 1], -math.pi, math.pi)
    shared = tail[:, 2] < SHARED_PARALLEL
    cross1, cross2 = _cross_latitude_stack(tail[:, 3:])
    s1 = _pick(shared, (z, th1), cross1)
    s2 = _pick(shared, (z, _from_unit(tail[:, 3], -math.pi, math.pi)), cross2)
    return PairStack(p, q, s1, s2)


def _branching_block(rng: np.random.Generator, bound: int, walk):
    """A block of ``bound`` doubles for samples that draw a varying number
    of them, and the sample starts that ``walk(draws)`` finds in it.

    ``walk`` returns the starts and the number of doubles used; the
    generator is then rewound and draws that number again, so it ends where
    drawing just those would leave it.
    """
    bits = rng.bit_generator
    state = bits.state
    draws = rng.random(bound)
    # a memoryview reads single doubles as floats, without listing them all
    starts, used = walk(memoryview(draws))
    bits.state = state
    rng.random(used)
    return draws, starts


def random_product_pairs(rng: np.random.Generator, df: FiniteDirac, n: int) -> PairStack:
    """n mixed pairs covering every verdict class (``df`` is unused). Each
    draws its kind: a future-directed :func:`_causal_pair_stack` pair, a
    :func:`_spacelike_pair_stack` pair or a past-directed causal pair; then a
    latitude in [-0.9, 0.9) and an angle; then either a second angle on that
    parallel or a :func:`_cross_latitude_stack` pair. Those are 9 to 13
    doubles, so the pairs come from a block of 13 n."""

    def walk(draws):
        starts, k = [], 0
        for _ in range(n):
            starts.append(k)
            k = _product_pair_end(draws, k)
        return starts, k

    return _product_pair_stack(*_branching_block(rng, PRODUCT_PAIR_DRAWS * n, walk))


def random_product_pair(
    rng: np.random.Generator, df: FiniteDirac
) -> tuple[ProductState, ProductState]:
    """One pair of :func:`random_product_pairs`."""
    return next(random_product_pairs(rng, df, 1).pairs())


def _related_pair_stack(r: np.ndarray, df: FiniteDirac) -> PairStack:
    """related_product_pairs from the draws r[:, 0:8]."""
    p, q = _timelike_pair_stack(r)
    budget = speed_bound(df) * causal_order(p, q)[1]
    z = _from_unit(r[:, 4], -0.9, 0.9)
    th1 = _from_unit(r[:, 5], -math.pi, math.pi)
    dth = _from_unit(r[:, 6], 0.0, np.minimum(0.8 * budget, math.pi))
    dth = np.where(r[:, 7] < 0.5, -dth, dth)
    return PairStack(p, q, (z, th1), (z, th1 + dth))


def related_product_pairs(rng: np.random.Generator, df: FiniteDirac, n: int) -> PairStack:
    """n causally related pairs with a comfortable speed margin: a
    :func:`_timelike_pair_stack` pair, a latitude and an angle, and a turn of up
    to 0.8 of the speed budget either way (8 doubles each)."""
    return _related_pair_stack(rng.random((n, 8)), df)


def related_product_pair(
    rng: np.random.Generator, df: FiniteDirac
) -> tuple[ProductState, ProductState]:
    """One pair of :func:`related_product_pairs`."""
    return next(related_product_pairs(rng, df, 1).pairs())


def order_triples(rng: np.random.Generator, n: int):
    """The events p, q, r of n samples of the causal-order axioms: with
    probability one half a chain, each event a step of up to 2 in t and of
    up to 2 in |x| after the last, else three random events."""
    r = rng.random((n, 7))
    chain = r[:, 0] < 0.5
    p = _event_stack(r[:, 1:])
    q_chain = (p[0] + _from_unit(r[:, 3], 0, 2), p[1] + _from_unit(r[:, 4], -2, 2))
    r_chain = (q_chain[0] + _from_unit(r[:, 5], 0, 2), q_chain[1] + _from_unit(r[:, 6], -2, 2))
    q = _pick(chain, q_chain, _event_stack(r[:, 3:]))
    return p, q, _pick(chain, r_chain, _event_stack(r[:, 5:]))


def timelike_triples(rng: np.random.Generator, n: int):
    """The events p, q, r of n samples of the reverse triangle inequality:
    a random timelike pair p, q and a timelike step from q to r."""
    r = rng.random((n, 6))
    p, q = _timelike_pair_stack(r)
    dt = _from_unit(r[:, 4], 0.3, 2.5)
    dx = dt * _from_unit(r[:, 5], -0.9, 0.9)
    return p, q, (q[0] + dt, q[1] + dx)


# --------------------------------------------------------------------------
# Suites
# --------------------------------------------------------------------------


def _eigenvalue_error(symbols: np.ndarray, center: np.ndarray, radius: np.ndarray) -> float:
    """Largest deviation of the ascending eigenvalues of a stack of 2x2
    symbols from the expected pairs (center - radius, center + radius)."""
    eig = hermitian_eigenvalues(symbols)
    lower, upper = center - radius, center + radius
    return float(max(np.max(np.abs(eig[:, 0] - lower)), np.max(np.abs(eig[:, 1] - upper))))


def verify_clifford(seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    basis = standard_basis()
    for name, err in basis.check_invariants().items():
        results.append(CheckResult("clifford", name, err <= 1e-14, err))

    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-3, 3, (1000, 2)).T
    worst = _eigenvalue_error(causal_symbol(a, b), -a, np.abs(b))
    results.append(
        CheckResult("clifford", "causal_symbol_eigenvalues", worst <= 1e-12, worst)
    )

    a, b = rng.uniform(-3, 3, (1000, 2)).T
    worst = _eigenvalue_error(steep_symbol(a, b), -a, np.sqrt(1.0 + b * b))
    results.append(
        CheckResult("clifford", "steep_symbol_eigenvalues", worst <= 1e-12, worst)
    )

    # lam in [-2, 2) and a1, b1, a2, b2 in [-3, 3)
    lo = np.array([-2.0, -3.0, -3.0, -3.0, -3.0])
    lam, a1, b1, a2, b2 = _uniform(rng, lo, -lo, (200, 5)).T
    combined = causal_symbol(lam * a1 + a2, lam * b1 + b2)
    split = lam[:, None, None] * causal_symbol(a1, b1) + causal_symbol(a2, b2)
    worst = float(np.max(np.abs(combined - split)))
    results.append(CheckResult("clifford", "symbol_linearity", worst <= 1e-12, worst))
    return results


def verify_finite(seed: int, df: FiniteDirac) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    a = random_hermitian(rng, 500)
    closed = df.gap * np.hypot(a[:, 0, 1].real, a[:, 0, 1].imag)
    worst = float(np.max(np.abs(commutator_norm(df, a) - closed)))
    results.append(
        CheckResult("finite", "commutator_norm_closed_form", worst <= 1e-12, worst)
    )

    worst = 0.0
    for _ in range(100):
        s1, s2 = random_parallel_pair(rng)
        got = spectral_distance(df, s1, s2)
        want = parallel_distance_closed_form(df, s1, s2)
        worst = max(worst, abs((math.inf if got.is_infinite else got.value) - want))
    results.append(
        CheckResult("finite", "distance_matches_closed_form", worst <= 1e-12, worst)
    )

    worst = 0.0
    for _ in range(20):
        s1, s2 = random_parallel_pair(rng)
        d12 = spectral_distance(df, s1, s2).value
        d21 = spectral_distance(df, s2, s1).value
        worst = max(worst, abs(d12 - d21))
    results.append(CheckResult("finite", "distance_symmetry", worst <= 1e-12, worst))

    worst = -math.inf
    for _ in range(20):
        z = _uniform(rng, -0.9, 0.9)
        th = rng.uniform(-math.pi, math.pi, 3)
        s = [state_on_parallel(z, t) for t in th]
        d01 = spectral_distance(df, s[0], s[1]).value
        d12 = spectral_distance(df, s[1], s[2]).value
        d02 = spectral_distance(df, s[0], s[2]).value
        worst = max(worst, d02 - (d01 + d12))
    results.append(
        CheckResult("finite", "triangle_on_parallel", worst <= 1e-12, worst)
    )

    worst = 0.0
    for _ in range(15):
        s1, s2 = random_parallel_pair(rng)
        base = spectral_distance(df, s1, s2).value
        z = latitude(s1)
        for delta in (0.5, -1.3):
            shifted = spectral_distance(
                df,
                state_on_parallel(z, longitude(s1) + delta),
                state_on_parallel(z, longitude(s2) + delta),
            ).value
            worst = max(worst, abs(shifted - base))
    results.append(
        CheckResult("finite", "longitude_shift_invariance", worst <= 1e-12, worst)
    )

    violations = 0
    min_witness = math.inf
    for _ in range(50):
        s1, s2 = random_cross_latitude_pair(rng)
        if not spectral_distance(df, s1, s2).is_infinite:
            violations += 1
        min_witness = min(min_witness, divergence_witness(df, s1, s2))
    results.append(
        CheckResult("finite", "cross_latitude_infinite", violations == 0, violations)
    )
    results.append(
        CheckResult("finite", "divergence_witness_exceeds_1e6", min_witness > 1e6, min_witness)
    )

    worst = 0.0
    for _ in range(20):
        s1, s2 = random_parallel_pair(rng)
        base = spectral_distance(df, s1, s2).value
        u = random_unitary(rng)
        rotated = unitary_conjugate(df, u)
        moved = rotated.spectral_distance(rotated.map_state(s1), rotated.map_state(s2))
        worst = max(worst, abs(moved.value - base))
    results.append(
        CheckResult("finite", "rotation_invariance", worst <= 1e-12, worst)
    )
    return results


def _spacetime_order_rows(rng: np.random.Generator) -> list[CheckResult]:
    """The causal-order axioms and the reverse triangle inequality, each on
    1000 samples drawn as one block and checked in stacked calls."""
    p, q, r = order_triples(rng, 1000)
    pp, pq, qp, qr, pr = (
        causal_order(a, b)[0] for a, b in ((p, p), (p, q), (q, p), (q, r), (p, r))
    )
    distinct = (p[0] != q[0]) | (p[1] != q[1])
    violations = int(
        np.count_nonzero(~pp)
        + np.count_nonzero(pq & qp & distinct)
        + np.count_nonzero(pq & qr & ~pr)
    )
    results = [CheckResult("spacetime", "causal_order_axioms", violations == 0, violations)]

    p, q, r = timelike_triples(rng, 1000)
    dpq, dqr, dpr, dqp, dpp = (
        causal_order(a, b)[1] for a, b in ((p, q), (q, r), (p, r), (q, p), (p, p))
    )
    violations = int(
        np.count_nonzero((dpq > 0.0) & (dqr > 0.0) & ((dpq + dqr) - dpr > 1e-12))
        + np.count_nonzero((dpq > 0.0) & (dqp != 0.0))
        + np.count_nonzero(dpp != 0.0)
    )
    results.append(
        CheckResult("spacetime", "reverse_triangle_inequality", violations == 0, violations)
    )
    return results


def verify_spacetime(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = _spacetime_order_rows(rng)

    grid = Grid(-1.0, 1.0, -1.0, 1.0, 11, 11)
    causal_fields = [
        affine_field(1.0, 0.0),
        boost_field(0.8),
        ScalarField(lambda t, x: (np.arctan(t), 1.0 / (1.0 + t * t), np.zeros_like(t))),
        affine_field(2.0, 0.0, 1.0),
    ]
    failures = 0
    for f in causal_fields:
        if not is_causal_function(f, grid):
            failures += 1
    for _ in range(10):
        lam = _uniform(rng, 0.0, 3.0)
        idx1, idx2 = rng.integers(0, len(causal_fields), 2)
        f, g = causal_fields[idx1], causal_fields[idx2]
        combined = ScalarField(
            lambda t, x, f=f, g=g, lam=lam: tuple(
                lam * a + b for a, b in zip(f.jet(t, x), g.jet(t, x))
            )
        )
        if not is_causal_function(combined, grid):
            failures += 1
    results.append(
        CheckResult("spacetime", "causal_cone_convexity", failures == 0, failures)
    )

    worst_over = -math.inf
    worst_growth = -math.inf
    for _ in range(10):
        p, q = random_timelike_pair(rng)
        d = lorentzian_distance(p, q)
        prev_gap = math.inf
        for n in (1, 2, 4, 8):
            mpt = max_proper_time(p, q, n)
            worst_over = max(worst_over, mpt - d)
            gap = d - mpt
            worst_growth = max(worst_growth, gap - prev_gap)
            prev_gap = gap
    results.append(
        CheckResult(
            "spacetime", "proper_time_below_distance", worst_over <= 1e-9, worst_over
        )
    )
    results.append(
        CheckResult(
            "spacetime", "proper_time_gap_monotone", worst_growth <= 1e-7, worst_growth
        )
    )

    worst_low = -math.inf
    worst_eq = 0.0
    for i in range(50):
        if i % 3 == 0:
            p, q = random_spacelike_pair(rng)
        elif i % 3 == 1:
            p, q = random_timelike_pair(rng)
        else:
            p, q = random_causal_pair(rng)
        d = lorentzian_distance(p, q)
        functional = lorentz_distance_functional(p, q)
        worst_low = max(worst_low, d - functional)
        worst_eq = max(worst_eq, abs(functional - d))
    results.append(
        CheckResult(
            "spacetime", "functional_dominates_distance", worst_low <= 1e-9, worst_low
        )
    )
    results.append(
        CheckResult(
            "spacetime", "functional_equals_distance", worst_eq <= 1e-9, worst_eq
        )
    )

    a, b = rng.uniform(-2, 2, (10_000, 2)).T
    causal_matrix = hermitian_eigenvalues(causal_symbol(a, b))[:, -1] <= 1e-9
    steep_matrix = hermitian_eigenvalues(steep_symbol(a, b))[:, -1] <= 1e-9
    disagreements = int(
        np.count_nonzero(causal_matrix != (np.abs(b) - a <= 1e-9))
        + np.count_nonzero(steep_matrix != (np.sqrt(1.0 + b * b) - a <= 1e-9))
    )
    results.append(
        CheckResult(
            "spacetime", "matrix_scalar_predicate_agreement", disagreements == 0, disagreements
        )
    )
    return results


BETA_GRID = (0.0, 0.75, -0.75, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)


def cone_atoms(p: Event, q: Event) -> tuple[CausalElement, ...]:
    """The atoms of the cone-monotonicity row: the constants ``id`` and
    ``sz``, and tanh of the time coordinate boosted by each rapidity of
    ``BETA_GRID`` times ``id``, centred between the two events.

    Each is in the cone on the whole plane, by the closed form of the symbol
    of u (c0 id + cz sz): its eigenvalues are (-u_t +- |u_x|)(c0 +- cz). A
    constant that commutes with the diagonal D_F has a zero symbol, and the
    tanh profile's gradient sech^2 (cosh beta, sinh beta) has
    -u_t + |u_x| = -sech^2 e^-|beta| <= 0.
    """
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    ident, sz = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
    const = _const_profile()
    return (CausalElement(const, ident), CausalElement(const, sz)) + tuple(
        CausalElement(_boost_tanh_profile(b, tc, xc), ident) for b in BETA_GRID
    )


def _product_order_rows(rng: np.random.Generator, df: FiniteDirac) -> list[CheckResult]:
    """The order axioms, the curve oracle's agreement and the restriction to
    the base order: each loop's samples drawn as one block, each predicate
    call one stacked :func:`causal_verdicts`; only the oracle goes pair by
    pair."""
    results: list[CheckResult] = []

    w1, _ = random_product_pairs(rng, df, 1000).states()
    violations = int(np.count_nonzero(~causal_verdicts(w1, w1, df).related))
    results.append(CheckResult("product", "order_reflexive", violations == 0, violations))

    # even samples pair a state with itself
    stack = random_product_pairs(rng, df, 1000)
    even = np.arange(1000) % 2 == 0
    w1, w2 = stack._replace(
        q=_pick(even, stack.p, stack.q), s2=_pick(even, stack.s1, stack.s2)
    ).states()
    both = causal_verdicts(w1, w2, df).related & causal_verdicts(w2, w1, df).related
    same_event = (w1.event[0] == w2.event[0]) & (w1.event[1] == w2.event[1])
    close = [
        bloch_close(b1, b2, 1e-9)
        for b1, b2 in zip(
            np.stack(w1.bloch, -1)[both & same_event].tolist(),
            np.stack(w2.bloch, -1)[both & same_event].tolist(),
        )
    ]
    violations = int(np.count_nonzero(both)) - close.count(True)
    results.append(
        CheckResult("product", "order_antisymmetric", violations == 0, violations)
    )

    # even samples chain a related pair (8 draws) to a third state on w1's
    # parallel, a little later and a little along (3 draws), so the premises
    # are often non-vacuous; odd samples are three random states
    chain_draws = 8 + 3

    def walk(draws):
        chained, pairs, thirds, k = [], [], [], 0
        for _ in range(500):
            chained.append(k)
            pairs.append(k + chain_draws)
            thirds.append(_product_pair_end(draws, k + chain_draws))
            k = _product_pair_end(draws, thirds[-1])
        return (chained, pairs, thirds), k

    draws, (chained, pairs, thirds) = _branching_block(
        rng, 500 * (chain_draws + 2 * PRODUCT_PAIR_DRAWS), walk
    )
    def chain_breaks(w1, w2, w3) -> int:
        w12, w23, w13 = (
            causal_verdicts(a, b, df).related for a, b in ((w1, w2), (w2, w3), (w1, w3))
        )
        return int(np.count_nonzero(w12 & w23 & ~w13))

    r = draws[np.asarray(chained)[:, None] + np.arange(chain_draws)]
    w1, w2 = _related_pair_stack(r, df).states()
    p3 = (w2.event[0] + _from_unit(r[:, 8], 0.3, 2.0), w2.event[1] + _from_unit(r[:, 9], -0.2, 0.2))
    th3 = _longitudes(w2.bloch[0], w2.bloch[1]) + _from_unit(r[:, 10], -0.5, 0.5)
    violations = chain_breaks(w1, w2, ProductStates(p3, parallel_bloch(w1.bloch[2], th3)))
    w1, w2 = _product_pair_stack(draws, pairs).states()
    w3, _ = _product_pair_stack(draws, thirds).states()
    violations += chain_breaks(w1, w2, w3)
    results.append(
        CheckResult("product", "order_transitive", violations == 0, violations)
    )

    w1, w2 = random_product_pairs(rng, df, 1000).states()
    verdicts = causal_verdicts(w1, w2, df)
    # the borderline band is excluded from the strict comparison; a pole
    # pair's nan delta_theta compares false, so it is compared
    borderline = verdicts.base_causal & (
        np.abs(verdicts.delta_theta - verdicts.theta_budget) < 1e-3
    )
    disagreements = int(
        np.count_nonzero((verdicts.related != curve_oracles(w1, w2, df)) & ~borderline)
    )
    compared = int(np.count_nonzero(~borderline))
    # a band that excluded most pairs would hide disagreements: it may take a tenth
    results.append(
        CheckResult(
            "product",
            "oracle_agreement",
            disagreements == 0 and compared >= 900,
            disagreements,
        )
    )

    r = rng.random((500, 4))
    p, q = _event_stack(r), _event_stack(r[:, 2:])
    shared = state_on_parallel(0.3, 0.7).bloch
    related = causal_verdicts(ProductStates(p, shared), ProductStates(q, shared), df).related
    violations = int(np.count_nonzero(related != causal_order(p, q)[0]))
    results.append(
        CheckResult("product", "restricts_to_base_order", violations == 0, violations)
    )
    return results


def verify_product(seed: int, df: FiniteDirac) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = _product_order_rows(rng, df)

    violations = 0
    for i in range(100):
        p, q = random_null_pair(rng)
        z = _uniform(rng, -0.9, 0.9)
        th = _uniform(rng, -math.pi, math.pi)
        s1 = state_on_parallel(z, th)
        if i % 3 == 0:
            s2 = s1
            expected = True
        elif i % 3 == 1:
            s2 = state_on_parallel(z, th + _uniform(rng, 0.1, 2.0))
            expected = False
        else:
            s2 = state_on_parallel(min(z + 0.3, 0.95), th)
            expected = False
        if causally_related(ProductState(p, s1), ProductState(q, s2), df).related != expected:
            violations += 1
    results.append(
        CheckResult("product", "lightlike_rigidity", violations == 0, violations)
    )

    # cone monotonicity: elements of the cone never decrease along the order
    worst = -math.inf
    pairs = list(related_product_pairs(rng, df, 50).pairs())
    atoms = cone_atoms(pairs[0][0].event, pairs[0][1].event)
    for w1, w2 in pairs:
        for element in atoms:
            worst = max(worst, element.eval_state(w1) - element.eval_state(w2))
    results.append(
        CheckResult("product", "cone_monotonicity", worst <= 1e-9, worst)
    )

    dft, dfx, val = rng.uniform(-2, 2, (200, 3)).T
    eye = np.eye(2, dtype=complex)
    sym = product_symbol(*(c[:, None, None] * eye for c in (val, dft, dfx)), df)
    reduced = np.kron(causal_symbol(dft, dfx), np.eye(2))
    worst = float(np.max(np.abs(sym - reduced)))
    results.append(
        CheckResult("product", "scalar_symbol_reduction", worst <= 1e-12, worst)
    )
    return results


def run_suites(suite: str, seed: int, df: FiniteDirac) -> list[CheckResult]:
    if suite not in SUITE_NAMES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES} or 'all'")
    results: list[CheckResult] = []
    if suite in ("all", "clifford"):
        results += verify_clifford(seed)
    if suite in ("all", "finite"):
        results += verify_finite(seed, df)
    if suite in ("all", "spacetime"):
        results += verify_spacetime(seed)
    if suite in ("all", "product"):
        results += verify_product(seed, df)
    return results
