"""Runnable invariant suites behind the ``verify`` command.

Each suite returns :class:`CheckResult` rows, the package's one registry of
invariant checks: the CLI prints one line per row and can write them as a
CSV artifact, and the acceptance tests assert rows by name. All randomness
flows from a single seed, so repeated runs are bit-identical;
``tests/data/verify_seed42.csv`` and ``tests/data/verify_seed3.csv`` pin
every row. A scalar draw goes through ``_uniform``, which gives
``Generator.uniform``'s value and generator state at the cost of one
``Generator.random``. A fixed-size sample set checked by a library call that
takes arrays is drawn as one array, in the generator's per-sample order, and
checked in one stacked call; samples that branch on a draw stay per sample.

The seeded generators at the top are shared with the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    commutator_norm,
    divergence_witness,
    latitude,
    longitude,
    parallel_distance_closed_form,
    spectral_distance,
    state_on_parallel,
    states_close,
    unitary_conjugate,
)
from .product_causality import (
    CausalElement,
    ProductState,
    _boost_tanh_profile,
    _const_profile,
    causally_related,
    curve_oracle,
    product_symbol,
    speed_bound,
)
from .spacetime import (
    Event,
    Grid,
    ScalarField,
    affine_field,
    boost_field,
    causally_precedes,
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


def _uniform(rng: np.random.Generator, lo, hi, size=None):
    """The draw ``rng.uniform(lo, hi, size)``, bit for bit and with the same
    generator state, without the cost of ``Generator.uniform``'s dispatch:
    numpy draws it as ``lo + (hi - lo) * next_double``."""
    return lo + (hi - lo) * rng.random(size)


def random_event(rng: np.random.Generator, box: float = 3.0) -> Event:
    return Event(_uniform(rng, -box, box), _uniform(rng, -box, box))


def random_causal_pair(
    rng: np.random.Generator, box: float = 3.0, max_step: float = 3.0
) -> tuple[Event, Event]:
    """p and a point of its closed future cone (timelike to lightlike mix)."""
    p = random_event(rng, box)
    dt = _uniform(rng, 0.0, max_step)
    dx = dt * _uniform(rng, -1.0, 1.0)
    return p, Event(p.t + dt, p.x + dx)


def random_timelike_pair(
    rng: np.random.Generator, box: float = 3.0, min_dt: float = 0.3
) -> tuple[Event, Event]:
    p = random_event(rng, box)
    dt = _uniform(rng, min_dt, min_dt + 2.5)
    dx = dt * _uniform(rng, -0.9, 0.9)
    return p, Event(p.t + dt, p.x + dx)


def random_spacelike_pair(
    rng: np.random.Generator, box: float = 3.0
) -> tuple[Event, Event]:
    """Pair with |dt| <= 0.95 |dx|, so neither precedes the other."""
    p = random_event(rng, box)
    dx = _uniform(rng, 0.3, 2.5) * (1.0 if rng.random() < 0.5 else -1.0)
    dt = abs(dx) * _uniform(rng, -0.95, 0.95)
    return p, Event(p.t + dt, p.x + dx)


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
    rng: np.random.Generator, min_gap: float = 0.05
) -> tuple[InternalState, InternalState]:
    z1 = _uniform(rng, -0.95, 0.95)
    shift = _uniform(rng, min_gap, 0.8)
    z2 = z1 + shift if z1 + shift <= 0.98 else z1 - shift
    th1 = _uniform(rng, -math.pi, math.pi)
    th2 = _uniform(rng, -math.pi, math.pi)
    return state_on_parallel(z1, th1), state_on_parallel(z2, th2)


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


def random_product_pair(
    rng: np.random.Generator, df: FiniteDirac
) -> tuple[ProductState, ProductState]:
    """Mixed pair generator covering every verdict class."""
    kind = rng.random()
    if kind < 0.55:
        p, q = random_causal_pair(rng)
    elif kind < 0.8:
        p, q = random_spacelike_pair(rng)
    else:
        q, p = random_causal_pair(rng)  # past-directed
    z = _uniform(rng, -0.9, 0.9)
    th1 = _uniform(rng, -math.pi, math.pi)
    if rng.random() < 0.75:
        s1 = state_on_parallel(z, th1)
        s2 = state_on_parallel(z, _uniform(rng, -math.pi, math.pi))
    else:
        s1, s2 = random_cross_latitude_pair(rng)
    return ProductState(p, s1), ProductState(q, s2)


def related_product_pair(
    rng: np.random.Generator, df: FiniteDirac, margin: float = 0.8
) -> tuple[ProductState, ProductState]:
    """A pair that is causally related with a comfortable speed margin."""
    p, q = random_timelike_pair(rng)
    budget = speed_bound(df) * lorentzian_distance(p, q)
    z = _uniform(rng, -0.9, 0.9)
    th1 = _uniform(rng, -math.pi, math.pi)
    dth = _uniform(rng, 0.0, min(margin * budget, math.pi))
    if rng.random() < 0.5:
        dth = -dth
    return (
        ProductState(p, state_on_parallel(z, th1)),
        ProductState(q, state_on_parallel(z, th1 + dth)),
    )


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


def verify_spacetime(seed: int) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    violations = 0
    for _ in range(1000):
        if rng.random() < 0.5:
            p = random_event(rng)
            q = Event(p.t + _uniform(rng, 0, 2), p.x + _uniform(rng, -2, 2))
            r = Event(q.t + _uniform(rng, 0, 2), q.x + _uniform(rng, -2, 2))
        else:
            p, q, r = (random_event(rng) for _ in range(3))
        if not causally_precedes(p, p):
            violations += 1
        if causally_precedes(p, q) and causally_precedes(q, p) and p != q:
            violations += 1
        if (
            causally_precedes(p, q)
            and causally_precedes(q, r)
            and not causally_precedes(p, r)
        ):
            violations += 1
    results.append(
        CheckResult("spacetime", "causal_order_axioms", violations == 0, violations)
    )

    violations = 0
    for _ in range(1000):
        p, q = random_timelike_pair(rng)
        dt = _uniform(rng, 0.3, 2.5)
        dx = dt * _uniform(rng, -0.9, 0.9)
        r = Event(q.t + dt, q.x + dx)
        dpq, dqr, dpr = (
            lorentzian_distance(p, q),
            lorentzian_distance(q, r),
            lorentzian_distance(p, r),
        )
        if dpq > 0.0 and dqr > 0.0 and (dpq + dqr) - dpr > 1e-12:
            violations += 1
        if dpq > 0.0 and lorentzian_distance(q, p) != 0.0:
            violations += 1
        if lorentzian_distance(p, p) != 0.0:
            violations += 1
    results.append(
        CheckResult("spacetime", "reverse_triangle_inequality", violations == 0, violations)
    )

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


def _bump_profile(tc: float, xc: float, width: float) -> ScalarField:
    w2 = width * width

    def jet(t, x):
        dt = t - tc
        dx = x - xc
        u = np.exp(-(dt * dt + dx * dx) / (2.0 * w2))
        return u, -dt / w2 * u, -dx / w2 * u

    return ScalarField(jet, f"bump[{tc:g},{xc:g};{width:g}]")


def monotonicity_profiles(p: Event, q: Event) -> tuple[ScalarField, ...]:
    """The profiles of the cone-monotonicity atoms: the constant, tanh of
    boosted time coordinates (rapidities ``BETA_GRID``), and two Gaussian
    bumps, all centred between the two events."""
    sep = math.hypot(q.t - p.t, q.x - p.x)
    width = max(sep, 1.0)
    tc, xc = 0.5 * (p.t + q.t), 0.5 * (p.x + q.x)
    return (
        (_const_profile(),)
        + tuple(_boost_tanh_profile(b, tc, xc) for b in BETA_GRID)
        + (_bump_profile(tc, xc, width), _bump_profile(tc, xc, 0.5 * width))
    )


def verify_product(seed: int, df: FiniteDirac) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    violations = 0
    for _ in range(1000):
        w1, _ = random_product_pair(rng, df)
        if not causally_related(w1, w1, df).related:
            violations += 1
    results.append(
        CheckResult("product", "order_reflexive", violations == 0, violations)
    )

    violations = 0
    for i in range(1000):
        if i % 2 == 0:
            w1, _ = random_product_pair(rng, df)
            w2 = w1
        else:
            w1, w2 = random_product_pair(rng, df)
        if (
            causally_related(w1, w2, df).related
            and causally_related(w2, w1, df).related
            and not (w1.event == w2.event and states_close(w1.internal, w2.internal, 1e-9))
        ):
            violations += 1
    results.append(
        CheckResult("product", "order_antisymmetric", violations == 0, violations)
    )

    violations = 0
    for i in range(1000):
        if i % 2 == 0:
            # chained construction so the premises are frequently non-vacuous
            w1, w2 = related_product_pair(rng, df)
            p3 = Event(
                w2.event.t + _uniform(rng, 0.3, 2.0),
                w2.event.x + _uniform(rng, -0.2, 0.2),
            )
            z = latitude(w1.internal)
            th3 = longitude(w2.internal) + _uniform(rng, -0.5, 0.5)
            w3 = ProductState(p3, state_on_parallel(z, th3))
        else:
            w1, w2 = random_product_pair(rng, df)
            w3, _ = random_product_pair(rng, df)
        if (
            causally_related(w1, w2, df).related
            and causally_related(w2, w3, df).related
            and not causally_related(w1, w3, df).related
        ):
            violations += 1
    results.append(
        CheckResult("product", "order_transitive", violations == 0, violations)
    )

    disagreements = 0
    compared = 0
    for _ in range(1000):
        w1, w2 = random_product_pair(rng, df)
        verdict = causally_related(w1, w2, df)
        if verdict.delta_theta is not None and verdict.base_causal:
            if abs(verdict.delta_theta - verdict.theta_budget) < 1e-3:
                continue  # borderline band excluded from the strict comparison
        compared += 1
        if verdict.related != curve_oracle(w1, w2, df, n_segments=6):
            disagreements += 1
    # a band that excluded most pairs would hide disagreements: it may take a tenth
    results.append(
        CheckResult(
            "product", "oracle_agreement", disagreements == 0 and compared >= 900, disagreements
        )
    )

    violations = 0
    shared = state_on_parallel(0.3, 0.7)
    for _ in range(500):
        p = random_event(rng)
        q = random_event(rng)
        w1, w2 = ProductState(p, shared), ProductState(q, shared)
        if causally_related(w1, w2, df).related != causally_precedes(p, q):
            violations += 1
    results.append(
        CheckResult("product", "restricts_to_base_order", violations == 0, violations)
    )

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

    # cone monotonicity: certified atoms, each profile times each Pauli
    # matrix, never decrease along the order
    worst = -math.inf
    pairs = [related_product_pair(rng, df) for _ in range(50)]
    profiles = monotonicity_profiles(pairs[0][0].event, pairs[0][1].event)
    grid = Grid(-8.0, 8.0, -8.0, 8.0, 15, 15)
    atoms = [CausalElement(f, unit) for f in profiles for unit in np.eye(4)]
    certified = [atom for atom in atoms if atom.is_certified(grid, df)]
    for w1, w2 in pairs:
        for element in certified:
            worst = max(worst, element.eval_state(w1) - element.eval_state(w2))
    results.append(
        CheckResult(
            "product",
            "cone_monotonicity",
            bool(certified) and worst <= 1e-9,
            worst,
        )
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
