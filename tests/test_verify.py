"""The verify suites themselves: each suite reproduces its own lines of the
committed seed-42 artifact when run alone, the distance and oracle rows fail
exactly when their checks do, the stacked symbol checks fail when a planted
fault reaches the functions they call, the one known unsound cone
certificate is pinned until the certificate is made sound, and the shared
generators draw the same stream as reference copies written with
``Generator.uniform``."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nccausal.verify as verify
from nccausal import (
    CausalElement,
    Event,
    Grid,
    ProductState,
    causal_symbol,
    causally_related,
    hermitian_eigenvalues,
    lorentzian_distance,
    product_symbol,
    speed_bound,
    state_on_parallel,
    steep_symbol,
)
from nccausal.cli import _fmt
from nccausal.scene import default_scene

GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_seed42.csv"
DIRAC = default_scene().dirac


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_each_suite_alone_matches_the_golden_rows(suite):
    lines = GOLDEN_VERIFY.read_text(encoding="utf-8").splitlines()[1:]
    want = [line for line in lines if line.startswith(f"{suite},")]
    got = [
        f"{r.suite},{r.name},{int(r.passed)},{_fmt(r.value)}"
        for r in verify.run_suites(suite, 42, DIRAC)
    ]
    assert got == want


def test_distance_row_counts_an_exact_zero_as_zero(monkeypatch):
    # a state paired with itself is at distance exactly 0.0, which is finite
    same = state_on_parallel(0.3, 0.7)
    monkeypatch.setattr(verify, "random_parallel_pair", lambda rng: (same, same))
    rows = {r.name: r for r in verify.verify_finite(42, DIRAC)}
    assert rows["distance_matches_closed_form"].passed
    assert rows["distance_matches_closed_form"].value == 0.0


def test_oracle_row_needs_900_compared_pairs(monkeypatch):
    # every base-causal verdict moved onto the speed limit falls in the
    # borderline band, so fewer than 900 pairs are compared
    def on_the_limit(w1, w2, df):
        verdict = causally_related(w1, w2, df)
        if verdict.base_causal and verdict.delta_theta is not None:
            return replace(verdict, theta_budget=verdict.delta_theta)
        return verdict

    monkeypatch.setattr(verify, "causally_related", on_the_limit)
    rows = {r.name: r for r in verify.verify_product(42, DIRAC)}
    assert not rows["oracle_agreement"].passed
    assert rows["oracle_agreement"].value == 0


def test_triangle_row_counts_past_directed_distances(monkeypatch):
    # a distance positive on past-directed pairs breaks d(q, p) = 0 only
    def symmetric(p, q):
        return lorentzian_distance(*sorted((p, q), key=lambda e: e.t))

    monkeypatch.setattr(verify, "lorentzian_distance", symmetric)
    rows = {r.name: r for r in verify.verify_spacetime(42)}
    assert not rows["reverse_triangle_inequality"].passed
    assert rows["reverse_triangle_inequality"].value > 0


def _shifted(fn, shift):
    """``fn`` whose every 2x2 symbol gains ``shift`` times the identity, so
    both eigenvalues move by ``shift``."""
    return lambda *args: fn(*args) + shift * np.eye(2)


def _flipped_off_diagonal(fn):
    """``fn`` with the sign of every off-diagonal entry flipped: the same
    eigenvalues, a different matrix."""
    return lambda *args: fn(*args) * np.array([[1.0, -1.0], [-1.0, 1.0]])


def _failed_rows(results):
    return {r.name for r in results if not r.passed}


FAULTS = [
    # (patched name, faulty replacement, suite, rows that must fail)
    (
        "causal_symbol",
        _shifted(causal_symbol, 1e-6),
        "clifford",
        {"causal_symbol_eigenvalues", "symbol_linearity"},
    ),
    (
        "steep_symbol",
        _shifted(steep_symbol, 1e-6),
        "clifford",
        {"steep_symbol_eigenvalues"},
    ),
    (
        "hermitian_eigenvalues",
        lambda m: hermitian_eigenvalues(m) + 1e-6,
        "clifford",
        {"causal_symbol_eigenvalues", "steep_symbol_eigenvalues"},
    ),
    (
        "causal_symbol",
        _shifted(causal_symbol, 0.1),
        "spacetime",
        {"matrix_scalar_predicate_agreement"},
    ),
    (
        "steep_symbol",
        _shifted(steep_symbol, -0.1),
        "spacetime",
        {"matrix_scalar_predicate_agreement"},
    ),
    (
        "hermitian_eigenvalues",
        lambda m: hermitian_eigenvalues(m) + 0.1,
        "spacetime",
        {"matrix_scalar_predicate_agreement"},
    ),
    (
        "causal_symbol",
        _flipped_off_diagonal(causal_symbol),
        "product",
        {"scalar_symbol_reduction"},
    ),
    (
        "product_symbol",
        lambda *args: product_symbol(*args) + 1e-6 * np.eye(4),
        "product",
        {"scalar_symbol_reduction"},
    ),
]


@pytest.mark.parametrize(
    "name, fault, suite, rows",
    FAULTS,
    ids=[f"{name}-{suite}-{i}" for i, (name, _, suite, _) in enumerate(FAULTS)],
)
def test_planted_faults_fail_the_stacked_rows(monkeypatch, name, fault, suite, rows):
    assert not _failed_rows(verify.run_suites(suite, 42, DIRAC)) & rows
    monkeypatch.setattr(verify, name, fault)
    assert rows <= _failed_rows(verify.run_suites(suite, 42, DIRAC))


# The first related pair that ``verify --suite product --seed 5`` draws for
# cone_monotonicity, whose atoms tanh_boost[+-4]*sz the coarse
# grid certifies although their symbols reach about e^4 between its points.
SEED5_P = Event(2.6825013344447735, -1.2488970165826365)
SEED5_Q = Event(2.9998452380192515, -1.0377865892012694)
COARSE = Grid(-8.0, 8.0, -8.0, 8.0, 15, 15)


def _steep_sz_atoms():
    sz = [0.0, 1.0, 0.0, 0.0]
    atoms = [
        CausalElement(f, sz)
        for f in verify.monotonicity_profiles(SEED5_P, SEED5_Q)
        if f.name.startswith(("tanh_boost[4]", "tanh_boost[-4]"))
    ]
    assert [atom.describe() for atom in atoms] == [
        "+1*tanh_boost[4]@(2.84117,-1.14334)*sz",
        "+1*tanh_boost[-4]@(2.84117,-1.14334)*sz",
    ]
    return atoms


def test_steep_sz_atoms_leave_the_cone_between_coarse_grid_points():
    fine = Grid(-8.0, 8.0, -8.0, 8.0, 161, 161)
    peaks = [atom.max_symbol_eigenvalue(fine, DIRAC) for atom in _steep_sz_atoms()]
    assert min(peaks) > 50.0  # 54.6 for +4 and 50.0 for -4


@pytest.mark.xfail(
    strict=True,
    reason="certificates check grid points only; a per-cell Lipschitz margin "
    "on the largest eigenvalue would refuse these atoms",
)
def test_steep_sz_atoms_are_not_certified_on_the_coarse_grid():
    for atom in _steep_sz_atoms():
        assert not atom.is_certified(COARSE, DIRAC)


# Reference copies of the shared generators, drawing every scalar through
# Generator.uniform. verify's own generators draw through ``_uniform`` and
# must reproduce these draws and the generator's state bit for bit, so that
# ``verify --out`` and every test that draws from them see the same numbers.


def _ref_event(rng, box=3.0):
    return Event(float(rng.uniform(-box, box)), float(rng.uniform(-box, box)))


def _ref_causal_pair(rng, box=3.0, max_step=3.0):
    p = _ref_event(rng, box)
    dt = float(rng.uniform(0.0, max_step))
    dx = dt * float(rng.uniform(-1.0, 1.0))
    return p, Event(p.t + dt, p.x + dx)


def _ref_timelike_pair(rng, box=3.0, min_dt=0.3):
    p = _ref_event(rng, box)
    dt = float(rng.uniform(min_dt, min_dt + 2.5))
    dx = dt * float(rng.uniform(-0.9, 0.9))
    return p, Event(p.t + dt, p.x + dx)


def _ref_spacelike_pair(rng, box=3.0):
    p = _ref_event(rng, box)
    dx = float(rng.uniform(0.3, 2.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    dt = abs(dx) * float(rng.uniform(-0.95, 0.95))
    return p, Event(p.t + dt, p.x + dx)


def _ref_null_pair(rng):
    t = float(rng.integers(-192, 193)) / 64.0
    x = float(rng.integers(-192, 193)) / 64.0
    s = float(rng.integers(13, 129)) / 64.0
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return Event(t, x), Event(t + s, x + sign * s)


def _ref_parallel_pair(rng, z_max=0.9, min_dtheta=0.3):
    z = float(rng.uniform(-z_max, z_max))
    th = float(rng.uniform(-math.pi, math.pi))
    dth = float(rng.uniform(min_dtheta, math.pi))
    if rng.uniform() < 0.5:
        dth = -dth
    return state_on_parallel(z, th), state_on_parallel(z, th + dth)


def _ref_cross_latitude_pair(rng, min_gap=0.05):
    z1 = float(rng.uniform(-0.95, 0.95))
    shift = float(rng.uniform(min_gap, 0.8))
    z2 = z1 + shift if z1 + shift <= 0.98 else z1 - shift
    th1 = float(rng.uniform(-math.pi, math.pi))
    th2 = float(rng.uniform(-math.pi, math.pi))
    return state_on_parallel(z1, th1), state_on_parallel(z2, th2)


def _ref_product_pair(rng, df):
    kind = rng.uniform()
    if kind < 0.55:
        p, q = _ref_causal_pair(rng)
    elif kind < 0.8:
        p, q = _ref_spacelike_pair(rng)
    else:
        q, p = _ref_causal_pair(rng)
    z = float(rng.uniform(-0.9, 0.9))
    th1 = float(rng.uniform(-math.pi, math.pi))
    if rng.uniform() < 0.75:
        s1 = state_on_parallel(z, th1)
        s2 = state_on_parallel(z, float(rng.uniform(-math.pi, math.pi)))
    else:
        s1, s2 = _ref_cross_latitude_pair(rng)
    return ProductState(p, s1), ProductState(q, s2)


def _ref_related_product_pair(rng, df, margin=0.8):
    p, q = _ref_timelike_pair(rng)
    budget = speed_bound(df) * lorentzian_distance(p, q)
    z = float(rng.uniform(-0.9, 0.9))
    th1 = float(rng.uniform(-math.pi, math.pi))
    dth = float(rng.uniform(0.0, min(margin * budget, math.pi)))
    if rng.uniform() < 0.5:
        dth = -dth
    return (
        ProductState(p, state_on_parallel(z, th1)),
        ProductState(q, state_on_parallel(z, th1 + dth)),
    )


GENERATORS = [
    (verify.random_event, _ref_event, ()),
    (verify.random_causal_pair, _ref_causal_pair, ()),
    (verify.random_timelike_pair, _ref_timelike_pair, ()),
    (verify.random_spacelike_pair, _ref_spacelike_pair, ()),
    (verify.random_null_pair, _ref_null_pair, ()),
    (verify.random_parallel_pair, _ref_parallel_pair, ()),
    (verify.random_cross_latitude_pair, _ref_cross_latitude_pair, ()),
    (verify.random_product_pair, _ref_product_pair, (DIRAC,)),
    (verify.related_product_pair, _ref_related_product_pair, (DIRAC,)),
]


@pytest.mark.parametrize(
    "generator, reference, args", GENERATORS, ids=[g.__name__ for g, _, _ in GENERATORS]
)
def test_generators_draw_the_reference_stream(generator, reference, args):
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert generator(rng, *args) == reference(ref, *args), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(finite, finite, st.integers(0, 2**32 - 1))
def test_uniform_helper_is_generator_uniform_bit_for_bit(a, b, seed):
    lo, hi = min(a, b), max(a, b)
    assume(math.isfinite(hi - lo))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert verify._uniform(rng, lo, hi).hex() == ref.uniform(lo, hi).hex()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_hermitian_stack_is_the_sequential_draws():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    stack = verify.random_hermitian(rng, 500)
    for a in stack:
        m = 2.0 * (ref.standard_normal((2, 2)) + 1j * ref.standard_normal((2, 2)))
        assert np.array_equal(a, 0.5 * (m + m.conj().T))
    assert rng.bit_generator.state == ref.bit_generator.state
    # the row's closed form, taken as a hypot of the parts, is the scalar
    # complex abs of each entry (numpy's array abs can differ in the last bit)
    closed = DIRAC.gap * np.hypot(stack[:, 0, 1].real, stack[:, 0, 1].imag)
    assert closed.tolist() == [DIRAC.gap * abs(a[0, 1]) for a in stack]
