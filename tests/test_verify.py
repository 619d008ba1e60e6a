"""The verify suites themselves: each suite reproduces its own lines of the
committed seed-42 artifact when run alone, the distance and oracle rows fail
exactly when their checks do, the stacked symbol checks and the order rows
fail when a planted fault reaches the functions they call, the
cone-monotonicity row fails when an atom outside the cone joins its atoms,
the one known unsound cone certificate is pinned until the certificate is
made sound, the shared generators, scalar and stacked, draw the same stream
as reference copies written with ``Generator.uniform``, and the stacked
order rows give the rows and generator state of the scalar loops they
replaced."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nccausal.verify as verify
import nccausal.product_causality as product_causality
from nccausal.product_causality import _boost_tanh_profile
from nccausal import (
    CausalElement,
    Event,
    Grid,
    ProductState,
    ProductStates,
    causal_order,
    causal_symbol,
    causal_verdicts,
    causally_precedes,
    causally_related,
    curve_oracle,
    hermitian_eigenvalues,
    lorentzian_distance,
    latitude,
    longitude,
    product_symbol,
    speed_bound,
    state_on_parallel,
    states_close,
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
        verdicts = causal_verdicts(w1, w2, df)
        moved = verdicts.base_causal & ~np.isnan(verdicts.delta_theta)
        return verdicts._replace(
            theta_budget=np.where(moved, verdicts.delta_theta, verdicts.theta_budget)
        )

    monkeypatch.setattr(verify, "causal_verdicts", on_the_limit)
    rows = {r.name: r for r in verify.verify_product(42, DIRAC)}
    assert not rows["oracle_agreement"].passed
    assert rows["oracle_agreement"].value == 0


def test_triangle_row_counts_past_directed_distances(monkeypatch):
    # a distance positive on past-directed pairs breaks d(q, p) = 0 only
    def symmetric(p, q):
        later = q[0] < p[0]
        return causal_order(verify._pick(later, q, p), verify._pick(later, p, q))

    monkeypatch.setattr(verify, "causal_order", symmetric)
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
# cone_monotonicity. Centred between its events, the atoms tanh_boost[+-4]*sz
# pass the coarse grid's certificate although their symbols reach about e^4
# between its points.
SEED5_P = Event(2.6825013344447735, -1.2488970165826365)
SEED5_Q = Event(2.9998452380192515, -1.0377865892012694)
COARSE = Grid(-8.0, 8.0, -8.0, 8.0, 15, 15)


def _steep_sz_atoms():
    tc, xc = 0.5 * (SEED5_P.t + SEED5_Q.t), 0.5 * (SEED5_P.x + SEED5_Q.x)
    sz = [0.0, 1.0, 0.0, 0.0]
    atoms = [CausalElement(_boost_tanh_profile(b, tc, xc), sz) for b in (4.0, -4.0)]
    assert [atom.describe() for atom in atoms] == [
        "+1*tanh_boost[4]@(2.84117,-1.14334)*sz",
        "+1*tanh_boost[-4]@(2.84117,-1.14334)*sz",
    ]
    return atoms


def test_planted_steep_sz_atom_fails_cone_monotonicity(monkeypatch):
    cone_atoms = verify.cone_atoms
    assert "cone_monotonicity" not in _failed_rows(verify.run_suites("product", 5, DIRAC))
    monkeypatch.setattr(
        verify, "cone_atoms", lambda p, q: cone_atoms(p, q) + tuple(_steep_sz_atoms()[:1])
    )
    assert "cone_monotonicity" in _failed_rows(verify.run_suites("product", 5, DIRAC))


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


# Reference copies of the scalar spacetime sample draws, in the order the
# scalar loops took them.


def _ref_order_triple(rng):
    if rng.uniform() < 0.5:
        p = _ref_event(rng)
        q = Event(p.t + float(rng.uniform(0, 2)), p.x + float(rng.uniform(-2, 2)))
        r = Event(q.t + float(rng.uniform(0, 2)), q.x + float(rng.uniform(-2, 2)))
        return p, q, r
    return tuple(_ref_event(rng) for _ in range(3))


def _ref_timelike_triple(rng):
    p, q = _ref_timelike_pair(rng)
    dt = float(rng.uniform(0.3, 2.5))
    dx = dt * float(rng.uniform(-0.9, 0.9))
    return p, q, Event(q.t + dt, q.x + dx)


def _event_hexes(events):
    return [(e.t.hex(), e.x.hex()) for e in events]


def _stacked_events(stack):
    """The (t, x) array pairs of a stacked draw, as one list of events per
    sample."""
    columns = [[Event(t, x) for t, x in zip(c[0].tolist(), c[1].tolist())] for c in stack]
    return list(zip(*columns))


def _state_hexes(w):
    s = w.internal
    parts = (w.event.t, w.event.x, s.xi1.real, s.xi1.imag, s.xi2.real, s.xi2.imag, *s.bloch)
    return [v.hex() for v in parts]


STACKED = [
    # (stacked draw, reference sample, to comparable per-sample values)
    (
        lambda rng, n: list(verify.random_product_pairs(rng, DIRAC, n).pairs()),
        lambda rng: _ref_product_pair(rng, DIRAC),
        lambda pair: [_state_hexes(w) for w in pair],
    ),
    (
        lambda rng, n: list(verify.related_product_pairs(rng, DIRAC, n).pairs()),
        lambda rng: _ref_related_product_pair(rng, DIRAC),
        lambda pair: [_state_hexes(w) for w in pair],
    ),
    (
        lambda rng, n: _stacked_events(verify.order_triples(rng, n)),
        _ref_order_triple,
        _event_hexes,
    ),
    (
        lambda rng, n: _stacked_events(verify.timelike_triples(rng, n)),
        _ref_timelike_triple,
        _event_hexes,
    ),
]


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize(
    "stacked, reference, values",
    STACKED,
    ids=["random_product_pairs", "related_product_pairs", "order_triples", "timelike_triples"],
)
def test_stacked_draws_are_the_reference_samples(stacked, reference, values, n):
    # a run of 1000 ends far from the bound drawn for it, so the rewind of a
    # branching draw is exercised at every seed; n = 1000 is checked on the
    # first 20 seeds, where the references alone take most of a second
    for seed in range(200 if n < 1000 else 20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = stacked(rng, n)
        assert len(got) == n
        for sample in got:
            assert values(sample) == values(reference(ref)), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def test_branching_block_keeps_the_buffered_32_bit_half():
    # an integer draw below 2**32 leaves half a 64-bit output buffered,
    # which Generator.random does not touch but bit_generator.advance drops
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref):
            g.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
        pairs = list(verify.random_product_pairs(rng, DIRAC, 3).pairs())
        assert pairs == [_ref_product_pair(ref, DIRAC) for _ in range(3)]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 5) == ref.integers(0, 5)


# The scalar loops the stacked rows replaced, sample by sample with the
# scalar predicate and the reference generators above: the reference of
# ``_spacetime_order_rows`` and ``_product_order_rows``.


def _ref_spacetime_order_rows(rng):
    violations = 0
    for _ in range(1000):
        if rng.uniform() < 0.5:
            p = _ref_event(rng)
            q = Event(p.t + float(rng.uniform(0, 2)), p.x + float(rng.uniform(-2, 2)))
            r = Event(q.t + float(rng.uniform(0, 2)), q.x + float(rng.uniform(-2, 2)))
        else:
            p, q, r = (_ref_event(rng) for _ in range(3))
        if not causally_precedes(p, p):
            violations += 1
        if causally_precedes(p, q) and causally_precedes(q, p) and p != q:
            violations += 1
        if causally_precedes(p, q) and causally_precedes(q, r) and not causally_precedes(p, r):
            violations += 1
    results = [verify.CheckResult("spacetime", "causal_order_axioms", violations == 0, violations)]

    violations = 0
    for _ in range(1000):
        p, q = _ref_timelike_pair(rng)
        dt = float(rng.uniform(0.3, 2.5))
        dx = dt * float(rng.uniform(-0.9, 0.9))
        r = Event(q.t + dt, q.x + dx)
        dpq, dqr, dpr = (lorentzian_distance(a, b) for a, b in ((p, q), (q, r), (p, r)))
        if dpq > 0.0 and dqr > 0.0 and (dpq + dqr) - dpr > 1e-12:
            violations += 1
        if dpq > 0.0 and lorentzian_distance(q, p) != 0.0:
            violations += 1
        if lorentzian_distance(p, p) != 0.0:
            violations += 1
    results.append(
        verify.CheckResult("spacetime", "reverse_triangle_inequality", violations == 0, violations)
    )
    return results


def _ref_product_order_rows(rng, df):
    def row(name, violations):
        return verify.CheckResult("product", name, violations == 0, violations)

    def related(w1, w2):
        return causally_related(w1, w2, df).related

    violations = 0
    for _ in range(1000):
        w1, _ = _ref_product_pair(rng, df)
        violations += not related(w1, w1)
    results = [row("order_reflexive", violations)]

    violations = 0
    for i in range(1000):
        if i % 2 == 0:
            w1, _ = _ref_product_pair(rng, df)
            w2 = w1
        else:
            w1, w2 = _ref_product_pair(rng, df)
        if (
            related(w1, w2)
            and related(w2, w1)
            and not (w1.event == w2.event and states_close(w1.internal, w2.internal, 1e-9))
        ):
            violations += 1
    results.append(row("order_antisymmetric", violations))

    violations = 0
    for i in range(1000):
        if i % 2 == 0:
            w1, w2 = _ref_related_product_pair(rng, df)
            p3 = Event(
                w2.event.t + float(rng.uniform(0.3, 2.0)),
                w2.event.x + float(rng.uniform(-0.2, 0.2)),
            )
            z = latitude(w1.internal)
            th3 = longitude(w2.internal) + float(rng.uniform(-0.5, 0.5))
            w3 = ProductState(p3, state_on_parallel(z, th3))
        else:
            w1, w2 = _ref_product_pair(rng, df)
            w3, _ = _ref_product_pair(rng, df)
        if related(w1, w2) and related(w2, w3) and not related(w1, w3):
            violations += 1
    results.append(row("order_transitive", violations))

    disagreements = 0
    compared = 0
    for _ in range(1000):
        w1, w2 = _ref_product_pair(rng, df)
        verdict = causally_related(w1, w2, df)
        if verdict.delta_theta is not None and verdict.base_causal:
            if abs(verdict.delta_theta - verdict.theta_budget) < 1e-3:
                continue
        compared += 1
        if verdict.related != curve_oracle(w1, w2, df, n_segments=6):
            disagreements += 1
    results.append(
        verify.CheckResult(
            "product", "oracle_agreement", disagreements == 0 and compared >= 900, disagreements
        )
    )

    violations = 0
    shared = state_on_parallel(0.3, 0.7)
    for _ in range(500):
        p = _ref_event(rng)
        q = _ref_event(rng)
        if related(ProductState(p, shared), ProductState(q, shared)) != causally_precedes(p, q):
            violations += 1
    results.append(row("restricts_to_base_order", violations))
    return results


@pytest.mark.parametrize("seed", [0, 3, 5, 42, 99, 12345])
def test_stacked_rows_are_the_scalar_loops(seed):
    for rows, reference in (
        (verify._spacetime_order_rows, _ref_spacetime_order_rows),
        (
            lambda rng: verify._product_order_rows(rng, DIRAC),
            lambda rng: _ref_product_order_rows(rng, DIRAC),
        ),
    ):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rows(rng) == reference(ref)
        assert rng.bit_generator.state == ref.bit_generator.state


def _events_swapped(w1, w2, df):
    """The predicate asked with the two events swapped, states in place."""
    return causally_related(
        ProductState(w2.event, w1.internal), ProductState(w1.event, w2.internal), df
    )


def _events_swapped_stack(w1, w2, df):
    return causal_verdicts(ProductStates(w2.event, w1.bloch), ProductStates(w1.event, w2.bloch), df)


def _root_distance(p, q):
    return math.sqrt(lorentzian_distance(p, q))


def _root_distance_stack(p, q):
    precedes, tau = causal_order(p, q)
    return precedes, np.sqrt(tau)


PREDICATE_FAULTS = [
    # (patches of (module, name, replacement), rows that must fail); each
    # fault reaches the scalar predicate of lightlike_rigidity and the
    # stacked one of the other rows alike
    (
        # a strict speed clause: a pair right on its budget is refused
        [(product_causality, "SPEED_SLACK", -1e-12)],
        {"order_reflexive", "lightlike_rigidity"},
    ),
    (
        # the events passed in the wrong order
        [
            (verify, "causally_related", _events_swapped),
            (verify, "causal_verdicts", _events_swapped_stack),
        ],
        {"restricts_to_base_order", "lightlike_rigidity"},
    ),
    (
        # a budget from the root of the proper time, which is not additive
        # along a chain
        [
            (product_causality, "lorentzian_distance", _root_distance),
            (product_causality, "causal_order", _root_distance_stack),
        ],
        {"order_transitive"},
    ),
]


@pytest.mark.parametrize(
    "patches, rows", PREDICATE_FAULTS, ids=["strict-speed", "swapped-events", "root-budget"]
)
def test_planted_predicate_faults_fail_the_order_rows(monkeypatch, patches, rows):
    assert not _failed_rows(verify.verify_product(42, DIRAC)) & rows
    for module, name, fault in patches:
        monkeypatch.setattr(module, name, fault)
    assert rows <= _failed_rows(verify.verify_product(42, DIRAC))
