"""The verify suites themselves: each suite reproduces its own lines of the
committed seed-42 artifact when run alone, the distance and oracle rows fail
exactly when their checks do, the stacked symbol checks fail when a planted
fault reaches the functions they call, and the one known unsound cone
certificate is pinned until the certificate is made sound."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nccausal.verify as verify
from nccausal import (
    CausalElement,
    Event,
    Grid,
    causal_symbol,
    causally_related,
    hermitian_eigenvalues,
    lorentzian_distance,
    product_symbol,
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
