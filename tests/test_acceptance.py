"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).

Sizes and tolerances are pinned here; the generators come from
``nccausal.verify`` so the CLI verify command and this gate sample the same
distributions.
"""

import math
import subprocess
import sys

import numpy as np

from nccausal import (
    FiniteDirac,
    Grid,
    ProductState,
    causally_related,
    curve_oracle,
    divergence_witness,
    hermitian_eigenvalues,
    lorentz_distance_functional,
    lorentzian_distance,
    parallel_distance_closed_form,
    separating_element_search,
    spectral_distance,
    standard_basis,
    state_on_parallel,
)
from nccausal.cli import main as cli_main
from nccausal.clifford import causal_symbol, steep_symbol
from nccausal.spacetime import Event
from nccausal.verify import (
    random_causal_pair,
    random_cross_latitude_pair,
    random_null_pair,
    random_parallel_pair,
    random_product_pair,
    random_spacelike_pair,
    random_timelike_pair,
    related_product_pair,
)

SEED = 42
DIRAC = FiniteDirac(0.0, 1.0)


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


def test_criterion_01_clifford_krein_axioms():
    errs = standard_basis().check_invariants()
    worst = max(errs.values())
    report(1, "Clifford and Krein axioms hold entrywise to 1e-14", worst <= 1e-14,
           f"max_err={worst:.3e}")


def test_criterion_02_matrix_vs_scalar_predicates():
    rng = np.random.default_rng(SEED)
    disagreements = 0
    for _ in range(10_000):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        causal_matrix = hermitian_eigenvalues(causal_symbol(a, b))[-1] <= 1e-9
        causal_scalar = abs(b) - a <= 1e-9
        if causal_matrix != causal_scalar:
            disagreements += 1
        steep_matrix = hermitian_eigenvalues(steep_symbol(a, b))[-1] <= 1e-9
        steep_scalar = math.sqrt(1.0 + b * b) - a <= 1e-9
        if steep_matrix != steep_scalar:
            disagreements += 1
    report(2, "matrix NSD predicate equals scalar predicate on 1e4 samples",
           disagreements == 0, f"disagreements={disagreements}")


def test_criterion_03_functional_on_minkowski():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        p, q = random_causal_pair(rng)
        analytic = lorentzian_distance(p, q)
        worst = max(worst, abs(lorentz_distance_functional(p, q) - analytic))
    spacelike_bad = 0
    for _ in range(100):
        p, q = random_spacelike_pair(rng)
        if lorentz_distance_functional(p, q) != 0.0:
            spacelike_bad += 1
    report(3, "distance functional matches sqrt(dt^2-dx^2) within 1e-9 and "
              "vanishes on spacelike pairs",
           worst <= 1e-9 and spacelike_bad == 0,
           f"max_err={worst:.3e} spacelike_nonzero={spacelike_bad}")


def test_criterion_04_distance_properties():
    rng = np.random.default_rng(SEED)
    violations = 0
    worst_gap = -math.inf
    for _ in range(1000):
        p, q = random_timelike_pair(rng)
        dt = float(rng.uniform(0.3, 2.5))
        dx = dt * float(rng.uniform(-0.9, 0.9))
        r = Event(q.t + dt, q.x + dx)
        dpq, dqr, dpr = (
            lorentzian_distance(p, q),
            lorentzian_distance(q, r),
            lorentzian_distance(p, r),
        )
        if lorentzian_distance(p, p) != 0.0:
            violations += 1
        if dpq > 0.0 and lorentzian_distance(q, p) != 0.0:
            violations += 1
        if dpq > 0.0 and dqr > 0.0:
            worst_gap = max(worst_gap, dpq + dqr - dpr)
            if dpq + dqr - dpr > 1e-12:
                violations += 1
    report(4, "reverse triangle inequality (1e-12), d(p,p)=0, antisymmetry "
              "on 1e3 chained triples",
           violations == 0, f"violations={violations} worst_gap={worst_gap:.3e}")


def test_criterion_05_spectral_distance_against_closed_form():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        s1, s2 = random_parallel_pair(rng)
        got = spectral_distance(DIRAC, s1, s2)
        want = parallel_distance_closed_form(DIRAC, s1, s2)
        worst = max(worst, abs((got.value if not got.is_infinite else math.inf) - want))
    infinite_bad = 0
    min_witness = math.inf
    for _ in range(50):
        s1, s2 = random_cross_latitude_pair(rng)
        if not spectral_distance(DIRAC, s1, s2).is_infinite:
            infinite_bad += 1
        min_witness = min(min_witness, divergence_witness(DIRAC, s1, s2))
    report(5, "spectral distance matches the sine closed form within 1e-6 on "
              "100 pairs; 50 cross-latitude pairs infinite with divergence "
              "witness > 1e6",
           worst <= 1e-6 and infinite_bad == 0 and min_witness > 1e6,
           f"max_err={worst:.3e} witness_min={min_witness:.3e}")


def test_criterion_06_predicate_agrees_with_curve_oracle():
    rng = np.random.default_rng(SEED)
    df = FiniteDirac(1.0, 2.0)
    disagreements = 0
    compared = 0
    for _ in range(1000):
        w1, w2 = random_product_pair(rng, df)
        verdict = causally_related(w1, w2, df)
        if (
            verdict.base_causal
            and verdict.delta_theta is not None
            and abs(verdict.delta_theta - verdict.theta_budget) < 1e-3
        ):
            continue  # borderline band excluded
        compared += 1
        if verdict.related != curve_oracle(w1, w2, df, n_segments=6):
            disagreements += 1
    report(6, "causal predicate agrees with the curve oracle on 1e3 pairs "
              "outside the 1e-3 borderline band",
           disagreements == 0 and compared >= 900,
           f"compared={compared} disagreements={disagreements}")


def _latitude_mismatch_pair(rng, df):
    p, q = random_timelike_pair(rng)
    s1, s2 = random_cross_latitude_pair(rng)
    return ProductState(p, s1), ProductState(q, s2)


def _base_not_causal_pair(rng, df):
    if rng.uniform() < 0.5:
        p, q = random_spacelike_pair(rng)
    else:
        q, p = random_timelike_pair(rng)
    z = float(rng.uniform(-0.9, 0.9))
    th = float(rng.uniform(-math.pi, math.pi))
    return ProductState(p, state_on_parallel(z, th)), ProductState(
        q, state_on_parallel(z, th)
    )


def test_criterion_07_separating_elements():
    rng = np.random.default_rng(SEED)
    df = FiniteDirac(1.0, 2.0)
    missing = 0
    uncertified = 0
    for maker in (_latitude_mismatch_pair, _base_not_causal_pair):
        for _ in range(50):
            w1, w2 = maker(rng, df)
            sep = math.hypot(w2.event.t - w1.event.t, w2.event.x - w1.event.x)
            grid = Grid.covering(w1.event, w2.event, margin=sep + 1.0, n_t=13, n_x=13)
            witness = separating_element_search(w1, w2, df, grid=grid)
            if witness is None:
                missing += 1
                continue
            if witness.eval_state(w2) - witness.eval_state(w1) >= -1e-6:
                missing += 1
            if not witness.is_certified(grid.refined(2), df):
                uncertified += 1
    false_witnesses = 0
    for _ in range(50):
        w1, w2 = related_product_pair(rng, df)
        if separating_element_search(w1, w2, df) is not None:
            false_witnesses += 1
    report(7, "verified witnesses for 50 latitude and 50 base pairs "
              "(re-certified on a 2x finer grid); none for 50 related pairs",
           missing == 0 and uncertified == 0 and false_witnesses == 0,
           f"missing={missing} uncertified={uncertified} false={false_witnesses}")


def test_criterion_08_partial_order_axioms():
    rng = np.random.default_rng(SEED)
    df = FiniteDirac(1.0, 2.0)
    violations = 0
    for _ in range(1000):
        w, _ = random_product_pair(rng, df)
        if not causally_related(w, w, df).related:
            violations += 1
    for i in range(1000):
        if i % 2 == 0:
            w1, _ = random_product_pair(rng, df)
            w2 = w1
        else:
            w1, w2 = random_product_pair(rng, df)
        if causally_related(w1, w2, df).related and causally_related(w2, w1, df).related:
            if not (
                w1.event == w2.event
                and math.dist(w1.internal.bloch, w2.internal.bloch) <= 1e-9
            ):
                violations += 1
    from nccausal.finite_geometry import latitude, longitude

    for i in range(1000):
        if i % 2 == 0:
            w1, w2 = related_product_pair(rng, df)
            p3 = Event(
                w2.event.t + float(rng.uniform(0.3, 2.0)),
                w2.event.x + float(rng.uniform(-0.2, 0.2)),
            )
            th3 = longitude(w2.internal) + float(rng.uniform(-0.5, 0.5))
            w3 = ProductState(p3, state_on_parallel(latitude(w1.internal), th3))
        else:
            w1, w2 = random_product_pair(rng, df)
            w3, _ = random_product_pair(rng, df)
        if (
            causally_related(w1, w2, df).related
            and causally_related(w2, w3, df).related
            and not causally_related(w1, w3, df).related
        ):
            violations += 1
    report(8, "product order is reflexive, antisymmetric, and transitive on "
              "1e3 seeded states/triples",
           violations == 0, f"violations={violations}")


def test_criterion_09_lightlike_rigidity():
    rng = np.random.default_rng(SEED)
    df = FiniteDirac(1.0, 2.0)
    violations = 0
    for i in range(100):
        p, q = random_null_pair(rng)
        z = float(rng.uniform(-0.9, 0.9))
        th = float(rng.uniform(-math.pi, math.pi))
        s1 = state_on_parallel(z, th)
        if i % 2 == 0:
            s2, expected = s1, True
        elif i % 4 == 1:
            s2, expected = state_on_parallel(z, th + float(rng.uniform(0.1, 2.0))), False
        else:
            s2, expected = state_on_parallel(min(z + 0.3, 0.95), th), False
        got = causally_related(ProductState(p, s1), ProductState(q, s2), df).related
        if got != expected:
            violations += 1
    report(9, "along lightlike base pairs the relation holds iff the internal "
              "state is unchanged (100 pairs)",
           violations == 0, f"violations={violations}")


def test_criterion_10_verify_determinism(tmp_path, subprocess_env):
    argv = ["verify", "--suite", "all", "--seed", "42", "--out"]
    sub_csv, own_csv = tmp_path / "subprocess.csv", tmp_path / "in_process.csv"
    # the subprocess runs while this process runs its own copy, so the two
    # independent runs overlap in wall time on a machine with two cores
    proc = subprocess.Popen(
        [sys.executable, "-m", "nccausal", *argv, str(sub_csv)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=subprocess_env,
    )
    own_code = cli_main([*argv, str(own_csv)])
    returncodes = [proc.wait(), own_code]
    identical = sub_csv.read_bytes() == own_csv.read_bytes()
    report(10, "verify --suite all exits 0 and emits byte-identical CSV "
               "artifacts in a subprocess and in-process with the same seed",
           returncodes == [0, 0] and identical,
           f"exit_codes={returncodes} identical={identical}")
