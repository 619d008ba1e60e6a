"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 01, 04, 05, 06, 08 and 09 assert named rows of the ``verify``
registry: one in-process ``run_suites("all", 42, ...)`` shared by the module,
the rows that ``nccausal verify`` prints. Their sample sizes and tolerances
live in ``nccausal.verify``, next to the one implementation of each check.
Criteria 02, 03 and 07 pin their own sizes and tolerances here, drawing from
the generators of ``nccausal.verify``; criterion 10 is the determinism and
golden-artifact gate.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nccausal import (
    FiniteDirac,
    Grid,
    ProductState,
    hermitian_eigenvalues,
    lorentz_distance_functional,
    lorentzian_distance,
    separating_element_search,
    state_on_parallel,
)
from nccausal.cli import main as cli_main
from nccausal.clifford import causal_symbol, steep_symbol
from nccausal.scene import default_scene
from nccausal.verify import (
    random_causal_pair,
    random_cross_latitude_pair,
    random_spacelike_pair,
    random_timelike_pair,
    related_product_pair,
    run_suites,
)

SEED = 42


@pytest.fixture(scope="module")
def registry():
    """The verify rows at the gate seed, keyed by ``suite.check``."""
    rows = run_suites("all", SEED, default_scene().dirac)
    return {f"{r.suite}.{r.name}": r for r in rows}


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


def report_rows(number: int, description: str, registry, names: list[str]) -> None:
    """Report a criterion that holds iff every named registry row passes; the
    row values, with each failed row marked, are its detail."""
    rows = [registry[name] for name in names]
    report(number, description, all(r.passed for r in rows),
           " ".join(f"{r.name}={r.value:.4g}{'' if r.passed else '(failed)'}" for r in rows))


def test_criterion_01_clifford_krein_axioms(registry):
    report_rows(1, "Clifford and Krein axioms hold entrywise to 1e-14", registry, [
        "clifford.clifford_relations",
        "clifford.j_squares_to_identity",
        "clifford.j_selfadjoint",
        "clifford.j_anticommutes_grading",
        "clifford.krein_adjoint_identity",
        "clifford.grading_consistency",
    ])


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


def test_criterion_04_distance_properties(registry):
    report_rows(4, "reverse triangle inequality (1e-12), d(p,p)=0, antisymmetry "
                   "on 1e3 chained triples",
                registry, ["spacetime.reverse_triangle_inequality"])


def test_criterion_05_spectral_distance_against_closed_form(registry):
    report_rows(5, "spectral distance matches the sine closed form within 1e-12 on "
                   "100 pairs; 50 cross-latitude pairs infinite with divergence "
                   "witness > 1e6",
                registry, [
                    "finite.distance_matches_closed_form",
                    "finite.cross_latitude_infinite",
                    "finite.divergence_witness_exceeds_1e6",
                ])


def test_criterion_06_predicate_agrees_with_curve_oracle(registry):
    report_rows(6, "causal predicate agrees with the curve oracle on 1e3 pairs "
                   "outside the 1e-3 borderline band, which excludes at most 100",
                registry, ["product.oracle_agreement"])


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


def test_criterion_08_partial_order_axioms(registry):
    report_rows(8, "product order is reflexive, antisymmetric, and transitive on "
                   "1e3 seeded states/triples",
                registry, [
                    "product.order_reflexive",
                    "product.order_antisymmetric",
                    "product.order_transitive",
                ])


def test_criterion_09_lightlike_rigidity(registry):
    report_rows(9, "along lightlike base pairs the relation holds iff the internal "
                   "state is unchanged (100 pairs)",
                registry, ["product.lightlike_rigidity"])


GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_seed42.csv"


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
    # the committed artifact pins every row: a change that moves any value
    # must regenerate it and say which rows changed and why
    golden = own_csv.read_bytes() == GOLDEN_VERIFY.read_bytes()
    report(10, "verify --suite all exits 0 and emits byte-identical CSV "
               "artifacts in a subprocess, in-process and in the committed "
               "tests/data/verify_seed42.csv with the same seed",
           returncodes == [0, 0] and identical and golden,
           f"exit_codes={returncodes} identical={identical} golden={golden}")
