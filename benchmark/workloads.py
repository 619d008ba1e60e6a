"""The four benchmark workloads: seeded inputs, timed requests, reference checks.

A workload builds its inputs from the seed in ``prepare`` and then serves a
fixed batch of requests.  ``request`` is the timed call into the library;
``check`` runs afterwards, untimed, and compares the answers with a reference
that does not share the code path under test.  A request covers one op
(``report``, ``certify``: one product-state pair) or many (``scan``: one event
per CSV row; ``verify``: one check row).

Ops that raise or disagree with their reference are returned by ``check`` as
failure reasons; they are counted, never skipped, so a known defect shows in
the failure count instead of being sampled around.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Two internal Dirac operators, gaps 1 and 2.5; pairs alternate between them.
DIRACS = ((0.0, 1.0), (0.5, 3.0))
LATITUDE_TOL = 1e-9
DISTANCE_TOL = 1e-6  # spectral distance against the closed form
FUNCTIONAL_TOL = 1e-9  # distance functional against the Lorentzian distance
EXACT_TOL = 1e-12
WITNESS_TOL = 1e-6
NEAR_NULL_DT = (0.5, 1.0, 3.0, 10.0)
NEAR_NULL_K = 59


def import_library():
    """Import the library fresh and return its modules by short name."""
    for name in [n for n in sys.modules if n == "nccausal" or n.startswith("nccausal.")]:
        del sys.modules[name]
    importlib.import_module("nccausal")
    mods = {
        short: importlib.import_module(f"nccausal.{full}")
        for short, full in (
            ("fg", "finite_geometry"),
            ("st", "spacetime"),
            ("pc", "product_causality"),
            ("scene", "scene"),
            ("cli", "cli"),
            ("errors", "errors"),
        )
    }
    return SimpleNamespace(**mods)


@dataclass
class Pair:
    """A generated product-state pair with the facts its answers are checked against."""

    kind: str
    dirac: int
    p: tuple[float, float]
    q: tuple[float, float]
    z: tuple[float, float]
    theta: tuple[float, float] | None  # None for pole states
    expected: str | None  # None when related, else the NotRelatedReason value
    states: tuple = ()  # the ProductStates, filled in from the loaded scene


class Strata:
    """Latin-hypercube draws for the pairs of one class: the j-th draw of
    pair i comes from stratum perm_j(i) of n.  Every batch then spreads each
    parameter evenly over its range, so the batch's cost and its slowest
    pairs vary little from seed to seed."""

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        self.rng, self.n = rng, n
        self.columns: list[np.ndarray] = []
        self.i = self.j = 0

    def start(self, i: int) -> None:
        self.i, self.j = i, 0

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        if self.j == len(self.columns):
            self.columns.append(self.rng.permutation(self.n))
        u = (self.columns[self.j][self.i] + self.rng.uniform()) / self.n
        self.j += 1
        return lo + (hi - lo) * u

    def integers(self, lo: int, hi: int) -> int:
        return min(lo + int(self.uniform() * (hi - lo)), hi - 1)


# --------------------------------------------------------------------------
# Pair generators.  Related, speed-limit and large-offset pairs keep the speed
# clause at least 0.06 rad from its boundary, far outside the 1e-3 borderline
# band; null and near-null pairs have identical internal states (no motion).
# --------------------------------------------------------------------------


def _event(rng, box=3.0):
    return float(rng.uniform(-box, box)), float(rng.uniform(-box, box))


def _timelike(rng, p=None):
    p = p if p is not None else _event(rng)
    tau = float(rng.uniform(0.3, 3.0))
    eta = float(rng.uniform(-1.2, 1.2))
    return p, (p[0] + tau * math.cosh(eta), p[1] + tau * math.sinh(eta)), tau


def _angle(rng):
    return float(rng.uniform(-math.pi, math.pi))


def _z(rng):
    return float(rng.uniform(-0.9, 0.9))


def _related(rng, gap, i, p=None):
    p, q, tau = _timelike(rng, p)
    th = _angle(rng)
    dth = float(rng.uniform(0.0, 0.8 * min(gap * tau, math.pi))) * (1 if i % 2 else -1)
    z = _z(rng)
    return p, q, (z, z), (th, th + dth), None


def _speed(rng, gap, i):
    dth = float(rng.uniform(0.5, math.pi - 0.05))
    tau = dth / (gap * float(rng.uniform(1.3, 3.0)))
    eta = float(rng.uniform(-1.2, 1.2))
    p = _event(rng)
    q = (p[0] + tau * math.cosh(eta), p[1] + tau * math.sinh(eta))
    th = _angle(rng)
    z = _z(rng)
    return p, q, (z, z), (th, th + (dth if i % 2 else -dth)), "speed"


def _latitude(rng, gap, i):
    p, q, _ = _timelike(rng)
    z1 = float(rng.uniform(-0.95, 0.95))
    shift = float(rng.uniform(0.05, 0.8))
    z2 = z1 + shift if z1 + shift <= 0.98 else z1 - shift
    return p, q, (z1, z2), (_angle(rng), _angle(rng)), "latitude"


def _spacelike(rng, gap, i):
    p = _event(rng)
    dx = float(rng.uniform(0.3, 2.5)) * (1 if i % 2 else -1)
    dt = abs(dx) * float(rng.uniform(-0.95, 0.95))
    z = _z(rng)
    return p, (p[0] + dt, p[1] + dx), (z, z), (_angle(rng), _angle(rng)), "base"


def _past(rng, gap, i):
    q, p, _ = _timelike(rng)
    z = _z(rng)
    th = _angle(rng)
    return p, q, (z, z), (th, th), "base"


def _base(rng, gap, i):
    return (_spacelike if i % 2 else _past)(rng, gap, i)


def _null(rng, gap, i):
    # dyadic coordinates, so dt == |dx| holds bitwise
    t, x = (rng.integers(-192, 193) / 64.0 for _ in range(2))
    s = rng.integers(13, 129) / 64.0
    z = _z(rng)
    th = _angle(rng)
    return (t, x), (t + s, x + (s if i % 2 else -s)), (z, z), (th, th), None


def _near_null(rng, gap, i):
    """|dx|/dt = 1 - 10^(-k/4), k spread evenly over 1..59: the sweep that
    exposes the functional's rounding trouble near the light cone.  The
    events do not depend on the seed, so every seed asks the functional the
    same near-null questions and its failures on them count the same."""
    k = 1 + round(i * (NEAR_NULL_K - 1) / max(rng.n - 1, 1))
    dt = NEAR_NULL_DT[i % len(NEAR_NULL_DT)]
    dx = dt * (1.0 - 10.0 ** (-k / 4.0)) * (1 if (i // len(NEAR_NULL_DT)) % 2 else -1)
    z = _z(rng)
    th = _angle(rng)
    return (0.0, 0.0), (dt, dx), (z, z), (th, th), None


def _pole(rng, gap, i):
    """Same pole on a timelike pair (related), opposite poles (latitude),
    same pole on a spacelike pair (base)."""
    north = bool(rng.integers(0, 2))
    z1 = 1.0 if north else -1.0
    variant = i % 4
    if variant == 3:
        p, q, _, _, _ = _spacelike(rng, gap, i)
    else:
        p, q, _ = _timelike(rng)
    z2 = -z1 if variant == 2 else z1
    expected = {2: "latitude", 3: "base"}.get(variant)
    return p, q, (z1, z2), None, expected


def _large_offset(rng, gap, i):
    scale = 10.0 ** rng.integers(3, 6)
    p = (scale * float(rng.uniform(-1, 1)), scale * float(rng.uniform(-1, 1)))
    return _related(rng, gap, i, p)


GENERATORS = {
    "related": _related,
    "speed": _speed,
    "latitude": _latitude,
    "base": _base,
    "past": _past,
    "null": _null,
    "near_null": _near_null,
    "pole": _pole,
    "large_offset": _large_offset,
}


def generate_pairs(seed: int, mix: tuple[tuple[str, int], ...]) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for kind, count in mix:
        strata = Strata(rng, count)
        for i in range(count):
            strata.start(i)
            dirac = len(pairs) % len(DIRACS)
            d1, d2 = DIRACS[dirac]
            p, q, z, theta, expected = GENERATORS[kind](strata, abs(d2 - d1), i)
            pairs.append(Pair(kind, dirac, p, q, z, theta, expected))
    return pairs


def _internal(lib, z: float, theta: float | None):
    if theta is None:
        return lib.fg.make_state([1.0, 0.0] if z > 0 else [0.0, 1.0])
    return lib.fg.state_on_parallel(z, theta)


def build_scenes(lib, pairs: list[Pair], work: Path) -> list:
    """Write one scene per Dirac operator holding the pairs' states, load the
    scenes back through the scene layer, and attach the loaded states."""
    scenes = []
    for index, (d1, d2) in enumerate(DIRACS):
        states = {}
        for n, pair in enumerate(pairs):
            if pair.dirac != index:
                continue
            thetas = pair.theta or (None, None)
            for end, event, z, theta in (
                ("a", pair.p, pair.z[0], thetas[0]),
                ("b", pair.q, pair.z[1], thetas[1]),
            ):
                states[f"pair{n}{end}"] = lib.pc.ProductState(
                    lib.st.Event(*event), _internal(lib, z, theta)
                )
        path = work / f"scene{index}.json"
        lib.scene.save_scene(lib.scene.Scene(lib.fg.FiniteDirac(d1, d2), states), str(path))
        scenes.append(lib.scene.load_scene(str(path)))
    for n, pair in enumerate(pairs):
        scene = scenes[pair.dirac]
        pair.states = (scene.state(f"pair{n}a"), scene.state(f"pair{n}b"))
    return scenes


def lorentz_reference(p, q) -> float:
    dt, dx = q[0] - p[0], q[1] - p[1]
    return math.sqrt(max(dt * dt - dx * dx, 0.0)) if dt >= abs(dx) else 0.0


def _attempt(fn, *args, **kwargs):
    """Run one library call; an exception is part of the answer."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # recorded and counted as a failed op by check()
        return exc


def _verdict_failures(pair: Pair, verdict) -> list[str]:
    if isinstance(verdict, Exception):
        return [f"causally_related:{type(verdict).__name__}"]
    got = None if verdict.related else verdict.reason.value
    return [] if got == pair.expected else ["causally_related:mismatch"]


class Workload:
    """A fixed batch of ``n_requests`` timed requests, built by ``prepare``."""

    name = ""
    n_requests = 0
    deterministic = True  # false once an output differs between batches

    def prepare(self, lib, seed: int, work: Path) -> None:
        self.lib, self.work = lib, work

    def request(self, i: int):
        raise NotImplementedError

    def check(self, i: int, answer) -> tuple[int, list[str]]:
        """(ops covered by request i, failure reasons of its failed ops)."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# report: every answer of `check` and `distance` for one pair
# --------------------------------------------------------------------------

# Small enough that a run repeats the batch about ten times; large enough
# that p75 has two dozen requests beyond it.
REPORT_MIX = (
    ("related", 12),
    ("speed", 12),
    ("latitude", 8),
    ("base", 8),
    ("past", 8),
    ("null", 8),
    ("near_null", 24),
    ("pole", 8),
    ("large_offset", 8),
)


class Report(Workload):
    name = "report"

    def prepare(self, lib, seed, work):
        super().prepare(lib, seed, work)
        self.pairs = generate_pairs(seed, REPORT_MIX)
        self.scenes = build_scenes(lib, self.pairs, work)
        self.n_requests = len(self.pairs)

    def request(self, i):
        lib = self.lib
        pair = self.pairs[i]
        w1, w2 = pair.states
        df = self.scenes[pair.dirac].dirac
        p, q = w1.event, w2.event
        spectral = _attempt(lib.fg.spectral_distance, df, w1.internal, w2.internal)
        witness = None
        if not isinstance(spectral, Exception) and spectral.is_infinite:
            witness = _attempt(lib.fg.divergence_witness, df, w1.internal, w2.internal)
        return {
            "verdict": _attempt(lib.pc.causally_related, w1, w2, df),
            "spectral": spectral,
            "witness": witness,
            "lorentzian": _attempt(lib.st.lorentzian_distance, p, q),
            "functional": _attempt(lib.st.lorentz_distance_functional, p, q),
            "reachable": _attempt(lib.pc.reachable_longitudes, w1, q, df),
        }

    def check(self, i, answer):
        lib = self.lib
        pair = self.pairs[i]
        w1, w2 = pair.states
        df = self.scenes[pair.dirac].dirac
        failures = _verdict_failures(pair, answer["verdict"])

        def mismatch(step, ok):
            value = answer[step]
            if isinstance(value, Exception):
                failures.append(f"{step}:{type(value).__name__}")
            elif not ok(value):
                failures.append(f"{step}:mismatch")

        if abs(pair.z[0] - pair.z[1]) > LATITUDE_TOL:
            mismatch("spectral", lambda r: r.is_infinite)
            if answer["witness"] is not None:
                mismatch("witness", lambda g: g > 1e6)
        else:
            closed = lib.fg.parallel_distance_closed_form(df, w1.internal, w2.internal)
            mismatch(
                "spectral",
                lambda r: not r.is_infinite and abs(r.value - closed) <= DISTANCE_TOL,
            )
        tau = lorentz_reference(pair.p, pair.q)
        mismatch("lorentzian", lambda d: abs(d - tau) <= EXACT_TOL * max(1.0, tau))
        mismatch("functional", lambda f: abs(f - tau) <= FUNCTIONAL_TOL)

        reach = answer["reachable"]
        if pair.theta is None:  # no internal motion at a pole: a typed refusal
            if not isinstance(reach, lib.errors.PoleState):
                failures.append("reachable:expected_PoleState")
        else:
            half = df.gap * tau
            causal = pair.q[0] - pair.p[0] >= abs(pair.q[1] - pair.p[1])
            if not causal:
                mismatch("reachable", lambda a: a.kind == "empty")
            elif half >= math.pi:
                mismatch("reachable", lambda a: a.kind == "full")
            else:
                mismatch(
                    "reachable",
                    lambda a: a.kind == "arc"
                    and abs(a.half_width - half) <= EXACT_TOL * max(1.0, half),
                )
        return 1, ([";".join(failures)] if failures else [])


# --------------------------------------------------------------------------
# certify: separating search, re-certification, curve-oracle cross-check
# --------------------------------------------------------------------------

# Fast pairs (latitude, base) outnumber slow ones (speed, related) so that the
# median sits inside the fast mode and p75 inside the slow one, never on the
# boundary between them.
CERTIFY_MIX = (("latitude", 12), ("base", 12), ("speed", 8), ("related", 8))
NOT_RELATED_KINDS = ("latitude", "base", "speed")


class Certify(Workload):
    name = "certify"

    def prepare(self, lib, seed, work):
        super().prepare(lib, seed, work)
        self.pairs = generate_pairs(seed, CERTIFY_MIX)
        self.scenes = build_scenes(lib, self.pairs, work)
        self.n_requests = len(self.pairs)
        self.verified: dict[int, bool] = {}  # request -> verified witness, first batch

    def request(self, i):
        lib = self.lib
        pair = self.pairs[i]
        w1, w2 = pair.states
        df = self.scenes[pair.dirac].dirac
        p, q = w1.event, w2.event
        sep = math.hypot(q.t - p.t, q.x - p.x)
        grid = lib.st.Grid.covering(p, q, margin=sep + 1.0, n_t=13, n_x=13)
        witness = _attempt(lib.pc.separating_element_search, w1, w2, df, grid=grid)
        certified = None
        if witness is not None and not isinstance(witness, Exception):
            certified = _attempt(witness.is_certified, grid.refined(2), df)
        return {
            "witness": witness,
            "certified": certified,
            "oracle": _attempt(lib.pc.curve_oracle, w1, w2, df, n_segments=6),
            "verdict": _attempt(lib.pc.causally_related, w1, w2, df),
        }

    def check(self, i, answer):
        pair = self.pairs[i]
        w1, w2 = pair.states
        failures = _verdict_failures(pair, answer["verdict"])
        oracle = answer["oracle"]
        if isinstance(oracle, Exception):
            failures.append(f"curve_oracle:{type(oracle).__name__}")
        elif oracle != (pair.expected is None):
            failures.append("curve_oracle:mismatch")
        witness = answer["witness"]
        verified = False
        if isinstance(witness, Exception):
            failures.append(f"separating_element_search:{type(witness).__name__}")
        elif witness is not None:
            if pair.expected is None:
                failures.append("separating_element_search:witness_for_related_pair")
            elif witness.eval_state(w2) - witness.eval_state(w1) >= -WITNESS_TOL:
                failures.append("separating_element_search:no_evaluation_gap")
            elif answer["certified"] is not True:
                failures.append("is_certified:fails_on_refined_grid")
            else:
                verified = True
        self.verified.setdefault(i, verified)
        return 1, ([";".join(failures)] if failures else [])

    def _witness_share(self, kinds: tuple[str, ...]) -> float:
        """Verified witnesses over the pairs of ``kinds`` attempted."""
        hits = [self.verified[i] for i, pair in enumerate(self.pairs) if pair.kind in kinds]
        return sum(hits) / len(hits)

    def witness_ratios(self) -> dict[str, float]:
        return {kind: self._witness_share((kind,)) for kind in NOT_RELATED_KINDS}

    def witness_rate(self) -> float:
        return self._witness_share(NOT_RELATED_KINDS)


# --------------------------------------------------------------------------
# scan and verify: commands through cli.main, CSV outputs
# --------------------------------------------------------------------------


def _run_cli(cli, argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# grid shape of each scan command relative to its source event:
# (t below, t above, x half-width, points per axis)
SCAN_SHAPES = (
    (1.0, 3.0, 3.0, 101),
    (0.5, 4.0, 2.0, 101),
    (2.0, 2.0, 4.0, 101),
    (0.0, 3.0, 1.5, 101),
) * 2
SCAN_ROW_STRIDE = 7  # reference-check every 7th row of a command's first CSV


class Scan(Workload):
    name = "scan"

    def prepare(self, lib, seed, work):
        super().prepare(lib, seed, work)
        rng = np.random.default_rng(seed)
        d1, d2 = DIRACS[int(rng.integers(0, len(DIRACS)))]
        self.sources = []
        states = {}
        for n in range(len(SCAN_SHAPES)):
            event, z, theta = _event(rng, 2.0), _z(rng), _angle(rng)
            self.sources.append((event, z, theta))
            states[f"src{n}"] = lib.pc.ProductState(
                lib.st.Event(*event), lib.fg.state_on_parallel(z, theta)
            )
        self.scene_path = work / "scan_scene.json"
        lib.scene.save_scene(
            lib.scene.Scene(lib.fg.FiniteDirac(d1, d2), states), str(self.scene_path)
        )
        self.gap = abs(d2 - d1)
        lib.scene.load_scene(str(self.scene_path))
        self.argv = []
        for n, ((t, x), _, _) in enumerate(self.sources):
            below, above, half, points = SCAN_SHAPES[n]
            self.argv.append([
                "scan", f"src{n}", "--scene", str(self.scene_path),
                "--t-min", repr(t - below), "--t-max", repr(t + above),
                "--x-min", repr(x - half), "--x-max", repr(x + half),
                "--nt", str(points), "--nx", str(points),
                "--out", str(work / f"scan{n}.csv"),
            ])
        self.n_requests = len(self.argv)
        self.digests: dict[int, tuple[str, list[str]]] = {}

    def request(self, i):
        return _attempt(_run_cli, self.lib.cli, self.argv[i])

    def check(self, i, answer):
        _, _, _, points = SCAN_SHAPES[i]
        rows = points * points
        if isinstance(answer, Exception):
            return rows, [f"cli.main:{type(answer).__name__}"] * rows
        if answer != 0:
            return rows, [f"cli.main:exit_{answer}"] * rows
        path = self.work / f"scan{i}.csv"
        digest = _digest(path)
        if i not in self.digests:
            # the reference check runs on the first CSV; later batches must
            # write the same bytes, so they inherit its verdict
            bad = self._reference_check(i, path)
            self.digests[i] = digest, (["scan:row_mismatch"] * rows if bad else [])
        first, failures = self.digests[i]
        if digest != first:
            self.deterministic = False
            return rows, ["scan:csv_differs_between_runs"] * rows
        return rows, failures

    def _reference_check(self, i: int, path: Path) -> bool:
        (t0, x0), _, theta = self.sources[i]
        below, above, half, points = SCAN_SHAPES[i]
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "t,x,theta_min,theta_max,reachable" or len(lines) != points * points + 1:
            return True
        center = math.atan2(math.sin(theta), math.cos(theta))
        t_lo, t_hi, x_lo, x_hi = t0 - below, t0 + above, x0 - half, x0 + half
        for k in range(0, points * points, SCAN_ROW_STRIDE):
            it, ix = divmod(k, points)
            t = t_lo + (t_hi - t_lo) / (points - 1) * it
            x = x_lo + (x_hi - x_lo) / (points - 1) * ix
            got = [float(v) for v in lines[k + 1].split(",")]
            if any(abs(g - w) > EXACT_TOL * max(1.0, abs(w)) for g, w in ((got[0], t), (got[1], x))):
                return True
            t, x = got[0], got[1]
            if t - t0 < abs(x - x0):
                want = (0.0, 0.0, 0)
            else:
                w = self.gap * lorentz_reference((t0, x0), (t, x))
                w = math.pi if w >= math.pi else w
                want = (center - w, center + w, 2 if w >= math.pi else 1)
            if int(got[4]) != want[2] or max(abs(got[2] - want[0]), abs(got[3] - want[1])) > 1e-9:
                return True
        return False


class Verify(Workload):
    """The invariant gate as the CLI runs it: the default scene at its gate
    seed.  The seed does not change this workload's inputs: the gate's run
    time varies by about a fifth between verify seeds, more than any bound."""

    name = "verify"

    def prepare(self, lib, seed, work):
        super().prepare(lib, seed, work)
        self.scene_path = work / "verify_scene.json"
        lib.scene.save_scene(lib.scene.default_scene(), str(self.scene_path))
        self.out = work / "verify.csv"
        self.argv = ["verify", "--suite", "all", "--scene", str(self.scene_path),
                     "--out", str(self.out)]
        self.n_requests = 1
        self.digest = None
        self.rows = 1

    def request(self, i):
        return _attempt(_run_cli, self.lib.cli, self.argv)

    def check(self, i, answer):
        if isinstance(answer, Exception):
            return self.rows, [f"cli.main:{type(answer).__name__}"] * self.rows
        if not self.out.exists():
            return self.rows, [f"cli.main:exit_{answer}"] * self.rows
        lines = self.out.read_text(encoding="utf-8").splitlines()[1:]
        self.rows = max(len(lines), 1)
        failed = []
        for line in lines:
            suite, check, passed, _ = line.split(",")
            if passed != "1":
                failed.append(f"verify:{suite}.{check}")
        if answer != (1 if failed else 0):
            failed = [f"cli.main:exit_{answer}"] * self.rows
        digest = _digest(self.out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.deterministic = False
            failed = ["verify:csv_differs_between_runs"] * self.rows
        self.out.unlink()
        return self.rows, failed


WORKLOADS = {w.name: w for w in (Report, Certify, Scan, Verify)}
