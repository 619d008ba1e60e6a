"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload report --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  Each run is one process,
one thread, closed loop: the next request starts when the previous one has
returned.  It

1. sets the library up (fresh import, seeded input generation, scene
   build) ten times before the first batch and twice after each batch, up
   to thirty, and reports the median as ``setup_s``;
2. repeats the workload's fixed batch of requests, at least twice, while
   another batch still fits into ``--seconds``, checking every answer
   against its reference between batches;
3. with ``--trace 1``, alternates untraced and traced batches and reports
   per-layer spans and counts instead of the end-to-end metrics.

Times are CPU times of the main thread, scaled to a reference processor
speed by the speed probe (``probe.py``), not wall times.  The library is
single-threaded with BLAS pinned to one thread, so CPU and wall time agree
on an idle machine; on a shared virtual machine wall time also counts the
waits for a processor, and both drift from run to run by more than any
useful regression bound.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
the distinct ops of the fixed batch, not their repeats, and ``failed`` the
distinct ops that raised or disagreed with their reference, so both depend
on the seed only.  ``correct`` is false when the run could not trust its
outputs: an answer or its check differed between repeats, or the per-layer
counts of two traced batches differed.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
from probe import SpeedProbe  # noqa: E402


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per run: SETUP_FIRST before the first batch, then SETUP_AFTER after
# each batch up to SETUP_REPEATS, so the median samples the host over the
# whole run and not over one half-second spell
SETUP_FIRST = 10
SETUP_AFTER = 2
SETUP_REPEATS = 30
MIN_BATCHES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def environment(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(values: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    values beyond it; with fewer than eleven values, the maximum."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(values, pct))
    return 100.0, float(np.max(values))


def setup(workload_cls, seed: int, work: Path, probe: SpeedProbe):
    """One set-up: fresh import, input generation, scene build.  Returns the
    workload and its timing (scaled to the reference speed once the probes
    after it have run)."""
    import workloads

    with probe.timing() as timing:
        workload = workload_cls()
        workload.prepare(workloads.import_library(), seed, work)
    return workload, timing


class Outcomes:
    """Per request of the fixed batch: the ops it covers and the failure
    reasons of its failed ops.  Repeats of a request must fail the same way;
    when they do not, ``consistent`` turns false."""

    def __init__(self) -> None:
        self.ops: dict[int, int] = {}
        self.reasons: dict[int, list[str]] = {}
        self.consistent = True

    def record(self, request: int, ops: int, reasons: list[str]) -> None:
        if request in self.reasons and self.reasons[request] != reasons:
            self.consistent = False
        self.ops.setdefault(request, ops)
        self.reasons.setdefault(request, reasons)

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())

    @property
    def failures(self) -> Counter[str]:
        return Counter(r for reasons in self.reasons.values() for r in reasons)

    @property
    def failed(self) -> int:
        return sum(len(reasons) for reasons in self.reasons.values())


class Batches:
    """Runs the fixed batch repeatedly and keeps the timings.

    A request's time in one batch is its CPU time divided by the slowdown
    the probes measured around it (see ``probe``); its latency is the median
    of those over the batches run, and a batch's time is the sum of the
    latencies."""

    def __init__(self, workload, outcomes: Outcomes, probe: SpeedProbe, tracer=None):
        self.workload = workload
        self.outcomes = outcomes
        self.probe = probe
        self.tracer = tracer
        self.latencies: list[np.ndarray] = []  # [batch][request], reference speed
        self.walls: list[float] = []  # wall time of each batch's requests
        self.elapsed: list[float] = []  # wall time of each batch with its checks
        self.layer_summaries: list[dict] = []

    def run_batch(self) -> None:
        """Run every request once, then check the answers (untimed)."""
        workload, tracer, probe = self.workload, self.tracer, self.probe
        started = perf_counter()
        first_span = len(tracer) if tracer else 0
        answers, timings = [], []
        for i in range(workload.n_requests):
            if tracer:
                tracer.op_id = i
            with probe.timing() as timing:
                answers.append(workload.request(i))
            timings.append(timing)
        # after the batch, so that the probes just after each request exist
        self.latencies.append(np.array([probe.scaled(t) for t in timings]))
        self.walls.append(sum(t.wall_s for t in timings))
        if tracer:
            self.layer_summaries.append(tracer.summary(first_span, len(tracer)))
        for i, answer in enumerate(answers):
            self.outcomes.record(i, *workload.check(i, answer))
        self.elapsed.append(perf_counter() - started)

    @property
    def batches(self) -> int:
        return len(self.latencies)

    def request_times(self) -> np.ndarray:
        return np.median(np.array(self.latencies), axis=0)

    @property
    def time(self) -> float:
        return float(np.sum(self.request_times()))

    def slowest(self) -> float:
        """Wall time of the slowest batch so far, with its checks."""
        return max(self.elapsed, default=0.0)


def off_main_thread_cpu() -> float:
    """CPU seconds of the process's other threads and its children so far."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return max(sum(u.ru_utime + u.ru_stime for u in usage) - thread_time(), 0.0)


def end_to_end(workload, runs: Batches, setup_s: float, setups: int) -> tuple[dict, dict]:
    times = runs.request_times()
    pct, tail_value = tail(times)
    outcomes = runs.outcomes
    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_s": (runs.time, "s"),
        "ops_per_s": (outcomes.attempted / runs.time, "1/s"),
        "op_p50_ms": (1e3 * float(np.median(times)), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "op_tail_percentile": (pct, "%"),
        "requests_per_batch": (workload.n_requests, "count"),
        "batches": (runs.batches, "count"),
        "setups": (setups, "count"),
        "failed_share": (outcomes.failed / outcomes.attempted, "fraction"),
        # latencies time the main thread only: work moved to other threads
        # or child processes would show here instead
        "off_main_thread_cpu_s": (off_main_thread_cpu(), "s"),
    }
    if workload.name == "certify":
        info["witness_rate"] = (workload.witness_rate(), "fraction")
    return metrics, info


def per_layer(workload, setup_summary: dict, traced: Batches, untraced: Batches) -> dict:
    """Per-layer metrics for one traced set-up plus one traced batch (median
    over the traced batches).  Spans are timed in wall time, which is cheap
    to read; layer times are scaled to the reference speed by the ratio of
    the traced batches' scaled CPU time to their wall time."""
    scale = sum(float(np.sum(b)) for b in traced.latencies) / sum(traced.walls)

    def layer(name, key):
        batch = statistics.median(s[name][key] for s in traced.layer_summaries)
        value = setup_summary[name][key] + batch
        return value * scale if key.endswith("_s") else value

    metrics = {}
    for name, keys in (
        ("finite_geometry.spectral_distance", ("busy_s", "calls")),
        ("spacetime.lorentz_distance_functional", ("busy_s", "calls", "failed")),
        ("spacetime.is_steep_function", ("self_s", "calls")),
        ("clifford.is_nsd", ("calls",)),
        ("clifford.steep_symbol", ("calls",)),
        ("clifford.causal_symbol", ("calls",)),
        ("spacetime.ascend_proper_time", ("busy_s", "calls")),
        ("product_causality.separating_element_search", ("busy_s", "calls")),
        ("product_causality.CausalElement.is_certified", ("busy_s", "calls")),
        ("product_causality.product_symbol", ("calls",)),
        ("product_causality.curve_oracle", ("self_s", "calls")),
        ("product_causality.causally_related", ("busy_s", "calls")),
        ("product_causality.reachable_longitudes", ("busy_s", "calls")),
        ("cli", ("self_s",)),
        ("scene", ("busy_s",)),
        ("verify.clifford", ("busy_s",)),
        ("verify.finite", ("busy_s",)),
        ("verify.spacetime", ("busy_s",)),
        ("verify.product", ("busy_s",)),
    ):
        for key in keys:
            unit = "s" if key.endswith("_s") else "count"
            metrics[f"{name}.{key}"] = (layer(name, key), unit)

    functional_calls = metrics["spacetime.lorentz_distance_functional.calls"][0]
    steep_calls = metrics["spacetime.is_steep_function.calls"][0]
    metrics["spacetime.lorentz_distance_functional.steep_checks_per_call"] = (
        steep_calls / functional_calls if functional_calls else 0.0, "count"
    )
    search = "product_causality.separating_element_search"
    if workload.name == "certify":
        ratios, rate = workload.witness_ratios(), workload.witness_rate()
    else:
        ratios, rate = {"latitude": 0.0, "base": 0.0, "speed": 0.0}, 0.0
    metrics[f"{search}.witness_ratio.lat"] = (ratios["latitude"], "fraction")
    metrics[f"{search}.witness_ratio.base"] = (ratios["base"], "fraction")
    metrics[f"{search}.witness_ratio.speed"] = (ratios["speed"], "fraction")
    metrics[f"{search}.witness_rate"] = (rate, "fraction")
    metrics["trace.overhead_s"] = (traced.time - untraced.time, "s")
    return metrics


def traced_run(workload, seed: int, work: Path, untraced: Batches, deadline: float):
    """Alternate untraced and traced batches, at least two of each, and more
    while another pair still ends before ``deadline``.  Returns the tracer,
    the traced batches and the traced set-up's layer summary."""
    tracer = tracing.Tracer()
    traced = Batches(workload, untraced.outcomes, untraced.probe, tracer)
    with tracer.installed():
        type(workload)().prepare(workload.lib, seed, work)
    setup_summary = tracer.summary(0, len(tracer))
    # alternating, so that a slow spell of the host the probe misses does
    # not land on one side of the overhead
    while (traced.batches < MIN_BATCHES
           or perf_counter() + untraced.slowest() + traced.slowest() <= deadline):
        untraced.run_batch()
        with tracer.installed():
            traced.run_batch()
    return tracer, traced, setup_summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nccausal" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'nccausal'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            workload_cls = WORKLOADS[args.workload]
            setup_times = []
            for _ in range(SETUP_FIRST if not args.trace else 1):
                workload, seconds = setup(workload_cls, args.seed, work, probe)
                setup_times.append(seconds)
            library = Path(workload.lib.cli.__file__).resolve()
            if not library.is_relative_to(SRC):
                print(f"error: imported nccausal from {library.parent}, not {SRC}",
                      file=sys.stderr)
                return 2
            outcomes = Outcomes()
            untraced = Batches(workload, outcomes, probe)
            deadline = perf_counter() + args.seconds
            if not args.trace:
                while (untraced.batches < MIN_BATCHES
                       or perf_counter() + untraced.slowest() <= deadline):
                    untraced.run_batch()
                    for _ in range(min(SETUP_AFTER, SETUP_REPEATS - len(setup_times))):
                        # the measured workload keeps the modules it imported
                        setup_times.append(setup(workload_cls, args.seed, work, probe)[1])
                setup_s = statistics.median(probe.scaled(t) for t in setup_times)
                metrics, info = end_to_end(workload, untraced, setup_s, len(setup_times))
                info["slowdown"] = (probe.slowdown(0, len(probe.samples)), "x")
                info["probes"] = (len(probe.samples), "count")
            else:
                tracer, traced, setup_summary = traced_run(
                    workload, args.seed, work, untraced, deadline
                )
                calls = [{k: v["calls"] for k, v in t.items()} for t in traced.layer_summaries]
                repeat = all(c == calls[0] for c in calls)
                metrics = per_layer(workload, setup_summary, traced, untraced)
                info = {
                    "traced_batch_s": (traced.time, "s"),
                    "untraced_batch_s": (untraced.time, "s"),
                    "traced_batches": (traced.batches, "count"),
                    "spans": (len(tracer), "count"),
                    "calls_repeat": (int(repeat), "bool"),
                }
                if tracer.missing:
                    print("layers not found: " + ", ".join(sorted(tracer.missing)))
                trace_dir = ROOT / ".bench_work" / "traces"
                trace_dir.mkdir(parents=True, exist_ok=True)
                tracer.save(trace_dir / f"{args.workload}-seed{args.seed}.npz", env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


    correct = workload.deterministic and outcomes.consistent and (not args.trace or repeat)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:68s} {value:.6g} {unit}")
    for reason, count in sorted(outcomes.failures.items()):
        print(f"failed op: {count} x {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
