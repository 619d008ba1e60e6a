"""Command-line surface: check, distance, reachable, scan, verify.

Exit codes: 0 success (or Related), 10 NotRelated, 2 usage/parse/input error,
1 internal failure. CSV output uses '.' decimals and 17 significant digits so
doubles round-trip bit-faithfully.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Sequence

from .errors import (
    GridTooSmall,
    NotCausallyRelated,
    PoleState,
    SceneError,
    UnknownState,
    ZeroVector,
)
from .finite_geometry import latitude, spectral_distance
from .product_causality import causally_related, reachable_grid, reachable_longitudes
from .scene import Scene, default_scene, load_scene
from .spacetime import Event, Grid, lorentz_distance_functional, lorentzian_distance
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NOT_RELATED = 10

_INPUT_ERRORS = (
    SceneError,
    UnknownState,
    PoleState,
    ZeroVector,
    GridTooSmall,
    NotCausallyRelated,
    ValueError,
)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows, ""]))


def _load(args: argparse.Namespace) -> Scene:
    return load_scene(args.scene) if args.scene else default_scene()


def _cmd_check(args: argparse.Namespace) -> int:
    scene = _load(args)
    w1 = scene.state(args.name1)
    w2 = scene.state(args.name2)
    verdict = causally_related(w1, w2, scene.dirac)
    print(f"base_causal: {str(verdict.base_causal).lower()}")
    print(
        f"latitudes: {_fmt(latitude(w1.internal))} -> {_fmt(latitude(w2.internal))}"
        f" (gap {_fmt(verdict.latitude_gap)}, tol 1e-09)"
    )
    if verdict.delta_theta is None:
        print("delta_theta_min: n/a (pole pair, longitude clause vacuous)")
        print(f"theta_budget: {_fmt(verdict.theta_budget)}")
    else:
        print(f"delta_theta_min: {_fmt(verdict.delta_theta)}")
        print(f"theta_budget: {_fmt(verdict.theta_budget)}")
        print(f"speed_margin: {_fmt(verdict.speed_margin)}")
    if verdict.related:
        print("verdict: Related")
        return EXIT_OK
    print("verdict: NotRelated")
    print(f"reason: {verdict.reason.value}")
    return EXIT_NOT_RELATED


def _cmd_distance(args: argparse.Namespace) -> int:
    scene = _load(args)
    w1 = scene.state(args.name1)
    w2 = scene.state(args.name2)
    if args.kind == "internal":
        result = spectral_distance(scene.dirac, w1.internal, w2.internal)
        text = "infinite" if result.is_infinite else _fmt(result.value)
        print(f"internal distance {args.name1} -> {args.name2}: {text}")
        value = "inf" if result.is_infinite else _fmt(result.value)
    elif args.kind == "lorentzian":
        d = lorentzian_distance(w1.event, w2.event)
        print(f"lorentzian distance {args.name1} -> {args.name2}: {_fmt(d)}")
        value = _fmt(d)
    else:  # functional
        functional = lorentz_distance_functional(w1.event, w2.event)
        analytic = lorentzian_distance(w1.event, w2.event)
        print(f"functional distance {args.name1} -> {args.name2}: {_fmt(functional)}")
        print(f"lorentzian distance: {_fmt(analytic)}")
        print(f"absolute gap: {_fmt(abs(functional - analytic))}")
        value = _fmt(functional)
    if args.out:
        _write_csv(
            args.out,
            "name1,name2,kind,value",
            [f"{args.name1},{args.name2},{args.kind},{value}"],
        )
    return EXIT_OK


def _cmd_reachable(args: argparse.Namespace) -> int:
    scene = _load(args)
    w = scene.state(args.name)
    arc = reachable_longitudes(w, Event(args.t, args.x), scene.dirac)
    print(f"kind: {arc.kind}")
    if arc.kind != "empty":
        print(f"theta_min: {_fmt(arc.theta_min)}")
        print(f"theta_max: {_fmt(arc.theta_max)}")
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    scene = _load(args)
    w = scene.state(args.name)
    grid = scene.grid
    grid = Grid(
        args.t_min if args.t_min is not None else grid.t_min,
        args.t_max if args.t_max is not None else grid.t_max,
        args.x_min if args.x_min is not None else grid.x_min,
        args.x_max if args.x_max is not None else grid.x_max,
        args.nt if args.nt is not None else grid.n_t,
        args.nx if args.nx is not None else grid.n_x,
    )
    if grid.n_t < 2 or grid.n_x < 2:
        raise SceneError("scan needs a resolution of at least 2 per axis")
    theta_min, theta_max, flag = reachable_grid(w, grid, scene.dirac)
    xs = [_fmt(x) for x in grid.x_values()]
    rows = []
    for i, t in enumerate(grid.t_values()):
        head = _fmt(t)
        line = slice(i * grid.n_x, (i + 1) * grid.n_x)
        arcs = zip(xs, theta_min[line].tolist(), theta_max[line].tolist(), flag[line].tolist())
        # every empty row has the one tail 0,0,0; the others are formatted as
        # _fmt does, full circles too, so that a row's cost does not depend
        # on the arc's width
        for x, lo, hi, f in arcs:
            rows.append(f"{head},{x},{lo:.17g},{hi:.17g},{f}" if f else f"{head},{x},0,0,0")
    header = "t,x,theta_min,theta_max,reachable"
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print("\n".join([header, *rows]))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scene = _load(args)
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    results = run_suites(args.suite, scene.seed, scene.dirac)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.suite}.{r.name}  value={_fmt(r.value)}")
    n_pass = sum(r.passed for r in results)
    print(
        f"verify: {n_pass}/{len(results)} checks passed"
        f" (suite={args.suite}, seed={scene.seed})"
    )
    if args.out:
        _write_csv(
            args.out,
            "suite,check,passed,value",
            [
                f"{r.suite},{r.name},{int(r.passed)},{_fmt(r.value)}"
                for r in results
            ],
        )
    return EXIT_OK if n_pass == len(results) else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nccausal",
        description=(
            "Causal relations, spectral distances, and distance functionals "
            "for product states over the 2D Minkowski plane"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scene", help="scene JSON file (default: built-in scene)")

    p_check = sub.add_parser("check", help="decide whether two named states are causally related")
    common(p_check)
    p_check.add_argument("name1")
    p_check.add_argument("name2")
    p_check.set_defaults(func=_cmd_check)

    p_dist = sub.add_parser("distance", help="internal, lorentzian, or functional distance")
    common(p_dist)
    p_dist.add_argument("--out", help="CSV output path")
    p_dist.add_argument("kind", choices=("internal", "lorentzian", "functional"))
    p_dist.add_argument("name1")
    p_dist.add_argument("name2")
    p_dist.set_defaults(func=_cmd_distance)

    p_reach = sub.add_parser("reachable", help="reachable longitude arc at a target event")
    common(p_reach)
    p_reach.add_argument("name")
    p_reach.add_argument("--t", type=float, required=True)
    p_reach.add_argument("--x", type=float, required=True)
    p_reach.set_defaults(func=_cmd_reachable)

    p_scan = sub.add_parser("scan", help="reachable-longitude CSV over an event grid")
    common(p_scan)
    p_scan.add_argument("--out", help="CSV output path")
    p_scan.add_argument("name")
    p_scan.add_argument("--t-min", type=float, dest="t_min")
    p_scan.add_argument("--t-max", type=float, dest="t_max")
    p_scan.add_argument("--x-min", type=float, dest="x_min")
    p_scan.add_argument("--x-max", type=float, dest="x_max")
    p_scan.add_argument("--nt", type=int)
    p_scan.add_argument("--nx", type=int)
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    common(p_verify)
    p_verify.add_argument("--out", help="CSV output path")
    p_verify.add_argument("--seed", type=int, help="override the scene seed")
    p_verify.add_argument(
        "--suite", default="all", choices=("all",) + SUITE_NAMES
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
