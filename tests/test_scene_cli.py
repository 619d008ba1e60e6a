"""Scene files and the command-line surface: exit codes, reports, CSV output,
and run-to-run determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nccausal.cli import main
from nccausal.errors import SceneError
from nccausal.scene import Scene, default_scene, load_scene, save_scene


DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def test_scene_round_trip_is_identity():
    scene = default_scene()
    assert Scene.from_json(scene.to_json()) == scene


def test_scene_round_trip_through_file(tmp_path):
    scene = default_scene()
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    assert load_scene(str(path)) == scene


def test_scene_rejects_duplicate_names():
    data = default_scene().to_dict()
    data["states"].append(dict(data["states"][0]))
    with pytest.raises(SceneError):
        Scene.from_dict(data)


def test_scene_rejects_degenerate_dirac():
    data = default_scene().to_dict()
    data["dirac"] = {"d1": 1.0, "d2": 1.0}
    with pytest.raises(SceneError):
        Scene.from_dict(data)


def test_scene_rejects_bad_json():
    with pytest.raises(SceneError):
        Scene.from_json("{not json")


def test_scene_writes_a_top_level_seed():
    data = default_scene().to_dict()
    assert data["seed"] == 42
    assert "optimizer" not in data


def test_scene_reads_the_seed_of_a_legacy_optimizer_block():
    data = default_scene().to_dict()
    del data["seed"]
    data["optimizer"] = {"seed": 7, "n_starts": 32, "step": 0.1,
                         "max_iter": 10000, "tol": 1e-10, "diag_clip": 1e6}
    scene = Scene.from_dict(data)
    assert scene.seed == 7
    assert Scene.from_json(scene.to_json()) == scene


@pytest.mark.parametrize(
    "patch",
    [{"seed": "abc"}, {"seed": None}, {"seed": [1]}, {"seed": float("inf")},
     {"optimizer": {"seed": "abc"}}, {"optimizer": None}],
)
def test_scene_rejects_malformed_seed(patch):
    data = default_scene().to_dict()
    del data["seed"]
    data.update(patch)
    with pytest.raises(SceneError):
        Scene.from_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 42.9), ("seed", True), ("seed", -1), ("seed", "42"),
     ("n_t", 10.7), ("n_t", True), ("n_x", 3.5), ("n_x", False)],
)
def test_scene_rejects_non_integer_counts(field, value):
    data = default_scene().to_dict()
    (data if field == "seed" else data["grid"])[field] = value
    with pytest.raises(SceneError, match=field):
        Scene.from_dict(data)


def test_scene_accepts_integral_floats():
    data = default_scene().to_dict()
    data["seed"], data["grid"]["n_t"] = 42.0, 10.0
    scene = Scene.from_dict(data)
    assert (scene.seed, scene.grid.n_t) == (42, 10)
    assert type(scene.seed) is int and type(scene.grid.n_t) is int


def test_check_related_exit_zero(capsys):
    assert run_cli("check", "origin", "timelike") == 0
    out = capsys.readouterr().out
    assert "verdict: Related" in out
    assert "speed_margin" in out


def test_check_not_related_exit_ten(capsys):
    assert run_cli("check", "origin", "spacelike") == 10
    out = capsys.readouterr().out
    assert "reason: base" in out

    assert run_cli("check", "origin", "north_pole") == 10
    out = capsys.readouterr().out
    assert "reason: latitude" in out

    assert run_cli("check", "origin", "fast_rotation") == 10
    out = capsys.readouterr().out
    assert "reason: speed" in out


@pytest.mark.parametrize("name, witness, gap", [
    ("spacelike", "+1*tanh_boost[-4]@(0,0.75)*id", -2.0),
    ("north_pole", "-1*const*sz", -1.0),
])
def test_check_witness_prints_the_refuting_element(name, witness, gap, capsys):
    assert run_cli("check", "--witness", "origin", name) == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"witness: {witness}"
    # both evaluations are exact: 1 and -1 for the tanh, z for sz
    assert lines[-1] == f"witness_gap: {gap:g}"


def test_check_witness_is_none_for_the_speed_clause(capsys):
    assert run_cli("check", "--witness", "origin", "fast_rotation") == 10
    out = capsys.readouterr().out
    assert "reason: speed" in out
    assert out.splitlines()[-1] == "witness: none"


def test_check_prints_a_witness_only_when_asked_and_not_related(capsys):
    assert run_cli("check", "--witness", "origin", "timelike") == 0
    assert "witness" not in capsys.readouterr().out
    assert run_cli("check", "origin", "spacelike") == 10
    assert "witness" not in capsys.readouterr().out


def test_check_unknown_name_exit_two(capsys):
    assert run_cli("check", "origin", "nope") == 2
    assert "error:" in capsys.readouterr().err


def test_degenerate_scene_file_exit_two(tmp_path, capsys):
    data = default_scene().to_dict()
    data["dirac"] = {"d1": 2.0, "d2": 2.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("check", "--scene", str(path), "origin", "timelike") == 2


@pytest.mark.parametrize("key, literal", [
    ("n_t", "Infinity"),
    ("n_x", "1e400"),
    ("t_min", "NaN"),
    ("x_max", "Infinity"),
    ("t_max", "1e400"),
])
def test_scene_grid_overflow_is_an_input_error(key, literal, tmp_path, capsys):
    data = default_scene().to_dict()
    data["grid"][key] = "HUGE"
    text = json.dumps(data).replace('"HUGE"', literal)
    with pytest.raises(SceneError):
        Scene.from_json(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run_cli("check", "--scene", str(path), "origin", "timelike") == 2
    assert "invalid grid block" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400"])
def test_scene_non_finite_internal_state_is_an_input_error(literal, tmp_path, capsys):
    data = default_scene().to_dict()
    data["states"][0]["internal"] = [["HUGE", 0.0], [1.0, 0.0]]
    text = json.dumps(data).replace('"HUGE"', literal)
    with pytest.raises(SceneError):
        Scene.from_json(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run_cli("check", "--scene", str(path), "origin", "timelike") == 2
    assert "invalid state entry" in capsys.readouterr().err


def test_scene_loads_large_finite_internal_state():
    data = default_scene().to_dict()
    data["states"][0]["internal"] = [[1e200, 0.0], [1e200, 0.0]]
    internal = Scene.from_dict(data).states["origin"].internal
    assert np.allclose(internal.bloch, (1.0, 0.0, 0.0), atol=1e-15)


def test_distance_internal_report(capsys):
    assert run_cli("distance", "internal", "origin", "fast_rotation") == 0
    out = capsys.readouterr().out
    value = float(out.strip().rsplit(" ", 1)[-1])
    # equator pair at dtheta = 3: closed form 2 sin(1.5)
    assert abs(value - 2.0 * math.sin(1.5)) <= 1e-6


def test_distance_internal_infinite(capsys):
    assert run_cli("distance", "internal", "origin", "north_pole") == 0
    assert "infinite" in capsys.readouterr().out


def test_distance_functional_reports_gap(capsys, tmp_path):
    out_csv = tmp_path / "distance.csv"
    assert run_cli("distance", "functional", "origin", "timelike", "--out", str(out_csv)) == 0
    out = capsys.readouterr().out
    assert "functional distance" in out
    assert "absolute gap" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name1,name2,kind,value"
    assert lines[1].startswith("origin,timelike,functional,")


def test_distance_csv_infinite_marker(tmp_path):
    out_csv = tmp_path / "distance.csv"
    assert run_cli("distance", "internal", "origin", "north_pole", "--out", str(out_csv)) == 0
    assert out_csv.read_text().splitlines()[1].endswith(",inf")


def test_reachable_command(capsys):
    assert run_cli("reachable", "origin", "--t", "2.0", "--x", "0.5") == 0
    out = capsys.readouterr().out
    assert "kind: arc" in out


def test_reachable_pole_exit_two(capsys):
    assert run_cli("reachable", "north_pole", "--t", "2.0", "--x", "0.0") == 2


def test_scan_grid_row_count(tmp_path):
    out_csv = tmp_path / "scan.csv"
    assert (
        run_cli("scan", "origin", "--nt", "3", "--nx", "3", "--out", str(out_csv)) == 0
    )
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x,theta_min,theta_max,reachable"
    assert len(lines) == 1 + 9


def test_scan_flags_cover_empty_arc_and_full(tmp_path):
    out_csv = tmp_path / "scan.csv"
    assert (
        run_cli(
            "scan",
            "origin",
            "--t-min", "-1.0", "--t-max", "4.0",
            "--x-min", "-1.0", "--x-max", "1.0",
            "--nt", "6", "--nx", "3",
            "--out", str(out_csv),
        )
        == 0
    )
    flags = {line.rsplit(",", 1)[-1] for line in out_csv.read_text().splitlines()[1:]}
    assert flags == {"0", "1", "2"}


def test_scan_requires_resolution_two(capsys):
    assert run_cli("scan", "origin", "--nt", "1") == 2


def test_scan_matches_the_golden_csv(tmp_path):
    # the default scene's 41 x 41 grid: empty, arc and full rows
    out_csv = tmp_path / "scan.csv"
    assert run_cli("scan", "origin", "--out", str(out_csv)) == 0
    assert out_csv.read_bytes() == (DATA / "scan_origin.csv").read_bytes()


@pytest.mark.parametrize("argv, message", [
    (("scan", "north_pole"), "no internal motion is possible at a pole"),
    (("scan", "north_pole", "--t-min", "nan"), "grid bounds and coordinates must be finite"),
    (("scan", "origin", "--x-max", "inf"), "grid bounds and coordinates must be finite"),
    (("scan", "origin", "--t-min=-1e308", "--t-max", "1e308"), "grid bounds and coordinates"),
])
def test_scan_input_errors_exit_two(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


def test_scan_overflowing_proper_time_exit_two(tmp_path, capsys):
    # from t = -1.7e308, the second row of events lies 2.55e308 ahead
    data = default_scene().to_dict()
    data["states"][0]["event"] = {"t": -1.7e308, "x": 0.0}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    argv = ("scan", "--scene", str(path), data["states"][0]["name"],
            "--t-min", "0", "--t-max", "1.7e308", "--nt", "3", "--nx", "3")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == "error: a length of 6.1453e+127 * 2**600 exceeds the double range\n"


def test_check_witness_matches_the_golden_transcript(capsys):
    # every ordered pair of the default scene's states, as the shell loop
    # "$ nccausal check --witness A B", its output and "exit: <code>"
    names = list(default_scene().states)
    lines = []
    for a in names:
        for b in names:
            code = run_cli("check", "--witness", a, b)
            assert code in (0, 10), (a, b)
            out = capsys.readouterr().out.rstrip("\n")
            lines += [f"$ nccausal check --witness {a} {b}", out, f"exit: {code}"]
    want = (DATA / "check_witness_default.txt").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == want


def test_scan_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("scan", "origin", "--out", str(a)) == 0
    assert run_cli("scan", "origin", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_clifford_suite(tmp_path, capsys):
    out_csv = tmp_path / "verify.csv"
    assert run_cli("verify", "--suite", "clifford", "--out", str(out_csv)) == 0
    out = capsys.readouterr().out
    assert "PASS  clifford.clifford_relations" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "suite,check,passed,value"
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_verify_runs_only_requested_suite(capsys):
    assert run_cli("verify", "--suite", "clifford") == 0
    out = capsys.readouterr().out
    assert "finite." not in out and "product." not in out


def test_verify_seed_overrides_the_scene_seed(capsys):
    assert run_cli("verify", "--suite", "clifford", "--seed", "7") == 0
    assert "seed=7)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("check", "--seed", "1", "origin", "timelike"),
    ("distance", "internal", "origin", "timelike", "--seed", "1"),
    ("reachable", "origin", "--t", "2.0", "--x", "0.5", "--seed", "1"),
    ("scan", "origin", "--nt", "3", "--nx", "3", "--seed", "1"),
])
def test_seed_is_a_usage_error_outside_verify(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check", "--out", "x.csv", "origin", "timelike"),
    ("reachable", "origin", "--t", "2.0", "--x", "0.5", "--out", "x.csv"),
])
def test_out_is_a_usage_error_where_nothing_is_written(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_entry_point_runs_as_module(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "nccausal", "check", "origin", "timelike"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert "verdict: Related" in proc.stdout
