"""CLI subcommands: exit codes, artifacts, and output determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import decayq.cli as cli
from decayq import load_config, sim, solve_recursive, validate
from decayq.cli import _write_atomic, main

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "sample_config.json"
FIG1A = {
    "B": 20, "V": 10, "actions": [0.1, 0.5, 0.9],
    "holding": {"kind": "linear", "params": [1]},
    "service_cost": {"kind": "log_barrier", "params": [5]},
    "reward": {"kind": "affine", "params": [1, 0]},
}
FIG1B = dict(FIG1A, actions=[0.6, 0.7, 0.8],
             reward={"kind": "affine", "params": [0.1, 25]})
FIG1D = dict(FIG1A, actions=[0.700, 0.705, 0.710],
             reward={"kind": "log", "params": [5]})
SINGLETON = dict(FIG1A, actions=[0.5])
# decreasing h: the optimal mu drops in b, first from (3, 2) to (4, 2)
TWO_IN_B_DROPS = {
    "B": 4, "V": 4, "actions": [0.0, 0.5, 1.0],
    "holding": {"kind": "table", "values": [0.0, -2.0, 3.0, -2.0]},
    "service_cost": {"kind": "table", "values": [1.0, 2.0, 2.0]},
    "reward": {"kind": "table", "values": [2.0, 1.0, 3.0, 2.0]},
}


@pytest.fixture
def config_file(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


class TestSolve:
    def test_writes_csv_and_prints_J(self, tmp_path, config_file, capsys):
        out = tmp_path / "solution.csv"
        rc = main(["solve", "--config", config_file(FIG1A), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 202  # header + 200 policy rows + terminal row
        assert "J(20,10)" in capsys.readouterr().out

    def test_unwritable_out_leaves_no_partial_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "no_such_dir" / "solution.csv"
        rc = main(["solve", "--config", config_file(FIG1A), "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_failed_write_keeps_existing_file(self, tmp_path):
        out = tmp_path / "solution.csv"
        out.write_text("previous\n")
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(str(out), "b,v\n\ud800\n")  # a lone surrogate is not UTF-8
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["solution.csv"]
        _write_atomic(str(out), "new\n")
        assert out.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["solution.csv"]

    def test_killed_solve_leaves_no_partial_csv(self, tmp_path, config_file):
        # SIGKILL a 512x256x4 solve (a 7.8 MB CSV) at points across its run, and
        # as soon as a file named for --out appears: --out is then absent or the
        # whole export.  A <out>.<pid>.tmp may stay behind; nothing is asserted
        # about it.  The runs are one at a time.
        doc = dict(FIG1A, B=512, V=256, actions=[0.1, 0.4, 0.7, 0.9])
        expected = solve_recursive(validate(load_config(json.dumps(doc)))).to_csv().encode()
        cfg, src = config_file(doc), str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def start(out):
            return subprocess.Popen([sys.executable, "-m", "decayq.cli", "solve",
                                     "--config", cfg, "--out", str(out)],
                                    env=env, stdout=subprocess.DEVNULL)

        began, full = time.monotonic(), tmp_path / "full.csv"
        assert start(full).wait(timeout=60) == 0
        run_time = time.monotonic() - began
        assert full.read_bytes() == expected
        kills = [(f"at{i}", run_time * i / 5) for i in range(1, 5)] + [("w0", None), ("w1", None)]
        for name, delay in kills:
            out = tmp_path / f"{name}.csv"
            proc = start(out)
            if delay is None:  # within the write: its first file is there
                while proc.poll() is None and not any(
                        f.startswith(out.name) for f in os.listdir(tmp_path)):
                    time.sleep(0.0005)
            else:
                time.sleep(delay)
            proc.kill()
            proc.wait(timeout=60)
            assert not out.exists() or out.read_bytes() == expected, name

    def test_solvers_agree_on_mu_column(self, tmp_path, config_file):
        cfg = config_file(FIG1A)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--solver", "recursive", "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--solver", "vi", "--out", str(b)]) == 0
        mu_a = [line.split(",")[3] for line in a.read_text().splitlines()[1:]]
        mu_b = [line.split(",")[3] for line in b.read_text().splitlines()[1:]]
        assert mu_a == mu_b

    def test_invalid_config_names_field(self, tmp_path, config_file, capsys):
        bad = dict(FIG1A, reward={"kind": "constant", "params": [0]})
        rc = main(["solve", "--config", config_file(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "reward" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-0.5", "inf", "nan"])
    def test_bad_tol_exits_one(self, tmp_path, config_file, capsys, tol):
        out = tmp_path / "x.csv"
        rc = main(["solve", "--config", config_file(FIG1A), "--solver", "vi",
                   "--tol", tol, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --tol must be positive and finite\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and "Traceback" not in err

    def test_deeply_nested_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["check", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON") and "Traceback" not in err

    @pytest.mark.parametrize("solver, stdout", [
        ("recursive", "solver: recursive\n"
                      "states: 201  actions: 3\n"
                      "J(20,10) = 279.75940466569256\n"),
        ("vi", "solver: value_iteration\n"
               "states: 201  actions: 3\n"
               "sweeps: 2\n"
               "J(20,10) = 279.75940466569256\n"),
        ("pi", "solver: policy_iteration\n"
               "states: 201  actions: 3\n"
               "iterations: 4\n"
               "J(20,10) = 279.75940466569256\n"),
    ])
    def test_stdout_pinned(self, tmp_path, capsys, solver, stdout):
        rc = main(["solve", "--config", str(SAMPLE_CONFIG), "--solver", solver,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert capsys.readouterr().out == stdout

    def test_each_solver_called_through_module_names(self, tmp_path, monkeypatch):
        # Tracing wrappers replace these names on decayq.cli; --solver must
        # look them up when it runs, not hold the originals.
        calls = []

        def counting(name, solve):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return wrapper

        for name in ("solve_recursive", "value_iteration", "policy_iteration"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        for solver in ("recursive", "vi", "pi"):
            assert main(["solve", "--config", str(SAMPLE_CONFIG), "--solver", solver,
                         "--out", str(tmp_path / f"{solver}.csv")]) == 0
        assert calls == ["solve_recursive", "value_iteration", "policy_iteration"]


class TestCheck:
    def test_config_over_size_limit_exits_one(self, config_file, capsys):
        rc = main(["check", "--config", config_file(dict(FIG1A, B=100_000, V=100_000))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "limit" in err

    def test_fig1b_nonincreasing_exit_zero(self, config_file, capsys):
        rc = main(["check", "--config", config_file(FIG1B)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["in_b_verdict"] == "NonDecreasing"
        dirs = {row["direction"] for row in doc["per_b_in_v"].values()}
        assert dirs <= {"NonIncreasing", "Constant"}

    def test_singleton_all_constant(self, config_file, capsys):
        rc = main(["check", "--config", config_file(SINGLETON)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(row["direction"] == "Constant" for row in doc["per_b_in_v"].values())

    def test_fig1d_mixed_at_b5_still_exit_zero(self, config_file, capsys):
        rc = main(["check", "--config", config_file(FIG1D)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["per_b_in_v"]["5"]["direction"] == "Mixed"

    def test_in_b_violation_exits_one(self, config_file, capsys):
        rc = main(["check", "--config", config_file(TWO_IN_B_DROPS)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["in_b_verdict"] == "Violated"
        assert doc["in_b_witness"] == [[3, 2], [4, 2]]

    def test_empty_action_set_exits_one(self, config_file, capsys):
        rc = main(["check", "--config", config_file(dict(FIG1A, actions=[]))])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: action set must be non-empty\n"


class TestSimulate:
    def test_mean_close_to_J(self, config_file, capsys):
        rc = main(["simulate", "--config", config_file(FIG1A), "--n", "20000",
                   "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MC mean" in out and "J(20,10)" in out

    def test_repeat_same_seed_identical_output(self, config_file, capsys):
        cfg = config_file(FIG1A)
        main(["simulate", "--config", cfg, "--n", "2000", "--seed", "7"])
        first = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--n", "2000", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_single_episode_has_no_z_score(self, capsys):
        # one episode has std_error 0: no ratio to print, and not a perfect 0.000
        assert main(["simulate", "--config", str(SAMPLE_CONFIG), "--n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "MC std_error    = 0.0"
        assert float(lines[1].split("=")[1]) != float(lines[0].split("=")[1])
        assert lines[-1] == "|mean - J| / std_error = n/a (std_error is 0)"

    def test_invalid_n(self, config_file, capsys):
        assert main(["simulate", "--config", config_file(FIG1A), "--n", "0"]) == 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_episode_costs_error(self, config_file, capsys, n):
        assert main(["simulate", "--config", config_file(FIG1A), "--n", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: n must be an int >= 1, not {n}\n"
        assert captured.out == ""

    def test_negative_seed_exits_one(self, config_file, capsys):
        assert main(["simulate", "--config", config_file(FIG1A), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize("n", [2**36 // 200 + 1, 10**13])
    def test_oversized_n_exits_one(self, config_file, capsys, n):
        assert main(["simulate", "--config", config_file(FIG1A), "--n", str(n)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: n*B*V = {200 * n} noise draws exceed the limit of "
                       f"{2**36} (2**36)\n")

    def test_n_over_the_episode_limit_exits_one(self, config_file, capsys):
        one = dict(FIG1A, B=1, V=1)  # n = 2**36 passes the draw limit at B*V = 1
        assert main(["simulate", "--config", config_file(one), "--n", str(2**36)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: n = {2**36} episodes exceed the limit of {2**26} (2**26)\n"

    def test_n_at_the_draw_limit_runs(self, config_file, capsys, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_DRAWS", 200 * 50)
        cfg = config_file(FIG1A)
        assert main(["simulate", "--config", cfg, "--n", "50"]) == 0
        assert main(["simulate", "--config", cfg, "--n", "51"]) == 1
        assert capsys.readouterr().err.startswith("error: n*B*V = 10200 ")



class TestCostScale:
    """Models whose costs could overflow a sum exit 1 before any solve."""

    def test_overflowing_costs_exit_one(self, tmp_path, config_file, capsys):
        # before the bound, solve printed J(3,2) = nan and exited 0
        doc = dict(FIG1A, B=3, V=2, actions=[0.5],
                   holding={"kind": "constant", "params": [1e308]},
                   service_cost={"kind": "constant", "params": [1e308]})
        out = tmp_path / "solution.csv"
        assert main(["solve", "--config", config_file(doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cost scale B*V*(max|h| + max|c| + max|r|) = inf exceeds the limit "
            "of 4.09174e+149 (2**497)\n")
        assert not out.exists()

    def test_squares_of_totals_overflowing_exit_one(self, config_file, capsys):
        # before the bound, simulate printed std_error = inf and a z-score of 0.000
        doc = dict(FIG1A, B=3, V=2, actions=[0.3, 0.6],
                   holding={"kind": "constant", "params": [1e154]},
                   service_cost={"kind": "linear", "params": [1e154]},
                   reward={"kind": "constant", "params": [1]})
        assert main(["simulate", "--config", config_file(doc), "--n", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cost scale B*V*(max|h| + max|c| + max|r|) = 9.6e+154 exceeds the "
            "limit of 4.09174e+149 (2**497)\n")

class TestFigures:
    def test_produces_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "figs"
        out.mkdir()
        assert main(["figures", "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        for fid in ("1a", "1b", "1c", "1d"):
            assert f"{fid}_policy.csv" in names
            assert f"{fid}_boundaries.json" in names
            assert f"{fid}_report.json" in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"1a", "1b", "1c", "1d"}
        assert all(entry["regime_confirmed"] for entry in manifest.values())

    def test_failed_regime_exits_one(self, tmp_path, monkeypatch, capsys):
        presets = [p if p.id != "1b" else dataclasses.replace(p, in_v_regime="all_nondecreasing")
                   for p in cli.FIGURE_PRESETS]
        monkeypatch.setattr(cli, "FIGURE_PRESETS", tuple(presets))
        assert main(["figures", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "1b: FAILED" in captured.out
        assert captured.err == ("regime assertion failed: 1b: rows [1, 2, 3, 4, 5, 6, 7, 8] "
                                "not non-decreasing in v\n")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {k: e["regime_confirmed"] for k, e in manifest.items()} == \
            {"1a": True, "1b": False, "1c": True, "1d": True}

    def test_nonexistent_dir_fails_before_solving(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path / "missing")]) == 1

    def test_blocked_artifact_path_exits_one(self, tmp_path, capsys):
        (tmp_path / "1a_policy.csv").mkdir()
        assert main(["figures", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1a_policy.csv" in err
        assert sorted(os.listdir(tmp_path)) == ["1a_policy.csv"]

    def test_boundary_data_matches_policy_changes(self, tmp_path):
        out = tmp_path / "figs"
        out.mkdir()
        main(["figures", "--out", str(out)])
        doc = json.loads((out / "1a_boundaries.json").read_text())
        assert doc["in_v"] and doc["in_b"]
        for edge in doc["in_v"]:
            assert edge["mu_from"] != edge["mu_to"]
            assert edge["to"][1] == edge["from"][1] + 1

    def test_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        assert main(["figures", "--out", str(d1)]) == 0
        assert main(["figures", "--out", str(d2)]) == 0
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_import_loads_no_logging_or_executor():
    # concurrent.futures, and the logging it loads, would add 5-8 ms to every
    # command; orjson, which only the CSV export needs, about 6 ms and 0.7 MiB
    code = ("import sys, decayq.cli; "
            "print(sorted({'logging', 'concurrent.futures', 'orjson'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


def test_simulate_loads_no_logging_or_executor():
    # nor when simulate runs: the drawing thread of episode_costs needs only
    # threading and queue, and simulate writes no CSV
    argv = ["simulate", "--config", str(SAMPLE_CONFIG), "--n", "50"]
    code = (f"import sys; from decayq.cli import main; assert main({argv!r}) == 0; "
            "print(sorted({'logging', 'concurrent.futures', 'orjson'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.splitlines()[-1] == "[]"
