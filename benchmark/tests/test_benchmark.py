"""Tests of the benchmark itself: tracing changes no output and is undone.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import decayq  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import _timed  # noqa: E402


def _one_round(name, workdir, trace):
    os.mkdir(workdir)
    wl = workloads.build(name, 1, str(workdir), ROOT)
    result = {"attempted": 0, "failed": 0}
    tr = tracer.Tracer() if trace else None
    for cmd in wl.commands:
        _timed(wl, cmd, result, tr)
    assert result == {"attempted": len(wl.commands), "failed": 0}
    return wl, tr


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    targets = tracer.layer_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with tracer.Tracer(targets) as tr:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr, _, _), orig in zip(targets, before))
        rc, _, _ = tr.call("cli", workloads.run_cli, ["figures", "--out", str(tmp_path)])
    assert rc == 0 and tr.calls()["solver.solve_recursive"] == 4
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before
    # the package-level re-exports were never touched
    assert decayq.solve_recursive is before[2]


def test_tracing_leaves_figures_bytes_and_J_digests_unchanged(tmp_path):
    plain, _ = _one_round("solve_large", tmp_path / "plain", trace=False)
    traced, tr = _one_round("solve_large", tmp_path / "traced", trace=True)
    pins = workloads.golden_pins(ROOT)
    for wl in (plain, traced):
        out_dir = wl.commands[-1].argv[-1]
        assert {n: workloads._sha256(open(os.path.join(out_dir, n), "rb").read())
                for n in os.listdir(out_dir)} == pins
    assert plain.digests and traced.digests == plain.digests
    assert tr.calls()["cli"] == len(plain.commands)
    assert tr.counts["cli.bytes_written"] > 0


@pytest.mark.parametrize("name", ["crosscheck", "simulate"])
def test_tracing_leaves_every_J_digest_unchanged(tmp_path, name):
    plain, _ = _one_round(name, tmp_path / "plain", trace=False)
    traced, tr = _one_round(name, tmp_path / "traced", trace=True)
    assert plain.digests and traced.digests == plain.digests
    assert tr.calls()["cli"] == len(plain.commands)


def test_self_time_excludes_children():
    tr = tracer.Tracer(targets=[])
    tr.call("outer", lambda: tr.call("inner", sum, range(100000)))
    self_s = tr.self_times()
    (_, _, s0, e0), (_, _, s1, e1) = tr.spans
    assert self_s["inner"] == pytest.approx(e1 - s1)
    assert self_s["outer"] == pytest.approx((e0 - s0) - (e1 - s1))


def test_expected_slots_by_hand():
    doc = {"B": 2, "V": 2, "actions": [0.25, 0.5],
           "holding": {"kind": "linear", "params": [1]},
           "service_cost": {"kind": "linear", "params": [1]},
           "reward": {"kind": "constant", "params": [1]}}
    model = decayq.validate(decayq.load_config(json.dumps(doc)))
    mu = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 1]])
    # one job: E(1,1) = 1, E(1,2) = 1 + (1 - 0.5) E(1,1) = 1.5
    assert tracer.expected_slots(model, mu, (1, 2)) == 1.5
    # E(2,1) = 1 + E(1,2) = 2.5; E(2,2) = 1 + 0.5 E(1,2) + 0.5 E(2,1) = 3
    assert tracer.expected_slots(model, mu, (2, 2)) == 3.0


def test_instances_repeat_for_a_seed_and_differ_across_seeds():
    docs = [workloads.make_config(np.random.default_rng(s), 20, 10, 3) for s in (1, 1, 2)]
    assert docs[0] == docs[1] != docs[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
