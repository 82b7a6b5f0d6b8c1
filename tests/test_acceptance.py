"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import os
import time

import numpy as np
import pytest

from conftest import brute_force_optimal, exact_g, random_model
from decayq import (
    Direction,
    Guarantee,
    apply_T,
    check_constant_reward,
    classify_policy,
    g_map,
    mc_estimate,
    policy_iteration,
    simulate_episode,
    solve_recursive,
    validate,
    value_iteration,
)
from decayq.cli import main as cli_main
from decayq.presets import FIGURE_PRESETS, check_regime, preset_by_id


@pytest.fixture(scope="module")
def batch200():
    """200 randomized models solved by all three routes (criteria 1, 3-5)."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    out = []
    for _ in range(200):
        m = random_model(rng, max_B=6, max_V=6, max_actions=4)
        out.append((m, solve_recursive(m), value_iteration(m), policy_iteration(m)))
    return out, time.perf_counter() - start


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num}: {status} — {detail}")
    assert ok, detail


def test_criterion_1_cross_solver_oracle(batch200):
    models, elapsed = batch200
    worst = 0.0
    for m, rec, vi, pi in models:
        worst = max(worst,
                    float(np.abs(rec.J - vi.J).max()),
                    float(np.abs(rec.J - pi.J).max()))
        assert np.array_equal(rec.mu[1:, 1:], vi.mu[1:, 1:])
        assert np.array_equal(rec.mu[1:, 1:], pi.mu[1:, 1:])
    _report(1, worst <= 1e-9 and elapsed < 10.0,
            f"200 models, J sup-norm gap {worst:.2e}, mu exact, {elapsed:.2f}s < 10s")


def test_criterion_2_brute_force_oracle():
    rng = np.random.default_rng(4096)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = random_model(rng, max_B=3, max_V=3, max_actions=3)
        sol = solve_recursive(m)
        worst = max(worst, abs(brute_force_optimal(m) - float(sol.J[m.B, m.V])))
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-9 and elapsed < 60.0,
            f"50 exhaustive enumerations, worst J(B,V) gap {worst:.2e}, "
            f"{elapsed:.2f}s < 60s")


def test_criterion_3_structural_identity_suite(batch200):
    models, _ = batch200
    for m, sol, _, _ in models:
        B, V = m.B, m.V
        # difference identity: J is assembled from the increments
        for b in range(1, B + 1):
            assert abs(sol.J[b, 1] - sol.J[b - 1, V] - sol.delta[b, 1]) <= 1e-9
            for v in range(2, V + 1):
                assert abs(sol.J[b, v] - sol.J[b, v - 1] - sol.delta[b, v]) <= 1e-9
        # policy factorization through g and the one-step operator identity
        for b in range(1, B + 1):
            for v in range(1, V + 1):
                assert sol.mu[b, v] == g_map(m, m.r[v - 1] + sol.sigma[b, v - 1])
                assert apply_T(m, b, v, sol.sigma[b, v - 1]) == sol.sigma[b, v]
        # operator monotonicity, and g non-decreasing in exact arithmetic, on a
        # 64-point grid
        big = max(m.r[v - 1] + sol.sigma[b, v - 1]
                  for b in range(1, B + 1) for v in range(1, V + 1))
        grid = np.linspace(-2.0 * big, 2.0 * big, 64)  # big >= r(1) > 0
        for b in range(1, B + 1):
            for v in range(1, V + 1):
                ts = [apply_T(m, b, v, x) for x in grid]
                assert all(a <= c for a, c in zip(ts, ts[1:]))
        gs = [exact_g(m, x) for x in grid.tolist()]
        assert all(a <= c for a, c in zip(gs, gs[1:])), gs
    _report(3, True, "increment, factorization and operator identities hold, and the "
                     "exact g is non-decreasing on a 64-point grid, on all 200 models")


def test_criterion_4_in_b_monotonicity(batch200):
    models, _ = batch200
    for m, sol, _, _ in models:
        rep = classify_policy(sol)
        assert rep.in_b_verdict == "NonDecreasing", (m.config, rep.in_b_witness)
    _report(4, True, "in-b verdict NonDecreasing on all 200 models")


def test_criterion_5_direction_checker_soundness(batch200):
    models, _ = batch200
    for m, sol, _, _ in models:
        rep = classify_policy(sol)
        for b, g in rep.theorem2_per_b.items():
            d = rep.per_b_in_v[b].direction
            if g is Guarantee.NON_DECREASING:
                assert d in (Direction.NON_DECREASING, Direction.CONSTANT), (b, d)
            elif g is Guarantee.NON_INCREASING:
                assert d in (Direction.NON_INCREASING, Direction.CONSTANT), (b, d)
    # constant-reward models: sign of h(b) + min_s {c(s) - s*rbar} predicts
    # the empirical in-v direction for every b
    rng = np.random.default_rng(8192)
    for _ in range(50):
        m = random_model(rng, constant_reward=True)
        sol = solve_recursive(m)
        rep = classify_policy(sol)
        for b in range(1, m.B + 1):
            g = check_constant_reward(m, b)
            d = rep.per_b_in_v[b].direction
            if g is Guarantee.NON_DECREASING:
                assert d in (Direction.NON_DECREASING, Direction.CONSTANT), (b, d)
            elif g is Guarantee.NON_INCREASING:
                assert d in (Direction.NON_INCREASING, Direction.CONSTANT), (b, d)
            else:
                assert d is Direction.CONSTANT, (b, d)
    _report(5, True, "every Guaranteed* verdict consistent with the empirical "
                     "classification (200 models + 50 constant-reward models)")


def test_criterion_6_figure_regimes():
    start = time.perf_counter()
    for preset in FIGURE_PRESETS:
        sol = solve_recursive(validate(preset.config))
        failures = check_regime(preset, classify_policy(sol))
        assert not failures, (preset.id, failures)
    elapsed = time.perf_counter() - start
    _report(6, elapsed < 1.0,
            f"all four preset regimes confirmed in {elapsed:.3f}s < 1s")


def test_criterion_7_simulation_validation():
    start = time.perf_counter()
    m = validate(preset_by_id("1a").config)
    sol = solve_recursive(m)
    policy = sol.policy()
    est = mc_estimate(m, policy, (20, 10), 100_000, seed=0)
    gap = abs(est.mean - float(sol.J[20, 10]))
    assert gap <= 3 * est.std_error, (est, sol.J[20, 10])
    max_len = max(
        len(simulate_episode(m, policy, (20, 10), seed=[0, i])) for i in range(500))
    assert max_len <= 200
    elapsed = time.perf_counter() - start
    _report(7, elapsed < 30.0,
            f"|mean - J| = {gap:.3f} <= 3*SE = {3 * est.std_error:.3f}; "
            f"max trajectory length {max_len} <= 200; {elapsed:.2f}s < 30s")


def test_criterion_8_determinism(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    assert cli_main(["figures", "--out", str(d1)]) == 0
    assert cli_main(["figures", "--out", str(d2)]) == 0
    for name in sorted(os.listdir(d1)):
        b1 = (d1 / name).read_bytes()
        assert b1 == (d2 / name).read_bytes(), name
    m = validate(preset_by_id("1a").config)
    sol = solve_recursive(m)
    e1 = mc_estimate(m, sol.policy(), (20, 10), 100_000, seed=0)
    e2 = mc_estimate(m, sol.policy(), (20, 10), 100_000, seed=0)
    _report(8, e1 == e2, "figure artifacts byte-identical across runs; "
                         "repeated MC estimate bitwise-equal")
