"""Simulator: exact dynamics, seeded determinism, and agreement between
Monte Carlo averages and exact policy values."""

import json
import math

import numpy as np
import pytest

from conftest import random_model, table_model
from decayq import (
    Event,
    PolicyTable,
    evaluate_policy,
    mc_estimate,
    simulate_episode,
    solve_recursive,
    step,
    validate,
)
from decayq.presets import preset_by_id
from decayq.sim import episode_costs


def const_policy(model, index):
    return PolicyTable(action_index=np.full((model.B + 1, model.V + 1), index, dtype=int))


class TestStep:
    def test_sure_completion(self):
        m = table_model(2, 3, [1.0], h=[1.0, 2.0], c=[1.0], r=[1.0, 2.0, 3.0])
        nxt, cost, event = step(m, (2, 3), 0, 0.3)
        assert nxt == (1, 3) and cost == 0.0 and event is Event.COMPLETED

    def test_ejection_at_value_one(self):
        m = table_model(1, 3, [0.0], h=[1.0], c=[0.0], r=[1.0, 2.0, 3.0])
        nxt, cost, event = step(m, (1, 1), 0, 0.5)
        assert nxt == (0, 3) and cost == 1.0 and event is Event.EJECTED

    def test_decay(self):
        m = table_model(3, 2, [0.5], h=[1.0, 2.0, 3.0], c=[0.7], r=[1.0, 2.0])
        nxt, cost, event = step(m, (3, 2), 0, 0.7)
        assert nxt == (3, 1) and cost == 3.0 + 0.7 and event is Event.DECAYED

    def test_boundary_w_equals_s_succeeds(self):
        m = table_model(1, 2, [0.5], h=[0.0], c=[0.0], r=[1.0, 2.0])
        _, _, event = step(m, (1, 2), 0, 0.5)
        assert event is Event.COMPLETED

    def test_terminal_state_rejected(self):
        m = table_model(1, 2, [0.5], h=[0.0], c=[0.0], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="terminal"):
            step(m, (0, 2), 0, 0.5)


class TestSimulateEpisode:
    def test_deterministic_always_complete(self):
        m = table_model(2, 2, [1.0], h=[1.0, 2.0], c=[1.0], r=[1.0, 3.0])
        traj = simulate_episode(m, const_policy(m, 0), (2, 2), seed=0)
        assert len(traj) == 2
        assert traj.total_cost == (2 + 1 - 3) + (1 + 1 - 3)
        assert all(s.event is Event.COMPLETED for s in traj.steps)

    def test_deterministic_never_complete(self):
        m = table_model(1, 2, [0.0], h=[1.0], c=[0.0], r=[1.0, 1.0])
        traj = simulate_episode(m, const_policy(m, 0), (1, 2), seed=0)
        assert len(traj) == 2
        assert traj.total_cost == 2.0
        assert [s.event for s in traj.steps] == [Event.DECAYED, Event.EJECTED]

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(7)
        m = random_model(rng)
        pol = const_policy(m, 0)
        a = simulate_episode(m, pol, (m.B, m.V), seed=123)
        b = simulate_episode(m, pol, (m.B, m.V), seed=123)
        assert a == b

    def test_trajectory_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            m = random_model(rng)
            pol = const_policy(m, int(rng.integers(len(m.actions))))
            traj = simulate_episode(m, pol, (m.B, m.V), seed=int(rng.integers(1 << 30)))
            assert 1 <= len(traj) <= m.B * m.V
            assert math.isclose(traj.total_cost, sum(s.stage_cost for s in traj.steps))
            bs = [s.state[0] for s in traj.steps]
            assert all(x >= y for x, y in zip(bs, bs[1:]))  # b non-increasing
            for s1, s2 in zip(traj.steps, traj.steps[1:]):
                if s1.state[0] == s2.state[0]:
                    assert s2.state[1] == s1.state[1] - 1  # v strictly decays within b
            last = traj.steps[-1]
            nxt, _, _ = step(m, last.state, last.action_index, last.w)
            assert nxt == (0, m.V)

    def test_first_vectorized_episode_is_the_scalar_episode(self):
        # One-at-a-time default_rng(seed).random() draws equal the prefix of
        # .random(B*V), so both simulators see the same noise, bit for bit.
        rng = np.random.default_rng(61)
        for _ in range(60):
            m = random_model(rng)
            pol = PolicyTable(action_index=rng.integers(
                0, len(m.actions), size=(m.B + 1, m.V + 1)))
            initial = (int(rng.integers(1, m.B + 1)), int(rng.integers(1, m.V + 1)))
            seed = int(rng.integers(1 << 30))
            traj = simulate_episode(m, pol, initial, seed)
            assert traj.total_cost == episode_costs(m, pol, initial, 1, seed)[0]

    def test_jsonl_export(self):
        m = table_model(1, 2, [0.0], h=[1.0], c=[0.0], r=[1.0, 1.0])
        traj = simulate_episode(m, const_policy(m, 0), (1, 2), seed=0)
        lines = traj.to_jsonl().strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert set(first) == {"t", "b", "v", "s", "w", "cost", "event"}
        assert first["t"] == 0 and first["b"] == 1 and first["v"] == 2


class TestMcEstimate:
    def test_matches_solver_value(self):
        rng = np.random.default_rng(19)
        m = random_model(rng)
        sol = solve_recursive(m)
        est = mc_estimate(m, sol.policy(), (m.B, m.V), 100_000, seed=1)
        assert abs(est.mean - sol.J[m.B, m.V]) <= 3 * max(est.std_error, 1e-12)

    def test_zero_variance_policy(self):
        m = table_model(3, 2, [1.0], h=[1.0, 2.0, 3.0], c=[0.5], r=[1.0, 4.0])
        est = mc_estimate(m, const_policy(m, 0), (3, 2), 1000, seed=0)
        expected = sum(h + 0.5 - 4.0 for h in (1.0, 2.0, 3.0))
        assert est.std_error == 0.0
        assert math.isclose(est.mean, expected)

    def test_n_equals_one(self):
        rng = np.random.default_rng(31)
        m = random_model(rng)
        pol = const_policy(m, 0)
        est = mc_estimate(m, pol, (m.B, m.V), 1, seed=5)
        assert est.std_error == 0.0 and est.n == 1

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(37)
        m = random_model(rng)
        pol = const_policy(m, 0)
        a = mc_estimate(m, pol, (m.B, m.V), 5000, seed=9)
        b = mc_estimate(m, pol, (m.B, m.V), 5000, seed=9)
        assert a == b

    def test_invalid_n(self):
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[1.0])
        with pytest.raises(ValueError):
            mc_estimate(m, const_policy(m, 0), (1, 1), 0, seed=0)

    def test_convergence_for_random_policies(self):
        # Exact policy value within 4 standard errors of the n=1e5 estimate
        # for at least 99 of 100 random policies on small instances.
        rng = np.random.default_rng(43)
        hits = 0
        for i in range(100):
            m = random_model(rng, max_B=3, max_V=3, max_actions=3)
            pol = PolicyTable(action_index=rng.integers(
                0, len(m.actions), size=(m.B + 1, m.V + 1)))
            exact = evaluate_policy(m, pol)[m.B, m.V]
            est = mc_estimate(m, pol, (m.B, m.V), 100_000, seed=i)
            if abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12):
                hits += 1
        assert hits >= 99

    def test_preset_1a_validates_J(self):
        m = validate(preset_by_id("1a").config)
        sol = solve_recursive(m)
        est = mc_estimate(m, sol.policy(), (20, 10), 100_000, seed=0)
        assert abs(est.mean - sol.J[20, 10]) <= 3 * est.std_error

    def test_episode_costs_all_terminate(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            m = random_model(rng)
            total = episode_costs(m, const_policy(m, 0), (m.B, m.V), 2000, seed=2)
            assert total.shape == (2000,)
            assert np.all(np.isfinite(total))
