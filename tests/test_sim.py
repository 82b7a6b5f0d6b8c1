"""Simulator: exact dynamics, seeded determinism, and agreement between
Monte Carlo averages and exact policy values."""

import math
import mmap
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_model, table_model
from decayq import (
    ConfigError,
    Event,
    PolicyTable,
    Trajectory,
    evaluate_policy,
    mc_estimate,
    simulate_episode,
    solve_recursive,
    step,
    validate,
)
from decayq.presets import preset_by_id
from decayq import sim
from decayq.sim import Step, episode_costs


def const_policy(model, index):
    return PolicyTable(action_index=np.full((model.B + 1, model.V + 1), index, dtype=int))


def reference_episode(model, policy, initial, seed):
    """Reference for ``simulate_episode``: a scalar loop over public ``step``,
    one ``rng.random()`` a draw."""
    rng = np.random.default_rng(seed)
    state, steps, total = initial, [], 0.0
    while state[0] > 0:
        a = policy.s_at(*state)
        w = float(rng.random())
        nxt, cost, event = step(model, state, a, w)
        steps.append(Step(state=state, action_index=a, w=w, stage_cost=cost, event=event))
        total += cost
        state = nxt
    return Trajectory(steps=tuple(steps), total_cost=total)


def typed_fields(traj):
    """Every Step field and the total, each with its type and exact repr."""
    return [(type(x), repr(x)) for st_ in traj.steps
            for x in (*st_.state, st_.action_index, st_.w, st_.stage_cost, st_.event)
            ] + [(type(traj.total_cost), repr(traj.total_cost))]


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

    @pytest.mark.parametrize("state", [(-1, 2), (4, 1), (1, 0), (1, 3)])
    def test_state_off_the_grid_rejected(self, state):
        m = table_model(3, 2, [0.5], h=[1.0, 2.0, 3.0], c=[0.5], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="nonterminal"):
            step(m, state, 0, 0.0)

    @pytest.mark.parametrize("index", [-1, 2, 1.0])
    def test_action_index_out_of_range_rejected(self, index):
        m = table_model(3, 2, [0.25, 0.5], h=[1.0, 2.0, 3.0], c=[0.5, 1.0], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="action index"):
            step(m, (3, 2), index, 0.5)

    def test_terminal_state_rejected(self):
        m = table_model(1, 2, [0.5], h=[0.0], c=[0.0], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="terminal"):
            step(m, (0, 2), 0, 0.5)

    @pytest.mark.parametrize("w", [-0.0625, 1.0625, math.nan])
    def test_noise_outside_unit_interval_rejected(self, w):
        m = table_model(1, 2, [0.5], h=[0.0], c=[0.0], r=[1.0, 2.0])
        with pytest.raises(ValueError, match=r"^noise .* outside \[0, 1\]$"):
            step(m, (1, 2), 0, w)

    def test_every_slot_is_the_documented_dynamics(self):
        # -0.0, ties, integers and inexact sums in the tables; w on both sides of s
        actions, h, c, r = [0.0, 0.5, 1.0], [-0.0, 0.1, 2.0], [-0.0, 0.2, 0.2], [0.3, 3.0, 3.0]
        B, V = len(h), len(r)
        m = table_model(B, V, actions, h=h, c=c, r=r)
        for b in range(1, B + 1):
            for v in range(1, V + 1):
                for a, s in enumerate(actions):
                    for w in (0.0, s, float(np.nextafter(s, 1.0)), 1.0):
                        completed = w <= s
                        if completed:
                            want = (b - 1, V), h[b - 1] + c[a] - r[v - 1], Event.COMPLETED
                        elif v == 1:
                            want = (b - 1, V), h[b - 1] + c[a] - 0.0, Event.EJECTED
                        else:
                            want = (b, v - 1), h[b - 1] + c[a] - 0.0, Event.DECAYED
                        got = step(m, (b, v), a, w)
                        assert [(type(x), repr(x)) for x in (*got[0], *got[1:])] \
                            == [(type(x), repr(x)) for x in (*want[0], *want[1:])], (b, v, a, w)


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

    @settings(max_examples=200, deadline=None)
    @given(B=st.integers(1, 6), V=st.integers(1, 6), k=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(B=1, V=1, k=1, seed=0)
    def test_matches_scalar_reference_loop(self, B, V, k, seed):
        rng = np.random.default_rng(seed)
        actions = np.unique(rng.uniform(0.0, 1.0, size=k))
        m = table_model(B, V, actions, h=rng.uniform(0.0, 3.0, size=B),
                        c=rng.uniform(0.0, 3.0, size=len(actions)),
                        r=rng.uniform(0.1, 3.0, size=V))
        pol = PolicyTable(action_index=rng.integers(0, len(actions), size=(B + 1, V + 1)))
        initial = (int(rng.integers(1, B + 1)), int(rng.integers(1, V + 1)))
        ref = reference_episode(m, pol, initial, seed)
        traj = simulate_episode(m, pol, initial, seed)
        assert typed_fields(traj) == typed_fields(ref)

    @pytest.mark.parametrize("s, slots", [(1.0, 2), (0.0, 6)],
                             ids=["ends_early", "runs_all_slots"])
    def test_generator_seed_advances_by_B_times_V(self, s, slots):
        # B*V = 6: sure completion ends after B = 2 slots, no service after all 6
        m = table_model(2, 3, [s], h=[1.0, 2.0], c=[0.0], r=[1.0, 2.0, 3.0])
        g = np.random.default_rng(5)
        assert len(simulate_episode(m, const_policy(m, 0), (2, 3), g)) == slots
        assert g.random() == np.random.default_rng(5).random(2 * 3 + 1)[-1]

    def test_numpy_int_initial_state_gives_python_ints(self):
        m = table_model(2, 3, [0.2, 0.6], h=[1.0, 2.0], c=[0.1, 0.5], r=[1.0, 2.0, 3.0])
        pol = PolicyTable(action_index=np.ones((3, 4), dtype=np.int64))
        traj = simulate_episode(m, pol, (np.int64(2), np.int32(3)), seed=3)
        assert all(type(x) is int for s_ in traj.steps for x in (*s_.state, s_.action_index))
        assert traj.steps == simulate_episode(m, pol, (2, 3), seed=3).steps


@pytest.mark.parametrize("run", [
    lambda m, pol, initial: simulate_episode(m, pol, initial, seed=0),
    lambda m, pol, initial: episode_costs(m, pol, initial, 5, seed=0),
    lambda m, pol, initial: mc_estimate(m, pol, initial, 5, seed=0),
], ids=["simulate_episode", "episode_costs", "mc_estimate"])
@pytest.mark.parametrize("initial", [(0, 3), (-1, 3), (3, 1), (1, 0), (1, 4)],
                         ids=["b=0", "b=-1", "b=B+1", "v=0", "v=V+1"])
def test_initial_state_off_the_grid_rejected(run, initial):
    m = table_model(2, 3, [0.5], h=[1.0, 2.0], c=[0.5], r=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="nonterminal"):
        run(m, const_policy(m, 0), initial)


@pytest.mark.parametrize("run", [
    lambda m, pol, initial: step(m, initial, 0, 0.5),
    lambda m, pol, initial: simulate_episode(m, pol, initial, seed=0),
    lambda m, pol, initial: episode_costs(m, pol, initial, 5, seed=0),
], ids=["step", "simulate_episode", "episode_costs"])
@pytest.mark.parametrize("initial", [(1.5, 3), (2, 2.5), (2.0, 3.0)],
                         ids=["b=1.5", "v=2.5", "floats"])
def test_fractional_state_rejected(run, initial):
    m = table_model(2, 3, [0.5], h=[1.0, 2.0], c=[0.5], r=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="integers in"):
        run(m, const_policy(m, 0), initial)


@pytest.mark.parametrize("run", [
    lambda m, pol: evaluate_policy(m, pol),
    lambda m, pol: simulate_episode(m, pol, (m.B, m.V), seed=0),
    lambda m, pol: episode_costs(m, pol, (m.B, m.V), 5, seed=0),
    lambda m, pol: mc_estimate(m, pol, (m.B, m.V), 5, seed=0),
], ids=["evaluate_policy", "simulate_episode", "episode_costs", "mc_estimate"])
@pytest.mark.parametrize("table", [
    np.full((3, 4), -1), np.full((3, 4), 2), np.full((3, 4), 1.0),
    np.zeros((3, 3), dtype=int), np.zeros((4, 4), dtype=int), np.zeros(12, dtype=int),
], ids=["a=-1", "a=|S|", "float", "V short", "B long", "flat"])
def test_malformed_policy_rejected(run, table):
    m = table_model(2, 3, [0.25, 0.5], h=[1.0, 2.0], c=[0.5, 1.0], r=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="policy"):
        run(m, PolicyTable(action_index=table))
    padded = np.full((3, 4), -1)  # row 0 and column 0 are never read
    padded[1:, 1:] = 1
    run(m, PolicyTable(action_index=padded))


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

    @pytest.mark.parametrize("n", [True, np.True_, 2.0, "2", None])
    @pytest.mark.parametrize("run", [episode_costs, mc_estimate],
                             ids=["episode_costs", "mc_estimate"])
    def test_n_must_be_an_int(self, run, n):
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[1.0])
        with pytest.raises(ValueError, match="n must be an int"):
            run(m, const_policy(m, 0), (1, 1), n, seed=0)

    def test_n_accepts_numpy_int(self):
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[1.0])
        pol = const_policy(m, 0)
        assert mc_estimate(m, pol, (1, 1), np.int64(3), seed=0) \
            == mc_estimate(m, pol, (1, 1), 3, seed=0)

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

    def test_noise_draws_capped_at_the_limit(self, monkeypatch):
        m = table_model(2, 3, [0.5], h=[1.0, 2.0], c=[0.5], r=[1.0, 2.0, 3.0])
        pol = const_policy(m, 0)
        monkeypatch.setattr(sim, "_MAX_DRAWS", 6 * 4)
        assert episode_costs(m, pol, (2, 3), 4, seed=0).shape == (4,)
        for run in (episode_costs, mc_estimate):
            with pytest.raises(ConfigError, match=r"n\*B\*V = 30 noise draws exceed the limit of 24"):
                run(m, pol, (2, 3), 5, seed=0)

    @pytest.mark.parametrize("n", [2**36 // 6 + 1, 10**13, np.int64(2**62)],
                             ids=["limit+1", "1e13", "int64"])
    @pytest.mark.parametrize("run", [episode_costs, mc_estimate],
                             ids=["episode_costs", "mc_estimate"])
    def test_oversized_n_rejected_before_drawing(self, run, n):
        m = table_model(2, 3, [0.5], h=[1.0, 2.0], c=[0.5], r=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match=r"\(2\*\*36\)"):
            run(m, const_policy(m, 0), (2, 3), n, seed=0)

    def test_n_over_the_episode_limit_rejected_before_allocating(self):
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[1.0])
        with pytest.raises(ConfigError, match=r"n = 67108865 episodes exceed .* \(2\*\*26\)"):
            episode_costs(m, const_policy(m, 0), (1, 1), 2**26 + 1, seed=0)

    def test_episode_costs_all_terminate(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            m = random_model(rng)
            total = episode_costs(m, const_policy(m, 0), (m.B, m.V), 2000, seed=2)
            assert total.shape == (2000,)
            assert np.all(np.isfinite(total))


class TestNoiseChunks:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(B=st.integers(1, 5), V=st.integers(1, 5), k=st.integers(1, 3),
           n=st.integers(1, 40), chunk=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_every_episode_is_the_scalar_episode(self, monkeypatch, B, V, k, n, chunk, seed):
        # Chunks of a few episodes, so episodes end mid-chunk and chunk edges fall
        # inside the n episodes; episode i steps on stream positions [i*L, (i+1)*L).
        rng = np.random.default_rng(seed)
        actions = np.unique(rng.uniform(0.0, 1.0, size=k))
        m = table_model(B, V, actions, h=rng.uniform(0.0, 3.0, size=B),
                        c=rng.uniform(0.0, 3.0, size=len(actions)),
                        r=rng.uniform(0.1, 3.0, size=V))
        pol = PolicyTable(action_index=rng.integers(0, len(actions), size=(B + 1, V + 1)))
        initial = (int(rng.integers(1, B + 1)), int(rng.integers(1, V + 1)))
        monkeypatch.setattr(sim, "_NOISE_BYTES", 8 * B * V * chunk)
        got = episode_costs(m, pol, initial, n, seed)
        stream = np.random.default_rng(seed)
        want = []
        for _ in range(n):
            draws = iter(stream.random(B * V).tolist())
            state, total = initial, 0.0
            while state[0] > 0:
                state, cost, _ = step(m, state, pol.s_at(*state), next(draws))
                total += cost
            want.append(total)
        assert got.tobytes() == np.array(want).tobytes()

    def test_chunked_equals_one_block_bitwise(self, monkeypatch):
        rng = np.random.default_rng(67)
        for _ in range(20):
            m = random_model(rng)
            pol = PolicyTable(action_index=rng.integers(
                0, len(m.actions), size=(m.B + 1, m.V + 1)))
            initial, seed = (m.B, m.V), int(rng.integers(1 << 30))
            n = int(rng.integers(1, 40))
            monkeypatch.setattr(sim, "_NOISE_BYTES", 1 << 40)  # one chunk
            whole = episode_costs(m, pol, initial, n, seed)
            chunk = int(rng.integers(1, 8))  # seldom divides n
            monkeypatch.setattr(sim, "_NOISE_BYTES", 8 * m.B * m.V * chunk + 7)
            assert episode_costs(m, pol, initial, n, seed).tobytes() == whole.tobytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(B=st.integers(1, 4), V=st.integers(1, 4), n=st.integers(1, 40),
           chunk=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_signed_zero_costs_are_the_scalar_costs(self, monkeypatch, B, V, n, chunk,
                                                    seed, data):
        # A finished episode keeps adding +0.0, exact only because a total that
        # starts at +0.0 never becomes -0.0; h = c = -0.0 gives stage costs of -0.0.
        costs = st.sampled_from([-0.0, 0.0, -1.5, 2.0])
        actions = sorted(data.draw(st.sets(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                           min_size=1, max_size=3)))
        m = table_model(B, V, actions, h=data.draw(st.lists(costs, min_size=B, max_size=B)),
                        c=data.draw(st.lists(costs, min_size=len(actions),
                                             max_size=len(actions))),
                        r=data.draw(st.lists(st.sampled_from([0.5, 1.5]),
                                             min_size=V, max_size=V)))
        pol = PolicyTable(action_index=np.array(data.draw(st.lists(
            st.integers(0, len(actions) - 1), min_size=(B + 1) * (V + 1),
            max_size=(B + 1) * (V + 1)))).reshape(B + 1, V + 1))
        initial = (data.draw(st.integers(1, B)), data.draw(st.integers(1, V)))
        monkeypatch.setattr(sim, "_NOISE_BYTES", 16 * B * V * chunk)  # chunks of n
        got = episode_costs(m, pol, initial, n, seed)
        stream = np.random.default_rng(seed)  # advanced by B*V draws an episode
        want = [simulate_episode(m, pol, initial, stream).total_cost for _ in range(n)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_preset_1a_maps_at_most_4_mib_of_noise(self, monkeypatch):
        lengths, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda fd, length, **kw:
                            lengths.append(length) or real(fd, length, **kw))
        m = validate(preset_by_id("1a").config)
        episode_costs(m, solve_recursive(m).policy(), (m.B, m.V), 100_000, seed=3)
        assert len(lengths) == 1 and lengths[0] <= 4 * 2**20

    def test_peak_allocation_bounded_by_budget(self):
        # 100000 episodes of 200 slots would be 160 MB of noise in one block
        m = validate(preset_by_id("1a").config)
        pol = solve_recursive(m).policy()
        tracemalloc.start()
        try:
            episode_costs(m, pol, (m.B, m.V), 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sim._NOISE_BYTES

    def test_stepping_arrays_within_the_budget(self):
        # With B*V = 1 the noise alone once set the chunk at 2**20 episodes, and
        # its stepping arrays took about 42 MiB beside the 8 MiB of totals.
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[2.0])
        pol = PolicyTable(action_index=np.zeros((2, 2), dtype=int))
        n = 1 << 20
        tracemalloc.start()
        try:
            episode_costs(m, pol, (1, 1), n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 1.5 * sim._NOISE_BYTES

    def test_noise_is_not_allocated_by_numpy(self):
        # Noise drawn into numpy arrays lands in the malloc heap, which then
        # kept 32 MiB of freed chunks between calls, so the peak memory of a
        # run rested on where the heap's holes fell.
        m = validate(preset_by_id("1a").config)
        pol = solve_recursive(m).policy()
        tracemalloc.start()
        try:
            episode_costs(m, pol, (m.B, m.V), 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sim._NOISE_BYTES / 4


class Injected(Exception):
    """A failure planted in a draw or a step."""


class RecordingRng:
    """A ``default_rng(seed)`` stand-in that records the address and shape of
    each ``out=`` buffer, raises Injected on call ``fail_at`` and sleeps
    ``delay`` seconds in every call after the first."""

    def __init__(self, rng, fail_at=None, delay=0.0):
        self.rng, self.fail_at, self.delay, self.outs = rng, fail_at, delay, []

    def random(self, out):
        self.outs.append((out.ctypes.data, out.shape))
        if len(self.outs) == self.fail_at:
            raise Injected("draw failed")
        if len(self.outs) > 1:
            time.sleep(self.delay)
        return self.rng.random(out=out)


class TestDrawAhead:
    """The worker thread that draws chunk i+1 while chunk i steps."""

    def rigged(self, monkeypatch, chunk, fail_at=None, delay=0.0):
        """A 2x3 model whose noise halves hold ``chunk`` episodes each, its
        policy, the RecordingRngs that ``default_rng`` now makes, and the real
        ``default_rng``."""
        m = table_model(2, 3, [0.3, 0.7], h=[1.0, 2.0], c=[0.2, 0.9], r=[1.0, 2.0, 4.0])
        pol = PolicyTable(action_index=np.array([[0] * 4, [0, 1, 0, 1], [0, 0, 1, 1]]))
        monkeypatch.setattr(sim, "_NOISE_BYTES", 16 * 6 * chunk)
        real, rngs = np.random.default_rng, []

        def recording_rng(seed):
            rngs.append(RecordingRng(real(seed), fail_at, delay))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        return m, pol, rngs, real

    def test_halves_alternate_and_episodes_are_the_scalar_episodes(self, monkeypatch):
        m, pol, rngs, real = self.rigged(monkeypatch, chunk=3)
        got = episode_costs(m, pol, (2, 3), 10, seed=11)  # chunks of 3, 3, 3 and 1
        (addr0, _), (addr1, _), *_ = outs = rngs[0].outs
        assert addr0 != addr1
        assert outs == [(addr0, (3, 6)), (addr1, (3, 6)), (addr0, (3, 6)), (addr1, (1, 6))]
        monkeypatch.setattr(np.random, "default_rng", real)
        stream = real(11)  # simulate_episode advances a Generator by B*V draws
        want = [simulate_episode(m, pol, (2, 3), stream).total_cost for _ in range(10)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("fail_at", [1, 2, 4])
    def test_failed_draw_surfaces_and_no_thread_outlives_the_call(self, monkeypatch,
                                                                   fail_at):
        m, pol, rngs, _ = self.rigged(monkeypatch, chunk=3, fail_at=fail_at)
        before = threading.active_count()
        with pytest.raises(Injected):
            episode_costs(m, pol, (2, 3), 10, seed=11)
        assert threading.active_count() == before
        assert len(rngs[0].outs) == fail_at  # no chunk drawn past the failed one

    def test_stepping_error_waits_for_the_draw_in_flight(self, monkeypatch):
        # chunk 0 fails to step while chunk 1 is still being drawn
        m, pol, rngs, _ = self.rigged(monkeypatch, chunk=3, delay=0.2)

        def full(*args, **kwargs):
            raise Injected("stepping failed")

        monkeypatch.setattr(np, "full", full)
        before = threading.active_count()
        with pytest.raises(Injected, match="stepping failed"):
            episode_costs(m, pol, (2, 3), 10, seed=11)
        assert threading.active_count() == before
        assert len(rngs[0].outs) == 2

    def test_no_thread_outlives_a_returning_call(self, monkeypatch):
        m, pol, _, _ = self.rigged(monkeypatch, chunk=2)
        before = threading.active_count()
        for n in (1, 2, 3, 9):
            episode_costs(m, pol, (2, 3), n, seed=5)
            assert threading.active_count() == before

    def test_concurrent_calls_under_a_short_switch_interval(self, monkeypatch):
        # Four calls at once, each with its drawing thread, switching threads every
        # microsecond: a half drawn over while it still steps would change a total.
        m = validate(preset_by_id("1a").config)
        pol = solve_recursive(m).policy()
        monkeypatch.setattr(sim, "_NOISE_BYTES", 1 << 40)  # one chunk, no half reused
        want = {s: episode_costs(m, pol, (m.B, m.V), 300, s).tobytes() for s in range(4)}
        monkeypatch.setattr(sim, "_NOISE_BYTES", 16 * m.B * m.V * 7)  # chunks of 7
        got = {}

        def call(s):
            got[s] = episode_costs(m, pol, (m.B, m.V), 300, s).tobytes()

        threads = [threading.Thread(target=call, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_noise_map_within_the_budget(self, monkeypatch):
        lengths, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda fd, length, **kw:
                            lengths.append(length) or real(fd, length, **kw))
        m = validate(preset_by_id("1a").config)
        pol = solve_recursive(m).policy()
        for n in (1, 100_000):
            episode_costs(m, pol, (m.B, m.V), n, seed=3)
        assert lengths[0] == 16 * m.B * m.V  # two halves of one episode
        assert 0.99 * sim._NOISE_BYTES < lengths[1] <= sim._NOISE_BYTES

