"""Solver correctness: desk-scale oracles, cross-solver agreement, and the
structural identities of the increment recursion."""

import numpy as np
import pytest

from conftest import brute_force_optimal, random_model, table_model
from decayq import (
    PolicyTable,
    apply_T,
    bellman_backup,
    evaluate_policy,
    g_map,
    near_tie_states,
    policy_iteration,
    solution_from_csv,
    solve_recursive,
    validate,
    value_iteration,
)
from decayq.presets import FIGURE_PRESETS, preset_by_id


def fig_model(preset_id):
    return validate(preset_by_id(preset_id).config)


class TestSolveRecursive:
    def test_single_zero_cost_action(self):
        m = table_model(1, 1, [0.0], h=[0.0], c=[0.0], r=[5.0])
        sol = solve_recursive(m)
        assert sol.delta[1, 1] == 0.0
        assert sol.mu[1, 1] == 0
        assert sol.J[1, 1] == 0.0

    def test_two_state_instance_vs_policy_enumeration(self):
        # Frozen expected values from enumerating all 4 stationary policies.
        m = table_model(1, 2, [0.0, 1.0], h=[0.0], c=[0.0, 1.0], r=[1.0, 3.0])
        assert brute_force_optimal(m) == -2.0
        sol = solve_recursive(m)
        assert sol.delta[1, 1] == 0.0
        assert sol.mu[1, 1] == 0  # tie broken to the smaller action
        assert sol.delta[1, 2] == -2.0
        assert sol.mu[1, 2] == 1
        assert sol.J[1, 2] == -2.0

    def test_fig1a_policy_monotone_both_ways(self):
        sol = solve_recursive(fig_model("1a"))
        mu = sol.mu[1:, 1:]
        assert np.all(np.diff(mu, axis=0) >= 0)  # in b
        assert np.all(np.diff(mu, axis=1) >= 0)  # in v

    def test_terminal_and_boundary_entries(self):
        sol = solve_recursive(fig_model("1a"))
        assert sol.J[0, sol.V] == 0.0
        assert np.all(sol.delta[:, 0] == 0.0)
        assert np.all(sol.sigma[:, 0] == 0.0)

    def test_sigma_is_running_sum_of_delta(self):
        sol = solve_recursive(fig_model("1c"))
        np.testing.assert_allclose(
            sol.sigma[1:, :], np.cumsum(sol.delta[1:, :], axis=1), atol=1e-12)


class TestApplyT:
    def test_matches_sigma_recursion_on_fig1a(self):
        m = fig_model("1a")
        sol = solve_recursive(m)
        for b in range(1, m.B + 1):
            for v in range(1, m.V + 1):
                assert apply_T(m, b, v, sol.sigma[b, v - 1]) == sol.sigma[b, v]

    def test_identity_when_minimand_zero(self):
        m = table_model(2, 2, [0.0], h=[0.0, 0.0], c=[0.0], r=[1.0, 1.0])
        for x in (-3.0, 0.0, 2.5):
            assert apply_T(m, 1, 1, x) == x

    def test_two_action_hand_value(self):
        m = table_model(1, 1, [0.0, 1.0], h=[1.0], c=[0.0, 1.0], r=[2.0])
        assert apply_T(m, 1, 1, 0.0) == 0.0  # 0 + 1 + min{0, 1-2}

    def test_monotone_in_x(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng)
            xs = np.sort(rng.uniform(-20, 20, size=16))
            b = int(rng.integers(1, m.B + 1))
            v = int(rng.integers(1, m.V + 1))
            ts = [apply_T(m, b, v, x) for x in xs]
            assert all(a <= b2 for a, b2 in zip(ts, ts[1:]))


class TestGMap:
    def test_exact_tie_broken_to_smallest(self):
        m = table_model(1, 1, [0.2, 0.8], h=[0.0], c=[0.2, 0.8], r=[1.0])
        assert g_map(m, 1.0) == 0

    def test_two_term_enumeration(self):
        m = table_model(1, 1, [0.1, 0.9], h=[0.0], c=[0.1, 0.9], r=[1.0])
        assert g_map(m, 10.0) == 1

    def test_nondecreasing_on_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = random_model(rng)
            xs = np.sort(rng.uniform(-50, 50, size=32))
            out = [g_map(m, x) for x in xs]
            assert all(a <= b for a, b in zip(out, out[1:]))


class TestBellmanBackup:
    def test_hand_enumeration(self):
        m = table_model(1, 1, [0.0, 1.0], h=[1.0], c=[0.0, 1.0], r=[2.0])
        J = np.zeros((2, 2))
        value, arg = bellman_backup(m, J, 1, 1)
        assert value == 0.0 and arg == 1

    def test_singleton_action_always_argmin_zero(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, max_actions=1)
        J = rng.normal(size=(m.B + 1, m.V + 1))
        for b in range(1, m.B + 1):
            for v in range(1, m.V + 1):
                assert bellman_backup(m, J, b, v)[1] == 0

    def test_fixed_point_of_recursive_solution(self):
        m = fig_model("1b")
        sol = solve_recursive(m)
        for b in range(1, m.B + 1):
            for v in range(1, m.V + 1):
                value, arg = bellman_backup(m, sol.J, b, v)
                assert abs(value - sol.J[b, v]) < 1e-9
                assert arg == sol.mu[b, v]


class TestValueIteration:
    def test_matches_recursive(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_model(rng)
            a = solve_recursive(m)
            b = value_iteration(m)
            assert np.abs(a.J - b.J).max() <= 1e-9

    def test_converges_in_two_sweeps(self):
        sol = value_iteration(fig_model("1a"))
        assert sol.sweeps == 2  # first sweep exact, second certifies

    def test_terminal_stays_zero(self):
        sol = value_iteration(fig_model("1a"))
        assert sol.J[0, sol.V] == 0.0

    def test_fig1d_row5_nonmonotone(self):
        sol = value_iteration(fig_model("1d"))
        row = sol.mu[5, 1:]
        assert any(x < y for x, y in zip(row, row[1:]))
        assert any(x > y for x, y in zip(row, row[1:]))

    def test_bad_arguments(self):
        m = fig_model("1a")
        with pytest.raises(ValueError):
            value_iteration(m, tol=0.0)
        with pytest.raises(ValueError):
            value_iteration(m, tol=float("inf"))
        with pytest.raises(ValueError):
            value_iteration(m, max_sweeps=0)


class TestPolicyIteration:
    def test_matches_recursive(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = random_model(rng)
            a = solve_recursive(m)
            b = policy_iteration(m)
            assert np.abs(a.J - b.J).max() <= 1e-9
            assert np.array_equal(a.mu[1:, 1:], b.mu[1:, 1:])

    def test_singleton_terminates_one_iteration(self):
        rng = np.random.default_rng(29)
        m = random_model(rng, max_actions=1)
        sol = policy_iteration(m)
        assert sol.sweeps == 1

    def test_fig1c_in_b_monotone(self):
        sol = policy_iteration(fig_model("1c"))
        assert np.all(np.diff(sol.mu[1:, 1:], axis=0) >= 0)


class TestStructuralIdentities:
    """Difference identity, policy factorization, and operator identity."""

    def _models(self, n=30):
        rng = np.random.default_rng(41)
        return [random_model(rng) for _ in range(n)]

    def test_difference_identity(self):
        for m in self._models():
            sol = solve_recursive(m)
            for b in range(1, m.B + 1):
                assert abs(sol.J[b, 1] - sol.J[b - 1, m.V] - sol.delta[b, 1]) < 1e-9
                for v in range(2, m.V + 1):
                    assert abs(sol.J[b, v] - sol.J[b, v - 1] - sol.delta[b, v]) < 1e-9

    def test_policy_factorization(self):
        for m in self._models():
            sol = solve_recursive(m)
            for b in range(1, m.B + 1):
                for v in range(1, m.V + 1):
                    assert sol.mu[b, v] == g_map(m, m.r_of(v) + sol.sigma[b, v - 1])

    def test_operator_identity(self):
        for m in self._models():
            sol = solve_recursive(m)
            for b in range(1, m.B + 1):
                for v in range(1, m.V + 1):
                    assert apply_T(m, b, v, sol.sigma[b, v - 1]) == sol.sigma[b, v]


class TestBruteForceOracle:
    def test_small_random_models(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            m = random_model(rng, max_B=3, max_V=3, max_actions=3)
            sol = solve_recursive(m)
            assert abs(brute_force_optimal(m) - sol.J[m.B, m.V]) <= 1e-9


class TestEvaluatePolicy:
    def test_optimal_policy_evaluates_to_J(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            m = random_model(rng)
            sol = solve_recursive(m)
            J = evaluate_policy(m, sol.policy())
            assert np.abs(J - sol.J).max() <= 1e-9

    def test_suboptimal_policy_costs_at_least_J(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            m = random_model(rng)
            sol = solve_recursive(m)
            pol = PolicyTable(action_index=rng.integers(
                0, len(m.actions), size=(m.B + 1, m.V + 1)))
            J = evaluate_policy(m, pol)
            assert np.all(J[1:, 1:] >= sol.J[1:, 1:] - 1e-9)


class TestCsvRoundTrip:
    def test_round_trip(self):
        sol = solve_recursive(fig_model("1a"))
        back = solution_from_csv(sol.to_csv())
        assert np.array_equal(back.mu[1:, 1:], sol.mu[1:, 1:])
        np.testing.assert_array_equal(back.J[1:, 1:], sol.J[1:, 1:])
        np.testing.assert_array_equal(back.delta[1:, 1:], sol.delta[1:, 1:])
        np.testing.assert_array_equal(back.sigma[1:, 1:], sol.sigma[1:, 1:])
        assert back.J[0, back.V] == 0.0

    def test_row_count_and_terminal_row(self):
        sol = solve_recursive(fig_model("1a"))
        lines = sol.to_csv().strip().split("\n")
        assert len(lines) == 1 + 200 + 1  # header, B*V policy rows, terminal
        assert lines[-1] == "0,10,0,,,,"

    # A 2x2 export is the header, rows (1,1) (1,2) (2,1) (2,2), then the terminal row.
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:1], "no policy rows"),
        (lambda rows: rows[:1] + rows[-1:], "no policy rows"),
        (lambda rows: rows[:2] + [rows[2] + ",9"] + rows[3:], "line 3 has 8 fields"),
        (lambda rows: rows[:2] + rows[3:], "3 policy rows for the 2x2 state grid"),
        (lambda rows: rows[:3] + rows[2:4] + rows[-1:], r"state \(1, 2\) is repeated"),
        (lambda rows: rows[:-2] + ["2,3" + rows[-2][3:]] + rows[-1:], "outside the 2x2 grid"),
        (lambda rows: rows[:-1], "terminal row missing"),
    ], ids=["header_only", "terminal_only", "extra_field", "missing_state",
            "duplicate_state", "state_off_grid", "no_terminal"])
    def test_malformed_body_rejected(self, edit, message):
        m = table_model(2, 2, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0])
        rows = solve_recursive(m).to_csv().strip().split("\n")
        with pytest.raises(ValueError, match=message):
            solution_from_csv("\n".join(edit(rows)) + "\n")


class TestNearTieDiagnostic:
    def test_reports_constructed_tie(self):
        m = table_model(1, 1, [0.2, 0.8], h=[0.0], c=[0.2, 0.8], r=[1.0])
        sol = solve_recursive(m)
        assert near_tie_states(sol) == [(1, 1)]

    def test_generic_model_has_none(self):
        assert near_tie_states(solve_recursive(fig_model("1a"))) == []
