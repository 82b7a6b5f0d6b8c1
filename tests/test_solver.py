"""Solver correctness: desk-scale oracles, cross-solver agreement, and the
structural identities of the increment recursion."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimal, export_blocks, random_model, table_model
from decayq import (
    Direction,
    Guarantee,
    MonotonicityReport,
    PolicyTable,
    SolutionTable,
    apply_T,
    bellman_backup,
    check_constant_reward,
    check_delta_conditions,
    classify_policy,
    evaluate_policy,
    g_map,
    near_tie_states,
    policy_iteration,
    solution_from_csv,
    solve_recursive,
    validate,
    value_iteration,
)
from decayq.cli import _boundaries
from decayq.monotone import RowClass
from decayq.presets import FIGURE_PRESETS, preset_by_id
from decayq import csvio, solver
from decayq.solver import _fixed_chain, _greedy_policy, _greedy_sweep


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

    @pytest.mark.parametrize("b, v", [(0, 1), (21, 1), (1, 0), (1, 11), (-3, 1)])
    def test_state_off_the_tables_rejected(self, b, v):
        # negative indices used to wrap: (0, 1) read h(B), (1, 0) read r(V)
        m = fig_model("1a")
        assert (m.B, m.V) == (20, 10)
        with pytest.raises(ValueError, match="outside"):
            apply_T(m, b, v, 0.5)


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

    @pytest.mark.parametrize("state", [(0, 1), (-1, 2), (3, 1), (1, 0), (1, 3)])
    def test_state_off_the_grid_rejected(self, state):
        m = table_model(2, 2, [0.0, 0.5], h=[1.0, 2.0], c=[0.0, 1.0], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="outside"):
            bellman_backup(m, np.zeros((3, 3)), *state)

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

    def test_first_sweep_within_tol_returns(self):
        # every |J| is within 1e-9, so the first sweep is all that is counted
        m = table_model(2, 2, [0.0, 0.5], h=[1e-12] * 2, c=[1e-12] * 2, r=[1e-12] * 2)
        sol = value_iteration(m)
        assert np.abs(sol.J).max() <= 1e-9 and sol.sweeps == 1


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
        (lambda rows: rows[:1] + [rows[1].replace(",0,0.3,", ",-1,0.3,")] + rows[2:],
         r"state \(1, 1\) has negative mu_index -1"),
        (lambda rows: rows[:3] + [rows[3].replace(",0.3,", ",0.30,")] + rows[4:],
         "mu_index 0 has two mu_value texts '0.3' and '0.30'"),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], "out of b-major order"),
    ], ids=["header_only", "terminal_only", "extra_field", "missing_state",
            "duplicate_state", "state_off_grid", "no_terminal", "negative_mu_index",
            "mu_value_mismatch", "rows_swapped"])
    def test_malformed_body_rejected(self, edit, message):
        m = table_model(2, 2, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0])
        rows = solve_recursive(m).to_csv().strip().split("\n")
        with pytest.raises(ValueError, match=message):
            solution_from_csv("\n".join(edit(rows)) + "\n")

    # The 2x2 export is six lines, each ended by one "\n", and nothing around them.
    @pytest.mark.parametrize("frame, message", [
        (lambda text: "\n" + text, "unexpected CSV header ''"),
        (lambda text: " " + text, "unexpected CSV header ' b,v,"),
        (lambda text: text + " ", "does not end with a newline"),
        (lambda text: text[:-1] + "\r\n", r"line 6 '0,2,0,,,,\\r' has a character"),
        (lambda text: text + "\n", "line 7 has 1 fields"),
        (lambda text: text[:-1], "does not end with a newline"),
    ], ids=["leading_newline", "leading_space", "trailing_space", "crlf_end",
            "doubled_final_newline", "no_final_newline"])
    def test_text_framed_other_than_written_rejected(self, frame, message):
        m = table_model(2, 2, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0])
        with pytest.raises(ValueError, match=message):
            solution_from_csv(frame(solve_recursive(m).to_csv()))

    @pytest.mark.parametrize("terminal", [
        "0,2,5,x,y,z,w", "0,2,0,,,,1", "0,2,0.0,,,,", "0,02,0,,,,", "0,x,0,,,,", "0,-2,0,,,,",
    ])
    def test_terminal_row_other_than_written_rejected(self, terminal):
        m = table_model(2, 2, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0])
        rows = solve_recursive(m).to_csv().strip().split("\n")
        with pytest.raises(ValueError, match=f"terminal row '{terminal}' is not"):
            solution_from_csv("\n".join(rows[:-1] + [terminal]) + "\n")

    @pytest.mark.parametrize("field, text, message", [
        (2, "nan", "a J, delta or sigma that is not finite"),
        (2, "-inf", "a J, delta or sigma that is not finite"),
        (5, "inf", "a J, delta or sigma that is not finite"),
        (6, "1e999", "a J, delta or sigma that is not finite"),
        (4, "abc", "mu_value 'abc', not a number"),
        (4, "", "mu_value '', not a number"),
        (4, "nan", "mu_value 'nan', not a number"),
        (4, "inf", "mu_value 'inf', not a number"),
        (4, "-0.5", "mu_value '-0.5', not a number"),
        (4, "1.5", "mu_value '1.5', not a number"),
        (3, str(10**30), f"out-of-range mu_index {10**30}"),
        (3, str(2**63), f"out-of-range mu_index {2**63}"),
    ])
    def test_non_finite_or_unparseable_field_rejected(self, field, text, message):
        m = table_model(2, 2, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0])
        rows = solve_recursive(m).to_csv().strip().split("\n")
        fields = rows[1].split(",")
        fields[field] = text
        with pytest.raises(ValueError, match=rf"state \(1, 1\) has {message}"):
            solution_from_csv("\n".join([rows[0], ",".join(fields)] + rows[2:]) + "\n")

    @pytest.mark.parametrize("field, text", [
        (2, "1_0"), (3, "0_0"), (0, "\u0661"), (1, " \u0661 "), (6, "0.5\t"), (5, "\x0c1"),
    ], ids=["underscore_J", "underscore_mu_index", "arabic_indic_b", "spaced_arabic_indic_v",
            "tab", "form_feed"])
    def test_number_text_that_to_csv_never_writes_rejected(self, field, text):
        # int and float take all of these: 1_0 read as J = 10.0, \u0661 as 1
        m = table_model(2, 2, [0.3, 0.6], h=[1.0, 2.0], c=[0.1, 0.5], r=[1.0, 2.0])
        rows = solve_recursive(m).to_csv().strip().split("\n")
        fields = rows[2].split(",")
        fields[field] = text
        with pytest.raises(ValueError, match=r"line 3 '.*' has a character that to_csv "
                                             "never writes"):
            solution_from_csv("\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n")

    def test_row_of_non_finite_numbers_rejected(self):
        text = "b,v,J,mu_index,mu_value,delta,sigma\n1,1,nan,0,0.5,inf,-inf\n0,1,0,,,,\n"
        with pytest.raises(ValueError, match=r"state \(1, 1\) has a J, delta or sigma "
                                             "that is not finite"):
            solution_from_csv(text)

    @pytest.mark.parametrize("name", ["J", "delta", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_table_never_constructed(self, name, bad):
        # the import's check is the table's own, so to_csv never meets nan or +-inf
        sol = solve_recursive(fig_model("1a"))
        tables = {k: getattr(sol, k).copy() for k in ("J", "delta", "sigma")}
        tables[name][3, 2] = bad
        with pytest.raises(ValueError, match=r"^state \(3, 2\) has a J, delta or sigma "
                                             "that is not finite$"):
            SolutionTable(mu=sol.mu, solver_id="edited", model=sol.model, **tables)

    def test_export_of_an_import_rejected(self):
        back = solution_from_csv(solve_recursive(fig_model("1a")).to_csv())
        with pytest.raises(ValueError, match="^cannot export a solution without its model$"):
            back.to_csv()

    def test_export_formats_only_the_actions_it_writes(self):
        # a text for every action in the model peaked at 114 MiB for these 75 bytes
        k = 2**20
        m = table_model(1, 1, np.arange(1, k + 1) / k, h=[1.0], c=np.zeros(k), r=[1.0])
        sol = solve_recursive(m)
        text, peak = traced_peak(sol.to_csv)
        assert text.split("\n")[1] == f"1,1,0.0,{k - 1},1.0,0.0,0.0"
        assert peak < 2**20

    def test_import_splits_one_line_at_a_time(self):
        # the split fields of every row at once peaked at 8.35 times the text
        m = random_model(np.random.default_rng(0), shape=(100, 100, 5))
        text = solve_recursive(m).to_csv()
        _, peak = traced_peak(solution_from_csv, text)
        assert peak < 4 * len(text)

    def test_import_makes_no_copy_of_the_text(self):
        # text.strip() copied the whole text for its one trailing newline: 2.67
        # times; the list of its lines from text.split took 2.37 times.  Now
        # 0.42 times: the four tables are 0.38 times the text
        m = random_model(np.random.default_rng(0), shape=(100, 100, 5))
        text = solve_recursive(m).to_csv()
        _, peak = traced_peak(solution_from_csv, text)
        assert peak < 0.6 * len(text)


def traced_peak(call, *args):
    """call(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNearTieDiagnostic:
    def test_reports_constructed_tie(self):
        m = table_model(1, 1, [0.2, 0.8], h=[0.0], c=[0.2, 0.8], r=[1.0])
        sol = solve_recursive(m)
        assert near_tie_states(sol) == [(1, 1)]

    def test_generic_model_has_none(self):
        assert near_tie_states(solve_recursive(fig_model("1a"))) == []

    @pytest.mark.parametrize("window", [-1e-12, -np.inf, np.nan])
    def test_negative_or_nan_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            near_tie_states(solve_recursive(fig_model("1a")), window)

    def test_zero_window_finds_exact_tie(self):
        m = table_model(1, 1, [0.2, 0.8], h=[0.0], c=[0.2, 0.8], r=[1.0])
        assert near_tie_states(solve_recursive(m), 0.0) == [(1, 1)]

    def test_imported_table_rejected(self):
        back = solution_from_csv(solve_recursive(fig_model("1a")).to_csv())
        with pytest.raises(ValueError, match="^solution carries no model$"):
            near_tie_states(back)


def direct_table(model):
    """A SolutionTable built by hand from fresh, writable copies of a solution's arrays."""
    sol = solve_recursive(model)
    return SolutionTable(J=sol.J.copy(), mu=sol.mu.copy(), delta=sol.delta.copy(),
                         sigma=sol.sigma.copy(), solver_id="direct", model=model)


class TestSolutionTableIsAValue:
    """A table cannot change after construction, on every path that makes one."""

    MAKERS = {
        "recursive": solve_recursive,
        "value_iteration": value_iteration,
        "policy_iteration": policy_iteration,
        "csv": lambda m: solution_from_csv(solve_recursive(m).to_csv()),
        "direct": direct_table,
    }

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("name", ["J", "mu", "delta", "sigma"])
    def test_arrays_read_only(self, maker, name):
        table = getattr(self.MAKERS[maker](fig_model("1a")), name)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1, 1] = 0

    def test_no_nan_written_through_an_edit(self):
        # the edit that once made to_csv write a "null" the import refused
        sol = solve_recursive(fig_model("1a"))
        text = sol.to_csv()
        with pytest.raises(ValueError, match="read-only"):
            sol.J[1, 1] = np.nan
        assert sol.to_csv() == text

    def test_fields_cannot_be_rebound(self):
        sol = value_iteration(fig_model("1a"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.sweeps = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.J = np.full_like(sol.J, np.nan)

    def test_policy_shares_mu(self):
        sol = solve_recursive(fig_model("1a"))
        assert sol.policy().action_index is sol.mu


# Bitwise oracle for the array kernels: the per-state loops they replaced,
# kept here as references.  Hypothesis draws small models with exact ties
# (grid actions, integer costs), non-monotone h/c tables and -0.0 entries.

def reference_recursion(model):
    B, V = model.B, model.V
    J, delta, sigma = np.zeros((3, B + 1, V + 1))
    mu = np.zeros((B + 1, V + 1), dtype=int)
    for b in range(1, B + 1):
        hb = model.h_of(b)
        sig = 0.0
        for v in range(1, V + 1):
            obj = model.c - model.actions * (model.r_of(v) + sig)
            a = int(np.argmin(obj))
            d = hb + float(obj[a])
            delta[b, v] = d
            sig += d
            sigma[b, v] = sig
            mu[b, v] = a
        J[b, 1] = J[b - 1, V] + delta[b, 1]
        for v in range(2, V + 1):
            J[b, v] = J[b, v - 1] + delta[b, v]
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma,
                         solver_id="recursive", model=model)


def reference_report(sol):
    model, mu, B, V = sol.model, sol.mu, sol.B, sol.V
    in_b_witness = next((((b, v), (b + 1, v)) for v in range(1, V + 1)
                         for b in range(1, B) if mu[b + 1, v] < mu[b, v]), None)
    per_b, thm2 = {}, {}
    for b in range(1, B + 1):
        steps = [(v, mu[b, v + 1] - mu[b, v]) for v in range(1, V)]
        inc = next((v for v, d in steps if d > 0), None)
        dec = next((v for v, d in steps if d < 0), None)
        per_b[b] = (RowClass(Direction.CONSTANT) if inc is None and dec is None
                    else RowClass(Direction.NON_DECREASING) if dec is None
                    else RowClass(Direction.NON_INCREASING) if inc is None
                    else RowClass(Direction.MIXED, witness=((b, dec), (b, dec + 1))))
        pairs = [(sol.delta[b, v], -(model.r_of(v + 1) - model.r_of(v))) for v in range(1, V)]
        thm2[b] = (Guarantee.NON_DECREASING if all(not lhs < rhs for lhs, rhs in pairs)
                   else Guarantee.NON_INCREASING if all(not lhs > rhs for lhs, rhs in pairs)
                   else Guarantee.INCONCLUSIVE)
    thm3 = None
    if np.all(model.r == model.r[0]):
        thm3 = {b: check_constant_reward(model, b) for b in range(1, B + 1)}
    return MonotonicityReport(
        in_b_verdict="NonDecreasing" if in_b_witness is None else "Violated",
        in_b_witness=in_b_witness, per_b_in_v=per_b, theorem2_per_b=thm2,
        theorem3_per_b=thm3)


def reference_near_ties(sol, window):
    model, out = sol.model, []
    for b in range(1, sol.B + 1):
        for v in range(1, sol.V + 1):
            obj = model.c - model.actions * (model.r_of(v) + sol.sigma[b, v - 1])
            if np.sum(obj <= obj.min() + window) > 1:
                out.append((b, v))
    return out


def reference_boundaries(sol):
    mu = sol.mu
    def edge(p, q):
        return {"from": list(p), "to": list(q), "mu_from": int(mu[p]), "mu_to": int(mu[q])}
    return {"in_v": [edge((b, v), (b, v + 1)) for b in range(1, sol.B + 1)
                     for v in range(1, sol.V) if mu[b, v] != mu[b, v + 1]],
            "in_b": [edge((b, v), (b + 1, v)) for v in range(1, sol.V + 1)
                     for b in range(1, sol.B) if mu[b, v] != mu[b + 1, v]]}


_cost = st.one_of(st.integers(-3, 3).map(float), st.just(-0.0),
                  st.floats(-5.0, 5.0, allow_nan=False))
_actions = st.one_of(
    st.sets(st.integers(0, 8), min_size=1, max_size=5).map(lambda xs: [x / 8 for x in sorted(xs)]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(sorted))


@st.composite
def models(draw):
    B, V = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    actions = draw(_actions)
    r_entry = st.one_of(st.integers(1, 3).map(float), st.floats(0.125, 8.0))
    r = draw(st.one_of(st.lists(r_entry, min_size=V, max_size=V), r_entry.map(lambda x: [x] * V)))
    return table_model(B, V, actions, draw(st.lists(_cost, min_size=B, max_size=B)),
                       draw(st.lists(_cost, min_size=len(actions), max_size=len(actions))), r)


def reference_backward_pass(model, J, fixed=None):
    """The per-state pass the row kernel replaced: numpy action values at
    every state, grouped ((c + h) + s*(down - r)) + (1-s)*cont."""
    s = model.actions
    mu = np.zeros(J.shape, dtype=int)
    residual = 0.0
    for b in range(1, model.B + 1):
        for v in range(1, model.V + 1):
            down = J[b - 1, model.V]
            cont = J[b, v - 1] if v > 1 else down
            vals = model.c + model.h_of(b) + s * (down - model.r_of(v)) + (1.0 - s) * cont
            mu[b, v] = a = int(np.argmin(vals))
            new = float(vals[a if fixed is None else fixed[b, v]])
            residual = max(residual, abs(new - J[b, v]))
            J[b, v] = new
    return residual, mu


def backward_pass(model, J, fixed=None):
    """One in-place sweep of the solver's kernels: a greedy sweep, or one
    chain along ``fixed``.  Returns the sup-norm change of J and the greedy
    policy against the new J, as ``reference_backward_pass`` does."""
    old = J.copy()
    if fixed is None:
        _, mu = _greedy_sweep(model, J, np.zeros(J.shape, dtype=int))
    else:
        _fixed_chain(model, J, fixed)
        mu = _greedy_policy(model, J)
    return float(np.abs(J - old).max()), mu


def assert_passes_bitwise_equal(model, J0, fixed=None):
    """Two passes of each kernel from J0 (the second starts from a solved J,
    as in value iteration's sweep 2): J, mu and residual byte-equal."""
    J, ref_J = J0.copy(), J0.copy()
    for _ in range(2):
        residual, mu = backward_pass(model, J, fixed)
        ref_residual, ref_mu = reference_backward_pass(model, ref_J, fixed)
        assert J.tobytes() == ref_J.tobytes()
        assert mu.dtype == ref_mu.dtype and mu.tobytes() == ref_mu.tobytes()
        assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()


def assert_backups_reproduce(model, sol):
    """``bellman_backup`` against the solved J gives every state's J and mu."""
    for b in range(1, model.B + 1):
        for v in range(1, model.V + 1):
            value, a = bellman_backup(model, sol.J, b, v)
            assert np.float64(value).tobytes() == sol.J[b, v].tobytes(), (b, v)
            assert a == sol.mu[b, v], (b, v)


NEG_ZERO = table_model(2, 2, [0.0, 0.5], h=[-0.0, 1.0], c=[-0.0, 3.0], r=[1.0, 2.0])
# in-b violations at (1, 3) and (3, 2): scan order picks the witness
TWO_IN_B_DROPS = table_model(4, 4, [0.0, 0.5, 1.0], h=[0.0, -2.0, 3.0, -2.0],
                             c=[1.0, 2.0, 2.0], r=[2.0, 1.0, 3.0, 2.0])


class TestArrayKernelsMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(model=models())
    @example(model=table_model(1, 1, [0.5], h=[1.0], c=[2.0], r=[1.0]))
    @example(model=NEG_ZERO)
    @example(model=TWO_IN_B_DROPS)
    def test_bitwise_equal_to_per_state_loops(self, model):
        sol, ref = solve_recursive(model), reference_recursion(model)
        for name in ("J", "mu", "delta", "sigma"):
            assert getattr(sol, name).dtype == getattr(ref, name).dtype
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
        assert sol.to_csv() == reference_csv(ref)
        assert classify_policy(sol).to_json() == reference_report(ref).to_json()
        assert [check_delta_conditions(model, sol, b) for b in range(1, model.B + 1)] == \
            list(reference_report(ref).theorem2_per_b.values())
        for window in (1e-12, 0.5):
            assert near_tie_states(sol, window) == reference_near_ties(ref, window)
        assert json.dumps(_boundaries(sol)) == json.dumps(reference_boundaries(ref))

    @settings(max_examples=200, deadline=None)
    @given(model=models(), seed=st.integers(0, 2**32 - 1))
    @example(model=table_model(1, 1, [0.5], h=[1.0], c=[2.0], r=[1.0]), seed=0)
    @example(model=NEG_ZERO, seed=0)
    @example(model=TWO_IN_B_DROPS, seed=1)
    def test_backward_pass_bitwise_equal_to_per_state_pass(self, model, seed):
        rng = np.random.default_rng(seed)
        fixed = rng.integers(0, len(model.actions), size=(model.B + 1, model.V + 1))
        start = rng.normal(size=fixed.shape)  # padding and terminal entries too
        for J0 in (np.zeros(fixed.shape), start):
            assert_passes_bitwise_equal(model, J0)
            assert_passes_bitwise_equal(model, J0, fixed)
        assert_backups_reproduce(model, value_iteration(model))

    def test_backward_pass_at_benchmark_scale(self):
        rng = np.random.default_rng(83)
        model = random_model(rng, shape=(60, 40, 8))
        fixed = rng.integers(0, 8, size=(61, 41))
        assert_passes_bitwise_equal(model, np.zeros((61, 41)))
        assert_passes_bitwise_equal(model, np.zeros((61, 41)), fixed)
        assert_backups_reproduce(model, value_iteration(model))

    def test_negative_zero_increment_prints_zero(self):
        sol = solve_recursive(NEG_ZERO)
        assert str(sol.delta[1, 1]) == "-0.0"
        assert sol.to_csv().split("\n")[1] == "1,1,0.0,0,0.0,-0.0,0.0"

    @settings(max_examples=100, deadline=None)
    @given(model=models())
    def test_csv_round_trip_exact(self, model):
        sol = solve_recursive(model)
        back = solution_from_csv(sol.to_csv())
        for name in ("J", "mu", "delta", "sigma"):
            assert getattr(back, name).tobytes() == getattr(sol, name).tobytes(), name


def reference_csv(table):
    """The CSV text as to_csv wrote it with float repr: one f-string a state."""
    rows = [f"{b},{v},{table.J[b, v].item()!r},{a},{table.model.actions[a].item()!r},"
            f"{table.delta[b, v].item()!r},{table.sigma[b, v].item()!r}\n"
            for b in range(1, table.B + 1) for v in range(1, table.V + 1)
            for a in [int(table.mu[b, v])]]
    return "".join(["b,v,J,mu_index,mu_value,delta,sigma\n", *rows, f"0,{table.V},0,,,,\n"])


# Floats where repr and orjson may part: the ends of the range [1e-4, 1e16)
# where they write the same notation, orjson's own edge 1e-5, their
# neighbours, one- and two-digit exponents, subnormals, the range edges,
# integral values and ties.
REPR_EDGES = [0.0, -0.0, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16,
              np.nextafter(1e16, 0), 1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1),
              3.5e-5, 1.5e-7, 1e-9, 1e-10, 1.1673551e-10, 2.5e16, 1e22, 5e-324,
              2.2250738585072014e-308, sys.float_info.max, 2.0 ** 52 + 0.5, 1e15, 0.1, 1 / 3]


# to_csv formats its rows in blocks of csvio._BLOCK states (whole rows b).
class TestCsvSplitExport:
    @settings(max_examples=100, deadline=None)
    @given(model=models(), block=st.integers(1, 50))
    @example(model=table_model(1, 1, [0.5], h=[1.0], c=[2.0], r=[1.0]), block=1)
    @example(model=NEG_ZERO, block=3)
    def test_split_text_equals_in_process_text(self, model, block):
        sol = solve_recursive(model)
        with export_blocks(block):
            assert sol.to_csv() == reference_csv(sol)

    def test_split_from_the_constant_on(self):
        # one _repr_texts call per float column and block, however narrow the
        # rows: not one per row b
        for B, V, blocks in [(csvio._BLOCK, 1, 1), (csvio._BLOCK + 1, 1, 2),
                             (csvio._BLOCK // 2, 2, 1), (csvio._BLOCK // 2 + 1, 2, 2)]:
            sol = solve_recursive(random_model(np.random.default_rng(107), shape=(B, V, 2)))
            with export_blocks(csvio._BLOCK) as sizes:
                sol.to_csv()
            assert len(sizes) == 3 * blocks, (B, V)

    @settings(max_examples=500, deadline=None)
    @given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=20))
    @example(xs=REPR_EDGES + [-x for x in REPR_EDGES])
    @example(xs=[m * 10.0 ** e for m in (1.0, -2.5, 1 / 3) for e in range(-323, 308)])
    def test_repr_texts_are_repr(self, xs):
        assert csvio._repr_texts(np.array(xs, dtype=float)) == list(map(repr, map(float, xs)))


@pytest.mark.parametrize("first", ["decayq.csvio", "decayq.solver"])
def test_csv_module_imports_first_and_keeps_the_bindings(first):
    # the benchmark's tracer wraps SolutionTable.to_csv and
    # decayq.solver.solution_from_csv by these names
    code = (f"import {first}, decayq, decayq.csvio, decayq.solver; "
            "assert decayq.solver.solution_from_csv is decayq.solution_from_csv "
            "is decayq.csvio.solution_from_csv; "
            "assert 'to_csv' in vars(decayq.solver.SolutionTable)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)


def reference_value_iteration(model, tol):
    """All-greedy reference sweeps from J = 0 until the residual is at most tol."""
    J = np.zeros((model.B + 1, model.V + 1))
    for sweeps in range(1, model.B * model.V + 2):
        residual, mu = reference_backward_pass(model, J)
        if residual <= tol:
            return J, mu, sweeps
    raise AssertionError("reference value iteration did not converge")


def reference_policy_iteration(model):
    """Fixed-policy reference passes, each followed by its greedy argmin."""
    J = np.zeros((model.B + 1, model.V + 1))
    mu = np.zeros(J.shape, dtype=int)
    for iterations in range(1, 10 ** 6):
        _, improved = reference_backward_pass(model, J, mu)
        if np.array_equal(improved, mu):
            return J, mu, iterations
        mu = improved
    raise AssertionError("reference policy iteration did not terminate")


def assert_iterations_match_reference_loops(model, policy):
    sol, (J, mu, sweeps) = value_iteration(model), reference_value_iteration(model, 1e-9)
    assert (sol.J.tobytes(), sol.mu.tobytes(), sol.sweeps) == (J.tobytes(), mu.tobytes(), sweeps)
    sol, (J, mu, iterations) = policy_iteration(model), reference_policy_iteration(model)
    assert (sol.J.tobytes(), sol.mu.tobytes(), sol.sweeps) == (J.tobytes(), mu.tobytes(), iterations)
    J = np.zeros(policy.shape)
    reference_backward_pass(model, J, policy)
    assert evaluate_policy(model, PolicyTable(policy)).tobytes() == J.tobytes()


def reference_increments(J):
    """delta and sigma of a J table, one state at a time."""
    delta, sigma = np.zeros(J.shape), np.zeros(J.shape)
    for b in range(1, J.shape[0]):
        for v in range(1, J.shape[1]):
            delta[b, v] = J[b, v] - (J[b, v - 1] if v > 1 else J[b - 1, -1])
            sigma[b, v] = sigma[b, v - 1] + delta[b, v]
    return delta, sigma


def value_iteration_outputs(model):
    """J, mu, sweeps and CSV."""
    sol = value_iteration(model)
    return sol.J.tobytes(), sol.mu.tobytes(), sol.sweeps, sol.to_csv()


def reference_value_iteration_outputs(model):
    J, mu, sweeps = reference_value_iteration(model, 1e-9)
    delta, sigma = reference_increments(J)
    csv = reference_csv(SolutionTable(J, mu, delta, sigma, "reference", model))
    return J.tobytes(), mu.tobytes(), sweeps, csv


class TestIterationsFollowGreedyPolicy:
    @settings(max_examples=100, deadline=None)
    @given(model=models(), seed=st.integers(0, 2**32 - 1))
    @example(model=NEG_ZERO, seed=0)
    @example(model=TWO_IN_B_DROPS, seed=1)
    def test_bitwise_equal_to_reference_loops(self, model, seed):
        rng = np.random.default_rng(seed)
        policy = rng.integers(0, len(model.actions), size=(model.B + 1, model.V + 1))
        assert_iterations_match_reference_loops(model, policy)

    def test_bitwise_equal_to_reference_loops_at_benchmark_scale(self):
        rng = np.random.default_rng(89)
        model = random_model(rng, shape=(60, 40, 8))
        assert_iterations_match_reference_loops(model, rng.integers(0, 8, size=(61, 41)))

    def test_block_boundaries(self):
        # 2x3 with 2**15 actions: the greedy policy's state blocks split, two
        # states each, one of them across rows
        rng = np.random.default_rng(97)
        s = np.arange(2 ** 15) / 2 ** 15
        c = np.round(5.0 * s ** 2 + rng.uniform(0.0, 0.5, s.size), 1)  # ties on a 0.1 grid
        model = table_model(2, 3, s.tolist(), [1.0, 2.5], c.tolist(), [1.5, 2.0, 4.0])
        assert 1 < solver._BLOCK // len(model.actions) < min(model.V, model.B * model.V)
        fixed = rng.integers(0, len(model.actions), size=(model.B + 1, model.V + 1))
        for J0 in (np.zeros(fixed.shape), rng.normal(size=fixed.shape)):
            assert_passes_bitwise_equal(model, J0)
            assert_passes_bitwise_equal(model, J0, fixed)

    def test_fixed_chain_row_blocks(self):
        # 2**15 + 1 rows of V = 2: the fixed-policy chain's row blocks split
        rng = np.random.default_rng(103)
        model = random_model(rng, shape=(2 ** 15 + 1, 2, 2))
        assert 1 < solver._BLOCK // model.V < model.B
        fixed = rng.integers(0, 2, size=(model.B + 1, model.V + 1))
        assert_passes_bitwise_equal(model, rng.normal(size=fixed.shape), fixed)

    def test_iterations_take_no_per_state_minimum(self, monkeypatch):
        # A pass is one fixed-policy chain and, at 60x40x8, one argmin block
        # over _action_values.  Greedy minima taken per row or per state, by
        # Python's min over action values or by more _action_values calls,
        # would change a count.
        calls = {"chains": 0, "blocks": 0, "min": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        def min_of_iterable(*args, **kwargs):  # min(a, b) bounds a block
            calls["min"] += len(args) == 1
            return min(*args, **kwargs)

        monkeypatch.setattr(solver, "_fixed_chain", counted("chains", solver._fixed_chain))
        monkeypatch.setattr(solver, "_action_values", counted("blocks", solver._action_values))
        monkeypatch.setattr(solver, "min", min_of_iterable, raising=False)
        model = random_model(np.random.default_rng(101), shape=(60, 40, 8))
        sol = value_iteration(model)
        assert sol.sweeps == 2 and calls == {"chains": 1, "blocks": 1, "min": 0}
        calls.update(chains=0, blocks=0)
        sol = policy_iteration(model)
        assert sol.sweeps > 1 and calls == {"chains": sol.sweeps, "blocks": sol.sweeps, "min": 0}
        calls.update(chains=0, blocks=0)
        evaluate_policy(model, sol.policy())
        assert calls == {"chains": 1, "blocks": 0, "min": 0}

    @settings(max_examples=100, deadline=None)
    @given(model=models(), seed=st.integers(0, 2**32 - 1))
    @example(model=NEG_ZERO, seed=0)
    @example(model=TWO_IN_B_DROPS, seed=1)
    def test_start_policy_changes_no_output(self, model, seed):
        # value iteration's greedy sweep starts from solve_recursive's policy;
        # any other start must give the same bytes, and those of the reference
        expected = value_iteration_outputs(model)
        assert expected == reference_value_iteration_outputs(model)
        rng = np.random.default_rng(seed)
        shape = (model.B + 1, model.V + 1)
        for mu in (np.zeros(shape, dtype=int), rng.integers(0, len(model.actions), size=shape)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "solve_recursive", lambda m, mu=mu: SimpleNamespace(mu=mu))
                assert value_iteration_outputs(model) == expected

    @settings(max_examples=100, deadline=None)
    @given(model=models(), seed=st.integers(0, 2**32 - 1))
    @example(model=NEG_ZERO, seed=0)
    @example(model=TWO_IN_B_DROPS, seed=1)
    def test_greedy_sweep_ignores_its_start(self, model, seed):
        # in DAG order a greedy sweep reads only entries it has set: neither
        # the J it starts from (but the terminal J[0, V] = 0) nor the policy
        # it first follows changes its J or mu, only how many passes run
        rng = np.random.default_rng(seed)
        J = rng.normal(scale=100.0, size=(model.B + 1, model.V + 1))
        J[0, model.V] = 0.0
        policy = rng.integers(0, len(model.actions), size=J.shape)
        passes, mu = _greedy_sweep(model, J, policy)
        ref_J = np.zeros(J.shape)
        _, ref_mu = reference_backward_pass(model, ref_J)
        assert J[1:, 1:].tobytes() == ref_J[1:, 1:].tobytes()
        assert mu.tobytes() == ref_mu.tobytes()
        assert 1 <= passes <= model.B * model.V + 1
        # a sweep that returned certified its policy: rerun from its own
        # (J, mu), it takes one pass and leaves both as they were
        J_bytes = J.tobytes()
        passes, again = _greedy_sweep(model, J, mu)
        assert passes == 1 and (J.tobytes(), again.tobytes()) == (J_bytes, mu.tobytes())

    @settings(max_examples=200, deadline=None)
    @given(model=models())
    @example(model=NEG_ZERO)
    @example(model=TWO_IN_B_DROPS)
    def test_value_and_policy_iteration_agree_bitwise(self, model):
        vi, pi = value_iteration(model), policy_iteration(model)
        assert (vi.J.tobytes(), vi.mu.tobytes()) == (pi.J.tobytes(), pi.mu.tobytes())

    def test_value_iteration_memory_bounded_at_large_action_sets(self):
        # 1x2048x2048: per-state minima over a V x |S| row base peaked at 64 MiB
        model = random_model(np.random.default_rng(107), shape=(1, 2048, 2048))
        model.actions  # the cached float array, not the solver's memory
        tracemalloc.start()
        try:
            value_iteration(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
