"""Monotonicity checkers: algebraic sufficient conditions, empirical
classification, and soundness of one against the other."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import random_model, table_model
from decayq import (
    Direction,
    Guarantee,
    check_constant_reward,
    check_delta_conditions,
    check_submodular,
    classify_policy,
    solution_from_csv,
    solve_recursive,
    validate,
)
from decayq.presets import check_regime, preset_by_id


def fig_solution(preset_id):
    return solve_recursive(validate(preset_by_id(preset_id).config))


class TestDeltaConditions:
    def test_V_equals_1_vacuous(self):
        m = table_model(2, 1, [0.3], h=[1.0, 2.0], c=[0.5], r=[1.0])
        sol = solve_recursive(m)
        assert check_delta_conditions(m, sol, 1) is Guarantee.NON_DECREASING

    def test_two_state_instance(self):
        m = table_model(1, 2, [0.0, 1.0], h=[0.0], c=[0.0, 1.0], r=[1.0, 3.0])
        sol = solve_recursive(m)
        # delta(1,1) = 0 >= -(3 - 1) = -2
        assert check_delta_conditions(m, sol, 1) is Guarantee.NON_DECREASING
        assert sol.mu[1, 1] <= sol.mu[1, 2]

    def test_fig1d_row5_inconclusive(self):
        sol = fig_solution("1d")
        assert check_delta_conditions(sol.model, sol, 5) is Guarantee.INCONCLUSIVE

    @pytest.mark.parametrize("b", [0, -1, 3])
    def test_row_outside_1_to_B_rejected(self, b):
        m = table_model(2, 2, [0.3], h=[1.0, 2.0], c=[0.5], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="outside"):
            check_delta_conditions(m, solve_recursive(m), b)


class TestConstantReward:
    def test_positive_q(self):
        m = table_model(2, 3, [0.0, 1.0], h=[1.0, 1.0], c=[0.0, 0.0],
                        r=[0.5, 0.5, 0.5])
        # q = 1 + min{0, -0.5} = 0.5 > 0
        assert check_constant_reward(m, 1) is Guarantee.NON_DECREASING

    def test_negative_q(self):
        m = table_model(2, 3, [0.0, 1.0], h=[0.0, 0.0], c=[0.0, 0.0],
                        r=[2.0, 2.0, 2.0])
        # q = -rbar < 0: the server tries harder as the value decays
        assert check_constant_reward(m, 1) is Guarantee.NON_INCREASING

    def test_zero_q_is_both_and_policy_constant(self):
        # c(s) = s*rbar makes q = 0 exactly
        m = table_model(2, 4, [0.3, 0.6], h=[0.0, 0.0], c=[0.6, 1.2],
                        r=[2.0, 2.0, 2.0, 2.0])
        for b in (1, 2):
            assert check_constant_reward(m, b) is Guarantee.BOTH
        sol = solve_recursive(m)
        for b in (1, 2):
            assert len(set(sol.mu[b, 1:])) == 1

    def test_nonconstant_reward_rejected(self):
        m = table_model(1, 2, [0.5], h=[1.0], c=[0.5], r=[1.0, 2.0])
        with pytest.raises(ValueError, match="constant"):
            check_constant_reward(m, 1)

    @pytest.mark.parametrize("b", [0, -1, 3])
    def test_row_outside_1_to_B_rejected(self, b):
        m = table_model(2, 2, [0.5], h=[1.0, 2.0], c=[0.5], r=[1.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            check_constant_reward(m, b)


class TestClassifyPolicy:
    def test_fig1b_all_rows_nonincreasing(self):
        rep = classify_policy(fig_solution("1b"))
        assert rep.in_b_verdict == "NonDecreasing"
        dirs = [rc.direction for rc in rep.per_b_in_v.values()]
        # constant rows count as non-increasing
        assert all(d in (Direction.NON_INCREASING, Direction.CONSTANT) for d in dirs)
        assert Direction.NON_INCREASING in dirs

    def test_singleton_action_all_constant(self):
        m = table_model(3, 3, [0.5], h=[1.0, 2.0, 3.0], c=[0.5], r=[1.0, 2.0, 3.0])
        rep = classify_policy(solve_recursive(m))
        assert rep.in_b_verdict == "NonDecreasing"
        assert all(rc.direction is Direction.CONSTANT for rc in rep.per_b_in_v.values())

    def test_fig1c_directions_vary_with_b(self):
        rep = classify_policy(fig_solution("1c"))
        assert rep.in_b_verdict == "NonDecreasing"
        dirs = {rc.direction for rc in rep.per_b_in_v.values()}
        assert Direction.NON_DECREASING in dirs
        assert Direction.NON_INCREASING in dirs

    def test_fig1d_mixed_row_has_witness(self):
        rep = classify_policy(fig_solution("1d"))
        rc = rep.per_b_in_v[5]
        assert rc.direction is Direction.MIXED
        (b1, v1), (b2, v2) = rc.witness
        assert b1 == b2 == 5 and v2 == v1 + 1

    def test_json_export_schema(self):
        doc = json.loads(classify_policy(fig_solution("1d")).to_json())
        assert set(doc) == {"in_b_verdict", "in_b_witness", "per_b_in_v",
                            "theorem2_per_b", "theorem3_per_b"}
        assert doc["in_b_verdict"] == "NonDecreasing"
        assert doc["theorem3_per_b"] is None  # reward not constant
        wit = doc["per_b_in_v"]["5"]["witness"]
        assert isinstance(wit, list) and len(wit) == 2 and len(wit[0]) == 2

    def test_imported_table_rejected(self):
        back = solution_from_csv(fig_solution("1a").to_csv())
        with pytest.raises(ValueError, match="^solution carries no model$"):
            classify_policy(back)


class TestCheckRegime:
    @pytest.mark.parametrize("preset_id, regime, message", [
        ("1a", "all_nonincreasing", f"rows {list(range(1, 21))} not non-increasing in v"),
        ("1a", "varies_with_b",
         "expected both strictly non-decreasing and non-increasing rows across b"),
        ("1a", "mixed_at_b5", "row b=5 classified Direction.NON_DECREASING, expected Mixed"),
        ("1b", "all_nondecreasing", f"rows {list(range(1, 9))} not non-decreasing in v"),
    ], ids=["1a_as_all_nonincreasing", "1a_as_varies_with_b", "1a_as_mixed_at_b5",
            "1b_as_all_nondecreasing"])
    def test_wrong_regime_reported(self, preset_id, regime, message):
        preset = dataclasses.replace(preset_by_id(preset_id), in_v_regime=regime)
        assert check_regime(preset, classify_policy(fig_solution(preset_id))) == [message]

    def test_unknown_regime_rejected(self):
        preset = dataclasses.replace(preset_by_id("1a"), in_v_regime="sideways")
        with pytest.raises(ValueError, match="^unknown regime 'sideways'$"):
            check_regime(preset, classify_policy(fig_solution("1a")))

    def test_in_b_violation_reported(self):
        # decreasing h: mu drops in b twice, at (3, 2) -> (4, 2) first
        m = table_model(4, 4, [0.0, 0.5, 1.0], h=[0.0, -2.0, 3.0, -2.0],
                        c=[1.0, 2.0, 2.0], r=[2.0, 1.0, 3.0, 2.0])
        failures = check_regime(preset_by_id("1a"), classify_policy(solve_recursive(m)))
        assert failures[0] == "in-b verdict Violated, expected NonDecreasing"


class TestSubmodularity:
    def test_random_models_pass(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            m = random_model(rng)
            grid = list(rng.uniform(-30, 30, size=16))
            res = check_submodular(m, grid)
            assert res.passed

    def test_singleton_vacuous(self):
        m = table_model(1, 1, [0.5], h=[1.0], c=[0.5], r=[1.0])
        res = check_submodular(m, [-1.0, 0.0, 1.0])
        assert res.passed and res.worst_margin == 0.0

    def test_extreme_pair_margin(self):
        m = table_model(1, 1, [0.0, 1.0], h=[0.0], c=[0.0, 0.0], r=[1.0])
        res = check_submodular(m, [-1.0, 1.0])
        assert res.passed and res.worst_margin == -2.0

    @pytest.mark.parametrize("grid", [[0.0, float("inf")], [float("nan"), 1.0], [-float("inf")]])
    def test_non_finite_grid_rejected(self, grid):
        m = table_model(1, 1, [0.0, 1.0], h=[0.0], c=[0.0, 0.0], r=[1.0])
        with pytest.raises(ValueError, match="finite"):
            check_submodular(m, grid)

    def test_empty_grid_rejected(self):
        m = table_model(1, 1, [0.0, 1.0], h=[0.0], c=[0.0, 0.0], r=[1.0])
        with pytest.raises(ValueError, match="^x_grid must be non-empty$"):
            check_submodular(m, [])

    def test_passed_is_a_python_bool(self):
        m = table_model(1, 1, [0.0, 1.0], h=[0.0], c=[0.0, 0.0], r=[1.0])
        assert type(check_submodular(m, [-1.0, 1.0]).passed) is bool

    def test_margin_is_closed_form(self):
        # difference must equal (s+ - s-)(x- - x+) to machine precision
        rng = np.random.default_rng(67)
        for _ in range(50):
            s_lo, s_hi = np.sort(rng.uniform(0, 1, size=2))
            x_lo, x_hi = np.sort(rng.uniform(-10, 10, size=2))
            c_lo, c_hi = rng.uniform(0, 5, size=2)
            lhs = (c_hi - s_hi * x_hi) + (c_lo - s_lo * x_lo)
            rhs = (c_hi - s_hi * x_lo) + (c_lo - s_lo * x_hi)
            assert abs((lhs - rhs) - (s_hi - s_lo) * (x_lo - x_hi)) < 1e-12


class TestCheckerSoundness:
    def _ok(self, guarantee, direction):
        if guarantee is Guarantee.NON_DECREASING:
            return direction in (Direction.NON_DECREASING, Direction.CONSTANT)
        if guarantee in (Guarantee.NON_INCREASING, Guarantee.BOTH):
            return direction in (Direction.NON_INCREASING, Direction.CONSTANT) \
                if guarantee is Guarantee.NON_INCREASING else direction is Direction.CONSTANT
        return True

    def test_delta_condition_soundness_randomized(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            m = random_model(rng)
            sol = solve_recursive(m)
            rep = classify_policy(sol)
            for b, g in rep.theorem2_per_b.items():
                assert self._ok(g, rep.per_b_in_v[b].direction), (b, g)

    def test_constant_reward_soundness_and_sigma_direction(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            m = random_model(rng, constant_reward=True)
            sol = solve_recursive(m)
            rep = classify_policy(sol)
            assert rep.theorem3_per_b is not None
            for b, g in rep.theorem3_per_b.items():
                d = rep.per_b_in_v[b].direction
                sig = sol.sigma[b, 1:]
                if g is Guarantee.NON_DECREASING:
                    assert d in (Direction.NON_DECREASING, Direction.CONSTANT)
                    assert np.all(np.diff(sig) >= -1e-12)
                elif g is Guarantee.NON_INCREASING:
                    assert d in (Direction.NON_INCREASING, Direction.CONSTANT)
                    assert np.all(np.diff(sig) <= 1e-12)
                else:  # q == 0: both inequalities hold, policy constant in v
                    assert d is Direction.CONSTANT

    def test_delta_condition_route_equivalence(self):
        # delta(b,v) + r(v+1) - r(v) and [r(v+1)+sigma(b,v)] - [r(v)+sigma(b,v-1)]
        # are the same quantity computed two ways; their signs must agree.
        rng = np.random.default_rng(79)
        for _ in range(40):
            m = random_model(rng)
            sol = solve_recursive(m)
            for b in range(1, m.B + 1):
                for v in range(1, m.V):
                    lhs = sol.delta[b, v] + m.r_of(v + 1) - m.r_of(v)
                    rhs = (m.r_of(v + 1) + sol.sigma[b, v]) - (m.r_of(v) + sol.sigma[b, v - 1])
                    assert abs(lhs - rhs) < 1e-9
                    if abs(lhs) > 1e-9:
                        assert np.sign(lhs) == np.sign(rhs)

    def test_in_b_always_nondecreasing(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            m = random_model(rng)
            rep = classify_policy(solve_recursive(m))
            assert rep.in_b_verdict == "NonDecreasing", rep.in_b_witness
