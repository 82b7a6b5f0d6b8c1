"""Monotonicity checkers: algebraic sufficient conditions, empirical
classification, and soundness of one against the other."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_model, table_model
from decayq import (
    Direction,
    Guarantee,
    check_constant_reward,
    check_delta_conditions,
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
        ("1a", "mixed_at_b5", "row b=5 classified NonDecreasing, expected Mixed"),
        ("1b", "all_nondecreasing", f"rows {list(range(1, 9))} not non-decreasing in v"),
    ], ids=["1a_as_all_nonincreasing", "1a_as_varies_with_b", "1a_as_mixed_at_b5",
            "1b_as_all_nondecreasing"])
    def test_wrong_regime_reported(self, preset_id, regime, message):
        preset = dataclasses.replace(preset_by_id(preset_id), in_v_regime=regime)
        assert check_regime(preset, classify_policy(fig_solution(preset_id))) == [message]

    @pytest.mark.parametrize("B, message", [
        (3, "row b=5 classified None, expected Mixed"),
        (5, "row b=5 classified Constant, expected Mixed"),
    ], ids=["no_row_5", "row_5_constant"])
    def test_mixed_at_b5_names_the_row_direction(self, B, message):
        # one action: every row is constant; with B < 5 there is no row 5 at all
        m = table_model(B, 2, [0.5], h=[1.0] * B, c=[0.5], r=[1.0, 2.0])
        failures = check_regime(preset_by_id("1d"), classify_policy(solve_recursive(m)))
        assert failures == [message]

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
                    lhs = sol.delta[b, v] + m.r[v] - m.r[v - 1]
                    rhs = (m.r[v] + sol.sigma[b, v]) - (m.r[v - 1] + sol.sigma[b, v - 1])
                    assert abs(lhs - rhs) < 1e-9
                    if abs(lhs) > 1e-9:
                        assert np.sign(lhs) == np.sign(rhs)

    def test_in_b_always_nondecreasing(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            m = random_model(rng)
            rep = classify_policy(solve_recursive(m))
            assert rep.in_b_verdict == "NonDecreasing", rep.in_b_witness


@st.composite
def grid_models(draw, sorted_h=False, constant_reward=False):
    """A model on a dyadic grid, on which the recursion's arithmetic is exact:
    h and c of either sign in quarters (h often tied), positive r in
    quarters, none of them monotone unless drawn so, and actions k/8 that
    always include 0 and 1.  ``sorted_h`` makes h non-decreasing."""
    B, V = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    actions = [k / 8 for k in sorted({0, 8} | draw(st.sets(st.integers(1, 7), max_size=3)))]
    quarters = st.integers(-12, 12).map(lambda m: m / 4)
    h = draw(st.lists(st.one_of(st.integers(-2, 2).map(float), quarters),
                      min_size=B, max_size=B))
    c = draw(st.lists(quarters, min_size=len(actions), max_size=len(actions)))
    r_entry = st.integers(1, 20).map(lambda m: m / 4)
    r = [draw(r_entry)] * V if constant_reward else draw(
        st.lists(r_entry, min_size=V, max_size=V))
    return table_model(B, V, actions, sorted(h) if sorted_h else h, c, r)


# each guarantee's allowed row directions, and its test on a step in v of
# g's argument x(v) = r(v) + sigma(b, v-1)
ALLOWED = {
    Guarantee.NON_DECREASING: ({Direction.NON_DECREASING, Direction.CONSTANT}, lambda d: d >= 0.0),
    Guarantee.NON_INCREASING: ({Direction.NON_INCREASING, Direction.CONSTANT}, lambda d: d <= 0.0),
    Guarantee.BOTH: ({Direction.CONSTANT}, lambda d: d == 0.0),
    Guarantee.INCONCLUSIVE: (set(Direction), lambda d: True),
}


class TestOperativeAssumptions:
    """Which standing assumption carries which verdict (README, "Which
    assumption carries which result").  The grid models break every flag but
    the one a property assumes, and the recursion is exact on them, so a
    verdict is the theorem's, exact ties included."""

    @settings(max_examples=300, deadline=None)
    @given(model=grid_models(sorted_h=True))
    # h tied, c and r not monotone, c of both signs; exact ties at (1, 2) and (2, 2)
    @example(model=table_model(3, 3, [0.0, 0.5, 1.0], h=[1.0, 1.0, 2.0],
                               c=[0.5, 1.0, -0.5], r=[2.0, 0.5, 1.5]))
    def test_in_b_needs_only_h_nondecreasing(self, model):
        assert model.flags.h_nondecreasing
        report = classify_policy(solve_recursive(model))
        assert report.in_b_verdict == "NonDecreasing", report.in_b_witness

    @staticmethod
    def assert_sound(model, verdicts):
        """Each row's direction, and each step in v of g's argument, are those
        the row's verdict allows."""
        sol = solve_recursive(model)
        report = classify_policy(sol)
        steps = np.diff(model.r + sol.sigma[1:, :-1], axis=1)
        for b, g in verdicts(report).items():
            directions, step_ok = ALLOWED[g]
            assert report.per_b_in_v[b].direction in directions, (b, g)
            assert all(step_ok(d) for d in steps[b - 1].tolist()), (b, g)

    @settings(max_examples=300, deadline=None)
    @given(model=grid_models())
    def test_theorem2_sound_with_no_flag(self, model):
        self.assert_sound(model, lambda report: report.theorem2_per_b)

    @settings(max_examples=300, deadline=None)
    @given(model=grid_models(constant_reward=True))
    def test_theorem3_sound_with_no_flag(self, model):
        self.assert_sound(model, lambda report: report.theorem3_per_b)
