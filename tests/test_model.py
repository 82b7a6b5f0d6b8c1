"""Config parsing, table materialization, assumption flags, and the package's
exports."""

import importlib
import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import decayq
from decayq import (
    ActionSet,
    ConfigError,
    CostSpec,
    ModelConfig,
    PolicyTable,
    ValidationError,
    bellman_backup,
    check_constant_reward,
    check_delta_conditions,
    load_config,
    materialize,
    mc_estimate,
    simulate_episode,
    solve_recursive,
    step,
    validate,
)

FIG1A_DOC = json.dumps({
    "B": 20, "V": 10, "actions": [0.1, 0.5, 0.9],
    "holding": {"kind": "linear", "params": [1]},
    "service_cost": {"kind": "log_barrier", "params": [5]},
    "reward": {"kind": "affine", "params": [1, 0]},
})


class TestLoadConfig:
    def test_fig1a_document(self):
        cfg = load_config(FIG1A_DOC)
        assert cfg.B == 20 and cfg.V == 10
        assert cfg.actions.values == (0.1, 0.5, 0.9)
        assert cfg.holding == CostSpec("linear", params=(1.0,))
        assert cfg.service_cost == CostSpec("log_barrier", params=(5.0,))
        assert cfg.reward == CostSpec("affine", params=(1.0, 0.0))

    def test_duplicate_actions_rejected(self):
        doc = json.loads(FIG1A_DOC)
        doc["actions"] = [0.5, 0.5]
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(json.dumps(doc))

    def test_action_one_with_log_barrier_fails_at_materialization(self):
        doc = json.loads(FIG1A_DOC)
        doc["actions"] = [1.0]
        cfg = load_config(json.dumps(doc))  # parsing itself is fine
        with pytest.raises(ValidationError, match="non-finite"):
            validate(cfg)

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            load_config("{not json")

    @pytest.mark.parametrize("actions, message", [
        ("[1" + "0" * 400 + "]", "actions must be an array of numbers"),  # beyond float
        ("[" + "1" * 5000 + "]", "malformed JSON"),  # beyond json's 4300-digit limit
    ])
    def test_oversized_integer_rejected(self, actions, message):
        with pytest.raises(ConfigError, match=message):
            load_config(FIG1A_DOC.replace("[0.1, 0.5, 0.9]", actions))

    def test_unknown_top_level_key(self):
        doc = json.loads(FIG1A_DOC)
        doc["discount"] = 0.9
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(json.dumps(doc))

    def test_missing_key(self):
        doc = json.loads(FIG1A_DOC)
        del doc["reward"]
        with pytest.raises(ConfigError, match="missing key"):
            load_config(json.dumps(doc))

    def test_unknown_nested_key(self):
        doc = json.loads(FIG1A_DOC)
        doc["holding"]["scale"] = 2
        with pytest.raises(ConfigError, match="holding"):
            load_config(json.dumps(doc))

    def test_nonpositive_B_rejected(self):
        doc = json.loads(FIG1A_DOC)
        doc["B"] = 0
        with pytest.raises(ConfigError, match="B"):
            load_config(json.dumps(doc))

    def test_action_outside_unit_interval(self):
        doc = json.loads(FIG1A_DOC)
        doc["actions"] = [0.1, 1.5]
        with pytest.raises(ConfigError, match="outside"):
            load_config(json.dumps(doc))

    @pytest.mark.parametrize("key, value, message", [
        ("actions", [], "^action set must be non-empty$"),
        ("holding", {"kind": "table", "values": []},
         "^table spec needs a non-empty values list$"),
    ], ids=["actions", "table_values"])
    def test_empty_list_rejected(self, key, value, message):
        doc = json.loads(FIG1A_DOC)
        doc[key] = value
        with pytest.raises(ConfigError, match=message):
            load_config(json.dumps(doc))

    @pytest.mark.parametrize("kind, params, values, message", [
        ("table", (1.0,), (1.0,), "^table spec takes no params$"),
        ("linear", (1.0,), (1.0,), "^parametric spec takes no values list$"),
    ], ids=["table_with_params", "linear_with_values"])
    def test_spec_with_the_other_kinds_list_rejected(self, kind, params, values, message):
        with pytest.raises(ConfigError, match=message):
            CostSpec(kind, params=params, values=values)


class TestSizeLimit:
    def config(self, B, V, n_actions):
        spec = CostSpec("constant", params=(1.0,))
        actions = ActionSet(tuple(np.linspace(0.1, 0.9, n_actions).tolist()))
        return ModelConfig(B=B, V=V, actions=actions, holding=spec,
                           service_cost=spec, reward=spec)

    def test_exactly_at_limit_accepted(self):
        assert self.config(2**12, 2**12, 1).B == 2**12  # B*V*|S| = 2**24

    @pytest.mark.parametrize("B, V, n_actions", [(2**12 + 1, 2**12, 1), (2**12, 2**12, 2)])
    def test_over_limit_rejected(self, B, V, n_actions):
        with pytest.raises(ConfigError, match="limit"):
            self.config(B, V, n_actions)

    @pytest.mark.parametrize("B, V, name", [(True, 2, "B"), (2, True, "V"),
                                            (False, 2, "B"), (2, 2.0, "V")])
    def test_bool_or_float_size_rejected(self, B, V, name):
        with pytest.raises(ConfigError, match=f"{name} must be a positive integer"):
            self.config(B, V, 1)


class TestMaterialize:
    def test_log_barrier_over_actions(self):
        actions = ActionSet((0.1, 0.5, 0.9))
        out = materialize(CostSpec("log_barrier", params=(5.0,)), actions.values)
        expected = [5 * math.log(10 / 9), 5 * math.log(2), 5 * math.log(10)]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_constant_over_value_domain(self):
        out = materialize(CostSpec("constant", params=(7.0,)), range(1, 5))
        assert list(out) == [7.0, 7.0, 7.0, 7.0]

    def test_log_over_value_domain(self):
        out = materialize(CostSpec("log", params=(5.0,)), range(1, 3))
        np.testing.assert_allclose(out, [5 * math.log(2), 5 * math.log(3)], rtol=1e-15)

    def test_table_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            materialize(CostSpec("table", values=(1.0, 2.0)), range(1, 4))

    def test_deterministic(self):
        spec = CostSpec("affine", params=(0.1, 25.0))
        a = materialize(spec, range(1, 11))
        b = materialize(spec, range(1, 11))
        assert a.tobytes() == b.tobytes()


class TestValidate:
    def _config(self, **overrides):
        doc = json.loads(FIG1A_DOC)
        doc.update(overrides)
        return load_config(json.dumps(doc))

    def test_fig1b_all_flags_true(self):
        cfg = self._config(actions=[0.6, 0.7, 0.8],
                           reward={"kind": "affine", "params": [0.1, 25]})
        m = validate(cfg)
        f = m.flags
        assert f.h_nondecreasing and f.c_nondecreasing and f.r_nondecreasing

    def test_decreasing_holding_table_flagged_not_rejected(self):
        cfg = self._config(B=3, holding={"kind": "table", "values": [3, 2, 1]})
        m = validate(cfg)
        assert not m.flags.h_nondecreasing
        assert m.flags.c_nondecreasing

    def test_zero_reward_rejected(self):
        cfg = self._config(reward={"kind": "constant", "params": [0]})
        with pytest.raises(ValidationError, match="strictly positive"):
            validate(cfg)

    def test_table_lengths(self):
        m = validate(load_config(FIG1A_DOC))
        assert len(m.h) == 20 and len(m.c) == 3 and len(m.r) == 10



class TestCostScale:
    def config(self, h, c=0.0, r=1.0):
        return ModelConfig(B=2, V=4, actions=ActionSet((0.5,)),
                           holding=CostSpec("constant", params=(h,)),
                           service_cost=CostSpec("constant", params=(c,)),
                           reward=CostSpec("constant", params=(r,)))

    def test_exactly_at_limit_accepted(self):
        # S = B*V*(|h| + |c| + |r|) = 8 * 2**494 = 2**497, whatever the signs of h and c
        assert validate(self.config(2.0**493, 2.0**492, 2.0**492)).B == 2
        assert validate(self.config(-(2.0**493), -(2.0**492), 2.0**492)).B == 2

    @pytest.mark.parametrize("h, c, r, scale", [
        (math.nextafter(2.0**494, math.inf), 0.0, 1.0, "4.09174e+149"),
        (2.0**494, 2.0**492, 2.0**492, "6.13761e+149"),
        (-(2.0**494), -(2.0**494), 1.0, "8.18348e+149"),
        (1e308, 1e308, 1.0, "inf"),
    ], ids=["one_ulp_over", "over", "negative_costs", "sum_overflows"])
    def test_over_limit_rejected(self, h, c, r, scale):
        with pytest.raises(ValidationError, match=rf"= {re.escape(scale)} exceeds the limit of "
                                                  r"4\.09174e\+149 \(2\*\*497\)"):
            validate(self.config(h, c, r))

@given(
    h=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8),
    c=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=4),
    r=st.lists(st.floats(0.001, 100, allow_nan=False), min_size=1, max_size=8),
)
def test_flags_match_reference_scan(h, c, r):
    """assumption_flags must agree with a direct pairwise scan of the tables."""
    k = len(c)
    actions = ActionSet(tuple(np.linspace(0.0, 0.9, k)))
    cfg = ModelConfig(
        B=len(h), V=len(r), actions=actions,
        holding=CostSpec("table", values=tuple(h)),
        service_cost=CostSpec("table", values=tuple(c)),
        reward=CostSpec("table", values=tuple(r)),
    )
    m = validate(cfg)
    assert m.flags.h_nondecreasing == all(a <= b for a, b in zip(h, h[1:]))
    assert m.flags.c_nondecreasing == all(a <= b for a, b in zip(c, c[1:]))
    assert m.flags.r_nondecreasing == all(a <= b for a, b in zip(r, r[1:]))


class TestIndexArguments:
    """A bool or a float is no state, row or action index: True is not 1."""

    @pytest.fixture(scope="class")
    def model(self):
        return validate(load_config(FIG1A_DOC))

    @pytest.mark.parametrize("call, message", [
        (lambda m: step(m, (True, True), 0, 0.5), "nonterminal"),
        (lambda m: step(m, (1, 1.0), 0, 0.5), "nonterminal"),
        (lambda m: simulate_episode(m, lowest(m), (True, True), 0), "nonterminal"),
        (lambda m: mc_estimate(m, lowest(m), (True, True), 10, 0), "nonterminal"),
        (lambda m: step(m, (1, 1), True, 0.5), "action index"),
        (lambda m: step(m, (1, 1), np.float64(1.0), 0.5), "action index"),
        (lambda m: bellman_backup(m, np.zeros((m.B + 1, m.V + 1)), True, True), "outside"),
        (lambda m: bellman_backup(m, np.zeros((m.B + 1, m.V + 1)), 1.0, 1), "outside"),
        (lambda m: check_delta_conditions(m, solve_recursive(m), True), "outside"),
        (lambda m: check_constant_reward(m, 1.0), "outside"),
        (lambda m: m.h_of(True), "outside"),
        (lambda m: m.c_of(0.0), "outside"),
        (lambda m: m.r_of(np.float64(1.0)), "outside"),
        (lambda m: m.c_of(-1), "outside"),  # used to wrap to the last action
        (lambda m: m.c_of(3), "outside"),
    ])
    def test_rejected(self, model, call, message):
        with pytest.raises(ValueError, match=message):
            call(model)

    def test_numpy_integers_accepted(self, model):
        assert model.h_of(np.int64(20)) == model.h[-1] and model.c_of(np.int32(0)) == model.c[0]


def lowest(model):
    return PolicyTable(np.zeros((model.B + 1, model.V + 1), dtype=int))


@pytest.mark.parametrize("name", ["model", "monotone", "presets", "sim", "solver"])
def test_package_exports_every_module_export(name):
    module = importlib.import_module(f"decayq.{name}")
    for export in module.__all__:
        assert getattr(decayq, export, None) is getattr(module, export), export


def test_all_lists_every_public_definition_and_the_package_nothing_else():
    exports = set()
    for name in ["model", "monotone", "presets", "sim", "solver"]:
        module = importlib.import_module(f"decayq.{name}")
        defined = {n for n, obj in vars(module).items()
                   if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert defined <= set(module.__all__), (name, defined - set(module.__all__))
        exports |= set(module.__all__)
    bound = {n for n, obj in vars(decayq).items()
             if not n.startswith("__") and not inspect.ismodule(obj)}
    assert bound == exports
