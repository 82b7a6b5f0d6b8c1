"""Metamorphic oracles: every solver against itself on a transformed model.

Power-of-two scaling.  Multiplying h, c and r by 2**k multiplies the result
of every float operation a solver makes by exactly 2**k, as long as each
value stays normal, and leaves every comparison as it was.  So J, delta and
sigma scale by exactly 2**k, while mu, the monotonicity report, the policy
boundaries and the near-tie states (with the window scaled too) stay equal.

The B-prefix.  In DAG order row b reads only rows below it, so the tables of
a model cut to its first B' jobs are rows 0..B' of the full model's tables.

Both relations hold bit for bit and need no reference implementation, so a
fault that every solver shares can still show.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, table_model
from decayq import (
    classify_policy,
    near_tie_states,
    policy_iteration,
    solve_recursive,
    validate,
    value_iteration,
)
from decayq.cli import _boundaries
from decayq.presets import preset_by_id
from test_golden import GOLDEN_SHA256, SOLVER_SHA256, _sha256

SOLVERS = {"recursive": solve_recursive, "vi": value_iteration, "pi": policy_iteration}
EXPONENTS = st.integers(-40, 39)
# a scaled window must stay normal: 2**-60 * 2**-40 is far above the subnormals
WINDOWS = st.one_of(st.sampled_from([0.0, 1e-12, 0.5]), st.floats(2.0 ** -60, 4.0))


@st.composite
def random_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_model(rng, constant_reward=draw(st.booleans()))


def scaled(model, k):
    """The model with h, c and r multiplied by 2**k."""
    h, c, r = (np.ldexp(t, k).tolist() for t in (model.h, model.c, model.r))
    return table_model(model.B, model.V, model.actions.tolist(), h, c, r)


def cut(model, B):
    """The model cut to its first B jobs."""
    return table_model(B, model.V, model.actions.tolist(), model.h[:B].tolist(),
                       model.c.tolist(), model.r.tolist())


def assert_scales(model, k, window):
    big = scaled(model, k)
    for name, solve in SOLVERS.items():
        a, b = solve(model), solve(big)
        for table in ("J", "delta", "sigma"):
            expected = np.ldexp(getattr(a, table), k)
            assert getattr(b, table).tobytes() == expected.tobytes(), (name, table)
        assert b.mu.tobytes() == a.mu.tobytes(), name
        if name != "vi":  # VI counts a second sweep when some |J| > 1e-9, an absolute bound
            assert b.sweeps == a.sweeps, name
        assert classify_policy(b).to_json() == classify_policy(a).to_json(), name
        assert _boundaries(b) == _boundaries(a), name
        assert near_tie_states(b, math.ldexp(window, k)) == near_tie_states(a, window), name


def assert_prefix(model):
    for name, solve in SOLVERS.items():
        full = solve(model)
        full_report, full_ties = classify_policy(full), near_tie_states(full)
        for B in range(1, model.B + 1):
            part = solve(cut(model, B))
            for table in ("J", "mu", "delta", "sigma"):
                assert getattr(part, table).tobytes() == getattr(full, table)[:B + 1].tobytes(), \
                    (name, B, table)
            report = classify_policy(part)
            for rows in ("per_b_in_v", "theorem2_per_b", "theorem3_per_b"):
                whole = getattr(full_report, rows)
                expected = None if whole is None else {b: x for b, x in whole.items() if b <= B}
                assert getattr(report, rows) == expected, (name, B, rows)
            assert near_tie_states(part) == [s for s in full_ties if s[0] <= B], (name, B)


def _mu_columns(csv):
    return [line.split(",")[3:5] for line in csv.splitlines()]


class TestPowerOfTwoScaling:
    @settings(max_examples=150, deadline=None)
    @given(model=random_models(), k=EXPONENTS, window=WINDOWS)
    def test_random_models(self, model, k, window):
        assert_scales(model, k, window)

    @settings(max_examples=20, deadline=None)
    @given(preset_id=st.sampled_from(["1a", "1b", "1c", "1d"]), k=EXPONENTS, window=WINDOWS)
    def test_presets_keep_their_pinned_artifacts(self, preset_id, k, window):
        model = validate(preset_by_id(preset_id).config)
        assert_scales(model, k, window)
        # the scaled preset writes the golden report and boundary files, and
        # every solver's CSV has the mu columns of its pinned CSV
        sol = solve_recursive(scaled(model, k))
        assert _sha256(classify_policy(sol).to_json() + "\n") == \
            GOLDEN_SHA256[f"{preset_id}_report.json"]
        assert _sha256(json.dumps(_boundaries(sol), indent=2) + "\n") == \
            GOLDEN_SHA256[f"{preset_id}_boundaries.json"]
        pins = {"recursive": GOLDEN_SHA256[f"{preset_id}_policy.csv"],
                "vi": SOLVER_SHA256[f"{preset_id}_vi.csv"],
                "pi": SOLVER_SHA256[f"{preset_id}_pi.csv"]}
        for name, solve in SOLVERS.items():
            pinned = solve(model).to_csv()
            assert _sha256(pinned) == pins[name]
            assert _mu_columns(solve(scaled(model, k)).to_csv()) == _mu_columns(pinned), name


class TestBPrefix:
    @settings(max_examples=100, deadline=None)
    @given(model=random_models())
    def test_random_models(self, model):
        assert_prefix(model)

    def test_presets(self):
        for preset_id in ("1a", "1b", "1c", "1d"):
            assert_prefix(validate(preset_by_id(preset_id).config))
