"""Property tests on outside input: config JSON, exported CSV and the CLI.

Whatever the bytes, a config is either a model or a ConfigError, a CSV
body is either a solution or a ValueError, and the CLI exits 0 or 1
without a traceback; an accepted model's costs are small enough that
nothing computed from them overflows.  Accepted models stay
small: B, V <= 30 and at most 5 actions, so every example runs in
milliseconds.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import table_model
from decayq import (
    ConfigError,
    load_config,
    mc_estimate,
    policy_iteration,
    solution_from_csv,
    solve_recursive,
    validate,
    value_iteration,
)
from decayq.cli import main

# The schema as README gives it: each parametric kind and its parameter count.
N_PARAMS = {"linear": 1, "affine": 2, "constant": 1, "log_barrier": 1, "log": 1}
KINDS = ["table", *N_PARAMS]

# Integers are either small or above the 2**24 size limit, so a B or V taken
# from them is either at most 30 or rejected.
NUMBERS = st.one_of(
    st.integers(-3, 30),
    st.integers(min_value=2**24 + 1),
    st.sampled_from([10**400, -(10**400), 2**63, 1e308, -1e308, 5e-324, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(NUMBERS, max_size=5), st.dictionaries(st.text(max_size=3), NUMBERS, max_size=2),
)


@st.composite
def config_docs(draw):
    """A config document, mostly valid before up to three random edits, each
    of which deletes a key, adds one or replaces a value."""
    B, V = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    values = st.one_of(st.integers(1, 30), st.floats(1e-3, 1e3), NUMBERS)
    actions = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))))

    def spec(size):
        kind = draw(st.sampled_from(KINDS))
        if kind == "table":
            return {"kind": kind, "values": draw(st.lists(values, min_size=size, max_size=size))}
        count = N_PARAMS[kind]
        return {"kind": kind, "params": draw(st.lists(values, min_size=count, max_size=count))}

    doc = {"B": B, "V": V, "actions": actions, "holding": spec(B),
           "service_cost": spec(len(actions)), "reward": spec(V)}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([doc] + [x for x in doc.values() if isinstance(x, dict)]))
        key = draw(st.sampled_from(sorted(target) + ["kind", "extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(st.one_of(NUMBERS, JUNK, st.sampled_from(KINDS)))
    return doc


@st.composite
def mutated_bytes(draw, text: str) -> bytes:
    """``text`` encoded, then truncated, or with bytes deleted or replaced.  No
    digit is ever written, so no number in the text grows."""
    data = bytearray(text.encode())
    alphabet = st.sampled_from(b'[]{},:" -.eEtfnuINa\\\x00\x80\xc3\xff')
    for _ in range(draw(st.integers(1, 4))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(["truncate", "delete", "replace"]))
        if how == "truncate":
            del data[i:]
        elif how == "delete":
            del data[i]
        else:
            data[i] = draw(alphabet)
    return bytes(data)


def config_texts():
    json_values = st.recursive(
        st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=10,
    )
    docs = config_docs().map(json.dumps)
    return st.one_of(
        docs,
        json_values.map(json.dumps),
        docs.flatmap(mutated_bytes).map(lambda b: b.decode("utf-8", "replace")),
        st.text(max_size=20),
    )


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_config_input_raises_only_config_errors(text):
    try:
        model = validate(load_config(text))
    except ConfigError:
        return
    assert model.B <= 30 and model.V <= 30 and len(model.actions) <= 5


@settings(max_examples=100, deadline=None)
@given(data=st.data(), to_the_limit=st.booleans())
def test_accepted_costs_keep_every_number_finite(data, to_the_limit):
    """Cost magnitudes log-uniform from 1e-300 to past the cost-scale bound, or
    scaled up to it: an accepted model gives finite numbers without a float
    warning from every solver, the CSV round trip and Monte Carlo."""
    B, V = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    actions = sorted(set(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))))

    def table(size, signs):
        return [data.draw(st.sampled_from(signs)) * 10.0 ** data.draw(st.floats(-300, 152))
                for _ in range(size)]

    h, c, r = table(B, (-1.0, 1.0)), table(len(actions), (-1.0, 1.0)), table(V, (1.0,))
    check_costs_keep_every_number_finite(B, V, actions, h, c, r, to_the_limit)


def test_tiny_costs_scaled_to_the_limit_stay_finite():
    # 2**497 / S overflows for this S = 2.1e-159, so the scaling never forms it
    check_costs_keep_every_number_finite(1, 1, [0.0], [-1e-159], [-1e-159], [1e-160], True)


def check_costs_keep_every_number_finite(B, V, actions, h, c, r, to_the_limit):
    if to_the_limit:
        frac, e = math.frexp(B * V * (max(map(abs, h)) + max(map(abs, c)) + max(r)))
        h, c, r = ([math.ldexp(x / frac, 497 - e) * (1 - 1e-12) for x in t] for t in (h, c, r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = table_model(B, V, actions, h, c, r)
        except ConfigError:
            assert not to_the_limit
            return
        solutions = [solve(m) for solve in (solve_recursive, value_iteration, policy_iteration)]
        for sol in solutions:
            assert np.isfinite([sol.J, sol.delta, sol.sigma]).all()
        solution_from_csv(solutions[0].to_csv())
        est = mc_estimate(m, solutions[0].policy(), (B, V), 200, seed=1)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)


SMALL_CSV = solve_recursive(table_model(
    2, 3, [0.3, 0.7], h=[1.0, 2.0], c=[0.5, 1.5], r=[1.0, 2.0, 3.0])).to_csv()
FIELDS = st.sampled_from(["", "0", "1", "2", "3", "-1", "nan", "inf", "-inf", "1e999", "abc",
                          " 1", "1_0", "0.3", "0.30", "٣", str(10**30), "9" * 5000])


@st.composite
def mutated_csvs(draw):
    """The 2x3 export with up to four lines dropped, duplicated or swapped or
    fields replaced, then possibly mutated byte by byte."""
    lines = SMALL_CSV.strip().split("\n")
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "duplicate", "swap", "field"]))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELDS)
            lines[i] = ",".join(fields)
        if not lines:
            break
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = draw(mutated_bytes(text)).decode("utf-8", "replace")
    return text


@settings(max_examples=300, deadline=None)
@given(text=mutated_csvs())
def test_csv_input_raises_only_value_errors(text):
    try:
        solution = solution_from_csv(text)
    except ValueError:
        return
    for table in (solution.J, solution.delta, solution.sigma):
        assert np.isfinite(table).all()


COMMANDS = st.sampled_from([
    ["check"],
    ["solve", "--solver", "recursive"],
    ["solve", "--solver", "vi"],
    ["solve", "--solver", "pi"],
    ["simulate", "--n", "20", "--seed", "3"],
])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=COMMANDS, data=st.one_of(
    config_docs().map(lambda doc: json.dumps(doc).encode()),
    config_docs().map(json.dumps).flatmap(mutated_bytes),
))
def test_cli_exits_zero_or_one_without_traceback(tmp_path, command, data):
    config = tmp_path / "config.json"
    config.write_bytes(data)
    argv = [command[0], "--config", str(config), *command[1:]]
    if command[0] == "solve":
        argv += ["--out", str(tmp_path / "solution.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    # check exits 1, with no error line, when the policy is not monotone in b
    assert code == 0 or command[0] == "check" or err.getvalue().startswith("error: ")
