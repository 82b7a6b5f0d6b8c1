"""In-memory span tracer that wraps decayq's public functions from outside.

The benchmark never edits the package: it replaces module and class
attributes with timing wrappers for the duration of a traced round and puts
the originals back afterwards.  A span records (name, parent, start, end);
a layer's self time is its span's duration minus the durations of its
direct children.

``decayq.cli`` binds the names it calls at import time (``from .solver
import solve_recursive``), so the wrappers are installed on ``decayq.cli``
itself; ``to_csv`` is a method and is wrapped on ``SolutionTable``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np


def _states(model) -> int:
    return model.B * model.V


def _count_solve_recursive(counts, result, model):
    counts["solver.solve_recursive.evals"] += _states(model) * len(model.actions)


def _count_value_iteration(counts, result, model, *args, **kwargs):
    # every sweep backs up all B*V states, then one more pass extracts mu;
    # the sweep order is a DAG order, so only the first sweep's backups are
    # needed for the exact answer
    counts["solver.value_iteration.sweeps"] += result.sweeps
    counts["solver.value_iteration.backups"] += (result.sweeps + 1) * _states(model)
    counts["solver.value_iteration.exact_backups"] += _states(model)


def _count_policy_iteration(counts, result, model):
    # one greedy improvement backup per state per iteration
    counts["solver.policy_iteration.iterations"] += result.sweeps
    counts["solver.policy_iteration.backups"] += result.sweeps * _states(model)


def _count_to_csv(counts, result, solution):
    counts["solver.to_csv.bytes"] += len(result)  # the CSV is pure ASCII


def _count_write(counts, result, path, data):
    counts["cli.bytes_written"] += len(data)  # CSV and ensure_ascii JSON


def _count_mc_estimate(counts, result, model, policy, initial, n, seed):
    counts["sim.noise_bytes"] += 8 * n * _states(model)
    counts.episodes.append((model, policy.action_index, initial))


def expected_slots(model, mu: np.ndarray, initial: tuple[int, int]) -> float:
    """Expected episode length from ``initial`` under the policy ``mu``.

    E(0, V) = 0 and E(b, v) = 1 + s E(b-1, V) + (1-s) E(b, v-1), where a
    failure at v = 1 ejects the job to (b-1, V).  Written independently of
    the simulator; ``mc_estimate`` draws B*V uniforms per episode of which
    only this many are read on average.
    """
    B, V = initial[0], model.V
    actions = model.actions
    E = np.zeros((B + 1, V + 1))
    for b in range(1, B + 1):
        down = E[b - 1, V]
        for v in range(1, V + 1):
            s = float(actions[int(mu[b, v])])
            cont = E[b, v - 1] if v > 1 else down
            E[b, v] = 1.0 + s * down + (1.0 - s) * cont
    return float(E[initial[0], initial[1]])


def layer_targets():
    """(owner, attribute, span name or None, counter) for every wrapped call.

    A span name of None counts without a span, so the time stays with the
    caller: ``_write_atomic`` is part of the CLI's own work.
    """
    import decayq.cli as cli
    import decayq.solver as solver

    return [
        (cli, "load_config", "model.load_config", None),
        (cli, "validate", "model.validate", None),
        (cli, "solve_recursive", "solver.solve_recursive", _count_solve_recursive),
        (cli, "value_iteration", "solver.value_iteration", _count_value_iteration),
        (cli, "policy_iteration", "solver.policy_iteration", _count_policy_iteration),
        (cli, "classify_policy", "monotone.classify_policy", None),
        (cli, "mc_estimate", "sim.mc_estimate", _count_mc_estimate),
        (cli, "_write_atomic", None, _count_write),
        (solver.SolutionTable, "to_csv", "solver.to_csv", _count_to_csv),
        (solver, "solution_from_csv", "solver.solution_from_csv", None),
        (solver, "near_tie_states", "solver.near_tie_states", None),
    ]


class Counts(defaultdict):
    """Exact counters by name, plus the (model, mu, initial) of each Monte
    Carlo call, whose expected length is computed after the round."""

    def __init__(self):
        super().__init__(float)
        self.episodes: list[tuple[object, np.ndarray, tuple[int, int]]] = []

    def noise_useful_ratio(self) -> float:
        """Mean over Monte Carlo calls of expected slots read / B*V drawn."""
        if not self.episodes:
            return 0.0
        return sum(expected_slots(m, mu, init) / _states(m)
                   for m, mu, init in self.episodes) / len(self.episodes)


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self, targets=None):
        self.targets = layer_targets() if targets is None else targets
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts = Counts()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, count in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end)

    def _wrap(self, original, name, count):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = self.call(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result
        return wrapper

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)
