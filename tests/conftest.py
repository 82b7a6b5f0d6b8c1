"""Shared helpers: randomized model generation, the brute-force oracle and
a chosen block size for the CSV export."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest

from decayq import ActionSet, CostSpec, ModelConfig, ValidatedModel, csvio, validate


def table_model(B, V, actions, h, c, r) -> ValidatedModel:
    """Build a ValidatedModel from explicit tables."""
    return validate(ModelConfig(
        B=B,
        V=V,
        actions=ActionSet(tuple(actions)),
        holding=CostSpec("table", values=tuple(h)),
        service_cost=CostSpec("table", values=tuple(c)),
        reward=CostSpec("table", values=tuple(r)),
    ))


def random_model(rng: np.random.Generator, max_B=6, max_V=6, max_actions=4,
                 constant_reward=False, shape=None) -> ValidatedModel:
    """Random instance with non-decreasing h/c/r tables and r > 0; ``shape``
    fixes (B, V, |S|) instead of drawing them up to the maxima."""
    if shape is None:
        B = int(rng.integers(1, max_B + 1))
        V = int(rng.integers(1, max_V + 1))
        k = int(rng.integers(1, max_actions + 1))
    else:
        B, V, k = shape
    actions = np.sort(rng.uniform(0.0, 1.0, size=k))
    while len(np.unique(actions)) < k:
        actions = np.sort(rng.uniform(0.0, 1.0, size=k))
    h = np.cumsum(rng.uniform(0.0, 2.0, size=B))
    c = np.cumsum(rng.uniform(0.0, 2.0, size=k))
    if constant_reward:
        r = np.full(V, rng.uniform(0.1, 8.0))
    else:
        r = rng.uniform(0.1, 3.0) + np.cumsum(rng.uniform(0.0, 2.0, size=V))
    return table_model(B, V, actions, h, c, r)


def brute_force_policy_value(model: ValidatedModel, assignment: dict) -> float:
    """Exact expected cost from (B, V) under one stationary policy.

    Plain memoized recursion on the Bellman recurrence for a fixed policy;
    written independently of the solver module.
    """
    memo = {(0, model.V): 0.0}

    def value(b, v):
        if (b, v) in memo:
            return memo[(b, v)]
        a = assignment[(b, v)]
        s = float(model.actions[a])
        down = value(b - 1, model.V)
        cont = value(b, v - 1) if v > 1 else down
        out = (model.c_of(a) + model.h_of(b)
               + s * (down - model.r_of(v)) + (1.0 - s) * cont)
        memo[(b, v)] = out
        return out

    return value(model.B, model.V)


def brute_force_optimal(model: ValidatedModel) -> float:
    """Minimal J(B, V) over every stationary policy, by full enumeration."""
    states = [(b, v) for b in range(1, model.B + 1) for v in range(1, model.V + 1)]
    k = len(model.actions)
    best = np.inf
    for choice in itertools.product(range(k), repeat=len(states)):
        assignment = dict(zip(states, choice))
        best = min(best, brute_force_policy_value(model, assignment))
    return best


@contextlib.contextmanager
def export_blocks(states):
    """``to_csv`` formats blocks of ``states`` states (whole rows b, one at
    the least); yields the sizes of the float columns it formats, one entry
    a column of a block."""
    sizes, texts = [], csvio._repr_texts

    def counted(block):
        sizes.append(block.size)
        return texts(block)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_BLOCK", states)
        mp.setattr(csvio, "_repr_texts", counted)
        yield sizes
