"""Seeded Monte Carlo simulation of the exact queue dynamics.

One time slot: in state (b, v) with chosen service probability s and
uniform noise w, the job completes when w <= s (moving to (b-1, V) and
collecting r(v)); otherwise the value decays to v-1, or the job is ejected
to (b-1, V) when it was already at v = 1.  The stage cost is
h(b) + c(s) - r(v)*[completed].  Every episode ends in the trapping state
(0, V) within B*V slots.

Randomness is numpy's PCG64 (stable across platforms).  ``simulate_episode``
draws its noise sequentially from ``default_rng(seed)``.  ``mc_estimate``
derives per-episode noise from the single stream ``default_rng(seed)`` by
fixed block partition: episode i consumes stream positions
[i*B*V, (i+1)*B*V).  The derivation depends only on (seed, episode index),
so results are independent of execution order and bit-exactly replayable.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import ValidatedModel
from .solver import PolicyTable

__all__ = [
    "EstimateResult",
    "Event",
    "Step",
    "Trajectory",
    "mc_estimate",
    "simulate_episode",
    "step",
]


class Event(enum.Enum):
    COMPLETED = "Completed"
    DECAYED = "Decayed"
    EJECTED = "Ejected"


@dataclass(frozen=True)
class Step:
    state: tuple[int, int]
    action_index: int
    w: float
    stage_cost: float
    event: Event


@dataclass(frozen=True)
class Trajectory:
    """One full episode; the last step always lands in (0, V)."""

    steps: tuple[Step, ...]
    total_cost: float

    def __len__(self):
        return len(self.steps)

    def to_jsonl(self) -> str:
        """One JSON object per step: t, b, v, s, w, cost, event."""
        lines = []
        for t, st in enumerate(self.steps):
            lines.append(json.dumps({
                "t": t,
                "b": st.state[0],
                "v": st.state[1],
                "s": st.action_index,
                "w": st.w,
                "cost": st.stage_cost,
                "event": st.event.value,
            }))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EstimateResult:
    """Sample mean of episode total cost with its standard error."""

    mean: float
    std_error: float
    n: int
    seed: int


def _transition(model: ValidatedModel, b, v, a, w):
    """One slot, elementwise over scalars or arrays: (next b, next v, stage
    cost, success), where w <= s counts as a success."""
    success = w <= model.actions[a]
    cost = model.h[b - 1] + model.c[a] - np.where(success, model.r[v - 1], 0.0)
    done = success | (v <= 1)
    return np.where(done, b - 1, b), np.where(done, model.V, v - 1), cost, success


def step(model: ValidatedModel, state: tuple[int, int], action_index: int,
         w: float) -> tuple[tuple[int, int], float, Event]:
    """Advance one slot.  w = s counts as a success."""
    b, v = state
    if b == 0:
        raise ValueError("cannot step from the terminal state")
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"noise {w!r} outside [0, 1]")
    nb, nv, cost, success = _transition(model, b, v, action_index, w)
    event = Event.COMPLETED if success else Event.DECAYED if nb == b else Event.EJECTED
    return (int(nb), int(nv)), float(cost), event


def simulate_episode(model: ValidatedModel, policy: PolicyTable,
                     initial: tuple[int, int], seed) -> Trajectory:
    """Run one episode under a fixed policy with seeded noise."""
    if initial[0] == 0:
        raise ValueError("initial state must be nonterminal")
    rng = np.random.default_rng(seed)
    state = initial
    steps = []
    total = 0.0
    while state[0] > 0:
        a = policy.s_at(*state)
        w = float(rng.random())
        nxt, cost, event = step(model, state, a, w)
        steps.append(Step(state=state, action_index=a, w=w, stage_cost=cost, event=event))
        total += cost
        state = nxt
    return Trajectory(steps=tuple(steps), total_cost=total)


def episode_costs(model: ValidatedModel, policy: PolicyTable,
                  initial: tuple[int, int], n: int, seed: int) -> np.ndarray:
    """Total cost of each of n episodes under the block-partitioned stream.

    Episode i uses noise values W[i*L:(i+1)*L] of ``default_rng(seed)``
    where L = B*V; all episodes are stepped in lockstep (vectorized), which
    also certifies that every one of them terminates within L slots.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if initial[0] == 0:
        raise ValueError("initial state must be nonterminal")
    L = model.B * model.V
    W = np.random.default_rng(seed).random(n * L).reshape(n, L)
    pol = policy.action_index
    b = np.full(n, initial[0], dtype=np.int64)
    v = np.full(n, initial[1], dtype=np.int64)
    total = np.zeros(n)
    for t in range(L):
        active = b > 0
        if not active.any():
            break
        ab, av = b[active], v[active]
        nb, nv, cost, _ = _transition(model, ab, av, pol[ab, av], W[active, t])
        total[active] += cost
        b[active], v[active] = nb, nv
    if (b > 0).any():
        raise AssertionError("episode failed to terminate within B*V slots")
    return total


def mc_estimate(model: ValidatedModel, policy: PolicyTable,
                initial: tuple[int, int], n: int, seed: int) -> EstimateResult:
    """Monte Carlo estimate of the expected total cost from an initial state.

    Deterministic in (model, policy, initial, n, seed).  The standard error
    uses the n-1 denominator and is 0 by convention for n = 1.
    """
    total = episode_costs(model, policy, initial, n, seed)
    mean = float(total.mean())
    se = float(total.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimateResult(mean=mean, std_error=se, n=n, seed=seed)
