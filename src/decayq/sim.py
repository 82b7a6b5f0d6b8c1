"""Seeded Monte Carlo simulation of the exact queue dynamics.

One time slot: in state (b, v) with chosen service probability s and
uniform noise w, the job completes when w <= s (moving to (b-1, V) and
collecting r(v)); otherwise the value decays to v-1, or the job is ejected
to (b-1, V) when it was already at v = 1.  The stage cost is
h(b) + c(s) - r(v)*[completed].  Every episode ends in the trapping state
(0, V) within B*V slots.

Randomness is numpy's PCG64 (stable across platforms).  ``mc_estimate``
derives per-episode noise from the single stream ``default_rng(seed)`` by
fixed block partition: episode i consumes stream positions
[i*B*V, (i+1)*B*V).  The derivation depends only on (seed, episode index),
so results are independent of execution order and bit-exactly replayable;
``simulate_episode`` replays episode 0 of that stream.
The stream is drawn into one buffer, at most 16 MiB of whole episodes at a time,
which gives the numbers of drawing it at once while bounding memory for any n.
"""

from __future__ import annotations

import enum
import json
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .model import ValidatedModel
from .solver import PolicyTable, _check_policy

__all__ = [
    "EstimateResult",
    "Event",
    "Step",
    "Trajectory",
    "mc_estimate",
    "simulate_episode",
    "step",
]

# Byte budget of one chunk of Monte Carlo noise; 4 MiB chunks ran slower.
_NOISE_BYTES = 1 << 24


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


def _event(success, nb, b) -> Event:
    return Event.COMPLETED if success else Event.DECAYED if nb == b else Event.EJECTED


def _check_state(model: ValidatedModel, state: tuple[int, int]) -> None:
    if not (1 <= state[0] <= model.B and 1 <= state[1] <= model.V):
        raise ValueError(f"state {tuple(state)} must be nonterminal, "
                         f"in [1, {model.B}] x [1, {model.V}]")


def step(model: ValidatedModel, state: tuple[int, int], action_index: int,
         w: float) -> tuple[tuple[int, int], float, Event]:
    """Advance one slot.  w = s counts as a success."""
    _check_state(model, state)
    b, v = state
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"noise {w!r} outside [0, 1]")
    k = len(model.actions)
    if not (isinstance(action_index, (int, np.integer)) and 0 <= action_index < k):
        raise ValueError(f"action index {action_index!r} is not an integer in [0, {k})")
    nb, nv, cost, success = _transition(model, b, v, action_index, w)
    return (int(nb), int(nv)), float(cost), _event(success, nb, b)


def _lockstep(model: ValidatedModel, pol: np.ndarray, initial: tuple[int, int],
              W: np.ndarray):
    """Step one episode per row of the noise block W in lockstep, yielding each
    slot's mask of running episodes and their (b, v, action, w, next b, stage
    cost, success); every episode must end within B*V slots."""
    _check_state(model, initial)
    _check_policy(model, pol)
    k, L = W.shape
    b, v = (np.full(k, x, dtype=np.int64) for x in initial)
    for t in range(L):
        active = b > 0
        if not active.any():
            break
        ab, av, aw = b[active], v[active], W[active, t]
        a = pol[ab, av]
        nb, nv, cost, success = _transition(model, ab, av, a, aw)
        yield active, (ab, av, a, aw, nb, cost, success)
        b[active], v[active] = nb, nv
    if (b > 0).any():
        raise AssertionError("episode failed to terminate within B*V slots")


def simulate_episode(model: ValidatedModel, policy: PolicyTable,
                     initial: tuple[int, int], seed) -> Trajectory:
    """Run one episode under a fixed policy: episode 0 of the ``mc_estimate``
    stream, ``default_rng(seed).random(B*V)``.  A ``Generator`` passed as
    ``seed`` advances by B*V draws, whatever the episode's length."""
    W = np.random.default_rng(seed).random((1, model.B * model.V))
    steps, total = [], 0.0
    for _, slot in _lockstep(model, policy.action_index, initial, W):
        b, v, a, w, nb, cost, success = (x.item() for x in slot)
        steps.append(Step(state=(b, v), action_index=a, w=w, stage_cost=cost,
                          event=_event(success, nb, b)))
        total += cost
    return Trajectory(steps=tuple(steps), total_cost=total)


def episode_costs(model: ValidatedModel, policy: PolicyTable,
                  initial: tuple[int, int], n: int, seed: int) -> np.ndarray:
    """Total cost of each of n episodes under the block-partitioned stream.

    Episode i uses noise values W[i*L:(i+1)*L] of ``default_rng(seed)``,
    L = B*V, drawn into one buffer in chunks of whole episodes, at most
    ``_NOISE_BYTES`` each (or one episode): successive ``random(out=...)``
    calls continue the stream of ``random(n*L)``.  A chunk steps in lockstep.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an int >= 1, not {n!r}")
    L = model.B * model.V
    rng = np.random.default_rng(seed)
    chunk = min(n, max(1, _NOISE_BYTES // (8 * L)))
    # given back on return, unlike the malloc heap; huge pages cut TLB misses
    noise = mmap.mmap(-1, 8 * chunk * L, flags=mmap.MAP_PRIVATE)
    noise.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    total = np.zeros(n)
    for start in range(0, n, chunk):
        view = total[start:start + chunk]  # the last chunk may be shorter
        W = rng.random(out=np.frombuffer(noise, count=view.size * L).reshape(-1, L))
        for active, (*_, cost, _) in _lockstep(model, policy.action_index, initial, W):
            view[active] += cost
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
