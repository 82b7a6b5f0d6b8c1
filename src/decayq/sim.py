"""Seeded Monte Carlo simulation of the exact queue dynamics.

One time slot: in state (b, v) with chosen service probability s and
uniform noise w, the job completes when w <= s (moving to (b-1, V) and
collecting r(v)); otherwise the value decays to v-1, or the job is ejected
to (b-1, V) when it was already at v = 1.  The stage cost is
h(b) + c(s) - r(v)*[completed].  Every episode ends in the trapping state
(0, V) within B*V slots.  ``_dynamics`` is the one copy of this slot;
``simulate_episode`` loops over it through ``step``, and ``episode_costs``
tabulates it once per call over the state ids b*(V+1) + v.

Randomness is numpy's PCG64 (stable across platforms).  ``mc_estimate``
derives per-episode noise from the single stream ``default_rng(seed)`` by
fixed block partition: episode i consumes stream positions
[i*B*V, (i+1)*B*V).  The derivation depends only on (seed, episode index),
so results are independent of execution order and bit-exactly replayable;
``simulate_episode`` replays episode 0 of that stream.
The stream is drawn in chunks of whole episodes into the halves of one 16 MiB buffer
in turn, a one-worker executor drawing the next chunk while the current one steps;
this gives the numbers of drawing it at once, and a chunk's noise and its stepping
arrays each stay within 16 MiB for any n.
"""

from __future__ import annotations

import enum
import json
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ValidatedModel, _is_index
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

# Byte budget of the noise buffer, whose two halves hold one chunk each, and of one
# chunk's stepping arrays (drawn serially, 4 MiB chunks once ran slower than 16 MiB).
_NOISE_BYTES = 1 << 24

# Largest n*B*V: 2**36 draws alone take 5 to 10 minutes on a 2-CPU Xeon.
_MAX_DRAWS = 1 << 36

# Largest n: 2**26 float64 episode totals take 512 MiB, the solver tables' budget.
_MAX_EPISODES = 1 << 26


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


def _dynamics(model: ValidatedModel, b, v, a):
    """Slot (b, v), of id b*(V+1) + v, under action index a, elementwise: (s, stage
    cost on success, on failure, next id on success, on failure); w <= s succeeds."""
    V1, base = model.V + 1, model.h[b - 1] + model.c[a]
    down = (b - 1) * V1 + model.V
    return (model.actions[a], base - model.r[v - 1], base, down,
            np.where(v == 1, down, b * V1 + v - 1))


def _check_state(model: ValidatedModel, state: tuple[int, int]) -> None:
    b, v = state
    if not (_is_index(b, 1, model.B) and _is_index(v, 1, model.V)):
        raise ValueError(f"state {tuple(state)} must be nonterminal, "
                         f"integers in [1, {model.B}] x [1, {model.V}]")


def step(model: ValidatedModel, state: tuple[int, int], action_index: int,
         w: float) -> tuple[tuple[int, int], float, Event]:
    """Advance one slot.  w = s counts as a success."""
    _check_state(model, state)
    b, v = state
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"noise {w!r} outside [0, 1]")
    k = len(model.actions)
    if not _is_index(action_index, 0, k - 1):
        raise ValueError(f"action index {action_index!r} is not an integer in [0, {k})")
    s, win, lose, up, fail = _dynamics(model, b, v, action_index)
    success = w <= s
    nb, nv = divmod(int(up if success else fail), model.V + 1)
    event = Event.COMPLETED if success else Event.DECAYED if nb == b else Event.EJECTED
    return (nb, nv), float(win if success else lose), event


def simulate_episode(model: ValidatedModel, policy: PolicyTable,
                     initial: tuple[int, int], seed) -> Trajectory:
    """Run one episode under a fixed policy: episode 0 of the ``mc_estimate``
    stream, ``default_rng(seed).random(B*V)``.  A ``Generator`` passed as
    ``seed`` advances by B*V draws, whatever the episode's length."""
    _check_state(model, initial)
    _check_policy(model, policy.action_index)
    W = np.random.default_rng(seed).random(model.B * model.V).tolist()
    state, steps, total = (int(initial[0]), int(initial[1])), [], 0.0
    for w in W:
        a = policy.s_at(*state)
        nxt, cost, event = step(model, state, a, w)
        steps.append(Step(state=state, action_index=a, w=w, stage_cost=cost, event=event))
        total += cost
        if (state := nxt)[0] == 0:
            break
    else:
        raise AssertionError("episode failed to terminate within B*V slots")
    return Trajectory(steps=tuple(steps), total_cost=total)


def episode_costs(model: ValidatedModel, policy: PolicyTable,
                  initial: tuple[int, int], n: int, seed: int) -> np.ndarray:
    """Total cost of each of n episodes under the block-partitioned stream.

    Episode i uses noise values W[i*L:(i+1)*L] of ``default_rng(seed)``,
    L = B*V, drawn in chunks of whole episodes (at least one) into the two
    halves of one ``_NOISE_BYTES`` buffer: successive ``random(out=...)`` calls
    continue the stream of ``random(n*L)``; a chunk's stepping arrays also fit in
    ``_NOISE_BYTES``.  A one-worker executor draws chunk i+1 while chunk i steps in
    lockstep on the ``_dynamics`` tables, keyed 2*id + success, until every id is
    in row 0; a failed draw is re-raised, and no draw outlives the call.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an int >= 1, not {n!r}")
    L = model.B * model.V
    if int(n) * L > _MAX_DRAWS:
        raise ConfigError(f"n*B*V = {int(n) * L} noise draws exceed the limit of "
                          f"{_MAX_DRAWS} (2**36)")
    if n > _MAX_EPISODES:
        raise ConfigError(f"n = {n} episodes exceed the limit of {_MAX_EPISODES} (2**26)")
    _check_state(model, initial)
    _check_policy(model, policy.action_index)
    V1 = model.V + 1
    b, v = np.maximum(np.divmod(np.arange((model.B + 1) * V1), V1), 1)  # row/col 0 unread
    thr, win, lose, up, fail = _dynamics(model, b, v, policy.action_index[b, v])
    cost, nxt = np.column_stack([lose, win]).ravel(), np.column_stack([fail, up]).ravel()
    rng = np.random.default_rng(seed)
    # Stepping holds at most 50 B an episode: run, ids, the last key, 2*ids, the
    # gathered noise and threshold (8 B each) and two masks; noise is 16 B a slot.
    chunk = min(n, max(1, _NOISE_BYTES // max(16 * L, 50)))
    # given back on return, unlike the malloc heap; huge pages cut TLB misses
    noise = mmap.mmap(-1, 16 * chunk * L, flags=mmap.MAP_PRIVATE)
    noise.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    halves, total = np.frombuffer(noise).reshape(2, chunk, L), np.zeros(n)

    def draw(start):  # the chunk from episode start into its half; numpy frees the GIL
        return rng.random(out=halves[start // chunk % 2, :min(chunk, n - start)])
    # imported here: with the logging it loads, it would add 5-8 ms to every command
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as worker:  # leaving waits for a draw
        drawn = worker.submit(draw, 0)
        for start in range(0, n, chunk):
            W = drawn.result()  # re-raises a failed draw
            if start + chunk < n:  # draw the next chunk while this one steps
                drawn = worker.submit(draw, start + chunk)
            view = total[start:start + len(W)]
            run, ids = np.arange(len(W)), np.full(len(W), initial[0] * V1 + initial[1])
            for t in range(L):
                key = 2 * ids + (W[run, t] <= thr[ids])
                view[run] += cost[key]
                ids = nxt[key]
                if not (going := ids >= V1).all():
                    run, ids = run[going], ids[going]
                    if not run.size:
                        break
            else:
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
