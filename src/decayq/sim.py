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
The stream is drawn in chunks of whole episodes into the halves of one buffer.
One drawing thread takes a free half from a queue, draws the next chunk into it and
passes it on; the caller steps that chunk and gives the half back, so the draw waits
only while both halves are unstepped.  This gives the numbers of drawing the stream at
once.  For any n a chunk's stepping arrays stay within 4 MiB, and the buffer within the
larger of 4 MiB and 16*B*V bytes, the two halves of one episode.
Stepping the 2 MiB chunks takes less time than drawing them (n = 1e5 on 20x10x3,
2-CPU Xeon, medians of 10: 56-62 ms against 93-97 ms, in a 78-101 ms call).
"""

from __future__ import annotations

import enum
import math
import mmap
import threading
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ValidatedModel, _check_index, _check_state, _is_index
from .solver import PolicyTable, _check_policy

__all__ = [
    "EstimateResult",
    "Event",
    "Step",
    "Trajectory",
    "episode_costs",
    "mc_estimate",
    "simulate_episode",
    "step",
]

# Byte budget of the noise buffer, whose two halves hold one chunk each, and of one
# chunk's stepping arrays.  At n = 1e5 on 20x10x3, 2 MiB chunks step in 56-62 ms beside
# a 93-97 ms draw (medians); with 1 MiB chunks stepping was the slower of the two.
_NOISE_BYTES = 1 << 22

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


def step(model: ValidatedModel, state: tuple[int, int], action_index: int,
         w: float) -> tuple[tuple[int, int], float, Event]:
    """Advance one slot.  w = s counts as a success."""
    _check_state(model, state)
    b, v = state
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"noise {w!r} outside [0, 1]")
    _check_index("action index", action_index, 0, len(model.actions) - 1)
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
        a = int(policy.action_index[state])
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
    L = B*V, drawn in chunks of whole episodes (at least one) into the two halves
    of one buffer of at most ``max(_NOISE_BYTES, 16*L)`` bytes: successive
    ``random(out=...)`` calls continue the stream of ``random(n*L)``; a chunk's
    stepping arrays fit in ``_NOISE_BYTES``.  One drawing thread fills free halves
    in stream order while this thread steps each drawn chunk in lockstep on the
    ``_dynamics`` tables, keyed 2*id + success, until every id is in row 0, and
    then frees its half; a failed draw is re-raised here, and no draw outlives
    the call.
    """
    if not _is_index(n, 1, np.inf):
        raise ConfigError(f"n must be an int >= 1, not {n!r}")
    L = model.B * model.V
    if int(n) * L > _MAX_DRAWS:
        raise ConfigError(f"n*B*V = {int(n) * L} noise draws exceed the limit of "
                          f"{_MAX_DRAWS} (2**36)")
    if n > _MAX_EPISODES:
        raise ConfigError(f"n = {n} episodes exceed the limit of {_MAX_EPISODES} (2**26)")
    _check_state(model, initial)
    _check_policy(model, policy.action_index)
    V1 = model.V + 1
    ids = np.arange((model.B + 1) * V1)
    b, v = np.maximum(np.divmod(ids, V1), 1)  # row/col 0 unread
    thr, win, lose, up, fail = _dynamics(model, b, v, policy.action_index[b, v])
    # A slot's key is kb + success, kb = 2*id being an episode's key base.  Row 0
    # absorbs: w <= -1 never holds, and a finished episode stays and adds +0.0,
    # exact since a total starting at +0.0 is never -0.0.
    done = ids < V1
    thr = np.repeat(np.where(done, -1.0, thr), 2)
    cost = np.where(done, 0.0, [lose, win]).T.ravel()
    nxt = 2 * np.where(done, ids, [fail, up]).T.ravel()
    rng = np.random.default_rng(seed)
    # Stepping holds at most 37 B an episode: acc, kb and the last key (8 B each), the
    # going mask, and either a slot's gather and compare mask (9 B) or, compacting, the
    # new run, acc and kb of at most half the rows (12 B).  Noise is 16 B a slot.
    chunk = min(n, max(1, _NOISE_BYTES // max(16 * L, 37)))
    # given back on return, unlike the malloc heap; huge pages cut TLB misses
    noise = mmap.mmap(-1, 16 * chunk * L, flags=mmap.MAP_PRIVATE)
    noise.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    halves, total = np.frombuffer(noise).reshape(2, chunk, L), np.zeros(n)

    import queue  # here: with the package, it adds 0.125-0.25 MiB to peak RSS
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for half in halves:
        free.put(half)

    def draw():  # each chunk in turn into a free half; numpy frees the GIL
        try:
            for start in range(0, n, chunk):
                if (half := free.get()) is None:
                    return
                full.put(rng.random(out=half[:min(chunk, n - start)]))
        except BaseException as exc:  # raised in the caller, which waits on full
            full.put(exc)
    drawer = threading.Thread(target=draw)
    drawer.start()
    try:
        for start in range(0, n, chunk):
            W = full.get()
            if isinstance(W, BaseException):
                raise W
            view = total[start:start + len(W)]
            # rows stay in place, the noise a strided column, until at most half run
            run, acc = slice(None), np.zeros(len(W))
            kb = np.full(len(W), 2 * (initial[0] * V1 + initial[1]))
            for t in range(L):
                key = kb + (W[run, t] <= thr[kb])
                acc += cost[key]
                kb = nxt[key]
                going = kb >= 2 * V1
                if 2 * (left := np.count_nonzero(going)) <= len(kb):
                    view[run] = acc
                    if not left:
                        break
                    run = run[going] if isinstance(run, np.ndarray) else np.flatnonzero(going)
                    acc, kb = acc[going], kb[going]
            else:
                raise AssertionError("episode failed to terminate within B*V slots")
            free.put(W)  # the stepped half takes the chunk after next
    finally:  # wait for a draw in flight; the sentinel ends a drawer still at free
        free.put(None)
        drawer.join()
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
