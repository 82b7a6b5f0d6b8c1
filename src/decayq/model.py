"""Problem instances for the value-decay service-rate control queue.

A model is a finite batch of B identical jobs served one at a time in
discrete slots.  The head-of-line job starts at integer value V and loses
one unit of value on every failed service attempt; completing a job at
residual value v earns reward r(v), while every slot costs h(b) for
holding b jobs plus c(s) for attempting service at probability s.

Cost and reward functions are given either as explicit tables or as one of
five parametric families, and are materialized into lookup tables once at
validation time so that all downstream computation is exact and replayable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ActionSet",
    "AssumptionFlags",
    "ConfigError",
    "CostSpec",
    "ModelConfig",
    "ValidationError",
    "ValidatedModel",
    "load_config",
    "materialize",
    "validate",
]

# Parametric cost families: name -> (parameter count, f(params, x)).
_FAMILIES = {
    "linear": (1, lambda p, x: p[0] * x),
    "affine": (2, lambda p, x: p[0] * x + p[1]),
    "constant": (1, lambda p, x: p[0]),
    "log_barrier": (1, lambda p, x: math.inf if x >= 1.0 else -p[0] * math.log1p(-x)),
    "log": (1, lambda p, x: p[0] * math.log1p(x)),
}

# Largest B*V*|S|: it keeps the four float64 solver tables to about 512 MiB.
_MAX_SIZE = 1 << 24

# Largest cost scale S = B*V*(max|h| + max|c| + max|r|).  An episode has at most
# B*V slots, so every episode total, J, delta, sigma and solver intermediate is
# within a few S.  The largest sum is the std of at most 2**26 totals: squared
# deviations of up to (2S)**2 add to at most 2**28 * S**2 = 2**1022 at this S,
# a factor 4 below the float64 overflow at 2**1024 that covers rounding.
_MAX_COST_SCALE = 2.0 ** 497


class ConfigError(ValueError):
    """Malformed, mistyped, or out-of-range configuration input."""


class ValidationError(ValueError):
    """A model whose materialized tables violate a hard requirement."""


@dataclass(frozen=True)
class ActionSet:
    """Finite menu of service probabilities, strictly increasing in [0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ConfigError("action set must be non-empty")
        for s in self.values:
            if not (0.0 <= s <= 1.0) or not math.isfinite(s):
                raise ConfigError(f"action {s!r} outside [0, 1]")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("actions must be strictly increasing")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CostSpec:
    """One cost/reward function: an explicit table or a parametric family.

    Families (argument x is the job count, the residual value, or the
    service probability depending on where the spec is used):

      linear(a)       a*x
      affine(a, b)    a*x + b
      constant(k)     k
      log_barrier(k)  k*ln(1/(1-x))
      log(k)          k*ln(1+x)
    """

    kind: str
    params: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "table":
            if len(self.values) == 0:
                raise ConfigError("table spec needs a non-empty values list")
            if self.params:
                raise ConfigError("table spec takes no params")
        elif self.kind not in _FAMILIES:
            raise ConfigError(f"unknown cost kind {self.kind!r}")
        else:
            want = _FAMILIES[self.kind][0]
            if len(self.params) != want:
                raise ConfigError(
                    f"{self.kind} spec takes {want} parameter(s), got {len(self.params)}"
                )
            if self.values:
                raise ConfigError("parametric spec takes no values list")


@dataclass(frozen=True)
class ModelConfig:
    """One problem instance before table materialization."""

    B: int
    V: int
    actions: ActionSet
    holding: CostSpec
    service_cost: CostSpec
    reward: CostSpec

    def __post_init__(self):
        for key, x in (("B", self.B), ("V", self.V)):
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise ConfigError(f"{key} must be a positive integer, got {x!r}")
        size = self.B * self.V * len(self.actions)
        if size > _MAX_SIZE:
            raise ConfigError(f"B*V*|S| = {size} exceeds the limit of {_MAX_SIZE} (2**24)")


@dataclass(frozen=True)
class AssumptionFlags:
    """Which standing monotonicity assumptions the materialized tables satisfy.

    Recomputed from the tables, never taken from input.  They only report:
    no solver, checker or simulator reads them, and each monotonicity
    checker tests its own conditions on the tables and the solution.
    """

    h_nondecreasing: bool
    c_nondecreasing: bool
    r_nondecreasing: bool
    r_positive: bool


@dataclass(frozen=True)
class ValidatedModel:
    """A config with its cost functions materialized into lookup tables.

    ``h[b-1]`` is the holding cost with b jobs, ``c[i]`` the service cost of
    ``actions[i]``, and ``r[v-1]`` the reward for completing at residual
    value v.  Immutable after construction; safe to share across threads.
    """

    config: ModelConfig
    h: np.ndarray
    c: np.ndarray
    r: np.ndarray
    flags: AssumptionFlags

    @property
    def B(self) -> int:
        return self.config.B

    @property
    def V(self) -> int:
        return self.config.V

    @cached_property  # converted once: the passes read it per row or block
    def actions(self) -> np.ndarray:
        return np.asarray(self.config.actions.values)

    def h_of(self, b: int) -> float:
        return self._entry(self.h, "b", b, 1)

    def c_of(self, action_index: int) -> float:
        return self._entry(self.c, "action index", action_index, 0)

    def r_of(self, v: int) -> float:
        return self._entry(self.r, "v", v, 1)

    @staticmethod
    def _entry(table: np.ndarray, name: str, i: int, lo: int) -> float:
        """table[i - lo]; an index off the table raises, never wraps."""
        hi = lo + len(table) - 1
        if not _is_index(i, lo, hi):
            raise ValueError(f"{name} = {i} outside the integers [{lo}, {hi}]")
        return float(table[i - lo])


def _is_index(i, lo: int, hi: int) -> bool:
    """Whether i is an integer in [lo, hi]: a bool or a float is no index."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and lo <= i <= hi


def materialize(spec: CostSpec, args: Sequence[float]) -> np.ndarray:
    """Evaluate a CostSpec at each argument: entry i holds the value at
    ``args[i]``, and a table spec must have ``len(args)`` entries.
    ``validate`` passes 1..B, the action values and 1..V.
    """
    if spec.kind == "table":
        if len(spec.values) != len(args):
            raise ValidationError(f"table of length {len(spec.values)} cannot cover "
                                  f"a domain of size {len(args)}")
        out = np.array(spec.values, dtype=float)
    else:
        f = _FAMILIES[spec.kind][1]
        out = np.array([f(spec.params, float(x)) for x in args], dtype=float)

    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise ValidationError(f"{spec.kind} spec evaluates to a non-finite value "
                              f"at domain entry {bad}")
    out.flags.writeable = False
    return out


def validate(config: ModelConfig) -> ValidatedModel:
    """Materialize all cost tables and compute the assumption flags.

    Succeeds even when the non-decreasing assumptions fail (solvers do not
    need them); a non-positive reward entry is a hard error because the
    model requires strictly positive completion rewards, and so is a cost
    scale above ``_MAX_COST_SCALE``, at which sums of costs could overflow.
    """
    h = materialize(config.holding, range(1, config.B + 1))
    c = materialize(config.service_cost, config.actions.values)
    r = materialize(config.reward, range(1, config.V + 1))
    if np.any(r <= 0.0):
        bad = int(np.flatnonzero(r <= 0.0)[0]) + 1
        raise ValidationError(f"reward must be strictly positive; r({bad}) = {r[bad - 1]}")
    scale = config.B * config.V * sum(float(np.abs(t).max()) for t in (h, c, r))
    if scale > _MAX_COST_SCALE:
        raise ValidationError(f"cost scale B*V*(max|h| + max|c| + max|r|) = {scale:.6g} "
                              f"exceeds the limit of {_MAX_COST_SCALE:.6g} (2**497)")
    flags = AssumptionFlags(
        h_nondecreasing=bool(np.all(np.diff(h) >= 0.0)),
        c_nondecreasing=bool(np.all(np.diff(c) >= 0.0)),
        r_nondecreasing=bool(np.all(np.diff(r) >= 0.0)),
        r_positive=True,
    )
    return ValidatedModel(config=config, h=h, c=c, r=r, flags=flags)


_TOP_KEYS = {"B", "V", "actions", "holding", "service_cost", "reward"}


def _parse_cost_spec(obj, field: str) -> CostSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{field}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ConfigError(f"{field}: missing or non-string 'kind'")
    allowed = {"kind", "values"} if kind == "table" else {"kind", "params"}
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{field}: unknown key(s) {sorted(extra)}")
    if kind == "table":
        return CostSpec(kind=kind, values=_numbers(
            obj.get("values"), f"{field}: 'values' must be a list of numbers"))
    return CostSpec(kind=kind, params=_numbers(
        obj.get("params", []), f"{field}: 'params' must be a list of numbers"))


def _numbers(x, message: str) -> tuple[float, ...]:
    """A JSON list of numbers (bools excluded) as floats; ConfigError(message)
    for anything else, an int beyond the float range included."""
    if not isinstance(x, list) or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) for e in x
    ):
        raise ConfigError(message)
    try:
        return tuple(float(e) for e in x)
    except OverflowError:
        raise ConfigError(message) from None


def load_config(text: str) -> ModelConfig:
    """Parse a JSON configuration document into a ModelConfig.

    The document is an object with exactly the keys ``B``, ``V``,
    ``actions``, ``holding``, ``service_cost``, ``reward``; unknown keys are
    rejected.  See the README for the full schema.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError or a 4301-digit int
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)}")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)}")
    return ModelConfig(
        B=doc["B"],
        V=doc["V"],
        actions=ActionSet(_numbers(doc["actions"], "actions must be an array of numbers")),
        holding=_parse_cost_spec(doc["holding"], "holding"),
        service_cost=_parse_cost_spec(doc["service_cost"], "service_cost"),
        reward=_parse_cost_spec(doc["reward"], "reward"),
    )
