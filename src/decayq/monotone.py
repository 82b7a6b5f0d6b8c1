"""Structural analysis of computed policies.

Two kinds of statement are checked here:

  * algebraic sufficient conditions that predict how the optimal service
    rate moves with the residual job value, evaluated directly on the
    increment table (and, for constant rewards, on the cost tables alone);
  * empirical classification of a solved policy table: direction in the
    job count b, and per-row direction in the residual value v.

Verdicts from the algebraic checkers are one-sided guarantees; when neither
inequality family holds the checker reports Inconclusive and only the
empirical scan speaks.  All comparisons are exact (no tolerance injected);
margins are recorded so callers can judge float sensitivity themselves.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .model import ValidatedModel, _is_index
from .solver import SolutionTable, _objective

__all__ = [
    "Direction",
    "Guarantee",
    "MonotonicityReport",
    "RowClass",
    "SubmodularityResult",
    "check_constant_reward",
    "check_delta_conditions",
    "check_submodular",
    "classify_policy",
]


class Direction(enum.Enum):
    NON_DECREASING = "NonDecreasing"
    NON_INCREASING = "NonIncreasing"
    CONSTANT = "Constant"
    MIXED = "Mixed"


class Guarantee(enum.Enum):
    NON_DECREASING = "GuaranteedNonDecreasing"
    NON_INCREASING = "GuaranteedNonIncreasing"
    INCONCLUSIVE = "Inconclusive"
    BOTH = "Both"


@dataclass(frozen=True)
class RowClass:
    """Direction of one policy row v -> mu(b, v), with a witness on violation.

    For Mixed rows the witness is the first adjacent pair where the action
    strictly decreases (the pair contradicting NonDecreasing).
    """

    direction: Direction
    witness: tuple[tuple[int, int], tuple[int, int]] | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    """Full structural report for one solved model.

    ``in_b_verdict`` is "NonDecreasing" or "Violated" (with a witness state
    pair in the latter case).
    """

    in_b_verdict: str
    in_b_witness: tuple[tuple[int, int], tuple[int, int]] | None
    per_b_in_v: dict[int, RowClass]
    theorem2_per_b: dict[int, Guarantee]
    theorem3_per_b: dict[int, Guarantee] | None

    @property
    def in_b_ok(self) -> bool:
        return self.in_b_verdict == "NonDecreasing"

    def to_json(self) -> str:
        def wit(w):
            return None if w is None else [list(w[0]), list(w[1])]

        doc = {
            "in_b_verdict": self.in_b_verdict,
            "in_b_witness": wit(self.in_b_witness),
            "per_b_in_v": {
                str(b): {"direction": rc.direction.value, "witness": wit(rc.witness)}
                for b, rc in sorted(self.per_b_in_v.items())
            },
            "theorem2_per_b": {
                str(b): g.value for b, g in sorted(self.theorem2_per_b.items())
            },
            "theorem3_per_b": None
            if self.theorem3_per_b is None
            else {str(b): g.value for b, g in sorted(self.theorem3_per_b.items())},
        }
        return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class SubmodularityResult:
    passed: bool
    worst_margin: float


def check_delta_conditions(model: ValidatedModel, solution: SolutionTable, b: int) -> Guarantee:
    """Sufficient condition for the in-v direction of row b.

    If delta(b, v) >= -[r(v+1) - r(v)] for every v < V the row is guaranteed
    non-decreasing; if <= throughout, guaranteed non-increasing.  Both
    families holding (all equalities, or V = 1 vacuously) reports the
    non-decreasing verdict; the policy row is then constant.  The conditions
    are sufficient only, so the fallback is Inconclusive.
    """
    _check_row(model, b)
    return _delta_guarantees(model, solution.delta[b][None])[0]


def _check_row(model: ValidatedModel, b: int) -> None:
    if not _is_index(b, 1, model.B):
        raise ValueError(f"row b = {b} outside [1, {model.B}]")


def _delta_guarantees(model: ValidatedModel, delta_rows: np.ndarray) -> list[Guarantee]:
    """The Theorem-2 verdict of each row of ``delta_rows`` (rows padded with
    the v = 0 column, as in ``SolutionTable.delta``)."""
    rhs = -(model.r[1:] - model.r[:-1])
    lhs = delta_rows[:, 1:model.V]
    ge_all = ~np.any(lhs < rhs, axis=1)
    le_all = ~np.any(lhs > rhs, axis=1)
    return [Guarantee.NON_DECREASING if ge else
            Guarantee.NON_INCREASING if le else Guarantee.INCONCLUSIVE
            for ge, le in zip(ge_all.tolist(), le_all.tolist())]


def check_constant_reward(model: ValidatedModel, b: int) -> Guarantee:
    """Single-inequality direction test for constant rewards.

    With r constant at rbar, the sign of q = h(b) + min_s {c(s) - s*rbar}
    decides the in-v direction of row b: positive means non-decreasing,
    negative non-increasing, zero means both (the row is constant in v).
    """
    _check_row(model, b)
    verdicts = _constant_reward_guarantees(model)
    if verdicts is None:
        raise ValueError("constant-reward test requires a constant reward table")
    return verdicts[b - 1]


def _constant_reward_guarantees(model: ValidatedModel) -> list[Guarantee] | None:
    """The Theorem-3 verdict of every row b, or None unless r is constant."""
    r = model.r
    if not np.all(r == r[0]):
        return None
    q = model.h + float(np.min(_objective(model, r[0])))
    return [Guarantee.NON_DECREASING if x > 0.0 else
            Guarantee.NON_INCREASING if x < 0.0 else Guarantee.BOTH
            for x in q.tolist()]


def _classify_rows(mu: np.ndarray) -> dict[int, RowClass]:
    """Direction of every policy row b over v = 1..V (mu is padded)."""
    step = np.diff(mu[1:, 1:], axis=1)
    dec = step < 0
    out = {}
    for b, (up, down) in enumerate(zip(np.any(step > 0, axis=1).tolist(),
                                       np.any(dec, axis=1).tolist()), start=1):
        if not down:
            out[b] = RowClass(Direction.NON_DECREASING if up else Direction.CONSTANT)
        elif not up:
            out[b] = RowClass(Direction.NON_INCREASING)
        else:
            v = int(np.argmax(dec[b - 1])) + 1  # the first strict decrease
            out[b] = RowClass(Direction.MIXED, witness=((b, v), (b, v + 1)))
    return out


def classify_policy(solution: SolutionTable) -> MonotonicityReport:
    """Scan a solved policy table and assemble the full structural report.

    The in-b scan checks mu(b, v) <= mu(b+1, v) everywhere; each row b gets
    an in-v direction; the algebraic checkers fill the guarantee maps (the
    constant-reward map only when the reward table is constant).
    """
    model = solution.model
    if model is None:
        raise ValueError("solution carries no model")
    mu = solution.mu

    in_b = "NonDecreasing"
    in_b_witness = None
    # first mu(b+1, v) < mu(b, v), scanning v-major, then b
    drops = np.argwhere((mu[2:, 1:] < mu[1:-1, 1:]).T)
    if len(drops):
        v, b = (drops[0] + 1).tolist()
        in_b = "Violated"
        in_b_witness = ((b, v), (b + 1, v))

    per_b = _classify_rows(mu)
    thm2 = dict(enumerate(_delta_guarantees(model, solution.delta[1:]), start=1))
    thm3 = _constant_reward_guarantees(model)
    return MonotonicityReport(
        in_b_verdict=in_b,
        in_b_witness=in_b_witness,
        per_b_in_v=per_b,
        theorem2_per_b=thm2,
        theorem3_per_b=None if thm3 is None else dict(enumerate(thm3, start=1)),
    )


def check_submodular(model: ValidatedModel, x_grid: list[float]) -> SubmodularityResult:
    """Verify the submodularity inequality of f(s, x) = c(s) - s*x.

    For every action pair s- < s+ and grid pair x- < x+ the combination
    f(s+, x+) + f(s-, x-) - f(s+, x-) - f(s-, x+) must be <= 1e-12 (exactly
    it equals (s+ - s-)(x- - x+)).  Reports the worst (largest) such value
    over the nontrivial quadruples; degenerate pairs with s- = s+ or
    x- = x+ contribute exactly 0 and are skipped.  Vacuous pass with worst
    margin 0 when no nontrivial quadruple exists.
    """
    if len(x_grid) == 0:
        raise ValueError("x_grid must be non-empty")
    if not np.all(np.isfinite(x_grid)):
        raise ValueError("x_grid entries must be finite")
    x = np.array(sorted(set(x_grid)), dtype=float)
    f = _objective(model, x).T  # f[i, a] = c(s_i) - s_i*x_a
    lo, hi = np.triu_indices(len(model.actions), 1)  # action pairs s- < s+
    xlo, xhi = np.triu_indices(len(x), 1)  # grid pairs x- < x+
    lhs = f[hi][:, xhi] + f[lo][:, xlo]
    rhs = f[hi][:, xlo] + f[lo][:, xhi]
    worst = float((lhs - rhs).max()) if lhs.size else 0.0
    return SubmodularityResult(passed=worst <= 1e-12, worst_margin=worst)
