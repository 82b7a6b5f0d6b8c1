"""Optimal-policy solvers for the value-decay queue.

Three mutually cross-checking routes compute the optimal cost-to-go J and
optimal policy mu:

  * ``solve_recursive`` runs the increment recursion (delta/sigma), which
    characterizes the Bellman equation exactly in B*V*|S| evaluations;
  * ``value_iteration`` repeats Bellman sweeps until the residual is at most tol;
  * ``policy_iteration`` alternates exact policy evaluation with greedy
    improvement.

Both iterations are built on one backward pass in (b, v) ascending order,
exact in one sweep since (b, v) leads only to (b, v-1) or (b-1, V); VI still
counts one exact sweep plus one that certifies convergence.

Every solver returns the same ``SolutionTable`` contract, including the
increment tables delta and sigma (reconstructed from J differences when not
natively produced), so structural invariants can be tested uniformly.

State space: (b, v) with 1 <= b <= B, 1 <= v <= V, plus the cost-free
trapping state (0, V).  Ties in every argmin break to the smallest action.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .model import ValidatedModel

__all__ = [
    "ConvergenceError",
    "PolicyTable",
    "SolutionTable",
    "apply_T",
    "bellman_backup",
    "evaluate_policy",
    "g_map",
    "near_tie_states",
    "policy_iteration",
    "solution_from_csv",
    "solve_recursive",
    "value_iteration",
]


class ConvergenceError(RuntimeError):
    """Value iteration failed to converge within the sweep budget."""


@dataclass(frozen=True)
class PolicyTable:
    """A stationary policy: an action index for every nonterminal state.

    ``action_index[b, v]`` is the chosen index into the action set; row 0
    and column 0 are padding and never read.
    """

    action_index: np.ndarray

    def s_at(self, b: int, v: int) -> int:
        return int(self.action_index[b, v])


@dataclass
class SolutionTable:
    """Output of every solver: J, mu, and the increment tables.

    Arrays are indexed ``[b, v]`` with shape (B+1, V+1).  ``J[0, V]`` is the
    terminal entry (exactly 0); ``delta[:, 0]`` and ``sigma[:, 0]`` are the
    v = 0 boundary (exactly 0).  ``mu`` holds indices into the action set.
    """

    J: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    sigma: np.ndarray
    solver_id: str
    model: ValidatedModel | None = None
    sweeps: int = field(default=0)

    @property
    def B(self) -> int:
        return self.J.shape[0] - 1

    @property
    def V(self) -> int:
        return self.J.shape[1] - 1

    def policy(self) -> PolicyTable:
        return PolicyTable(action_index=self.mu.copy())

    def to_csv(self) -> str:
        """Serialize as CSV, b-major, terminal row last.

        Floats use repr (shortest round-trip form) so equal solutions give
        byte-identical files.
        """
        if self.model is None:
            raise ValueError("cannot export a solution without its model")
        actions = self.model.actions
        out = io.StringIO()
        out.write("b,v,J,mu_index,mu_value,delta,sigma\n")
        for b in range(1, self.B + 1):
            for v in range(1, self.V + 1):
                a = int(self.mu[b, v])
                out.write(
                    f"{b},{v},{float(self.J[b, v])!r},{a},{float(actions[a])!r},"
                    f"{float(self.delta[b, v])!r},{float(self.sigma[b, v])!r}\n"
                )
        out.write(f"0,{self.V},0,,,,\n")
        return out.getvalue()


def solution_from_csv(text: str) -> SolutionTable:
    """Re-import a solution exported by ``SolutionTable.to_csv``.

    The model is not recoverable from the file; the returned table has
    ``model=None`` and ``solver_id='csv'``.
    """
    lines = text.strip().split("\n")
    if lines[0] != "b,v,J,mu_index,mu_value,delta,sigma":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    for n, r in enumerate(rows, start=2):
        if len(r) != 7:
            raise ValueError(f"line {n} has {len(r)} fields, expected 7")
    if len(rows) < 2:
        raise ValueError("no policy rows")
    *body, terminal = rows
    if terminal[0] != "0":
        raise ValueError("terminal row missing")
    B = max(int(r[0]) for r in body)
    V = int(terminal[1])
    if len(body) != B * V:
        raise ValueError(f"{len(body)} policy rows for the {B}x{V} state grid")
    J, delta, sigma = np.zeros((3, B + 1, V + 1))
    mu = np.zeros((B + 1, V + 1), dtype=int)
    seen = np.zeros((B + 1, V + 1), dtype=bool)
    for r in body:
        b, v = int(r[0]), int(r[1])
        if b < 1 or not 1 <= v <= V or seen[b, v]:
            raise ValueError(f"state ({b}, {v}) is repeated or outside the {B}x{V} grid")
        seen[b, v] = True
        J[b, v] = float(r[2])
        mu[b, v] = int(r[3])
        delta[b, v] = float(r[5])
        sigma[b, v] = float(r[6])
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma, solver_id="csv")


def _greedy(model: ValidatedModel, x: float) -> tuple[int, float]:
    """Smallest minimizer and minimum of c(s) - s*x over the action set."""
    obj = model.c - model.actions * x
    a = int(np.argmin(obj))  # first occurrence = smallest action
    return a, float(obj[a])


def g_map(model: ValidatedModel, x: float) -> int:
    """The non-decreasing selection x -> min argmin_s {c(s) - s*x}.

    The optimal policy factors through this single map: mu(b, v) is g
    evaluated at r(v) + sigma(b, v-1).
    """
    return _greedy(model, x)[0]


def apply_T(model: ValidatedModel, b: int, v: int, x: float) -> float:
    """One step of the increment operator: x + h(b) + min_s {c(s) - s[r(v)+x]}.

    Iterating this operator in v generates sigma(b, .); it is non-decreasing
    in x, which is what makes the in-b monotonicity argument go through.
    """
    _, m = _greedy(model, model.r_of(v) + x)
    # grouped as x + (h + m) to match the running sum in solve_recursive exactly
    return x + (model.h_of(b) + m)


def solve_recursive(model: ValidatedModel) -> SolutionTable:
    """Solve by the increment recursion, exact in B*V*|S| inner evaluations.

    For each b, delta(b, v) = h(b) + min_s {c(s) - s[r(v) + sigma(b, v-1)]}
    with sigma the running sum of delta; J is then assembled from the
    increments: J(b, 1) = J(b-1, V) + delta(b, 1) and
    J(b, v) = J(b, v-1) + delta(b, v).
    """
    B, V = model.B, model.V
    J = np.zeros((B + 1, V + 1))
    mu = np.zeros((B + 1, V + 1), dtype=int)
    delta = np.zeros((B + 1, V + 1))
    sigma = np.zeros((B + 1, V + 1))
    for b in range(1, B + 1):
        hb = model.h_of(b)
        sig = 0.0
        for v in range(1, V + 1):
            a, m = _greedy(model, model.r_of(v) + sig)
            d = hb + m
            delta[b, v] = d
            sig += d
            sigma[b, v] = sig
            mu[b, v] = a
        J[b, 1] = J[b - 1, V] + delta[b, 1]
        for v in range(2, V + 1):
            J[b, v] = J[b, v - 1] + delta[b, v]
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma,
                         solver_id="recursive", model=model)


def _action_values(model: ValidatedModel, J: np.ndarray, b: int, v: int) -> np.ndarray:
    """Expected cost of every action at (b, v): success moves to (b-1, V);
    failure decays to (b, v-1), or ejects to (b-1, V) when v = 1."""
    s = model.actions
    down = J[b - 1, model.V]
    cont = J[b, v - 1] if v > 1 else down
    return model.c + model.h_of(b) + s * (down - model.r_of(v)) + (1.0 - s) * cont


def bellman_backup(model: ValidatedModel, J: np.ndarray, b: int, v: int) -> tuple[float, int]:
    """One Bellman backup at (b, v) against the given J table: the minimal
    cost over actions and the smallest minimizing action index."""
    vals = _action_values(model, J, b, v)
    a = int(np.argmin(vals))
    return float(vals[a]), a


def _backward_pass(model: ValidatedModel, J: np.ndarray,
                   fixed: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """One in-place sweep in DAG order (b, then v, ascending), setting J[b, v]
    to the greedy minimum or to the value of action ``fixed[b, v]``.  Each
    state reads only (b, v-1) and (b-1, V), already final, so one pass is
    exact.  Returns the sup-norm change of J and the greedy policy."""
    mu = np.zeros(J.shape, dtype=int)
    residual = 0.0
    for b in range(1, model.B + 1):
        for v in range(1, model.V + 1):
            vals = _action_values(model, J, b, v)
            mu[b, v] = a = int(np.argmin(vals))
            new = float(vals[a if fixed is None else fixed[b, v]])
            residual = max(residual, abs(new - J[b, v]))
            J[b, v] = new
    return residual, mu


def _increments_from_J(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct delta and sigma from J differences."""
    delta = np.zeros(J.shape)
    delta[1:, 1] = J[1:, 1] - J[:-1, -1]
    delta[1:, 2:] = J[1:, 2:] - J[1:, 1:-1]
    return delta, np.cumsum(delta, axis=1)


def value_iteration(model: ValidatedModel, tol: float = 1e-9,
                    max_sweeps: int | None = None) -> SolutionTable:
    """Solve by in-place Bellman sweeps from J = 0.

    Each sweep is one backward pass, so the first sweep is already exact and
    the second certifies convergence; mu is the last sweep's greedy policy.
    ``max_sweeps`` defaults to B*V + 1, which bounds any sweep order since
    every episode ends within B*V slots.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_sweeps is None:
        max_sweeps = model.B * model.V + 1
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    J = np.zeros((model.B + 1, model.V + 1))
    residual = np.inf
    sweeps = 0
    while residual > tol:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"no convergence after {max_sweeps} sweeps; sup-norm residual {residual:g}"
            )
        residual, mu = _backward_pass(model, J)
        sweeps += 1
    delta, sigma = _increments_from_J(J)
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma,
                         solver_id="value_iteration", model=model, sweeps=sweeps)


def evaluate_policy(model: ValidatedModel, policy: PolicyTable) -> np.ndarray:
    """Exact expected total cost of a fixed policy: one backward pass."""
    J = np.zeros((model.B + 1, model.V + 1))
    _backward_pass(model, J, fixed=policy.action_index)
    return J


def policy_iteration(model: ValidatedModel) -> SolutionTable:
    """Solve by exact policy iteration from the all-lowest-action policy.

    Each iteration is one backward pass with the policy fixed: exact
    evaluation (no linear solve, no tolerance) whose greedy policy, with low
    ties, is the improvement.  Terminates because the policy space is finite
    and every policy is proper.
    """
    mu = np.zeros((model.B + 1, model.V + 1), dtype=int)
    J = np.zeros(mu.shape)
    iterations = 0
    while True:
        iterations += 1
        _, improved = _backward_pass(model, J, fixed=mu)
        if np.array_equal(improved, mu):
            break
        mu = improved
    delta, sigma = _increments_from_J(J)
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma,
                         solver_id="policy_iteration", model=model, sweeps=iterations)


def near_tie_states(solution: SolutionTable, window: float = 1e-12) -> list[tuple[int, int]]:
    """States where some non-chosen action comes within ``window`` of optimal.

    Diagnostic for float-sensitive tie-breaking; the solvers themselves use
    exact comparisons.
    """
    model = solution.model
    if model is None:
        raise ValueError("solution carries no model")
    out = []
    for b in range(1, solution.B + 1):
        for v in range(1, solution.V + 1):
            x = model.r_of(v) + solution.sigma[b, v - 1]
            obj = model.c - model.actions * x
            best = obj.min()
            if np.sum(obj <= best + window) > 1:
                out.append((b, v))
    return out
