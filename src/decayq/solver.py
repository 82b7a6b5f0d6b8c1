"""Optimal-policy solvers for the value-decay queue.

Three routes compute the optimal cost-to-go J and optimal policy mu:
``solve_recursive`` runs the increment recursion (delta/sigma), exact in
B*V*|S| evaluations; ``value_iteration`` runs one Bellman sweep from J = 0,
exact in DAG order, and counts a second, not run, when the first moved J by
more than 1e-9; ``policy_iteration`` alternates exact evaluation with greedy
improvement.  The recursion and the Bellman fixed point are independent;
the iterations reach that fixed point from different starts.  Both are
built on one exact fixed-policy pass in DAG order ((b, v) leads only to
(b, v-1) or (b-1, V)): a Python-float chain over table-wide gathers sets J,
then one blocked argmin gives the greedy policy, with the float operations
of a backup in its order.  A greedy sweep repeats the pass along the last
greedy policy until that is the policy followed.

Every solver returns the same ``SolutionTable`` contract, including the
increment tables delta and sigma (reconstructed from J differences when not
natively produced), so structural invariants can be tested uniformly.

State space: (b, v) with 1 <= b <= B, 1 <= v <= V, plus the cost-free
trapping state (0, V).  Ties in every argmin break to the smallest action.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

import numpy as np

from . import csvio
from .csvio import solution_from_csv
from .model import ValidatedModel, _check_state

__all__ = [
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

_BLOCK = 2 ** 16  # floats or states in one block of the passes: bounded memory


@dataclass(frozen=True)
class PolicyTable:
    """A stationary policy: an action index for every nonterminal state.

    ``action_index[b, v]`` is the chosen index into the action set; row 0
    and column 0 are padding and never read.
    """

    action_index: np.ndarray

    def s_at(self, b: int, v: int) -> int:
        return int(self.action_index[b, v])


@dataclass(frozen=True)
class SolutionTable:
    """Output of every solver: J, mu, and the increment tables.

    Arrays are indexed ``[b, v]`` with shape (B+1, V+1).  ``J[0, V]`` is the
    terminal entry (exactly 0); ``delta[:, 0]`` and ``sigma[:, 0]`` are the
    v = 0 boundary (exactly 0).  ``mu`` holds indices into the action set.
    J, delta and sigma are finite (``validate``'s cost-scale bound) or
    construction raises, and all four arrays are read-only from then on, so
    ``to_csv`` writes only what the import reads.
    """

    J: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    sigma: np.ndarray
    solver_id: str
    model: ValidatedModel | None = None
    sweeps: int = 0

    def __post_init__(self):
        finite = np.isfinite(self.J) & np.isfinite(self.delta) & np.isfinite(self.sigma)
        if not finite.all():
            b, v = np.argwhere(~finite)[0].tolist()
            raise ValueError(f"state ({b}, {v}) has a J, delta or sigma that is not finite")
        for table in (self.J, self.mu, self.delta, self.sigma):
            table.flags.writeable = False

    @property
    def B(self) -> int:
        return self.J.shape[0] - 1

    @property
    def V(self) -> int:
        return self.J.shape[1] - 1

    def policy(self) -> PolicyTable:
        return PolicyTable(action_index=self.mu)

    def to_csv(self) -> str:
        """Serialize in the CSV format of ``decayq.csvio``."""
        return csvio.to_csv(self)


def _objective(model: ValidatedModel, x) -> np.ndarray:
    """f(s, x) = c(s) - s*x, the objective the optimal policy minimizes; the
    result has shape x.shape + (|S|,)."""
    return model.c - model.actions * np.asarray(x)[..., None]


def g_map(model: ValidatedModel, x: float) -> int:
    """The non-decreasing selection x -> min argmin_s {c(s) - s*x}.

    The optimal policy factors through this single map: mu(b, v) is g
    evaluated at r(v) + sigma(b, v-1).
    """
    return int(np.argmin(_objective(model, x)))  # first occurrence = smallest action


def apply_T(model: ValidatedModel, b: int, v: int, x: float) -> float:
    """One step of the increment operator: x + h(b) + min_s {c(s) - s[r(v)+x]}.

    Iterating this operator in v generates sigma(b, .); it is non-decreasing
    in x, which is what makes the in-b monotonicity argument go through.
    """
    obj = _objective(model, model.r_of(v) + x)
    # the first minimum, grouped as x + (h + min) to match the running sum in
    # solve_recursive exactly
    return x + (model.h_of(b) + float(obj[np.argmin(obj)]))


def solve_recursive(model: ValidatedModel) -> SolutionTable:
    """Solve by the increment recursion, exact in B*V*|S| inner evaluations.

    For each b, delta(b, v) = h(b) + min_s {c(s) - s[r(v) + sigma(b, v-1)]}
    with sigma the running sum of delta; J is then assembled from the
    increments: J(b, 1) = J(b-1, V) + delta(b, 1) and
    J(b, v) = J(b, v-1) + delta(b, v).
    """
    B, V = model.B, model.V
    rows = np.arange(B)
    mu = np.zeros((B + 1, V + 1), dtype=int)
    delta = np.zeros((B + 1, V + 1))
    sigma = np.zeros((B + 1, V + 1))
    sig = np.zeros(B)  # sigma(b, v-1) of every row b
    for v in range(1, V + 1):
        obj = _objective(model, model.r[v - 1] + sig)
        a = np.argmin(obj, axis=1)  # first occurrence = smallest action
        d = model.h + obj[rows, a]
        sig = sig + d
        mu[1:, v], delta[1:, v], sigma[1:, v] = a, d, sig
    # In b-major order J is one running sum of delta from J(0, V) = 0.  The
    # sum starts at 0.0, not at delta(1, 1), so a -0.0 there gives J = +0.0.
    J = np.zeros((B + 1, V + 1))
    J[1:, 1:] = np.cumsum(np.concatenate(([0.0], delta[1:, 1:].ravel())))[1:].reshape(B, V)
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma,
                         solver_id="recursive", model=model)


def _action_values(model: ValidatedModel, J: np.ndarray, b, v) -> np.ndarray:
    """Every action's value at the states (b, v), broadcast, against J:
    ((c(s) + h(b)) + s*(down - r(v))) + (1-s)*cont with down = J(b-1, V)
    and cont = J(b, v-1), or down when v = 1.  Actions are the last axis."""
    down, s = J[b - 1, model.V], model.actions
    cont = np.where(v > 1, J[b, v - 1], down)
    return ((model.c + model.h[b - 1][..., None]) + s * (down - model.r[v - 1])[..., None]
            + (1.0 - s) * cont[..., None])


def bellman_backup(model: ValidatedModel, J: np.ndarray, b: int, v: int) -> tuple[float, int]:
    """One Bellman backup at (b, v) against the given J table: the minimal
    cost over actions and the smallest minimizing action index.  Success
    moves to (b-1, V); failure decays to (b, v-1), or ejects to (b-1, V)
    when v = 1."""
    _check_state(model, (b, v))
    vals = _action_values(model, J, b, v)
    a = int(np.argmin(vals))
    return float(vals[a]), a


def _check_policy(model: ValidatedModel, action_index: np.ndarray) -> None:
    """Reject a policy table unless it is an integer (B+1, V+1) array with an
    index in [0, |S|) at every nonterminal state (row 0 and column 0 are
    never read)."""
    k, shape = len(model.actions), (model.B + 1, model.V + 1)
    a = np.asarray(action_index)
    if a.shape != shape or a.dtype.kind not in "iu":
        raise ValueError(f"policy table must be an integer array of shape {shape}, "
                         f"not {a.dtype} of shape {a.shape}")
    if not (0 <= a[1:, 1:].min() and a[1:, 1:].max() < k):
        raise ValueError(f"policy action index outside [0, {k})")


def _fixed_chain(model: ValidatedModel, J: np.ndarray, fixed: np.ndarray) -> None:
    """Set J[b, v] to the value of action fixed[b, v] in DAG order.  Gathers
    over blocks of rows give Python floats, so a state is one Python line."""
    keep, r, V = 1.0 - model.actions, model.r.tolist(), model.V
    cont, step = J[0, V].item(), max(1, _BLOCK // V)  # rows per block
    for lo in range(1, model.B + 1, step):
        a, rows = fixed[lo:lo + step, 1:], []
        x = (model.c[a] + model.h[lo - 1:lo - 1 + step, None]).tolist()
        for xb, sb, kb in zip(x, model.actions[a].tolist(), keep[a].tolist()):
            down = cont  # J(b-1, V); v = 1 ejects there too
            rows.append([cont := (xs + ss * (down - rv)) + ks * cont
                         for xs, ss, ks, rv in zip(xb, sb, kb, r)])
        J[lo:lo + step, 1:] = rows


def _greedy_policy(model: ValidatedModel, J: np.ndarray) -> np.ndarray:
    """The greedy policy against J, one argmin per block of at most _BLOCK
    floats."""
    B, V, step = model.B, model.V, max(1, _BLOCK // len(model.c))  # states per block
    mu = np.zeros(J.shape, dtype=int)
    for lo in range(0, B * V, step):
        b, v = np.divmod(np.arange(lo, min(lo + step, B * V)), V)
        mu[b + 1, v + 1] = _action_values(model, J, b + 1, v + 1).argmin(axis=1)
    return mu


def _greedy_sweep(model: ValidatedModel, J: np.ndarray,
                  policy: np.ndarray) -> tuple[int, np.ndarray]:
    """One in-place greedy sweep in DAG order: fixed-policy passes, the first
    along ``policy`` and each later one along the greedy policy of the one
    before, until that is the policy followed.  Returns the pass count and
    the greedy policy.  The last pass has the greedy minima as J, bit for
    bit: by induction in DAG order each state's inputs are the greedy
    sweep's, and it follows their first minimum.  Each other pass's greedy
    policy is optimal through the first state where the one followed was
    not, so at most B*V + 1 passes run.  ``policy`` sets only how many;
    neither it nor J on entry, but for the terminal J[0, V], sets an output."""
    for passes in count(1):
        _fixed_chain(model, J, policy)
        mu = _greedy_policy(model, J)
        if np.array_equal(mu[1:, 1:], policy[1:, 1:]):
            return passes, mu
        policy = mu


def _swept_table(model: ValidatedModel, policy: np.ndarray, solver_id: str) -> SolutionTable:
    """One greedy sweep from J = 0 along ``policy`` and its table: delta and
    sigma from J differences, ``sweeps`` the pass count."""
    J = np.zeros((model.B + 1, model.V + 1))
    passes, mu = _greedy_sweep(model, J, policy)
    delta = np.zeros(J.shape)
    delta[1:, 1] = J[1:, 1] - J[:-1, -1]
    delta[1:, 2:] = J[1:, 2:] - J[1:, 1:-1]
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=np.cumsum(delta, axis=1),
                         solver_id=solver_id, model=model, sweeps=passes)


def value_iteration(model: ValidatedModel) -> SolutionTable:
    """Solve by in-place greedy sweeps from J = 0 until the residual is at
    most 1e-9.

    In DAG order a sweep reads only entries it has already set, so its J does
    not depend on the J it starts from: sweep 1 is exact, and its residual
    is max|J|.  When that exceeds 1e-9, sweep 2 is counted, not run: it would
    follow sweep 1's certified policy and redo its last pass, residual 0.
    So ``sweeps`` is 1 exactly when every |J| is within 1e-9.  The sweep
    starts from ``solve_recursive``'s policy, so it is usually one pass.
    That start sets only how many passes run, never an output, so the
    result does not rest on the recursion.
    """
    table = _swept_table(model, solve_recursive(model).mu, "value_iteration")
    return replace(table, sweeps=1 if np.abs(table.J).max() <= 1e-9 else 2)


def evaluate_policy(model: ValidatedModel, policy: PolicyTable) -> np.ndarray:
    """Exact expected total cost of a fixed policy: one fixed-policy chain."""
    _check_policy(model, policy.action_index)
    J = np.zeros((model.B + 1, model.V + 1))
    _fixed_chain(model, J, policy.action_index)
    return J


def policy_iteration(model: ValidatedModel) -> SolutionTable:
    """Solve by exact policy iteration from the all-lowest-action policy.

    Each iteration is one fixed-policy pass: exact evaluation (no linear
    solve, no tolerance) whose greedy policy, with low ties, is the
    improvement.  These are the passes of one greedy sweep, so at most
    B*V + 1 iterations run.
    """
    shape = (model.B + 1, model.V + 1)
    return _swept_table(model, np.zeros(shape, dtype=int), "policy_iteration")


def near_tie_states(solution: SolutionTable, window: float = 1e-12) -> list[tuple[int, int]]:
    """States where some non-chosen action comes within ``window`` of optimal.

    Diagnostic for float-sensitive tie-breaking; the solvers themselves use
    exact comparisons.
    """
    model = solution.model
    if model is None:
        raise ValueError("solution carries no model")
    if not window >= 0:
        raise ValueError(f"window must be >= 0, not {window!r}")
    near = np.zeros((solution.B, solution.V), dtype=bool)
    for v in range(1, solution.V + 1):
        obj = _objective(model, model.r[v - 1] + solution.sigma[1:, v - 1])
        best = obj.min(axis=1)
        near[:, v - 1] = np.sum(obj <= (best + window)[:, None], axis=1) > 1
    return [(b, v) for b, v in (np.argwhere(near) + 1).tolist()]
