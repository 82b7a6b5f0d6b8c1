"""Solve one instance three ways and inspect the structure of the solution.

The model: 8 jobs, initial value 5, action menu {0.2, 0.5, 0.8}, holding
cost h(b) = b, service cost 2*ln(1/(1-s)), completion reward r(v) = 2v.
"""

import numpy as np

from decayq import (
    ActionSet,
    CostSpec,
    ModelConfig,
    apply_T,
    g_map,
    policy_iteration,
    solve_recursive,
    validate,
    value_iteration,
)

config = ModelConfig(
    B=8,
    V=5,
    actions=ActionSet((0.2, 0.5, 0.8)),
    holding=CostSpec("linear", params=(1.0,)),
    service_cost=CostSpec("log_barrier", params=(2.0,)),
    reward=CostSpec("affine", params=(2.0, 0.0)),
)
model = validate(config)
print("assumption flags:", model.flags)

# --- three solvers, one answer -------------------------------------------
rec = solve_recursive(model)
vi = value_iteration(model)
pi = policy_iteration(model)
print(f"\nJ(8,5) recursive        = {rec.J[8, 5]:.6f}")
print(f"J(8,5) value iteration  = {vi.J[8, 5]:.6f}   (sweeps: {vi.sweeps})")
print(f"J(8,5) policy iteration = {pi.J[8, 5]:.6f}   (iterations: {pi.sweeps})")
assert np.abs(rec.J - vi.J).max() < 1e-9
assert np.array_equal(rec.mu[1:, 1:], pi.mu[1:, 1:])

# --- the optimal policy as a table (rows: b, columns: v) ------------------
print("\noptimal action index mu(b, v):")
print("      v=" + "  ".join(f"{v}" for v in range(1, 6)))
for b in range(1, 9):
    print(f"  b={b}:  " + "  ".join(str(rec.mu[b, v]) for v in range(1, 6)))

# --- the increments behind the scenes -------------------------------------
# J is assembled purely from the per-row increments delta, and the policy
# factors through one non-decreasing map g of the scalar r(v) + sigma(b, v-1).
b = 4
print(f"\nrow b={b}: delta = {np.round(rec.delta[b, 1:], 4)}")
print(f"row b={b}: sigma = {np.round(rec.sigma[b, 1:], 4)}")
for v in range(1, 6):
    x = model.r[v - 1] + rec.sigma[b, v - 1]
    assert rec.mu[b, v] == g_map(model, x)
    assert apply_T(model, b, v, rec.sigma[b, v - 1]) == rec.sigma[b, v]
print("policy factorization and operator identity verified on that row")

# --- CSV export ------------------------------------------------------------
print("\nfirst lines of the CSV export:")
print("\n".join(rec.to_csv().splitlines()[:4]))
