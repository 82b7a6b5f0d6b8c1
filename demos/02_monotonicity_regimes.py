"""The four qualitative policy regimes and the algebraic direction tests.

All four built-in presets share h(b) = b, c(s) = 5 ln(1/(1-s)), B = 20,
V = 10; only the reward function and the action menu change, yet the way
the optimal service rate responds to value decay is completely different.
"""

from decayq import (
    ActionSet,
    CostSpec,
    Guarantee,
    ModelConfig,
    check_constant_reward,
    classify_policy,
    solve_recursive,
    validate,
)
from decayq.presets import FIGURE_PRESETS, check_regime

for preset in FIGURE_PRESETS:
    model = validate(preset.config)
    solution = solve_recursive(model)
    report = classify_policy(solution)
    failures = check_regime(preset, report)
    print(f"\npreset {preset.id}: {preset.description}")
    print(f"  in-b verdict: {report.in_b_verdict}")
    dirs = sorted({rc.direction.value for rc in report.per_b_in_v.values()})
    print(f"  in-v row directions seen: {dirs}")
    print(f"  regime confirmed: {not failures}")
    # the sufficient in-v condition, evaluated without looking at the policy
    t2 = [g.value for g in report.theorem2_per_b.values()]
    conclusive = sum(g != "Inconclusive" for g in t2)
    print(f"  delta-condition verdicts: {conclusive}/{len(t2)} rows conclusive")

# --- constant rewards: one inequality decides the direction ----------------
# q(b) = h(b) + min_s {c(s) - s*rbar} positive -> give up as value decays;
# negative -> try harder.  Crossing zero in b flips the behavior mid-table.
const = ModelConfig(
    B=12,
    V=6,
    actions=ActionSet((0.3, 0.6, 0.9)),
    holding=CostSpec("linear", params=(1.0,)),
    service_cost=CostSpec("log_barrier", params=(3.0,)),
    reward=CostSpec("constant", params=(9.0,)),
)
m = validate(const)
sol = solve_recursive(m)
rep = classify_policy(sol)
print("\nconstant reward rbar = 9:")
for b in range(1, m.B + 1):
    g = check_constant_reward(m, b)
    arrow = {Guarantee.NON_DECREASING: "gives up",
             Guarantee.NON_INCREASING: "tries harder",
             Guarantee.BOTH: "indifferent"}[g]
    print(f"  b={b:2d}: predicted {g.value:<24} ({arrow:12s}) "
          f"observed {rep.per_b_in_v[b].direction.value}")
