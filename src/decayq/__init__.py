"""Solver, structural analyzer, and simulator for the single-server queue
with value-decaying jobs."""

from .model import (
    ActionSet,
    AssumptionFlags,
    ConfigError,
    CostSpec,
    ModelConfig,
    ValidatedModel,
    ValidationError,
    load_config,
    materialize,
    validate,
)
from .monotone import (
    Direction,
    Guarantee,
    MonotonicityReport,
    RowClass,
    SubmodularityResult,
    check_constant_reward,
    check_delta_conditions,
    check_submodular,
    classify_policy,
)
from .presets import FIGURE_PRESETS, FigurePreset, check_regime, preset_by_id
from .sim import (
    EstimateResult,
    Event,
    Step,
    Trajectory,
    mc_estimate,
    simulate_episode,
    step,
)
from .solver import (
    PolicyTable,
    SolutionTable,
    apply_T,
    bellman_backup,
    evaluate_policy,
    g_map,
    near_tie_states,
    policy_iteration,
    solution_from_csv,
    solve_recursive,
    value_iteration,
)

__version__ = "0.1.0"
