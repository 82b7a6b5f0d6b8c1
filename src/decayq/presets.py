"""The four built-in example instances and their expected policy regimes.

All four share B = 20, V = 10, holding cost h(b) = b, and service cost
c(s) = 5 ln(1/(1-s)); they differ in the reward function and action menu,
which is enough to produce qualitatively different in-v policy structure:

  1a  reward v,          actions {0.1, 0.5, 0.9}   -> give up as value decays
  1b  reward v/10 + 25,  actions {0.6, 0.7, 0.8}   -> try harder as value decays
  1c  reward v/10 + 20,  actions {0.6, 0.7, 0.9}   -> direction depends on b
  1d  reward 5 ln(1+v),  actions {0.700, 0.705, 0.710} -> non-monotone at b = 5

In every regime the in-b direction is non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ActionSet, CostSpec, ModelConfig
from .monotone import Direction, MonotonicityReport

__all__ = ["FIGURE_PRESETS", "FigurePreset", "check_regime", "preset_by_id"]


@dataclass(frozen=True)
class FigurePreset:
    id: str
    config: ModelConfig
    # in-v claim over the per-b rows: see check_regime
    in_v_regime: str
    description: str


def _config(actions: tuple[float, ...], reward: CostSpec) -> ModelConfig:
    return ModelConfig(
        B=20,
        V=10,
        actions=ActionSet(actions),
        holding=CostSpec("linear", params=(1.0,)),
        service_cost=CostSpec("log_barrier", params=(5.0,)),
        reward=reward,
    )


FIGURE_PRESETS: tuple[FigurePreset, ...] = (
    FigurePreset(
        id="1a",
        config=_config((0.1, 0.5, 0.9), CostSpec("affine", params=(1.0, 0.0))),
        in_v_regime="all_nondecreasing",
        description="reward v, sparse action menu: server gives up on decayed jobs",
    ),
    FigurePreset(
        id="1b",
        config=_config((0.6, 0.7, 0.8), CostSpec("affine", params=(0.1, 25.0))),
        in_v_regime="all_nonincreasing",
        description="large flat-ish reward: server tries harder as value decays",
    ),
    FigurePreset(
        id="1c",
        config=_config((0.6, 0.7, 0.9), CostSpec("affine", params=(0.1, 20.0))),
        in_v_regime="varies_with_b",
        description="in-v direction depends on the number of jobs remaining",
    ),
    FigurePreset(
        id="1d",
        config=_config((0.700, 0.705, 0.710), CostSpec("log", params=(5.0,))),
        in_v_regime="mixed_at_b5",
        description="log reward, near-flat actions: row b=5 is non-monotone",
    ),
)


def preset_by_id(preset_id: str) -> FigurePreset:
    for p in FIGURE_PRESETS:
        if p.id == preset_id:
            return p
    raise KeyError(f"no preset {preset_id!r}")


def check_regime(preset: FigurePreset, report: MonotonicityReport) -> list[str]:
    """Return the list of violated regime claims (empty = regime confirmed).

    Constant rows count as both non-decreasing and non-increasing.
    """
    failures = []
    if not report.in_b_ok:
        failures.append(f"in-b verdict {report.in_b_verdict}, expected NonDecreasing")
    rows = report.per_b_in_v
    dirs = {b: rc.direction for b, rc in rows.items()}
    if preset.in_v_regime == "all_nondecreasing":
        bad = [b for b, d in dirs.items()
               if d not in (Direction.NON_DECREASING, Direction.CONSTANT)]
        if bad:
            failures.append(f"rows {bad} not non-decreasing in v")
    elif preset.in_v_regime == "all_nonincreasing":
        bad = [b for b, d in dirs.items()
               if d not in (Direction.NON_INCREASING, Direction.CONSTANT)]
        if bad:
            failures.append(f"rows {bad} not non-increasing in v")
    elif preset.in_v_regime == "varies_with_b":
        values = set(dirs.values())
        if not (Direction.NON_DECREASING in values and Direction.NON_INCREASING in values):
            failures.append("expected both strictly non-decreasing and "
                            "non-increasing rows across b")
    elif preset.in_v_regime == "mixed_at_b5":
        if dirs.get(5) is not Direction.MIXED:
            failures.append(f"row b=5 classified {dirs.get(5)}, expected Mixed")
    else:
        raise ValueError(f"unknown regime {preset.in_v_regime!r}")
    return failures
