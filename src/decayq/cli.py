"""Command-line entry point.

Subcommands:

  solve     solve one config and export the solution table as CSV
  check     solve and print the monotonicity report as JSON
  simulate  solve, then Monte Carlo validate J(B, V) under the optimal policy
  figures   reproduce the four built-in example regimes into a directory

All outputs are pure functions of (config, flags, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .model import ConfigError, ValidatedModel, ValidationError, load_config, validate
from .monotone import classify_policy
from .presets import FIGURE_PRESETS, check_regime
from .sim import mc_estimate
from .solver import SolutionTable, policy_iteration, solve_recursive, value_iteration

# --solver name -> (solve(model), stdout label of solution.sweeps).  Each
# lambda looks its solver up at call time, so wrappers set on these names run.
_SOLVERS = {
    "recursive": (lambda model: solve_recursive(model), None),
    "vi": (lambda model: value_iteration(model), "sweeps"),
    "pi": (lambda model: policy_iteration(model), "iterations"),
}


def _load_model(path: str) -> ValidatedModel:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return validate(load_config(text))


def _write_atomic(path: str, data: str):
    """Write a temporary file beside ``path``, then rename it into place: a
    failed write leaves no partial file and any existing file unchanged."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _boundaries(solution: SolutionTable) -> dict:
    """Adjacent state pairs where the optimal action changes.

    These are the cell edges that segment the policy plot into constant
    regions, in both the v direction (within a row) and the b direction.
    """
    mu = solution.mu
    in_v = [{"from": [b, v], "to": [b, v + 1], "mu_from": f, "mu_to": t}
            for b, v, f, t in _changes(mu[1:, 1:-1], mu[1:, 2:])]
    in_b = [{"from": [b, v], "to": [b + 1, v], "mu_from": f, "mu_to": t}
            for v, b, f, t in _changes(mu[1:-1, 1:].T, mu[2:, 1:].T)]
    return {"in_v": in_v, "in_b": in_b}


def _changes(before, after) -> list[list[int]]:
    """[i, j, before, after] (1-based) wherever two equal-shape tables
    differ, in row-major order."""
    at = np.argwhere(before != after)
    i, j = at.T
    return np.column_stack([at + 1, before[i, j], after[i, j]]).tolist()


def cmd_solve(args) -> int:
    model = _load_model(args.config)
    solve, counter = _SOLVERS[args.solver]
    solution = solve(model)
    _write_atomic(args.out, solution.to_csv())
    B, V = model.B, model.V
    print(f"solver: {solution.solver_id}")
    print(f"states: {B * V + 1}  actions: {len(model.actions)}")
    if counter:
        print(f"{counter}: {solution.sweeps}")
    print(f"J({B},{V}) = {float(solution.J[B, V])!r}")
    return 0


def cmd_check(args) -> int:
    model = _load_model(args.config)
    report = classify_policy(solve_recursive(model))
    print(report.to_json())
    return 0 if report.in_b_ok else 1


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    model = _load_model(args.config)
    solution = solve_recursive(model)
    B, V = model.B, model.V
    est = mc_estimate(model, solution.policy(), (B, V), args.n, args.seed)
    print(f"J({B},{V})        = {float(solution.J[B, V])!r}")
    print(f"MC mean         = {est.mean!r}")
    print(f"MC std_error    = {est.std_error!r}")
    print(f"n = {est.n}  seed = {est.seed}")
    gap = abs(est.mean - solution.J[B, V])
    print("|mean - J| / std_error = "
          + (f"{gap / est.std_error:.3f}" if est.std_error else "n/a (std_error is 0)"))
    return 0


def cmd_figures(args) -> int:
    out_dir = args.out
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        raise ConfigError(f"{out_dir!r} is not a writable directory")
    manifest = {}
    failures = []
    for preset in FIGURE_PRESETS:
        model = validate(preset.config)
        solution = solve_recursive(model)
        report = classify_policy(solution)
        regime_failures = check_regime(preset, report)
        failures.extend(f"{preset.id}: {msg}" for msg in regime_failures)

        policy_file = f"{preset.id}_policy.csv"
        boundary_file = f"{preset.id}_boundaries.json"
        report_file = f"{preset.id}_report.json"
        _write_atomic(os.path.join(out_dir, policy_file), solution.to_csv())
        _write_atomic(os.path.join(out_dir, boundary_file),
                      json.dumps(_boundaries(solution), indent=2) + "\n")
        _write_atomic(os.path.join(out_dir, report_file), report.to_json() + "\n")
        manifest[preset.id] = {
            "description": preset.description,
            "expected_in_v_regime": preset.in_v_regime,
            "regime_confirmed": not regime_failures,
            "J_initial": float(solution.J[model.B, model.V]),
            "files": [policy_file, boundary_file, report_file],
        }
        status = "ok" if not regime_failures else "FAILED"
        print(f"{preset.id}: {status}  J({model.B},{model.V}) = "
              f"{float(solution.J[model.B, model.V])!r}")
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for msg in failures:
        print(f"regime assertion failed: {msg}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decayq",
        description="Optimal service-rate control for jobs with decaying value.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a config and export CSV")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--solver", choices=sorted(_SOLVERS), default="recursive")
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="solve and print the monotonicity report")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="Monte Carlo validation of J(B, V)")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--n", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figures", help="reproduce the built-in example regimes")
    p_fig.add_argument("--out", required=True, help="output directory (must exist)")
    p_fig.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, OSError) as exc:  # OSError: an output write failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
