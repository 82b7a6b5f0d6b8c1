"""The three benchmark workloads: seeded inputs, command rounds, output checks.

A workload writes its config files, then issues a fixed round of CLI
commands again and again.  Every command's output is checked after its
timing has been taken; a check result is cached by the SHA-256 of the
output, so a repeated identical output is not re-verified at full cost.

Why these workloads (each stresses a different layer):

  solve_large  `solve --solver recursive` and `check` on 200x100x10
               instances, plus one `figures` on the four fixed 20x10
               presets: the per-state Python loops of solve_recursive,
               to_csv and classify_policy dominate; `figures` adds many
               tiny arrays, the CLI's own work and 13 small writes.
  crosscheck   `solve --solver vi` and `--solver pi` on 60x40x8 instances:
               Bellman backups dominate and the recursive path never runs.
  simulate     `simulate` at the CLI default n = 100000 on 20x10x3
               instances: mc_estimate and its n*B*V noise matrix dominate
               time and memory.

`figures` is not a workload of its own: at 15 to 30 ms a command its
times follow the host's speed swings more than the program (the spread of
its per-run statistics over identical inputs was 20% to 50%), so it runs
once per solve_large round, where it exercises the same layers on small
inputs and its artifacts are still checked against the pins.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

# A z-score this far out has probability below 2e-9 for a correct estimator.
Z_BOUND = 6.0
VI_PI_TOL = 1e-9
MC_EPISODES = 100_000  # the CLI default; the benchmark never passes --n

# (B, V, |S|, instances per round) of the seeded workloads.  Every worker
# process of a run gets the same instances, so each command of the round is
# timed many times in a run.  crosscheck gets the most: policy iteration
# takes 2 iterations on about three instances in four and up to 6 on the
# rest, so a run's work depends on its mix, and a larger mix varies less
# from seed to seed.
SHAPES = {
    "solve_large": (200, 100, 10, 3),
    "crosscheck": (60, 40, 8, 15),
    "simulate": (20, 10, 3, 5),
}

_FIELD_KINDS = {
    # log_barrier diverges at x >= 1, so it only fits the service cost
    "holding": ("linear", "affine", "constant", "log", "table"),
    "service_cost": ("linear", "affine", "constant", "log_barrier", "log", "table"),
    "reward": ("linear", "affine", "constant", "log", "table"),
}


def _cost_spec(rng: np.random.Generator, kind: str, size: int) -> dict:
    """A non-decreasing, strictly positive cost family, so that every
    instance meets the standing assumptions and `check` exits 0."""
    if kind == "table":
        values = rng.uniform(0.1, 3.0) + np.cumsum(rng.uniform(0.0, 2.0, size))
        return {"kind": "table", "values": [float(x) for x in values]}
    params = {
        "linear": lambda: [rng.uniform(0.5, 2.0)],
        "affine": lambda: [rng.uniform(0.0, 1.0), rng.uniform(0.5, 30.0)],
        "constant": lambda: [rng.uniform(1.0, 30.0)],
        "log_barrier": lambda: [rng.uniform(1.0, 10.0)],
        "log": lambda: [rng.uniform(1.0, 10.0)],
    }[kind]()
    return {"kind": kind, "params": [float(x) for x in params]}


def sample_like_config(rng: np.random.Generator) -> dict:
    """demos/sample_config.json with its cost parameters seeded within 20%.

    Monte Carlo time grows with the episode length, which the policy sets;
    near the sample the expected length stays within 25 to 30 slots, so the
    seed changes the work of a run little.
    """
    return {"B": 20, "V": 10, "actions": [0.1, 0.5, 0.9],
            "holding": {"kind": "linear", "params": [rng.uniform(0.8, 1.2)]},
            "service_cost": {"kind": "log_barrier", "params": [rng.uniform(4.0, 6.0)]},
            "reward": {"kind": "affine",
                       "params": [rng.uniform(0.8, 1.2), rng.uniform(0.0, 1.0)]}}


def make_config(rng: np.random.Generator, B: int, V: int, S: int) -> dict:
    """One seeded instance document in the CLI's config schema."""
    actions = np.unique(np.round(rng.uniform(0.02, 0.97, S), 4))
    while len(actions) < S:
        actions = np.unique(np.round(rng.uniform(0.02, 0.97, S), 4))
    sizes = {"holding": B, "service_cost": S, "reward": V}
    doc = {"B": B, "V": V, "actions": [float(a) for a in actions]}
    for name, kinds in _FIELD_KINDS.items():
        doc[name] = _cost_spec(rng, kinds[int(rng.integers(len(kinds)))], sizes[name])
    return doc


def golden_pins(root: str) -> dict[str, str]:
    """The figures artifact pins, read from the one copy in the test suite."""
    path = os.path.join(root, "tests", "test_golden.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "GOLDEN_SHA256"):
            return ast.literal_eval(node.value)
    raise LookupError(f"GOLDEN_SHA256 not found in {path}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """decayq.cli.main in-process with stdout and stderr captured."""
    from decayq import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_digest(J: np.ndarray) -> str:
    return _sha256(np.ascontiguousarray(J, dtype=np.float64).tobytes())


@dataclass
class Instance:
    """One config file and its untimed reference results."""

    id: str
    path: str
    doc: dict
    mc_seed: int = 0
    _model: object = None
    _ref: object = None
    _report: str | None = None

    @property
    def states(self) -> int:
        return self.doc["B"] * self.doc["V"]

    def model(self):
        if self._model is None:
            from decayq import load_config, validate
            with open(self.path, encoding="utf-8") as f:
                self._model = validate(load_config(f.read()))
        return self._model

    def reference(self):
        if self._ref is None:
            from decayq import solve_recursive
            self._ref = solve_recursive(self.model())
        return self._ref

    def report_json(self) -> str:
        if self._report is None:
            from decayq import classify_policy
            self._report = classify_policy(self.reference()).to_json()
        return self._report


@dataclass
class Command:
    """One CLI invocation of a round and the work it does (states or episodes).

    ``kind`` selects the output check; ``out_path`` is the CSV it writes.
    """

    kind: str
    argv: list[str]
    instance: Instance | None
    work: int
    out_path: str | None = None


@dataclass
class Workload:
    """A workload's command round, its instances and its output checks."""

    work_unit: str
    commands: list[Command]
    instances: list[Instance]
    root: str
    digests: dict[str, dict] = field(default_factory=dict)
    _verified: dict[tuple, bool] = field(default_factory=dict)

    def check(self, cmd: Command, rc: int, stdout: str) -> bool:
        """Verify one command's exit code, stdout and files."""
        if rc != 0:
            return False
        check = getattr(self, "_check_" + cmd.kind.split("_")[0])
        try:
            payload = b""
            if cmd.out_path is not None:
                with open(cmd.out_path, "rb") as f:
                    payload = f.read()
            elif cmd.kind == "figures":
                payload = _dir_bytes(cmd.argv[-1])
            key = (cmd.kind, cmd.instance.id if cmd.instance else "",
                   _sha256(stdout.encode()), _sha256(payload))
            if key not in self._verified:
                self._verified[key] = check(cmd, stdout, payload)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # missing or malformed output; UnicodeDecodeError is a ValueError
            print(f"check of {cmd.argv} raised {exc!r}", file=sys.stderr)
            return False
        return self._verified[key]

    def reference_solutions(self) -> list:
        """Untimed reference solves, one per seeded instance."""
        return [inst.reference() for inst in self.instances]

    def _record(self, key: str, J_BV: float, table: np.ndarray | None = None):
        entry = {"J_BV": repr(J_BV)}
        if table is not None:
            entry["J_sha256"] = _table_digest(table)
        self.digests.setdefault(key, entry)

    def _check_solve(self, cmd: Command, stdout: str, payload: bytes) -> bool:
        from decayq import solution_from_csv

        inst = cmd.instance
        ref = inst.reference()
        B, V = inst.doc["B"], inst.doc["V"]
        text = payload.decode("ascii")
        parsed = solution_from_csv(text)
        solver = cmd.argv[cmd.argv.index("--solver") + 1]
        self._record(f"{inst.id}/{solver}", float(parsed.J[B, V]), parsed.J)
        if f"J({B},{V}) = {float(parsed.J[B, V])!r}" not in stdout.splitlines():
            return False
        if parsed.J.shape != ref.J.shape or not np.array_equal(parsed.mu, ref.mu):
            return False
        if solver != "recursive":
            return bool(np.max(np.abs(parsed.J - ref.J)) <= VI_PI_TOL)
        # the file parses back to exactly the reference arrays, and the
        # reference exports to exactly this file: an exact round trip
        return (all(np.array_equal(getattr(parsed, a), getattr(ref, a))
                    for a in ("J", "delta", "sigma"))
                and text == ref.to_csv())

    def _check_check(self, cmd: Command, stdout: str, payload: bytes) -> bool:
        return stdout == cmd.instance.report_json() + "\n"

    def _check_simulate(self, cmd: Command, stdout: str, payload: bytes) -> bool:
        inst = cmd.instance
        B, V = inst.doc["B"], inst.doc["V"]
        J = float(inst.reference().J[B, V])
        fields = dict(line.split("=", 1) for line in stdout.splitlines()[:3])
        fields = {k.strip(): v.strip() for k, v in fields.items()}
        self._record(inst.id, float(fields[f"J({B},{V})"]))
        if fields[f"J({B},{V})"] != repr(J):
            return False
        mean, se = float(fields["MC mean"]), float(fields["MC std_error"])
        if f"n = {MC_EPISODES}  seed = {inst.mc_seed}" not in stdout:
            return False
        return se > 0 and math.isfinite(mean) and abs(mean - J) / se <= Z_BOUND

    def _check_figures(self, cmd: Command, stdout: str, payload: bytes) -> bool:
        from decayq import solution_from_csv

        out_dir = cmd.argv[-1]
        pins = golden_pins(self.root)
        if sorted(os.listdir(out_dir)) != sorted(pins):
            return False
        for name, digest in pins.items():
            with open(os.path.join(out_dir, name), "rb") as f:
                data = f.read()
            if _sha256(data) != digest:
                return False
            if name.endswith("_policy.csv"):
                J = solution_from_csv(data.decode("ascii")).J
                self._record(name.split("_")[0], float(J[-1, -1]), J)
        return True


def _dir_bytes(path: str) -> bytes:
    parts = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            parts.append(name.encode() + b"\0" + f.read())
    return b"\0\0".join(parts)


def _seeded_instances(name: str, seed: int, workdir: str) -> list[Instance]:
    B, V, S, count = SHAPES[name]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(name)])
    instances = []
    for i in range(count):
        doc = sample_like_config(rng) if name == "simulate" else make_config(rng, B, V, S)
        path = os.path.join(workdir, f"{name}_{i}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        instances.append(Instance(id=f"i{i}", path=path, doc=doc,
                                  mc_seed=int(rng.integers(2**31))))
    return instances


def _figures_command(workdir: str) -> Command:
    from decayq import FIGURE_PRESETS

    out_dir = os.path.join(workdir, "figures")
    os.mkdir(out_dir)
    work = sum(p.config.B * p.config.V for p in FIGURE_PRESETS)
    return Command("figures", ["figures", "--out", out_dir], None, work)


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    """Write the inputs of workload ``name`` and return its round.

    The inputs depend only on the seed: every worker process of a run, and
    every run with the same seed, gets the same instances.
    """
    if name not in SHAPES:
        raise KeyError(f"unknown workload {name!r}")
    instances = _seeded_instances(name, seed, workdir)
    commands = []
    for inst in instances:
        csv = os.path.join(workdir, f"{inst.id}.csv")
        base = ["--config", inst.path]
        if name == "solve_large":
            commands += [
                Command("solve", ["solve", *base, "--solver", "recursive", "--out", csv],
                        inst, inst.states, csv),
                Command("check", ["check", *base], inst, inst.states),
            ]
        elif name == "crosscheck":
            commands += [
                Command("solve_vi", ["solve", *base, "--solver", "vi", "--out", csv],
                        inst, inst.states, csv),
                Command("solve_pi", ["solve", *base, "--solver", "pi", "--out", csv],
                        inst, inst.states, csv),
            ]
        else:
            commands.append(Command("simulate", ["simulate", *base, "--seed", str(inst.mc_seed)],
                                    inst, MC_EPISODES))
    if name == "solve_large":
        commands.append(_figures_command(workdir))
    unit = "episodes/s" if name == "simulate" else "states/s"
    return Workload(unit, commands, instances, root)
