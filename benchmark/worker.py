"""One fresh benchmark process: set up, run timed rounds, check, report.

Started by run.py with the launch time ``--t0`` (time.monotonic, which is
system-wide), so setup_s covers interpreter start, importing decayq.cli,
writing the seeded configs and one warm-up command.  The result is one JSON
object on the last line of stdout.

Untraced mode runs whole rounds until the timed command time reaches
``--seconds``.  Traced mode runs an untraced and a traced round in turn, so
each traced command has an untraced twin for the overhead estimate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import decayq.cli  # noqa: F401  (import cost belongs to set-up)
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, ROOT)
        warm = wl.commands[0]
        rc, out, _ = workloads.run_cli(warm.argv)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "attempted": 1, "failed": 0,
                  "warmup_ok": wl.check(warm, rc, out)}
        result["failed"] += not result["warmup_ok"]
        if args.trace:
            result.update(_traced_rounds(wl, args.seconds, result))
        else:
            result.update(_untraced_rounds(wl, args.seconds, result))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["work_unit"] = wl.work_unit
        result["digests"] = wl.digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _timed(wl, cmd, result, tracer=None) -> float:
    """Run one command, time it, then check it outside the timed region.

    With a tracer the command runs inside a root span "cli" with the
    wrappers installed; the check runs after they are removed again.
    """
    from workloads import run_cli

    if tracer is None:
        t = time.perf_counter()
        rc, out, _ = run_cli(cmd.argv)
        elapsed = time.perf_counter() - t
    else:
        with tracer:
            t = time.perf_counter()
            rc, out, _ = tracer.call("cli", run_cli, cmd.argv)
            elapsed = time.perf_counter() - t
    result["attempted"] += 1
    result["failed"] += not wl.check(cmd, rc, out)
    return elapsed


def _more(spent: float, last_round: float, seconds: float) -> bool:
    """Whole rounds only; stop where the next round would overshoot most."""
    return spent == 0.0 or spent + last_round / 2 < seconds


def _untraced_rounds(wl, seconds: float, result) -> dict:
    samples = []  # (kind, position in the round, seconds, work)
    spent = last = 0.0
    while _more(spent, last, seconds):
        last = 0.0
        for pos, cmd in enumerate(wl.commands):
            dt = _timed(wl, cmd, result)
            samples.append((cmd.kind, pos, dt, cmd.work))
            last += dt
        spent += last
    return {"samples": samples}


def _traced_rounds(wl, seconds: float, result) -> dict:
    import decayq.solver as solver
    from tracer import Tracer

    tracer = Tracer()
    paired = []  # traced minus untraced time of the same command
    commands = 0
    spent = last = 0.0
    while _more(spent, last, seconds):
        # alternate which round runs first, so order effects cancel
        traced_first = commands // len(wl.commands) % 2 == 1
        times = {}
        for with_trace in ((True, False) if traced_first else (False, True)):
            times[with_trace] = [_timed(wl, cmd, result, tracer if with_trace else None)
                                 for cmd in wl.commands]
        plain, traced = times[False], times[True]
        paired += [t - u for t, u in zip(traced, plain)]
        commands += len(wl.commands)
        last = sum(plain) + sum(traced)
        spent += last
    # no CLI command calls these two; time them on each reference solution
    probes = [(ref, ref.to_csv()) for ref in wl.reference_solutions()]
    with tracer:
        for ref, csv in probes:
            solver.solution_from_csv(csv)
            solver.near_tie_states(ref)
    return {"commands": commands, "probes": len(probes), "overhead": paired,
            "self_s": tracer.self_times(), "calls": tracer.calls(),
            "counts": dict(tracer.counts),
            "noise_useful_ratio": tracer.counts.noise_useful_ratio()}


if __name__ == "__main__":
    sys.exit(main())
