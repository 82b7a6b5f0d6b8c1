"""The solution CSV format: ``to_csv`` writes it, ``solution_from_csv`` reads it.

The header ``b,v,J,mu_index,mu_value,delta,sigma``, the B*V policy rows in
b-major order and the terminal row ``0,V,0,,,,`` (the grid's V) each end in
one newline, with nothing before or after.  Floats are shortest round-trip
``repr``s, so equal solutions give equal bytes; the model is not in the file.
The import reads exactly this layout: b-major rows only, and no whitespace,
'_' or non-ASCII character, which ``int`` and ``float`` would take."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

# What int and float take in a number text but to_csv never writes: '_' (1_0),
# ASCII whitespace but the row separator, and any non-ASCII character (١).
_NOT_WRITTEN = "_ \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
# The CSV format's fixed lines: its header and its last row, V being the grid's.
_CSV_HEADER, _CSV_TERMINAL = "b,v,J,mu_index,mu_value,delta,sigma", "0,V,0,,,,"
# States from which to_csv formats half of its rows in a forked child.  On
# two x86-64 CPUs under Python 3.11, a fork, the child's exit and its reaping
# took 3-4 ms in a 73 MiB process and a state took about 3 us to format, so a
# split pays from about 3,000 states on (at 64x64 it broke even).  2**13
# keeps 60x40 and 20x10 tables in-process and splits 200x100 ones.
_SPLIT_STATES = 2 ** 13


def _odd_text(text: str, start: int = 0) -> bool:
    """Whether text holds a non-ASCII character, or text[start:] one of
    ``_NOT_WRITTEN``; str.isascii and str.find copy nothing."""
    return not text.isascii() or any(text.find(c, start) >= 0 for c in _NOT_WRITTEN)


def to_csv(table) -> str:
    """The CSV text of a solution table, split between this process and a
    forked child from ``_SPLIT_STATES`` states on (see ``_fork_rows``)."""
    if table.model is None:
        raise ValueError("cannot export a solution without its model")
    rows = _fork_rows(table) if _may_fork(table.B, table.V) else None
    if rows is None:
        rows = [_csv_rows(table, 1, table.B + 1)]
    terminal = _CSV_TERMINAL.replace("V", str(table.V)) + "\n"
    return "".join([_CSV_HEADER + "\n", *rows, terminal])


def _csv_rows(table, lo: int, hi: int) -> str:
    """The CSV rows of b in [lo, hi): one line per state, in v order.  The
    text of an action is made once, for the actions these rows use."""
    # a set, not np.unique, whose first call imports numpy.ma
    action_text = {a: f"{a},{float(table.model.actions[a])!r}"
                   for a in set(table.mu[lo:hi, 1:].ravel().tolist())}
    v_text = [f",{v}," for v in range(1, table.V + 1)]
    rows = []
    for b in range(lo, hi):
        # .tolist() gives Python floats, whose repr is that of float(np.float64)
        fields = zip(v_text, table.J[b, 1:].tolist(), table.mu[b, 1:].tolist(),
                     table.delta[b, 1:].tolist(), table.sigma[b, 1:].tolist())
        rows.append("".join([f"{b}{vt}{j!r},{action_text[a]},{d!r},{sg!r}\n"
                             for vt, j, a, d, sg in fields]))
    return "".join(rows)


def _may_fork(B: int, V: int) -> bool:
    """Whether to_csv splits its rows with a forked child: a table of at
    least _SPLIT_STATES states and two rows, a second usable CPU, and no
    other thread: the child would not have it, but would keep any lock it
    held."""
    if B * V < _SPLIT_STATES or B < 2 or not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return cpus >= 2 and threading.active_count() == 1


def _fork_rows(table) -> list[str] | None:
    """The CSV rows in two halves: this process formats b < mid while a
    forked child formats b >= mid and writes them, as ASCII, to a pipe.
    None when the pipe or the fork fails.  The child always leaves through
    os._exit, and no child outlives the call: it is reaped on every path,
    and killed first when this process raises."""
    mid = 1 + table.B // 2
    fds = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(_csv_rows(table, mid, table.B + 1).encode("ascii"))
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(w)
        with open(r, "rb") as pipe:
            low = _csv_rows(table, 1, mid)
            high = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise ChildProcessError(f"CSV export child {pid} exited with status {code}")
    return [low, high.decode("ascii")]


def solution_from_csv(text: str):
    """Re-import a solution exported by ``to_csv``, as a ``SolutionTable``
    with ``model=None`` and ``solver_id='csv'``."""
    from .solver import SolutionTable  # not at the top: solver imports this module
    lines = text.split("\n")
    if lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    if lines.pop():
        raise ValueError("the CSV text does not end with a newline")
    if _odd_text(text, len(_CSV_HEADER)):
        n = next(n for n, line in enumerate(lines[1:], start=2) if _odd_text(line))
        raise ValueError(f"line {n} {lines[n - 1]!r} has a character that to_csv never "
                         "writes: whitespace, '_' or a non-ASCII one")
    del text  # freed here, before the tables, when the caller kept no reference
    for n, line in enumerate(lines, start=1):
        if line.count(",") != 6:
            raise ValueError(f"line {n} has {line.count(',') + 1} fields, expected 7")
    if len(lines) < 3:
        raise ValueError("no policy rows")
    body, terminal = lines[1:-1], lines[-1].split(",")
    if terminal[0] != "0":
        raise ValueError("terminal row missing")
    V = int(terminal[1]) if terminal[1].isdecimal() else -1
    if lines[-1] != _CSV_TERMINAL.replace("V", str(V)):
        raise ValueError(f"terminal row {lines[-1]!r} is not of the form {_CSV_TERMINAL}")
    B = max(int(line.partition(",")[0]) for line in body)
    if len(body) != B * V:
        raise ValueError(f"{len(body)} policy rows for the {B}x{V} state grid")
    J, delta, sigma = np.zeros((3, B + 1, V + 1))
    mu = np.zeros((B + 1, V + 1), dtype=int)
    action_text: dict[int, str] = {}  # mu_index -> its mu_value text
    top = np.iinfo(mu.dtype).max
    for i, line in enumerate(body):
        r = line.split(",")
        b, v = int(r[0]), int(r[1])
        if b != i // V + 1 or v != i % V + 1:
            raise ValueError(f"state ({b}, {v}) is repeated, out of b-major order or "
                             f"outside the {B}x{V} grid")
        a = int(r[3])
        if not 0 <= a <= top:
            raise ValueError(f"state ({b}, {v}) has {'negative' if a < 0 else 'out-of-range'}"
                             f" mu_index {a}")
        if a not in action_text:
            action_text[a] = r[4]
            try:
                if not 0.0 <= float(r[4]) <= 1.0:  # to_csv writes action values; nan fails
                    raise ValueError
            except ValueError:
                raise ValueError(f"state ({b}, {v}) has mu_value {r[4]!r}, "
                                 "not a number in [0, 1]") from None
        elif action_text[a] != r[4]:
            raise ValueError(f"mu_index {a} has two mu_value texts "
                             f"{action_text[a]!r} and {r[4]!r}")
        J[b, v] = float(r[2])
        mu[b, v] = a
        delta[b, v] = float(r[5])
        sigma[b, v] = float(r[6])
    finite = np.isfinite(J) & np.isfinite(delta) & np.isfinite(sigma)
    if not finite.all():
        b, v = np.argwhere(~finite)[0]
        raise ValueError(f"state ({b}, {v}) has a J, delta or sigma that is not finite")
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma, solver_id="csv")
