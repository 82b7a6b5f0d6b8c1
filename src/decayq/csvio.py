"""The solution CSV format: ``to_csv`` writes it, ``solution_from_csv`` reads it.

The header ``b,v,J,mu_index,mu_value,delta,sigma``, the B*V policy rows in
b-major order and the terminal row ``0,V,0,,,,`` (the grid's V) each end in
one newline, with nothing before or after.  Floats are shortest round-trip
``repr``s, so equal solutions give equal bytes; the model is not in the file.
The export takes repr's digits from orjson and rewrites the notation where
the two differ: exponents, and |x| in [1e-5, 1e-4) (see ``_repr_texts``).
A ``SolutionTable`` holds no nan or +-inf, so neither is ever written, and
the import refuses both.
The import reads exactly this layout: b-major rows only, and no whitespace,
'_' or non-ASCII character, which ``int`` and ``float`` would take."""

from __future__ import annotations

import re

import numpy as np

# What int and float take in a number text but to_csv never writes: '_' (1_0),
# ASCII whitespace but the row separator, and any non-ASCII character (١).
_NOT_WRITTEN = "_ \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
# What the import says of a row with a number text that int or float refuses.
_NOT_A_NUMBER = ("has a b, v or mu_index that is not an integer, "
                 "or a J, delta or sigma that is not a number")
# The CSV format's fixed lines: its header and its last row, V being the grid's.
_CSV_HEADER, _CSV_TERMINAL = "b,v,J,mu_index,mu_value,delta,sigma", "0,V,0,,,,"
# States in one block of to_csv, whose texts are made a column of a block at
# a time.  A block's texts are transient, but they set the peak RSS of a run
# of 200x100 solves: on two x86-64 CPUs, 2**11-state blocks raised it by
# 1.7 MiB over 2**9 ones, and took 7-15% less time.
_BLOCK = 2 ** 9
# Where orjson's exponent (1e16, 1e-7) lacks what repr writes (1e+16, 1e-07):
# a sign on a positive one, a second digit on a negative one.  Each is mended
# by one substitution of a fixed text, which re makes without a Python call
# per match.
_UNSIGNED_EXPONENT, _ONE_DIGIT_EXPONENT = re.compile(rb"e(?=\d)"), re.compile(rb"e-(?=\d,)")


def _odd_text(text: str, start: int = 0) -> bool:
    """Whether text holds a non-ASCII character, or text[start:] one of
    ``_NOT_WRITTEN``; str.isascii and str.find copy nothing."""
    return not text.isascii() or any(text.find(c, start) >= 0 for c in _NOT_WRITTEN)


def to_csv(table) -> str:
    """The CSV text of a solution table.  Its blocks go into one growing
    buffer as they are made: joined from a list, the freed block texts could
    stay in the heap, and at the size limit a later write of the text then
    peaked at up to 291 MiB instead of 231."""
    if table.model is None:
        raise ValueError("cannot export a solution without its model")
    text = bytearray(f"{_CSV_HEADER}\n".encode())
    for block in _csv_rows(table):
        text += block.encode("ascii")
    text += f"{_CSV_TERMINAL.replace('V', str(table.V))}\n".encode()
    return text.decode("ascii")


def _csv_rows(table):
    """The CSV rows, one text per block of about _BLOCK states (whole rows b),
    each state in v order.  The text of an action is made once, for the
    actions the table uses."""
    B, V, mu = table.B, table.V, table.mu
    # a set, not np.unique, whose first call imports numpy.ma
    action_text = {a: f"{a},{float(table.model.actions[a])!r}"
                   for a in set(mu[1:, 1:].ravel().tolist())}
    v_text, step = [str(v) for v in range(1, V + 1)], max(1, _BLOCK // V)  # rows per block
    for lo in range(1, B + 1, step):
        hi = min(lo + step, B + 1)
        b_text = [t for b in range(lo, hi) for t in [str(b)] * V]
        J, delta, sigma = (_repr_texts(x[lo:hi, 1:]) for x in (table.J, table.delta, table.sigma))
        actions = map(action_text.__getitem__, mu[lo:hi, 1:].ravel().tolist())
        fields = zip(b_text, v_text * (hi - lo), J, actions, delta, sigma)
        yield "\n".join(map(",".join, fields)) + "\n"


def _repr_texts(block: np.ndarray) -> list[str]:
    """``repr``'s text of each float of a non-empty block, in C order.

    orjson writes the same shortest round-trip digits as repr, and the same
    notation for 0 and for |x| in [1e-4, 1e16).  Below 1e-5 and from 1e16 on
    both write an exponent, which the two _EXPONENT substitutions over the
    whole block's text mend, so their cost grows little with the number of
    such values.  For |x| in [1e-5, 1e-4) orjson writes 0.0000 and the
    digits, and each such text is rewritten alone.  The block is finite, as
    every ``SolutionTable`` is: orjson writes nan and +-inf as null."""
    import orjson  # here, not at the top: check and simulate never pay its import
    x = np.ascontiguousarray(block).ravel()
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    if b"e" in text:
        text = _ONE_DIGIT_EXPONENT.sub(b"e-0", _UNSIGNED_EXPONENT.sub(b"e+", text))
    texts = text.decode("ascii").split(",")
    texts.pop()  # the "" after the last comma
    size = np.abs(x)
    for i in np.flatnonzero((size >= 1e-5) & (size < 1e-4)).tolist():
        sign, digits = texts[i].split("0.0000")
        texts[i] = f"{sign}{digits[0]}{'.' if digits[1:] else ''}{digits[1:]}e-05"
    return texts


def _lines(text: str, start: int = 0, stop: int | None = None):
    """The lines of text[start:stop], each without the newline that ends it,
    split from one chunk of 16 * _BLOCK characters (about a hundred rows) at a
    time: no list of every line."""
    stop = len(text) if stop is None else stop
    while start < stop:
        end = text.find("\n", min(start + 16 * _BLOCK, stop) - 1, stop)
        yield from text[start:end].split("\n")
        start = end + 1


def solution_from_csv(text: str):
    """Re-import a solution exported by ``to_csv``, as a ``SolutionTable``
    with ``model=None`` and ``solver_id='csv'``."""
    from .solver import SolutionTable  # not at the top: solver imports this module
    end = text.find("\n")
    if (header := text[:end] if end >= 0 else text) != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    if not text.endswith("\n"):
        raise ValueError("the CSV text does not end with a newline")
    if _odd_text(text, end):
        n, line = next((n, line) for n, line in enumerate(_lines(text, end + 1), start=2)
                       if _odd_text(line))
        raise ValueError(f"line {n} {line!r} has a character that to_csv never "
                         "writes: whitespace, '_' or a non-ASCII one")
    n, B = 1, 0  # the header is line 1; B is the largest b, the terminal row's 0 included
    for n, line in enumerate(_lines(text, end + 1), start=2):
        if line.count(",") != 6:
            raise ValueError(f"line {n} has {line.count(',') + 1} fields, expected 7")
        try:
            b = int(line.partition(",")[0])
        except ValueError:
            raise ValueError(f"line {n} {line!r} {_NOT_A_NUMBER}") from None
        if b > B:
            B = b
    if n < 3:
        raise ValueError("no policy rows")
    last = text.rfind("\n", 0, -1) + 1  # where the terminal row starts
    terminal_line = text[last:-1]
    terminal = terminal_line.split(",")
    if terminal[0] != "0":
        raise ValueError("terminal row missing")
    V = int(terminal[1]) if terminal[1].isdecimal() else -1
    if terminal_line != _CSV_TERMINAL.replace("V", str(V)):
        raise ValueError(f"terminal row {terminal_line!r} is not of the form {_CSV_TERMINAL}")
    if n - 2 != B * V:
        raise ValueError(f"{n - 2} policy rows for the {B}x{V} state grid")
    J, delta, sigma = np.zeros((3, B + 1, V + 1))
    mu = np.zeros((B + 1, V + 1), dtype=int)
    action_text: dict[int, str] = {}  # mu_index -> its mu_value text
    top = np.iinfo(mu.dtype).max
    for i, line in enumerate(_lines(text, end + 1, last)):
        r = line.split(",")
        state = i // V + 1, i % V + 1  # the row's place, in the grid as n - 2 == B * V
        try:
            b, v, a = int(r[0]), int(r[1]), int(r[3])
            J[state], delta[state], sigma[state] = float(r[2]), float(r[5]), float(r[6])
        except ValueError:
            raise ValueError(f"line {i + 2} {line!r} {_NOT_A_NUMBER}") from None
        if (b, v) != state:
            raise ValueError(f"state ({b}, {v}) is repeated, out of b-major order or "
                             f"outside the {B}x{V} grid")
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
        mu[state] = a
    return SolutionTable(J=J, mu=mu, delta=delta, sigma=sigma, solver_id="csv")
