"""How gsrecon reads and writes its text files.

One rule for every text file the package reads: numbers are finite, counts
are non-negative integers, indices lie below the caller's bound, and every
failure is a :class:`MeshParseError` carrying its 1-based line number (a
line missing at the end of the file is line ``len + 1``).

One rule for every numeric file it writes (:func:`write_rows`): a float,
Python or numpy, is written as ``repr(float(v))``, so it reads back to the
same bits; an integer or a bool, numpy included, as its ``int``; a string
as it is; and in a CSV table a non-finite float is an empty field.
"""

import csv
import math

import numpy as np

from .errors import MeshParseError


class LineReader:
    """The whitespace-separated fields of a text file, one line at a time;
    ``line`` is the number of the last line read."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.line = 0

    def fail(self, message):
        raise MeshParseError(message, line=self.line)

    def fields(self, what):
        """Fields of the next line; ``what`` names it if the file ends."""
        self.line += 1
        if self.line > len(self.lines):
            self.fail(f"file ends before {what}")
        return self.lines[self.line - 1].split()

    def record(self, keys):
        """The next line as (key, other fields), for a key in ``keys``."""
        parts = self.fields(f"a line starting with one of {keys}")
        if not parts or parts[0] not in keys:
            self.fail(f"expected a line starting with one of {keys}")
        return parts[0], parts[1:]

    def values(self, texts, n=None, bound=None):
        """``texts``, exactly ``n`` of them unless n is None, as finite floats
        or, when ``bound`` is given, as integers in [0, bound)."""
        try:
            out = [float(t) if bound is None else int(t) for t in texts]
        except ValueError:
            out = [math.nan]
        if (n is not None and len(out) != n) or not all(
                math.isfinite(v) if bound is None else 0 <= v < bound
                for v in out):
            kind = "finite number(s)" if bound is None else \
                f"integer(s) in [0, {bound})"
            many = "" if n is None else f"{n} "
            self.fail(f"expected {many}{kind}, got {' '.join(texts)!r}")
        return out

    def count(self, texts):
        return self.values(texts, 1, bound=math.inf)[0]

    def block(self, count, nfields, what, bound=None):
        """(count, nfields) array of the :meth:`values` of the next ``count``
        lines (int64 when ``bound`` is given)."""
        rows = [self.values(self.fields(f"the end of the {what} block"),
                            nfields, bound) for _ in range(count)]
        return np.array(rows, dtype=np.float64 if bound is None
                        else np.int64).reshape(count, nfields)


def _text(v, table):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    v = float(v)
    return "" if table and not math.isfinite(v) else repr(v)


def write_rows(path, rows, table=False):
    """Write each row of values as one line under the rule above: fields
    separated by spaces or, when ``table``, a CSV table (``\\r\\n`` line
    ends)."""
    lines = [[_text(v, table) for v in row] for row in rows]
    with open(path, "w", newline="" if table else None) as fh:
        if table:
            csv.writer(fh).writerows(lines)
        else:
            fh.writelines(" ".join(line) + "\n" for line in lines)
