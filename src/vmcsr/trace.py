"""Per-step CSV trace: fixed column order, full float precision.

One record per optimizer step. Integers print as plain decimals, floats
with 17 significant digits so a parsed file reproduces the original
values bit for bit. UTF-8, LF line endings.
"""

import itertools
from dataclasses import dataclass, fields

import numpy as np

@dataclass(frozen=True)
class TraceRecord:
    """One trace row; the field order is the column order."""

    step: int
    raw_energy: float
    clipped_energy: float
    energy_variance: float
    acceptance_rate: float
    effective_rank: int
    r_max: int
    ssi_iterations: int
    sigma_drift: float
    projector_drift: float
    wall_ms: float


TRACE_FIELDS = tuple(f.name for f in fields(TraceRecord))
_INT_FIELDS = frozenset(f.name for f in fields(TraceRecord) if f.type is int)
HEADER_LINE = ",".join(TRACE_FIELDS)


def format_record(record):
    parts = []
    for name in TRACE_FIELDS:
        value = getattr(record, name)
        if name in _INT_FIELDS:
            parts.append("%d" % value)
        else:
            parts.append("%.17g" % value)
    return ",".join(parts)


def parse_record(line):
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(TRACE_FIELDS):
        raise ValueError(
            f"expected {len(TRACE_FIELDS)} columns, got {len(cells)}: {line!r}"
        )
    kwargs = {}
    for name, cell in zip(TRACE_FIELDS, cells):
        kwargs[name] = int(cell) if name in _INT_FIELDS else float(cell)
    return TraceRecord(**kwargs)


class TraceWriter:
    """Line-buffered trace emitter; flushes after every record so a crash
    loses at most the step in flight.

    Opening replaces the file with the header and `records`, the rows a
    resumed run keeps up to its checkpointed step.
    """

    def __init__(self, path, records=()):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(HEADER_LINE + "\n")
        for record in records:
            self._fh.write(format_record(record) + "\n")
        self._fh.flush()

    def write(self, record):
        self._fh.write(format_record(record) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_trace(path, last_step=None):
    """The records of a trace file, header verified.

    With last_step, reading stops at the first row whose step exceeds it,
    and that row and the rest are dropped unparsed: a resumed run keeps
    the rows up to its checkpointed step, so a row cut short by a crash
    after that step does not stop it.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        header = fh.readline().rstrip("\n")
        if header != HEADER_LINE:
            raise ValueError(f"unexpected trace header: {header!r}")
        lines = (line for line in fh if line.strip())
        if last_step is not None:
            lines = itertools.takewhile(
                lambda line: int(line.split(",", 1)[0]) <= last_step, lines
            )
        return [parse_record(line) for line in lines]


def smooth_trace(values, window):
    """Trailing moving average; ramps up over partial windows at the start.

    out[i] = mean(values[max(0, i-window+1) : i+1]); window 1 is the
    identity and the length is always preserved.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out[i] = values[lo : i + 1].mean()
    return out
