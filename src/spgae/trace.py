"""Run traces: fixed-schema per-iteration rows, their CSV writer and reader.

The CSV header is fixed:

    k,mu,L,fval,smoothed,feasvi,trainerr,testerr,sub_iters,wall_ms

Rows belonging to stochastic baselines leave mu/L (and the solver-only
columns) blank.  Everything except wall_ms is deterministic for a fixed
(config, seed), so reruns produce byte-identical files apart from that column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .serialize import format_value


@dataclass
class TraceRow:
    k: int
    mu: float | None = None
    L: float | None = None
    fval: float | None = None
    smoothed: float | None = None
    feasvi: float | None = None
    trainerr: float | None = None
    testerr: float | None = None
    sub_iters: int | None = None
    wall_ms: float | None = None

    def to_csv_line(self) -> str:
        return ",".join(format_value(getattr(self, name)) for name in TRACE_HEADER)


TRACE_HEADER = tuple(f.name for f in fields(TraceRow))


def _parse(name: str, s: str):
    if s == "":
        return None
    if name in ("k", "sub_iters"):
        return int(s)
    return float(s)


@dataclass
class RunTrace:
    """Ordered rows plus run-level annotations, and the sink (a ``TraceWriter``
    or anything with ``write_row``) that receives each row as it is appended."""

    rows: list = field(default_factory=list)
    termination_reason: str | None = None
    handoff_index: int | None = None    # a warm-started spg.run's first row
    sink: object = field(default=None, compare=False, repr=False)

    def append(self, row: TraceRow):
        self.rows.append(row)
        if self.sink is not None:
            self.sink.write_row(row)

    @classmethod
    def read_csv(cls, path) -> "RunTrace":
        trace = cls()
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if tuple(header.split(",")) != TRACE_HEADER:
                raise ValueError(f"unexpected trace header in {path}: {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != len(TRACE_HEADER):
                    raise ValueError(f"malformed trace row in {path}: {line!r}")
                trace.rows.append(TraceRow(**{n: _parse(n, s)
                                              for n, s in zip(TRACE_HEADER, parts)}))
        return trace


class TraceWriter:
    """Incremental CSV sink so long runs leave a usable trace if interrupted."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="ascii")
        self._fh.write(",".join(TRACE_HEADER) + "\n")
        self._fh.flush()

    def write_row(self, row: TraceRow):
        self._fh.write(row.to_csv_line() + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
