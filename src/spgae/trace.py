"""Run traces: fixed-schema per-iteration rows and CSV round-tripping.

The CSV header is fixed:

    k,mu,L,fval,smoothed,feasvi,trainerr,testerr,sub_iters,wall_ms

Rows belonging to stochastic baselines leave mu/L (and the solver-only
columns) blank.  Everything except wall_ms is deterministic for a fixed
(config, seed), so reruns produce byte-identical files apart from that column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRACE_HEADER = ("k", "mu", "L", "fval", "smoothed", "feasvi", "trainerr",
                "testerr", "sub_iters", "wall_ms")


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
        return ",".join(_fmt(getattr(self, name)) for name in TRACE_HEADER)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def _parse(name: str, s: str):
    if s == "":
        return None
    if name in ("k", "sub_iters"):
        return int(s)
    return float(s)


@dataclass
class RunTrace:
    """Ordered rows plus run-level annotations."""

    rows: list = field(default_factory=list)
    termination_reason: str | None = None
    stationarity: list = field(default_factory=list)  # surrogate per step, not in the CSV
    handoff_index: int | None = None                  # first solver row of a hybrid run

    def append(self, row: TraceRow, sink=None):
        self.rows.append(row)
        if sink is not None:
            sink.write_row(row)

    def to_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(TRACE_HEADER) + "\n")
            for row in self.rows:
                fh.write(row.to_csv_line() + "\n")

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
