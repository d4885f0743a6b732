"""Per-iteration trace records and their CSV serialization.

One row per iterate, including the starting point (k = 0, zero step).
The CSV layout is fixed and versioned; floats are written with 17
significant digits so parsing is lossless.
"""

import csv
import io
from dataclasses import dataclass

TRACE_VERSION = "nmdesc-trace-v1"

COLUMNS = [
    "k",
    "time_s",
    "objective",
    "potential",
    "step_norm",
    "witness_norm",
    "beta",
    "tau1",
    "tau2",
    "backtracks",
    "ell",
    "in_K1",
    "in_K2",
    "in_K31",
]


@dataclass(slots=True)
class TraceRecord:
    k: int
    time_s: float
    objective: float
    potential: float
    step_norm: float
    witness_norm: float
    beta: float
    tau1: float
    tau2: float = 0.0
    backtracks: int = 0
    ell: int = 0
    in_K1: bool = False
    in_K2: bool = False
    in_K31: bool = False


def _fmt(x):
    return format(float(x), ".17g")


def write_trace_csv(path_or_file, records, zero_times=False):
    """Write records to CSV. `zero_times` blanks wall times for replay mode."""
    close = False
    if isinstance(path_or_file, (str, bytes)):
        f = open(path_or_file, "w", newline="")
        close = True
    else:
        f = path_or_file
    try:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([TRACE_VERSION])
        w.writerow(COLUMNS)
        for r in records:
            t = 0.0 if zero_times else r.time_s
            w.writerow(
                [
                    r.k,
                    _fmt(t),
                    _fmt(r.objective),
                    _fmt(r.potential),
                    _fmt(r.step_norm),
                    _fmt(r.witness_norm),
                    _fmt(r.beta),
                    _fmt(r.tau1),
                    _fmt(r.tau2),
                    r.backtracks,
                    r.ell,
                    int(r.in_K1),
                    int(r.in_K2),
                    int(r.in_K31),
                ]
            )
    finally:
        if close:
            f.close()


class TraceParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_trace_csv(path_or_file):
    """Parse a trace CSV back into TraceRecord objects."""
    close = False
    if isinstance(path_or_file, (str, bytes)):
        f = open(path_or_file, "r", newline="")
        close = True
    else:
        f = path_or_file
    try:
        rows = list(csv.reader(f))
    finally:
        if close:
            f.close()
    if not rows or rows[0][0] != TRACE_VERSION:
        raise TraceParseError(f"expected version tag {TRACE_VERSION!r}", 1)
    if len(rows) < 2 or rows[1] != COLUMNS:
        raise TraceParseError("unexpected column header", 2)
    records = []
    for n, row in enumerate(rows[2:], start=3):
        if not row:
            continue
        if len(row) != len(COLUMNS):
            raise TraceParseError(f"expected {len(COLUMNS)} fields, got {len(row)}", n)
        try:
            records.append(
                TraceRecord(
                    k=int(row[0]),
                    time_s=float(row[1]),
                    objective=float(row[2]),
                    potential=float(row[3]),
                    step_norm=float(row[4]),
                    witness_norm=float(row[5]),
                    beta=float(row[6]),
                    tau1=float(row[7]),
                    tau2=float(row[8]),
                    backtracks=int(row[9]),
                    ell=int(row[10]),
                    in_K1=bool(int(row[11])),
                    in_K2=bool(int(row[12])),
                    in_K31=bool(int(row[13])),
                )
            )
        except ValueError as e:
            raise TraceParseError(str(e), n) from e
    return records


def trace_csv_string(records, zero_times=False):
    buf = io.StringIO()
    write_trace_csv(buf, records, zero_times=zero_times)
    return buf.getvalue()
