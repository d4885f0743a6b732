"""Per-iteration trace records and their CSV serialization.

One row per iterate, including the starting point (k = 0, zero step).
The CSV layout is fixed and versioned; floats are written with 17
significant digits so parsing is lossless. Solvers keep their records in
a `Trace`, which stores each field as a column.
"""

import csv
import io
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

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


# storage of each column: counts as 64-bit integers, the three K-set flags
# as bytes, the rest as doubles
_TYPECODES = ("q", "d", "d", "d", "d", "d", "d", "d", "d", "q", "q", "b", "b", "b")
_FLAGS = COLUMNS.index("in_K1")  # the flags are the last columns
_fields = attrgetter(*COLUMNS)


def _records(columns):
    """TraceRecords from parallel columns, one zip over them."""
    flags = (map(bool, c) for c in columns[_FLAGS:])
    return map(TraceRecord, *columns[:_FLAGS], *flags)


class Trace(Sequence):
    """A run's records, kept as one array per TraceRecord field.

    Built once from the records of a run. Indexing (negative too), slicing
    and iteration give TraceRecords built from the columns; a slice is a
    list. `write_trace_csv` reads the columns directly. A Trace takes about
    a third of the memory of a list of records.
    """

    __slots__ = ("_columns",)

    def __init__(self, records=()):
        columns = list(zip(*map(_fields, records))) or [()] * len(COLUMNS)
        self._columns = tuple(map(array, _TYPECODES, columns))

    def __len__(self):
        return len(self._columns[0])

    def __iter__(self):
        return _records(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_records([c[index] for c in self._columns]))
        return next(_records([(c[index],) for c in self._columns]))

    def __repr__(self):
        return f"Trace({len(self)} records)"


def write_trace_csv(path_or_file, records, zero_times=False):
    """Write records (a Trace, or TraceRecords) to CSV. A Trace is read from
    its columns, without building records; each row is one formatting of
    its fields. `zero_times` blanks wall times for replay mode."""
    names = [c for c in COLUMNS if not (zero_times and c == "time_s")]
    if isinstance(records, Trace):
        rows = zip(*(records._columns[COLUMNS.index(c)] for c in names))
    else:
        rows = map(attrgetter(*names), records)
    # k, time_s, objective .. tau2 with 17 significant digits, the counts
    # and the flags as integers
    row = ("%d,0," if zero_times else "%d,%.17g,") + "%.17g," * 7 + "%d," * 4 + "%d\n"
    close = False
    if isinstance(path_or_file, (str, bytes)):
        f = open(path_or_file, "w", newline="")
        close = True
    else:
        f = path_or_file
    try:
        f.write(f"{TRACE_VERSION}\n{','.join(COLUMNS)}\n")
        f.write("".join(map(row.__mod__, rows)))
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
