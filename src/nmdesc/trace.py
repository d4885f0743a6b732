"""Per-iteration trace records and their CSV serialization.

One row per iterate, including the starting point (k = 0, zero step).
The CSV layout is fixed and versioned; floats are written with 17
significant digits so parsing is lossless. Solvers keep their records in
a `Trace`, which stores each field as a numpy column; `read_trace_csv`
builds one from a file, parsing all its rows in one call of numpy's C text
reader (float fields through the same C function as float(), so with the
same bits), or parses only the columns asked for. `read_trace_rows` and
`write_flagged_csv` rewrite the K-set flags of a file and keep the text of
its other fields.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

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

# the header of a trace logged without the subgradient witness; it reads
# back with NaN witnesses
NO_WITNESS_COLUMNS = [c for c in COLUMNS if c != "witness_norm"]


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


# dtype of each column: counts as 64-bit integers, the three K-set flags
# as booleans, the rest as doubles
_DTYPES = dict(zip(COLUMNS, (np.int64,) + (np.float64,) * 8
                   + (np.int64,) * 2 + (np.bool_,) * 3))
_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_fields = attrgetter(*COLUMNS)


def _records(columns):
    """TraceRecords from parallel columns, one zip over them."""
    return map(TraceRecord, *(c.tolist() for c in columns))


class Trace(Sequence):
    """A run's records, kept as one numpy array per TraceRecord field.

    Built once from the records of a run, or from columns
    (`from_columns`, which `read_trace_csv` uses). `column(name)` is the
    array itself, not a copy: writing into it changes the Trace. Indexing
    (negative too), slicing and iteration give TraceRecords built from the
    columns; a slice is a list. A Trace takes about a third of the memory
    of a list of records.
    """

    __slots__ = ("_columns",)

    def __init__(self, records=()):
        columns = list(zip(*map(_fields, records))) or [()] * len(COLUMNS)
        self._columns = tuple(map(np.array, columns, _DTYPES.values()))

    @classmethod
    def from_columns(cls, columns):
        """A Trace over `columns`: one array per name of COLUMNS, in that
        order, all of one length and of the dtypes a Trace keeps. The
        arrays are taken as they are, not copied."""
        trace = cls.__new__(cls)
        trace._columns = tuple(columns)
        return trace

    def column(self, name):
        return self._columns[_INDEX[name]]

    def replace(self, **columns):
        """A Trace with the named columns replaced, sharing the others."""
        return Trace.from_columns(
            columns.get(name, c) for name, c in zip(COLUMNS, self._columns))

    def __len__(self):
        return len(self._columns[0])

    def __iter__(self):
        return _records(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_records([c[index] for c in self._columns]))
        return TraceRecord(*(c[index].item() for c in self._columns))

    def __repr__(self):
        return f"Trace({len(self)} records)"


def write_trace_csv(path_or_file, trace, zero_times=False):
    """Write a Trace to CSV from its columns; each row is one formatting of
    its fields. `zero_times` blanks wall times for replay mode."""
    names = [c for c in COLUMNS if not (zero_times and c == "time_s")]
    rows = zip(*(trace.column(c).tolist() for c in names))
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


def _load(rows, dtype, usecols):
    """The fields of data rows as one structured array, parsed by numpy's C
    text reader. It converts each float field with `PyOS_string_to_double`,
    the function Python's float() calls, so the values have float()'s bits.
    Without `usecols` every row must have one field per dtype field."""
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                      usecols=usecols, ndmin=1)


def _load_row(n, line, fields, dtype, usecols):
    """`_load` of the one data row on line `n`. Raises TraceParseError
    with that line if the row does not have `fields` fields or one of
    those read does not parse."""
    got = line.count(",") + 1
    if got != fields:
        raise TraceParseError(f"expected {fields} fields, got {got}", n)
    try:
        return _load([line], dtype, usecols)
    except (ValueError, OverflowError) as e:
        # numpy's message ends with the row's place in its one-row input
        raise TraceParseError(str(e).partition(" at row ")[0], n) from e


def _parse(path_or_file, names=None):
    """(header, data rows, {name: column}) of a trace CSV, with the columns
    of `names` or, if None, of every field; see `read_trace_csv`."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "r", newline="") as f:
            text = f.read()
    else:
        text = path_or_file.read()
    lines = text.splitlines()
    if not lines or lines[0].split(",")[0] != TRACE_VERSION:
        raise TraceParseError(f"expected version tag {TRACE_VERSION!r}", 1)
    header = lines[1].split(",") if len(lines) > 1 else None
    if header != COLUMNS and header != NO_WITNESS_COLUMNS:
        raise TraceParseError("unexpected column header", 2)
    rows = [line for line in lines[2:] if line]
    read = header if names is None else [name for name in names if name in header]
    usecols = None if names is None else [header.index(name) for name in read]
    # the flags are read as integers and cast to bool, as bool(int(field))
    dtype = [(name, np.int64 if _DTYPES[name] is np.bool_ else _DTYPES[name])
             for name in read]
    try:
        # loadtxt counts a row's fields only when it reads all of them
        if usecols is not None and any(row.count(",") != len(header) - 1 for row in rows):
            raise ValueError("ragged rows")
        # loadtxt warns on input with no rows
        data = _load(rows, dtype, usecols) if rows else np.empty(0, dtype)
    except (ValueError, OverflowError):
        # row by row, to name the first line at fault
        data = np.concatenate([_load_row(n, line, len(header), dtype, usecols)
                               for n, line in enumerate(lines[2:], start=3) if line])
    columns = {name: data[name].astype(_DTYPES[name]) for name in read}
    if "witness_norm" not in header:
        columns["witness_norm"] = np.full(len(rows), np.nan)
    return header, rows, columns


def read_trace_csv(path_or_file, columns=None):
    """Parse a trace CSV into a Trace, all rows in one call of numpy's
    text reader. Blank lines are skipped. The header may lack the witness
    column (NO_WITNESS_COLUMNS); the witnesses are then NaN. A malformed
    file raises TraceParseError with the number of the first line at
    fault.

    With `columns`, names from COLUMNS, only those fields are parsed and
    their arrays are returned as a tuple in that order. Every row must
    still have one field per header column, but the other fields are not
    read, so a malformed one goes unnoticed."""
    _, _, parsed = _parse(path_or_file, columns)
    if columns is not None:
        return tuple(parsed[name] for name in columns)
    return Trace.from_columns(parsed[name] for name in COLUMNS)


def read_trace_rows(path_or_file):
    """Parse a trace CSV as `read_trace_csv` does, and keep each row's text.

    Returns the Trace and, for each data row in order, its text as read
    up to its three K-set flag fields, in the layout of COLUMNS: a row of
    a trace without the witness column gets `nan` as its witness field.
    `write_flagged_csv` completes the rows with new flags.
    """
    header, rows, parsed = _parse(path_or_file)
    trace = Trace.from_columns(parsed[name] for name in COLUMNS)
    heads = [row.rsplit(",", 3)[0] for row in rows]
    if header == COLUMNS:
        return trace, heads
    w = _INDEX["witness_norm"]
    parts = (h.split(",", w) for h in heads)
    return trace, [",".join(p[:w] + ["nan", p[w]]) for p in parts]


def write_flagged_csv(path, heads, trace):
    """Write a trace CSV with the full header from row texts as
    `read_trace_rows` gives them, each followed by its row's K-set flags
    from `trace`, as 0 or 1. Nothing but the flags is formatted, so a
    trace that `write_trace_csv` wrote comes out as it would write the
    flagged Trace, and any other keeps the text of its other fields."""
    flags = (trace.column(c).tolist() for c in COLUMNS[-3:])
    with open(path, "w", newline="") as f:
        f.write(f"{TRACE_VERSION}\n{','.join(COLUMNS)}\n")
        f.write("".join(map("%s,%d,%d,%d\n".__mod__, zip(heads, *flags))))
