"""Trace CSV serialization round trips."""

import io
import math
import struct

import numpy as np
import pytest

from testkit import trace_csv_string
from nmdesc.trace import (
    COLUMNS,
    NO_WITNESS_COLUMNS,
    TRACE_VERSION,
    Trace,
    TraceParseError,
    TraceRecord,
    read_trace_csv,
    write_trace_csv,
)


def sample_records():
    return [
        TraceRecord(k=0, time_s=0.0, objective=3.0, potential=3.0,
                    step_norm=0.0, witness_norm=math.inf, beta=0.0, tau1=0.0),
        TraceRecord(k=1, time_s=0.125, objective=1.0 / 3.0, potential=0.34,
                    step_norm=1e-300, witness_norm=2.5, beta=0.75,
                    tau1=0.1, tau2=0.2, backtracks=3, ell=1,
                    in_K1=True, in_K2=False, in_K31=True),
    ]


def test_round_trip_lossless():
    text = trace_csv_string(Trace(sample_records()))
    back = read_trace_csv(io.StringIO(text))
    assert list(back) == sample_records()


def test_zero_times_blanks_wall_clock():
    text = trace_csv_string(Trace(sample_records()), zero_times=True)
    back = read_trace_csv(io.StringIO(text))
    assert all(r.time_s == 0.0 for r in back)
    assert back[1].objective == sample_records()[1].objective


def test_version_tag_checked():
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("bogus-v9\nk\n"))
    assert err.value.line == 1


def test_header_checked():
    text = trace_csv_string(Trace(sample_records())).splitlines()
    text[1] = "k,nonsense"
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("\n".join(text)))
    assert err.value.line == 2


def test_bad_field_reports_line():
    text = trace_csv_string(Trace(sample_records())).splitlines()
    text[2] = text[2].replace("0,", "zero,", 1)
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("\n".join(text) + "\n"))
    assert err.value.line == 3


def test_write_to_path(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), Trace(sample_records()))
    assert list(read_trace_csv(str(path))) == sample_records()


def many_records(n=7, nan_at=None):
    out = sample_records()
    for k in range(2, n):
        out.append(TraceRecord(
            k=k, time_s=0.1 * k, objective=1.0 / k, potential=-0.0,
            step_norm=math.nan if k == nan_at else 2.0**-k, witness_norm=math.inf,
            beta=0.0, tau1=1e300, tau2=k, backtracks=k % 3, ell=k - 1,
            in_K2=bool(k % 2)))
    return out


def reference_csv(records, zero_times=False):
    """One row per record, each field formatted on its own."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    lines = [TRACE_VERSION, ",".join(COLUMNS)]
    for r in records:
        t = 0.0 if zero_times else r.time_s
        row = [str(r.k), fmt(t), fmt(r.objective), fmt(r.potential),
               fmt(r.step_norm), fmt(r.witness_norm), fmt(r.beta), fmt(r.tau1),
               fmt(r.tau2), str(r.backtracks), str(r.ell), str(int(r.in_K1)),
               str(int(r.in_K2)), str(int(r.in_K31))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestTrace:
    def test_sequence_access(self):
        records = many_records()
        trace = Trace(records)
        assert len(trace) == len(records)
        assert trace[0] == records[0] and trace[3].k == 3
        assert trace[-1] == records[-1] and trace[-2] == records[-2]
        assert trace[1:4] == records[1:4] and trace[::-2] == records[::-2]
        assert trace[5:2] == []
        assert list(trace) == records
        with pytest.raises(IndexError):
            trace[len(records)]

    def test_flags_come_back_as_bools(self):
        trace = Trace(sample_records())
        assert trace[1].in_K1 is True and trace[1].in_K2 is False
        assert all(type(r.in_K31) is bool for r in trace)

    def test_empty(self):
        empty = Trace()
        assert not empty and list(empty) == [] and empty[:] == []
        assert trace_csv_string(empty) == reference_csv([])
        assert len(read_trace_csv(io.StringIO(trace_csv_string(empty)))) == 0

    @pytest.mark.parametrize("zero_times", [False, True])
    def test_csv_bytes_match_per_row_formatting(self, zero_times):
        records = many_records(nan_at=3)
        want = reference_csv(records, zero_times)
        assert trace_csv_string(Trace(records), zero_times) == want

    def test_columns_and_replace(self):
        trace = Trace(many_records())
        assert trace.column("k").tolist() == list(range(7))
        assert trace.column("in_K2").dtype == np.bool_
        doubled = trace.replace(time_s=2.0 * trace.column("time_s"))
        assert doubled[3].time_s == 2.0 * trace[3].time_s
        assert doubled.column("objective") is trace.column("objective")
        # a column is the array itself
        trace.column("in_K1")[2] = True
        assert trace[2].in_K1 is True


def bits(x):
    return struct.pack("<d", x)


class TestReadColumns:
    # -0.0, both infinities, NaN, the smallest subnormal and a larger one,
    # the largest double and values that need all 17 digits
    SPECIAL = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072e-309,
               1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 7.0,
               123456789.01234567, 9007199254740993.0]

    def special_trace(self):
        n = len(self.SPECIAL)
        # the CSV writes a NaN as "nan", without its sign
        records = [TraceRecord(k=k, time_s=v, objective=v,
                               potential=v if math.isnan(v) else -v, step_norm=v,
                               witness_norm=v, beta=v, tau1=v, tau2=v,
                               backtracks=k, ell=k, in_K31=bool(k % 2))
                   for k, v in enumerate(self.SPECIAL)]
        return Trace(records), n

    def test_special_values_round_trip_bit_exact(self):
        trace, n = self.special_trace()
        back = read_trace_csv(io.StringIO(trace_csv_string(trace)))
        assert len(back) == n
        for name in COLUMNS:
            col = back.column(name)
            assert col.dtype == trace.column(name).dtype
            assert [bits(v) for v in col.tolist()] == \
                [bits(v) for v in trace.column(name).tolist()], name

    @staticmethod
    def with_field(lines, i, column, value):
        row = lines[i].split(",")
        row[COLUMNS.index(column)] = value
        lines[i] = ",".join(row)

    @pytest.mark.parametrize("column, bad", [
        ("objective", "1.0.0"),
        ("k", "3.5"),
        ("backtracks", "two"),
        ("in_K2", "yes"),
        ("tau2", ""),
        ("ell", "9" * 30),  # past 64 bits
    ])
    def test_bad_field_line_number(self, column, bad):
        lines = trace_csv_string(Trace(many_records())).splitlines()
        # blank lines count toward the numbering
        lines.insert(4, "")
        self.with_field(lines, 6, column, bad)
        with pytest.raises(TraceParseError) as err:
            read_trace_csv(io.StringIO("\n".join(lines) + "\n"))
        assert err.value.line == 7

    def test_short_row_line_number(self):
        lines = trace_csv_string(Trace(many_records())).splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        with pytest.raises(TraceParseError, match="expected 14 fields, got 13") as err:
            read_trace_csv(io.StringIO("\n".join(lines)))
        assert err.value.line == 6

    def test_first_bad_row_is_reported(self):
        # a bad int on line 4 comes before a bad float on line 6
        lines = trace_csv_string(Trace(many_records())).splitlines()
        self.with_field(lines, 3, "k", "z")
        self.with_field(lines, 5, "objective", "nope")
        with pytest.raises(TraceParseError) as err:
            read_trace_csv(io.StringIO("\n".join(lines)))
        assert err.value.line == 4

    def test_blank_lines_skipped(self):
        text = trace_csv_string(Trace(many_records()))
        lines = text.splitlines()
        padded = lines[:3] + ["", ""] + lines[3:] + [""]
        back = read_trace_csv(io.StringIO("\n".join(padded) + "\n"))
        assert trace_csv_string(back) == text

    def test_no_witness_header_gives_nan_witnesses(self):
        records = many_records()
        lines = trace_csv_string(Trace(records)).splitlines()
        drop = COLUMNS.index("witness_norm")
        stripped = [lines[0]] + [",".join(v for i, v in enumerate(line.split(","))
                                          if i != drop) for line in lines[1:]]
        assert stripped[1].split(",") == NO_WITNESS_COLUMNS
        back = read_trace_csv(io.StringIO("\n".join(stripped) + "\n"))
        assert np.isnan(back.column("witness_norm")).all()
        for got, want in zip(back, records):
            assert got.witness_norm != got.witness_norm
            got.witness_norm = want.witness_norm
            assert got == want or math.isnan(want.step_norm)

    def test_no_witness_short_row(self):
        lines = trace_csv_string(Trace(sample_records())).splitlines()
        lines[1] = ",".join(NO_WITNESS_COLUMNS)
        with pytest.raises(TraceParseError, match="expected 13 fields, got 14") as err:
            read_trace_csv(io.StringIO("\n".join(lines)))
        assert err.value.line == 3
