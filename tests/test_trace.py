"""Trace CSV serialization round trips."""

import io
import math

import pytest

from nmdesc.trace import (
    COLUMNS,
    TRACE_VERSION,
    Trace,
    TraceParseError,
    TraceRecord,
    read_trace_csv,
    trace_csv_string,
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
    text = trace_csv_string(sample_records())
    back = read_trace_csv(io.StringIO(text))
    assert back == sample_records()


def test_zero_times_blanks_wall_clock():
    text = trace_csv_string(sample_records(), zero_times=True)
    back = read_trace_csv(io.StringIO(text))
    assert all(r.time_s == 0.0 for r in back)
    assert back[1].objective == sample_records()[1].objective


def test_version_tag_checked():
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("bogus-v9\nk\n"))
    assert err.value.line == 1


def test_header_checked():
    text = trace_csv_string(sample_records()).splitlines()
    text[1] = "k,nonsense"
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("\n".join(text)))
    assert err.value.line == 2


def test_bad_field_reports_line():
    text = trace_csv_string(sample_records()).splitlines()
    text[2] = text[2].replace("0,", "zero,", 1)
    with pytest.raises(TraceParseError) as err:
        read_trace_csv(io.StringIO("\n".join(text) + "\n"))
    assert err.value.line == 3


def test_write_to_path(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), sample_records())
    assert read_trace_csv(str(path)) == sample_records()


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
        assert trace_csv_string(empty) == trace_csv_string([])

    @pytest.mark.parametrize("zero_times", [False, True])
    def test_csv_bytes_match_per_row_formatting(self, zero_times):
        records = many_records(nan_at=3)
        want = reference_csv(records, zero_times)
        assert trace_csv_string(records, zero_times) == want
        assert trace_csv_string(Trace(records), zero_times) == want
