import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vmcsr.trace import (
    HEADER_LINE,
    TRACE_FIELDS,
    TraceRecord,
    TraceWriter,
    format_record,
    parse_record,
    read_trace,
    smooth_trace,
)


def make_record(step, **overrides):
    base = dict(
        step=step,
        raw_energy=-2.903 + 0.001 * step,
        clipped_energy=-2.902,
        energy_variance=1.0 / 3.0,
        acceptance_rate=0.515,
        effective_rank=37,
        r_max=64,
        ssi_iterations=2,
        sigma_drift=3.2e-17,
        projector_drift=0.125,
        wall_ms=12.75,
    )
    base.update(overrides)
    return TraceRecord(**base)


class TestRecordFormat:
    def test_header_is_pinned(self):
        assert HEADER_LINE == (
            "step,raw_energy,clipped_energy,energy_variance,acceptance_rate,"
            "effective_rank,r_max,ssi_iterations,sigma_drift,projector_drift,"
            "wall_ms"
        )

    def test_integers_render_without_decimal_point(self):
        line = format_record(make_record(12))
        cells = dict(zip(TRACE_FIELDS, line.split(",")))
        assert cells["step"] == "12"
        assert cells["effective_rank"] == "37"
        assert cells["r_max"] == "64"
        assert cells["ssi_iterations"] == "2"

    def test_floats_round_trip_bitwise(self):
        # 17 significant digits uniquely identify a float64.
        rec = make_record(
            3,
            raw_energy=-0.1,
            energy_variance=np.nextafter(1.0, 2.0),
            sigma_drift=5e-324,
            projector_drift=0.0,
        )
        back = parse_record(format_record(rec))
        assert back == rec

    def test_parse_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="columns"):
            parse_record("1,2,3")


class TestTraceFile:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "trace.csv"
        records = [make_record(k) for k in range(1, 6)]
        with TraceWriter(path) as writer:
            for rec in records:
                writer.write(rec)
        assert read_trace(path) == records

    def test_file_uses_lf_newlines(self, tmp_path):
        path = tmp_path / "trace.csv"
        with TraceWriter(path) as writer:
            writer.write(make_record(1))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_append_mode_continues_without_second_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        with TraceWriter(path) as writer:
            writer.write(make_record(1))
        with TraceWriter(path, read_trace(path)) as writer:
            writer.write(make_record(2))
        assert [r.step for r in read_trace(path)] == [1, 2]
        assert path.read_text().count(HEADER_LINE) == 1

    def test_rewrite_truncates_to_given_records(self, tmp_path):
        path = tmp_path / "trace.csv"
        records = [make_record(k) for k in range(1, 8)]
        TraceWriter(path, records).close()
        TraceWriter(path, records[:3]).close()
        assert read_trace(path) == records[:3]

    def test_read_up_to_a_step_leaves_the_later_rows_unparsed(self, tmp_path):
        # a trace begun by a resume starts past step 1, so rows go by step
        path = tmp_path / "trace.csv"
        records = [make_record(k) for k in range(5, 8)]
        TraceWriter(path, records).close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("8,-0.49")
        assert read_trace(path, 6) == records[:2]
        assert read_trace(path, 7) == records
        assert read_trace(path, 4) == []
        with pytest.raises(ValueError, match="expected 11 columns, got 2"):
            read_trace(path, 8)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(path)


class TestSmoothTrace:
    def test_window_three_ramp(self):
        out = smooth_trace(np.arange(1.0, 11.0), 3)
        assert_array_equal(out, [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])

    def test_constant_series_unchanged(self):
        out = smooth_trace(np.full(20, 2.5), 7)
        assert_array_equal(out, np.full(20, 2.5))
        out = smooth_trace(np.full(20, 0.1), 7)
        assert_allclose(out, np.full(20, 0.1), rtol=1e-15)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(3).normal(size=50)
        assert_array_equal(smooth_trace(x, 1), x)

    def test_window_longer_than_series_gives_prefix_means(self):
        x = np.array([2.0, 4.0, 12.0])
        assert_allclose(smooth_trace(x, 100), [2.0, 3.0, 6.0])

    def test_length_preserved(self):
        x = np.random.default_rng(4).normal(size=33)
        assert smooth_trace(x, 5).shape == x.shape

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            smooth_trace([1.0, 2.0], 0)
