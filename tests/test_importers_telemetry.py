"""Tests for trace importers and controller telemetry."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BumblebeeController,
    TelemetryRecorder,
    snapshot,
)
from repro.mem import ddr4_3200_config, hbm2_config
from repro.traces import (
    PackedTrace,
    import_trace,
    read_csv_trace,
    read_gem5_trace,
    read_pin_trace,
    workload_trace,
)

MIB = 1 << 20


class TestCsvImporter:
    def test_header_and_comments_skipped(self):
        lines = ["addr,rw,icount", "# note", "0x40,R,5", "128,W,7"]
        requests = list(read_csv_trace(lines))
        assert len(requests) == 2
        assert requests[0].addr == 0x40 and not requests[0].is_write
        assert requests[1].addr == 128 and requests[1].is_write

    def test_default_icount_applied(self):
        requests = list(read_csv_trace(["0x40,R"], default_icount=33))
        assert requests[0].icount == 33

    def test_rw_variants(self):
        lines = ["0,read", "64,WRITE", "128,0", "192,1"]
        flags = [r.is_write for r in read_csv_trace(lines)]
        assert flags == [False, True, False, True]

    def test_malformed_rw_raises_with_line(self):
        with pytest.raises(ValueError, match="line 1"):
            list(read_csv_trace(["0x40,maybe"]))

    def test_malformed_addr_raises(self):
        with pytest.raises(ValueError, match="bad address"):
            list(read_csv_trace(["zzz,R"]))

    def test_short_row_raises(self):
        with pytest.raises(ValueError, match="expected at least"):
            list(read_csv_trace(["12345"]))


class TestGem5Importer:
    def test_keeps_only_memory_packets(self):
        lines = [
            "100: mem_ctrl: ReadReq @0x1000 size 64",
            "105: mem_ctrl: PrefetchReq @0x2000 size 64",
            "110: mem_ctrl: WriteReq @0x3000 size 64",
            "",
            "# comment",
        ]
        requests = list(read_gem5_trace(lines))
        assert [r.addr for r in requests] == [0x1000, 0x3000]
        assert [r.is_write for r in requests] == [False, True]

    def test_comma_separated_variant(self):
        requests = list(read_gem5_trace(["1000,ReadReq,0x400"]))
        assert requests[0].addr == 0x400

    def test_writeback_counts_as_write(self):
        requests = list(read_gem5_trace(
            ["9: ctrl: WritebackDirty @0x40 size 64"]))
        assert requests[0].is_write


class TestPinImporter:
    def test_basic_lines(self):
        requests = list(read_pin_trace(["0x400: R 0x1000",
                                        "0x404: W 0x1040"]))
        assert requests[0].addr == 0x1000
        assert requests[1].is_write

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            list(read_pin_trace(["nonsense"]))


class TestImportTrace:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("addr,rw\n0x40,R\n0x80,W\n")
        trace = import_trace(path, fmt="csv")
        assert isinstance(trace, PackedTrace)
        assert [(r.addr, r.is_write, r.icount) for r in trace] \
            == [(0x40, False, 100), (0x80, True, 100)]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_text("")
        with pytest.raises(ValueError, match="unknown trace format"):
            import_trace(path, fmt="vtune")

    def test_imported_trace_drives_controller(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = "\n".join(f"{i * 64},{'W' if i % 4 == 0 else 'R'},62"
                         for i in range(500))
        path.write_text(rows + "\n")
        controller = BumblebeeController(hbm2_config(8 * MIB),
                                         ddr4_3200_config(80 * MIB))
        from repro.sim import SimulationDriver
        result = SimulationDriver().run(
            controller, import_trace(path), workload="imported")
        assert result.requests == 500
        controller.check_invariants()


class TestImportTrustBoundary:
    """A record the packed layout cannot hold is a typed error naming
    the file and the line, never a plausible result."""

    @pytest.mark.parametrize("row, reason", [
        ("0x40,R,abc", "bad icount"),
        ("0x40,R,-5", "icount -5"),
        ("-64,R,5", "negative address"),
        ("0x41,R,5", "not cache-line aligned"),
        ("0x40,R,16777216", "icount 16777216"),
        (f"{(1 << 39) * 64},R,5", "packed budget"),
    ])
    def test_unrepresentable_record_names_its_line(self, tmp_path, row,
                                                   reason):
        path = tmp_path / "trace.csv"
        path.write_text(f"addr,rw,icount\n0x80,W,7\n{row}\n")
        with pytest.raises(ValueError, match=f"line 3: .*{reason}") as exc:
            import_trace(path)
        assert str(path) in str(exc.value)

    def test_unaligned_points_at_full_stack(self, tmp_path):
        path = tmp_path / "core.csv"
        path.write_text("0x40,R,-5000\n0x41,W,7\n-64,R,3\n")
        with pytest.raises(ValueError, match="line 1"):
            import_trace(path)
        path.write_text("0x40,R,5000\n0x41,W,7\n")
        with pytest.raises(ValueError,
                           match="line 2: .*not a miss stream.*fullstack"):
            import_trace(path)


_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                max_size=24)
_ADDR = st.one_of(st.integers(-4, 1 << 40).map(lambda line: line * 64),
                  st.integers(-(1 << 10), 1 << 46))
_ADDR_TOKEN = st.one_of(_ADDR.map(str), _ADDR.map(hex))
_RW = st.sampled_from(["R", "W", "r", "write", "0", "1", "x"])
_ICOUNT = st.one_of(st.integers(-3, (1 << 24) + 3).map(str),
                    st.just(""), _TEXT)
_LINES = {
    "csv": st.one_of(
        st.builds("{},{},{}".format, _ADDR_TOKEN, _RW, _ICOUNT),
        st.builds("{},{}".format, _ADDR_TOKEN, _RW), _TEXT),
    "gem5": st.one_of(
        st.builds("{}: mem_ctrl: {} @{} size 64".format,
                  st.integers(0, 10 ** 6),
                  st.sampled_from(["ReadReq", "WriteReq", "ReadExReq",
                                   "WritebackDirty", "PrefetchReq"]),
                  _ADDR_TOKEN),
        _TEXT),
    "pin": st.one_of(
        st.builds("{}: {} {}".format, _ADDR.map(hex), _RW, _ADDR_TOKEN),
        _TEXT),
}
_READERS = {"csv": read_csv_trace, "gem5": read_gem5_trace,
            "pin": read_pin_trace}


def _import_or_name_a_line(fmt: str, lines: list[str]) -> None:
    """``import_trace`` returns a trace whose every record decodes back
    to the parser's record, or raises ``ValueError`` naming a line of
    the file; nothing else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"trace.{fmt}"
        path.write_text("".join(line + "\n" for line in lines))
        try:
            trace = import_trace(path, fmt=fmt, default_icount=62)
        except ValueError as exc:
            named = re.search(r"line (\d+)", str(exc))
            assert named and 1 <= int(named.group(1)) <= len(lines), exc
            return
    assert isinstance(trace, PackedTrace)
    assert list(trace) == list(_READERS[fmt](lines, default_icount=62))


class TestImporterFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_LINES["csv"], max_size=8))
    def test_csv(self, lines):
        _import_or_name_a_line("csv", lines)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_LINES["gem5"], max_size=8))
    def test_gem5(self, lines):
        _import_or_name_a_line("gem5", lines)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_LINES["pin"], max_size=8))
    def test_pin(self, lines):
        _import_or_name_a_line("pin", lines)


class TestTelemetry:
    def make(self):
        return BumblebeeController(hbm2_config(8 * MIB),
                                   ddr4_3200_config(80 * MIB))

    def test_snapshot_way_conservation(self):
        controller = self.make()
        now = 0.0
        for request in workload_trace("mcf", 2000):
            controller.access(request, now)
            now += 50.0
        snap = snapshot(controller)
        total = controller.geometry.sets * controller.geometry.hbm_ways
        assert snap.total_ways == total
        assert snap.allocated_pages > 0

    def test_recorder_samples_on_interval(self):
        controller = self.make()
        recorder = TelemetryRecorder(interval=250)
        now = 0.0
        for request in workload_trace("mcf", 1000):
            controller.access(request, now)
            now += 50.0
            recorder.tick(controller)
        assert len(recorder.snapshots) == 4

    def test_recorder_interval_validation(self):
        with pytest.raises(ValueError):
            TelemetryRecorder(interval=0)

    def test_chbm_share_series_bounded(self):
        controller = self.make()
        recorder = TelemetryRecorder(interval=200)
        now = 0.0
        for request in workload_trace("wrf", 1200):
            controller.access(request, now)
            now += 50.0
            recorder.tick(controller)
        assert all(0.0 <= share <= 1.0
                   for share in recorder.chbm_share_series())

    def test_render_contains_header(self):
        recorder = TelemetryRecorder(interval=10)
        assert "cHBM" in recorder.render()
