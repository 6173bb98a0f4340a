"""The cache entry codecs at the stored-bytes trust boundary.

Result entries (:func:`repro.analysis.resultcache.encode_record` /
``decode_record``) and trace entries (:func:`repro.traces.packed.
encode_entry` / ``decode_entry``) are what every cache, the fleet's
HTTP routes and sanitizer reproducers exchange.  Pinned literal bytes
keep existing cache directories hitting; random damage must either
decode to exactly the original value or raise ``ValueError``.
"""

import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.resultcache import ResultCache, decode_record, \
    encode_record
from repro.traces.packed import PackedTrace, decode_entry, encode_entry
from repro.traces.spec import SystemScale, synthetic_spec
from repro.traces.tracecache import TraceCache

RESULT_ENTRY = (
    b'{"digest": "7b3d28e57bb0de84a4d8f6e69f2c0b2a5ad35b2885768783a95f7195'
    b'50946958", "record": {"design": "Bumblebee", "norm_ipc": 1.25, '
    b'"workload": "mcf", "hits": [3, 0]}}')
RESULT_RECORD = {"design": "Bumblebee", "norm_ipc": 1.25,
                 "workload": "mcf", "hits": [3, 0]}
TRACE_ENTRY = (
    b'{"digest": "5cf16bfba4782f19210782ad87f1c6b3ea36bd38b10906aee29d6224'
    b'9b05c5e8", "count": 2, "format": 1}\n'
    b'\x07\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00')
TRACE_VALUES = [33554439, 2147483648]

traces = st.lists(st.integers(0, 2 ** 64 - 1), max_size=40).map(
    lambda values: PackedTrace(array("Q", values)))
records = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
CODECS = {
    "trace": (traces, encode_entry, decode_entry),
    "record": (records, encode_record, decode_record),
}


def _damaged(data: bytes, draw) -> bytes:
    """``data`` truncated at any offset or with any one byte replaced."""
    offset = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        return data[:offset]
    byte = draw(st.integers(0, 255).filter(lambda b: b != data[offset]))
    return data[:offset] + bytes([byte]) + data[offset + 1:]


def _decodes_to_original_or_rejects(decode, data: bytes, value) -> None:
    try:
        decoded = decode(data)
    except ValueError:
        return
    assert decoded == value


def _edit_header(data: bytes, field: str, value) -> bytes:
    """A trace entry with one header field replaced."""
    head, _, payload = data.partition(b"\n")
    header = json.loads(head)
    header[field] = value
    return json.dumps(header).encode("utf-8") + b"\n" + payload


class TestPinnedEntryBytes:
    """Bytes as earlier versions wrote them decode and re-encode
    unchanged, so existing cache directories keep hitting."""

    def test_result_entry(self, tmp_path):
        assert decode_record(RESULT_ENTRY) == RESULT_RECORD
        assert encode_record(RESULT_RECORD) == RESULT_ENTRY
        (tmp_path / f"{'ab' * 32}.json").write_bytes(RESULT_ENTRY)
        assert ResultCache(tmp_path).get("ab" * 32) == RESULT_RECORD

    def test_trace_entry(self, tmp_path):
        trace = PackedTrace(array("Q", TRACE_VALUES))
        assert decode_entry(TRACE_ENTRY) == trace
        assert encode_entry(trace) == TRACE_ENTRY
        spec = synthetic_spec("mcf", SystemScale(1 / 256))
        key = TraceCache.key_for(spec, 2, 1)
        (tmp_path / f"{key}.trace").write_bytes(TRACE_ENTRY)
        assert TraceCache(tmp_path).get(spec, 2, 1) == trace


class TestCodecRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(trace=traces)
    def test_trace_entry_round_trips(self, trace):
        data = encode_entry(trace)
        assert decode_entry(data) == trace
        assert encode_entry(decode_entry(data)) == data

    @settings(max_examples=100, deadline=None)
    @given(record=records)
    def test_result_entry_round_trips(self, record):
        data = encode_record(record)
        assert decode_record(data) == record
        assert encode_record(decode_record(data)) == data


class TestDamagedEntries:
    @pytest.mark.parametrize("data", [
        b"", b"[]", b'"record"', b"3", b"null", b'{"record": 1}',
        b'{"digest": "00"}', b"\xff\xfe"])
    def test_malformed_result_entry_rejected(self, data):
        with pytest.raises(ValueError):
            decode_record(data)

    @pytest.mark.parametrize("head", [
        b"", b"[]", b'"digest"', b"3", b"null", b"{}", b'{"count": 0}',
        b"\xff\xfe"])
    def test_malformed_trace_header_rejected(self, head):
        with pytest.raises(ValueError):
            decode_entry(head + b"\n")

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(CODECS)), data=st.data())
    def test_truncated_or_flipped_bytes(self, kind, data):
        values, encode, decode = CODECS[kind]
        value = data.draw(values)
        damaged = _damaged(encode(value), data.draw)
        _decodes_to_original_or_rejects(decode, damaged, value)

    @settings(max_examples=100, deadline=None)
    @given(trace=traces, digest=st.text(max_size=64),
           count=st.integers() | st.floats() | st.text(max_size=4)
           | st.none())
    def test_trace_header_edits_rejected(self, trace, digest, count):
        data = encode_entry(trace)
        header = json.loads(data.partition(b"\n")[0])
        if digest != header["digest"]:
            with pytest.raises(ValueError):
                decode_entry(_edit_header(data, "digest", digest))
        if type(count) is not int or count != header["count"]:
            with pytest.raises(ValueError):
                decode_entry(_edit_header(data, "count", count))

    @settings(max_examples=100, deadline=None)
    @given(record=records, digest=st.text(max_size=64))
    def test_record_digest_edit_rejected(self, record, digest):
        wrapped = json.loads(encode_record(record))
        if digest != wrapped["digest"]:
            wrapped["digest"] = digest
            with pytest.raises(ValueError):
                decode_record(json.dumps(wrapped).encode("utf-8"))
