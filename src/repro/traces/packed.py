"""Packed miss streams: one 64-bit integer per request.

Every experiment replays the *same* deterministic miss streams against
many designs, so the per-request cost of materialising a trace — one
:class:`~repro.sim.request.MemoryRequest` object per miss — dominates
campaign wall time alongside the controller loop.  A
:class:`PackedTrace` stores the whole stream as a flat ``array('Q')``:

* bit 0         — the write flag;
* bits 1..24    — the instruction-count gap (up to ~16.7M);
* bits 25..63   — the cache-line index (39 bits, 32TB of address space).

:class:`PackedTrace` is the simulator's one trace format: every
miss-stream producer returns one and
:meth:`~repro.sim.driver.SimulationDriver.run` accepts nothing else.
It pickles and persists as raw bytes behind a JSON header line
(:func:`encode_entry` / :func:`decode_entry`, used by
:mod:`repro.traces.tracecache` and sanitizer reproducers), and the
driver decodes its integers into one reused
:class:`~repro.sim.request.MutableRequest` instead of constructing a
fresh object per miss.  Iterating or indexing a :class:`PackedTrace`
the ordinary way yields immutable :class:`MemoryRequest` objects, and
slicing yields a :class:`PackedTrace`, so sequence consumers
(``summarise``, :mod:`repro.analysis.tracetools`) take it unchanged.

Only line-aligned, line-sized requests whose fields fit the bit budget
are representable; :func:`encode_request` and
:meth:`PackedTrace.from_requests` raise ``ValueError`` otherwise.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from typing import Iterable, Iterator

from ..sim.request import CACHE_LINE_BYTES, MemoryRequest, MutableRequest

#: Bit layout of one packed request (also the on-disk format version).
PACKED_FORMAT_VERSION = 1
ICOUNT_BITS = 24
ICOUNT_MAX = (1 << ICOUNT_BITS) - 1
LINE_SHIFT = ICOUNT_BITS + 1
LINE_MAX = (1 << (64 - LINE_SHIFT)) - 1


def encode_request(addr: int, is_write: bool, icount: int) -> int:
    """Pack one request into its 64-bit integer.

    Raises:
        ValueError: when the request is not representable (unaligned
            address, negative fields, or a field exceeding its bit
            budget).
    """
    if addr < 0:
        raise ValueError(f"negative address {addr}")
    if addr % CACHE_LINE_BYTES:
        raise ValueError(
            f"address {addr:#x} is not cache-line aligned: an LLC-miss "
            f"stream is line-aligned, so this is not a miss stream "
            f"(filter raw core accesses through repro.sim.fullstack)")
    line = addr // CACHE_LINE_BYTES
    if line > LINE_MAX:
        raise ValueError(f"line index {line} outside the "
                         f"{LINE_MAX.bit_length()}-bit packed budget")
    if not 0 <= icount <= ICOUNT_MAX:
        raise ValueError(f"icount {icount} outside the {ICOUNT_BITS}-bit "
                         f"packed budget")
    return (line << LINE_SHIFT) | (icount << 1) | bool(is_write)


def decode_value(value: int) -> tuple[int, bool, int]:
    """Unpack one 64-bit integer into ``(addr, is_write, icount)``."""
    return ((value >> LINE_SHIFT) * CACHE_LINE_BYTES,
            bool(value & 1),
            (value >> 1) & ICOUNT_MAX)


class PackedTrace:
    """A miss stream stored as one unsigned 64-bit integer per request.

    Iterating (or indexing with an int) yields fresh immutable
    :class:`MemoryRequest` objects and slicing yields a
    :class:`PackedTrace`; :meth:`replay` yields one *reused*
    :class:`MutableRequest` for the driver's zero-allocation loop.
    """

    __slots__ = ("data",)

    def __init__(self, data: array | None = None) -> None:
        if data is not None and data.typecode != "Q":
            raise ValueError("PackedTrace needs an array('Q')")
        self.data = data if data is not None else array("Q")

    # ---- construction ---------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Iterable[MemoryRequest]
                      ) -> "PackedTrace":
        """Pack an iterable of requests.

        Raises:
            ValueError: when any request is not representable (unaligned
                address, non-line size, or field overflow).
        """
        data = array("Q")
        append = data.append
        for request in requests:
            if request.size != CACHE_LINE_BYTES:
                raise ValueError(
                    f"packed traces hold line-sized requests only, "
                    f"got size={request.size}")
            append(encode_request(request.addr, request.is_write,
                                  request.icount))
        return cls(data)

    @classmethod
    def concat(cls, traces: Iterable["PackedTrace"]) -> "PackedTrace":
        """One trace replaying ``traces`` back to back."""
        data = array("Q")
        for trace in traces:
            data.extend(trace.data)
        return cls(data)

    @classmethod
    def frombytes(cls, raw: bytes) -> "PackedTrace":
        """Rebuild a trace from :meth:`tobytes` output (little-endian).

        Raises:
            ValueError: when ``raw`` is not a whole number of packed
                 words — a truncated or corrupt payload.
        """
        if len(raw) % 8:
            raise ValueError(
                f"packed trace payload must be a multiple of 8 bytes "
                f"(one uint64 per request), got {len(raw)} bytes")
        data = array("Q")
        data.frombytes(raw)
        if sys.byteorder != "little":
            data.byteswap()
        return cls(data)

    def tobytes(self) -> bytes:
        """The raw little-endian payload (persisted by the trace cache)."""
        if sys.byteorder != "little":
            swapped = array("Q", self.data)
            swapped.byteswap()
            return swapped.tobytes()
        return self.data.tobytes()

    # ---- consumption ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        """Size of the packed payload in bytes."""
        return len(self.data) * self.data.itemsize

    def __iter__(self) -> Iterator[MemoryRequest]:
        for addr, is_write, icount in self.iter_decoded():
            yield MemoryRequest(addr=addr, is_write=is_write, icount=icount)

    def __getitem__(self, index: int | slice
                    ) -> "MemoryRequest | PackedTrace":
        if isinstance(index, slice):
            return PackedTrace(self.data[index])
        addr, is_write, icount = decode_value(self.data[index])
        return MemoryRequest(addr=addr, is_write=is_write, icount=icount)

    def iter_decoded(self) -> Iterator[tuple[int, bool, int]]:
        """Yield ``(addr, is_write, icount)`` tuples (no objects built)."""
        icount_mask = ICOUNT_MAX
        line_bytes = CACHE_LINE_BYTES
        shift = LINE_SHIFT
        for value in self.data:
            yield ((value >> shift) * line_bytes, bool(value & 1),
                   (value >> 1) & icount_mask)

    def replay(self) -> Iterator[MutableRequest]:
        """Yield one reused :class:`MutableRequest`, mutated per record.

        Zero allocations per request: consumers must read the fields
        before advancing and must never retain the yielded object (every
        controller in :mod:`repro.baselines` and :mod:`repro.core` only
        reads attribute values).
        """
        request = MutableRequest()
        icount_mask = ICOUNT_MAX
        line_bytes = CACHE_LINE_BYTES
        shift = LINE_SHIFT
        for value in self.data:
            request.addr = (value >> shift) * line_bytes
            request.is_write = bool(value & 1)
            request.icount = (value >> 1) & icount_mask
            yield request

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self.data == other.data

    def __repr__(self) -> str:
        return (f"PackedTrace({len(self.data)} requests, "
                f"{self.nbytes} bytes)")


def encode_entry(trace: PackedTrace) -> bytes:
    """The stored bytes of one trace entry.

    A single JSON header line carrying the payload digest, request
    count and packed-format version, then the raw :meth:`PackedTrace.
    tobytes` payload.  Trace-cache entries and sanitizer reproducers
    share this format.
    """
    payload = trace.tobytes()
    header = json.dumps({
        "digest": hashlib.sha256(payload).hexdigest(),
        "count": len(trace),
        "format": PACKED_FORMAT_VERSION,
    })
    return header.encode("utf-8") + b"\n" + payload


def decode_entry(data: bytes) -> PackedTrace:
    """The trace of one :func:`encode_entry` entry.

    Raises:
        ValueError: on a malformed header, a payload that does not
            match the header's digest, or a request count that does not
            match the payload length.
    """
    head, _, payload = data.partition(b"\n")
    try:
        header = json.loads(head)
        digest, count = header["digest"], header["count"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace entry header: {exc!r}") from exc
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError("trace entry payload digest mismatch")
    if type(count) is not int or count * 8 != len(payload):
        raise ValueError(f"trace entry header count {count!r} does not "
                         f"match its {len(payload)}-byte payload")
    return PackedTrace.frombytes(payload)
