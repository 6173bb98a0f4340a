"""Importers for external memory-trace formats.

Users bringing their own LLC-miss traces (gem5 packet dumps, Intel PIN
memory logs, CSV exports) can convert them into the simulator's
:class:`~repro.traces.packed.PackedTrace` without writing glue code.
All importers are line-streaming, skip blank/comment lines, and raise
on malformed or unrepresentable records with the offending line number.

Supported formats:

* ``csv``    — ``addr,rw,icount`` with optional header; ``rw`` is
  ``R``/``W`` (case-insensitive) or ``0``/``1``.
* ``gem5``   — the classic ``system.mem_ctrl`` packet-trace style:
  ``<tick>: <name>: <cmd> <addr> ...`` keeping only read/write requests.
* ``pin``    — PIN-style ``<ip>: <R|W> <addr>`` lines.

Instruction counts: formats without instruction information take a
fixed ``icount`` per record (choose ``1000 / target_mpki``).
"""

from __future__ import annotations

import csv as _csv
from array import array
from pathlib import Path
from typing import Iterable, Iterator

from ..sim.request import MemoryRequest
from .packed import PackedTrace, encode_request

#: A per-line parser's record: ``(addr, is_write, icount)``, or None
#: for a line the format skips.
_Record = tuple[int, bool, int] | None


def _parse_rw(token: str, line_no: int) -> bool:
    lowered = token.strip().lower()
    if lowered in ("r", "rd", "read", "0"):
        return False
    if lowered in ("w", "wr", "write", "1"):
        return True
    raise ValueError(f"line {line_no}: unrecognised read/write flag "
                     f"{token!r}")


def _parse_int(token: str, line_no: int, what: str = "address") -> int:
    token = token.strip()
    try:
        return int(token, 16) if token.lower().startswith("0x") \
            else int(token)
    except ValueError:
        raise ValueError(f"line {line_no}: bad {what} {token!r}") \
            from None


def _csv_record(line: str, line_no: int, default_icount: int) -> _Record:
    try:
        row = next(_csv.reader([line]))
    except _csv.Error as exc:
        raise ValueError(f"line {line_no}: {exc}") from None
    if row[0].strip().lower() in ("addr", "address"):
        return None  # header
    if len(row) < 2:
        raise ValueError(f"line {line_no}: expected at least "
                         f"addr,rw — got {row!r}")
    addr = _parse_int(row[0], line_no)
    is_write = _parse_rw(row[1], line_no)
    icount = _parse_int(row[2], line_no, "icount") \
        if len(row) > 2 and row[2].strip() else default_icount
    return addr, is_write, icount


def _gem5_record(line: str, line_no: int, default_icount: int) -> _Record:
    command = None
    addr_token = None
    for token in line.replace(",", " ").replace(":", " ").split():
        lowered = token.lower()
        if lowered in ("readreq", "read", "readexreq"):
            command = "r"
        elif lowered in ("writereq", "write", "writebackdirty"):
            command = "w"
        if token.startswith("@"):
            addr_token = token[1:]
        elif token.startswith("0x"):
            addr_token = token
    if command is None or addr_token is None:
        return None
    return _parse_int(addr_token, line_no), command == "w", default_icount


def _pin_record(line: str, line_no: int, default_icount: int) -> _Record:
    parts = line.replace(":", " ").split()
    if len(parts) < 3:
        raise ValueError(f"line {line_no}: expected "
                         f"'<ip>: <R|W> <addr>', got {line!r}")
    is_write = _parse_rw(parts[-2], line_no)
    return _parse_int(parts[-1], line_no), is_write, default_icount


_PARSERS = {
    "csv": _csv_record,
    "gem5": _gem5_record,
    "pin": _pin_record,
}


def _records(fmt: str, lines: Iterable[str], default_icount: int
             ) -> Iterator[tuple[int, int, bool, int]]:
    """``(line_no, addr, is_write, icount)`` per record of ``lines``,
    skipping blank and ``#`` comment lines."""
    parse = _PARSERS[fmt]
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            record = parse(line, line_no, default_icount)
            if record is not None:
                yield (line_no, *record)


def _requests(fmt: str, lines: Iterable[str], default_icount: int
              ) -> Iterator[MemoryRequest]:
    for _, addr, is_write, icount in _records(fmt, lines, default_icount):
        yield MemoryRequest(addr=addr, is_write=is_write, icount=icount)


def read_csv_trace(lines: Iterable[str],
                   default_icount: int = 100) -> Iterator[MemoryRequest]:
    """Parse ``addr,rw[,icount]`` records (header auto-detected).

    Raises:
        ValueError: on malformed rows, with the line number.
    """
    return _requests("csv", lines, default_icount)


def read_gem5_trace(lines: Iterable[str],
                    default_icount: int = 100) -> Iterator[MemoryRequest]:
    """Parse gem5 packet-trace style lines.

    Expected shape: ``<tick>: <object>: <Cmd> request @<addr> ...`` or
    ``<tick>,<cmd>,<addr>``; only ReadReq/WriteReq-class commands are
    kept, everything else is skipped silently (gem5 dumps carry many
    maintenance packets).
    """
    return _requests("gem5", lines, default_icount)


def read_pin_trace(lines: Iterable[str],
                   default_icount: int = 100) -> Iterator[MemoryRequest]:
    """Parse PIN-style ``<ip>: <R|W> <addr>`` lines.

    Raises:
        ValueError: on malformed lines.
    """
    return _requests("pin", lines, default_icount)


def import_trace(path: str | Path, fmt: str = "csv",
                 default_icount: int = 100) -> PackedTrace:
    """Import an external LLC-miss trace file as a :class:`PackedTrace`.

    Args:
        path: Trace file.
        fmt: One of ``csv``, ``gem5``, ``pin``.
        default_icount: Instructions charged per record when the format
            carries none (pick ``round(1000 / target_mpki)``).

    Raises:
        ValueError: for an unknown format, malformed content, or a
            record the packed layout cannot hold (an unaligned or
            negative address, a line index beyond 39 bits, a negative
            icount or one above 2^24-1), naming the file and the line.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"supported: {sorted(_PARSERS)}")
    data = array("Q")
    with open(path, encoding="utf-8", errors="replace") as fh:
        try:
            for line_no, addr, is_write, icount in _records(
                    fmt, fh, default_icount):
                try:
                    data.append(encode_request(addr, is_write, icount))
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return PackedTrace(data)
