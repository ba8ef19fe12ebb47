"""Binary snapshot encoding of a full store.

Layout (little-endian, length-prefixed strings):

    header:  magic "STXSNAP1" | version u32 | partition u32 | commit_seq u64
    tables:  kind u8 | name | schema | kind-specific payload
    trailer: CRC32 over everything before it

Restore rebuilds the store from the file alone, bit-exactly, including
stream tuple-id counters and window staging state.
"""

from __future__ import annotations

import io
import struct
import zlib
from itertools import groupby
from operator import attrgetter

from .errors import CorruptSnapshot, VersionMismatch
from .model import Tuple, WindowSpec
from .storage import (
    Column,
    PublicTable,
    ScalarType,
    Schema,
    Store,
    StreamTable,
)

MAGIC = b"STXSNAP1"
VERSION = 1

_KIND_PUBLIC = 0
_KIND_STREAM = 1
_KIND_WINDOW = 2

_TYPE_CODE = {ScalarType.INT: 0, ScalarType.FLOAT: 1, ScalarType.TEXT: 2}
_CODE_TYPE = {v: k for k, v in _TYPE_CODE.items()}


def _w_str(out: io.BytesIO, s: str) -> None:
    b = s.encode()
    out.write(struct.pack("<H", len(b)))
    out.write(b)


def _r_str(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<H", _read(buf, 2))
    return _read(buf, n).decode()


def _read(buf: io.BytesIO, n: int) -> bytes:
    b = buf.read(n)
    if len(b) != n:
        raise CorruptSnapshot("unexpected end of snapshot")
    return b


def _w_row(out: io.BytesIO, t: Tuple, schema: Schema) -> None:
    out.write(struct.pack("<qqq", t.tuple_id, t.batch_id, t.ts))
    for v, c in zip(t.values, schema):
        if c.type is ScalarType.INT:
            out.write(struct.pack("<q", v))
        elif c.type is ScalarType.FLOAT:
            out.write(struct.pack("<d", v))
        else:
            _w_str(out, v)


def _r_row(buf: io.BytesIO, schema: Schema) -> Tuple:
    tuple_id, batch_id, ts = struct.unpack("<qqq", _read(buf, 24))
    values = []
    for c in schema:
        if c.type is ScalarType.INT:
            values.append(struct.unpack("<q", _read(buf, 8))[0])
        elif c.type is ScalarType.FLOAT:
            values.append(struct.unpack("<d", _read(buf, 8))[0])
        else:
            values.append(_r_str(buf))
    return Tuple(tuple(values), tuple_id=tuple_id, batch_id=batch_id, ts=ts)


def _w_schema(out: io.BytesIO, schema: Schema) -> None:
    out.write(struct.pack("<H", len(schema)))
    for c in schema:
        _w_str(out, c.name)
        out.write(struct.pack("<B", _TYPE_CODE[c.type]))


def _r_schema(buf: io.BytesIO) -> Schema:
    (n,) = struct.unpack("<H", _read(buf, 2))
    cols = []
    for _ in range(n):
        name = _r_str(buf)
        (code,) = struct.unpack("<B", _read(buf, 1))
        cols.append(Column(name, _CODE_TYPE[code]))
    return tuple(cols)


def snapshot_state(store: Store, partition_id: int = 0, commit_seq: int = 0) -> bytes:
    """Serialize every table. Call only at quiescence."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<IIQ", VERSION, partition_id, commit_seq))
    for name in sorted(store.tables):
        tab = store.tables[name]
        if isinstance(tab, PublicTable):
            out.write(struct.pack("<B", _KIND_PUBLIC))
            _w_str(out, tab.name)
            _w_schema(out, tab.schema)
            _w_str(out, ",".join(sorted(tab.indexes)))
            out.write(struct.pack("<Q", len(tab.rows)))
            for t in tab.rows:
                _w_row(out, t, tab.schema)
        elif isinstance(tab, StreamTable):
            out.write(struct.pack("<B", _KIND_STREAM))
            _w_str(out, tab.name)
            _w_schema(out, tab.schema)
            rows = tab.rows
            out.write(
                struct.pack(
                    "<QQQ", tab.next_tuple_id, tab.last_consumed_batch, len(rows)
                )
            )
            for t in rows:
                _w_row(out, t, tab.schema)
        else:
            out.write(struct.pack("<B", _KIND_WINDOW))
            _w_str(out, tab.name)
            _w_schema(out, tab.schema)
            _w_str(out, tab.spec.owner)
            out.write(
                struct.pack(
                    "<IIBQ",
                    tab.spec.size,
                    tab.spec.slide,
                    1 if tab.full_seen else 0,
                    tab.events_emitted,
                )
            )
            out.write(struct.pack("<QQ", len(tab.active), len(tab.staged)))
            for t in tab.active:
                _w_row(out, t, tab.schema)
            for t in tab.staged:
                _w_row(out, t, tab.schema)
    body = out.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def snapshot_header(blob: bytes) -> tuple[int, int, int]:
    """(version, partition_id, commit_seq) without a full decode."""
    if len(blob) < len(MAGIC) + 16 or blob[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshot("bad magic")
    return struct.unpack("<IIQ", blob[len(MAGIC) : len(MAGIC) + 16])


def verify_snapshot(blob: bytes) -> None:
    if len(blob) < len(MAGIC) + 16 + 4:
        raise CorruptSnapshot("snapshot too short")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshot("bad magic")
    body, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc:
        raise CorruptSnapshot("checksum mismatch")


def restore_state(blob: bytes) -> tuple[Store, int, int]:
    """Rebuild a store from a snapshot: (store, partition_id, commit_seq)."""
    verify_snapshot(blob)
    version, partition_id, commit_seq = snapshot_header(blob)
    if version != VERSION:
        raise VersionMismatch(f"snapshot version {version}, expected {VERSION}")
    buf = io.BytesIO(blob[len(MAGIC) + 16 : -4])
    store = Store()
    while True:
        kind_b = buf.read(1)
        if not kind_b:
            break
        kind = kind_b[0]
        name = _r_str(buf)
        schema = _r_schema(buf)
        if kind == _KIND_PUBLIC:
            indexed = _r_str(buf)
            tab = store.create_public(
                name, schema, indexed.split(",") if indexed else ()
            )
            (count,) = struct.unpack("<Q", _read(buf, 8))
            for _ in range(count):
                t = _r_row(buf, schema)
                tab.rows.append(t)
                tab._index_add(t)
        elif kind == _KIND_STREAM:
            tab = store.create_stream(name, schema)
            next_id, last_consumed, count = struct.unpack("<QQQ", _read(buf, 24))
            tab.next_tuple_id = next_id
            tab.last_consumed_batch = last_consumed
            rows = [_r_row(buf, schema) for _ in range(count)]
            for batch_id, batch in groupby(rows, key=attrgetter("batch_id")):
                tab.batches[batch_id] = tuple(batch)
        elif kind == _KIND_WINDOW:
            owner = _r_str(buf)
            size, slide, full_seen, emitted = struct.unpack("<IIBQ", _read(buf, 17))
            tab = store.create_window(WindowSpec(name, size, slide, owner), schema)
            tab.full_seen = bool(full_seen)
            tab.events_emitted = emitted
            n_active, n_staged = struct.unpack("<QQ", _read(buf, 16))
            for _ in range(n_active):
                tab.active.append(_r_row(buf, schema))
            for _ in range(n_staged):
                tab.staged.append(_r_row(buf, schema))
        else:
            raise CorruptSnapshot(f"unknown table kind {kind}")
    return store, partition_id, commit_seq
