"""Binary snapshot encoding of a full store.

Layout (little-endian, length-prefixed strings):

    header:  magic "STXSNAP1" | version u32 | partition u32 | commit_seq u64
    tables:  kind u8 | name | schema | kind-specific payload
    trailer: CRC32 over everything before it

Restore rebuilds the store from the file alone, bit-exactly, including
stream tuple-id counters and window staging state.
"""

from __future__ import annotations

import struct
import zlib
from itertools import groupby
from operator import attrgetter

from .codec import encode_text, row_codec, text_at
from .errors import CorruptSnapshot, VersionMismatch
from .model import WindowSpec
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


def _w_schema(out: list[bytes], schema: Schema) -> None:
    out.append(struct.pack("<H", len(schema)))
    for c in schema:
        out += (encode_text(c.name), struct.pack("<B", _TYPE_CODE[c.type]))


def _r_schema(buf: bytes, off: int) -> tuple[Schema, int]:
    (n,) = struct.unpack_from("<H", buf, off)
    off += 2
    cols = []
    for _ in range(n):
        name, off = text_at(buf, off)
        cols.append(Column(name, _CODE_TYPE[buf[off]]))
        off += 1
    return tuple(cols), off


def snapshot_state(store: Store, partition_id: int = 0, commit_seq: int = 0) -> bytes:
    """Serialize every table. Call only at quiescence."""
    out = [MAGIC, struct.pack("<IIQ", VERSION, partition_id, commit_seq)]
    for name in sorted(store.tables):
        tab = store.tables[name]
        if isinstance(tab, PublicTable):
            kind, rows = _KIND_PUBLIC, tab.rows
            meta = encode_text(",".join(sorted(tab.indexes)))
            meta += struct.pack("<Q", len(rows))
        elif isinstance(tab, StreamTable):
            kind, rows = _KIND_STREAM, tab.rows
            meta = struct.pack(
                "<QQQ", tab.next_tuple_id, tab.last_consumed_batch, len(rows)
            )
        else:
            kind, rows = _KIND_WINDOW, tab.active + tab.staged
            spec = tab.spec
            counts = (tab.events_emitted, len(tab.active), len(tab.staged))
            meta = encode_text(spec.owner) + struct.pack(
                "<IIBQQQ", spec.size, spec.slide, tab.full_seen, *counts
            )
        out += (struct.pack("<B", kind), encode_text(tab.name))
        _w_schema(out, tab.schema)
        out += (meta, row_codec(tab.schema)[0](rows))
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


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
    # verify_snapshot has checked the magic and that the header fits
    version, partition_id, commit_seq = struct.unpack_from(
        "<IIQ", blob, len(MAGIC)
    )
    if version != VERSION:
        raise VersionMismatch(f"snapshot version {version}, expected {VERSION}")
    buf = blob[len(MAGIC) + 16 : -4]
    store = Store()
    off = 0
    try:
        while off < len(buf):
            kind = buf[off]
            name, off = text_at(buf, off + 1)
            schema, off = _r_schema(buf, off)
            decode_rows = row_codec(schema)[1]
            if kind == _KIND_PUBLIC:
                indexed, off = text_at(buf, off)
                tab = store.create_public(
                    name, schema, indexed.split(",") if indexed else ()
                )
                (count,) = struct.unpack_from("<Q", buf, off)
                rows, off = decode_rows(buf, off + 8, count)
                for t in rows:
                    tab.rows.append(t)
                    tab._index_add(t)
            elif kind == _KIND_STREAM:
                tab = store.create_stream(name, schema)
                next_id, last_consumed, count = struct.unpack_from("<QQQ", buf, off)
                tab.next_tuple_id = next_id
                tab.last_consumed_batch = last_consumed
                rows, off = decode_rows(buf, off + 24, count)
                for batch_id, batch in groupby(rows, key=attrgetter("batch_id")):
                    tab.batches[batch_id] = tuple(batch)
            elif kind == _KIND_WINDOW:
                owner, off = text_at(buf, off)
                size, slide, full_seen, emitted, n_active, n_staged = (
                    struct.unpack_from("<IIBQQQ", buf, off)
                )
                tab = store.create_window(WindowSpec(name, size, slide, owner), schema)
                tab.full_seen = bool(full_seen)
                tab.events_emitted = emitted
                tab.active, off = decode_rows(buf, off + 33, n_active)
                tab.staged, off = decode_rows(buf, off, n_staged)
                tab.recompute_sums()
            else:
                raise CorruptSnapshot(f"unknown table kind {kind}")
    except (struct.error, ValueError, IndexError, KeyError) as e:
        raise CorruptSnapshot(f"malformed snapshot: {e}") from e
    return store, partition_id, commit_seq
