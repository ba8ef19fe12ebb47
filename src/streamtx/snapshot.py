"""Binary snapshot encoding of a full store.

Layout (little-endian, length-prefixed strings):

    header:  magic "STXSNAP1" | version u32 | partition u32 | commit_seq u64
    tables:  shape | state | rows, for each table in name order
    shape:   kind u8 | name | schema | index columns, or window owner, size, slide
    trailer: CRC32 over everything before it

A table's rows are the concatenation of each row's encoding, so a
checkpoint that keeps the previous one's encoded rows (``snapshot_state``'s
memo) encodes only the rows added since and writes the same bytes as one
that encodes everything. The file is still written, and its CRC taken,
whole.

Restore loads the file into the store the spec built: each table's shape
must equal the snapshot's byte for byte, and its contents are replaced
bit-exactly, including stream tuple-id counters and window staging state.
Restore decodes every row; it seeds no memo.
"""

from __future__ import annotations

import struct
import zlib
from itertools import islice
from typing import Optional

from .codec import TYPE_CODES, encode_text, row_codec
from .errors import CorruptSnapshot, VersionMismatch
from .storage import AnyTable, PublicTable, Store, StreamTable, WindowTable

MAGIC = b"STXSNAP1"
VERSION = 1

_KIND_CODE = {"public": 0, "stream": 1, "window": 2}

_PUBLIC_STATE = struct.Struct("<Q")  # rows
_STREAM_STATE = struct.Struct("<QQQ")  # next tuple id, last consumed batch, rows
_WINDOW_STATE = struct.Struct("<BQQQ")  # full_seen, events emitted, active, staged
_NOTHING = (None, 0, 0, b"")  # a memo entry that keeps no rows


def _shape(tab: AnyTable) -> bytes:
    """What a table's snapshot shares with the catalog it restores into."""
    out = [bytes((_KIND_CODE[tab.kind],)), encode_text(tab.name)]
    out.append(struct.pack("<H", len(tab.schema)))
    for c, kind in zip(tab.schema, tab.types):
        out += (encode_text(c.name), bytes((TYPE_CODES[kind],)))
    if isinstance(tab, PublicTable):
        out.append(encode_text(",".join(sorted(tab.indexes))))
    elif not isinstance(tab, StreamTable):
        spec = tab.spec
        out += (encode_text(spec.owner), struct.pack("<II", spec.size, spec.slide))
    return b"".join(out)


def snapshot_state(
    store: Store,
    partition_id: int = 0,
    commit_seq: int = 0,
    memo: Optional[dict] = None,
) -> bytes:
    """Serialize every table. Call only at quiescence.

    ``memo`` is a dict that one caller hands to each of its snapshots of
    ``store``. Each public table and stream keeps there the bytes and
    count of the rows this snapshot wrote, with an anchor: the next
    snapshot reuses those bytes and encodes only the rows after them,
    once the anchor proves by object identity that they still stand. A
    table whose anchor fails, and every table without a memo, is encoded
    whole by the same loop, so the bytes never depend on the memo. A
    window's active set slides, so a window is always encoded whole."""
    out = [MAGIC, struct.pack("<IIQ", VERSION, partition_id, commit_seq)]
    held = {} if memo is None else memo
    for name in sorted(store.tables):
        tab = store.tables[name]
        # (anchor, list entries, rows, their bytes) the last snapshot kept
        anchor, n_entries, n_rows, encoded = held.get(name, _NOTHING)
        if isinstance(tab, PublicTable):
            rows = tab.rows
            # a row list only grows, a rollback pops only rows its open
            # transaction appended, and a delete installs a new list (its
            # rollback puts the old one back unchanged): the same list
            # still starts with the rows the memo encoded
            if rows is not anchor:
                n_rows, encoded = 0, b""
            new = rows[n_rows:]
            anchor = rows
            n_entries = n_rows = len(rows)
            state = _PUBLIC_STATE.pack(n_rows)
        elif isinstance(tab, StreamTable):
            batches = tab.batches
            # ids ascend in insertion order, no id below the newest is
            # appended, a batch changes only by being replaced, and a
            # collected one never returns: when entry n_entries is still
            # the batch object the memo encoded last, the entries before
            # it are the same batches
            if n_entries and (
                next(islice(batches.values(), n_entries - 1, None), None)
                is not anchor
            ):
                n_entries = n_rows = 0
                encoded = b""
            new = [t for b in islice(batches.values(), n_entries, None) for t in b]
            anchor = next(reversed(batches.values()), None)
            n_entries, n_rows = len(batches), n_rows + len(new)
            state = _STREAM_STATE.pack(
                tab.next_tuple_id, tab.last_consumed_batch, n_rows
            )
        else:
            new = tab.active + tab.staged
            state = _WINDOW_STATE.pack(
                tab.full_seen, tab.events_emitted, len(tab.active), len(tab.staged)
            )
        encoded += row_codec(tab.types)[0](new)
        out += (_shape(tab), state, encoded)
        if memo is not None and not isinstance(tab, WindowTable):
            memo[name] = (anchor, n_entries, n_rows, encoded)
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


def _batches(rows: tuple) -> dict[int, tuple]:
    """A stream's rows, in stream order, as its batches: each batch is a
    slice of ``rows``, cut where the batch id changes."""
    out = {}
    if not rows:
        return out
    start, batch_id = 0, rows[0].batch_id
    for i, t in enumerate(rows):
        if t[2] != batch_id:  # t.batch_id, without the attribute lookup
            out[batch_id] = rows[start:i]
            start, batch_id = i, t[2]
    out[batch_id] = rows[start:]
    return out


def restore_state(blob: bytes, store: Store) -> tuple[int, int]:
    """Replace every table's contents in ``store`` with the snapshot's and
    return (partition_id, commit_seq). A table whose shape differs, or one
    the snapshot holds beyond them, raises ``VersionMismatch`` and leaves
    ``store`` partly loaded."""
    verify_snapshot(blob)
    # verify_snapshot has checked the magic and that the header fits
    version, partition_id, commit_seq = struct.unpack_from(
        "<IIQ", blob, len(MAGIC)
    )
    if version != VERSION:
        raise VersionMismatch(f"snapshot version {version}, expected {VERSION}")
    buf = blob[len(MAGIC) + 16 : -4]
    off = 0
    try:
        for name in sorted(store.tables):
            tab = store.tables[name]
            shape = _shape(tab)
            if buf[off : off + len(shape)] != shape:
                raise VersionMismatch(f"snapshot table {name} differs from the catalog")
            off += len(shape)
            decode_rows = row_codec(tab.types)[1]
            if isinstance(tab, PublicTable):
                (count,) = _PUBLIC_STATE.unpack_from(buf, off)
                tab.rows, off = decode_rows(buf, off + _PUBLIC_STATE.size, count)
                for cname, ci in tab.index_cols:  # buckets in table-row order
                    tab.indexes[cname] = buckets = {}
                    for t in tab.rows:
                        buckets.setdefault(t.values[ci], []).append(t)
            elif isinstance(tab, StreamTable):
                next_id, last_consumed, count = _STREAM_STATE.unpack_from(buf, off)
                tab.next_tuple_id = next_id
                tab.last_consumed_batch = last_consumed
                rows, off = decode_rows(buf, off + _STREAM_STATE.size, count)
                tab.batches = _batches(tuple(rows))
            else:
                full_seen, emitted, n_active, n_staged = _WINDOW_STATE.unpack_from(
                    buf, off
                )
                tab.full_seen = bool(full_seen)
                tab.events_emitted = emitted
                tab.active, off = decode_rows(buf, off + _WINDOW_STATE.size, n_active)
                tab.staged, off = decode_rows(buf, off, n_staged)
                tab.recompute_sums()
    except (struct.error, ValueError, IndexError) as e:
        raise CorruptSnapshot(f"malformed snapshot: {e}") from e
    if off != len(buf):
        raise VersionMismatch("snapshot holds tables the catalog lacks")
    return partition_id, commit_seq
