"""How a tuple and a durable record become bytes (little-endian).

    scalars  int <q, float <d, text as len u16 | UTF-8
    row      tuple_id, batch_id, ts as <qqq | each value in its column's
             scalar encoding (snapshots)
    batches  stream count u16, then per stream: name text | batch_id <q |
             tuple count u32, then per tuple: tuple_id <q | ts <q |
             value count u16 | per value a tag u8 (0 int, 1 float, 2 text)
             and the scalar (border args and input-cache records)
    frame    len u32 | payload | CRC32 of len and payload (command log and
             input cache)

Batches describe themselves: their producers know no schema. Encoding one
raises TypeMismatch for any value that is not int, float or text of at most
MAX_TEXT_BYTES.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterator

from .errors import TypeMismatch
from .model import MAX_TEXT_BYTES, AtomicBatch, Tuple
from .storage import PY_TYPES, Schema

_Q = struct.Struct("<q")
_D = struct.Struct("<d")
_H = struct.Struct("<H")
_I = struct.Struct("<I")
_ROW_HEAD = struct.Struct("<qqq")
_BATCH_HEAD = struct.Struct("<qI")
_TUPLE_HEAD = struct.Struct("<qqH")


def encode_text(s: str) -> bytes:
    b = s.encode()
    return _H.pack(len(b)) + b


def text_at(buf: bytes, off: int) -> tuple[str, int]:
    (n,) = _H.unpack_from(buf, off)
    end = off + 2 + n
    if end > len(buf):
        raise ValueError("text runs past the end")
    return buf[off + 2 : end].decode(), end


def _fixed_at(st: struct.Struct) -> Callable:
    return lambda buf, off: (st.unpack_from(buf, off)[0], off + st.size)


# Python type -> (encoder, decoder); a batch value's tag is its type's position
_SCALARS = {
    int: (_Q.pack, _fixed_at(_Q)),
    float: (_D.pack, _fixed_at(_D)),
    str: (encode_text, text_at),
}
_TAGS = {kind: bytes([i]) for i, kind in enumerate(_SCALARS)}
_TAGGED_DECODERS = [decode for _, decode in _SCALARS.values()]


def row_codec(schema: Schema) -> tuple[Callable, Callable]:
    """Encoder ``rows -> bytearray`` and decoder ``(buf, off, n) -> (rows, off)``
    of one schema's rows."""
    kinds = [PY_TYPES[c.type] for c in schema]
    encoders = [_SCALARS[k][0] for k in kinds]
    decoders = [_SCALARS[k][1] for k in kinds]

    def encode(rows) -> bytearray:
        out = bytearray()
        for t in rows:
            out += _ROW_HEAD.pack(t.tuple_id, t.batch_id, t.ts)
            for e, v in zip(encoders, t.values):
                out += e(v)
        return out

    def decode(buf: bytes, off: int, n: int) -> tuple[list[Tuple], int]:
        rows = []
        for _ in range(n):
            tuple_id, batch_id, ts = _ROW_HEAD.unpack_from(buf, off)
            off += _ROW_HEAD.size
            values = []
            for d in decoders:
                v, off = d(buf, off)
                values.append(v)
            rows.append(Tuple(tuple(values), tuple_id, batch_id, ts))
        return rows, off

    return encode, decode


def _tagged(v) -> bytes:
    kind = type(v)  # bool is not int here, as in check_row
    if kind not in _TAGS:
        raise TypeMismatch(f"cannot encode {kind.__name__} value {v!r}")
    body = _SCALARS[kind][0](v)
    if kind is str and len(body) > 2 + MAX_TEXT_BYTES:
        raise TypeMismatch(f"text exceeds {MAX_TEXT_BYTES} bytes")
    return _TAGS[kind] + body


def encode_batches(batches: dict[str, AtomicBatch]) -> bytes:
    out = [_H.pack(len(batches))]
    try:
        for stream, batch in batches.items():
            head = _BATCH_HEAD.pack(batch.batch_id, len(batch.tuples))
            out += (encode_text(stream), head)
            for t in batch.tuples:
                out.append(_TUPLE_HEAD.pack(t.tuple_id, t.ts, len(t.values)))
                out.extend(map(_tagged, t.values))
    except struct.error as e:  # an int outside 64 bits, say
        raise TypeMismatch(str(e)) from e
    return b"".join(out)


def decode_batches(buf: bytes) -> dict[str, AtomicBatch]:
    (n_streams,) = _H.unpack_from(buf, 0)
    off = 2
    out: dict[str, AtomicBatch] = {}
    for _ in range(n_streams):
        stream, off = text_at(buf, off)
        batch_id, n_tuples = _BATCH_HEAD.unpack_from(buf, off)
        off += _BATCH_HEAD.size
        tuples = []
        for _ in range(n_tuples):
            tuple_id, ts, n_values = _TUPLE_HEAD.unpack_from(buf, off)
            off += _TUPLE_HEAD.size
            values = []
            for _ in range(n_values):
                v, off = _TAGGED_DECODERS[buf[off]](buf, off + 1)
                values.append(v)
            tuples.append(Tuple(tuple(values), tuple_id, batch_id, ts))
        out[stream] = AtomicBatch(batch_id, tuple(tuples))
    return out


def frame(payload: bytes) -> bytes:
    body = _I.pack(len(payload)) + payload
    return body + _I.pack(zlib.crc32(body))


def frames(blob: bytes, off: int) -> Iterator[bytes]:
    """Payloads of the frames from ``off`` on; a torn or corrupt frame
    ends the scan (the standard torn-tail rule)."""
    while off + 4 <= len(blob):
        end = off + 4 + _I.unpack_from(blob, off)[0]
        torn = end + 4 > len(blob)
        if torn or zlib.crc32(blob[off:end]) != _I.unpack_from(blob, end)[0]:
            return
        yield blob[off + 4 : end]
        off = end + 4
