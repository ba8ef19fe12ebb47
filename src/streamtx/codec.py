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

import functools
import struct
import zlib
from typing import Callable, Iterator, Optional

from .errors import TypeMismatch
from .model import MAX_TEXT_BYTES, AtomicBatch, Tuple
from .storage import PY_TYPES, Schema

_Q = struct.Struct("<q")
_D = struct.Struct("<d")
_H = struct.Struct("<H")
_I = struct.Struct("<I")
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


@functools.cache
def row_codec(schema: Schema) -> tuple[Callable, Callable]:
    """Encoder ``rows -> bytes`` and decoder ``(buf, off, n) -> (rows, off)``
    of one schema's rows.

    Compiled once per schema into Python source, as ``namedtuple`` builds
    its methods: each run of fixed-width fields, the row head included,
    packs and unpacks with one ``struct.Struct``, which also carries the
    length prefix of the text field that ends the run; the text's bytes
    follow. The bytes equal those of encoding each field alone. A schema
    without text decodes with ``iter_unpack``, once ``n`` rows fit in
    ``buf``; a short buffer raises ``ValueError`` or ``struct.error``."""
    env = {"Tuple": Tuple, "new": tuple.__new__}
    runs: list[tuple[list[str], Optional[str]]] = []  # (fields, text field)
    fields, fmt = ["tid", "bid", "ts"], "<qqq"
    for i, c in enumerate(schema):
        kind = PY_TYPES[c.type]
        if kind is str:
            runs.append((fields, f"v{i}"))
            env[f"s{len(runs) - 1}"] = struct.Struct(fmt + "H")
            fields, fmt = [], "<"
        else:
            fields.append(f"v{i}")
            fmt += "q" if kind is int else "d"
    if fields:
        runs.append((fields, None))
        env[f"s{len(runs) - 1}"] = struct.Struct(fmt)
    values = "".join(f"v{i}, " for i in range(len(schema)))
    row = f"new(Tuple, (({values}), tid, bid, ts))"
    if len(runs) == 1 and runs[0][1] is None:  # no text: one struct per row
        head = ", ".join(runs[0][0])
        source = f"""
def encode(rows):
    return b"".join([s0.pack({head}) for ({values}), tid, bid, ts in rows])

def decode(buf, off, n):
    end = off + n * s0.size
    if end > len(buf):
        raise ValueError(f"{{n}} rows run past the end")
    view = memoryview(buf)[off:end]
    return [{row} for {head} in s0.iter_unpack(view)], end
"""
    else:
        enc, dec = [], []
        for k, (names, text) in enumerate(runs):
            packed = names + ([f"len(b_{text})"] if text else [])
            unpacked = names + ([f"n_{text}"] if text else [])
            if text:
                enc.append(f"b_{text} = {text}.encode()")
            enc.append(f"out.append(s{k}.pack({', '.join(packed)}))")
            dec.append(f"{', '.join(unpacked)}, = s{k}.unpack_from(buf, off)")
            dec.append(f"off += {env[f's{k}'].size}")
            if text:
                enc.append(f"out.append(b_{text})")
                dec += [
                    f"end = off + n_{text}",
                    "if end > len(buf):",
                    "    raise ValueError('text runs past the end')",
                    f"{text} = buf[off:end].decode()",
                    "off = end",
                ]
        enc_body = "\n        ".join(enc)
        dec_body = "\n        ".join(dec)
        source = f"""
def encode(rows):
    out = []
    for ({values}), tid, bid, ts in rows:
        {enc_body}
    return b"".join(out)

def decode(buf, off, n):
    rows = []
    for _ in range(n):
        {dec_body}
        rows.append({row})
    return rows, off
"""
    exec(source, env)
    return env["encode"], env["decode"]


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
