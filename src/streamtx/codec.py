"""How a tuple and a durable record become bytes (little-endian).

    scalars  int <q, float <d, text as len u16 | UTF-8
    row      tuple_id, batch_id, ts as <qqq | each value in its column's
             scalar encoding (snapshots)
    batches  stream count u16, then per stream: name text | batch_id <q |
             tuple count u32 | column count u16 | a type code u8 per column
             (0 int, 1 float, 2 text) | the rows of the batch, each a row
             without its batch_id, which the head holds: tuple_id, ts as
             <qq | the values (border args and input-cache records)
    frame    len u32 | payload | CRC32 of len and payload (a command log
             group commit, an input-cache record)

Batches describe themselves, so the log reads without the spec. The codec
checks no value: ``check_row`` (storage) is the one rule, and the engine
runs it on every row before it encodes or keeps one. A batch's rows take
the column types of its first row; a type outside int, float and text, or
a row the structs cannot pack, raises TypeMismatch.
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Callable, Optional

from .errors import CorruptLogRecord, TypeMismatch
from .model import MAX_TEXT_BYTES, AtomicBatch, Tuple

TYPE_CODES = {int: 0, float: 1, str: 2}  # a column's type, as snapshot shapes number it
_CODE_TYPES = tuple(TYPE_CODES)
_H = struct.Struct("<H")
_I = struct.Struct("<I")
_BATCH_HEAD = struct.Struct("<qIH")  # batch_id, tuple count, column count
RESYNC_SCAN = 1 << 20  # how many bytes past a bad frame ``frames`` searches


def encode_text(s: str) -> bytes:
    b = s.encode()
    return _H.pack(len(b)) + b


# a name's text encoding, made once per name: every cache record and logged
# border names its streams, and every log record its procedure
name_bytes = functools.lru_cache(maxsize=1024)(encode_text)


def text_at(buf: bytes, off: int) -> tuple[str, int]:
    (n,) = _H.unpack_from(buf, off)
    end = off + 2 + n
    if end > len(buf):
        raise ValueError("text runs past the end")
    return buf[off + 2 : end].decode(), end


@functools.cache
def row_codec(types: tuple[type, ...], batch: bool = False) -> tuple[Callable, Callable]:
    """Encoder ``rows -> bytes`` and decoder ``(buf, off, n) -> (rows, off)``
    of rows with these column types (``int``, ``float``, ``str``), which
    tables of the same types share. A ``batch`` codec leaves out the
    batch_id, which its decoder ``(buf, off, n, bid)`` stamps on each row.

    Compiled on first use into Python source, as ``namedtuple`` builds
    its methods: each run of fixed-width fields, the row head included,
    packs and unpacks with one ``struct.Struct``, which also carries the
    length prefix of the text field that ends the run; the text's bytes
    follow. The bytes equal those of encoding each field alone. Rows
    without text decode with ``iter_unpack``, once ``n`` rows fit in
    ``buf``; a short buffer, or a text longer than ``check_row`` lets a
    table hold, raises ``ValueError`` or ``struct.error``."""
    env = {"Tuple": Tuple, "new": tuple.__new__}
    runs: list[tuple[list[str], Optional[str]]] = []  # (fields, text field)
    fields, fmt = (["tid", "ts"], "<qq") if batch else (["tid", "bid", "ts"], "<qqq")
    params = "buf, off, n, bid" if batch else "buf, off, n"
    for i, kind in enumerate(types):
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
    values = "".join(f"v{i}, " for i in range(len(types)))
    row = f"new(Tuple, (({values}), tid, bid, ts))"
    if len(runs) == 1 and runs[0][1] is None:  # no text: one struct per row
        head = ", ".join(runs[0][0])
        source = f"""
def encode(rows):
    return b"".join([s0.pack({head}) for ({values}), tid, bid, ts in rows])

def decode({params}):
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
                    f"if n_{text} > {MAX_TEXT_BYTES} or end > len(buf):",
                    "    raise ValueError('text too long or past the end')",
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

def decode({params}):
    rows = []
    for _ in range(n):
        {dec_body}
        rows.append({row})
    return rows, off
"""
    exec(source, env)
    return env["encode"], env["decode"]


@functools.cache
def _decoder(codes: bytes) -> Callable:
    return row_codec(tuple(_CODE_TYPES[c] for c in codes), True)[1]


@functools.lru_cache(maxsize=1024)
def _stream_codec(
    stream: str, types: tuple[type, ...]
) -> tuple[Callable, bytes, bytes, Callable]:
    """One stream's part of the batch encoding, compiled for ``stream`` and
    rows of these column types: the packer of its head (name text,
    batch_id, tuple count, then column count and type codes), the head's
    constant name and column bytes, and the rows' encoder."""
    try:
        codes = bytes(TYPE_CODES[kind] for kind in types)
    except KeyError as e:
        raise TypeMismatch(f"cannot encode a {e.args[0].__name__} value") from None
    name, cols = name_bytes(stream), _H.pack(len(codes)) + codes
    head = struct.Struct(f"<{len(name)}sqI{len(cols)}s")
    return head.pack, name, cols, row_codec(types, True)[0]


def encode_batches(batches: dict[str, AtomicBatch]) -> bytes:
    """The batch encoding of ``batches``: each stream's head packs with one
    struct compiled for its name and column types (``_stream_codec``)."""
    out = [_H.pack(len(batches))]
    try:
        for stream, (batch_id, tuples) in batches.items():
            types = tuple(map(type, tuples[0].values))
            pack, name, cols, encode_rows = _stream_codec(stream, types)
            out += (pack(name, batch_id, len(tuples), cols), encode_rows(tuples))
    except struct.error as e:  # a row head outside int64, say
        raise TypeMismatch(str(e)) from e
    return b"".join(out)


def decode_batches(buf: bytes) -> dict[str, AtomicBatch]:
    """The batches of ``buf``, each row stamped with its batch's head id."""
    (n_streams,) = _H.unpack_from(buf, 0)
    off = 2
    out: dict[str, AtomicBatch] = {}
    for _ in range(n_streams):
        stream, off = text_at(buf, off)
        batch_id, n_tuples, n_cols = _BATCH_HEAD.unpack_from(buf, off)
        off += _BATCH_HEAD.size
        decode = _decoder(buf[off : off + n_cols])
        rows, off = decode(buf, off + n_cols, n_tuples, batch_id)
        out[stream] = tuple.__new__(AtomicBatch, (batch_id, tuple(rows)))
    return out


def frame(payload: bytes) -> bytes:
    body = _I.pack(len(payload)) + payload
    return body + _I.pack(zlib.crc32(body))


def frames(blob: bytes, off: int, name: str) -> tuple[list[bytes], int]:
    """The payloads of the frames from ``off`` on, and the offset after the
    last whole one. A bad frame ends them, as a torn tail, when it reaches
    the end of ``blob`` and no whole frame starts in the ``RESYNC_SCAN``
    bytes after it. Else it is corrupt, since a crash tears only the last
    write: an end there would drop what follows, so ``CorruptLogRecord``
    names the file ``name`` and the bad frame's offset."""
    out, bad = [], None  # bad: the offset of the first bad frame
    while off + 4 <= len(blob) and (bad is None or off - bad < RESYNC_SCAN):
        end = off + 4 + _I.unpack_from(blob, off)[0]
        torn = end + 4 > len(blob)
        if torn or zlib.crc32(blob[off:end]) != _I.unpack_from(blob, end)[0]:
            if bad is None and end + 4 < len(blob):  # bytes follow it
                raise CorruptLogRecord(f"corrupt frame at offset {off} in {name}")
            if bad is None:
                bad = off
            off += 1  # look on for a whole frame
        elif bad is not None:
            raise CorruptLogRecord(f"corrupt frame at offset {bad} in {name}")
        else:
            out.append(blob[off + 4 : end])
            off = end + 4
    return out, off if bad is None else bad
