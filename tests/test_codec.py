"""Round trips through the binary batch encoding that border args, input-cache
records and command-log records share, and through the schema-typed rows of
snapshots and batches; and the value rule, ``check_row``, accepts exactly the
rows that those encodings hold."""

import math
import random
import struct
import zlib

import pytest

from randomized import log_frame
from streamtx.codec import row_codec
from streamtx.errors import CorruptSnapshot, TypeMismatch
from streamtx.executor import args_to_batches, batches_to_args
from streamtx.model import AtomicBatch, Tuple
from streamtx.recovery import CommandLogRecord, RecoveryMode, _log_header, read_log
from streamtx.snapshot import restore_state, snapshot_state
from streamtx.storage import PY_TYPES, ScalarType, Store, UndoBuffer, make_schema


def one(values, batch_id=1):
    t = Tuple(tuple(values), tuple_id=7, batch_id=batch_id, ts=-3)
    return AtomicBatch(batch_id, (t,))


def exact_rows(rows):
    """Rows as plain data with floats as bit patterns, so nan and -0.0
    compare exactly and 1 never equals 1.0."""
    return [
        (
            t.tuple_id,
            t.batch_id,
            t.ts,
            [(type(v), struct.pack("<d", v) if type(v) is float else v) for v in t.values],
        )
        for t in rows
    ]


def exact(batches):
    return [(stream, b.batch_id, exact_rows(b.tuples)) for stream, b in batches.items()]


CASES = {
    "int_max": {"s": one([2**63 - 1])},
    "int_neg_max": {"s": one([-(2**63 - 1)])},
    "int_min": {"s": one([-(2**63)])},
    "neg_zero": {"s": one([-0.0])},
    "inf": {"s": one([math.inf, -math.inf])},
    "nan": {"s": one([math.nan])},
    "empty_text": {"s": one([""])},
    "utf8_64_bytes": {"s": one(["é" * 32])},  # 2 bytes each: at the limit
    "four_tuples": {
        "s": AtomicBatch(
            5,
            tuple(
                Tuple((i, i / 3, f"v{i}"), tuple_id=100 + i, batch_id=5, ts=i)
                for i in range(4)
            ),
        )
    },
    "two_stream_slot": {"b": one([1, "x"], 9), "a": one([2.5], 9)},
}


@pytest.mark.parametrize("batches", CASES.values(), ids=CASES.keys())
def test_batch_round_trip(batches, tmp_path):
    blob = batches_to_args(batches)
    assert exact(args_to_batches(blob)) == exact(batches)
    rec = CommandLogRecord(3, "SP1", 9, blob)
    path = tmp_path / "command.log"
    path.write_bytes(_log_header(RecoveryMode.STRONG, 0) + log_frame(rec))
    assert read_log(str(path))[4] == [rec]


# --- schema-typed rows (snapshots) ---

INT_EDGES = [2**63 - 1, -(2**63), 0, -1]
FLOAT_EDGES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
# empty, and 64 bytes of 2-, 4- and 1-byte characters, and 63 of 3-byte ones
TEXT_EDGES = ["", "é" * 32, "😀" * 16, "x" * 64, "€" * 21]


def reference_row(schema, t) -> bytes:
    """A row as the per-value encoding writes it: the head, then each
    value alone."""
    out = struct.pack("<qqq", t.tuple_id, t.batch_id, t.ts)
    for c, v in zip(schema, t.values):
        if c.type is ScalarType.INT:
            out += struct.pack("<q", v)
        elif c.type is ScalarType.FLOAT:
            out += struct.pack("<d", v)
        else:
            b = v.encode()
            out += struct.pack("<H", len(b)) + b
    return out


def random_value(rng, kind):
    if kind == "int":
        return rng.choice(INT_EDGES + [rng.randrange(-(2**63), 2**63)])
    if kind == "float":
        return rng.choice(FLOAT_EDGES + [rng.uniform(-1e9, 1e9)])
    chars = rng.randrange(10)
    return rng.choice(TEXT_EDGES + ["".join(rng.choices("aé€😀", k=chars))])


def random_table(seed):
    """A seeded schema of 0-6 int, float and text columns, and 1-8 rows."""
    rng = random.Random(seed)
    kinds = [rng.choice(("int", "float", "text")) for _ in range(rng.randrange(7))]
    schema = make_schema(*((f"c{i}", k) for i, k in enumerate(kinds)))

    def head():
        return rng.choice(INT_EDGES + [rng.randrange(1, 1000)])

    rows = [
        Tuple(tuple(random_value(rng, k) for k in kinds), head(), head(), head())
        for _ in range(rng.randrange(1, 9))
    ]
    return schema, rows


def test_row_codec_matches_per_value_encoding():
    for seed in range(200):
        schema, rows = random_table(seed)
        encode, decode = row_codec(tuple(PY_TYPES[c.type] for c in schema))
        blob = bytes(encode(rows))
        assert blob == b"".join(reference_row(schema, t) for t in rows), seed
        got, end = decode(blob + b"\x07" * 3, 0, len(rows))  # stops at the end
        assert end == len(blob)
        assert exact_rows(got) == exact_rows(rows), seed
        assert all(type(t) is Tuple and type(t.values) is tuple for t in got)


@pytest.mark.parametrize("kind", ["public", "stream"])
def test_snapshot_one_row_short_is_corrupt(kind):
    # a table's row count says n rows and its bytes hold n - 1, under a
    # valid checksum: restore must refuse rather than load fewer rows
    for seed in range(40):
        schema, rows = random_table(seed)
        store = Store()
        undo = UndoBuffer()
        if kind == "public":
            store.create_public("t", schema)
            for t in rows:
                store.insert("t", t, undo)
        else:
            store.create_stream("t", schema)
            for i, t in enumerate(rows, 1):
                batch = AtomicBatch(i, (Tuple(t.values, i, i, t.ts),))
                store.insert_batch("t", batch, undo)
        blob = snapshot_state(store)
        last = reference_row(schema, store.table("t").rows[-1])
        assert blob[-4 - len(last) : -4] == last
        body = blob[: -4 - len(last)]
        with pytest.raises(CorruptSnapshot):
            restore_state(body + struct.pack("<I", zlib.crc32(body)), store)
        restore_state(blob, store)  # the whole snapshot still loads
        assert snapshot_state(store) == blob, seed


# --- the value rule and the codec agree ---

# (value, the column kind it goes into, or "ts" for the row head)
BAD_VALUES = [
    (True, None),
    (2**63, None),
    (-(2**63) - 1, None),
    (1.5, "int"),
    (1, "float"),
    ("x" * 65, "text"),
    ("\ud800", "text"),
    (2**63, "ts"),
    (1.5, "ts"),
]


def mutate(rng, kinds, t):
    """``t`` with one value from BAD_VALUES, or ``t`` itself when no
    column of the value's kind exists."""
    value, kind = rng.choice(BAD_VALUES)
    if kind == "ts":
        return t._replace(ts=value)
    cols = [i for i, k in enumerate(kinds) if kind in (None, k)]
    if not cols:
        return t
    values = list(t.values)
    values[rng.choice(cols)] = value
    return t._replace(values=tuple(values))


def round_trips(encode, decode, t) -> bool:
    try:
        blob = encode([t])
        got, end = decode(blob, 0, 1)
    except (struct.error, AttributeError, ValueError):  # .encode() on a non-str
        return False
    return end == len(blob) and exact_rows(got) == exact_rows([t])


def test_check_row_accepts_exactly_what_row_codec_round_trips():
    rejected = 0
    for seed in range(200):
        schema, rows = random_table(seed)
        kinds = [c.type.value for c in schema]
        rng = random.Random(seed)
        tab = Store().create_public("t", schema)
        encode, decode = row_codec(tab.types)
        accepted = []
        for t in rows + [mutate(rng, kinds, t) for t in rows]:
            try:
                tab.check_row(t)
                ok = True
            except TypeMismatch:
                ok = False
                rejected += 1
            assert ok == round_trips(encode, decode, t), (seed, t)
            if ok:
                accepted.append(t)
        bid = accepted[0].batch_id
        batch = AtomicBatch(bid, tuple(t._replace(batch_id=bid) for t in accepted))
        batches = {"s": batch}
        assert exact(args_to_batches(batches_to_args(batches))) == exact(batches)
    assert rejected > 200


# --- the compiled record and batch heads against struct and zlib alone ---

NAME_CHARS = "aZ_9é€😀"


def random_name(rng, max_bytes=64):
    """A name of 1 to ``max_bytes`` UTF-8 bytes, often not ASCII."""
    want = rng.randrange(1, max_bytes + 1)
    name = ""
    while True:
        c = rng.choice(NAME_CHARS)
        if len((name + c).encode()) > want:
            return name or "a"
        name += c


def ref_text(s):
    b = s.encode()
    return struct.pack("<H", len(b)) + b


def ref_frame(payload):
    body = struct.pack("<I", len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def ref_record(rec):
    """A command-log record, as the format describes it: its length, then
    the record; a group commit frames its records together."""
    payload = struct.pack("<QQI", rec.commit_seq, rec.round, len(rec.aborted))
    payload += ref_text(rec.procedure)
    for procedure, round_ in rec.aborted:
        payload += ref_text(procedure) + struct.pack("<Q", round_)
    payload += rec.args
    return struct.pack("<I", len(payload)) + payload


def random_records(seed, n=40):
    rng = random.Random(seed)
    names = [random_name(rng) for _ in range(4)]  # reused: the heads are cached
    seq = 0
    out = []
    for _ in range(n):
        seq += rng.randrange(1, 2**20)
        aborted = tuple(
            (rng.choice(names + [random_name(rng)]), rng.randrange(2**64))
            for _ in range(rng.randrange(4))
        )
        args = rng.choice([b"", rng.randbytes(rng.randrange(1, 40))])
        procedure = rng.choice(names + [random_name(rng)])
        round_ = rng.randrange(2**64)
        out.append(CommandLogRecord(seq, procedure, round_, args, aborted))
    return out


def test_record_encode_matches_reference_frame(tmp_path):
    from streamtx.executor import Counters
    from streamtx.recovery import CommandLog

    for seed in range(30):
        records = random_records(seed)
        for rec in records:
            assert rec.encode() == ref_record(rec), (seed, rec)
        path = str(tmp_path / f"{seed}.log")
        log = CommandLog(
            path, RecoveryMode.STRONG, Counters(), max_batch=7, max_delay=3600,
            fsync=False,
        )
        for rec in records:
            log.append(rec)
        log.close()
        # one frame per group commit of 7, the last one shorter
        groups = [records[i : i + 7] for i in range(0, len(records), 7)]
        frames = [ref_frame(b"".join(map(ref_record, g))) for g in groups]
        with open(path, "rb") as fh:
            assert fh.read() == _log_header(RecoveryMode.STRONG, 0) + b"".join(frames)
        assert read_log(path)[4] == records, seed


def ref_batches(batches):
    """The batch encoding, as the format describes it."""
    out = struct.pack("<H", len(batches))
    for stream, (batch_id, tuples) in batches.items():
        types = [type(v) for v in tuples[0].values]
        codes = bytes({int: 0, float: 1, str: 2}[k] for k in types)
        out += ref_text(stream)
        out += struct.pack("<qIH", batch_id, len(tuples), len(codes)) + codes
        for t in tuples:  # the head holds the batch id
            out += struct.pack("<qq", t.tuple_id, t.ts)
            for v in t.values:
                if type(v) is int:
                    out += struct.pack("<q", v)
                elif type(v) is float:
                    out += struct.pack("<d", v)
                else:
                    out += ref_text(v)
    return out


def test_one_stream_batches_match_reference_encoding():
    from streamtx.codec import decode_batches, encode_batches

    rng = random.Random(7)
    streams = [random_name(rng, 20) for _ in range(3)]  # each with many types
    for seed in range(300):
        rng = random.Random(seed)
        kinds = [rng.choice(("int", "float", "text")) for _ in range(rng.randrange(5))]
        batch_id = rng.choice(INT_EDGES + [rng.randrange(1, 1000)])
        tuples = tuple(
            Tuple(
                tuple(random_value(rng, k) for k in kinds),
                rng.choice(INT_EDGES + [rng.randrange(1, 1000)]),
                batch_id,
                rng.choice(INT_EDGES),
            )
            for _ in range(rng.randrange(1, 6))
        )
        stream = rng.choice(streams + [random_name(rng)])
        batches = {stream: AtomicBatch(batch_id, tuples)}
        blob = encode_batches(batches)
        assert blob == ref_batches(batches), seed
        assert exact(decode_batches(blob)) == exact(batches), seed


@pytest.mark.parametrize("field", ["tuple_id", "batch_id", "ts"])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
@pytest.mark.parametrize("n_streams", [1, 2])
def test_row_head_outside_int64_is_a_type_mismatch(field, value, n_streams):
    from streamtx.codec import encode_batches

    good, bad = Tuple((1, 2.5, "x"), 2, 4, 5), Tuple((1, 2.5, "x"), 3, 4, 5)
    if field == "batch_id":  # a batch's tuples carry its id
        rows = (good._replace(batch_id=value), bad._replace(batch_id=value))
        batch = AtomicBatch(value, rows)
    else:
        batch = AtomicBatch(4, (good, bad._replace(**{field: value})))
    batches = {"s": batch}
    if n_streams == 2:
        batches["t"] = one([1])
    with pytest.raises(TypeMismatch):
        encode_batches(batches)
