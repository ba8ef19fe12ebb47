"""Round trips through the binary batch encoding that border args, input-cache
records and command-log records share."""

import math
import struct

import pytest

from streamtx.codec import frames
from streamtx.executor import args_to_batches, batches_to_args
from streamtx.model import AtomicBatch, Tuple
from streamtx.recovery import CommandLogRecord


def one(values, batch_id=1):
    t = Tuple(tuple(values), tuple_id=7, batch_id=batch_id, ts=-3)
    return AtomicBatch(batch_id, (t,))


def exact(batches):
    """Batches as plain data with floats as bit patterns, so nan and -0.0
    compare exactly and 1 never equals 1.0."""
    return [
        (
            stream,
            b.batch_id,
            [
                (
                    t.tuple_id,
                    t.batch_id,
                    t.ts,
                    [
                        (type(v), struct.pack("<d", v) if type(v) is float else v)
                        for v in t.values
                    ],
                )
                for t in b.tuples
            ],
        )
        for stream, b in batches.items()
    ]


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
def test_batch_round_trip(batches):
    blob = batches_to_args(batches)
    assert exact(args_to_batches(blob)) == exact(batches)
    rec = CommandLogRecord(3, "SP1", 9, blob)
    (payload,) = frames(rec.encode(), 0)
    assert CommandLogRecord.decode(payload) == rec
