"""Stream injection: turns tuple feeds into atomic batches and drives the
border procedures."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import Engine
from .errors import EngineStopped, SchemaMismatch
from .executor import Ticket
from .model import AtomicBatch, Tuple
from .storage import PY_TYPES


@dataclass(frozen=True)
class BatchingPolicy:
    """fixed_count(k) cuts every k tuples; same_timestamp groups maximal
    runs of equal ts."""

    mode: str  # "fixed_count" | "same_timestamp"
    count: int = 1

    def __post_init__(self):
        if self.mode not in ("fixed_count", "same_timestamp"):
            raise ValueError(f"unknown batching mode {self.mode}")
        if self.mode == "fixed_count" and self.count < 1:
            raise ValueError("fixed_count needs count >= 1")


@dataclass
class FeedSource:
    """A deterministic, replayable tuple source: (values, ts) pairs."""

    rows: Sequence[tuple[tuple, int]]

    @classmethod
    def from_values(cls, values: Iterable, ts: int = 0) -> "FeedSource":
        """One row per item: a ``Tuple`` gives its values, a tuple or list
        is the row, anything else a one-value row."""
        return cls([(_row_values(v), ts) for v in values])

    @classmethod
    def from_csv(cls, path: str, schema, ts_column: str = "ts") -> "FeedSource":
        """CSV with a header row naming columns; coerced per stream schema.
        Each tuple's ts comes from ``ts_column`` when the file has it, else 0.
        A missing column or a cell not of its type raises ``SchemaMismatch``."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            parsers = [(col.name, PY_TYPES[col.type]) for col in schema]
            has_ts = ts_column in (reader.fieldnames or ())
            if has_ts:
                parsers.append((ts_column, int))
            rows = []
            for line in reader:
                values = []
                for name, parse in parsers:
                    if name not in line:
                        raise SchemaMismatch(f"feed missing column {name}")
                    raw = line[name]
                    try:
                        if raw is None:  # the row is shorter than the header
                            raise ValueError(name)
                        values.append(parse(raw))
                    except ValueError:
                        raise SchemaMismatch(
                            f"feed line {reader.line_num}: {name} = {raw!r} "
                            f"is not {parse.__name__}"
                        ) from None
                ts = values.pop() if has_ts else 0
                rows.append((tuple(values), ts))
        return cls(rows)


def _row_values(v) -> tuple:
    if isinstance(v, Tuple):  # a tuple too, but its row is its values
        return v.values
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


class StreamIngestor:
    """Batches one external stream's feed and submits border rounds.

    Assigns consecutive batch ids starting at 1 and stamps monotonically
    increasing tuple ids; replaying the same feed yields identical batches.
    """

    def __init__(self, engine: Engine, stream: str, policy: BatchingPolicy):
        self.engine = engine
        self.stream = stream
        self.policy = policy
        # a batch closes at a new ts, or else once it holds ``_count`` tuples
        self._by_ts = policy.mode == "same_timestamp"
        self._count = policy.count
        self.next_batch_id = 1
        self.next_tuple_id = 1
        self.closed = False
        self._buffer: list[Tuple] = []
        self._buffer_ts: Optional[int] = None

    def push(self, values: tuple, ts: int = 0) -> Optional[Ticket]:
        """Add one tuple. When that closes a batch, return what
        ``Engine.ingest_batch`` returned for it; otherwise None."""
        if self.closed:
            raise EngineStopped(f"stream {self.stream} is closed")
        ticket = None
        by_ts = self._by_ts
        if by_ts and self._buffer and ts != self._buffer_ts:
            ticket = self._flush()
        # the ingestor stamps the ids itself, so rows and batches skip the
        # named tuples' constructors
        self._buffer.append(
            tuple.__new__(
                Tuple, (tuple(values), self.next_tuple_id, self.next_batch_id, ts)
            )
        )
        self._buffer_ts = ts
        self.next_tuple_id += 1
        if not by_ts and len(self._buffer) >= self._count:
            ticket = self._flush()
        return ticket

    def _flush(self) -> Optional[Ticket]:
        if not self._buffer:
            return None
        batch = tuple.__new__(AtomicBatch, (self.next_batch_id, tuple(self._buffer)))
        self._buffer = []
        self._buffer_ts = None
        self.next_batch_id += 1
        return self.engine.ingest_batch(self.stream, batch)

    def end_of_stream(self) -> Optional[Ticket]:
        """Flush any partial batch and refuse further pushes; returns as
        ``push`` does."""
        ticket = self._flush()
        self.closed = True
        return ticket


def ingest(
    engine: Engine, feed: FeedSource, policy: BatchingPolicy, stream: str
) -> list[Ticket]:
    """Feed a whole source through an ingestor, then close the stream."""
    ing = StreamIngestor(engine, stream, policy)
    tickets = [ing.push(values, ts) for values, ts in feed.rows]
    tickets.append(ing.end_of_stream())
    return [t for t in tickets if t is not None]
