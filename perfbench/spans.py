"""Span recorder for the traced run.

``install`` wraps the engine's public functions at the places they
are looked up (a class attribute, or the module global that the caller
reads), so the engine itself is unchanged. Each call becomes a span with a
name, start, end, parent span, round id and phase; spans stay in flat
in-memory arrays and are written out once, at exit. Some wrappers only
count (rows scanned, bytes produced, fsync calls) and record no span, so
their time stays in the enclosing span.

A span's self time is its duration minus the part of it that its direct
child spans cover; ``layers.py`` turns these into per-layer figures.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

# phases a span or count can belong to
ROUND, WARMUP, SETUP, CHECKPOINT, RECOVERY, OTHER = range(6)
PHASE_NAMES = ("round", "warmup", "setup", "checkpoint", "recovery", "other")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.phase = array("b")
        self._stack: list[int] = []
        self.current_round = 0
        self.current_phase = OTHER
        # (phase, key) -> summed count
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.current_phase, key)] += n

    def gauge_max(self, key: str, value: float) -> None:
        if value > self.gauges.get(key, float("-inf")):
            self.gauges[key] = value

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap ``fn`` so each call records one span; ``before(tracer, args)``
        and ``after(tracer, args, result)`` may add counts."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, rounds, phases = self.parent, self.round, self.phase
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.current_round)
            phases.append(self.current_phase)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(i)
            if before is not None:
                before(self, args)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn: Callable, before=None, after=None) -> Callable:
        """Wrap ``fn`` to count only; its time stays in the caller's span."""

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapped: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- output ---

    def __len__(self) -> int:
        return len(self.start)

    def write(self, directory: str, stem: str) -> str:
        """Dump the spans as raw arrays plus a JSON index; returns its path."""
        os.makedirs(directory, exist_ok=True)
        fields = ("name", "start", "end", "parent", "round", "phase")
        bin_name = f"{stem}.bin"
        with open(os.path.join(directory, bin_name), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        index = {
            "spans": len(self),
            "file": bin_name,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": self.names,
            "phases": list(PHASE_NAMES),
            "counts": [
                [PHASE_NAMES[p], key, v] for (p, key), v in sorted(self.counts.items())
            ],
            "gauges": self.gauges,
        }
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(index, fh)
        return path


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span itself."""
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # per parent: end of the children seen so far
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=start.__getitem__)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0  # inclusive seconds
    own: float = 0.0  # self (exclusive) seconds


@dataclass
class Summary:
    """Per (phase, span name) totals plus the tracer's counts and gauges."""

    spans: dict[tuple[int, str], SpanTotals] = field(default_factory=dict)
    counts: dict[tuple[int, str], float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def get(self, phase: int, name: str) -> SpanTotals:
        return self.spans.get((phase, name), SpanTotals())

    def self_s(self, phase: int, *names: str) -> float:
        return sum(self.get(phase, n).own for n in names)

    def total_s(self, phase: int, *names: str) -> float:
        return sum(self.get(phase, n).total for n in names)

    def calls(self, phase: int, *names: str) -> int:
        return sum(self.get(phase, n).calls for n in names)

    def prefixed_self_s(self, phase: int, prefix: str) -> float:
        return sum(
            t.own for (p, n), t in self.spans.items() if p == phase and n.startswith(prefix)
        )

    def count(self, phase: int, key: str) -> float:
        return self.counts.get((phase, key), 0.0)


def summarize(tracer: Tracer) -> Summary:
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    spans: dict[tuple[int, str], SpanTotals] = {}
    names = tracer.names
    for i, s in enumerate(selfs):
        key = (tracer.phase[i], names[tracer.name[i]])
        t = spans.get(key)
        if t is None:
            t = spans[key] = SpanTotals()
        t.calls += 1
        t.total += tracer.end[i] - tracer.start[i]
        t.own += s
    return Summary(spans, dict(tracer.counts), dict(tracer.gauges))


# --- what gets wrapped ---


def _rows_of(key: str) -> Callable:
    def before(tr: Tracer, args) -> None:
        tr.count(key, len(args[0].rows))

    return before


def _gc_scanned(tr: Tracer, args) -> None:
    store, stream = args[0], args[1]
    tr.count("storage.gc_rows_scanned", len(store.stream(stream).rows))


def _select_scanned(tr: Tracer, args) -> None:
    store, table = args[0], args[1]
    pred = args[2] if len(args) > 2 else None
    tab = store.table(table)
    index = getattr(tab, "indexes", {})
    if pred is not None and pred.op == "==" and pred.column in index:
        n = len(index[pred.column].get(pred.value, ()))
    else:
        n = len(tab.active if hasattr(tab, "active") else tab.rows)
    tr.count("storage.select_rows_scanned", n)


def _undo_window_rows(tr: Tracer, args) -> None:
    w = args[1]
    tr.count("storage.undo_window_rows", len(w.active) + len(w.staged))


def _aggregate_rows(tr: Tracer, args) -> None:
    tr.count("storage.aggregate_input_rows", len(args[0]))


def _log_bytes(tr: Tracer, args, result) -> None:
    tr.count("recovery.log_bytes", len(result))


def _flushed(tr: Tracer, args, result) -> None:
    if result:
        tr.count("recovery.flushes")


def _dispatches(tr: Tracer, args, result) -> None:
    tr.count("triggers.dispatches", len(result))


def _snapshot_bytes(tr: Tracer, args, result) -> None:
    tr.count("snapshot.bytes", len(result))


def _replayed(tr: Tracer, args) -> None:
    from streamtx.executor import Origin

    if args[1].origin is Origin.RECOVERY:
        tr.count("recovery.replayed_records")


def _cache_size(cache) -> int:
    path = cache.path
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def install(tracer: Tracer) -> None:
    """Wrap every traced engine function; ``tracer.uninstall`` undoes it."""
    import streamtx.engine as engine_mod
    import streamtx.executor as executor_mod
    import streamtx.snapshot as snapshot_mod
    import streamtx.storage as storage_mod
    import streamtx.triggers as triggers_mod
    from streamtx.engine import Engine
    from streamtx.executor import Partition
    from streamtx.ingest import StreamIngestor
    from streamtx.recovery import CommandLog, CommandLogRecord, InputCache
    from streamtx.storage import Store, StreamTable, UndoBuffer
    from streamtx.triggers import TriggerEngine

    tr = tracer

    def span(owner, attr: str, name: str, before=None, after=None) -> None:
        tr.patch(owner, attr, tr.span(name, getattr(owner, attr), before, after))

    def count(owner, attr: str, before=None, after=None) -> None:
        tr.patch(owner, attr, tr.counter(getattr(owner, attr), before, after))

    span(StreamIngestor, "push", "ingest.push")
    span(Engine, "ingest_batch", "engine.ingest_batch")
    span(Engine, "checkpoint", "engine.checkpoint")
    span(Partition, "execute", "executor.execute", before=_replayed)
    span(engine_mod, "batches_to_args", "codec.batches_to_args")
    span(executor_mod, "args_to_batches", "codec.args_to_batches")
    span(executor_mod, "decode_args", "codec.decode_args")

    span(TriggerEngine, "on_stream_append", "triggers.on_stream_append")
    span(TriggerEngine, "on_window_events", "triggers.on_window_events")
    span(TriggerEngine, "fire_procedure_triggers", "triggers.fire", after=_dispatches)
    for attr in ("note_append", "note_consumed", "gc_eligible"):
        span(TriggerEngine, attr, f"triggers.gc.{attr}")

    span(Store, "insert_batch", "storage.insert_batch")
    span(Store, "next_tuple_ids", "storage.next_tuple_ids")
    span(Store, "garbage_collect", "storage.garbage_collect", before=_gc_scanned)
    count(StreamTable, "batch_tuples", before=_rows_of("storage.batch_scan_rows"))
    count(StreamTable, "pending_batches", before=_rows_of("storage.batch_scan_rows"))
    span(Store, "window_insert", "storage.window_insert")
    count(UndoBuffer, "record_window", before=_undo_window_rows)
    for owner in (storage_mod, triggers_mod):
        span(owner, "aggregate_rows", "storage.aggregate_rows", before=_aggregate_rows)
    span(Store, "select_where", "storage.select_where", before=_select_scanned)
    span(Store, "delete_where", "storage.delete_where")
    span(Store, "insert", "storage.insert")
    span(UndoBuffer, "rollback", "storage.rollback")

    span(CommandLogRecord, "encode", "recovery.encode", after=_log_bytes)
    span(CommandLog, "flush", "recovery.flush", after=_flushed)
    count(os, "fsync", before=lambda t, a: t.count("recovery.fsyncs"))

    def cache_before(t: Tracer, args) -> None:
        t.count("recovery.cache_bytes", -_cache_size(args[0]))

    def cache_after(t: Tracer, args, result) -> None:
        t.count("recovery.cache_bytes", _cache_size(args[0]))

    span(InputCache, "append", "recovery.cache_append", cache_before, cache_after)
    span(InputCache, "compact", "recovery.compact")
    span(engine_mod, "read_log", "recovery.read_log")
    span(engine_mod, "read_input_cache", "recovery.read_cache")
    span(engine_mod, "truncate_log", "recovery.truncate")

    span(engine_mod, "snapshot_state", "snapshot.encode", after=_snapshot_bytes)
    span(engine_mod, "restore_state", "snapshot.decode")
    for owner in (engine_mod, snapshot_mod):
        span(owner, "verify_snapshot", "snapshot.verify")


def body_wrapper(tracer: Optional[Tracer]) -> Callable:
    """The ``wrap`` argument for the workload spec builders."""
    if tracer is None:
        return lambda fn, name: fn
    return lambda fn, name: tracer.span(f"body.{name}", fn)
