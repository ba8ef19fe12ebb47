"""Per-layer metrics of a traced run.

Times are self times (see ``spans.py``) summed over the timed rounds of the
traced episodes and divided by the number of those rounds, unless a name
says per TE, per record or per flush. Checkpoint figures are per
``Engine.checkpoint`` call and recovery figures per recovery; those two use
inclusive times of the named calls. Counts are exact.
"""

from __future__ import annotations

from spans import CHECKPOINT, RECOVERY, ROUND, Summary

US, MS = 1e6, 1e3

# name -> unit, in the order they are printed
PER_LAYER = {
    "ingest.push_us_per_round": "us/round",
    "engine.ingest_us_per_round": "us/round",
    "engine.checkpoint_self_ms": "ms",
    "executor.tes_per_round": "count/round",
    "executor.aborts_per_round": "count/round",
    "executor.self_us_per_te": "us/TE",
    "executor.args_codec_us_per_round": "us/round",
    "body.us_per_round": "us/round",
    "triggers.statement_us_per_round": "us/round",
    "triggers.statements_per_round": "count/round",
    "triggers.fire_us_per_round": "us/round",
    "triggers.dispatches_per_round": "count/round",
    "triggers.gc_us_per_round": "us/round",
    "storage.stream_append_us_per_round": "us/round",
    "storage.gc_us_per_round": "us/round",
    "storage.gc_rows_scanned_per_round": "rows/round",
    "storage.batch_scan_rows_per_round": "rows/round",
    "storage.window_insert_us_per_round": "us/round",
    "storage.undo_window_rows_per_round": "rows/round",
    "storage.aggregate_us_per_round": "us/round",
    "storage.aggregate_rows_per_round": "rows/round",
    "storage.select_us_per_round": "us/round",
    "storage.select_rows_scanned_per_round": "rows/round",
    "storage.delete_us_per_round": "us/round",
    "storage.insert_us_per_round": "us/round",
    "storage.rollback_us_per_round": "us/round",
    "storage.stream_rows_max": "rows",
    "recovery.log_records_per_round": "count/round",
    "recovery.log_bytes_per_record": "B/record",
    "recovery.encode_us_per_record": "us/record",
    "recovery.flushes_per_round": "count/round",
    "recovery.flush_us_per_flush": "us/flush",
    "recovery.fsyncs_per_round": "count/round",
    "recovery.cache_append_us_per_round": "us/round",
    "recovery.cache_bytes_per_round": "B/round",
    "recovery.cache_retained_max": "batches",
    "recovery.read_log_ms": "ms",
    "recovery.read_cache_ms": "ms",
    "recovery.replay_ms": "ms",
    "recovery.replayed_records": "count",
    "recovery.replay_client_dispatches": "count",
    "recovery.replay_trigger_dispatches": "count",
    "recovery.truncate_ms": "ms",
    "recovery.compact_ms": "ms",
    "snapshot.encode_ms": "ms",
    "snapshot.decode_ms": "ms",
    "snapshot.verify_ms": "ms",
    "snapshot.bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(episodes: list, s: Summary) -> dict[str, tuple[float, str]]:
    """``episodes`` are the traced ones; ``trace.overhead_ratio`` needs the
    untraced run too and is filled in by the caller."""
    rounds = sum(e.timed_rounds for e in episodes)
    tes = sum(e.tes for e in episodes)
    recoveries = len(episodes)
    checkpoints = s.calls(CHECKPOINT, "engine.checkpoint")

    def per_round_us(*names: str) -> float:
        return _div(s.self_s(ROUND, *names) * US, rounds)

    def per_round(key: str) -> float:
        return _div(s.count(ROUND, key), rounds)

    def mean_ms(phase: int, name: str, per: float) -> float:
        return _div(s.total_s(phase, name) * MS, per)

    encodes = s.calls(ROUND, "recovery.encode")
    flushes = s.count(ROUND, "recovery.flushes")
    snap_encodes = s.calls(CHECKPOINT, "snapshot.encode")
    values = {
        "ingest.push_us_per_round": per_round_us("ingest.push"),
        "engine.ingest_us_per_round": per_round_us("engine.ingest_batch"),
        "engine.checkpoint_self_ms": _div(s.self_s(CHECKPOINT, "engine.checkpoint") * MS, checkpoints),
        "executor.tes_per_round": _div(tes, rounds),
        "executor.aborts_per_round": _div(sum(e.aborts for e in episodes), rounds),
        "executor.self_us_per_te": _div(s.self_s(ROUND, "executor.execute") * US, tes),
        "executor.args_codec_us_per_round": per_round_us(
            "codec.batches_to_args", "codec.args_to_batches", "codec.decode_args"
        ),
        "body.us_per_round": _div(s.prefixed_self_s(ROUND, "body.") * US, rounds),
        "triggers.statement_us_per_round": per_round_us(
            "triggers.on_stream_append", "triggers.on_window_events"
        ),
        "triggers.statements_per_round": _div(sum(e.statements for e in episodes), rounds),
        "triggers.fire_us_per_round": per_round_us("triggers.fire"),
        "triggers.dispatches_per_round": per_round("triggers.dispatches"),
        "triggers.gc_us_per_round": _div(s.prefixed_self_s(ROUND, "triggers.gc.") * US, rounds),
        "storage.stream_append_us_per_round": per_round_us(
            "storage.insert_batch", "storage.next_tuple_ids"
        ),
        "storage.gc_us_per_round": per_round_us("storage.garbage_collect"),
        "storage.gc_rows_scanned_per_round": per_round("storage.gc_rows_scanned"),
        "storage.batch_scan_rows_per_round": per_round("storage.batch_scan_rows"),
        "storage.window_insert_us_per_round": per_round_us("storage.window_insert"),
        "storage.undo_window_rows_per_round": per_round("storage.undo_window_rows"),
        "storage.aggregate_us_per_round": per_round_us("storage.aggregate_rows"),
        "storage.aggregate_rows_per_round": per_round("storage.aggregate_input_rows"),
        "storage.select_us_per_round": per_round_us("storage.select_where"),
        "storage.select_rows_scanned_per_round": per_round("storage.select_rows_scanned"),
        "storage.delete_us_per_round": per_round_us("storage.delete_where"),
        "storage.insert_us_per_round": per_round_us("storage.insert"),
        "storage.rollback_us_per_round": per_round_us("storage.rollback"),
        "storage.stream_rows_max": s.gauges.get("storage.stream_rows_max", 0.0),
        "recovery.log_records_per_round": _div(sum(e.log_records for e in episodes), rounds),
        "recovery.log_bytes_per_record": _div(s.count(ROUND, "recovery.log_bytes"), encodes),
        "recovery.encode_us_per_record": _div(s.self_s(ROUND, "recovery.encode") * US, encodes),
        "recovery.flushes_per_round": _div(flushes, rounds),
        "recovery.flush_us_per_flush": _div(s.self_s(ROUND, "recovery.flush") * US, flushes),
        "recovery.fsyncs_per_round": per_round("recovery.fsyncs"),
        "recovery.cache_append_us_per_round": per_round_us("recovery.cache_append"),
        "recovery.cache_bytes_per_round": per_round("recovery.cache_bytes"),
        "recovery.cache_retained_max": s.gauges.get("recovery.cache_retained_max", 0.0),
        "recovery.read_log_ms": mean_ms(RECOVERY, "recovery.read_log", recoveries),
        "recovery.read_cache_ms": mean_ms(RECOVERY, "recovery.read_cache", recoveries),
        "recovery.replay_ms": mean_ms(RECOVERY, "executor.execute", recoveries),
        "recovery.replayed_records": _div(s.count(RECOVERY, "recovery.replayed_records"), recoveries),
        "recovery.replay_client_dispatches": _div(
            sum(e.replay_client_dispatches for e in episodes), recoveries
        ),
        "recovery.replay_trigger_dispatches": _div(
            sum(e.replay_trigger_dispatches for e in episodes), recoveries
        ),
        "recovery.truncate_ms": mean_ms(CHECKPOINT, "recovery.truncate", checkpoints),
        "recovery.compact_ms": mean_ms(CHECKPOINT, "recovery.compact", checkpoints),
        "snapshot.encode_ms": mean_ms(CHECKPOINT, "snapshot.encode", snap_encodes),
        "snapshot.decode_ms": mean_ms(RECOVERY, "snapshot.decode", s.calls(RECOVERY, "snapshot.decode")),
        "snapshot.verify_ms": mean_ms(RECOVERY, "snapshot.verify", s.calls(RECOVERY, "snapshot.verify")),
        "snapshot.bytes": _div(s.count(CHECKPOINT, "snapshot.bytes"), snap_encodes),
    }
    return {name: (values[name], PER_LAYER[name]) for name in PER_LAYER if name in values}
