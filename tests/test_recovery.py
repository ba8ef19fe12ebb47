import os
import struct

import pytest

from randomized import random_pair_run
from streamtx.engine import (
    CACHE_FILE,
    LOG_FILE,
    Engine,
    EngineSpec,
    StreamDef,
    TableDef,
    latest_valid_snapshot,
    recover,
)
from streamtx.errors import (
    BadDefinition,
    CorruptLogRecord,
    CorruptSnapshot,
    ReplayDivergence,
    TypeMismatch,
    VersionMismatch,
)
from streamtx.executor import args_to_batches
from streamtx.ingest import BatchingPolicy, FeedSource, StreamIngestor, ingest
from streamtx.model import (
    AtomicBatch,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    register_workflow,
)
from streamtx.recovery import (
    CommandLog,
    CommandLogRecord,
    DispatchCounts,
    InputCache,
    RecoveryMode,
    read_input_cache,
    read_log,
    recovery_dispatch_count,
    truncate_log,
)
from streamtx.snapshot import snapshot_state
from streamtx.storage import Pred
from streamtx.validator import validate
from streamtx.workloads import pe_chain_spec, window_native_spec

VAL_COLS = (("value", "int"),)


def chain_spec(n=2):
    """Border SP1 feeds SP2..SPn; SPn records values in a public table."""
    procs, edges = [], []
    streams = [StreamDef("s1", VAL_COLS)]
    for i in range(1, n + 1):
        in_s, out_s = f"s{i}", f"s{i + 1}"
        kind = ProcedureKind.BORDER if i == 1 else ProcedureKind.INTERIOR

        def make_body(i=i, in_s=in_s, out_s=out_s):
            def body(ctx):
                tuples = ctx.input_tuples(in_s)
                if i < n:
                    ctx.emit(out_s, tuples)
                else:
                    for t in tuples:
                        ctx.insert("out", (t.values[0],))

            return body

        procs.append(ProcedureDef(f"SP{i}", kind, (in_s,), body=make_body()))
        if i < n:
            streams.append(StreamDef(out_s, VAL_COLS))
            edges.append((f"SP{i}", out_s, f"SP{i + 1}"))
    w = register_workflow("chain", procs, edges)
    return EngineSpec(
        workflows=[w], streams=streams, tables=[TableDef("out", VAL_COLS)]
    )


def oltp_workflow():
    def body(ctx):
        ctx.insert("olog", (ctx.args["v"],))

    return register_workflow(
        "ops", [ProcedureDef("Q", ProcedureKind.OLTP, body=body)]
    )


def feed_rounds(engine, values, stream="s1"):
    return ingest(
        engine,
        FeedSource.from_values(values),
        BatchingPolicy("fixed_count", 1),
        stream,
    )


def golden_states(spec_builder, values, partition_id=0):
    """commit_seq -> snapshot bytes for a crash-free run, plus the engine."""
    states = {}

    def hook(p):
        states[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

    e = Engine(spec_builder(), partition_id=partition_id, post_commit_hook=hook)
    states[0] = snapshot_state(e.store, partition_id, 0)
    feed_rounds(e, values)
    e.run_until_idle()
    return states, e


# --- logging rules ---


def test_log_volume_strong_vs_weak(tmp_path):
    values = list(range(100))
    e1 = Engine(chain_spec(4), data_dir=str(tmp_path / "strong"),
                recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e1, values)
    e1.run_until_idle()
    assert e1.counters.log_records == 400
    e1.close()
    *_, recs = read_log(str(tmp_path / "strong" / LOG_FILE))
    assert len(recs) == 400

    e2 = Engine(chain_spec(4), data_dir=str(tmp_path / "weak"),
                recovery_mode=RecoveryMode.WEAK, fsync=False)
    feed_rounds(e2, values)
    e2.run_until_idle()
    assert e2.counters.log_records == 100
    e2.close()
    *_, recs = read_log(str(tmp_path / "weak" / LOG_FILE))
    assert len(recs) == 100
    assert all(r.procedure == "SP1" for r in recs)


def test_weak_mode_logs_oltp(tmp_path):
    spec = chain_spec(2)
    spec.workflows.append(oltp_workflow())
    spec.tables.append(TableDef("olog", VAL_COLS))
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
               fsync=False)
    feed_rounds(e, [1])
    e.call_oltp("Q", {"v": 7})
    e.run_until_idle()
    e.close()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [r.procedure for r in recs] == ["SP1", "Q"]


def test_strong_logs_interior_with_round_and_empty_args(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [5])
    e.run_until_idle()
    e.close()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [(r.procedure, r.round) for r in recs] == [("SP1", 1), ("SP2", 1)]
    assert recs[1].args == b""
    fed = AtomicBatch(1, (Tuple((5,), tuple_id=1, batch_id=1, ts=0),))
    assert args_to_batches(recs[0].args) == {"s1": fed}


# --- group commit ---


def test_group_commit_defers_acks(tmp_path):
    spec = EngineSpec(workflows=[oltp_workflow()], tables=[TableDef("olog", VAL_COLS)])
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               group_commit_max_batch=4, group_commit_max_delay=3600, fsync=False)
    tickets = [e.call_oltp("Q", {"v": i}) for i in range(3)]
    e.run_until_idle()
    assert all(t.done for t in tickets)
    assert not any(t.acknowledged for t in tickets)
    assert e.partition.log.sync_count == 0
    t4 = e.call_oltp("Q", {"v": 3})
    e.run_until_idle()
    assert all(t.acknowledged for t in tickets) and t4.acknowledged
    assert e.partition.log.sync_count == 1
    e.close()


def test_group_commit_sync_bound(tmp_path):
    spec = EngineSpec(workflows=[oltp_workflow()], tables=[TableDef("olog", VAL_COLS)])
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               group_commit_max_batch=8, group_commit_max_delay=3600, fsync=False)
    n = 50
    tickets = [e.call_oltp("Q", {"v": i}) for i in range(n)]
    e.run_until_idle()
    e.partition.log.flush()
    acked = sum(1 for t in tickets if t.acknowledged)
    assert acked == n
    timers = 1  # the final explicit flush
    assert e.partition.log.sync_count <= -(-n // 8) + timers
    e.close()


def test_unacknowledged_absent_acknowledged_present(tmp_path):
    spec = EngineSpec(workflows=[oltp_workflow()], tables=[TableDef("olog", VAL_COLS)])
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               group_commit_max_batch=3, group_commit_max_delay=3600, fsync=False)
    tickets = [e.call_oltp("Q", {"v": i}) for i in range(5)]
    e.run_until_idle()
    assert [t.acknowledged for t in tickets] == [True] * 3 + [False] * 2
    e.crash()  # records 4 and 5 were still buffered
    r = recover(spec, str(tmp_path), fsync=False)
    vals = sorted(t.values[0] for t in r.store.table("olog").rows)
    assert vals == [0, 1, 2]
    r.close()


# --- checkpoints ---


def test_checkpoint_then_crash_restore_only(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1, 2, 3])
    e.run_until_idle()
    e.checkpoint()
    want = e.store.content_signature()
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert recs == []
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.counters.replay_client_dispatches == 0
    assert r.store.content_signature() == want
    r.close()


def test_two_checkpoints_latest_wins(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1])
    e.run_until_idle()
    e.checkpoint()
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    ing.next_batch_id = 2
    ing.next_tuple_id = 2
    ing.push((9,))
    e.run_until_idle()
    e.checkpoint()
    want = e.store.content_signature()
    e.crash()
    snaps = sorted(p for p in os.listdir(tmp_path) if p.endswith(".snap"))
    assert len(snaps) == 2
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.store.content_signature() == want
    r.close()


def test_snapshot_preserved_pending_batch_refired_once_weak(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    e.partition.trigger_engine.pe_enabled = False  # park the interior batch
    feed_rounds(e, [5])
    e.run_until_idle()
    assert e.store.stream("s2").pending_batches() == [1]
    e.checkpoint()
    e.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    tes = [(te.procedure, te.round) for te in r.committed_schedule]
    assert tes.count(("SP2", 1)) == 1  # refired exactly once, not replayed
    assert tes.count(("SP1", 1)) == 0  # border is inside the snapshot
    assert sorted(t.values[0] for t in r.store.table("out").rows) == [5]
    r.close()


# --- strong recovery ---


def test_strong_crash_after_three_rounds_bit_equal(tmp_path):
    states, golden = golden_states(lambda: chain_spec(2), [10, 20, 30])
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [10, 20, 30])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    seq = r.partition.commit_seq
    assert seq == 6
    assert r.snapshot_bytes() == states[seq]
    assert r.counters.replay_client_dispatches == 6
    r.close()


def test_strong_empty_everything(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    e.close()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.partition.commit_seq == 0
    assert len(r.committed_schedule) == 0
    assert r.store.content_signature() == Engine(chain_spec(2)).store.content_signature()
    r.close()


def test_strong_mid_round_crash_refires_pending(tmp_path):
    # border logged and flushed, interior record lost: after recovery the
    # interior runs once via refire, giving the same final state
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, group_commit_max_batch=1,
               fsync=False)
    feed_rounds(e, [5])
    e.step()  # SP1 commits (flushed, max_batch=1); SP2 still queued
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [r_.procedure for r_ in recs] == ["SP1"]
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    # recovered-but-not-resumed state holds the pending interior batch
    assert r.store.stream("s2").pending_batches() == [1]
    assert r.partition.trigger_engine.pending == {("s2", 1)}
    queued = [(q.proc, q.round) for q in r.partition.fast_track]
    assert queued == [("SP2", 1)]
    r.run_until_idle()
    assert sorted(t.values[0] for t in r.store.table("out").rows) == [5]
    r.close()


def test_batch_waiting_in_snapshot_is_pending_after_recover(tmp_path):
    # the waiting s2 batch comes back from the snapshot, not from replay
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    e.partition.trigger_engine.pe_enabled = False
    feed_rounds(e, [5])
    e.run_until_idle()
    assert e.partition.trigger_engine.pending == {("s2", 1)}
    e.checkpoint()
    e.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.partition.trigger_engine.pending == {("s2", 1)}
    r.run_until_idle()
    assert out_values(r) == [5]
    assert not r.partition.trigger_engine.pending
    assert r.store.stream("s2").rows == []
    r.close()


def _chain_spec_with(out_cols=VAL_COLS, out_indexes=()):
    spec = chain_spec(2)
    spec.tables = [TableDef("out", out_cols, out_indexes)]
    return spec


def _chain_spec_plus(table):
    spec = chain_spec(2)
    spec.tables.append(TableDef(table, VAL_COLS))
    return spec


def _chain_spec_out_stream():
    spec = chain_spec(2)
    spec.tables = []
    spec.streams.append(StreamDef("out", VAL_COLS))
    return spec


@pytest.mark.parametrize(
    "before, after",
    [
        (lambda: window_native_spec(4, 1), lambda: window_native_spec(8, 2)),
        (lambda: window_native_spec(4, 1), lambda: window_native_spec(4, 2)),
        (lambda: chain_spec(2), lambda: _chain_spec_with(out_indexes=("value",))),
        (lambda: chain_spec(2), lambda: _chain_spec_with((("value", "float"),))),
        (lambda: chain_spec(2), lambda: _chain_spec_with((("v", "int"),))),
        (lambda: chain_spec(2), lambda: _chain_spec_plus("aaa")),
        (lambda: chain_spec(2), lambda: _chain_spec_plus("zzz")),
        (lambda: _chain_spec_plus("zzz"), lambda: chain_spec(2)),
        (lambda: chain_spec(2), _chain_spec_out_stream),
    ],
    ids=[
        "window_size", "window_slide", "index", "column_type", "column_name",
        "extra_table_first", "extra_table_last", "table_not_in_spec",
        "public_to_stream",
    ],
)
def test_recover_rejects_snapshot_of_another_catalog(tmp_path, before, after):
    e = Engine(before(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    e.checkpoint()
    e.crash()
    with pytest.raises(VersionMismatch):
        recover(after(), str(tmp_path), fsync=False)
    r = recover(before(), str(tmp_path), fsync=False)
    r.close()


def test_recover_rejects_another_partitions_files(tmp_path):
    spec = lambda: pe_chain_spec(3, "triggered")  # noqa: E731
    e = Engine(spec(), partition_id=3, data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    e.checkpoint()
    e.ingest_batch("s1", one_row(3, 3))
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    with pytest.raises(VersionMismatch, match="log belongs to partition 3"):
        recover(spec(), str(tmp_path), partition_id=0, fsync=False)
    # partition 0's log beside partition 3's snapshot
    log_path = str(tmp_path / LOG_FILE)
    with open(log_path, "rb") as fh:
        log = fh.read()
    truncate_log(log_path, RecoveryMode.STRONG, 0)
    with pytest.raises(VersionMismatch, match="snapshot belongs to partition 3"):
        recover(spec(), str(tmp_path), partition_id=0, fsync=False)
    with open(log_path, "wb") as fh:
        fh.write(log)
    r = recover(spec(), str(tmp_path), partition_id=3, fsync=False)
    assert r.partition.commit_seq == 9
    assert out_values(r) == [1, 2, 3]
    r.close()


def seeded_spec():
    """Border SP1 deletes the seeded ``out`` row 1 and inserts its value."""

    def body(ctx):
        ctx.delete("out", Pred("value", "==", 1))
        for t in ctx.input_tuples("s1"):
            ctx.insert("out", (t.values[0],))

    w = register_workflow(
        "seeded", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)], []
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS, ("value",))],
        seed_rows={"out": [(1,), (2,)]},
    )


def test_recover_seeded_table_from_snapshot(tmp_path):
    e = Engine(seeded_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [5])
    e.run_until_idle()
    e.checkpoint()
    assert out_values(e) == [2, 5]
    before = e.snapshot_bytes()
    e.crash()
    r = recover(seeded_spec(), str(tmp_path), fsync=False)
    assert r.snapshot_bytes() == before
    assert out_values(r) == [2, 5]
    assert r.store.select_where("out", Pred("value", "==", 1)) == []
    r.close()


def test_tail_corruption_truncates(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    log_path = str(tmp_path / LOG_FILE)
    *_, before = read_log(log_path)
    assert len(before) == 4
    # torn tail: half a record
    rec = CommandLogRecord(99, "SP1", 99, b"xxx").encode()
    with open(log_path, "ab") as fh:
        fh.write(rec[: len(rec) // 2])
    *_, after = read_log(log_path)
    assert [(r_.procedure, r_.round) for r_ in after] == [
        (r_.procedure, r_.round) for r_ in before
    ]
    # corrupting a CRC mid-file also drops everything after it
    with open(log_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[60] ^= 0xFF
    with open(log_path, "wb") as fh:
        fh.write(blob)
    *_, truncated = read_log(log_path)
    assert len(truncated) < 4


def test_torn_snapshot_falls_back_to_previous(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1])
    e.run_until_idle()
    e.checkpoint()
    good = e.store.content_signature()
    # a later snapshot written half-way before the crash
    torn = snapshot_state(e.store, 0, 99)[: 40]
    with open(tmp_path / "snapshot-000000000099.snap", "wb") as fh:
        fh.write(torn)
    e.crash()
    blob = latest_valid_snapshot(str(tmp_path))
    assert blob is not None
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.store.content_signature() == good
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
@pytest.mark.parametrize("tail_round", [False, True], ids=["no_tail", "tail"])
def test_fallback_past_truncated_log_refused(tmp_path, mode, tail_round):
    """The checkpoint that wrote the newest snapshot truncated the log, so
    the older snapshot cannot bring back the commits between the two."""
    e = Engine(chain_spec(2), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    for round_ in (1, 2):
        e.ingest_batch("s1", one_row(round_, round_))
        e.run_until_idle()
        newest = e.checkpoint()
    assert read_log(str(tmp_path / LOG_FILE))[2] == e.partition.commit_seq
    if tail_round:
        e.ingest_batch("s1", one_row(3, 3))
        e.run_until_idle()
        e.partition.log.flush()
    e.crash()
    with open(newest, "rb") as fh:
        intact = fh.read()
    damaged = bytearray(intact)
    damaged[len(damaged) // 2] ^= 0xFF
    with open(newest, "wb") as fh:
        fh.write(damaged)
    with pytest.raises(CorruptSnapshot, match="log follows the snapshot at commit 4"):
        recover(chain_spec(2), str(tmp_path), fsync=False)
    with open(newest, "wb") as fh:
        fh.write(intact)
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert out_values(r) == ([1, 2, 3] if tail_round else [1, 2])
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_recovered_plans_hold_the_engines_tables(tmp_path, mode):
    e = Engine(chain_spec(3), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    e.checkpoint()
    e.ingest_batch("s1", one_row(3, 3))
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    r = recover(chain_spec(3), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert out_values(r) == [1, 2, 3]
    tables = r.store.tables
    for plan in r.partition.plans.values():
        names = plan.proc.stream_inputs
        assert len(plan.inputs) == len(names)
        assert all(tab is tables[n] for n, tab in zip(names, plan.inputs))
    assert set(r.partition.stream_plans) == {"s1", "s2", "s3"}
    for name, stream_plan in r.partition.stream_plans.items():
        assert stream_plan.table is tables[name]
    r.close()


def test_replay_divergence_detected(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()

    def aborting_spec():
        spec = chain_spec(2)

        def bad_body(ctx):
            ctx.abort("always")

        w = spec.workflows[0]
        procs = [
            ProcedureDef(p.name, p.kind, p.stream_inputs, p.window_defs,
                         p.table_inputs, bad_body)
            for p in w.procedures
        ]
        spec.workflows = [register_workflow("chain", procs, list(w.edges))]
        return spec

    with pytest.raises(ReplayDivergence):
        recover(aborting_spec(), str(tmp_path), fsync=False)


# --- weak recovery ---


def test_weak_crash_after_three_rounds(tmp_path):
    _, golden = golden_states(lambda: chain_spec(3), [10, 20, 30])
    e = Engine(chain_spec(3), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    feed_rounds(e, [10, 20, 30])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    r = recover(chain_spec(3), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert validate(r.committed_schedule, chain_spec(3).workflows[0]).correct
    assert public_tables(r) == public_tables(golden)
    r.close()


def public_tables(engine):
    sig = engine.store.content_signature()
    return {k: v for k, v in sig.items() if v[0] == "public"}


def test_weak_unlogged_border_resubmitted_from_cache(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK,
               group_commit_max_batch=100, group_commit_max_delay=3600,
               fsync=False)
    tickets = feed_rounds(e, [10, 20, 30])
    e.run_until_idle()
    # nothing flushed: all three border records vanish with the crash
    assert all(t.done and not t.acknowledged for t in tickets)
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert recs == []
    cached = read_input_cache(str(tmp_path / CACHE_FILE))
    assert [b.batch_id for b in cached["s1"]] == [1, 2, 3]
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert sorted(t.values[0] for t in r.store.table("out").rows) == [10, 20, 30]
    assert validate(r.committed_schedule, chain_spec(2).workflows[0]).correct
    r.close()


def test_weak_replays_oltp_interleaved(tmp_path):
    spec = chain_spec(2)
    spec.workflows.append(oltp_workflow())
    spec.tables.append(TableDef("olog", VAL_COLS))

    def build():
        s = chain_spec(2)
        s.workflows.append(oltp_workflow())
        s.tables.append(TableDef("olog", VAL_COLS))
        return s

    e = Engine(build(), data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
               fsync=False)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    for i, v in enumerate([10, 20, 30]):
        ing.push((v,))
        e.call_oltp("Q", {"v": i})
        e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [r.procedure for r in recs] == ["SP1", "Q"] * 3
    r = recover(build(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert sorted(t.values[0] for t in r.store.table("olog").rows) == [0, 1, 2]
    assert sorted(t.values[0] for t in r.store.table("out").rows) == [10, 20, 30]
    r.close()


def test_trim_proceeds_past_aborted_group_round(tmp_path):
    # a round dropped by an interior abort inside a group has run: the
    # checkpoint keeps none of its input
    from streamtx.model import NestedGroup

    def b1(ctx):
        ctx.emit("s2", ctx.input_tuples("s1"))

    def b2(ctx):
        if ctx.input_tuples("s2")[0].values[0] == 20:
            ctx.abort("poison value")

    def build():
        w = register_workflow(
            "grp",
            [
                ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=b1),
                ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s2",), body=b2),
            ],
            [("SP1", "s2", "SP2")],
            nested_groups=[NestedGroup("g", ("SP1", "SP2"), (("SP1", "SP2"),))],
        )
        return EngineSpec(
            workflows=[w],
            streams=[StreamDef("s1", VAL_COLS), StreamDef("s2", VAL_COLS)],
        )

    e = Engine(build(), data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
               fsync=False)
    feed_rounds(e, [10, 20, 30])
    e.run_until_idle()
    assert e.counters.te_aborted == 1
    e.checkpoint()
    assert e.partition.input_cache.retained == {"s1": []}
    assert read_input_cache(str(tmp_path / CACHE_FILE)) == {}
    e.close()


def test_weak_single_procedure_equals_strong(tmp_path):
    def solo_spec():
        def body(ctx):
            for t in ctx.input_tuples("s1"):
                ctx.insert("out", (t.values[0],))

        w = register_workflow(
            "solo", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
        )
        return EngineSpec(workflows=[w], streams=[StreamDef("s1", VAL_COLS)],
                          tables=[TableDef("out", VAL_COLS)])

    results = {}
    for mode in (RecoveryMode.STRONG, RecoveryMode.WEAK):
        d = str(tmp_path / mode.name)
        e = Engine(solo_spec(), data_dir=d, recovery_mode=mode, fsync=False)
        feed_rounds(e, [4, 5, 6])
        e.run_until_idle()
        e.partition.log.flush()
        e.crash()
        r = recover(solo_spec(), d, fsync=False)
        r.run_until_idle()
        results[mode] = r.snapshot_bytes()
        r.close()
    assert results[RecoveryMode.STRONG] == results[RecoveryMode.WEAK]


# --- input cache retention ---


def test_trim_stops_at_pending_interior(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    feed_rounds(e, [1, 2, 3, 4, 5])
    e.run_until_idle()
    # round 6: border commits but the interior stays parked
    e.partition.trigger_engine.pe_enabled = False
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    ing.next_batch_id, ing.next_tuple_id = 6, 6
    ing.push((6,))
    e.run_until_idle()
    assert e.store.stream("s2").pending_batches() == [6]
    # the border ran round 6, so the cache keeps none of it: the parked
    # interior batch is in the snapshot
    e.checkpoint()
    assert e.partition.input_cache.retained == {"s1": []}
    assert read_input_cache(str(tmp_path / CACHE_FILE)) == {}
    e.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    tes = [(te.procedure, te.round) for te in r.committed_schedule]
    assert tes == [("SP2", 6)]
    assert out_values(r) == [1, 2, 3, 4, 5, 6]
    r.close()


def test_round_bookkeeping_bounded_by_checkpoints(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    cache = e.partition.input_cache
    for n in (50, 200):
        for _ in range(n):
            ing.push((1,))
            e.run_until_idle()
        assert len(cache.retained["s1"]) == n
        e.checkpoint()
        assert cache.retained == {"s1": []}
        assert read_input_cache(str(tmp_path / CACHE_FILE)) == {}
    assert e._feeder_pending == {"SP1": {}}
    e.close()


def one_row(round_, value):
    return AtomicBatch(round_, (Tuple((value,), tuple_id=round_, batch_id=round_),))


def out_values(engine):
    return sorted(t.values[0] for t in engine.store.table("out").rows)


def assert_checkpoint_trims(tmp_path, rounds):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    for r in rounds:
        e.ingest_batch("s1", one_row(r, r))
        e.run_until_idle()
    assert [b.batch_id for b in e.partition.input_cache.retained["s1"]] == list(rounds)
    e.checkpoint()
    assert e.partition.input_cache.retained == {"s1": []}
    assert read_input_cache(str(tmp_path / CACHE_FILE)) == {}
    e.checkpoint()  # nothing left to drop
    assert e.partition.input_cache.retained == {"s1": []}
    e.close()


def test_trim_after_full_rounds(tmp_path):
    assert_checkpoint_trims(tmp_path, range(1, 6))


def test_checkpoint_trims_past_batch_id_gap(tmp_path):
    assert_checkpoint_trims(tmp_path, [1, 2, *range(5, 41)])


def pair_spec():
    """Border SP1 reads one batch from each of a and b per round."""

    def body(ctx):
        a, b = (ctx.input_tuples(s)[0].values[0] for s in ("a", "b"))
        ctx.insert("out", (a + b,))

    w = register_workflow(
        "pair", [ProcedureDef("SP1", ProcedureKind.BORDER, ("a", "b"), body=body)]
    )
    return EngineSpec(
        workflows=[w],
        streams=[StreamDef("a", VAL_COLS), StreamDef("b", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS)],
    )


def test_round_waiting_in_feeder_slot_kept_and_recovered(tmp_path):
    e = Engine(pair_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    for r in range(1, 5):
        e.ingest_batch("a", one_row(r, 10 * r))
        e.ingest_batch("b", one_row(r, r))
    e.ingest_batch("a", one_row(5, 50))  # round 5 waits for b
    e.ingest_batch("a", one_row(6, 60))
    t6 = e.ingest_batch("b", one_row(6, 6))  # complete, but behind round 5
    e.run_until_idle()
    assert out_values(e) == [11, 22, 33, 44]
    assert t6 is not None and not t6.done
    e.checkpoint()
    retained = e.partition.input_cache.retained
    assert [b.batch_id for b in retained["a"]] == [5, 6]
    assert [b.batch_id for b in retained["b"]] == [6]
    cached = read_input_cache(str(tmp_path / CACHE_FILE))
    assert {s: [b.batch_id for b in bs] for s, bs in cached.items()} == {
        "a": [5, 6], "b": [6]
    }
    e.crash()
    r = recover(pair_spec(), str(tmp_path), fsync=False)
    r.ingest_batch("b", one_row(5, 5))
    r.run_until_idle()
    assert out_values(r) == [11, 22, 33, 44, 55, 66]
    assert validate(r.committed_schedule, pair_spec().workflows[0]).correct
    r.close()


def test_weak_recovers_round_queued_before_crash(tmp_path):
    # round 5 is complete and queued, round 6 behind it, when the engine dies
    e = Engine(pair_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    for r in range(1, 5):
        e.ingest_batch("a", one_row(r, 10 * r))
        e.ingest_batch("b", one_row(r, r))
    e.ingest_batch("a", one_row(5, 50))
    e.ingest_batch("a", one_row(6, 60))
    e.ingest_batch("b", one_row(6, 6))
    e.run_until_idle()
    e.checkpoint()
    e.ingest_batch("b", one_row(5, 5))
    assert ("SP1", 5) in [(q.proc, q.round) for q in e.partition.client_queue]
    e.partition.log.flush()
    e.crash()
    r = recover(pair_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert out_values(r) == [11, 22, 33, 44, 55, 66]
    assert validate(r.committed_schedule, pair_spec().workflows[0]).correct
    r.close()


def test_border_runs_rounds_in_order():
    e = Engine(pair_spec())
    e.ingest_batch("a", one_row(1, 10))
    for r in (3, 2):  # rounds 2 and 3 complete while round 1 waits
        e.ingest_batch("a", one_row(r, 10 * r))
        e.ingest_batch("b", one_row(r, r))
    e.run_until_idle()
    assert len(e.committed_schedule) == 0
    e.ingest_batch("b", one_row(1, 1))
    e.run_until_idle()
    assert [te.round for te in e.committed_schedule] == [1, 2, 3]
    assert validate(e.committed_schedule, pair_spec().workflows[0]).correct


def seen_spec():
    """Border SP1 records each value in ``seen`` and aborts on a repeat; the
    OLTP procedure Clear empties ``seen``."""

    def body(ctx):
        for t in ctx.input_tuples("s1"):
            if ctx.select("seen", Pred("value", "==", t.values[0])):
                ctx.abort("seen before")
            ctx.insert("seen", (t.values[0],))

    def clear(ctx):
        ctx.delete("seen", None)

    border = register_workflow(
        "dedup", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    ops = register_workflow(
        "ops", [ProcedureDef("Clear", ProcedureKind.OLTP, body=clear)]
    )
    return EngineSpec(
        workflows=[border, ops],
        streams=[StreamDef("s1", VAL_COLS)],
        tables=[TableDef("seen", VAL_COLS)],
    )


def test_acknowledged_abort_not_rerun_after_checkpoint(tmp_path):
    e = Engine(seen_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted" and t2.acknowledged
    e.checkpoint()
    e.await_ticket(e.call_oltp("Clear"))
    assert e.store.table("seen").rows == []
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert r.store.table("seen").rows == []
    r.close()


@pytest.mark.parametrize("case", ["consumed", "queued", "same_slot"])
def test_rejects_batch_border_already_took(tmp_path, case):
    spec = pair_spec() if case == "same_slot" else chain_spec(2)
    first = "a" if case == "same_slot" else "s1"
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
               fsync=False)
    e.ingest_batch(first, one_row(1, 10))
    if case == "consumed":
        e.run_until_idle()
    with pytest.raises(BadDefinition, match="round 1"):
        e.ingest_batch(first, one_row(1, 20))
    if case == "same_slot":
        e.ingest_batch("b", one_row(1, 1))
    e.run_until_idle()
    assert out_values(e) == [10 if case != "same_slot" else 11]
    assert validate(e.committed_schedule, spec.workflows[0]).correct
    e.close()
    cached = read_input_cache(str(tmp_path / CACHE_FILE))
    assert [b.tuples[0].values for b in cached[first]] == [(10,)]


def test_queued_rounds_survive_two_crashes(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    for r in range(1, 7):
        e.ingest_batch("s1", one_row(r, 10 * r))
        if r <= 3:
            e.run_until_idle()
    e.partition.log.flush()
    e.crash()  # rounds 4-6 never ran
    for _ in range(2):
        r = recover(chain_spec(2), str(tmp_path), fsync=False)
        assert len(r.partition.client_queue) == 3
        r.crash()  # again before running them
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert out_values(r) == [10, 20, 30, 40, 50, 60]
    r.close()


def test_weak_two_input_border_randomized(tmp_path):
    """Whatever the arrival order of a two-input border's batches, and
    wherever checkpoints and crashes fall, every round reaches ``out``
    exactly once and every engine's schedule validates."""
    for seed in range(200):
        got, want, violations = random_pair_run(seed, str(tmp_path / str(seed)))
        assert got == want, f"seed {seed}"
        assert violations == [], f"seed {seed}"


# --- dispatch accounting ---


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_nested_group_workload_recovers(tmp_path, mode):
    from streamtx.bench import leaderboard_state
    from streamtx.ingest import StreamIngestor
    from streamtx.workloads import leaderboard_spec, make_vote_trace

    trace = make_vote_trace(4, 20, seed=3)

    def run_votes(engine, votes, start_round=1):
        ing = StreamIngestor(engine, "votes_in", BatchingPolicy("fixed_count", 1))
        ing.next_batch_id = start_round
        ing.next_tuple_id = start_round
        for phone, who in votes:
            ing.push((phone, who))
            engine.run_until_idle()

    golden = Engine(leaderboard_spec(4, 4, 6))
    run_votes(golden, trace)
    want = leaderboard_state(golden)

    live = Engine(leaderboard_spec(4, 4, 6), data_dir=str(tmp_path),
                  recovery_mode=mode, group_commit_max_batch=3, fsync=False)
    run_votes(live, trace[:12])
    live.crash()
    r = recover(leaderboard_spec(4, 4, 6), str(tmp_path), fsync=False)
    r.run_until_idle()
    # resume the rest of the feed; weak mode may also re-run rounds whose
    # log records were lost with the group-commit buffer
    resume_from = r.store.stream("votes_in").last_consumed_batch + 1
    run_votes(r, trace[resume_from - 1:], start_round=resume_from)
    got = leaderboard_state(r)
    assert got == want
    assert validate(
        r.committed_schedule, leaderboard_spec(4, 4, 6).workflows[0]
    ).correct
    r.close()


def test_mode_specific_recover_entry_points(tmp_path):
    from streamtx.errors import VersionMismatch

    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    with pytest.raises(VersionMismatch):
        recover(chain_spec(2), str(tmp_path), expect_mode=RecoveryMode.WEAK,
                fsync=False)
    r = recover(chain_spec(2), str(tmp_path), expect_mode=RecoveryMode.STRONG,
                fsync=False)
    assert r.partition.commit_seq == 2
    r.close()


def test_dispatch_count_formula():
    assert recovery_dispatch_count(RecoveryMode.STRONG, 4, 100) == DispatchCounts(400, 0)
    assert recovery_dispatch_count(RecoveryMode.WEAK, 4, 100) == DispatchCounts(100, 300)
    assert recovery_dispatch_count(RecoveryMode.STRONG, 1, 10) == DispatchCounts(10, 0)
    assert recovery_dispatch_count(RecoveryMode.WEAK, 1, 10) == DispatchCounts(10, 0)


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_measured_dispatches_match_formula(tmp_path, mode):
    n, rounds = 3, 10
    e = Engine(chain_spec(n), data_dir=str(tmp_path),
               recovery_mode=mode, fsync=False)
    feed_rounds(e, list(range(rounds)))
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    r = recover(chain_spec(n), str(tmp_path), fsync=False)
    want = recovery_dispatch_count(mode, n, rounds)
    assert r.counters.replay_client_dispatches == want.client_path
    assert r.counters.replay_trigger_dispatches == want.trigger_path
    r.close()


# --- file formats and crash windows ---


def test_v1_log_header_rejected(tmp_path):
    from streamtx.recovery import LOG_MAGIC

    path = tmp_path / LOG_FILE
    path.write_bytes(LOG_MAGIC + struct.pack("<IBI", 1, RecoveryMode.STRONG.value, 0))
    with pytest.raises(CorruptLogRecord, match="^unsupported log version 1$"):
        read_log(str(path))


def test_missing_log_rejected(tmp_path):
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    e.checkpoint()
    e.close()
    os.remove(tmp_path / LOG_FILE)
    with pytest.raises(CorruptLogRecord, match="^missing command.log$"):
        recover(chain_spec(2), str(tmp_path), fsync=False)


def test_border_args_decoded_only_at_replay(tmp_path, monkeypatch):
    """A live border execution takes its batches from the request; strong
    recovery decodes the args of each replayed border record exactly once."""
    import streamtx.executor as executor_mod

    decoded = []
    real = executor_mod.args_to_batches

    def counting(blob):
        decoded.append(blob)
        return real(blob)

    monkeypatch.setattr(executor_mod, "args_to_batches", counting)
    e = Engine(chain_spec(3), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    for v in range(20):
        ing.push((v,))
        e.run_until_idle()
        if v == 7:
            e.checkpoint()
            checkpoint_seq = e.partition.commit_seq
    assert decoded == []
    e.partition.log.flush()
    want = e.store.content_signature()
    e.crash()
    *_, records = read_log(str(tmp_path / LOG_FILE))
    replayed = [
        rec.args for rec in records
        if rec.procedure == "SP1" and rec.commit_seq > checkpoint_seq
    ]
    r = recover(chain_spec(3), str(tmp_path), fsync=False)
    assert len(replayed) == 12
    assert decoded == replayed
    assert r.store.content_signature() == want
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
@pytest.mark.parametrize("bad", [True, None, "x" * 65], ids=["bool", "none", "text65"])
def test_unencodable_value_rejected_before_kept(tmp_path, mode, bad):
    e = Engine(chain_spec(2), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    batch = AtomicBatch(1, (Tuple((bad,), tuple_id=1, batch_id=1),))
    with pytest.raises(TypeMismatch):
        e.ingest_batch("s1", batch)
    assert e.partition.input_cache.retained == {}
    assert len(e.partition.client_queue) == 0
    assert e._feeder_pending == {}
    e.close()
    if mode is RecoveryMode.WEAK:
        assert read_input_cache(str(tmp_path / CACHE_FILE)) == {}


def test_no_data_dir_retains_no_input():
    e = Engine(chain_spec(2))
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    for i in range(1000):
        ing.push((i,))
        e.run_until_idle()
    assert e.partition.input_cache.retained == {}


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_crash_inside_truncate_log_keeps_log(tmp_path, monkeypatch, mode):
    import builtins

    import streamtx.engine as engine_mod
    import streamtx.recovery as recovery_mod

    real_truncate = engine_mod.truncate_log

    def empty_then_die(path, how="r", *args, **kwargs):
        builtins.open(path, "wb").close()  # the file is emptied
        raise OSError("power lost")

    def truncate_then_die(*args):  # once: recovery truncates too
        monkeypatch.setattr(engine_mod, "truncate_log", real_truncate)
        monkeypatch.setattr(recovery_mod, "open", empty_then_die, raising=False)
        try:
            real_truncate(*args)
        finally:
            monkeypatch.delattr(recovery_mod, "open")

    monkeypatch.setattr(engine_mod, "truncate_log", truncate_then_die)
    e = Engine(chain_spec(2), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    feed_rounds(e, [1, 2, 3])
    e.run_until_idle()
    want = e.store.content_signature()
    with pytest.raises(OSError, match="power lost"):
        e.checkpoint()
    e.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert r.store.content_signature() == want
    r.close()
