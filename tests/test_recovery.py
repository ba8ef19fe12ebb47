import hashlib
import os
import struct

import pytest

from randomized import (
    dead_round_diamond_spec,
    log_frame,
    pair_chain_spec,
    random_bit_flip_run,
    random_pair_run,
    random_strong_crash_run,
    run_queued,
)
from streamtx.codec import encode_batches, frame
from streamtx.engine import (
    Engine,
    EngineSpec,
    StreamDef,
    TableDef,
    recover,
)
from streamtx.errors import (
    BadDefinition,
    CorruptLogRecord,
    CorruptSnapshot,
    LogWriteFailure,
    ReplayDivergence,
    TypeMismatch,
    VersionMismatch,
)
from streamtx.executor import args_to_batches, batches_to_args
from streamtx.ingest import BatchingPolicy, FeedSource, StreamIngestor, ingest
from streamtx.model import (
    AtomicBatch,
    ProcedureDef,
    ProcedureKind,
    Tuple,
    register_workflow,
)
from streamtx.recovery import (
    CACHE_FILE,
    LOG_FILE,
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
from streamtx.workloads import (
    leaderboard_spec,
    make_vote_trace,
    pe_chain_spec,
    window_native_spec,
)

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
    # the log syncs: with fsync off an idle partition writes what is pending
    spec = EngineSpec(workflows=[oltp_workflow()], tables=[TableDef("olog", VAL_COLS)])
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               group_commit_max_batch=4, group_commit_max_delay=3600, fsync=True)
    tickets = [e.call_oltp("Q", {"v": i}) for i in range(3)]
    e.run_until_idle()
    assert all(t.done for t in tickets)
    assert not any(t.acknowledged for t in tickets)
    assert e.counters.sync_count == 0
    t4 = e.call_oltp("Q", {"v": 3})
    e.run_until_idle()
    assert all(t.acknowledged for t in tickets) and t4.acknowledged
    assert e.counters.sync_count == 1
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
    assert e.counters.sync_count <= -(-n // 8) + timers
    e.close()


def test_unacknowledged_absent_acknowledged_present(tmp_path):
    spec = EngineSpec(workflows=[oltp_workflow()], tables=[TableDef("olog", VAL_COLS)])
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               group_commit_max_batch=3, group_commit_max_delay=3600, fsync=False)
    tickets = [e.call_oltp("Q", {"v": i}) for i in range(5)]
    run_queued(e)  # the crash falls inside the pump
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
    rec = log_frame(CommandLogRecord(99, "SP1", 99, b"xxx"))
    with open(log_path, "ab") as fh:
        fh.write(rec[: len(rec) // 2])
    *_, after = read_log(log_path)
    assert [(r_.procedure, r_.round) for r_ in after] == [
        (r_.procedure, r_.round) for r_ in before
    ]
    # a corrupt frame mid-file is not a torn tail: whole frames follow it,
    # so reading raises, naming the bad frame, rather than drop them
    with open(log_path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[60] ^= 0xFF
    with open(log_path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CorruptLogRecord, match="^corrupt frame at offset 25 in command.log$"):
        read_log(log_path)


def test_torn_tail_cut_before_new_records(tmp_path):
    # recovery reads up to the torn record; the records the recovered
    # engine writes must follow the ones it read, or the next recovery
    # stops at the torn bytes and loses them
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    for round_ in (1, 2, 3):
        e.ingest_batch("s1", one_row(round_, 10 * round_))
    e.run_until_idle()
    e.crash()
    log_path = tmp_path / LOG_FILE
    whole = log_path.read_bytes()
    log_path.write_bytes(whole[:-5])
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.partition.commit_seq == 5
    assert len(log_path.read_bytes()) < len(whole) - 5
    r.run_until_idle()
    tickets = [r.ingest_batch("s1", one_row(n, 10 * n)) for n in (4, 5, 6)]
    r.run_until_idle()
    assert [(t.commit_seq, t.acknowledged) for t in tickets] == [
        (7, True), (9, True), (11, True)
    ]
    r.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    assert r.partition.commit_seq == 12
    assert out_values(r) == [10, 20, 30, 40, 50, 60]
    r.close()


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


def test_replayed_border_batch_must_be_its_round(tmp_path):
    # a log may come from another spec: a border record whose batch is not
    # its round diverges instead of committing that batch as the round
    Engine(chain_spec(2), data_dir=str(tmp_path),
           recovery_mode=RecoveryMode.STRONG, fsync=False).close()
    batch = AtomicBatch(2, (Tuple((5,), tuple_id=1, batch_id=2),))
    rec = CommandLogRecord(1, "SP1", 1, batches_to_args({"s1": batch}))
    with open(tmp_path / LOG_FILE, "ab") as fh:
        fh.write(log_frame(rec))
    with pytest.raises(ReplayDivergence, match="SP1 round 1 aborted"):
        recover(chain_spec(2), str(tmp_path), fsync=False)


def gate_spec():
    """SP1 passes each batch to SP2, which aborts while table ``gate`` is
    empty and otherwise records the batch in ``out``; OLTP ``Open`` fills
    ``gate``."""

    def pass_on(ctx):
        ctx.emit("s2", ctx.input_tuples("s1"))

    def record(ctx):
        if not ctx.select("gate"):
            ctx.abort("gate closed")
        for t in ctx.input_tuples("s2"):
            ctx.insert("out", t.values)

    def open_gate(ctx):
        ctx.insert("gate", (1,))

    w = register_workflow(
        "gated",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=pass_on),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s2",), body=record),
        ],
        [("SP1", "s2", "SP2")],
    )
    ops = register_workflow(
        "ops", [ProcedureDef("Open", ProcedureKind.OLTP, body=open_gate)]
    )
    return EngineSpec(
        workflows=[w, ops],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("s2", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS), TableDef("gate", VAL_COLS)],
    )


def test_strong_replay_drops_what_an_abort_dropped(tmp_path):
    # SP2's abort drops round 1's batch on s2; Open's record carries the
    # abort, and replay runs its drop rule first, or recovery refires SP2,
    # which commits the aborted round once the gate is open
    e = Engine(gate_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [7])
    e.run_until_idle()
    assert e.counters.te_aborted == 1
    e.call_oltp("Open")
    e.run_until_idle()
    e.partition.log.flush()
    want = e.snapshot_bytes()
    e.crash()
    r = recover(gate_spec(), str(tmp_path), fsync=False)
    assert r.snapshot_bytes() == want
    r.run_until_idle()
    assert r.store.table("out").rows == []
    assert r.counters.te_aborted == 0
    r.close()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [(rec.procedure, rec.aborted) for rec in recs] == [
        ("SP1", ()),
        ("Open", (("SP2", 1),)),
    ]


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
    run_queued(e)  # the crash falls inside the pump
    # nothing flushed: all three border records vanish with the crash
    assert all(t.done and not t.acknowledged for t in tickets)
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert recs == []
    cached = read_input_cache(str(tmp_path / CACHE_FILE))[0]
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
    assert read_input_cache(str(tmp_path / CACHE_FILE))[0] == {}
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
    assert read_input_cache(str(tmp_path / CACHE_FILE))[0] == {}
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
        assert read_input_cache(str(tmp_path / CACHE_FILE))[0] == {}
    assert not any(e._feeder_pending.values())  # no round waits in a slot
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
    assert read_input_cache(str(tmp_path / CACHE_FILE))[0] == {}
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
    cached = read_input_cache(str(tmp_path / CACHE_FILE))[0]
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
    OLTP procedure Clear empties ``seen``, and Add inserts its ``v``."""

    def body(ctx):
        for t in ctx.input_tuples("s1"):
            if ctx.select("seen", Pred("value", "==", t.values[0])):
                ctx.abort("seen before")
            ctx.insert("seen", (t.values[0],))

    def clear(ctx):
        ctx.delete("seen", None)

    def add(ctx):
        ctx.insert("seen", (ctx.args["v"],))

    border = register_workflow(
        "dedup", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    ops = register_workflow(
        "ops",
        [
            ProcedureDef("Clear", ProcedureKind.OLTP, body=clear),
            ProcedureDef("Add", ProcedureKind.OLTP, body=add),
        ],
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


def test_acknowledged_abort_after_checkpoint_not_rerun(tmp_path):
    # round 2 aborts after the checkpoint, so the cache still holds it; the
    # record of Clear carries the abort, which retires the round, or
    # recovery would run it again after Clear, and it would commit
    e = Engine(seen_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    t1 = e.await_ticket(e.ingest_batch("s1", one_row(1, 7)))
    assert t1.committed
    e.checkpoint()
    t2 = e.await_ticket(e.ingest_batch("s1", one_row(2, 7)))
    assert t2.outcome == "aborted" and t2.acknowledged
    assert e.await_ticket(e.call_oltp("Clear")).acknowledged
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert r.store.table("seen").rows == []
    assert r.counters.te_aborted == 0
    r.close()


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_abort_acknowledged_only_once_what_it_read_is_durable(tmp_path, mode, fsync):
    # Add(7) commits and its record is pending: with fsync on it waits
    # across pumps for a group to share a sync, with it off it shares a
    # pump with round 1, which aborts on the 7 it reads. The crash comes
    # before any flush: the abort must not have been acknowledged, since
    # recovery loses Add(7), and weak recovery runs round 1 again, which
    # then commits
    e = Engine(seen_spec(), data_dir=str(tmp_path), recovery_mode=mode,
               group_commit_max_batch=8, group_commit_max_delay=3600, fsync=fsync)
    add = e.call_oltp("Add", {"v": 7})
    if fsync:
        e.run_until_idle()
        assert add.committed and not add.acknowledged
    t1 = e.ingest_batch("s1", one_row(1, 7))
    if fsync:
        e.run_until_idle()
    else:
        run_queued(e)  # the crash falls inside the pump
    assert add.committed and not add.acknowledged
    assert t1.outcome == "aborted" and t1.reason == "seen before"
    assert not t1.acknowledged
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=fsync)
    r.run_until_idle()
    reran = ("SP1", 1) in [(te.procedure, te.round) for te in r.committed_schedule]
    assert reran == (mode is RecoveryMode.WEAK)
    assert [t.values for t in r.store.table("seen").rows] == (
        [(7,)] if reran else []
    )
    r.close()


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_abort_acknowledged_by_the_flush_of_what_it_read(tmp_path, mode, fsync):
    # the flush that writes Add(7)'s record acknowledges the abort too, and
    # ``await_ticket`` forces it; an abort with nothing pending is
    # acknowledged at once
    e = Engine(seen_spec(), data_dir=str(tmp_path), recovery_mode=mode,
               group_commit_max_batch=8, group_commit_max_delay=3600, fsync=fsync)
    add = e.call_oltp("Add", {"v": 7})
    t1 = e.ingest_batch("s1", one_row(1, 7))
    run_queued(e)
    assert t1.outcome == "aborted" and not t1.acknowledged
    assert e.await_ticket(t1).acknowledged and add.acknowledged
    assert not e.partition.log.pending
    t2 = e.ingest_batch("s1", one_row(2, 7))
    run_queued(e)
    assert t2.outcome == "aborted" and t2.acknowledged
    e.close()


@pytest.mark.parametrize("fsync", [True, False])
def test_unlogged_commit_acknowledged_by_the_flush_of_what_it_read(tmp_path, fsync):
    # client-driven, weak mode: the client submits the interior SP2, which
    # the log does not keep, after the border SP1, whose record is pending;
    # SP2's ticket waits for that record, as an abort's would
    from streamtx.executor import Origin, TERequest

    spec = chain_spec(2)
    spec.use_procedure_triggers = False
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.WEAK,
               group_commit_max_batch=8, group_commit_max_delay=3600, fsync=fsync)
    t1 = e.ingest_batch("s1", one_row(1, 5))
    t2 = e.partition.submit_client(TERequest("SP2", 1, origin=Origin.CLIENT))
    run_queued(e)
    assert t1.committed and t2.committed
    assert not t1.acknowledged and not t2.acknowledged
    assert e.await_ticket(t2).acknowledged and t1.acknowledged
    # with nothing pending, an unlogged commit is acknowledged at once
    e.ingest_batch("s1", one_row(2, 6))
    run_queued(e)
    e.partition.log.flush()
    t3 = e.partition.submit_client(TERequest("SP2", 2, origin=Origin.CLIENT))
    run_queued(e)
    assert t3.committed and t3.acknowledged
    e.close()


def test_trailing_abort_reruns_after_weak_recovery(tmp_path):
    # an abort is acknowledged at once, but only the next logged record
    # carries it: when the process dies before one does, weak recovery runs
    # the round again, against the state it rebuilt, and here it aborts
    # again
    e = Engine(seen_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted" and t2.acknowledged
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    assert [(q.proc, q.round) for q in r.partition.client_queue] == [("SP1", 2)]
    r.run_until_idle()
    assert r.counters.te_aborted == 1
    assert [t.values for t in r.store.table("seen").rows] == [(7,)]
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_dead_round_join_input_survives_checkpoint_and_crash(tmp_path, mode):
    # C aborts round 1, so B's batch 1 waits at D's join; a checkpoint keeps
    # it, recovery marks it waiting without firing D, and round 2 collects it
    e = Engine(dead_round_diamond_spec(), data_dir=str(tmp_path),
               recovery_mode=mode, fsync=False)
    e.ingest_batch("s0", one_row(1, 1))
    e.run_until_idle()
    e.checkpoint()
    want = e.store.content_signature()
    e.crash()
    r = recover(dead_round_diamond_spec(), str(tmp_path), fsync=False)
    assert r.store.content_signature() == want
    assert list(r.store.stream("sbd").batches) == [1]
    assert r.partition.trigger_engine.pending == {("sbd", 1)}
    assert not r.partition.fast_track and not r.partition.client_queue
    r.ingest_batch("s0", one_row(2, 2))
    r.run_until_idle()
    assert not r.store.stream("sbd").batches
    assert r.partition.trigger_engine.pending == set()
    assert [te.round for te in r.committed_schedule if te.procedure == "D"] == [2]
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_recovered_border_refuses_a_round_an_abort_ended(tmp_path, mode):
    # the record of Clear carries round 2's abort: the recovered engine
    # refuses a second round 2, as the live one does, even though round 2
    # raised no consumption mark
    e = Engine(seen_spec(), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted" and t2.acknowledged
    assert e.await_ticket(e.call_oltp("Clear")).acknowledged
    with pytest.raises(BadDefinition, match="already took round 2"):
        e.ingest_batch("s1", one_row(2, 7))
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    with pytest.raises(BadDefinition, match="already took round 2"):
        r.ingest_batch("s1", one_row(2, 7))
    assert not r.partition.client_queue
    r.run_until_idle()
    assert r.store.table("seen").rows == []
    r.close()


@pytest.mark.parametrize("carried", [True, False], ids=["carried", "uncarried"])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_checkpoint_keeps_the_round_an_abort_ended(tmp_path, mode, carried):
    # round 2 aborts before a checkpoint, which truncates the record of
    # Clear that carries the abort, or follows before any record does: the
    # snapshot's consumption mark alone keeps round 2 taken
    e = Engine(seen_spec(), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted" and t2.acknowledged
    if carried:
        assert e.await_ticket(e.call_oltp("Clear")).acknowledged
    e.checkpoint()
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert r.counters.te_aborted == 0  # weak recovery does not re-run round 2
    with pytest.raises(BadDefinition, match="already took round 2"):
        r.ingest_batch("s1", one_row(2, 8))
    assert not r.partition.client_queue
    assert [t.values for t in r.store.table("seen").rows] == (
        [] if carried else [(7,)]
    )
    r.close()


def test_trailing_abort_forgotten_after_strong_recovery(tmp_path):
    # the strong counterpart of the weak re-run: no record carries round
    # 2's abort when the process dies, so strong recovery, which restores
    # what the log holds, forgets it, and the border takes round 2 again
    e = Engine(seen_spec(), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted" and t2.acknowledged
    e.crash()
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    assert not r.partition.client_queue
    assert r.partition.last_queued == {"SP1": 1}
    t = r.await_ticket(r.ingest_batch("s1", one_row(2, 8)))
    assert t.committed
    assert [t.values for t in r.store.table("seen").rows] == [(7,), (8,)]
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_abort_before_checkpoint_carried_after_it(tmp_path, mode):
    # the snapshot already holds what round 2's abort dropped; the record
    # after the checkpoint still carries the abort, and running its drop
    # rule again changes nothing
    e = Engine(seen_spec(), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    t1, t2 = feed_rounds(e, [7, 7])
    e.run_until_idle()
    assert t1.committed and t2.outcome == "aborted"
    e.checkpoint()
    e.await_ticket(e.call_oltp("Clear"))
    want = e.snapshot_bytes()
    e.crash()
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [(rec.procedure, rec.aborted) for rec in recs] == [
        ("Clear", (("SP1", 2),))
    ]
    r = recover(seen_spec(), str(tmp_path), fsync=False)
    if mode is RecoveryMode.STRONG:
        assert r.snapshot_bytes() == want
    r.run_until_idle()
    assert r.store.table("seen").rows == []
    assert r.counters.te_aborted == 0
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
    cached = read_input_cache(str(tmp_path / CACHE_FILE))[0]
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


@pytest.mark.parametrize("fsync", [True, False])
def test_round_cached_after_a_torn_cache_tail_survives(tmp_path, fsync):
    # recovery replays no record here, so it takes no closing checkpoint;
    # it must still cut the cache's torn tail, or round 4's frame follows
    # bytes that no read gets past
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=fsync)
    for n in (1, 2):
        e.ingest_batch("s1", one_row(n, 10 * n))
        e.run_until_idle()
    e.checkpoint()
    e.ingest_batch("s1", one_row(3, 30))
    e.crash()
    torn = frame(encode_batches({"s1": one_row(99, 99)}))
    with open(tmp_path / CACHE_FILE, "ab") as fh:
        fh.write(torn[: len(torn) // 2])
    r = recover(chain_spec(2), str(tmp_path), fsync=fsync)
    assert r.counters.replay_client_dispatches == 0
    r.ingest_batch("s1", one_row(4, 40))
    r.crash()
    r = recover(chain_spec(2), str(tmp_path), fsync=fsync)
    assert [req.round for req in r.partition.client_queue] == [3, 4]
    r.run_until_idle()
    assert out_values(r) == [10, 20, 30, 40]
    r.close()


def test_cache_of_another_spec_rejected(tmp_path):
    # the cache holds s1, but the spec's border reads t1
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    e.ingest_batch("s1", one_row(1, 10))
    e.crash()
    w = register_workflow(
        "t", [ProcedureDef("SP1", ProcedureKind.BORDER, ("t1",), body=lambda ctx: None)]
    )
    spec = EngineSpec(workflows=[w], streams=[StreamDef("t1", VAL_COLS)])
    with pytest.raises(VersionMismatch, match="input cache holds s1, which no border"):
        recover(spec, str(tmp_path), fsync=False)
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert out_values(r) == [10]
    r.close()


def test_weak_two_input_border_randomized(tmp_path):
    """Whatever the arrival order of a two-input border's batches, and
    wherever checkpoints and crashes fall, every round reaches ``out``
    exactly once and every engine's schedule validates."""
    for seed in range(200):
        got, want, violations = random_pair_run(seed, str(tmp_path / str(seed)))
        assert got == want, f"seed {seed}"
        assert violations == [], f"seed {seed}"


def test_strong_crash_recovers_a_group_boundary_randomized(tmp_path):
    """Wherever a strong-mode run of a random workflow crashes, and wherever
    the recovered engine crashes again, recovery lands bit-exactly on a
    crash-free run's state at a commit seq where no nested group is half
    committed, and no acknowledged ticket is past it."""
    for seed in range(200):
        lives = random_strong_crash_run(seed, str(tmp_path / str(seed)))
        for life, (seq, boundaries, golden, got, acked) in enumerate(lives, 1):
            at = f"seed {seed}, life {life}"
            assert seq in boundaries, f"{at}: commit {seq} splits a group"
            assert got == golden[seq], at
            assert acked <= seq, f"{at}: acknowledged commit {acked} lost"
            assert set(golden) == boundaries, at


def test_bit_flip_raises_or_recovers_randomized(tmp_path):
    """One bit flipped anywhere in the log or the cache either makes the
    open raise a typed error or loses at most what the file's last frame
    held (``random_bit_flip_run``): a corrupt frame with whole frames after
    it is not a torn tail."""
    raised = [random_bit_flip_run(seed, str(tmp_path / str(seed))) for seed in range(200)]
    # most flips land before the last frame; a few in it, or in a header
    # field that recovery reads around, such as a lower snapshot seq
    assert 100 < sum(raised) < 200


@pytest.mark.parametrize("damage", ["overwrite", "snapshot"])
def test_damage_raises_or_recovers_randomized(tmp_path, damage):
    """A run of 2-16 random bytes written over the log or the cache, or one
    bit flipped in the newest snapshot, either makes the open raise a typed
    error or loses at most what the damaged file's last frame held
    (``random_bit_flip_run``). A bad frame that bytes follow was not torn,
    so a run that spans the last two frames raises too."""
    runs = [random_bit_flip_run(seed, str(tmp_path / str(seed)), damage) for seed in range(200)]
    if damage == "snapshot":
        # the log follows the newest snapshot, whose CRC the flip fails, and
        # no older snapshot reaches that far: every open raises
        assert all(runs)
    else:
        assert 100 < sum(runs) < 200


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


@pytest.mark.parametrize("flushed", [False, True])
def test_strong_recovery_brings_back_whole_groups(tmp_path, flushed):
    # with group commit 3, a crash must bring back whole votes only: each
    # vote's group (validate, maintain) is one record, acknowledged once
    # the whole group is durable
    from streamtx.workloads import leaderboard_spec

    def spec():
        return leaderboard_spec(4, 100, 1000, "triggered")

    def vote(engine, round_, phone, who):
        row = Tuple((phone, who), tuple_id=round_, batch_id=round_)
        return engine.ingest_batch("votes_in", AtomicBatch(round_, (row,)))

    votes = [(1, "C0"), (2, "C1")]
    golden = {}

    def hook(p):
        golden[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

    g = Engine(spec(), post_commit_hook=hook)
    golden[0] = g.snapshot_bytes()
    for r, (phone, who) in enumerate(votes, 1):
        vote(g, r, phone, who)
        g.run_until_idle()

    live = Engine(spec(), data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
                  group_commit_max_batch=3, fsync=False)
    tickets = [vote(live, r, phone, who) for r, (phone, who) in enumerate(votes, 1)]
    run_queued(live)  # one pump, which the crash ends before it goes idle
    if flushed:
        live.partition.log.flush()
    live.crash()
    r = recover(spec(), str(tmp_path), fsync=False)
    seq = r.partition.commit_seq
    assert r.snapshot_bytes() == golden[seq]
    assert all(t.commit_seq <= seq for t in tickets if t.acknowledged)
    assert r.counters.te_aborted == 0
    r.close()
    # one record per vote, at its group's first commit seq; each replays as
    # one client dispatch, and maintain, its second child, inside the group
    *_, recs = read_log(str(tmp_path / LOG_FILE))
    assert [(rec.procedure, rec.round, rec.commit_seq) for rec in recs] == (
        [("validate", 1, 1), ("validate", 2, 3)] if flushed else []
    )
    assert live.counters.log_records == len(votes)
    assert r.counters.replay_client_dispatches == len(recs)
    assert r.counters.replay_trigger_dispatches == len(recs)
    assert [t.commit_seq for t in tickets] == [2, 4]
    assert sorted(golden) == [0, 2, 4]  # the hook runs once per group


def test_mode_specific_recover_entry_points(tmp_path):
    from streamtx.errors import VersionMismatch

    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    feed_rounds(e, [1])
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    # an engine of the other mode refuses the log before it opens a file
    with pytest.raises(VersionMismatch, match="^log was written in STRONG mode, not WEAK$"):
        Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    assert sorted(os.listdir(tmp_path)) == [LOG_FILE]
    r = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
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
    # a v1 header is shorter than the current one; a v3 log holds a record
    # per nested-group child, which replay would not run as a group; a v4
    # log's border args tag each value instead of naming column types; a v5
    # record carries the batches aborts dropped instead of the aborts; a v6
    # log frames each record alone, and its batch rows repeat the batch id
    from streamtx.recovery import LOG_MAGIC

    path = tmp_path / LOG_FILE
    strong = RecoveryMode.STRONG.value
    for version, head in (
        (1, struct.pack("<IBI", 1, strong, 0)),
        (3, struct.pack("<IBIQ", 3, strong, 0, 0)),
        (4, struct.pack("<IBIQ", 4, strong, 0, 0)),
        (5, struct.pack("<IBIQ", 5, strong, 0, 0)),
        (6, struct.pack("<IBIQ", 6, strong, 0, 0)),
    ):
        path.write_bytes(LOG_MAGIC + head)
        with pytest.raises(
            CorruptLogRecord, match=f"^unsupported log version {version}$"
        ):
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


def feed_pairs(engine, rounds):
    for r in range(1, rounds + 1):
        for stream, v in (("a", r), ("b", 10 * r)):
            engine.ingest_batch(
                stream, AtomicBatch(r, (Tuple((v,), tuple_id=r, batch_id=r),))
            )
        engine.run_until_idle()


@pytest.mark.parametrize(
    "shape, mode, per_round",
    [
        ("window", None, 0),
        ("pair", RecoveryMode.STRONG, 1),
        ("pair", RecoveryMode.WEAK, 3),
    ],
    ids=["window_no_data_dir", "pair_strong", "pair_weak"],
)
def test_border_batch_encoded_only_for_a_file(
    tmp_path, monkeypatch, shape, mode, per_round
):
    """A border round is encoded once for the log when the log keeps its
    border, and each batch once for the input cache in weak mode; with no
    file, nothing is encoded."""
    import streamtx.engine as engine_mod

    calls = []
    real = engine_mod.batches_to_args

    def counting(batches):
        calls.append(sorted(batches))
        return real(batches)

    monkeypatch.setattr(engine_mod, "batches_to_args", counting)
    if shape == "window":
        e = Engine(window_native_spec(10, 1))
        feed_rounds(e, range(100))
        e.run_until_idle()
        assert len(e.store.stream("wout").rows) == 91
    else:
        e = Engine(pair_chain_spec(), data_dir=str(tmp_path), recovery_mode=mode,
                   fsync=False)
        feed_pairs(e, 100)
        assert len(e.store.table("out").rows) == 100
    e.close()
    assert len(calls) == 100 * per_round
    if per_round:
        whole = [["a", "b"]] * 100
        assert [c for c in calls if len(c) == 2] == whole


# SHA-256 of the strong command log a fixed feed writes (log version 7);
# how often the engine encodes a border round must not change a byte of it
STRONG_LOG_SHA256 = {
    "chain": "f5d8c5cc5431592fec8cd7bf5f2745ad7ef6eae8ce96b5ac5239618582954888",
    "pair": "9551f877f5bc6ce93103d5b149c3e11a67bd67246fc7148d1bde6a9198d37f18",
}


@pytest.mark.parametrize("shape", sorted(STRONG_LOG_SHA256))
def test_strong_log_bytes_pinned(tmp_path, shape):
    spec = chain_spec(3) if shape == "chain" else pair_chain_spec()
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               fsync=False)
    if shape == "chain":
        feed_rounds(e, [v * 7 - 20 for v in range(30)])
        e.run_until_idle()
    else:
        feed_pairs(e, 30)
    e.close()
    blob = (tmp_path / LOG_FILE).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == STRONG_LOG_SHA256[shape]


# SHA-256 of the weak command log (version 7) and input cache (STXINP04)
# that a fixed leaderboard feed writes, with one checkpoint midway and five
# rounds still unended at the close: how the engine encodes a stream or
# procedure name must not change a byte of either. With fsync off each pump
# that commits a vote ends with its own frame, and the close writes the rest
WEAK_FILE_SHA256 = {
    LOG_FILE: "9595a4739612f49ee189954479474ae4b13e948aa792b67241d539fac142003a",
    CACHE_FILE: "6dd1a827d69d676336cfb79d143c9ba96b4318bde9e1e65255fce456fd032ba7",
}


def test_weak_log_and_cache_bytes_pinned(tmp_path):
    votes = make_vote_trace(4, 60)  # duplicate phones: aborts ride along
    e = Engine(leaderboard_spec(removal_period=10), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, group_commit_max_batch=8,
               group_commit_max_delay=3600, fsync=False)
    for r, vote in enumerate(votes, 1):
        e.ingest_batch("votes_in", AtomicBatch(r, (Tuple(vote, r, r),)))
        if r <= len(votes) - 5:
            e.run_until_idle()
        if r == len(votes) // 2:
            e.checkpoint()
    e.close()
    for name, digest in WEAK_FILE_SHA256.items():
        blob = (tmp_path / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, name


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
@pytest.mark.parametrize(
    "bad",
    [True, None, "x" * 65, 1.5, 2**63, "\ud800"],
    ids=["bool", "none", "text65", "float", "int_over_int64", "lone_surrogate"],
)
def test_unencodable_value_rejected_before_kept(tmp_path, mode, bad):
    spec = chain_spec(2)
    if isinstance(bad, str):  # into a text column, so the text rule sees it
        spec.streams[0] = StreamDef("s1", (("value", "text"),))
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=mode, fsync=False)
    batch = AtomicBatch(1, (Tuple((bad,), tuple_id=1, batch_id=1),))
    with pytest.raises(TypeMismatch):
        e.ingest_batch("s1", batch)
    assert e.partition.input_cache.retained == {}
    assert len(e.partition.client_queue) == 0
    assert e._feeder_pending == {}
    e.close()
    if mode is RecoveryMode.WEAK:
        assert read_input_cache(str(tmp_path / CACHE_FILE))[0] == {}


def test_old_input_cache_rejected(tmp_path):
    # an STXINP02 cache holds batches whose values are tagged one by one; an
    # STXINP03 cache's batch rows repeat the batch id
    e = Engine(chain_spec(2), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.WEAK, fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    e.crash()
    path = tmp_path / CACHE_FILE
    blob = path.read_bytes()
    assert blob.startswith(b"STXINP04")
    for magic in (b"STXINP02", b"STXINP03"):
        path.write_bytes(magic + blob[8:])
        with pytest.raises(CorruptLogRecord, match="^bad header in input.cache$"):
            recover(chain_spec(2), str(tmp_path), fsync=False)


BAD_WRITES = {
    "int_over_int64": lambda ctx: ctx.insert("out", (2**70,)),
    "ts_over_int64": lambda ctx: ctx.insert("out", (1,), ts=2**70),
    "ts_float": lambda ctx: ctx.insert("out", (1,), ts=1.5),
    "ts_text": lambda ctx: ctx.insert("out", (1,), ts="x"),
    "stream_ts_over_int64": lambda ctx: ctx.emit("side", [(1,)], ts=2**70),
    "sum_over_int64": lambda ctx: ctx.insert(
        "out", (ctx.aggregate("acc", "sum", "value")[0][0],)
    ),
}


@pytest.mark.parametrize("write", BAD_WRITES.values(), ids=BAD_WRITES.keys())
def test_row_a_snapshot_cannot_hold_aborts(tmp_path, write):
    # a row that the snapshot's structs cannot pack is refused as it is
    # written, so a later checkpoint succeeds and the log is truncated
    def body(ctx):
        (t,) = ctx.input_tuples("s1")
        if t.values[0] == 2:
            write(ctx)
        else:
            ctx.insert("out", t.values)

    w = register_workflow(
        "w", [ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",), body=body)]
    )
    spec = EngineSpec(
        workflows=[w],
        streams=[StreamDef("s1", VAL_COLS), StreamDef("side", VAL_COLS)],
        tables=[TableDef("out", VAL_COLS), TableDef("acc", VAL_COLS)],
        seed_rows={"acc": [(2**62,), (2**62,)]},
    )
    e = Engine(spec, data_dir=str(tmp_path), recovery_mode=RecoveryMode.STRONG,
               fsync=False)
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    tickets = [ing.push((v,)) for v in (1, 2)]
    e.run_until_idle()
    assert [t.outcome for t in tickets] == ["committed", "aborted"]
    assert "int64" in tickets[1].reason
    e.checkpoint()
    assert not e.partition.stopped
    ing.push((3,))
    e.run_until_idle()
    e.partition.log.flush()
    want = e.snapshot_bytes()
    e.crash()
    r = recover(spec, str(tmp_path), fsync=False)
    assert r.snapshot_bytes() == want
    assert [t.values for t in r.store.table("out").rows] == [(1,), (3,)]
    r.close()


def test_no_data_dir_retains_no_input():
    e = Engine(chain_spec(2))
    ing = StreamIngestor(e, "s1", BatchingPolicy("fixed_count", 1))
    for i in range(1000):
        ing.push((i,))
        e.run_until_idle()
    assert e.partition.input_cache.retained == {}


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_crash_inside_truncate_log_keeps_log(tmp_path, monkeypatch, mode):
    # the log is cut in place: the new header is written over the old one,
    # the file is cut to it, and the cut is synced; the process dies after
    # each of these steps in turn
    import streamtx.engine as engine_mod

    real_truncate = engine_mod.truncate_log
    for step in ("pwrite", "ftruncate", "fsync"):
        def step_then_die(*args, real_step=getattr(os, step)):
            real_step(*args)
            raise OSError("power lost")

        def truncate_then_die(*args, step=step):  # once: recovery truncates too
            monkeypatch.setattr(engine_mod, "truncate_log", real_truncate)
            with monkeypatch.context() as mp:
                mp.setattr(os, step, step_then_die)
                real_truncate(*args)

        monkeypatch.setattr(engine_mod, "truncate_log", truncate_then_die)
        d = str(tmp_path / step)
        e = Engine(chain_spec(2), data_dir=d, recovery_mode=mode, fsync=True)
        feed_rounds(e, [1, 2, 3])
        e.run_until_idle()
        want = e.store.content_signature()
        with pytest.raises(LogWriteFailure, match="power lost"):
            e.checkpoint()
        assert e.partition.stopped, step
        e.crash()
        r = recover(chain_spec(2), d, fsync=True)
        r.run_until_idle()
        assert r.store.content_signature() == want, step
        r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_checkpoint_cuts_the_log_and_an_empty_cache_in_place(tmp_path, mode):
    # each file keeps its inode, so the handle the engine appends with still
    # writes the file recovery reads: a round after the checkpoint comes back
    e = Engine(chain_spec(2), data_dir=str(tmp_path), recovery_mode=mode, fsync=False)
    feed_rounds(e, [1, 2])
    e.run_until_idle()
    weak = mode is RecoveryMode.WEAK
    files = [tmp_path / LOG_FILE] + ([tmp_path / CACHE_FILE] if weak else [])
    inodes = [os.stat(f).st_ino for f in files]
    e.checkpoint()
    assert [os.stat(f).st_ino for f in files] == inodes
    ticket = e.await_ticket(e.ingest_batch("s1", one_row(3, 3)))
    e.run_until_idle()
    e.partition.log.flush()
    assert ticket.acknowledged
    want = e.store.content_signature()
    e.crash()
    _, _, snapshot_seq, _, records = read_log(str(tmp_path / LOG_FILE))
    assert snapshot_seq == 2 * 2
    assert [(rec.commit_seq, rec.round) for rec in records] == (
        [(5, 3)] if weak else [(5, 3), (6, 3)]
    )
    if weak:
        cached, _ = read_input_cache(str(tmp_path / CACHE_FILE))
        assert cached == {"s1": [one_row(3, 3)]}
    r = recover(chain_spec(2), str(tmp_path), fsync=False)
    r.run_until_idle()
    assert r.store.content_signature() == want
    assert out_values(r) == [1, 2, 3]
    r.close()
