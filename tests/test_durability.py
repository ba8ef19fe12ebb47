"""The partition's durable files: crash points, write failures, handles and
stale files.

The crash-point test runs a short chain once while recording the data dir
around every call that writes it: before the call, after it, and with only
half of what the call wrote. Each recorded state is then recovered in a
fresh directory, the way ALICE (Pillai et al., OSDI 2014) replays every
prefix of a program's file operations, and the recovered engine crashes
and is recovered once more.
"""

import dataclasses
import gc
import os
import stat

import pytest

import streamtx.engine as engine_mod
import streamtx.recovery as recovery_mod
from streamtx.engine import Engine, recover
from streamtx.model import AtomicBatch, Tuple, register_workflow
from streamtx.recovery import CommandLog, InputCache, RecoveryMode
from streamtx.snapshot import snapshot_state
from streamtx.validator import validate
from test_recovery import chain_spec, public_tables

N_PROCS, ROUNDS, CHECKPOINT_AFTER, GROUP_COMMIT = 3, 12, 6, 3
# an hour-long group-commit timer: only full groups and explicit flushes
# write, so the recorded calls do not depend on timing
ENGINE_ARGS = dict(
    group_commit_max_batch=GROUP_COMMIT, group_commit_max_delay=3600, fsync=False
)
WRITERS = [
    (CommandLog, "flush"),
    (InputCache, "append"),
    (InputCache, "compact"),
    (recovery_mod, "replace_file"),
    (engine_mod, "replace_file"),
    (engine_mod, "truncate_log"),
]


def batch(r):
    return AtomicBatch(r, (Tuple((r * 10,), tuple_id=r, batch_id=r, ts=0),))


def feed(engine, first, last, checkpoint_after=None):
    tickets = []
    for r in range(first, last + 1):
        tickets.append(engine.ingest_batch("s1", batch(r)))
        engine.run_until_idle()
        if r == checkpoint_after:
            engine.checkpoint()
    return tickets


def golden_run():
    """commit_seq -> snapshot bytes of a run without files, plus the engine."""
    states = {}

    def hook(p):
        states[p.commit_seq] = snapshot_state(p.store, p.id, p.commit_seq)

    e = Engine(chain_spec(N_PROCS), post_commit_hook=hook)
    states[0] = e.snapshot_bytes()
    feed(e, 1, ROUNDS)
    return states, e


def read_dir(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def half_written(before, after):
    """The dir had the call died half-way: an appended file holds half of its
    new bytes; a replaced or new file is unchanged, beside a temp file that
    holds half of its new bytes."""
    state = dict(before)
    for name, data in after.items():
        old = before.get(name)
        if old == data:
            continue
        if old is not None and data.startswith(old):
            state[name] = data[: len(old) + (len(data) - len(old)) // 2]
        else:
            state[name + ".tmp"] = data[: len(data) // 2]
    return state


def record_crash_states(mode, d):
    """(dir contents, highest acknowledged commit_seq) at every crash point."""
    states, tickets = [], []

    def acked():
        return max((t.commit_seq for t in tickets if t.acknowledged), default=0)

    def recorded(fn):
        def call(*args, **kwargs):
            before, seen = read_dir(d), acked()
            out = fn(*args, **kwargs)
            after = read_dir(d)
            states.append((before, seen))
            states.append((half_written(before, after), seen))
            states.append((after, acked()))
            return out

        return call

    with pytest.MonkeyPatch.context() as mp:
        for owner, attr in WRITERS:
            mp.setattr(owner, attr, recorded(getattr(owner, attr)))
        e = Engine(chain_spec(N_PROCS), data_dir=d, recovery_mode=mode, **ENGINE_ARGS)
        tickets += feed(e, 1, ROUNDS, checkpoint_after=CHECKPOINT_AFTER)
        e.close()
    distinct = {}
    for files, seen in states:
        distinct.setdefault((tuple(sorted(files.items())), seen), (files, seen))
    return list(distinct.values())


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_recovery_at_every_crash_point(tmp_path, mode):
    golden_states, golden = golden_run()
    crash_states = record_crash_states(mode, str(tmp_path / "live"))
    assert len(crash_states) > 20
    workflow = chain_spec(N_PROCS).workflows[0]

    def check(r, seen, at):
        if mode is RecoveryMode.STRONG:
            seq = r.partition.commit_seq
            assert seq >= seen, f"{at}: acknowledged commit {seen} lost"
            assert r.snapshot_bytes() == golden_states[seq], at

    for i, (files, seen) in enumerate(crash_states):
        d = tmp_path / f"crash{i}"
        d.mkdir()
        for name, data in files.items():
            (d / name).write_bytes(data)
        r = recover(chain_spec(N_PROCS), str(d), **ENGINE_ARGS)
        check(r, seen, f"state {i}")
        # the recovered engine takes up to two more rounds, then crashes and
        # is recovered once more
        r.run_until_idle()
        resume = r.store.stream("s1").last_consumed_batch + 1
        tickets = feed(r, resume, min(resume + 1, ROUNDS))
        seen = max([seen] + [t.commit_seq for t in tickets if t.acknowledged])
        r.crash()
        r = recover(chain_spec(N_PROCS), str(d), **ENGINE_ARGS)
        check(r, seen, f"state {i}, recovered twice")
        r.run_until_idle()
        resume = r.store.stream("s1").last_consumed_batch + 1
        feed(r, resume, ROUNDS)
        if mode is RecoveryMode.STRONG:
            assert r.snapshot_bytes() == golden_states[ROUNDS * N_PROCS], f"state {i}"
        else:
            assert public_tables(r) == public_tables(golden), f"state {i}"
            assert validate(r.committed_schedule, workflow).correct, f"state {i}"
        r.close()


# --- one fsync policy ---


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_log_and_cache_follow_one_fsync_policy(tmp_path, monkeypatch, mode, fsync):
    synced = []
    real_fsync = os.fsync

    def fsync_by_kind(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_by_kind)
    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
               group_commit_max_batch=8, group_commit_max_delay=3600, fsync=fsync)
    # each new file, the log and in weak mode the cache, is synced and then
    # its directory entry, or a power loss could drop a log whose later
    # appends were synced
    new_files = 2 if mode is RecoveryMode.WEAK else 1
    assert synced == (["file", "dir"] * new_files if fsync else [])
    synced.clear()
    rounds = 40
    feed(e, 1, rounds)
    flushes = e.counters.sync_count
    assert flushes == rounds * (N_PROCS if mode is RecoveryMode.STRONG else 1) // 8
    cache_appends = rounds if mode is RecoveryMode.WEAK else 0
    assert len(synced) == (flushes + cache_appends if fsync else 0)
    e.close()
    # a data dir that does not exist yet: the parent of each directory the
    # engine creates is synced too, before the new files
    synced.clear()
    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path / "new" / "data"),
               recovery_mode=mode, fsync=fsync)
    assert synced == (["dir", "dir"] + ["file", "dir"] * new_files if fsync else [])
    e.close()


# --- fail-stop ---


@pytest.mark.parametrize(
    "mode, writes_before_failure",
    [
        (RecoveryMode.STRONG, 0),  # the border's log record
        (RecoveryMode.STRONG, 1),  # an interior's log record
        (RecoveryMode.WEAK, 0),  # the input cache
        (RecoveryMode.WEAK, 1),  # the border's log record
    ],
)
def test_failed_write_stops_the_partition(
    tmp_path, monkeypatch, mode, writes_before_failure
):
    from streamtx.errors import EngineStopped, LogWriteFailure
    from streamtx.executor import TERequest

    golden_states, golden = golden_run()
    args = dict(group_commit_max_batch=1, fsync=True)
    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode, **args)
    feed(e, 1, 2)

    real_fsync = os.fsync
    syncs = []

    def fail_once(fd):
        syncs.append(fd)
        if len(syncs) == writes_before_failure + 1:
            raise OSError("disk full")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fail_once)
    with pytest.raises(LogWriteFailure, match="disk full"):
        feed(e, 3, 3)
    assert e.partition.stopped
    for r in range(4, 7):  # a client keeps sending; nothing more runs
        with pytest.raises(EngineStopped):
            e.ingest_batch("s1", batch(r))
    with pytest.raises(EngineStopped):
        e.partition.submit_client(TERequest("SP2", 3))
    assert e.step() is False
    with pytest.raises(EngineStopped):
        e.checkpoint()
    e.crash()
    monkeypatch.setattr(os, "fsync", real_fsync)

    r = recover(chain_spec(N_PROCS), str(tmp_path), **args)
    if mode is RecoveryMode.STRONG:
        seq = r.partition.commit_seq
        assert seq >= 2 * N_PROCS
        assert r.snapshot_bytes() == golden_states[seq]
    r.run_until_idle()
    feed(r, r.store.stream("s1").last_consumed_batch + 1, ROUNDS)
    if mode is RecoveryMode.STRONG:
        assert r.snapshot_bytes() == golden_states[ROUNDS * N_PROCS]
    else:
        assert public_tables(r) == public_tables(golden)
        assert validate(r.committed_schedule, chain_spec(N_PROCS).workflows[0]).correct
    r.close()


def test_failed_checkpoint_stops_the_partition(tmp_path, monkeypatch):
    # the directory sync after the truncated log's rename fails: the log's
    # handle still points at the old, now unlinked file, so a commit after
    # this would be acknowledged from a file recovery never reads
    import errno

    from streamtx.errors import EngineStopped, LogWriteFailure
    from streamtx.workloads import pe_chain_spec

    real_sync_dir = recovery_mod._sync_dir

    def fail_for_log(path):
        if os.path.basename(path) == "command.log":
            raise OSError(errno.EIO, "I/O error")
        real_sync_dir(path)

    e = Engine(
        pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
        recovery_mode=RecoveryMode.STRONG, fsync=False,
    )
    assert e.await_ticket(e.ingest_batch("s1", batch(1))).acknowledged
    e.run_until_idle()
    monkeypatch.setattr(recovery_mod, "_sync_dir", fail_for_log)
    with pytest.raises(LogWriteFailure, match="I/O error"):
        e.checkpoint()
    monkeypatch.setattr(recovery_mod, "_sync_dir", real_sync_dir)
    assert e.partition.stopped
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", batch(2))
    e.crash()
    r = recover(pe_chain_spec(2, "triggered"), str(tmp_path), fsync=False)
    assert [t.values for t in r.store.table("out").rows] == [(10,)]
    r.close()


def test_close_stops_the_partition_when_its_flush_fails(tmp_path, monkeypatch):
    # round 1's border record sits in the group-commit buffer; the flush in
    # close() fails, so that record never reaches the log, and a round after
    # it must not commit in memory
    from streamtx.errors import EngineStopped, LogWriteFailure
    from streamtx.workloads import pe_chain_spec

    e = Engine(
        pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
        recovery_mode=RecoveryMode.WEAK, group_commit_max_batch=8,
        group_commit_max_delay=3600, fsync=False,
    )
    ticket = e.ingest_batch("s1", batch(1))
    e.run_until_idle()
    assert ticket.committed and not ticket.acknowledged

    def fail(self, data):
        raise LogWriteFailure("disk gone")

    monkeypatch.setattr(recovery_mod.AppendFile, "append", fail)
    with pytest.raises(LogWriteFailure, match="disk gone"):
        e.close()
    assert e.partition.stopped
    assert e.partition.log._file._fh.closed
    assert e.partition.input_cache._file._fh.closed
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", batch(2))
    assert e.counters.te_committed == 2  # round 1's two procedures only


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_engine_refuses_a_used_data_dir(tmp_path, mode):
    """A second engine on a directory another one wrote would start empty
    and log commits whose sequence restarts at 1; only recover() reopens
    it. An engine without a log writes there first at its checkpoint,
    which checks instead."""
    from streamtx.errors import BadDefinition
    from streamtx.workloads import pe_chain_spec

    args = dict(fsync=False)
    e = Engine(pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
               recovery_mode=mode, **args)
    feed(e, 1, 3)
    e.close()
    with pytest.raises(BadDefinition, match="already holds command.log"):
        Engine(pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
               recovery_mode=mode, **args)
    r = recover(pe_chain_spec(2, "triggered"), str(tmp_path), **args)
    r.run_until_idle()
    assert [t.values for t in r.store.table("out").rows] == [(10,), (20,), (30,)]
    feed(r, 4, 4)
    r.checkpoint()
    r.close()
    os.remove(tmp_path / "command.log")
    if mode is RecoveryMode.WEAK:
        with pytest.raises(BadDefinition, match="already holds input.cache"):
            Engine(pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
                   recovery_mode=mode, **args)
        os.remove(tmp_path / "input.cache")
    snapshots = sorted(os.listdir(tmp_path))
    unlogged = Engine(pe_chain_spec(2, "triggered"), data_dir=str(tmp_path), **args)
    feed(unlogged, 1, 1)
    with pytest.raises(BadDefinition, match=r"already holds snapshot-\d+\.snap"):
        unlogged.checkpoint()
    assert sorted(os.listdir(tmp_path)) == snapshots


# --- handles and stale files ---


# an unclosed file warns in its finaliser; as an error there, pytest reports
# it as an unraisable exception, which fails the test
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_recovery_leaves_no_open_or_stale_files(tmp_path):
    from streamtx.errors import ReplayDivergence

    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path),
               recovery_mode=RecoveryMode.STRONG, fsync=False)
    for r in range(1, 4):
        feed(e, r, r)
        e.checkpoint()
    feed(e, 4, 4)
    e.crash()

    spec = chain_spec(N_PROCS)
    w = spec.workflows[0]
    procs = [dataclasses.replace(p, body=lambda ctx: ctx.abort("diverges"))
             for p in w.procedures]
    spec.workflows = [register_workflow("chain", procs, list(w.edges))]
    with pytest.raises(ReplayDivergence):
        recover(spec, str(tmp_path), fsync=False)
    gc.collect()

    assert sorted(n for n in os.listdir(tmp_path) if n.endswith(".snap")) == [
        f"snapshot-{2 * N_PROCS:012d}.snap",
        f"snapshot-{3 * N_PROCS:012d}.snap",
    ]
    (tmp_path / "command.log.tmp").write_bytes(b"STXLOG01")  # replace_file cut short
    r = recover(chain_spec(N_PROCS), str(tmp_path), fsync=False)
    assert r.partition.commit_seq == 4 * N_PROCS
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    r.close()
    del r
    gc.collect()


# --- the group-commit timer, on a clock the test moves ---

DELAY = 0.5  # exact in binary, so deadlines compare exactly


class FakeClock:
    """Stands in for the ``time`` module that the log and the partition
    read ``monotonic`` from."""

    def __init__(self, now=100.0):
        self.now = now

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    import streamtx.executor as executor_mod

    fake = FakeClock()
    monkeypatch.setattr(recovery_mod, "time", fake)
    monkeypatch.setattr(executor_mod, "time", fake)
    return fake


def timed_engine(tmp_path, mode=RecoveryMode.STRONG):
    """A chain whose records wait for the timer: no group fills up."""
    return Engine(
        chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
        group_commit_max_batch=100, group_commit_max_delay=DELAY, fsync=False,
    )


@pytest.mark.parametrize("pump", ["run_until_idle", "step"])
def test_idle_pump_flushes_once_the_deadline_passes(tmp_path, clock, pump):
    e = timed_engine(tmp_path)
    log, syncs = e.partition.log, e.counters.sync_count
    ticket = e.ingest_batch("s1", batch(1))
    e.run_until_idle()
    assert ticket.committed and len(log.pending) == N_PROCS
    assert log.deadline == 100.0 + DELAY  # set by the first record to wait
    for now in (100.0, 100.0 + DELAY / 2, 100.0 + DELAY - 1e-9):
        clock.now = now
        assert not getattr(e, pump)()
        assert len(log.pending) == N_PROCS and not ticket.acknowledged
        assert e.counters.sync_count == syncs
    clock.now = 100.0 + DELAY
    assert not getattr(e, pump)()
    assert not log.pending and log.deadline is None
    assert ticket.acknowledged and e.counters.sync_count == syncs + 1
    e.close()


def test_record_appended_after_the_deadline_flushes_at_once(tmp_path, clock):
    e = timed_engine(tmp_path)
    log, syncs = e.partition.log, e.counters.sync_count
    first = e.ingest_batch("s1", batch(1))
    e.run_until_idle()
    clock.now = log.deadline + 1.0
    second = e.ingest_batch("s1", batch(2))
    assert not first.acknowledged and e.counters.sync_count == syncs
    assert e.step()  # round 2's border commits and appends its record
    # that append flushed round 1's records and its own
    assert first.acknowledged and second.acknowledged
    assert not log.pending and e.counters.sync_count == syncs + 1
    e.run_until_idle()  # round 2's interiors wait on a new deadline
    assert len(log.pending) == N_PROCS - 1
    assert log.deadline == clock.now + DELAY
    assert e.counters.sync_count == syncs + 1
    e.close()


def test_unlogged_commit_flushes_once_the_deadline_is_due(tmp_path, clock):
    # weak mode logs the border only: its interiors commit unlogged
    e = timed_engine(tmp_path, RecoveryMode.WEAK)
    log, syncs = e.partition.log, e.counters.sync_count
    ticket = e.ingest_batch("s1", batch(1))
    assert e.step()  # SP1: its record waits
    assert len(log.pending) == 1 and not ticket.acknowledged
    clock.now = 100.0 + DELAY - 1e-9
    assert e.step()  # SP2 commits unlogged before the deadline
    assert len(log.pending) == 1 and not ticket.acknowledged
    assert e.counters.sync_count == syncs
    clock.now = 100.0 + DELAY
    assert e.step()  # SP3 commits unlogged once it is due
    assert not log.pending and ticket.acknowledged
    assert e.counters.sync_count == syncs + 1
    assert e.counters.te_committed == N_PROCS
    e.close()
