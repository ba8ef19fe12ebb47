"""The partition's durable files: crash points, write failures, handles,
stale files, and checkpoints that encode only the rows added since the
last one.

The crash-point test runs a short chain once while recording the data dir
around every call that writes it: before the call, after it, and with only
half of what the call wrote. Each recorded state is then opened by the
constructor in a fresh directory, the way ALICE (Pillai et al., OSDI 2014)
replays every prefix of a program's file operations, and the recovered
engine crashes and is recovered once more.
"""

import dataclasses
import gc
import os
import stat

import pytest

import streamtx.engine as engine_mod
import streamtx.recovery as recovery_mod
import streamtx.snapshot as snapshot_mod
from randomized import (
    CheckpointFeed,
    checkpoint_and_compare,
    checkpoint_spec,
    log_frame,
    random_checkpoint_run,
)
from streamtx.codec import frames
from streamtx.engine import Engine, recover
from streamtx.model import AtomicBatch, Tuple, register_workflow
from streamtx.recovery import CommandLog, CommandLogRecord, InputCache, RecoveryMode
from streamtx.snapshot import snapshot_state
from streamtx.validator import validate
from streamtx.workloads import window_native_spec
from test_recovery import chain_spec, public_tables

N_PROCS, ROUNDS, GROUP_COMMIT = 3, 12, 3
# the third checkpoint prunes the first one's snapshot
CHECKPOINTS = (4, 6, 8)
# an hour-long group-commit timer: only full groups and explicit flushes
# write, so the recorded calls do not depend on timing
ENGINE_ARGS = dict(group_commit_max_batch=GROUP_COMMIT, group_commit_max_delay=3600)
# the file layer's calls that change the data dir, each patched where its
# caller looks it up: the creation of the log and the cache, their writes,
# the cache's compaction, every whole-file replacement (the snapshot, a
# compacted cache that keeps a batch), and the checkpoint's log truncation
# and snapshot prune, which the engine calls by its own names
WRITERS = [
    (recovery_mod.AppendFile, "__init__"),
    (CommandLog, "flush"),
    (InputCache, "append"),
    (InputCache, "compact"),
    (recovery_mod, "replace_file"),
    (engine_mod, "truncate_log"),
    (engine_mod, "prune_snapshots"),
]


def batch(r):
    return AtomicBatch(r, (Tuple((r * 10,), tuple_id=r, batch_id=r, ts=0),))


def feed(engine, first, last, checkpoints=()):
    tickets = []
    for r in range(first, last + 1):
        tickets.append(engine.ingest_batch("s1", batch(r)))
        engine.run_until_idle()
        if r in checkpoints:
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


# the header a file is cut back to in place: the log's new header (the
# snapshot seq changes, the length does not), or the cache's magic
CUT_TO_HEADER = {
    "command.log": len(recovery_mod._log_header(RecoveryMode.STRONG, 0)),
    "input.cache": len(recovery_mod.CACHE_MAGIC),
}


def half_written(before, after):
    """The dir had the call died half-way: an appended file, or a new one
    that is appended to, holds half of its new bytes; a file cut back to its
    header in place holds the new header over its old bytes, the state
    between the header's write and the cut; a replaced or new snapshot is
    unchanged, beside a temp file that holds half of its new bytes."""
    state = dict(before)
    for name, data in after.items():
        # a new append file starts empty: its header is its first append
        old = before.get(name, b"" if name in CUT_TO_HEADER else None)
        if old == data:
            continue
        if old is not None and data.startswith(old):
            state[name] = data[: len(old) + (len(data) - len(old)) // 2]
        elif old is not None and len(data) == CUT_TO_HEADER.get(name) < len(old):
            state[name] = data + old[len(data) :]
        else:
            state[name + ".tmp"] = data[: len(data) // 2]
    return state


def record_crash_states(mode, d, fsync):
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
        e = Engine(chain_spec(N_PROCS), data_dir=d, recovery_mode=mode, fsync=fsync,
                   **ENGINE_ARGS)
        tickets += feed(e, 1, ROUNDS, checkpoints=CHECKPOINTS)
        e.close()
    distinct = {}
    for files, seen in states:
        distinct.setdefault((tuple(sorted(files.items())), seen), (files, seen))
    return list(distinct.values())


# with fsync on or off, a process crash keeps every written byte and sees a
# rename whole, so both build the same kinds of state
@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_recovery_at_every_crash_point(tmp_path, mode, fsync):
    golden_states, golden = golden_run()
    crash_states = record_crash_states(mode, str(tmp_path / "live"), fsync)
    assert len(crash_states) > 20
    workflow = chain_spec(N_PROCS).workflows[0]

    def reopen(d):
        return Engine(chain_spec(N_PROCS), data_dir=str(d), recovery_mode=mode,
                      fsync=fsync, **ENGINE_ARGS)

    def check(r, seen, at):
        if mode is RecoveryMode.STRONG:
            seq = r.partition.commit_seq
            assert seq >= seen, f"{at}: acknowledged commit {seen} lost"
            assert r.snapshot_bytes() == golden_states[seq], at

    def cache_keeps_next_round(r, d, at):
        """In weak mode, ingest the round after those ``r`` took without
        running it, crash and recover: the input cache must bring that
        round back queued. Returns the engine to go on with."""
        next_round = r.partition.last_queued.get("SP1", 0) + 1
        if mode is RecoveryMode.STRONG or next_round > ROUNDS:
            return r
        r.ingest_batch("s1", batch(next_round))
        r.crash()
        r = reopen(d)
        queued = [req.round for req in r.partition.client_queue]
        assert next_round in queued, f"{at}: cached round {next_round} lost"
        return r

    for i, (files, seen) in enumerate(crash_states):
        d = tmp_path / f"crash{i}"
        d.mkdir()
        for name, data in files.items():
            (d / name).write_bytes(data)
        r = reopen(d)
        check(r, seen, f"state {i}")
        r = cache_keeps_next_round(r, d, f"state {i}")
        # the recovered engine takes up to two more rounds, then crashes and
        # is recovered once more
        r.run_until_idle()
        resume = r.store.stream("s1").last_consumed_batch + 1
        tickets = feed(r, resume, min(resume + 1, ROUNDS))
        seen = max([seen] + [t.commit_seq for t in tickets if t.acknowledged])
        r.crash()
        r = reopen(d)
        check(r, seen, f"state {i}, recovered twice")
        r = cache_keeps_next_round(r, d, f"state {i}, recovered twice")
        r.run_until_idle()
        resume = r.store.stream("s1").last_consumed_batch + 1
        feed(r, resume, ROUNDS)
        if mode is RecoveryMode.STRONG:
            assert r.snapshot_bytes() == golden_states[ROUNDS * N_PROCS], f"state {i}"
        else:
            assert public_tables(r) == public_tables(golden), f"state {i}"
            assert validate(r.committed_schedule, workflow).correct, f"state {i}"
        r.close()


# --- one frame per group commit ---


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_torn_group_commit_loses_exactly_that_group(tmp_path, mode, fsync):
    """A flush writes its whole group commit as one frame. A crash that
    cuts that frame after any of its bytes loses exactly that group: none of
    its tickets is acknowledged, the log reads as ending with the frame
    before it, strong recovery is bit-exact to the state before the group,
    and weak recovery re-submits the group's rounds from the input cache."""
    from streamtx.errors import LogWriteFailure

    golden_states, golden = golden_run()
    strong = mode is RecoveryMode.STRONG

    def start(d):
        """An engine whose log flushed rounds 1-2 and holds rounds 3-4's
        records, two rounds' worth in either mode, as one pending group."""
        e = Engine(chain_spec(N_PROCS), data_dir=str(d), recovery_mode=mode,
                   fsync=fsync, group_commit_max_batch=100,
                   group_commit_max_delay=3600)
        acked = feed(e, 1, 2)
        e.partition.log.flush()
        return e, acked, feed(e, 3, 4)

    e, _, _ = start(tmp_path / "whole")
    before = os.path.getsize(tmp_path / "whole" / "command.log")
    e.close()
    blob = (tmp_path / "whole" / "command.log").read_bytes()
    # rounds 1-2's group, then rounds 3-4's
    assert len(frames(blob, CUT_TO_HEADER["command.log"], "command.log")[0]) == 2
    frame = blob[before:]
    for cut in range(len(frame)):
        d = tmp_path / f"cut{cut}"
        e, acked, group = start(d)

        def torn_append(data):
            assert data == frame  # the group is one frame
            with (d / "command.log").open("ab") as fh:
                fh.write(data[:cut])
            raise LogWriteFailure("crash inside the flush")

        e.partition.log.file.append = torn_append
        with pytest.raises(LogWriteFailure):
            e.partition.fail_stop(e.partition.log.flush)
        assert all(t.acknowledged for t in acked), cut
        assert not any(t.acknowledged for t in group), cut
        e.crash()
        # the log ends with the frame before the group's
        assert recovery_mod.read_log(str(d / "command.log"))[3] == before, cut
        r = Engine(chain_spec(N_PROCS), data_dir=str(d), recovery_mode=mode,
                   fsync=fsync, **ENGINE_ARGS)
        if strong:
            assert r.partition.commit_seq == 2 * N_PROCS, cut
            assert r.snapshot_bytes() == golden_states[2 * N_PROCS], cut
            assert not r.partition.client_queue, cut
        else:
            assert [req.round for req in r.partition.client_queue] == [3, 4], cut
        r.run_until_idle()
        feed(r, 3 if strong else 5, ROUNDS)
        assert public_tables(r) == public_tables(golden), cut
        if strong:
            assert r.snapshot_bytes() == golden_states[ROUNDS * N_PROCS], cut
        r.close()


# --- one fsync policy ---


@pytest.fixture
def synced(monkeypatch):
    """The kind, ``"file"`` or ``"dir"``, of each ``os.fsync`` call so far."""
    kinds = []
    real_fsync = os.fsync

    def fsync_by_kind(fd):
        kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_by_kind)
    return kinds


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_log_and_cache_follow_one_fsync_policy(tmp_path, synced, mode, fsync):
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


# the syncs of a checkpoint with fsync on: the snapshot replaces a synced
# temp file, then syncs its directory; the log is cut in place, and in weak
# mode so is a cache that keeps no batch, each with one file sync; an
# engine without a log keeps only its snapshots
CHECKPOINT_SYNCS = {
    "strong": ["file", "dir", "file"],
    "weak": ["file", "dir", "file", "file"],
    "no log": ["file", "dir"],
}


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("engine", sorted(CHECKPOINT_SYNCS))
def test_checkpoint_follows_the_fsync_policy(tmp_path, synced, engine, fsync):
    if engine == "no log":
        e = Engine(window_native_spec(10, 1), data_dir=str(tmp_path), fsync=fsync)
    else:
        mode = RecoveryMode[engine.upper()]
        e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
                   fsync=fsync)
    feed(e, 1, 4)
    e.drain_and_quiesce()  # nothing left for the checkpoint's flush
    synced.clear()
    e.checkpoint()
    assert synced == (CHECKPOINT_SYNCS[engine] if fsync else [])
    e.close()


@pytest.mark.parametrize("fsync", [True, False])
def test_unlogged_checkpoint_makes_a_missing_data_dir(tmp_path, synced, fsync):
    # an engine without a log first writes at its checkpoint, whose listing
    # of the data dir finds it missing and makes it, syncing the parent of
    # each directory it creates before the snapshot
    d = tmp_path / "new" / "data"
    e = Engine(window_native_spec(10, 1), data_dir=str(d), fsync=fsync)
    assert not (tmp_path / "new").exists()
    e.checkpoint()
    assert synced == (["dir", "dir"] + CHECKPOINT_SYNCS["no log"] if fsync else [])
    assert os.listdir(d) == ["snapshot-000000000000.snap"]
    e.close()


@pytest.mark.parametrize("fsync", [True, False])
def test_truncate_log_creates_a_missing_log(tmp_path, synced, fsync):
    # how a directory without a log gets one that recover() can read; the
    # new file's directory entry is synced after the file
    path = str(tmp_path / "command.log")
    recovery_mod.truncate_log(path, RecoveryMode.STRONG, 0, 7, fsync)
    assert synced == (["file", "dir"] if fsync else [])
    header = len(recovery_mod._log_header(RecoveryMode.STRONG, 0))
    assert recovery_mod.read_log(path) == (RecoveryMode.STRONG, 0, 7, header, [])


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_recovery_syncs_only_a_weak_closing_checkpoint(tmp_path, synced, mode, fsync):
    # every round ran and its records were flushed before the crash, so the
    # log has no torn tail to cut and no round is re-submitted: weak recovery
    # syncs only the checkpoint it ends with after it replays a record, and
    # strong recovery nothing
    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=fsync)
    feed(e, 1, 4)
    e.crash()
    synced.clear()
    r = recover(chain_spec(N_PROCS), str(tmp_path), fsync=fsync)
    weak = mode is RecoveryMode.WEAK
    assert synced == (CHECKPOINT_SYNCS["weak"] if fsync and weak else [])
    assert r.partition.commit_seq == 4 * N_PROCS
    # with no record after the snapshot, weak recovery takes no checkpoint
    feed(r, 5, 5)
    r.checkpoint()
    r.crash()
    synced.clear()
    r = recover(chain_spec(N_PROCS), str(tmp_path), fsync=fsync)
    assert synced == []
    assert r.partition.commit_seq == 5 * N_PROCS
    r.close()


# --- the file-system calls themselves ---


class _Truncations:
    """A file object that records its ``truncate`` calls."""

    def __init__(self, fh, record, name):
        self._fh, self._record, self._name = fh, record, name

    def truncate(self, size=None):
        self._record(f"truncate {self._name}")
        return self._fh.truncate(size)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def traffic(monkeypatch, tmp_path):
    """Every file-system call on a path under ``tmp_path`` so far, as
    ``"<kind> <path relative to tmp_path>"``; an ``open`` carries its mode,
    or for ``os.open`` the kind, file or dir, of what it opened, ``fsync``
    the kind of the descriptor it syncs, and a call on a descriptor
    (``fsync``, ``ftruncate``, ``pwrite``) the path it was opened for."""
    calls, fd_names = [], {}
    root = str(tmp_path)

    def rel(path):
        path = os.fspath(path)
        return os.path.relpath(path, root) if path.startswith(root) else None

    def path_call(kind, real):
        def call(path, *args, **kwargs):
            if rel(path) is not None:
                calls.append(f"{kind} {rel(path)}")
            return real(path, *args, **kwargs)

        return call

    def fd_call(kind, real):
        def call(fd, *args, **kwargs):
            calls.append(f"{kind} {fd_names.get(fd)}")
            return real(fd, *args, **kwargs)

        return call

    def is_dir(fd):
        return stat.S_ISDIR(os.fstat(fd).st_mode)

    real_open, real_os_open = open, os.open
    real_fsync, real_replace = os.fsync, os.replace

    def traced_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        name = rel(path) if isinstance(path, (str, os.PathLike)) else None
        if name is None:
            return fh
        calls.append(f"open {mode} {name}")
        fd_names[fh.fileno()] = name
        return _Truncations(fh, calls.append, name)

    def traced_os_open(path, flags, *args, **kwargs):
        fd = real_os_open(path, flags, *args, **kwargs)
        if rel(path) is not None:
            calls.append(f"open {'dir' if is_dir(fd) else 'file'} {rel(path)}")
            fd_names[fd] = rel(path)
        return fd

    def traced_fsync(fd):
        calls.append(f"fsync {'dir' if is_dir(fd) else 'file'} {fd_names.get(fd)}")
        real_fsync(fd)

    def traced_replace(src, dst):
        calls.append(f"replace {rel(src)} {rel(dst)}")
        real_replace(src, dst)

    monkeypatch.setattr("builtins.open", traced_open)
    monkeypatch.setattr(os, "open", traced_os_open)
    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    for kind in ("listdir", "remove", "makedirs", "truncate"):
        monkeypatch.setattr(os, kind, path_call(kind, getattr(os, kind)))
    for kind in ("ftruncate", "pwrite"):
        monkeypatch.setattr(os, kind, fd_call(kind, getattr(os, kind)))
    monkeypatch.setattr(os.path, "isdir", path_call("isdir", os.path.isdir))
    return calls


def take(calls):
    """The calls recorded so far; the record starts over."""
    out = calls[:]
    calls.clear()
    return out


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_file_traffic_pinned(tmp_path, traffic, mode, fsync):
    """The file-system calls of construction without a recovery mode, which
    makes none, and with one, a checkpoint, a checkpoint that prunes the
    oldest snapshot, the constructor's recovery of a crash that left a torn
    log tail and a stale temp file, and in weak mode its recovery of a torn
    cache tail, call for call. With fsync off they are the same calls
    without the syncs and the directory opens."""
    d = tmp_path / "data"
    d.mkdir()
    Engine(chain_spec(N_PROCS), data_dir=str(d), fsync=fsync, **ENGINE_ARGS).close()
    got = {"construct and close without a recovery mode": take(traffic)}

    def open_engine():
        return Engine(chain_spec(N_PROCS), data_dir=str(d), recovery_mode=mode,
                      fsync=fsync, **ENGINE_ARGS)

    e = open_engine()
    got["construct"] = take(traffic)
    feed(e, 1, 2)
    take(traffic)
    e.checkpoint()
    got["checkpoint"] = take(traffic)
    for r in (3, 4):
        feed(e, r, r)
        e.checkpoint()
    feed(e, 5, 5)
    take(traffic)
    e.checkpoint()
    got["pruning checkpoint"] = take(traffic)
    feed(e, 6, 6)
    e.crash()
    torn = log_frame(CommandLogRecord(10**6, "SP1", 10**6, b"torn"))
    with (d / "command.log").open("ab") as fh:
        fh.write(torn[: len(torn) // 2])
    (d / "snapshot-000000000018.snap.tmp").write_bytes(b"STXSNAP1")
    take(traffic)
    open_engine().close()
    got["recover and close"] = take(traffic)
    if mode is RecoveryMode.WEAK:
        # round 6 is still cached and not run; a torn frame follows it, which
        # recovery cuts off although it replays no record
        with (d / "input.cache").open("ab") as fh:
            fh.write(torn[: len(torn) // 2])
        take(traffic)
        r = open_engine()
        assert r.counters.replay_client_dispatches == 0
        r.close()
        got["recover from a torn cache tail"] = take(traffic)
    want = {"construct and close without a recovery mode": [], **TRAFFIC[mode]}
    if not fsync:
        want = {
            phase: [c for c in calls if not c.startswith(("fsync", "open dir"))]
            for phase, calls in want.items()
        }
    assert got == want


# with fsync on; a power-loss model at the file layer (ROADMAP item 6) has
# to cover each of these calls
TRAFFIC = {
    RecoveryMode.STRONG: {
        "construct": [
            "listdir data",
            "open ab data/command.log",
            "fsync file data/command.log",
            "open dir data",
            "fsync dir data",
        ],
        "checkpoint": [
            "open wb data/snapshot-000000000006.snap.tmp",
            "fsync file data/snapshot-000000000006.snap.tmp",
            "replace data/snapshot-000000000006.snap.tmp data/snapshot-000000000006.snap",
            "open dir data",
            "fsync dir data",
            "open file data/command.log",
            "pwrite data/command.log",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "listdir data",
        ],
        "pruning checkpoint": [
            "open wb data/snapshot-000000000015.snap.tmp",
            "fsync file data/snapshot-000000000015.snap.tmp",
            "replace data/snapshot-000000000015.snap.tmp data/snapshot-000000000015.snap",
            "open dir data",
            "fsync dir data",
            "open file data/command.log",
            "pwrite data/command.log",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "listdir data",
            "remove data/snapshot-000000000009.snap",
        ],
        "recover and close": [
            "listdir data",
            "remove data/snapshot-000000000018.snap.tmp",
            "open rb data/command.log",
            "open ab data/command.log",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "open rb data/snapshot-000000000015.snap",
        ],
    },
    RecoveryMode.WEAK: {
        "construct": [
            "listdir data",
            "open ab data/command.log",
            "fsync file data/command.log",
            "open dir data",
            "fsync dir data",
            "open ab data/input.cache",
            "fsync file data/input.cache",
            "open dir data",
            "fsync dir data",
        ],
        "checkpoint": [
            "fsync file data/command.log",
            "open wb data/snapshot-000000000006.snap.tmp",
            "fsync file data/snapshot-000000000006.snap.tmp",
            "replace data/snapshot-000000000006.snap.tmp data/snapshot-000000000006.snap",
            "open dir data",
            "fsync dir data",
            "open file data/command.log",
            "pwrite data/command.log",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "ftruncate data/input.cache",
            "fsync file data/input.cache",
            "listdir data",
        ],
        "pruning checkpoint": [
            "fsync file data/command.log",
            "open wb data/snapshot-000000000015.snap.tmp",
            "fsync file data/snapshot-000000000015.snap.tmp",
            "replace data/snapshot-000000000015.snap.tmp data/snapshot-000000000015.snap",
            "open dir data",
            "fsync dir data",
            "open file data/command.log",
            "pwrite data/command.log",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "ftruncate data/input.cache",
            "fsync file data/input.cache",
            "listdir data",
            "remove data/snapshot-000000000009.snap",
        ],
        "recover and close": [
            "listdir data",
            "remove data/snapshot-000000000018.snap.tmp",
            "open rb data/command.log",
            "open ab data/command.log",
            "open ab data/input.cache",
            "ftruncate data/command.log",
            "fsync file data/command.log",
            "open rb data/input.cache",
            "open rb data/snapshot-000000000015.snap",
        ],
        "recover from a torn cache tail": [
            "listdir data",
            "open rb data/command.log",
            "open ab data/command.log",
            "open ab data/input.cache",
            "open rb data/input.cache",
            "ftruncate data/input.cache",
            "fsync file data/input.cache",
            "open rb data/snapshot-000000000015.snap",
        ],
    },
}


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


@pytest.mark.parametrize(
    "fsync, step",
    [(True, "log"), (False, "log"), (True, "prune"), (False, "prune")],
    ids=["True", "False", "prune-True", "prune-False"],
)
def test_failed_checkpoint_stops_the_partition(tmp_path, monkeypatch, fsync, step):
    # the log's cut fails after its new header is written, so the header
    # stands over the old records; or the third checkpoint's prune fails to
    # remove the first one's snapshot, its last file step
    import errno

    from streamtx.errors import EngineStopped, LogWriteFailure
    from streamtx.workloads import pe_chain_spec

    def failing(real, fails):
        def call(*args):
            if fails(*args):
                raise OSError(errno.EIO, "I/O error")
            return real(*args)

        return call

    if step == "prune":
        attr, fails = "remove", lambda path: path.endswith(".snap")
    else:  # strong mode has no cache: the log's is the only cut
        attr, fails = "ftruncate", lambda fd, size: True
    rounds = 3 if step == "prune" else 1
    e = Engine(
        pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
        recovery_mode=RecoveryMode.STRONG, fsync=fsync,
    )
    for r in range(1, rounds + 1):
        if r > 1:
            e.checkpoint()
        assert e.await_ticket(e.ingest_batch("s1", batch(r))).acknowledged
        e.run_until_idle()
    with monkeypatch.context() as mp:
        mp.setattr(os, attr, failing(getattr(os, attr), fails))
        with pytest.raises(LogWriteFailure, match="I/O error"):
            e.checkpoint()
    assert e.partition.stopped
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", batch(rounds + 1))
    e.crash()
    r = recover(pe_chain_spec(2, "triggered"), str(tmp_path), fsync=fsync)
    assert [t.values for t in r.store.table("out").rows] == [
        (10 * n,) for n in range(1, rounds + 1)
    ]
    r.close()


def test_data_dir_that_cannot_be_made_raises_log_write_failure(tmp_path):
    # every file-layer call that changes the data dir raises the one error
    from streamtx.errors import LogWriteFailure

    (tmp_path / "file").write_bytes(b"")
    with pytest.raises(LogWriteFailure, match="Not a directory"):
        Engine(chain_spec(N_PROCS), data_dir=str(tmp_path / "file" / "data"),
               recovery_mode=RecoveryMode.STRONG, fsync=False)


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
    assert e.partition.log.file._fh.closed
    assert e.partition.input_cache.file._fh.closed
    with pytest.raises(EngineStopped):
        e.ingest_batch("s1", batch(2))
    assert e.counters.te_committed == 2  # round 1's two procedures only


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_engine_recovers_a_used_data_dir(tmp_path, mode):
    """The constructor recovers a directory another engine wrote, so that
    its commits go on after the old ones. An engine of the other mode or
    partition refuses the log before it opens a file. An engine without a
    log writes there first at its checkpoint, which refuses a used
    directory instead."""
    from streamtx.errors import BadDefinition, VersionMismatch
    from streamtx.workloads import pe_chain_spec

    def engine(**kwargs):
        return Engine(pe_chain_spec(2, "triggered"), data_dir=str(tmp_path),
                      fsync=False, **kwargs)

    e = engine(recovery_mode=mode)
    feed(e, 1, 3)
    e.close()
    written = read_dir(tmp_path)
    other = RecoveryMode.WEAK if mode is RecoveryMode.STRONG else RecoveryMode.STRONG
    with pytest.raises(VersionMismatch, match=f"in {mode.name} mode, not {other.name}"):
        engine(recovery_mode=other)
    with pytest.raises(VersionMismatch, match="belongs to partition 0, not 1"):
        engine(recovery_mode=mode, partition_id=1)
    assert read_dir(tmp_path) == written
    r = engine(recovery_mode=mode)
    r.run_until_idle()
    assert [t.values for t in r.store.table("out").rows] == [(10,), (20,), (30,)]
    feed(r, 4, 4)
    r.checkpoint()
    r.crash()
    r = engine(recovery_mode=mode)
    assert r.partition.commit_seq == 8
    r.close()
    written = read_dir(tmp_path)
    unlogged = engine()
    feed(unlogged, 1, 1)
    with pytest.raises(BadDefinition, match=r"already holds command\.log$"):
        unlogged.checkpoint()
    os.remove(tmp_path / "command.log")
    if mode is RecoveryMode.WEAK:
        os.remove(tmp_path / "input.cache")
    with pytest.raises(BadDefinition, match=r"already holds snapshot-\d+\.snap$"):
        unlogged.checkpoint()
    assert read_dir(tmp_path) == {
        n: data for n, data in written.items() if n.endswith(".snap")
    }


# --- a header that a crash cut short ---


# the files a crash inside the creation of the log or the cache leaves: a
# log of 0, 5 or 12 bytes (no magic yet, part of it, the magic and the
# version), alone since the cache is made after it; or, in weak mode, a
# cache of 0 or 3 bytes beside a whole log
SHORT_HEADERS = [
    (name, size, mode)
    for name, sizes, modes in (
        ("command.log", (0, 5, 12), (RecoveryMode.STRONG, RecoveryMode.WEAK)),
        ("input.cache", (0, 3), (RecoveryMode.WEAK,)),
    )
    for size in sizes
    for mode in modes
]


@pytest.mark.parametrize("fsync", [True, False])
@pytest.mark.parametrize("name, size, mode", SHORT_HEADERS)
def test_short_header_written_whole(tmp_path, synced, name, size, mode, fsync):
    """A log or cache that holds a prefix of its header holds no frame, so
    the constructor opens it by writing the header whole, synced as a new
    file's is; the directory then takes rounds, and a second open recovers
    them. ``recover()`` reads the mode from the header, so it refuses a
    log too short to hold it."""
    from streamtx.errors import CorruptLogRecord

    header = {
        "command.log": recovery_mod._log_header(mode, 0),
        "input.cache": recovery_mod.CACHE_MAGIC,
    }
    if name == "input.cache":
        (tmp_path / "command.log").write_bytes(header["command.log"])
    (tmp_path / name).write_bytes(header[name][:size])
    if name == "command.log":
        with pytest.raises(CorruptLogRecord, match="^bad header in command.log$"):
            recover(chain_spec(N_PROCS), str(tmp_path), fsync=fsync)
    synced.clear()
    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=fsync)
    # the mended file, and in weak mode a cache made after a short log
    written = 2 if name == "command.log" and mode is RecoveryMode.WEAK else 1
    assert synced == (["file", "dir"] * written if fsync else [])
    assert read_dir(tmp_path) == {
        n: h for n, h in header.items() if n == "command.log" or mode is RecoveryMode.WEAK
    }
    feed(e, 1, 2)
    e.crash()
    r = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=fsync)
    r.run_until_idle()
    assert [t.values for t in r.store.table("out").rows] == [(10,), (20,)]
    r.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_short_header_refused_where_it_could_lose_commits(tmp_path, mode):
    """A short log beside a snapshot cannot say which snapshot it follows,
    and a short file that is not a prefix of its header is not one a crash
    left: opening either raises and writes nothing."""
    from streamtx.errors import CorruptLogRecord

    e = Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
               fsync=False)
    feed(e, 1, 2)
    e.checkpoint()
    e.close()
    whole = read_dir(tmp_path)
    header = recovery_mod._log_header(mode, 0)
    damaged = [("command.log", header[:12]), ("command.log", b"")]
    if mode is RecoveryMode.WEAK:
        damaged.append(("input.cache", b"STY"))
    for name, data in damaged:
        (tmp_path / name).write_bytes(data)
        written = read_dir(tmp_path)
        with pytest.raises(CorruptLogRecord, match=f"^bad header in {name}$"):
            Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
                   fsync=False)
        assert read_dir(tmp_path) == written
        (tmp_path / name).write_bytes(whole[name])
    for n in os.listdir(tmp_path):
        if n.endswith(".snap"):
            os.remove(tmp_path / n)
    # without a snapshot: a wrong magic, and the start of the other mode's
    # header, which only the full header's prefix tells apart
    other = RecoveryMode.WEAK if mode is RecoveryMode.STRONG else RecoveryMode.STRONG
    for data in (b"STXLOX", recovery_mod._log_header(other, 0)[:13]):
        (tmp_path / "command.log").write_bytes(data)
        with pytest.raises(CorruptLogRecord, match="^bad header in command.log$"):
            Engine(chain_spec(N_PROCS), data_dir=str(tmp_path), recovery_mode=mode,
                   fsync=False)
        assert (tmp_path / "command.log").read_bytes() == data


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
    # a snapshot's replace_file cut short
    (tmp_path / f"snapshot-{5 * N_PROCS:012d}.snap.tmp").write_bytes(b"STXSNAP1")
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


# --- checkpoints that encode only the rows added since the last one ---


@pytest.fixture
def encoded_rows(monkeypatch):
    """A one-item list counting the rows handed to the snapshot's row
    encoders."""
    count = [0]
    real = snapshot_mod.row_codec

    def counting(types):
        encode, decode = real(types)

        def encode_counted(rows):
            count[0] += len(rows)
            return encode(rows)

        return encode_counted, decode

    monkeypatch.setattr(snapshot_mod, "row_codec", counting)
    return count


def test_window_checkpoint_encodes_only_new_stream_rows(tmp_path, encoded_rows):
    e = Engine(window_native_spec(10, 1), data_dir=str(tmp_path), fsync=False)
    rounds = 0

    def run(n):
        nonlocal rounds
        for _ in range(n):
            rounds += 1
            rows = tuple(
                Tuple((rounds * 4 + i,), tuple_id=rounds * 4 + i, batch_id=rounds)
                for i in range(4)
            )
            e.ingest_batch("s1", AtomicBatch(rounds, rows))
            e.run_until_idle()

    run(5)
    e.checkpoint()
    wout = e.store.stream("wout")
    before = len(wout.rows)
    run(7)
    w = e.store.window("w")
    encoded_rows[0] = 0
    e.checkpoint()
    assert len(wout.rows) > before > 0
    assert encoded_rows[0] == len(wout.rows) - before + len(w.active) + len(w.staged)
    e.close()


def memo_engine(tmp_path, mode=RecoveryMode.STRONG):
    spec = checkpoint_spec()
    engine = Engine(spec, data_dir=str(tmp_path), recovery_mode=mode, fsync=False)
    return engine, spec, CheckpointFeed(engine)


def oltp(engine, proc, abort=False, **args):
    ticket = engine.await_ticket(engine.call_oltp(proc, dict(args, abort=abort)))
    assert ticket.committed != abort


def rows_encoded(engine, count):
    """Take a checkpoint, check that its file equals a snapshot taken
    without a memo, and return how many rows it encoded."""
    count[0] = 0
    path = engine.checkpoint()
    rows = count[0]
    p = engine.partition
    with open(path, "rb") as fh:
        assert fh.read() == snapshot_state(engine.store, p.id, p.commit_seq)
    return rows


def test_checkpoint_after_an_insert_and_an_abort(tmp_path, encoded_rows):
    e, spec, _ = memo_engine(tmp_path)
    oltp(e, "put", ks=[1, 2, 3])
    checkpoint_and_compare(e, spec)
    oltp(e, "put", abort=True, ks=[4, 5])  # rollback pops both
    oltp(e, "put", ks=[6])
    assert rows_encoded(e, encoded_rows) == 1  # the row list still stands
    e.close()


def test_checkpoint_after_a_delete_and_an_abort(tmp_path, encoded_rows):
    e, spec, _ = memo_engine(tmp_path)
    oltp(e, "put", ks=[1, 2, 3])
    checkpoint_and_compare(e, spec)
    oltp(e, "drop", abort=True, k=2)  # rollback puts the old row list back
    oltp(e, "put", ks=[4])
    assert rows_encoded(e, encoded_rows) == 1
    e.close()


def test_checkpoint_after_a_delete_and_a_commit(tmp_path, encoded_rows):
    e, spec, _ = memo_engine(tmp_path)
    oltp(e, "put", ks=[1, 2, 3])
    checkpoint_and_compare(e, spec)
    oltp(e, "drop", k=2)  # a new row list, one row shorter
    oltp(e, "put", ks=[4, 5])
    assert rows_encoded(e, encoded_rows) == 4
    e.close()


def test_checkpoint_after_a_delete_and_a_reinsert(tmp_path, encoded_rows):
    e, spec, _ = memo_engine(tmp_path)
    oltp(e, "put", ks=[1, 2, 3])
    checkpoint_and_compare(e, spec)
    oltp(e, "dup")  # drops key 1, then appends the row of key 3 again
    t = e.store.table("t").rows
    assert [r.values[0] for r in t] == [2, 3, 3] and t[1] is t[2]
    assert rows_encoded(e, encoded_rows) == 3
    e.close()


def test_checkpoint_after_a_middle_batch_is_collected(tmp_path, encoded_rows):
    e, spec, feed = memo_engine(tmp_path)
    for v in (1, 2, 3):
        feed.push("s1", [v])
    checkpoint_and_compare(e, spec)
    e.store.garbage_collect("keep", 2)
    feed.push("s1", [4])
    assert list(e.store.stream("keep").batches) == [1, 3, 4]
    # all of keep, log's new row, all of w
    assert rows_encoded(e, encoded_rows) == 3 + 1 + 3
    e.close()


def test_checkpoint_after_the_newest_batch_gets_longer(tmp_path, encoded_rows):
    e, spec, feed = memo_engine(tmp_path)
    feed.push("s1", [1])
    feed.push("s1", [2, 3])
    checkpoint_and_compare(e, spec)
    feed.push("s2", [4])  # border b's round 2 lengthens keep's batch 2
    assert [len(b) for b in e.store.stream("keep").batches.values()] == [1, 3]
    assert rows_encoded(e, encoded_rows) == 4 + 3  # all of keep, all of w
    e.close()


@pytest.mark.parametrize("mode", [RecoveryMode.STRONG, RecoveryMode.WEAK])
def test_checkpoint_after_recover(tmp_path, encoded_rows, mode):
    e, spec, feed = memo_engine(tmp_path, mode)
    feed.push("s1", [1, 2])
    oltp(e, "put", ks=[1, 2])
    checkpoint_and_compare(e, spec)
    feed.push("s1", [3])
    oltp(e, "put", ks=[3])
    e.crash()
    r = recover(spec, str(tmp_path), fsync=False)
    r.run_until_idle()
    feed.engine = r
    feed.push("s1", [4])
    oltp(r, "put", ks=[4])
    checkpoint_and_compare(r, spec)
    feed.push("s1", [5])
    oltp(r, "put", ks=[5])
    # keep's and log's newest round, t's new row, and all of w
    assert rows_encoded(r, encoded_rows) == 1 + 1 + 1 + 3
    r.close()


def test_checkpoints_match_memo_free_snapshots_randomized(tmp_path):
    taken = sum(
        random_checkpoint_run(seed, str(tmp_path / str(seed))) for seed in range(300)
    )
    assert taken >= 600
