"""Calls per round to the engine's own functions, pinned.

cProfile counts every call to a Python function defined in the ``streamtx``
package. Two engines built alike run N and 2N rounds under the profiler
after the same unprofiled warm-up; the difference over N is the steady cost
of one round, free of setup. The figures match the benchmark's chain and
window shapes: a strong five-procedure chain with group commit 8, and a
native window of 1000 tuples sliding by one, fed one tuple a round
(``window``, one slide a round) and four (``window4``, the benchmark's
rounds, four slides each). Another, weak-mode shape, the
leaderboard's vote workflow with its input cache, keeps the ingest path
that still encodes each batch: once for the cache, whose encoding the
logged border reuses as its args. Run this file with ``-s`` to
print them. The pins are exact: a change that adds calls to the round
path fails here, and so does one that removes calls without lowering the
pin. Lower the count again, or move the pin on purpose and say why. Functions that
Python generates from source, such as a named tuple's ``__new__``, a
dataclass's ``__init__`` or the codec's compiled row encoders, have the file
name ``<string>`` and are not counted, so what a record costs to build or
encode shows only in timed runs. A class's own ``__new__`` written in the
package is counted: ``Pred.__new__``, in ``storage.py``, counts once per
predicate built, where the frozen dataclass ``Pred`` used to be built by an
uncounted ``__init__``.

Recovery is pinned the same way, per unit of the work it repeats: two
engines crash after N and 2N rounds, and the difference between the calls
``recover`` makes for each, over the difference in that work, is its steady
cost. Strong recovery of the chain shape, crashed after a flush, is pinned
per record replayed; weak recovery of the leaderboard shape, fed without
pumping so that every round is still cached, per cached round re-submitted.
A recovery of 8 rounds runs first and is not counted, so that both
profiled ones find the codec's row decoders compiled.
"""

import cProfile
import os
import pstats

import pytest

import streamtx
from streamtx.engine import Engine, recover
from streamtx.model import AtomicBatch, Tuple
from streamtx.recovery import RecoveryMode
from streamtx.workloads import (
    leaderboard_spec,
    make_vote_trace,
    pe_chain_spec,
    window_native_spec,
)

SRC = os.path.dirname(streamtx.__file__) + os.sep
ROUNDS = 64

# calls per round when these pins were set. With fsync off, as here, each
# pump that leaves records pending ends with a flush through ``fail_stop``,
# so chain's five records a round, which never fill a group of 8, are
# written once a round, and so is each leaderboard round's accepted vote; a
# rejected vote's ticket goes through ``CommandLog.acknowledge``
PINS = {"chain": 106, "window": 25, "window4": 25, "leaderboard": 104.203125}
# calls per strong record replayed and per weak cached round re-submitted;
# weak recovery that replays no record takes no closing checkpoint, whose
# cache compaction encoded and framed each re-submitted round again. The
# frame scan is a loop that returns a list, not a generator resumed once
# per frame. ``read_log`` decodes every record inline, without a call to a
# record decoder or to ``text_at`` for its procedure, so a strong record
# reads two calls less; a decoded batch is built without the
# ``AtomicBatch`` constructor, which checked each row's batch id, so each
# cached round, and each strong border record (one record in five on the
# chain), reads one less
RECOVERY_PINS = {"STRONG": 17.8, "WEAK": 7}


def chain_engine(data_dir):
    return Engine(
        pe_chain_spec(5, "triggered"), data_dir=data_dir,
        recovery_mode=RecoveryMode.STRONG, group_commit_max_batch=8,
        group_commit_max_delay=3600, fsync=False,
    )


def window_engine(data_dir):
    return Engine(window_native_spec(1000, 1))


def leaderboard_engine(data_dir):
    return Engine(
        leaderboard_spec(), data_dir=data_dir,
        recovery_mode=RecoveryMode.WEAK, group_commit_max_batch=8,
        group_commit_max_delay=3600, fsync=False,
    )


VOTES = make_vote_trace(4, 100 + 2 * ROUNDS)  # about 15 % of them rejected

# shape -> (engine builder, border stream, warm-up rounds, round r's rows)
SHAPES = {
    "chain": (chain_engine, "s1", 16, lambda r: [(r % 7,)]),
    "window": (window_engine, "s1", 1000, lambda r: [(r % 7,)]),
    "window4": (
        window_engine, "s1", 250, lambda r: [((4 * r + i) % 7,) for i in range(4)]
    ),
    "leaderboard": (leaderboard_engine, "votes_in", 100, lambda r: [VOTES[r - 1]]),
}


def batches(rows, first, last):
    """Rounds ``first`` to ``last``, with tuple ids counted from round 1."""
    tid = sum(len(rows(r)) for r in range(1, first))
    out = []
    for r in range(first, last + 1):
        tuples = []
        for values in rows(r):
            tid += 1
            tuples.append(Tuple(values, tuple_id=tid, batch_id=r))
        out.append(AtomicBatch(r, tuple(tuples)))
    return out


def streamtx_calls(shape, data_dir, rounds):
    """Calls into ``streamtx`` while ``rounds`` rounds run after the warm-up."""
    make, stream, warmup, values = SHAPES[shape]
    engine = make(data_dir)
    for b in batches(values, 1, warmup):
        engine.ingest_batch(stream, b)
        engine.run_until_idle()
    timed = batches(values, warmup + 1, warmup + rounds)
    profile = cProfile.Profile()
    profile.enable()
    for b in timed:
        engine.ingest_batch(stream, b)
        engine.run_until_idle()
    profile.disable()
    engine.close()
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, nc, ...)
    return sum(v[1] for k, v in stats.items() if k[0].startswith(SRC))


@pytest.mark.parametrize("shape", sorted(PINS))
def test_calls_per_round_pinned(shape, tmp_path):
    once = streamtx_calls(shape, str(tmp_path / "n"), ROUNDS)
    twice = streamtx_calls(shape, str(tmp_path / "2n"), 2 * ROUNDS)
    per_round = (twice - once) / ROUNDS
    print(f"\n{shape}: {per_round:g} streamtx calls per round")
    assert per_round == pytest.approx(PINS[shape], abs=1e-9)


# recovery mode -> (shape, its spec, whether the feed is pumped)
RECOVERY_SHAPES = {
    "STRONG": ("chain", lambda: pe_chain_spec(5, "triggered"), True),
    "WEAK": ("leaderboard", leaderboard_spec, False),
}


def recovery_calls(mode, data_dir, rounds):
    """Calls into ``streamtx`` while ``recover`` brings back an engine that
    crashed after ``rounds`` rounds, and the records it replayed plus the
    cached rounds it re-submitted."""
    shape, spec, pumped = RECOVERY_SHAPES[mode]
    make, stream, _, values = SHAPES[shape]
    engine = make(data_dir)
    for b in batches(values, 1, rounds):
        engine.ingest_batch(stream, b)
        if pumped:
            engine.run_until_idle()
    assert not engine.partition.log.pending  # the crash follows a flush
    engine.crash()
    profile = cProfile.Profile()
    recovered = profile.runcall(recover, spec(), data_dir, fsync=False)
    stats = pstats.Stats(profile).stats
    calls = sum(v[1] for k, v in stats.items() if k[0].startswith(SRC))
    c = recovered.counters
    repeated = c.replay_client_dispatches + len(recovered.partition.client_queue)
    recovered.close()
    return calls, repeated


@pytest.mark.parametrize("mode", sorted(RECOVERY_PINS))
def test_recovery_calls_pinned(mode, tmp_path):
    recovery_calls(mode, str(tmp_path / "warm"), 8)
    once, n_once = recovery_calls(mode, str(tmp_path / "n"), ROUNDS)
    twice, n_twice = recovery_calls(mode, str(tmp_path / "2n"), 2 * ROUNDS)
    per_unit = (twice - once) / (n_twice - n_once)
    print(f"\n{mode}: {per_unit:g} streamtx calls per repeated record or round")
    assert per_unit == pytest.approx(RECOVERY_PINS[mode], abs=1e-9)
