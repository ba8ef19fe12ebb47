"""The benchmark's span wrappers on the window, leaderboard and chain paths.

``perfbench/spans.py`` wraps engine functions by name and reads their
positional arguments (``_select_scanned`` reads the table and predicate of
``Store.select_where``). The traced chain episode in ``perfbench/tests``
never reaches the window, select or statement-program paths, so these tiny
traced episodes check that the wrappers still fit them. The window and
chain cases also name the round path's wrapped functions, from the push to
the collection of the round's batches, and the chain case those of its
command log, checkpoint and strong recovery too, so that a path which stops
calling one of them fails here, not only in a traced benchmark run. Some
wrappers only count: the window cases require the count that
``UndoBuffer.record_window`` adds, which no span shows.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import episode  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


class TinyWindow(episode.Window):
    # the native window needs 1000 tuples (250 rounds) before its first event
    shape = wl.Shape(warmup=240, timed=40, checkpoint_every=20, resume=5, block=10)


class TinyLeaderboard(episode.Leaderboard):
    shape = wl.Shape(warmup=50, timed=250, checkpoint_every=100, resume=20, block=50)


class TinyChain(episode.Chain):
    shape = wl.Shape(warmup=50, timed=250, checkpoint_every=100, resume=20, block=50)


@pytest.mark.parametrize(
    "workload, called, counted",
    [
        (
            TinyWindow,
            [
                "ingest.push",
                "engine.ingest_batch",
                "executor.execute",
                "triggers.on_stream_append",
                "storage.insert_batch",
                "storage.next_tuple_ids",
                "storage.window_insert",
                "triggers.on_window_events",
                "storage.garbage_collect",
            ],
            ["storage.undo_window_rows"],
        ),
        (
            TinyLeaderboard,
            [
                "storage.select_where",
                "storage.window_insert",
                "triggers.on_window_events",
            ],
            ["storage.undo_window_rows"],
        ),
        (
            TinyChain,
            [
                "ingest.push",
                "engine.ingest_batch",
                "executor.execute",
                "codec.batches_to_args",
                "codec.args_to_batches",
                "codec.decode_args",
                "storage.insert_batch",
                "storage.next_tuple_ids",
                "storage.insert",
                "storage.garbage_collect",
                "triggers.fire",
                "triggers.gc.note_append",
                "triggers.gc.note_consumed",
                "recovery.encode",
                "recovery.flush",
                "engine.checkpoint",
                "snapshot.encode",
                "snapshot.decode",
                "snapshot.verify",
                "recovery.truncate",
                "recovery.read_log",
                "recovery.compact",
            ],
            [],
        ),
    ],
    ids=["window", "leaderboard", "chain"],
)
def test_traced_episode_reaches_window_paths(workload, called, counted, tmp_path):
    tr = spans.Tracer()
    spans.install(tr)
    try:
        ep = episode.run_episode(workload(seed=2), str(tmp_path), 0, tr)
    finally:
        tr.uninstall()
    assert ep.problems == []
    assert ep.failed == 0
    summary = spans.summarize(tr)
    calls = {}
    for (_, name), totals in summary.spans.items():
        calls[name] = calls.get(name, 0) + totals.calls
    assert {name: calls.get(name, 0) > 0 for name in called} == dict.fromkeys(
        called, True
    )
    counts = {}
    for (_, key), n in summary.counts.items():
        counts[key] = counts.get(key, 0) + n
    assert {key: counts.get(key, 0) > 0 for key in counted} == dict.fromkeys(
        counted, True
    )
