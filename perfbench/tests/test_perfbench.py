"""Tests for the benchmark's own code: span arithmetic, the references
against the engine on tiny episodes, and failure reporting.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import episode  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from streamtx import Engine, Tuple  # noqa: E402

TINY = wl.Shape(warmup=10, timed=40, checkpoint_every=20, resume=6, block=10)


def _tree(rows):
    start, end, parent = array("d"), array("d"), array("i")
    for s, e, p in rows:
        start.append(s)
        end.append(e)
        parent.append(p)
    return start, end, parent


def test_self_time_subtracts_direct_children_only():
    # root [0,10] has children [1,3] and [4,9]; [4,9] has child [5,6]
    start, end, parent = _tree([(0, 10, -1), (1, 3, 0), (4, 9, 0), (5, 6, 2)])
    assert spans.self_times(start, end, parent) == pytest.approx([3, 2, 4, 1])


def test_self_time_counts_overlapping_children_once():
    # children [1,5] and [3,8] overlap on [3,5]; [9,12] sticks out of [0,10]
    start, end, parent = _tree([(0, 10, -1), (1, 5, 0), (3, 8, 0), (9, 12, 0)])
    assert spans.self_times(start, end, parent)[0] == pytest.approx(10 - 7 - 1)


def test_self_time_does_not_depend_on_record_order():
    rows = [(0, 10, -1), (4, 9, 0), (1, 3, 0)]
    start, end, parent = _tree(rows)
    assert spans.self_times(start, end, parent) == pytest.approx([3, 5, 2])


def test_tracer_records_nesting_and_uninstalls():
    tr = spans.Tracer()

    def inner(x):
        return x + 1

    outer = tr.span("outer", lambda x: wrapped_inner(x) * 2)
    wrapped_inner = tr.span("inner", inner)
    tr.current_round = 7
    assert outer(1) == 4
    assert list(tr.parent) == [-1, 0]
    assert list(tr.round) == [7, 7]
    summary = spans.summarize(tr)
    got = summary.get(spans.OTHER, "outer")
    assert got.calls == 1 and got.own <= got.total

    from streamtx.ingest import StreamIngestor

    original = StreamIngestor.push
    spans.install(tr)
    assert StreamIngestor.push is not original
    tr.uninstall()
    assert StreamIngestor.push is original


class TinyChain(episode.Chain):
    shape = TINY


class TinyWindow(episode.Window):
    # the native window needs 1000 tuples (250 rounds) before its first event
    shape = wl.Shape(warmup=240, timed=40, checkpoint_every=20, resume=5, block=10)


class TinyLeaderboard(episode.Leaderboard):
    shape = wl.Shape(warmup=50, timed=250, checkpoint_every=100, resume=20, block=50)


@pytest.mark.parametrize("workload", [TinyChain, TinyWindow, TinyLeaderboard])
def test_reference_agrees_with_engine_on_a_tiny_episode(workload, tmp_path):
    w = workload(seed=3)
    ep = episode.run_episode(w, str(tmp_path), 0, None)
    assert ep.problems == []
    assert ep.failed == 0
    assert ep.attempted == w.shape.total
    assert len(ep.setup_s) == episode.EXTRA_SETUPS + 1
    assert len(ep.checkpoints) == w.shape.timed // w.shape.checkpoint_every
    assert os.listdir(tmp_path) == []


def test_leaderboard_reference_rejects_duplicates_and_removed():
    ref = reference.LeaderboardReference(contestants=3, window=2, removal_period=2)
    assert ref.cast(1, "C0") and ref.cast(2, "C1")  # removal drops C2 (0 votes)
    assert not ref.cast(1, "C1")  # phone 1 already voted
    assert not ref.cast(3, "C2")  # C2 was removed
    state = ref.state()
    assert state.rejected == {3, 4}
    assert state.tables["contestants"] == [("C0", 1), ("C1", 1)]
    assert state.tables["trend3"] == [(1, "C0", 1), (2, "C1", 1)]


def test_sliding_averages_match_a_direct_sum():
    values = [1, 2, 3, 4, 5]
    assert reference.sliding_averages(values, 3, 1) == [(2.0,), (3.0,), (4.0,)]
    assert reference.sliding_averages(values, 6, 1) == []


def test_corrupted_output_is_reported():
    w = TinyChain(seed=1)
    engine = Engine(wl.chain_spec())
    client = episode.Client(w, engine, episode.Episode(), None, first_round=1)
    for r in range(1, 11):
        client.round(r, timed=False)
    assert w.check_state(engine, 10) == []
    out = engine.store.table("out").rows
    out[4] = Tuple((out[4].values[0] + 1,))
    assert w.check_state(engine, 10) != []


def test_wrong_outcome_counts_as_failed_round(tmp_path):
    class LyingLeaderboard(TinyLeaderboard):
        def rejected(self, r):
            # claim the first accepted vote should have been rejected
            return super().rejected(r) or r == 1

    w = LyingLeaderboard(seed=3)
    ep = episode.run_episode(w, str(tmp_path), 0, None)
    assert ep.failed >= 1
    assert any("round 1: outcome committed" in p for p in ep.problems)


def test_traced_episode_reports_every_layer(tmp_path):
    tr = spans.Tracer()
    spans.install(tr)
    try:
        ep = episode.run_episode(TinyChain(seed=2), str(tmp_path), 0, tr)
    finally:
        tr.uninstall()
    assert ep.problems == []
    metrics = layers.per_layer([ep], spans.summarize(tr))
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_ratio"}
    assert metrics["executor.tes_per_round"][0] == wl.CHAIN_LENGTH
    assert metrics["recovery.log_records_per_round"][0] == wl.CHAIN_LENGTH
    assert metrics["triggers.dispatches_per_round"][0] == wl.CHAIN_LENGTH - 1
    assert metrics["snapshot.bytes"][0] > 0


def test_crash_points():
    # durable workloads crash a fixed number of rounds after the last
    # checkpoint; the log-less window restarts from a checkpoint at its end
    for w in (episode.Chain, episode.Leaderboard):
        assert w.shape.timed % w.shape.checkpoint_every > 0
    assert episode.Window.shape.timed % episode.Window.shape.checkpoint_every == 0


def test_calibration_kernel_is_deterministic_and_gc_neutral():
    import gc

    assert calibrate.kernel() == calibrate.kernel() > 0
    assert calibrate.sample() > 0
    gc.disable()
    calibrate.sample()
    assert not gc.isenabled()  # a sample leaves the collector as it found it
    gc.enable()


def test_end_to_end_scales_each_unit_by_its_factor():
    nominal = calibrate.NOMINAL_S
    # a block measured while the kernel took twice its nominal time
    assert calibrate.factor(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    fast = episode.Block(seconds=1.0, latencies=[0.002] * 100, acks=[0.004] * 100, factor=1.0)
    slow = episode.Block(seconds=2.0, latencies=[0.004] * 100, acks=[0.008] * 100, factor=0.5)
    ep = episode.Episode(
        setup_s=[episode.Timing(0.2, 0.5)],
        blocks=[fast, slow],
        checkpoints=[episode.Timing(0.006, 0.5), episode.Timing(0.003, 1.0)],
        recover_s=episode.Timing(0.1, 0.5),
    )
    e2e = episode.end_to_end([ep])
    assert e2e["rounds_per_s"] == pytest.approx(100)
    assert e2e["round_p50_ms"] == pytest.approx(2)
    assert e2e["round_p99_ms"] == pytest.approx(2)
    assert e2e["ack_p50_ms"] == pytest.approx(4)
    assert e2e["checkpoint_ms"] == pytest.approx(3)
    assert e2e["recover_s"] == pytest.approx(0.05)
    assert e2e["setup_s"] == pytest.approx(0.1)
    raw = episode.end_to_end([ep], scaled=False)
    assert raw["round_p50_ms"] == pytest.approx(3)
    assert raw["checkpoint_ms"] == pytest.approx(4.5)
