import json

import pytest

from streamtx.bench import (
    _int_batches,
    run_ee_trigger_bench,
    run_leaderboard,
    run_pe_trigger_bench,
    run_recovery_experiment,
    run_window_bench,
    window_event_log,
)
from streamtx.recovery import RecoveryMode
from streamtx.workloads import make_vote_trace

from oracles import LeaderboardSimulator


def test_ee_counter_identities():
    rounds = 40
    t = run_ee_trigger_bench(3, "triggered", rounds=rounds, warmup_frac=0)
    c = run_ee_trigger_bench(3, "client_driven", rounds=rounds, warmup_frac=0)
    assert t.counters["pe_dispatches"] == rounds
    assert t.counters["client_roundtrips"] == rounds
    assert t.counters["ee_statement_executions"] == 3 * rounds
    assert c.counters["pe_dispatches"] == 3 * rounds
    assert c.counters["client_roundtrips"] == 3 * rounds
    assert c.counters["ee_statement_executions"] == 0


def test_ee_k1_counter_parity():
    t = run_ee_trigger_bench(1, "triggered", rounds=20, warmup_frac=0)
    c = run_ee_trigger_bench(1, "client_driven", rounds=20, warmup_frac=0)
    assert t.counters["pe_dispatches"] == c.counters["pe_dispatches"]
    assert t.counters["client_roundtrips"] == c.counters["client_roundtrips"]


def test_ee_mode_equivalence():
    t = run_ee_trigger_bench(4, "triggered", rounds=30, warmup_frac=0)
    c = run_ee_trigger_bench(4, "client_driven", rounds=30, warmup_frac=0)
    assert t.extras["signature"] == c.extras["signature"]


def test_pe_counter_identities():
    rounds = 40
    t = run_pe_trigger_bench(5, "triggered", rounds=rounds, warmup_frac=0)
    c = run_pe_trigger_bench(5, "client_driven", rounds=rounds, warmup_frac=0)
    assert t.counters["client_roundtrips"] == rounds
    assert c.counters["client_roundtrips"] == 5 * rounds
    assert t.counters["pe_dispatches"] == 5 * rounds
    assert c.counters["pe_dispatches"] == 5 * rounds
    assert t.counters["boundary_crossings"] == 4 * rounds
    assert c.counters["boundary_crossings"] == 0
    assert t.extras["signature"] == c.extras["signature"]
    assert t.extras["schedule_valid"] and c.extras["schedule_valid"]


def test_window_modes_identical_event_logs():
    batches = _int_batches(60, 3, seed=9)
    for size, slide in [(5, 1), (8, 3), (6, 6), (10, 4)]:
        native = window_event_log(size, slide, "native", batches)
        emulated = window_event_log(size, slide, "emulated", batches)
        assert native == emulated, (size, slide)
        assert len(native) > 0


def test_leaderboard_matches_simulator():
    contestants, window, period = 4, 4, 6
    trace = make_vote_trace(contestants, 40)
    _, state = run_leaderboard(
        contestants, window, period, votes=trace, mode="triggered"
    )
    sim = LeaderboardSimulator(contestants, window, period)
    for phone, who in trace:
        sim.cast(phone, who)
    assert state == sim.state()


def test_leaderboard_duplicate_vote_rejected():
    trace = [(100, "C0"), (100, "C1"), (101, "C1")]
    rep, state = run_leaderboard(4, 4, 0, votes=trace)
    assert state["valid_votes"] == 2
    assert rep.counters["te_aborted"] == 1
    assert state["counts"]["C0"] == 1 and state["counts"]["C1"] == 1


def test_leaderboard_client_mode_equivalent():
    contestants, window, period = 4, 4, 6
    trace = make_vote_trace(contestants, 40, seed=11)
    _, t_state = run_leaderboard(contestants, window, period, votes=trace,
                                 mode="triggered")
    _, c_state = run_leaderboard(contestants, window, period, votes=trace,
                                 mode="client_driven")
    assert t_state == c_state


def test_leaderboard_unknown_contestant_rejected():
    trace = [(1, "C9"), (2, "C0")]
    rep, state = run_leaderboard(2, 4, 0, votes=trace)
    assert state["valid_votes"] == 1
    assert rep.counters["te_aborted"] == 1


@pytest.mark.parametrize(
    "mode,crash",
    [
        (RecoveryMode.STRONG, "after-round:5"),
        (RecoveryMode.STRONG, "mid-flush"),
        (RecoveryMode.STRONG, "mid-snapshot"),
        (RecoveryMode.WEAK, "after-round:5"),
        (RecoveryMode.WEAK, "mid-flush"),
        (RecoveryMode.WEAK, "mid-snapshot"),
    ],
)
def test_recovery_experiment_matrix(tmp_path, mode, crash):
    rep = run_recovery_experiment(3, mode, crash, str(tmp_path), rounds=10,
                                  group_commit_max_batch=3)
    if mode is RecoveryMode.STRONG:
        assert rep.extras["bit_exact"] is True
    else:
        assert rep.extras["schedule_valid"] is True
        assert rep.extras["public_state_matches_golden"] is True


def test_recovery_log_ratio_in_experiment(tmp_path):
    strong = run_recovery_experiment(
        4, RecoveryMode.STRONG, "after-round:8", str(tmp_path / "s"), rounds=10
    )
    weak = run_recovery_experiment(
        4, RecoveryMode.WEAK, "after-round:8", str(tmp_path / "w"), rounds=10
    )
    assert strong.extras["log_records"] == 4 * weak.extras["log_records"]


def test_bench_parameter_bounds():
    from streamtx.errors import ConfigError
    from streamtx.workloads import ee_chain_spec, pe_chain_spec

    with pytest.raises(ConfigError):
        ee_chain_spec(0, "triggered")
    with pytest.raises(ConfigError):
        ee_chain_spec(21, "triggered")
    with pytest.raises(ConfigError):
        pe_chain_spec(11, "triggered")


def test_pe_n1_counter_parity():
    t = run_pe_trigger_bench(1, "triggered", rounds=20, warmup_frac=0)
    c = run_pe_trigger_bench(1, "client_driven", rounds=20, warmup_frac=0)
    assert t.counters["client_roundtrips"] == c.counters["client_roundtrips"]
    assert t.counters["pe_dispatches"] == c.counters["pe_dispatches"]


def test_window_size_dominates_slide_effect():
    # growing the window changes emulated throughput far more than growing
    # the slide, which only changes how often the two slide queries run.
    # Each repeat times the two runs it compares back to back, so a slow
    # spell on a shared machine hits both; the median drops the outliers.
    import gc
    import statistics

    def tput(size, slide):
        return run_window_bench(size, slide, "emulated", rounds=200).workflows_per_sec

    def effect(small, big):
        return abs(small - big) / max(small, big)

    sizes, slides = [], []
    gc.disable()
    try:
        for _ in range(7):
            sizes.append(effect(tput(20, 10), tput(200, 10)))
            slides.append(effect(tput(60, 2), tput(60, 20)))
    finally:
        gc.enable()
    size_effect = statistics.median(sizes)
    slide_effect = statistics.median(slides)
    assert size_effect > slide_effect


def test_report_serialization():
    rep = run_pe_trigger_bench(2, "triggered", rounds=10, warmup_frac=0)
    decoded = json.loads(rep.to_json())
    assert decoded["name"] == "pe_trigger"
    assert "p50" in decoded["latency_ms"]
    assert rep.to_csv_row().startswith("pe_trigger,triggered,")


# --- command line ---


def test_cli_validate(tmp_path):
    from streamtx.cli import main

    workflow = tmp_path / "wf.cfg"
    workflow.write_text(
        """
[stream s1]
columns = value:int

[stream s12]
columns = value:int

[procedure sp1]
kind = border
streams = s1
body = builtin:passthrough

[procedure sp2]
kind = interior
streams = s12
body = builtin:noop

[edge 1]
producer = sp1
stream = s12
consumer = sp2
"""
    )
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            [
                {"procedure": "sp1", "round": 1},
                {"procedure": "sp2", "round": 1},
            ]
        )
    )
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            [
                {"procedure": "sp2", "round": 1},
                {"procedure": "sp1", "round": 1},
            ]
        )
    )
    assert main(["validate", "--schedule", str(good), "--workflow", str(workflow)]) == 0
    assert main(["validate", "--schedule", str(bad), "--workflow", str(workflow)]) == 1


def test_cli_bench_ee(tmp_path, capsys):
    from streamtx.cli import main

    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[engine]\nrounds = 20\n\n[params]\nstages = 2\n")
    rc = main(["bench", "ee", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    reports = json.loads(out)
    assert {r["mode"] for r in reports} == {"triggered", "client_driven"}


def test_cli_bench_csv(tmp_path):
    from streamtx.bench import MetricsReport
    from streamtx.cli import main

    cfg = tmp_path / "bench.cfg"
    cfg.write_text("[engine]\nrounds = 20\n\n[params]\nstages = 2\n")
    path = tmp_path / "out.csv"
    args = ["--config", str(cfg), "--out", "csv", "--out-file", str(path)]
    assert main(["bench", "ee", *args]) == 0
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    assert header == MetricsReport.csv_header() and len(rows) == 2
    assert set(names) <= set(MetricsReport("n", "m", 1, 1.0, 1.0, 1.0, {}).as_dict())
    modes = set()
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(names)
        name, mode, rounds, *rates = fields
        assert name == "ee_trigger" and int(rounds) > 0
        assert all(float(v) > 0 for v in rates)
        modes.add(mode)
    assert modes == {"triggered", "client_driven"}


def test_cli_recover(tmp_path, capsys):
    from streamtx.cli import main
    from streamtx.engine import Engine
    from streamtx.ingest import BatchingPolicy, FeedSource, ingest
    from streamtx.recovery import RecoveryMode
    from streamtx.workloads import build_spec_from_config
    from streamtx import config as cfgmod

    wf = tmp_path / "wf.cfg"
    wf.write_text(
        """
[engine]
recovery = strong

[stream s1]
columns = value:int

[table out]
columns = value:int

[procedure head]
kind = border
streams = s1
tables = out
body = builtin:record
"""
    )
    spec = build_spec_from_config(cfgmod.load_file(str(wf)))
    data = tmp_path / "state"
    e = Engine(spec, data_dir=str(data), recovery_mode=RecoveryMode.STRONG,
               fsync=False)
    ingest(e, FeedSource.from_values([1, 2]), BatchingPolicy("fixed_count", 1), "s1")
    e.run_until_idle()
    e.partition.log.flush()
    e.crash()
    rc = main(
        ["recover", "--log", str(data / "command.log"), "--workflow", str(wf)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["commit_seq"] == 2
    assert summary["tables"]["out"] == 2


def test_cli_run_csv(tmp_path, capsys):
    from streamtx.cli import main

    feed = tmp_path / "feed.csv"
    feed.write_text("value\n5\n15\n25\n")
    cfg = tmp_path / "wl.cfg"
    cfg.write_text(
        """
[stream s1]
columns = value:int

[stream s2]
columns = value:int

[procedure head]
kind = border
streams = s1
body = builtin:filter
output = s2

[feed]
stream = s1
source = csv:%s

[params]
threshold = 10
"""
        % feed
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["batches"] == 3
    assert summary["te_committed"] == 3


def test_cli_run_batches_as_feed_config(tmp_path, capsys):
    from streamtx.cli import main

    feed = tmp_path / "feed.csv"
    feed.write_text("value,ts\n5,1\n15,1\n25,2\n35,3\n")
    cfg = tmp_path / "wl.cfg"
    cfg.write_text(
        """
[stream s1]
columns = value:int

[procedure head]
kind = border
streams = s1
body = builtin:noop

[feed]
stream = s1
batch_mode = same_timestamp
source = csv:%s
"""
        % feed
    )
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["batches"] == 3  # ts 1, 1, 2, 3
    assert summary["committed"] == 3


def test_cli_run_bad_feed_leaves_data_dir_unused(tmp_path, capsys):
    from streamtx.cli import main

    feed = tmp_path / "feed.csv"
    cfg = tmp_path / "wl.cfg"
    cfg.write_text(
        """
[engine]
recovery = strong

[stream s1]
columns = value:int

[procedure head]
kind = border
streams = s1
body = builtin:noop

[feed]
stream = s1
source = csv:%s
"""
        % feed
    )
    data = tmp_path / "data"
    bad_feeds = {
        "wrong\n5\n": "feed missing column value",
        "value\n5\nabc\n": "feed line 3: value = 'abc' is not int",
        "value,ts\n5,1\n7\n": "feed line 3: ts = None is not int",  # a short row
    }
    for text, reason in bad_feeds.items():
        feed.write_text(text)
        for _ in range(2):  # the second run finds the directory as the first left it
            assert main(["run", "--config", str(cfg), "--data-dir", str(data)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"streamtx run: SchemaMismatch: {reason}\n"
            assert not (data / "command.log").exists()


@pytest.mark.parametrize("recovery", ["strong", "weak"])
def test_cli_run_recovers_a_used_data_dir(tmp_path, capsys, recovery):
    # the second run's engine recovers the first run's rounds, which its
    # border already took, so feeding them again is an engine error
    from streamtx.cli import main

    feed = tmp_path / "feed.csv"
    feed.write_text("value\n5\n15\n")
    cfg = tmp_path / "wl.cfg"
    cfg.write_text(
        f"""
[engine]
recovery = {recovery}

[stream s1]
columns = value:int

[table out]
columns = value:int

[procedure head]
kind = border
streams = s1
tables = out
body = builtin:record

[feed]
stream = s1
source = csv:{feed}
"""
    )
    run = ["run", "--config", str(cfg), "--data-dir", str(tmp_path / "data")]
    assert main(run) == 0
    assert json.loads(capsys.readouterr().out)["committed"] == 2
    assert main(run) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "streamtx run: BadDefinition: head already took round 1\n"
