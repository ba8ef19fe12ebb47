"""Acceptance criteria, one test per criterion, each printing a PASS line.

Exact structural and counting checks run at full strength; performance
checks are directional (ratio > 1.0) because absolute throughput is
hardware-specific.
"""

import gc
import os
import statistics
import time

import pytest

from streamtx.bench import (
    run_ee_trigger_bench,
    run_leaderboard,
    run_partition_scaling,
    run_pe_trigger_bench,
    run_recovery_experiment,
    run_window_bench,
)
from streamtx.engine import Engine, EngineSpec, StreamDef
from streamtx.ingest import BatchingPolicy, FeedSource, ingest
from streamtx.model import (
    ProcedureDef,
    ProcedureKind,
    Tuple,
    WindowSpec,
    register_workflow,
)
from streamtx.recovery import RecoveryMode
from streamtx.storage import Store, UndoBuffer, make_schema
from streamtx.validator import enumerate_correct_schedules, validate
from streamtx.workloads import make_vote_trace

from oracles import LeaderboardSimulator, sliding_window_events
from randomized import random_run

VAL = make_schema(("value", "int"))


def _announce(num, ok, detail=""):
    print(f"\n[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_two_procedure_two_round_schedules():
    t0 = time.time()
    w = register_workflow(
        "pair",
        [
            ProcedureDef("SP1", ProcedureKind.BORDER, ("s1",)),
            ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",)),
        ],
        [("SP1", "s12", "SP2")],
    )
    got = enumerate_correct_schedules(w, rounds=2)
    want = sorted(
        [
            [("SP1", 1), ("SP2", 1), ("SP1", 2), ("SP2", 2)],
            [("SP1", 1), ("SP1", 2), ("SP2", 1), ("SP2", 2)],
        ]
    )
    exact = got == want

    # the live engine always lands on one of the two
    def passthrough(ctx):
        ctx.emit("s12", ctx.input_tuples("s1"))

    live_ok = True
    for batching in (1, 1):
        spec = EngineSpec(
            workflows=[
                register_workflow(
                    "pair_live",
                    [
                        ProcedureDef(
                            "SP1", ProcedureKind.BORDER, ("s1",), body=passthrough
                        ),
                        ProcedureDef("SP2", ProcedureKind.INTERIOR, ("s12",)),
                    ],
                    [("SP1", "s12", "SP2")],
                )
            ],
            streams=[StreamDef("s1", (("value", "int"),)), StreamDef("s12", (("value", "int"),))],
        )
        e = Engine(spec)
        ingest(e, FeedSource.from_values([1, 2]), BatchingPolicy("fixed_count", 1), "s1")
        e.run_until_idle()
        sched = [(te.procedure, te.round) for te in e.committed_schedule]
        live_ok = live_ok and sched in want
    elapsed = time.time() - t0
    _announce(1, exact and live_ok and elapsed < 1.0,
              f"(2 schedules exactly, live run included, {elapsed:.2f}s)")


def test_criterion_2_master_property_1000_randomized_runs():
    t0 = time.time()
    nested_violations = 0
    failures = []
    for seed in range(1000):
        engine, w, opened = random_run(seed)
        report = validate(engine.committed_schedule, w)
        if not report.correct:
            failures.append(seed)
        nested_violations += sum(
            1 for v in report.violations if v.kind == "nested_interleave"
        )
        # every run executes something, and no execution opens inside another
        assert opened.most == 1
    elapsed = time.time() - t0
    _announce(
        2,
        not failures and nested_violations == 0 and elapsed < 120,
        f"(1000 runs validator-accepted, 0 nested interleaves, {elapsed:.1f}s)",
    )


def _compositions(n):
    if n == 0:
        yield []
        return
    for mask in range(1 << (n - 1)):
        out, start = [], 0
        for i in range(n - 1):
            if mask & (1 << i):
                out.append((start, i + 1))
                start = i + 1
        out.append((start, n))
        yield out


def test_criterion_3_window_oracle_exhaustive():
    import random as _random

    t0 = time.time()
    cases = 0
    mismatches = 0
    tuples_cache = [Tuple((v,)) for v in range(64)]

    def run_case(size, slide, pieces, flat):
        nonlocal cases, mismatches
        store = Store()
        store.create_window(WindowSpec("w", size, slide, "sp"), VAL)
        undo = UndoBuffer()
        events = []
        for a, b in pieces:
            events += store.window_insert("w", tuples_cache[a:b], undo)
        got = [[t.values[0] for t in e.tuples] for e in events]
        if got != sliding_window_events(flat, size, slide):
            mismatches += 1
        if store.window("w").full_seen:
            assert len(store.window("w").staged) < slide
        cases += 1

    rng = _random.Random(99)
    for size in range(1, 9):
        for slide in range(1, size + 1):
            # every batch partitioning of inputs up to 12 tuples
            for n in range(0, 13):
                flat = list(range(n))
                for pieces in _compositions(n):
                    run_case(size, slide, pieces, flat)
            # longer inputs (64 tuples): single-tuple and random batchings
            flat = list(range(64))
            run_case(size, slide, [(i, i + 1) for i in range(64)], flat)
            for _ in range(4):
                cuts = sorted(rng.sample(range(1, 64), rng.randint(1, 12)))
                pieces = list(zip([0] + cuts, cuts + [64]))
                run_case(size, slide, pieces, flat)
    elapsed = time.time() - t0
    _announce(
        3,
        mismatches == 0 and elapsed < 60,
        f"({cases} cases, 100% oracle-equal, {elapsed:.1f}s)",
    )


def _crash_sweep():
    points = []
    for n in (2, 3, 4):
        for r in range(1, 11):
            points.append((n, f"after-round:{r}", 1))
        points.append((n, "mid-flush", 1))
        points.append((n, "mid-flush", 4))
        points.append((n, "mid-snapshot", 1))
        points.append((n, "mid-snapshot", 4))
    for n in (2, 4):
        for r in (2, 4, 6, 8, 10):
            points.append((n, f"after-round:{r}", 3))
    return points  # 52 crash points


def test_criterion_4_exactly_once_strong_recovery(tmp_path):
    t0 = time.time()
    points = _crash_sweep()
    assert len(points) >= 50
    bad = []
    for i, (n, crash, batch) in enumerate(points):
        d = tmp_path / f"s{i}"
        rep = run_recovery_experiment(
            n, RecoveryMode.STRONG, crash, str(d), rounds=10,
            group_commit_max_batch=batch,
        )
        if not rep.extras["bit_exact"]:
            bad.append((n, crash, batch))
    elapsed = time.time() - t0
    _announce(
        4,
        not bad and elapsed < 120,
        f"({len(points)} crash points bit-exact, {elapsed:.1f}s)",
    )


def test_criterion_5_weak_recovery_correctness(tmp_path):
    t0 = time.time()
    points = _crash_sweep()
    bad = []
    for i, (n, crash, batch) in enumerate(points):
        d = tmp_path / f"w{i}"
        rep = run_recovery_experiment(
            n, RecoveryMode.WEAK, crash, str(d), rounds=10,
            group_commit_max_batch=batch,
        )
        if not (
            rep.extras["schedule_valid"]
            and rep.extras["public_state_matches_golden"]
        ):
            bad.append((n, crash, batch))
    # log-record ratio is exactly 1:n for an OLTP-free n-procedure chain
    ratios_ok = True
    for n in (2, 3, 4):
        strong = run_recovery_experiment(
            n, RecoveryMode.STRONG, "after-round:10", str(tmp_path / f"rs{n}"),
            rounds=10,
        )
        weak = run_recovery_experiment(
            n, RecoveryMode.WEAK, "after-round:10", str(tmp_path / f"rw{n}"),
            rounds=10,
        )
        ratios_ok = ratios_ok and (
            strong.extras["log_records"] == n * weak.extras["log_records"]
        )
    elapsed = time.time() - t0
    _announce(
        5,
        not bad and ratios_ok and elapsed < 120,
        f"({len(points)} crash points correct, weak:strong = 1:n exactly, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_6_dispatch_accounting_exact():
    rounds = 50
    ee_t = run_ee_trigger_bench(10, "triggered", rounds=rounds, warmup_frac=0)
    ee_c = run_ee_trigger_bench(10, "client_driven", rounds=rounds, warmup_frac=0)
    pe_t = run_pe_trigger_bench(5, "triggered", rounds=rounds, warmup_frac=0)
    pe_c = run_pe_trigger_bench(5, "client_driven", rounds=rounds, warmup_frac=0)
    checks = [
        ee_t.counters["pe_dispatches"] == 1 * rounds,
        ee_c.counters["pe_dispatches"] == 10 * rounds,
        pe_t.counters["client_roundtrips"] == 1 * rounds,
        pe_c.counters["client_roundtrips"] == 5 * rounds,
        ee_t.counters["ee_statement_executions"] == 10 * rounds,
        pe_t.counters["boundary_crossings"] == 4 * rounds,
        pe_c.counters["boundary_crossings"] == 0,
        ee_t.extras["signature"] == ee_c.extras["signature"],
        pe_t.extras["signature"] == pe_c.extras["signature"],
    ]
    _announce(6, all(checks),
              "(EE 1 vs 10 dispatches/batch; PE 1 vs 5 round-trips/workflow)")


def _median_ratio(run, fast: str, slow: str, reps: int = 5) -> float:
    """Median throughput of mode ``fast`` over that of ``slow``. Each repeat
    runs the two modes back to back, alternating which goes first, so a
    drift in machine speed lands on both sides instead of in the ratio."""
    rates = {fast: [], slow: []}
    for i in range(reps):
        for mode in (fast, slow) if i % 2 == 0 else (slow, fast):
            rates[mode].append(run(mode).workflows_per_sec)
    return statistics.median(rates[fast]) / statistics.median(rates[slow])


def test_criterion_7_directional_performance():
    t0 = time.time()
    gc.disable()
    try:
        details = []
        ok = True
        for k in (3, 10):
            r = _median_ratio(
                lambda m: run_ee_trigger_bench(k, m, rounds=600),
                "triggered", "client_driven",
            )
            details.append(f"EE k={k}: {r:.2f}x")
            ok = ok and r > 1.0
        for n in (2, 5):
            r = _median_ratio(
                lambda m: run_pe_trigger_bench(n, m, rounds=800),
                "triggered", "client_driven",
            )
            details.append(f"PE n={n}: {r:.2f}x")
            ok = ok and r > 1.0
        r = _median_ratio(
            lambda m: run_window_bench(100, 10, m, rounds=250), "native", "emulated"
        )
        details.append(f"window size=100: {r:.2f}x")
        ok = ok and r >= 1.0
    finally:
        gc.enable()
    elapsed = time.time() - t0
    _announce(7, ok and elapsed < 300, f"({'; '.join(details)}, {elapsed:.0f}s)")


def test_criterion_8_leaderboard_oracle():
    t0 = time.time()
    contestants, window, period = 4, 4, 6
    trace = make_vote_trace(contestants, 40)
    rep, state = run_leaderboard(
        contestants, window, period, votes=trace, mode="triggered"
    )
    sim = LeaderboardSimulator(contestants, window, period)
    for phone, who in trace:
        sim.cast(phone, who)
    oracle_state = sim.state()
    duplicates_rejected = (
        sim.rejected > 0 and rep.counters["te_aborted"] == sim.rejected
    )
    elapsed = time.time() - t0
    _announce(
        8,
        state == oracle_state and duplicates_rejected
        and rep.extras["schedule_valid"] and elapsed < 10,
        f"(winner {state['winner']}, counts+3 boards match, "
        f"{sim.rejected} duplicates rejected, {elapsed:.1f}s)",
    )


def test_criterion_9_partitioned_equivalence_and_scaling():
    t0 = time.time()
    gc.disable()
    try:
        reports = {p: run_partition_scaling(p, rounds=3000, batch_size=20)
                   for p in (1, 2, 4)}
    finally:
        gc.enable()
    base = dict(reports[1].extras["totals"])
    union_ok = all(
        dict(reports[p].extras["totals"]) == base for p in (2, 4)
    )
    cores = os.cpu_count() or 1
    tp = {p: reports[p].workflows_per_sec for p in (1, 2, 4)}
    scaling_ok = True
    prev = 0.0
    for p in (1, 2, 4):
        if p <= cores and tp[p] < prev:
            scaling_ok = False
        if p <= cores:
            prev = tp[p]
    elapsed = time.time() - t0
    detail = ", ".join(f"p{p}={tp[p]:.0f}wf/s" for p in (1, 2, 4))
    _announce(
        9,
        union_ok and scaling_ok and elapsed < 120,
        f"(union==p1 oracle; {detail}; cores={cores}; {elapsed:.0f}s)",
    )
