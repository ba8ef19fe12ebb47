"""One episode of a workload: set up an engine, feed warm-up and timed
rounds in a closed loop from one client thread, checkpoint, crash, recover,
resume, and check every output against the benchmark's own reference.

The client pushes one round's tuples through a ``StreamIngestor`` and pumps
the partition with ``run_until_idle``, so the next round starts only after
every execution of this one has committed or rolled back. A round's latency
runs from the push of its last tuple to the end of that pump. Its ack
latency runs from the same push until the client, regaining control after a
pump, a checkpoint or the final ``await_ticket``, sees the ticket
acknowledged; the calibration samples taken between blocks do not count.

Every unit of timed work (a block of rounds, a checkpoint, a recovery, a
set-up) is bracketed by two calibration samples and its times are scaled to
the nominal host speed (see ``calibrate.py``); raw times are kept as well.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from streamtx import BatchingPolicy, Engine, RecoveryMode, StreamIngestor, recover, validate
from streamtx.engine import LOG_FILE
from streamtx.recovery import truncate_log

import calibrate
import reference
import workloads as wl
from spans import CHECKPOINT, OTHER, RECOVERY, ROUND, SETUP, WARMUP, Tracer, body_wrapper

GROUP_COMMIT = 8
# The command log writes and flushes each group commit but does not fsync
# it. The data directory must sit inside the checkout, on a shared virtual
# disk whose fsync latency drifts with other guests' I/O; a synced log made
# the strong chain figures follow that disk. The input-cache appends and
# the checkpoint files still fsync: the engine has no switch for them.
FSYNC = False
EXTRA_SETUPS = 5  # set-up is short, so each episode samples it more often


@dataclass
class Block:
    """Consecutive timed rounds: their wall time without checkpoints, the
    round latencies and the ack latencies observed during them, all raw,
    and the factor that scales them to the nominal host speed."""

    seconds: float
    latencies: list[float]
    acks: list[float]
    factor: float = 1.0


@dataclass
class Timing:
    """One timed unit of work other than rounds: raw wall seconds and the
    factor that scales them to the nominal host speed."""

    raw: float
    factor: float

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


def timed(fn):
    """Run ``fn`` between two calibration samples; returns its result and
    its ``Timing``."""
    before = calibrate.sample()
    t = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t
    return result, Timing(raw, calibrate.factor(before, calibrate.sample()))


@dataclass
class Episode:
    setup_s: list[Timing] = field(default_factory=list)
    timed_rounds: int = 0
    blocks: list[Block] = field(default_factory=list)
    checkpoints: list[Timing] = field(default_factory=list)
    recover_s: Optional[Timing] = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # engine counters over the timed rounds
    tes: int = 0
    aborts: int = 0
    log_records: int = 0
    statements: int = 0
    replay_client_dispatches: int = 0
    replay_trigger_dispatches: int = 0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered))) - 1))
    return ordered[idx]


def end_to_end(episodes: list[Episode], scaled: bool = True) -> dict[str, float]:
    """The run's end-to-end values, memory aside: medians of per-unit
    values, each unit scaled to the nominal host speed unless ``scaled`` is
    false. Throughput and the latency medians are taken per block of rounds,
    the p99 per episode, checkpoints, recoveries and set-ups one by one."""
    blocks = [b for e in episodes for b in e.blocks]
    med = statistics.median

    def f(b: Block) -> float:
        return b.factor if scaled else 1.0

    def t(x: Timing) -> float:
        return x.scaled if scaled else x.raw

    return {
        "rounds_per_s": med(len(b.latencies) / (b.seconds * f(b)) for b in blocks),
        "round_p50_ms": med(percentile(b.latencies, 50) * f(b) for b in blocks) * 1000,
        "round_p99_ms": med(
            percentile([x * f(b) for b in e.blocks for x in b.latencies], 99) for e in episodes
        ) * 1000,
        "ack_p50_ms": med(percentile(b.acks, 50) * f(b) for b in blocks if b.acks) * 1000,
        "checkpoint_ms": med(t(c) for e in episodes for c in e.checkpoints) * 1000,
        "recover_s": med(t(e.recover_s) for e in episodes),
        "setup_s": med(t(x) for e in episodes for x in e.setup_s),
    }


class Workload:
    """What differs between workloads: inputs, spec, durability and the
    reference each output is checked against."""

    name = ""
    stream = ""
    batch = 1
    mode: Optional[RecoveryMode] = None
    shape: wl.Shape

    def spec(self, wrap):
        raise NotImplementedError

    def rows(self, r: int) -> list[tuple]:
        """Value tuples of round ``r`` (1-based)."""
        raise NotImplementedError

    def rejected(self, r: int) -> bool:
        return False

    def check_state(self, engine: Engine, rounds: int) -> list[str]:
        """Problems with the engine's outputs after ``rounds`` rounds."""
        raise NotImplementedError

    def restart(self, engine: Engine, data_dir: str) -> None:
        """Prepare the data directory so ``recover`` can restart from it."""


class Chain(Workload):
    name = "chain"
    stream = "s1"
    batch = 1
    mode = RecoveryMode.STRONG
    shape = wl.Shape(warmup=200, timed=2500, checkpoint_every=375, resume=100, block=125)

    def __init__(self, seed: int):
        self.feed = wl.int_feed(seed, self.shape.total)
        self.out = reference.chain_out(self.feed)

    def spec(self, wrap):
        return wl.chain_spec(wrap)

    def rows(self, r):
        return [(self.feed[r - 1],)]

    def check_state(self, engine, rounds):
        got = [t.values for t in engine.store.table("out").rows]
        if got != self.out[:rounds]:
            return [f"out holds {len(got)} rows, not the {rounds} fed values"]
        return []


class Window(Workload):
    name = "window"
    stream = "s1"
    batch = wl.WINDOW_BATCH
    mode = None  # no command log; checkpoints are snapshot-only
    shape = wl.Shape(warmup=300, timed=2000, checkpoint_every=250, resume=50, block=125)

    def __init__(self, seed: int):
        self.feed = wl.int_feed(seed, self.shape.total * self.batch)

    def spec(self, wrap):
        return wl.window_spec(wrap)

    def rows(self, r):
        b = self.batch
        return [(v,) for v in self.feed[(r - 1) * b : r * b]]

    def check_state(self, engine, rounds):
        want = reference.sliding_averages(
            self.feed[: rounds * self.batch], wl.WINDOW_SIZE, wl.WINDOW_SLIDE
        )
        got = [t.values for t in engine.store.stream("wout").rows]
        if got != want:
            return [f"wout differs from the sliding averages ({len(got)} rows, {len(want)} expected)"]
        return []

    def restart(self, engine, data_dir):
        # without a command log, restarting means restoring the last
        # checkpoint under an empty log
        truncate_log(os.path.join(data_dir, LOG_FILE), RecoveryMode.STRONG, 0)


class Leaderboard(Workload):
    name = "leaderboard"
    stream = "votes_in"
    batch = 1
    mode = RecoveryMode.WEAK
    shape = wl.Shape(warmup=200, timed=2500, checkpoint_every=375, resume=100, block=125)

    def __init__(self, seed: int):
        s = self.shape
        self.trace = wl.vote_trace(seed, s.total)
        self.removal_period = wl.removal_period_for(s.total)
        self.states = reference.leaderboard_states(
            self.trace,
            wl.CONTESTANTS,
            wl.TRENDING_SIZE,
            self.removal_period,
            (s.fed_before_crash, s.total),
        )
        self.reject_set = self.states[s.total].rejected

    def spec(self, wrap):
        return wl.leaderboard_spec(self.removal_period, wrap)

    def rows(self, r):
        return [self.trace[r - 1]]

    def rejected(self, r):
        return r in self.reject_set

    def check_state(self, engine, rounds):
        want = self.states[rounds].tables
        problems = []
        for table, rows in want.items():
            got = sorted(t.values for t in engine.store.table(table).rows)
            if got != rows:
                problems.append(f"{table} differs from the reference after {rounds} votes")
        return problems


WORKLOADS = {w.name: w for w in (Chain, Window, Leaderboard)}


def public_tables(engine: Engine) -> dict:
    sig = engine.store.content_signature()
    return {k: v for k, v in sig.items() if v[0] == "public"}


class Client:
    """Feeds rounds into one engine and accounts for every round."""

    def __init__(self, w: Workload, engine: Engine, ep: Episode, tracer: Optional[Tracer], first_round: int):
        self.w = w
        self.engine = engine
        self.ep = ep
        self.tracer = tracer
        self.ing = StreamIngestor(engine, w.stream, BatchingPolicy("fixed_count", w.batch))
        self.ing.next_batch_id = first_round
        self.ing.next_tuple_id = (first_round - 1) * w.batch + 1
        # (round, ticket, push time, whether the round is timed)
        self.unacked: list[tuple[int, object, float, bool]] = []
        # timed samples since the last block ended
        self.latencies: list[float] = []
        self.acks: list[float] = []

    def end_block(self, seconds: float, factor: float) -> None:
        self.ep.blocks.append(Block(seconds, self.latencies, self.acks, factor))
        self.latencies, self.acks = [], []

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the client spent on calibration out of the ack
        latency of rounds still waiting for their ack."""
        self.unacked = [(r, ticket, t + seconds, timed) for r, ticket, t, timed in self.unacked]

    def round(self, r: int, timed: bool) -> None:
        ep, tracer = self.ep, self.tracer
        ep.attempted += 1
        if tracer is not None:
            tracer.current_round = r
            tracer.current_phase = ROUND if timed else (WARMUP if r <= self.w.shape.warmup else OTHER)
        rows = self.w.rows(r)
        try:
            for values in rows[:-1]:
                self.ing.push(values)
            t_push = time.perf_counter()
            ticket = self.ing.push(rows[-1])
            self.engine.run_until_idle()
            t_done = time.perf_counter()
        except Exception as e:  # any raise fails the round; the checks catch the rest
            ep.failed += 1
            ep.problems.append(f"round {r} raised {type(e).__name__}: {e}")
            return
        if timed:
            self.latencies.append(t_done - t_push)
        want = "aborted" if self.w.rejected(r) else "committed"
        if ticket is None or ticket.outcome != want:
            ep.failed += 1
            got = None if ticket is None else ticket.outcome
            ep.problems.append(f"round {r}: outcome {got}, reference says {want}")
            return
        self.unacked.append((r, ticket, t_push, timed))
        self.collect_acks(t_done)
        if tracer is not None and timed:
            store = self.engine.store
            tracer.gauge_max(
                "storage.stream_rows_max",
                sum(len(store.stream(s.name).rows) for s in self.engine.spec.streams),
            )
            retained = self.engine.partition.input_cache.retained
            tracer.gauge_max("recovery.cache_retained_max", sum(map(len, retained.values())))

    def collect_acks(self, now: float) -> None:
        """Record the ack latency of every timed round acknowledged by now."""
        still = []
        for item in self.unacked:
            if item[1].acknowledged:
                if item[3]:
                    self.acks.append(now - item[2])
            else:
                still.append(item)
        self.unacked = still

    def finish(self) -> None:
        """Force the buffered acks out; a round never acknowledged fails."""
        for _, ticket, _, _ in self.unacked:
            self.engine.await_ticket(ticket)
        self.collect_acks(time.perf_counter())
        for r, _, _, _ in self.unacked:
            self.ep.failed += 1
            self.ep.problems.append(f"round {r} was never acknowledged")
        self.unacked = []


def set_up(w: Workload, data_dir: str, wrap) -> tuple[Engine, Timing]:
    """Build the spec, construct the engine, open its files and load its
    seed rows; returns the engine and the time that took."""
    os.makedirs(data_dir)
    return timed(
        lambda: Engine(
            w.spec(wrap),
            data_dir=data_dir,
            recovery_mode=w.mode,
            group_commit_max_batch=GROUP_COMMIT,
            fsync=FSYNC,
        )
    )


def run_episode(w: Workload, data_root: str, index: int, tracer: Optional[Tracer]) -> Episode:
    ep = Episode()
    s = w.shape
    data_dir = os.path.join(data_root, f"{w.name}-{os.getpid()}-{index}")
    shutil.rmtree(data_dir, ignore_errors=True)
    wrap = body_wrapper(tracer)

    def phase(p: int) -> None:
        if tracer is not None:
            tracer.current_phase = p
            tracer.current_round = 0

    gc.collect()
    phase(SETUP)
    for k in range(EXTRA_SETUPS):
        scratch = f"{data_dir}-setup{k}"
        engine, timing = set_up(w, scratch, wrap)
        ep.setup_s.append(timing)
        engine.close()
        shutil.rmtree(scratch)
    engine, timing = set_up(w, data_dir, wrap)
    ep.setup_s.append(timing)
    client = Client(w, engine, ep, tracer, first_round=1)

    try:
        for r in range(1, s.warmup + 1):
            client.round(r, timed=False)
        counters0 = engine.counters.as_dict()
        t = time.perf_counter()
        before = calibrate.sample()
        for first in range(1, s.timed + 1, s.block):
            client.exclude(time.perf_counter() - t)
            t_block = time.perf_counter()
            for k in range(first, first + s.block):
                client.round(s.warmup + k, timed=True)
            t = time.perf_counter()
            after = calibrate.sample()
            client.end_block(t - t_block, calibrate.factor(before, after))
            before = after
            if (first + s.block - 1) % s.checkpoint_every == 0:
                phase(CHECKPOINT)
                client.exclude(time.perf_counter() - t)
                t_check = time.perf_counter()
                engine.checkpoint()
                t = time.perf_counter()
                after = calibrate.sample()
                ep.checkpoints.append(Timing(t - t_check, calibrate.factor(before, after)))
                before = after
                client.collect_acks(t)
                phase(OTHER)
        ep.timed_rounds = s.timed
        counters1 = engine.counters.as_dict()
        phase(OTHER)
        client.finish()
        ep.blocks[-1].acks.extend(client.acks)
        ep.tes = counters1["pe_dispatches"] - counters0["pe_dispatches"]
        ep.aborts = counters1["te_aborted"] - counters0["te_aborted"]
        ep.log_records = counters1["log_records"] - counters0["log_records"]
        ep.statements = counters1["ee_statement_executions"] - counters0["ee_statement_executions"]
        want = sum(w.rejected(r) for r in range(s.warmup + 1, s.fed_before_crash + 1))
        if ep.aborts != want:
            ep.problems.append(f"engine counted {ep.aborts} aborts, reference {want}")
        _check_run(w, engine, ep, s.fed_before_crash)

        # crash after the last acknowledged round, then recover
        before = engine.snapshot_bytes()
        before_public = public_tables(engine)
        w.restart(engine, data_dir)
        engine.crash()
        spec = w.spec(wrap)
        gc.collect()
        phase(RECOVERY)

        def restart() -> Engine:
            recovered = recover(spec, data_dir, group_commit_max_batch=GROUP_COMMIT, fsync=FSYNC)
            recovered.run_until_idle()
            return recovered

        engine, ep.recover_s = timed(restart)
        phase(OTHER)
        ep.replay_client_dispatches = engine.counters.replay_client_dispatches
        ep.replay_trigger_dispatches = engine.counters.replay_trigger_dispatches
        if w.mode is RecoveryMode.WEAK:
            if public_tables(engine) != before_public:
                ep.problems.append("weak recovery: public tables differ from before the crash")
        elif engine.snapshot_bytes() != before:
            ep.problems.append("recovery is not bit-exact to the pre-crash snapshot")
        ep.problems += w.check_state(engine, s.fed_before_crash)

        # resume feeding the recovered engine
        client = Client(w, engine, ep, tracer, first_round=s.fed_before_crash + 1)
        for r in range(s.fed_before_crash + 1, s.total + 1):
            client.round(r, timed=False)
        client.finish()
        _check_run(w, engine, ep, s.total)
    finally:
        phase(OTHER)
        engine.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return ep


def _check_run(w: Workload, engine: Engine, ep: Episode, rounds: int) -> None:
    ep.problems += w.check_state(engine, rounds)
    report = validate(engine.committed_schedule, engine.spec.workflows[0])
    if not report.correct:
        ep.problems.append(f"validate() rejects the committed schedule: {report.violations[:3]}")
