"""Command line entry points.

    streamtx bench <ee|pe|window|leaderboard|recovery|scaling> --config F
    streamtx validate --schedule F --workflow F
    streamtx recover --log P --workflow F
    streamtx run --config F [--data-dir D] [--rate R]

``recover`` reads snapshots and the input cache from the log's directory.
``run`` feeds the CSV named by the config's ``[feed] source`` into its
stream, batched by ``batch_mode`` and ``batch_size``; a ``ts`` column, when
the file has one, gives each tuple's timestamp; a used ``--data-dir`` is recovered.
Exit code 0 means every embedded assertion held; an engine error
(``StreamTxError``) prints one line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from . import config as cfgmod
from .bench import (
    MetricsReport,
    run_ee_trigger_bench,
    run_leaderboard,
    run_partition_scaling,
    run_pe_trigger_bench,
    run_recovery_experiment,
    run_window_bench,
)
from .engine import Engine, recover
from .errors import StreamTxError, UnknownTable
from .ingest import BatchingPolicy, FeedSource, StreamIngestor
from .model import TransactionExecution
from .recovery import RecoveryMode
from .storage import make_schema
from .validator import validate
from .workloads import build_spec_from_config, make_vote_trace


def _emit(reports: list[MetricsReport], out: str, path) -> None:
    if out == "csv":
        lines = [MetricsReport.csv_header()]
        lines += [r.to_csv_row() for r in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_bench(args) -> int:
    cfg = cfgmod.load_file(args.config) if args.config else cfgmod.WorkloadConfig()
    p = cfg.params
    rounds = cfg.rounds
    ok = True
    reports: list[MetricsReport] = []
    if args.suite == "ee":
        stages = int(p.get("stages", 3))
        t = run_ee_trigger_bench(stages, "triggered", rounds)
        c = run_ee_trigger_bench(stages, "client_driven", rounds)
        reports = [t, c]
        ok = (
            t.counters["pe_dispatches"] == rounds
            and c.counters["pe_dispatches"] == stages * rounds
            and t.extras["signature"] == c.extras["signature"]
        )
    elif args.suite == "pe":
        n = int(p.get("chain", 5))
        t = run_pe_trigger_bench(n, "triggered", rounds)
        c = run_pe_trigger_bench(n, "client_driven", rounds)
        reports = [t, c]
        ok = (
            t.counters["client_roundtrips"] == rounds
            and c.counters["client_roundtrips"] == n * rounds
            and t.extras["signature"] == c.extras["signature"]
            and t.extras["schedule_valid"]
        )
    elif args.suite == "window":
        size = int(p.get("size", 100))
        slide = int(p.get("slide", 10))
        t = run_window_bench(size, slide, "native", rounds)
        c = run_window_bench(size, slide, "emulated", rounds)
        reports = [t, c]
        ok = t.extras["event_checksum"] == c.extras["event_checksum"]
    elif args.suite == "leaderboard":
        contestants = int(p.get("contestants", 25))
        trace = make_vote_trace(contestants, rounds)
        rep, state = run_leaderboard(
            contestants,
            int(p.get("trending_size", 100)),
            int(p.get("removal_period", 1000)),
            votes=trace,
        )
        rep.extras["winner"] = state["winner"]
        reports = [rep]
        ok = rep.extras["schedule_valid"]
    elif args.suite == "recovery":
        n = int(p.get("chain", 4))
        mode = RecoveryMode[cfg.recovery.upper()] if cfg.recovery != "none" else RecoveryMode.STRONG
        crash = args.crash_point or f"after-round:{max(1, rounds // 2)}"
        with tempfile.TemporaryDirectory() as d:
            rep = run_recovery_experiment(
                n, mode, crash, d, rounds, cfg.group_commit_max_batch
            )
        reports = [rep]
        key = "bit_exact" if mode is RecoveryMode.STRONG else "public_state_matches_golden"
        ok = bool(rep.extras.get(key))
    elif args.suite == "scaling":
        results = []
        for pn in (1, 2, 4):
            results.append(run_partition_scaling(pn, rounds))
        reports = results
        base = dict(results[0].extras["totals"])
        ok = all(dict(r.extras["totals"]) == base for r in results[1:])
    else:
        print(f"unknown bench suite {args.suite}", file=sys.stderr)
        return 2
    _emit(reports, args.out, args.out_file)
    return 0 if ok else 1


def cmd_validate(args) -> int:
    cfg = cfgmod.load_file(args.workflow)
    spec = build_spec_from_config(cfg)
    with open(args.schedule) as fh:
        raw = json.load(fh)
    schedule = [
        TransactionExecution(r["procedure"], r["round"], r.get("commit_seq", i + 1))
        for i, r in enumerate(raw)
    ]
    report = validate(schedule, spec.workflows[0], mode=args.mode)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0 if report.correct else 1


def cmd_recover(args) -> int:
    data_dir = os.path.dirname(os.path.abspath(args.log))
    cfg = cfgmod.load_file(args.workflow)
    spec = build_spec_from_config(cfg)
    engine = recover(spec, data_dir)
    engine.run_until_idle()
    summary = {
        "commit_seq": engine.partition.commit_seq,
        "replay_client_dispatches": engine.counters.replay_client_dispatches,
        "replay_trigger_dispatches": engine.counters.replay_trigger_dispatches,
        "tables": {
            name: len(getattr(t, "rows", []))
            for name, t in sorted(engine.store.tables.items())
        },
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    engine.close()
    return 0


def cmd_run(args) -> int:
    cfg = cfgmod.load_file(args.config)
    spec = build_spec_from_config(cfg)
    stream = cfg.feed.stream
    scheme, _, arg = cfg.feed.source.partition(":")
    if scheme != "csv":
        print("run needs a csv feed source", file=sys.stderr)
        return 2
    # the whole feed loads before the engine creates anything in data_dir,
    # so a bad feed leaves the directory as it was
    columns = {s.name: s.columns for s in spec.streams}
    if stream not in columns:
        raise UnknownTable(f"feed stream {stream} is not a stream")
    feed = FeedSource.from_csv(arg, make_schema(*columns[stream]))
    recovery = None if cfg.recovery == "none" else RecoveryMode[cfg.recovery.upper()]
    engine = Engine(
        spec,
        data_dir=args.data_dir,
        recovery_mode=recovery if args.data_dir else None,
        group_commit_max_batch=cfg.group_commit_max_batch,
        group_commit_max_delay=cfg.group_commit_max_delay_ms / 1000.0,
    )
    policy = BatchingPolicy(cfg.feed.batch_mode, cfg.feed.batch_size)
    ing = StreamIngestor(engine, stream, policy)
    delay = 1.0 / args.rate if args.rate else 0.0
    tickets = []
    try:  # an engine error, such as a round the border already took, closes it too
        for values, ts in feed.rows:
            tickets.append(ing.push(values, ts))
            engine.run_until_idle()
            if delay:
                time.sleep(delay)
        tickets.append(ing.end_of_stream())
        engine.run_until_idle()
    finally:
        engine.close()
    tickets = [t for t in tickets if t is not None]
    committed = sum(1 for t in tickets if t.committed)
    print(
        json.dumps(
            {
                "batches": len(tickets),
                "committed": committed,
                "aborted": len(tickets) - committed,
                "te_committed": engine.counters.te_committed,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="streamtx",
        description="transactional stream processing engine harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite", choices=["ee", "pe", "window", "leaderboard", "recovery", "scaling"])
    b.add_argument("--config", help="workload config file")
    b.add_argument("--out", choices=["json", "csv"], default="json")
    b.add_argument("--out-file", help="write the report here instead of stdout")
    b.add_argument("--crash-point", help="recovery suite: after-round:<k> | mid-flush | mid-snapshot")
    b.set_defaults(fn=cmd_bench)

    v = sub.add_parser("validate", help="judge a committed schedule")
    v.add_argument("--schedule", required=True, help="JSON list of {procedure, round}")
    v.add_argument("--workflow", required=True, help="workload config file")
    v.add_argument("--mode", choices=["fixed_order", "any_topological"],
                   default="any_topological")
    v.set_defaults(fn=cmd_validate)

    r = sub.add_parser("recover", help="recover an engine from its files")
    r.add_argument("--log", required=True)
    r.add_argument("--workflow", required=True, help="workload config file")
    r.set_defaults(fn=cmd_recover)

    x = sub.add_parser("run", help="feed a csv file through a workload")
    x.add_argument("--config", required=True)
    x.add_argument("--data-dir")
    x.add_argument("--rate", type=float, help="tuples/sec (default: max speed)")
    x.set_defaults(fn=cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StreamTxError as e:
        print(f"streamtx {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
