"""streamtx benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

``--workload`` is ``chain``, ``window``, ``leaderboard`` or ``all`` (each
workload in a fresh child process). The run repeats fixed-size episodes
(see ``episode.py``) for ``--seconds`` and reports medians over them, with
every time scaled to a nominal host speed (see ``calibrate.py``). With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it spends
the first half untraced and the second half traced, and prints the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the run environment, goes to
``.perfbench_out/`` in the working directory; engine data files live in
``.perfbench_data/`` for the length of one episode.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (for example, no engine sources next to it).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench_out"
DATA_DIR = ".perfbench_data"

END_TO_END = (
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed and stored, but not in the result line: on leaderboard its spread
# over ten runs exceeded the largest bound a listed metric may have
UNGATED = (("round_p99_ms", "ms"),)


def _import_engine():
    """Put the checkout's engine sources first on the path and import them;
    refuse any other copy of the engine."""
    if not (SRC / "streamtx" / "__init__.py").is_file():
        raise CannotRun(f"no engine sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import streamtx

    if Path(streamtx.__file__).resolve().parent != SRC / "streamtx":
        raise CannotRun(f"imported streamtx from {streamtx.__file__}, not {SRC}")


class CannotRun(Exception):
    """The benchmark cannot run here."""


def environment(args, data_root: str) -> dict:
    import episode

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fsync": episode.FSYNC,
        "group_commit_max_batch": episode.GROUP_COMMIT,
        "data_dir": data_root,
        "data_dir_fs": filesystem_type(data_root),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "streamtx").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def run_workload(args) -> int:
    import calibrate
    import episode
    import layers
    import spans

    data_root = os.path.abspath(DATA_DIR)
    os.makedirs(data_root, exist_ok=True)
    env = environment(args, data_root)
    w = episode.WORKLOADS[args.workload](args.seed)

    untraced: list = []
    traced: list = []
    tracer = None
    start = time.perf_counter()
    split = args.seconds / 2 if args.trace else args.seconds
    index = 0
    while not untraced or time.perf_counter() - start < split:
        untraced.append(episode.run_episode(w, data_root, index, None))
        index += 1
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                traced.append(episode.run_episode(w, data_root, index, tracer))
                index += 1
        finally:
            tracer.uninstall()
    _remove_if_empty(data_root)

    episodes = untraced + traced
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    problems = [p for e in episodes for p in e.problems]
    correct = not problems and failed == 0

    e2e = end_to_end(untraced)
    if args.trace:
        metrics = layers.per_layer(traced, spans.summarize(tracer))
        metrics["trace.overhead_ratio"] = (
            episode.end_to_end(traced)["rounds_per_s"] / e2e["rounds_per_s"][0],
            "ratio",
        )
    else:
        metrics = {name: e2e[name] for name, _ in END_TO_END}

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env,
        "episodes": len(episodes),
        "untraced_episodes": len(untraced),
        "traced_episodes": len(traced),
        "shape": dataclasses.asdict(w.shape),
        "samples": {
            "blocks": sum(len(e.blocks) for e in untraced),
            "round_latency": sum(len(b.latencies) for e in untraced for b in e.blocks),
            "ack_latency": sum(len(b.acks) for e in untraced for b in e.blocks),
            "checkpoints": sum(len(e.checkpoints) for e in untraced),
            "recoveries": len(untraced),
        },
        "per_episode": [
            dict(episode.end_to_end([e]), traced=i >= len(untraced))
            for i, e in enumerate(episodes)
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_unscaled": episode.end_to_end(untraced, scaled=False),
        "calibration": {"nominal_s": calibrate.NOMINAL_S, "votes": calibrate.VOTES},
        # raw rounds/s, p50 and ack p50 (ms) and the scale factor of every
        # untraced block, in run order
        "blocks": [
            [len(b.latencies) / b.seconds, episode.percentile(b.latencies, 50) * 1000,
             episode.percentile(b.acks, 50) * 1000 if b.acks else None, b.factor]
            for e in untraced for b in e.blocks
        ],
        "failed_ratio": failed / attempted,
        "problems": problems[:50],
        "metrics": reported,
    }
    if tracer is not None:
        result["spans"] = tracer.write(OUT_DIR, f"spans-{args.workload}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print("env " + json.dumps(env, sort_keys=True))
    s = result["samples"]
    print(
        f"{args.workload}: {len(episodes)} episodes ({len(traced)} traced), "
        f"{s['round_latency']} timed rounds, {s['checkpoints']} checkpoints, "
        f"{s['recoveries']} recoveries"
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        for name, unit in UNGATED:
            print(f"{args.workload} {name} = {e2e[name][0]:.6g} {unit} (not gated)")
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ({failed}/{attempted} rounds)")
    for p in problems[:10]:
        print(f"{args.workload} FAILED CHECK: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


def end_to_end(episodes: list) -> dict[str, tuple[float, str]]:
    import episode

    values = episode.end_to_end(episodes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: (values[name], unit) for name, unit in END_TO_END + UNGATED}


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def run_all(args) -> int:
    """Each workload in a fresh process; prints their outputs in turn."""
    import episode

    status, results = 0, {}
    for name in episode.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines.pop()) if lines and lines[-1].startswith("{") else None
        print("\n".join(lines))
        status = max(status, proc.returncode)
        results[name] = last
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["chain", "window", "leaderboard", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_engine()
    except CannotRun as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:  # report and fail the run instead of printing a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
