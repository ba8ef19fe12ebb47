"""Host-speed calibration: a fixed pure-Python kernel timed next to every
measured unit of work, so that wall times can be scaled to one nominal
host speed.

The shared 2-core host the benchmark was tuned on changes speed by up to
1.7x for seconds at a time, sometimes for a whole run, and the change shows
in process CPU time as well as in wall time, so neither a longer run nor a
within-run percentile removes it. The kernel below does the same kind of
interpreter work as the engine (tuples, dict and list updates, sorts with
key functions, comprehensions) and never touches engine code, so an engine
change does not move it while a host slow-down does. Each unit of work (a
block of rounds, a checkpoint, a recovery, a set-up) is timed between two
kernel samples, and its wall time is multiplied by ``NOMINAL_S`` divided by
the mean of those two samples: the result is the time the work would take
on a host where the kernel takes ``NOMINAL_S``. Time spent waiting for the
disk is scaled the same way, which corrects it only as far as the disk
slows down with the processor. Raw times are kept next to the scaled ones
in the full result file.
"""

from __future__ import annotations

import gc
import time

# kernel time the scaled figures refer to: about its time on the quiet host
NOMINAL_S = 0.0015
VOTES = 64


def kernel(votes: int = VOTES) -> int:
    """A small vote contest on fixed inputs, in the style of the leaderboard
    workload but frozen here: validate each vote, keep counts, a recent
    window and three sorted boards, and drop the weakest contestant now and
    then. Returns a checksum."""
    counts = {f"C{i}": 0 for i in range(25)}
    voted: dict[int, str] = {}
    recent: list[str] = []
    boards: list[list[tuple]] = []
    x = 12345
    for i in range(votes):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        phone = x % (votes * 4)
        name = f"C{(x >> 8) % 25}"
        if name not in counts or phone in voted:
            continue
        voted[phone] = name
        counts[name] += 1
        recent.append(name)
        best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        worst = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        tally: dict[str, int] = {}
        for n in recent[-100:]:
            if n in counts:
                tally[n] = tally.get(n, 0) + 1
        trend = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
        boards = [[(r, n, c) for r, (n, c) in enumerate(b[:3], 1)] for b in (best, worst, trend)]
        if len(voted) % 20 == 0 and len(counts) > 1:
            loser = min(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
            voted = {p: c for p, c in voted.items() if c != loser}
            del counts[loser]
    return len(voted) + sum(r[2] for b in boards for r in b) + len(counts)


_EXPECTED = kernel()


def sample() -> float:
    """Seconds one kernel run takes now. The cyclic garbage collector is
    off meanwhile and a short untimed run goes first, so the time depends
    as little as it can on how many objects the engine holds and what it
    left in the caches."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel(VOTES // 10)  # warm the caches the engine's work left cold
        t = time.perf_counter()
        checksum = kernel()
        seconds = time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()
    if checksum != _EXPECTED:
        raise AssertionError("calibration kernel returned a wrong checksum")
    return seconds


def factor(before: float, after: float) -> float:
    """What scales a wall time measured between the kernel samples
    ``before`` and ``after`` to the nominal host speed."""
    return NOMINAL_S / ((before + after) / 2)
