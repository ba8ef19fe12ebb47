"""Expected outputs computed in plain Python, without any engine code path.

Each reference takes the generated inputs of one episode and returns what
the engine's tables must hold after a prefix of them, plus the rounds that
must be rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def chain_out(feed: list[int]) -> list[tuple]:
    """The recorder appends every fed value to ``out`` in round order."""
    return [(v,) for v in feed]


def sliding_averages(values: list[int], size: int, slide: int) -> list[tuple]:
    """One average per full window, in firing order: window j covers
    values[j*slide : j*slide + size]."""
    out = []
    j = 0
    while j * slide + size <= len(values):
        window = values[j * slide : j * slide + size]
        out.append((float(sum(window)) / len(window),))
        j += 1
    return out


@dataclass
class LeaderboardState:
    """Public tables of the voting application, as sorted row lists."""

    tables: dict[str, list[tuple]]
    rejected: frozenset[int] = field(default_factory=frozenset)


class LeaderboardReference:
    """Sequential simulation of the contest rules: validate each vote, keep
    running counts, the last ``window`` valid votes, three boards, and drop
    the weakest contestant every ``removal_period`` valid votes, returning
    its votes so those phones may vote again."""

    def __init__(self, contestants: int, window: int, removal_period: int):
        self.counts = {f"C{i}": 0 for i in range(contestants)}
        self.window = window
        self.removal_period = removal_period
        self.votes: dict[int, str] = {}
        self.recent: list[str] = []
        self.total = 0
        self.top3: list[tuple] = []
        self.bottom3: list[tuple] = []
        self.trend3: list[tuple] = []
        self.rejected: set[int] = set()
        self.round = 0

    def _boards(self) -> None:
        best = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.top3 = [(r, n, c) for r, (n, c) in enumerate(best[:3], 1)]
        worst = sorted(self.counts.items(), key=lambda kv: (kv[1], kv[0]))
        self.bottom3 = [(r, n, c) for r, (n, c) in enumerate(worst[:3], 1)]

    def _trending(self) -> None:
        # the window shows nothing until it first fills
        active = self.recent[-self.window :] if len(self.recent) >= self.window else []
        tally: dict[str, int] = {}
        for name in active:
            if name in self.counts:
                tally[name] = tally.get(name, 0) + 1
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
        self.trend3 = [(r, n, c) for r, (n, c) in enumerate(ranked[:3], 1)]

    def cast(self, phone: int, contestant: str) -> bool:
        self.round += 1
        if contestant not in self.counts or phone in self.votes:
            self.rejected.add(self.round)
            return False
        self.votes[phone] = contestant
        self.counts[contestant] += 1
        self.recent.append(contestant)
        self.total += 1
        self._boards()
        self._trending()
        if self.removal_period and self.total % self.removal_period == 0:
            if len(self.counts) > 1:
                loser = min(self.counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
                self.votes = {p: c for p, c in self.votes.items() if c != loser}
                del self.counts[loser]
                self.trend3 = [row for row in self.trend3 if row[1] != loser]
            self._boards()
        return True

    def state(self) -> LeaderboardState:
        return LeaderboardState(
            tables={
                "contestants": sorted(self.counts.items()),
                "votes": sorted(self.votes.items()),
                "top3": sorted(self.top3),
                "bottom3": sorted(self.bottom3),
                "trend3": sorted(self.trend3),
                "vstats": [(self.total,)],
            },
            rejected=frozenset(self.rejected),
        )


def leaderboard_states(
    trace: list[tuple[int, str]],
    contestants: int,
    window: int,
    removal_period: int,
    checkpoints: tuple[int, ...],
) -> dict[int, LeaderboardState]:
    """The reference state after each prefix length in ``checkpoints``."""
    ref = LeaderboardReference(contestants, window, removal_period)
    wanted = set(checkpoints)
    out: dict[int, LeaderboardState] = {}
    if 0 in wanted:
        out[0] = ref.state()
    for i, (phone, contestant) in enumerate(trace, 1):
        ref.cast(phone, contestant)
        if i in wanted:
            out[i] = ref.state()
    return out
