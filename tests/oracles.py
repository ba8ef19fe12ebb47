"""Independent brute-force oracles.

These deliberately avoid the engine's own code paths: each one recomputes
expected results from first principles so tests compare two unrelated
implementations.
"""

from itertools import permutations


def sliding_window_events(flat, size, slide):
    """Every full window of a flat tuple sequence.

    Window j covers flat[j*slide : j*slide + size]; it exists once its last
    element has arrived. Returns the list of window contents in firing order.
    """
    out = []
    j = 0
    while j * slide + size <= len(flat):
        out.append(list(flat[j * slide : j * slide + size]))
        j += 1
    return out


def all_topological_orders(nodes, edges):
    """Permutation-filter enumeration; fine for <= 7 nodes."""
    out = []
    for perm in permutations(sorted(nodes)):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in edges):
            out.append(list(perm))
    return out


def correct_schedules_brute(procs_in_order, edges, rounds):
    """All valid bounded schedules of rounds x procs streaming executions.

    A schedule is a permutation of (proc, round) pairs such that per round
    the procs respect every DAG edge and per proc the rounds increase.
    """
    tes = [(p, r) for r in range(1, rounds + 1) for p in procs_in_order]
    out = []
    for perm in permutations(tes):
        ok = True
        for r in range(1, rounds + 1):
            seq = [p for (p, rr) in perm if rr == r]
            pos = {p: i for i, p in enumerate(seq)}
            if any(pos[a] > pos[b] for a, b in edges):
                ok = False
                break
        if ok:
            for p in procs_in_order:
                seq = [rr for (pp, rr) in perm if pp == p]
                if seq != sorted(seq):
                    ok = False
                    break
        if ok:
            out.append(list(perm))
    return out


def group_tally(rows, key_index):
    counts = {}
    for row in rows:
        k = row[key_index]
        counts[k] = counts.get(k, 0) + 1
    return counts


class LeaderboardSimulator:
    """Plain sequential simulation of the contest rules, written without the
    engine: validate each vote, keep running counts, a last-N window of valid
    votes, three boards, and drop the weakest contestant every K valid votes
    (returning their votes so those phones may vote again)."""

    def __init__(self, contestants, window, removal_period):
        self.remaining = {f"C{i}": 0 for i in range(contestants)}
        self.window_size = window
        self.removal_period = removal_period
        self.votes = {}  # phone -> contestant
        self.window_seq = []
        self.total_valid = 0
        self.top3 = []
        self.bottom3 = []
        self.trend3 = []
        self.rejected = 0

    def _rank_boards(self):
        items = sorted(self.remaining.items(), key=lambda kv: (-kv[1], kv[0]))
        self.top3 = items[:3]
        worst = sorted(self.remaining.items(), key=lambda kv: (kv[1], kv[0]))
        self.bottom3 = worst[:3]

    def _trending(self):
        active = (
            self.window_seq[-self.window_size:]
            if len(self.window_seq) >= self.window_size
            else []
        )
        tally = {}
        for c in active:
            if c in self.remaining:
                tally[c] = tally.get(c, 0) + 1
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
        self.trend3 = ranked[:3]

    def cast(self, phone, contestant):
        if contestant not in self.remaining or phone in self.votes:
            self.rejected += 1
            return False
        self.votes[phone] = contestant
        self.remaining[contestant] += 1
        self.window_seq.append(contestant)
        self.total_valid += 1
        self._rank_boards()
        self._trending()
        if self.removal_period and self.total_valid % self.removal_period == 0:
            if len(self.remaining) > 1:
                loser = min(self.remaining.items(), key=lambda kv: (kv[1], kv[0]))[0]
                self.votes = {p: c for p, c in self.votes.items() if c != loser}
                del self.remaining[loser]
                self.trend3 = [(n, c) for n, c in self.trend3 if n != loser]
            self._rank_boards()
        return True

    def state(self):
        return {
            "winner": self.top3[0][0] if self.top3 else None,
            "counts": dict(self.remaining),
            "remaining": sorted(self.remaining),
            "top3": list(self.top3),
            "bottom3": list(self.bottom3),
            "trending": list(self.trend3),
            "valid_votes": self.total_valid,
            "recorded_votes": len(self.votes),
        }


def window_insert_per_slide(state, tuples, size, slide, int_cols, carry_rows):
    """One window insert, one slide at a time, in plain Python.

    ``state`` holds a window's ``active``, ``staged``, ``full_seen``,
    ``events_emitted`` and ``sums`` (int column name -> running sum) and is
    changed in place; ``int_cols`` lists (name, position) of the int
    columns. Before the first full window tuples wait in staging, and the
    first event fires once ``size`` exist; after it every ``slide`` staged
    tuples push out the oldest active ones and fire the next event.

    Returns (events, expired): each event as (index, the active tuples or
    None without ``carry_rows``, the sums), and the tuples that left the
    active set, oldest first.
    """
    active, staged, sums = state["active"], state["staged"], state["sums"]
    staged.extend(tuples)
    events, expired = [], []
    while True:
        if not state["full_seen"]:
            if len(active) + len(staged) < size:
                break
            admitted, gone = staged[: size - len(active)], []
            state["full_seen"] = True
        else:
            if len(staged) < slide:
                break
            admitted, gone = staged[:slide], active[:slide]
            del active[:slide]
            expired.extend(gone)
        del staged[: len(admitted)]
        active.extend(admitted)
        for name, ci in int_cols:
            sums[name] += sum(t.values[ci] for t in admitted)
            sums[name] -= sum(t.values[ci] for t in gone)
        rows = tuple(active) if carry_rows else None
        events.append((state["events_emitted"], rows, dict(sums)))
        state["events_emitted"] += 1
    return events, expired
