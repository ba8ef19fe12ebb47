"""Independent judge of committed-schedule correctness.

A bounded schedule is correct when, per round, its streaming executions
follow a topological ordering of the workflow DAG, each procedure's rounds
strictly increase, and nested-group children run contiguously in an order
consistent with their declared partial order. OLTP executions may appear
anywhere except inside a nested group instance.

This module is deliberately independent of the executor: it recomputes
everything from the schedule and the workflow declaration alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

from .errors import TooLarge, UnknownProcedureInSchedule
from .model import TransactionExecution, Workflow

MAX_ENUMERATION_TES = 12


@dataclass(frozen=True)
class Violation:
    kind: str  # workflow_order | stream_order | nested_interleave | nested_partial_order
    first: tuple[str, int]
    second: tuple[str, int]
    round: int


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "correct" if not self.violations else "violation"

    @property
    def correct(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [
                {
                    "kind": v.kind,
                    "first": list(v.first),
                    "second": list(v.second),
                    "round": v.round,
                }
                for v in self.violations
            ],
        }


def validate(
    s, w: Workflow, mode: str = "any_topological", strict: bool = False
) -> ValidationReport:
    """Judge a bounded schedule against one workflow.

    ``fixed_order`` additionally requires each round to follow the
    workflow's registered ordering; ``any_topological`` accepts any valid
    ordering, independently per round. Executions naming procedures outside
    this workflow are treated as foreign OLTP work: they may interleave
    anywhere except inside a nested-group instance. ``strict`` turns them
    into errors instead.
    """
    if mode not in ("fixed_order", "any_topological"):
        raise ValueError(f"unknown mode {mode}")
    entries = list(s)
    known = {p.name: p for p in w.procedures}
    streaming: list[TransactionExecution] = []
    for te in entries:
        p = known.get(te.procedure)
        if p is None:
            if strict:
                raise UnknownProcedureInSchedule(te.procedure)
            continue
        if p.is_streaming:
            streaming.append(te)

    report = ValidationReport()
    _check_round_order(streaming, w, mode, report)
    _check_stream_order(streaming, report)
    _check_nested(entries, w, report)
    return report


def _check_round_order(streaming, w: Workflow, mode: str, report) -> None:
    rounds: dict[int, list[str]] = {}
    for te in streaming:
        rounds.setdefault(te.round, []).append(te.procedure)
    edges = [(e.producer, e.consumer) for e in w.edges]
    fixed_pos = {n: i for i, n in enumerate(w.chosen_order)}
    for r, seq in sorted(rounds.items()):
        pos: dict[str, int] = {}
        for i, name in enumerate(seq):
            if name in pos:
                report.violations.append(
                    Violation("stream_order", (name, r), (name, r), r)
                )
                continue
            pos[name] = i
        for a, b in edges:
            if a in pos and b in pos and pos[a] > pos[b]:
                report.violations.append(
                    Violation("workflow_order", (a, r), (b, r), r)
                )
        if mode == "fixed_order":
            want = sorted(pos, key=fixed_pos.__getitem__)
            got = sorted(pos, key=pos.__getitem__)
            if want != got:
                bad = next(
                    (x, y) for x, y in zip(want, got) if x != y
                )
                report.violations.append(
                    Violation("workflow_order", (bad[0], r), (bad[1], r), r)
                )


def _check_stream_order(streaming, report) -> None:
    last: dict[str, int] = {}
    for te in streaming:
        prev = last.get(te.procedure)
        if prev is not None and te.round <= prev:
            report.violations.append(
                Violation(
                    "stream_order",
                    (te.procedure, prev),
                    (te.procedure, te.round),
                    te.round,
                )
            )
        last[te.procedure] = te.round


def _check_nested(entries, w: Workflow, report) -> None:
    for g in w.nested_groups:
        children = set(g.children)
        # occurrences of this group, per round
        spans: dict[int, list[int]] = {}
        for i, te in enumerate(entries):
            if te.procedure in children:
                spans.setdefault(te.round, []).append(i)
        for r, idxs in sorted(spans.items()):
            first, last = idxs[0], idxs[-1]
            inside = entries[first : last + 1]
            for te in inside:
                if te.procedure not in children:
                    report.violations.append(
                        Violation(
                            "nested_interleave",
                            (entries[first].procedure, r),
                            (te.procedure, te.round),
                            r,
                        )
                    )
            ran = [te.procedure for te in inside if te.procedure in children]
            pos = {name: i for i, name in enumerate(ran)}
            for before, after in g.partial_order:
                if before in pos and after in pos and pos[before] > pos[after]:
                    report.violations.append(
                        Violation(
                            "nested_partial_order", (before, r), (after, r), r
                        )
                    )


def enumerate_correct_schedules(
    w: Workflow, rounds: int, limit: Optional[int] = None, mode: str = "any_topological"
) -> list[list[tuple[str, int]]]:
    """Every correct bounded schedule of rounds x streaming procedures.

    Enumerates by extending valid prefixes only, emitting schedules in
    lexicographic (procedure, round) candidate order; results match a full
    permutation filter exactly.
    """
    names = w.streaming_names()
    total = rounds * len(names)
    if total > MAX_ENUMERATION_TES:
        raise TooLarge(f"{total} executions exceed the enumeration bound")
    tes = [
        TransactionExecution(p, r)
        for r in range(1, rounds + 1)
        for p in names
    ]
    out: list[list[tuple[str, int]]] = []
    prefix: list[TransactionExecution] = []
    remaining = list(tes)

    def ok(candidate: list[TransactionExecution]) -> bool:
        return validate(candidate, w, mode=mode).correct

    def extend():
        if limit is not None and len(out) >= limit:
            return
        if not remaining:
            out.append([(te.procedure, te.round) for te in prefix])
            return
        for i, te in enumerate(sorted(remaining, key=lambda t: (t.round, t.procedure))):
            prefix.append(te)
            remaining.remove(te)
            # prefix feasibility: a correct completion must keep the prefix
            # itself violation-free
            if ok(prefix):
                extend()
            remaining.append(te)
            prefix.pop()

    extend()
    out.sort()
    return out


def brute_force_correct_schedules(
    w: Workflow, rounds: int, mode: str = "any_topological"
) -> list[list[tuple[str, int]]]:
    """Reference permutation filter; exponential, test-sized inputs only."""
    names = w.streaming_names()
    total = rounds * len(names)
    if total > 9:
        raise TooLarge("permutation filter limited to 9 executions")
    tes = [TransactionExecution(p, r) for r in range(1, rounds + 1) for p in names]
    out = []
    for perm in permutations(tes):
        if validate(list(perm), w, mode=mode).correct:
            out.append([(te.procedure, te.round) for te in perm])
    out.sort()
    return out
