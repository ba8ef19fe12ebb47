"""Core domain vocabulary: tuples, batches, procedures, workflows, executions.

The records the execution path builds per row and per commit (``Tuple``,
``AtomicBatch``, ``TransactionExecution``) are named tuples: they build
without a frozen dataclass's per-field ``object.__setattr__`` and still
refuse assignment. The definitions (``ProcedureDef``, ``Workflow`` and the
rest) are frozen dataclasses. Nothing here changes once built, so all of
it is safe to share; all validation happens at registration time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BadDefinition,
    CycleDetected,
    DuplicateName,
    UnknownStream,
    WindowOwnedByTwoProcedures,
)

Value = int | float | str

MAX_TEXT_BYTES = 64


class Tuple(NamedTuple):
    """One stream or table row: scalar values plus ordering metadata.

    Bodies reach rows through ``select`` and ``input_tuples``; assigning to
    a field raises ``AttributeError``, which aborts the execution, so no
    change bypasses the undo buffer and the indexes."""

    values: tuple[Value, ...]
    tuple_id: int = 0
    batch_id: int = 0
    ts: int = 0


class _Batch(NamedTuple):
    batch_id: int
    tuples: tuple[Tuple, ...]


class AtomicBatch(_Batch):
    """A contiguous run of stream tuples processed as one indivisible unit.

    Building one checks that it is nonempty and that every tuple carries
    its id. ``tuple.__new__(AtomicBatch, (batch_id, tuples))`` skips the
    check, and the Python-level call of ``_make`` too; the engine builds
    the batches whose ids it has just stamped that way."""

    __slots__ = ()

    def __new__(cls, batch_id: int, tuples: tuple[Tuple, ...]):
        if not tuples:
            raise BadDefinition("atomic batch must be nonempty")
        for t in tuples:
            if t.batch_id != batch_id:
                raise BadDefinition(f"tuple batch_id {t.batch_id} != batch {batch_id}")
        return tuple.__new__(cls, (batch_id, tuples))


class ProcedureKind(enum.Enum):
    OLTP = "oltp"
    BORDER = "border"
    INTERIOR = "interior"


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """Tuple-based sliding window: fixed size, fixed slide, one owner."""

    name: str
    size: int
    slide: int
    owner: str

    def __post_init__(self):
        ints = type(self.size) is int and type(self.slide) is int  # not bool
        if not (ints and 1 <= self.slide <= self.size):
            raise BadDefinition(f"window {self.name}: need ints 1 <= slide <= size")


@dataclass(frozen=True)
class ProcedureDef:
    """A named transaction definition.

    ``body`` is a deterministic callable run once per execution; it receives
    the execution context (see executor.TEContext) and must derive all its
    behavior from (args, round, database state) only.
    """

    name: str
    kind: ProcedureKind
    stream_inputs: tuple[str, ...] = ()
    window_defs: tuple[WindowSpec, ...] = ()
    table_inputs: tuple[str, ...] = ()
    body: Optional[Callable] = None

    def __post_init__(self):
        if self.kind is ProcedureKind.OLTP:
            if self.stream_inputs or self.window_defs:
                raise BadDefinition(
                    f"{self.name}: OLTP procedures take no streams or windows"
                )
        else:
            if not self.stream_inputs:
                raise BadDefinition(
                    f"{self.name}: streaming procedures need at least one stream input"
                )
        for w in self.window_defs:
            if w.owner != self.name:
                raise BadDefinition(
                    f"window {w.name} declared on {self.name} but owned by {w.owner}"
                )

    @property
    def is_streaming(self) -> bool:
        return self.kind is not ProcedureKind.OLTP


@dataclass(frozen=True, slots=True)
class NestedGroup:
    """Two or more procedures executing as one isolation unit per round."""

    parent_name: str
    children: tuple[str, ...]
    partial_order: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(self.children) < 2:
            raise BadDefinition(f"group {self.parent_name}: needs >= 2 children")
        cset = set(self.children)
        for before, after in self.partial_order:
            if before not in cset or after not in cset:
                raise BadDefinition(
                    f"group {self.parent_name}: order pair ({before},{after}) "
                    "names a non-child"
                )
        if kahn_order(self.children, list(self.partial_order)) is None:
            raise BadDefinition(f"group {self.parent_name}: partial order is cyclic")


@dataclass(frozen=True, slots=True)
class Edge:
    """producer --stream--> consumer."""

    producer: str
    stream: str
    consumer: str


@dataclass(frozen=True)
class Workflow:
    """A validated DAG of procedures with one topological ordering fixed."""

    name: str
    procedures: tuple[ProcedureDef, ...]
    edges: tuple[Edge, ...]
    chosen_order: tuple[str, ...]
    nested_groups: tuple[NestedGroup, ...] = ()

    @property
    def procedure_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.procedures)

    def streaming_names(self) -> tuple[str, ...]:
        """Streaming procedures in the chosen execution order."""
        streaming = {p.name for p in self.procedures if p.is_streaming}
        return tuple(n for n in self.chosen_order if n in streaming)


@dataclass(frozen=True)
class ResolvedGroup:
    """A nested group as the executor runs it, resolved at registration."""

    order: tuple[str, ...]  # children in the workflow's chosen order
    roots: tuple[ProcedureDef, ...]  # children fed only from outside the group


class TransactionExecution(NamedTuple):
    """One committed instance of a procedure."""

    procedure: str
    round: int
    commit_seq: int = 0


def register_workflow(
    name: str,
    procedures: Sequence[ProcedureDef],
    edges: Sequence[Edge | tuple[str, str, str]] = (),
    nested_groups: Sequence[NestedGroup] = (),
) -> Workflow:
    """Validate a workflow declaration and fix its execution ordering.

    The chosen ordering is Kahn's algorithm with a lexicographic tie-break
    on procedure names, so registration is deterministic.
    """
    edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)

    names = [p.name for p in procedures]
    if len(set(names)) != len(names):
        raise DuplicateName(f"duplicate procedure names in {name}")
    by_name = {p.name: p for p in procedures}

    window_owner: dict[str, str] = {}
    for p in procedures:
        for w in p.window_defs:
            if w.name in window_owner:
                raise WindowOwnedByTwoProcedures(
                    f"window {w.name} owned by {window_owner[w.name]} and {p.name}"
                )
            window_owner[w.name] = p.name

    stream_producer: dict[str, str] = {}
    stream_consumer: dict[str, str] = {}
    for e in edges:
        if e.producer not in by_name:
            raise UnknownStream(f"edge producer {e.producer} not registered")
        if e.consumer not in by_name:
            raise UnknownStream(f"edge consumer {e.consumer} not registered")
        if e.stream in stream_producer:
            raise DuplicateName(f"stream {e.stream} has two producers")
        if e.stream in stream_consumer:
            raise DuplicateName(f"stream {e.stream} has two consumers")
        stream_producer[e.stream] = e.producer
        stream_consumer[e.stream] = e.consumer
        if e.stream not in by_name[e.consumer].stream_inputs:
            raise UnknownStream(
                f"edge stream {e.stream} is not an input of {e.consumer}"
            )

    for p in procedures:
        for s in p.stream_inputs:
            produced = s in stream_producer
            if p.kind is ProcedureKind.BORDER and produced:
                raise BadDefinition(
                    f"{p.name}: border input {s} is produced inside the workflow"
                )
            if p.kind is ProcedureKind.INTERIOR and not produced:
                raise UnknownStream(
                    f"{p.name}: interior input {s} has no upstream producer"
                )
            if produced and stream_consumer[s] != p.name:
                raise BadDefinition(f"stream {s} consumed by two procedures")

    order = kahn_order(names, [(e.producer, e.consumer) for e in edges])
    if order is None:
        raise CycleDetected(f"workflow {name} contains a cycle")

    groups = tuple(nested_groups)
    for g in groups:
        for c in g.children:
            if c not in by_name:
                raise BadDefinition(f"group {g.parent_name}: unknown child {c}")
            if by_name[c].kind is ProcedureKind.OLTP:
                raise BadDefinition(
                    f"group {g.parent_name}: child {c} is not streaming"
                )
        _check_group_closure(g, edges, by_name)
        _check_group_order_consistency(g, edges, order)
        _check_group_entry(g, edges, by_name, order)
    flat = [c for g in groups for c in g.children]
    if len(set(flat)) != len(flat):
        raise BadDefinition("a procedure belongs to more than one nested group")

    return Workflow(
        name=name,
        procedures=tuple(procedures),
        edges=edges,
        chosen_order=tuple(order),
        nested_groups=groups,
    )


def _check_group_closure(g: NestedGroup, edges: tuple[Edge, ...], by_name) -> None:
    # The group executes as one uninterrupted unit, so no dataflow path may
    # leave the group and re-enter it: the outside node on such a path would
    # have to run between two children.
    children = set(g.children)
    succ: dict[str, set[str]] = {}
    for e in edges:
        succ.setdefault(e.producer, set()).add(e.consumer)
    for a in children:
        stack = [m for m in succ.get(a, ()) if m not in children]
        seen = set(stack)
        while stack:
            n = stack.pop()
            for m in succ.get(n, ()):
                if m in children:
                    raise BadDefinition(
                        f"group {g.parent_name}: path {a}->{n}->{m} leaves "
                        "and re-enters the group"
                    )
                if m not in seen:
                    seen.add(m)
                    stack.append(m)


def _check_group_entry(
    g: NestedGroup, edges: tuple[Edge, ...], by_name, order: list[str]
) -> None:
    # A group instance starts when its entry procedures' inputs are ready. A
    # border child's input arrives bundled with its own invocation, so it
    # cannot synchronize with any other entry point: it must be the only one.
    roots = group_roots(g, edges, by_name, order)
    if not roots:
        raise BadDefinition(f"group {g.parent_name} has no entry procedure")
    borders = [c for c in g.children if by_name[c].kind is ProcedureKind.BORDER]
    if borders and (len(borders) > 1 or roots != borders):
        raise BadDefinition(
            f"group {g.parent_name}: a border child must be the group's "
            "only entry procedure"
        )
    # Only a stream that enters the group fires it, through its entry
    # procedures, so a child fed from inside the group cannot also wait for
    # a batch from outside it.
    internal = {e.stream for e in edges if e.producer in g.children}
    for c in g.children:
        if len({s in internal for s in by_name[c].stream_inputs}) > 1:
            raise BadDefinition(
                f"group {g.parent_name}: child {c} reads streams from both "
                "inside and outside the group"
            )


def group_roots(g: NestedGroup, edges, by_name, order) -> list[str]:
    """Children whose stream inputs all come from outside the group, in
    workflow order."""
    children = set(g.children)
    internal = {e.stream for e in edges if e.producer in children}
    return [
        c
        for c in order
        if c in children
        and not any(s in internal for s in by_name[c].stream_inputs)
    ]


def _check_group_order_consistency(
    g: NestedGroup, edges: tuple[Edge, ...], order: list[str]
) -> None:
    pos = {n: i for i, n in enumerate(order)}
    children = set(g.children)
    pairs = set(g.partial_order)
    pairs.update(
        (e.producer, e.consumer)
        for e in edges
        if e.producer in children and e.consumer in children
    )
    for before, after in pairs:
        if pos[before] > pos[after]:
            raise BadDefinition(
                f"group {g.parent_name}: order {before}<{after} conflicts with "
                "the workflow ordering"
            )


def kahn_order(
    nodes: Iterable[str], pairs: list[tuple[str, str]]
) -> Optional[list[str]]:
    """Nodes in topological order, lexicographic among ready ones; None when
    the pairs form a cycle."""
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    indeg: dict[str, int] = {n: 0 for n in nodes}
    for a, b in pairs:
        succ[a].append(b)
        indeg[b] += 1
    ready = sorted(n for n in succ if indeg[n] == 0)
    out: list[str] = []
    while ready:
        n = ready.pop(0)
        out.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    if len(out) != len(succ):
        return None
    return out


def topological_orderings(w: Workflow, limit: int) -> list[list[str]]:
    """Enumerate up to ``limit`` distinct topological orderings of the DAG.

    Deterministic: among ready nodes, candidates are tried in lexicographic
    name order, so the output list is stable across runs.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    nodes = list(w.procedure_names)
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    indeg: dict[str, int] = {n: 0 for n in nodes}
    for e in w.edges:
        succ[e.producer].append(e.consumer)
        indeg[e.consumer] += 1

    out: list[list[str]] = []
    prefix: list[str] = []

    def extend() -> bool:
        if len(prefix) == len(nodes):
            out.append(list(prefix))
            return len(out) >= limit
        for n in sorted(nodes):
            if indeg[n] == 0 and n not in prefix:
                prefix.append(n)
                for m in succ[n]:
                    indeg[m] -= 1
                if extend():
                    return True
                for m in succ[n]:
                    indeg[m] += 1
                prefix.pop()
        return False

    extend()
    return out

