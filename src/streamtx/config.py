"""Workload configuration: a sectioned key-value text format.

Sections describe the engine, tables, streams, windows, procedures, edges,
statement-trigger programs, nested groups, and the feed. Parsing and
serialization round-trip: parse(serialize(parse(text))) is a fixpoint.

Example::

    [engine]
    mode = triggered
    recovery = strong

    [stream s1]
    columns = value:int

    [stream s2]
    columns = value:int

    [procedure sp1]
    kind = border
    streams = s1
    body = builtin:noop

    [trigger s1]
    program = filtered_copy(s2, value > 10)

    [feed]
    stream = s1
    batch_mode = same_timestamp
    source = csv:feed.csv

A section rejects a key it does not know, so a misspelled setting fails to
load instead of falling back to its default; ``[params]`` takes any key.
A section that declares something by name, such as ``[stream s1]``, needs
the name.

A border input is any stream a procedure reads that no edge produces. The
``[feed]`` section sets how ``streamtx run`` cuts its source into batches:
``batch_mode = fixed_count`` with ``batch_size``, or ``same_timestamp``.

Procedure bodies are named references into the workload registry (see
workloads.py); the config format itself carries no code.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .storage import Pred
from .triggers import (
    AggregateInsert,
    FilteredCopy,
    Statement,
    WindowInsertStmt,
)

_PRED_RE = re.compile(r"^\s*(\w+)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*$")


def parse_pred(text: str) -> Pred:
    m = _PRED_RE.match(text)
    if not m:
        raise ConfigError(f"bad predicate {text!r}")
    column, op, raw = m.groups()
    return Pred(column, op, parse_scalar(raw))


def format_pred(p: Pred) -> str:
    return f"{p.column} {p.op} {format_scalar(p.value)}"


def parse_scalar(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    raise ConfigError(f"unquoted non-numeric value {raw!r}")


def format_scalar(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    return repr(v)


def parse_columns(raw: str) -> tuple[tuple[str, str], ...]:
    cols = []
    for part in filter(None, (p.strip() for p in raw.split(","))):
        if ":" not in part:
            raise ConfigError(f"column {part!r} needs name:type")
        name, typ = part.split(":", 1)
        if typ not in ("int", "float", "text"):
            raise ConfigError(f"unknown column type {typ!r}")
        cols.append((name.strip(), typ.strip()))
    return tuple(cols)


def format_columns(cols) -> str:
    return ", ".join(f"{n}:{t}" for n, t in cols)


def _csv(raw: str) -> tuple[str, ...]:
    return tuple(filter(None, (p.strip() for p in raw.split(","))))


_STMT_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def parse_statement(source: str, text: str) -> Statement:
    m = _STMT_RE.match(text)
    if not m:
        raise ConfigError(f"bad statement {text!r}")
    op, inner = m.group(1), m.group(2).strip()
    if op == "filtered_copy":
        if "," in inner:
            dst, pred = inner.split(",", 1)
            return FilteredCopy(source, dst.strip(), parse_pred(pred))
        return FilteredCopy(source, inner)
    if op == "window_insert":
        return WindowInsertStmt(source, inner)
    if op == "aggregate_insert":
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) < 2:
            raise ConfigError("aggregate_insert(dst, op[, column[, group_by]])")
        dst, agg = parts[0], parts[1]
        column = parts[2] if len(parts) > 2 else None
        group_by = parts[3] if len(parts) > 3 else None
        return AggregateInsert(source, dst, agg, column, group_by)
    raise ConfigError(f"unknown statement {op!r}")


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, FilteredCopy):
        if stmt.pred is None:
            return f"filtered_copy({stmt.dst})"
        return f"filtered_copy({stmt.dst}, {format_pred(stmt.pred)})"
    if isinstance(stmt, WindowInsertStmt):
        return f"window_insert({stmt.window})"
    if isinstance(stmt, AggregateInsert):
        parts = [stmt.dst, stmt.op]
        if stmt.column is not None:
            parts.append(stmt.column)
            if stmt.group_by is not None:
                parts.append(stmt.group_by)
        return f"aggregate_insert({', '.join(parts)})"
    raise ConfigError(f"unknown statement object {stmt!r}")


@dataclass
class ProcedureConfig:
    name: str
    kind: str  # oltp | border | interior
    streams: tuple[str, ...] = ()
    tables: tuple[str, ...] = ()
    windows: tuple[str, ...] = ()
    body: str = "builtin:noop"
    output: str = ""  # sink stream for bodies with no consumer edge


@dataclass
class WindowConfig:
    name: str
    columns: tuple[tuple[str, str], ...]
    size: int
    slide: int
    owner: str


@dataclass
class GroupConfig:
    name: str
    children: tuple[str, ...]
    order: tuple[tuple[str, str], ...] = ()


@dataclass
class FeedConfig:
    stream: str = ""
    batch_mode: str = "fixed_count"  # or same_timestamp
    batch_size: int = 1
    source: str = "builtin:none"  # builtin:<name> or csv:<path>


@dataclass
class WorkloadConfig:
    """Parsed, schema-checked workload declaration."""

    engine_mode: str = "triggered"  # triggered | client_driven
    recovery: str = "none"  # none | strong | weak
    partition_key: Optional[str] = None
    group_commit_max_batch: int = 1
    group_commit_max_delay_ms: float = 5.0
    rounds: int = 100
    workflow_name: str = "workflow"
    tables: dict[str, tuple] = field(default_factory=dict)  # name -> (columns, indexes)
    streams: dict[str, tuple] = field(default_factory=dict)  # name -> columns
    windows: dict[str, WindowConfig] = field(default_factory=dict)
    procedures: list[ProcedureConfig] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    triggers: dict[str, tuple[Statement, ...]] = field(default_factory=dict)
    groups: list[GroupConfig] = field(default_factory=list)
    feed: FeedConfig = field(default_factory=FeedConfig)
    params: dict[str, float] = field(default_factory=dict)

    def validate_refs(self) -> None:
        known = set(self.streams) | set(self.tables) | set(self.windows)
        for p in self.procedures:
            for s in p.streams:
                if s not in self.streams:
                    raise ConfigError(f"{p.name}: unknown stream {s}")
            for t in p.tables:
                if t not in self.tables:
                    raise ConfigError(f"{p.name}: unknown table {t}")
            for w in p.windows:
                if w not in self.windows:
                    raise ConfigError(f"{p.name}: unknown window {w}")
        for producer, stream, consumer in self.edges:
            if stream not in self.streams:
                raise ConfigError(f"edge stream {stream} undeclared")
        for source in self.triggers:
            if source not in known:
                raise ConfigError(f"trigger source {source} undeclared")
        if self.engine_mode not in ("triggered", "client_driven"):
            raise ConfigError(f"bad engine mode {self.engine_mode}")
        if self.recovery not in ("none", "strong", "weak"):
            raise ConfigError(f"bad recovery mode {self.recovery}")


# each section's keys; [params] is free-form and takes any key
_KEYS = {
    "engine": {
        "mode",
        "recovery",
        "partition_key",
        "group_commit_max_batch",
        "group_commit_max_delay_ms",
        "rounds",
    },
    "workflow": {"name"},
    "table": {"columns", "indexes"},
    "stream": {"columns"},
    "window": {"columns", "size", "slide", "owner"},
    "procedure": {"kind", "streams", "tables", "windows", "body", "output"},
    "edge": {"producer", "stream", "consumer"},
    "trigger": {"program"},
    "group": {"children", "order"},
    "feed": {"stream", "batch_mode", "batch_size", "source"},
}


def load(text: str) -> WorkloadConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep key case
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    cfg = WorkloadConfig()
    for section in cp.sections():
        body = dict(cp.items(section))
        head, _, arg = section.partition(" ")
        named = ("table", "stream", "window", "procedure", "trigger", "group")
        if head in named and not arg.strip():
            raise ConfigError(f"[{section}]: a {head} section needs a name")
        known = _KEYS.get(head)
        for key in body:
            if known is not None and key not in known:
                raise ConfigError(f"[{section}]: unknown key {key!r}")
        try:
            if head == "engine":
                cfg.engine_mode = body.get("mode", cfg.engine_mode)
                cfg.recovery = body.get("recovery", cfg.recovery)
                cfg.partition_key = body.get("partition_key") or None
                cfg.group_commit_max_batch = int(
                    body.get("group_commit_max_batch", cfg.group_commit_max_batch)
                )
                cfg.group_commit_max_delay_ms = float(
                    body.get("group_commit_max_delay_ms", cfg.group_commit_max_delay_ms)
                )
                cfg.rounds = int(body.get("rounds", cfg.rounds))
            elif head == "workflow":
                cfg.workflow_name = body.get("name", arg or cfg.workflow_name)
            elif head == "table":
                cfg.tables[arg] = (
                    parse_columns(body["columns"]),
                    _csv(body.get("indexes", "")),
                )
            elif head == "stream":
                cfg.streams[arg] = parse_columns(body["columns"])
            elif head == "window":
                cfg.windows[arg] = WindowConfig(
                    arg,
                    parse_columns(body["columns"]),
                    int(body["size"]),
                    int(body["slide"]),
                    body["owner"],
                )
            elif head == "procedure":
                cfg.procedures.append(
                    ProcedureConfig(
                        arg,
                        body["kind"],
                        _csv(body.get("streams", "")),
                        _csv(body.get("tables", "")),
                        _csv(body.get("windows", "")),
                        body.get("body", "builtin:noop"),
                        body.get("output", ""),
                    )
                )
            elif head == "edge":
                cfg.edges.append((body["producer"], body["stream"], body["consumer"]))
            elif head == "trigger":
                stmts = tuple(
                    parse_statement(arg, s.strip())
                    for s in body["program"].split(";")
                    if s.strip()
                )
                cfg.triggers[arg] = stmts
            elif head == "group":
                order = []
                for pair in _csv(body.get("order", "")):
                    if "<" not in pair:
                        raise ConfigError(f"group order pair {pair!r} needs a<b")
                    a, b = pair.split("<", 1)
                    order.append((a.strip(), b.strip()))
                cfg.groups.append(GroupConfig(arg, _csv(body["children"]), tuple(order)))
            elif head == "feed":
                cfg.feed = FeedConfig(
                    stream=body.get("stream", ""),
                    batch_mode=body.get("batch_mode", "fixed_count"),
                    batch_size=int(body.get("batch_size", 1)),
                    source=body.get("source", "builtin:none"),
                )
            elif head == "params":
                cfg.params = {k: float(v) for k, v in body.items()}
            else:
                raise ConfigError(f"unknown section [{section}]")
        except KeyError as e:  # a required key is missing
            raise ConfigError(f"[{section}]: missing key {e.args[0]!r}") from None
        except ValueError as e:  # a number that does not parse
            raise ConfigError(f"[{section}]: {e}") from None
    cfg.validate_refs()
    return cfg


def load_file(path: str) -> WorkloadConfig:
    with open(path) as fh:
        return load(fh.read())


def dump(cfg: WorkloadConfig) -> str:
    """Serialize canonically (sorted names) so load/dump reach a fixpoint."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    section(
        "engine",
        [
            ("mode", cfg.engine_mode),
            ("recovery", cfg.recovery),
            ("partition_key", cfg.partition_key or ""),
            ("group_commit_max_batch", cfg.group_commit_max_batch),
            ("group_commit_max_delay_ms", cfg.group_commit_max_delay_ms),
            ("rounds", cfg.rounds),
        ],
    )
    section("workflow", [("name", cfg.workflow_name)])
    for name in sorted(cfg.tables):
        cols, indexes = cfg.tables[name]
        pairs = [("columns", format_columns(cols))]
        if indexes:
            pairs.append(("indexes", ", ".join(indexes)))
        section(f"table {name}", pairs)
    for name in sorted(cfg.streams):
        section(f"stream {name}", [("columns", format_columns(cfg.streams[name]))])
    for name in sorted(cfg.windows):
        w = cfg.windows[name]
        section(
            f"window {name}",
            [
                ("columns", format_columns(w.columns)),
                ("size", w.size),
                ("slide", w.slide),
                ("owner", w.owner),
            ],
        )
    for p in cfg.procedures:
        pairs = [("kind", p.kind)]
        if p.streams:
            pairs.append(("streams", ", ".join(p.streams)))
        if p.tables:
            pairs.append(("tables", ", ".join(p.tables)))
        if p.windows:
            pairs.append(("windows", ", ".join(p.windows)))
        pairs.append(("body", p.body))
        if p.output:
            pairs.append(("output", p.output))
        section(f"procedure {p.name}", pairs)
    for i, (producer, stream, consumer) in enumerate(cfg.edges, 1):
        section(
            f"edge {i}",
            [("producer", producer), ("stream", stream), ("consumer", consumer)],
        )
    for source in sorted(cfg.triggers):
        program = "; ".join(format_statement(s) for s in cfg.triggers[source])
        section(f"trigger {source}", [("program", program)])
    for g in cfg.groups:
        pairs = [("children", ", ".join(g.children))]
        if g.order:
            pairs.append(("order", ", ".join(f"{a}<{b}" for a, b in g.order)))
        section(f"group {g.name}", pairs)
    if cfg.feed.stream:
        section(
            "feed",
            [
                ("stream", cfg.feed.stream),
                ("batch_mode", cfg.feed.batch_mode),
                ("batch_size", cfg.feed.batch_size),
                ("source", cfg.feed.source),
            ],
        )
    if cfg.params:
        section("params", sorted(cfg.params.items()))
    return out.getvalue()
