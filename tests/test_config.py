import re

import pytest

from streamtx import config as cfgmod
from streamtx.errors import ConfigError
from streamtx.storage import Pred
from streamtx.triggers import AggregateInsert, FilteredCopy, WindowInsertStmt

LEADERBOARD_CONFIG = """
[engine]
mode = triggered
recovery = weak
rounds = 40
group_commit_max_batch = 4

[workflow]
name = leaderboard

[table votes]
columns = phone:int, contestant:text
indexes = phone

[table contestants]
columns = name:text, votes:int

[stream votes_in]
columns = phone:int, contestant:text

[stream s12]
columns = phone:int, contestant:text

[window trending]
columns = contestant:text
size = 4
slide = 1
owner = maintain

[procedure validate]
kind = border
streams = votes_in
tables = votes, contestants
body = builtin:vote_validate

[procedure maintain]
kind = interior
streams = s12
windows = trending
body = builtin:noop

[edge 1]
producer = validate
stream = s12
consumer = maintain

[group per_vote]
children = validate, maintain
order = validate<maintain

[feed]
stream = votes_in
batch_mode = fixed_count
batch_size = 1
source = builtin:votes

[params]
removal_period = 6
"""


def test_load_leaderboard_config():
    cfg = cfgmod.load(LEADERBOARD_CONFIG)
    assert cfg.engine_mode == "triggered"
    assert cfg.recovery == "weak"
    assert cfg.rounds == 40
    assert cfg.tables["votes"][1] == ("phone",)
    assert cfg.windows["trending"].size == 4
    assert [p.name for p in cfg.procedures] == ["validate", "maintain"]
    assert cfg.edges == [("validate", "s12", "maintain")]
    assert cfg.groups[0].children == ("validate", "maintain")
    assert cfg.params["removal_period"] == 6


def test_roundtrip_fixpoint():
    cfg = cfgmod.load(LEADERBOARD_CONFIG)
    once = cfgmod.dump(cfg)
    twice = cfgmod.dump(cfgmod.load(once))
    assert once == twice


def test_statement_parsing():
    assert cfgmod.parse_statement("s1", "filtered_copy(s2, value > 10)") == FilteredCopy(
        "s1", "s2", Pred("value", ">", 10)
    )
    assert cfgmod.parse_statement("s1", "filtered_copy(s2)") == FilteredCopy("s1", "s2")
    assert cfgmod.parse_statement("s1", "window_insert(w)") == WindowInsertStmt(
        "s1", "w"
    )
    assert cfgmod.parse_statement(
        "w", "aggregate_insert(out, avg, value)"
    ) == AggregateInsert("w", "out", "avg", "value")
    for text in ["explode(s2)", "delete_batch()"]:
        with pytest.raises(ConfigError):
            cfgmod.parse_statement("s1", text)


def test_statement_format_roundtrip():
    for text in [
        "filtered_copy(s2, value > 10)",
        "filtered_copy(s2)",
        "window_insert(w)",
        "aggregate_insert(out, avg, value)",
    ]:
        stmt = cfgmod.parse_statement("s1", text)
        assert cfgmod.parse_statement("s1", cfgmod.format_statement(stmt)) == stmt


def test_pred_parsing():
    assert cfgmod.parse_pred("value >= 3") == Pred("value", ">=", 3)
    assert cfgmod.parse_pred('name == "C1"') == Pred("name", "==", "C1")
    assert cfgmod.parse_pred("x < 1.5") == Pred("x", "<", 1.5)
    with pytest.raises(ConfigError):
        cfgmod.parse_pred("value ~ 3")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        cfgmod.load("[mystery]\nx = 1\n")


@pytest.mark.parametrize(
    "section, key",
    [
        ("engine", "group_comit_max_batch"),
        ("engine", "partitions"),
        ("feed", "rounds"),
        ("stream s12", "colums"),
        ("procedure validate", "inputs"),
        ("window trending", "range"),
    ],
)
def test_unknown_key_rejected(section, key):
    """A misspelled or unsupported key fails to load instead of leaving its
    setting at the default."""
    text = LEADERBOARD_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = 8\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\]: unknown key '{key}'"):
        cfgmod.load(text)


@pytest.mark.parametrize(
    "head, body",
    [
        ("table", "columns = v:int"),
        ("stream", "columns = v:int"),
        ("window", "columns = v:int\nsize = 2\nslide = 1\nowner = p"),
        ("procedure", "kind = border"),
        ("trigger", "program = window_insert(w)"),
        ("group", "children = a, b"),
    ],
)
def test_empty_section_name_rejected(head, body):
    """A section that declares something by name needs one: ``[stream]``
    would otherwise build a table named ""."""
    for header in (f"[{head}]", f"[{head} ]"):
        with pytest.raises(ConfigError, match=rf"a {head} section needs a name"):
            cfgmod.load(f"{header}\n{body}\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("[stream s1]\n", r"\[stream s1\]: missing key 'columns'"),
        ("[edge 1]\nproducer = a\nconsumer = b\n", r"\[edge 1\]: missing key 'stream'"),
        ("[group g]\norder = a<b\n", r"\[group g\]: missing key 'children'"),
        ("[procedure p]\nstreams = s\n", r"\[procedure p\]: missing key 'kind'"),
        (
            "[window w]\ncolumns = v:int\nsize = x\nslide = 1\nowner = p\n",
            r"\[window w\]: .*'x'",
        ),
        ("[engine]\nrounds = many\n", r"\[engine\]: .*'many'"),
        ("[feed]\nbatch_size = two\n", r"\[feed\]: .*'two'"),
        ("[params]\nx = abc\n", r"\[params\]: .*'abc'"),
    ],
    ids=[
        "stream_columns", "edge_stream", "group_children", "procedure_kind",
        "window_size", "rounds", "batch_size", "param",
    ],
)
def test_missing_key_or_bad_number_is_config_error(text, match):
    """A missing required key or a number that does not parse names its
    section in a ``ConfigError``, not a raw ``KeyError`` or ``ValueError``."""
    with pytest.raises(ConfigError, match=match):
        cfgmod.load(text)


def test_unknown_stream_reference_rejected():
    with pytest.raises(ConfigError):
        cfgmod.load(
            """
[procedure p]
kind = border
streams = ghost
body = builtin:noop
"""
        )


def test_bad_column_type_rejected():
    with pytest.raises(ConfigError):
        cfgmod.load("[table t]\ncolumns = a:blob\n")


def test_build_spec_from_config_runs():
    from streamtx.engine import Engine
    from streamtx.ingest import BatchingPolicy, FeedSource, ingest
    from streamtx.workloads import build_spec_from_config

    text = """
[engine]
mode = triggered

[stream s1]
columns = value:int

[stream s2]
columns = value:int

[stream s3]
columns = value:int

[procedure head]
kind = border
streams = s1
body = builtin:filter

[procedure tail]
kind = interior
streams = s2
body = builtin:passthrough
output = s3

[edge 1]
producer = head
stream = s2
consumer = tail

[edge 2]
producer = tail
stream = s3
consumer = head

[params]
threshold = 10
"""
    # edge 2 wires tail back into head: the materializer must reject it
    from streamtx.errors import BadDefinition, CycleDetected, UnknownStream

    with pytest.raises((CycleDetected, BadDefinition, UnknownStream)):
        build_spec_from_config(cfgmod.load(text))

    good = text[: text.index("[edge 2]")] + "\n[params]\nthreshold = 10\n"
    spec = build_spec_from_config(cfgmod.load(good))
    e = Engine(spec)
    ingest(
        e,
        FeedSource.from_values([5, 15, 25]),
        BatchingPolicy("fixed_count", 3),
        "s1",
    )
    e.run_until_idle()
    assert [t.values[0] for t in e.store.stream("s3").rows] == [15, 25]


def test_readme_example_config_builds():
    """The README's example config loads, materializes and builds an
    engine, so the documented grammar cannot drift from the parser."""
    from pathlib import Path

    from streamtx.engine import Engine
    from streamtx.workloads import build_spec_from_config

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    cfg = cfgmod.load(blocks[0])
    assert cfg.group_commit_max_batch == 8 and cfg.triggers["s1"]
    Engine(build_spec_from_config(cfg))
