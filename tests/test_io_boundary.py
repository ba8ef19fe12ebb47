"""Only the file layer touches the file system.

Every durable byte, and every name in the data directory, goes through
``recovery.py``'s file layer, so that a crash or fault model sits at one
seam. The modules below build and run a partition and must not reach past
it: each is parsed, and any import or name of ``os``, ``open``, ``shutil``
or ``pathlib`` fails. ``cli``, ``bench``, ``config`` and ``ingest`` read
user files and are not checked.
"""

import ast
import pathlib

import pytest

import streamtx

NO_IO = ("model", "storage", "codec", "snapshot", "triggers", "executor",
         "engine", "validator")
IO_NAMES = {"os", "open", "shutil", "pathlib"}


def io_uses(source: str) -> list[str]:
    """``line: name`` of each import or name of ``IO_NAMES`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in IO_NAMES]
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("module", NO_IO)
def test_module_makes_no_file_system_call(module):
    path = pathlib.Path(streamtx.__file__).with_name(f"{module}.py")
    assert io_uses(path.read_text()) == []


def test_io_uses_sees_each_kind():
    source = "import os.path\nfrom shutil import copy\nopen('f')\nx = pathlib\n"
    assert io_uses(source) == ["1: os.path", "2: shutil", "3: open", "4: pathlib"]
