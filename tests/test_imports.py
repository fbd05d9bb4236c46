"""Import hygiene: every public name resolves, no module imports a name it
never uses, and importing the package, the CLI or ``verify``, or running a
command that builds no index table, does not load numpy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import lcsmbqc

MODULES = sorted(
    path
    for path in pathlib.Path(lcsmbqc.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def test_public_names_resolve():
    assert [name for name in lcsmbqc.__all__ if not hasattr(lcsmbqc, name)] == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_detection():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert _unused_imports(source) == ["Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_imported_name(path):
    assert _unused_imports(path.read_text()) == []


def _loads_numpy(code: str) -> bool:
    """Whether numpy is loaded after ``code`` runs in a fresh interpreter."""
    src = pathlib.Path(lcsmbqc.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_does_not_load_numpy():
    """numpy loads on first use: importing the package, the CLI or
    ``verify`` with it loaded costs start-up time and peak memory on every
    command."""
    assert not _loads_numpy("import lcsmbqc, lcsmbqc.cli, lcsmbqc.verify")


@pytest.mark.parametrize("args", [["demo", "mermin-square"], ["verify", "even-prime"]])
def test_object_api_commands_do_not_load_numpy(args):
    """Commands that build no index table run without numpy."""
    assert not _loads_numpy(f"from lcsmbqc import cli\nassert cli.main({args!r}) == 0")


def test_verify_np_is_numpy_once_a_table_is_built():
    """The first read of ``verify.np`` rebinds it to numpy, so no stand-in is
    left between the index tables and numpy."""
    import numpy

    from lcsmbqc import verify

    verify.group_table(3, 1).mul
    assert verify.np is numpy
