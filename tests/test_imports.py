"""Import hygiene: every public name resolves, no module imports a name it
never uses, and importing the package does not load numpy."""

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


def test_import_does_not_load_numpy():
    """numpy loads on first use: compiling and importing the package with it
    loaded costs start-up time and peak memory on every command."""
    code = "import sys, lcsmbqc; print('numpy' in sys.modules)"
    src = pathlib.Path(lcsmbqc.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False"
