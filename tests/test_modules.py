"""The package's module boundary: a module uses only the public names of the
other segconv modules, so a private helper can change without a search."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "segconv"


def private_imports(path: Path) -> list[str]:
    """'from module import name' for each _-prefixed name, dunders aside, that
    path imports from another segconv module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "segconv"):
            module = "." * node.level + (node.module or "")
            found += [f"from {module} import {a.name}" for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path) == []


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .conv import ConvSpec, _pad\n"
                   "from segconv.tensor import _mask\n"
                   "from . import __version__, _cli\n"
                   "from numpy import _private\n")
    assert private_imports(mod) == ["from .conv import _pad",
                                    "from segconv.tensor import _mask",
                                    "from . import _cli"]
