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


BENCH = SRC.parent.parent / "perfbench"


def unreferenced_defs(src: Path, bench: Path) -> list[str]:
    """'module.name' for each module-level function or class of src, and
    'module.Class.name' for each method or property of such a class
    (dunders aside), that no file of src but __init__.py, nor any
    bench/*.py, reads as a Name or an Attribute: code that only tests (or
    nothing) call. A def's own name is not a Name node, so a use in its own
    module counts, a re-export does not."""
    modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    used = set()
    for path in modules + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name not in used
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def test_every_def_has_a_caller_outside_the_tests():
    assert unreferenced_defs(SRC, BENCH) == []


def test_the_caller_check_sees_names_and_attributes(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import orphan, helper, Used, by_bench\n")
    (src / "a.py").write_text("def orphan(): pass\n"
                              "def helper(): pass\n"
                              "class Used: pass\n"
                              "def by_bench(): pass\n"
                              "def caller(): return helper()\n")
    (src / "b.py").write_text("from . import a\nx = a.Used\ny = a.caller()\n")
    (bench / "run.py").write_text("import segconv.a as a\na.by_bench()\n")
    assert unreferenced_defs(src, bench) == ["a.orphan"]


def test_the_caller_check_sees_class_members(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text("class Net:\n"
                              "    def __init__(self): self.size = self.width\n"
                              "    def __len__(self): return 0\n"
                              "    @property\n"
                              "    def width(self): return 1\n"
                              "    @property\n"
                              "    def depth(self): return 2\n"
                              "    def step(self): pass\n"
                              "    def by_bench(self): pass\n"
                              "    def orphan(self): pass\n"
                              "def run(): Net().step()\n")
    (bench / "run.py").write_text("import segconv.a as a\na.run()\na.Net().by_bench()\n")
    assert unreferenced_defs(src, bench) == ["a.Net.depth", "a.Net.orphan"]
