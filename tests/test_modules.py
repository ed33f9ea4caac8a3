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


def modules_of(src: Path) -> list[Path]:
    """src/*.py but __init__.py, whose re-exports are no use."""
    return sorted(p for p in src.glob("*.py") if p.name != "__init__.py")


def nodes_outside_the_tests(src: Path, bench: Path):
    """Every AST node of modules_of(src) and of bench/*.py."""
    for path in modules_of(src) + sorted(bench.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def unreferenced_defs(src: Path, bench: Path) -> list[str]:
    """'module.name' for each module-level function or class of src, and
    'module.Class.name' for each method or property of such a class
    (dunders aside), that no file of src but __init__.py, nor any
    bench/*.py, reads as a Name or an Attribute: code that only tests (or
    nothing) call. A def's own name is not a Name node, so a use in its own
    module counts, a re-export does not."""
    used = set()
    for node in nodes_outside_the_tests(src, bench):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    found = []
    for path in modules_of(src):
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


def unread_members(src: Path, bench: Path) -> list[str]:
    """'module.Class.name' for each data member of a module-level class of
    src (a class-body assignment or dataclass field, or an attribute its
    methods set on self; dunders aside) that no file of src but
    __init__.py, nor any bench/*.py, reads as an Attribute. A store is no
    read, nor is a Name of the same spelling, such as a parameter; but
    any read of that attribute name counts, on whatever object."""
    read = {node.attr for node in nodes_outside_the_tests(src, bench)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in modules_of(src):
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            targets = []
            for m in cls.body:
                if isinstance(m, ast.AnnAssign):
                    targets.append(m.target)
                elif isinstance(m, ast.Assign):
                    targets += m.targets
                elif isinstance(m, ast.FunctionDef) and m.args.args:
                    me = m.args.args[0].arg
                    targets += [n for n in ast.walk(m) if isinstance(n, ast.Attribute)
                                and isinstance(n.ctx, ast.Store)
                                and isinstance(n.value, ast.Name) and n.value.id == me]
            names = [getattr(t, "id", getattr(t, "attr", None)) for t in targets]
            found += [f"{path.stem}.{cls.name}.{n}" for n in dict.fromkeys(names)
                      if n is not None and n not in read
                      and not (n.startswith("__") and n.endswith("__"))]
    return found


def test_every_data_member_is_read_outside_the_tests():
    assert unread_members(SRC, BENCH) == []


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


def test_the_caller_check_sees_attributes_and_fields(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text("from dataclasses import dataclass\n"
                              "@dataclass\n"
                              "class Spec:\n"
                              "    __slots__ = ()\n"
                              "    read: int\n"
                              "    unread: int = 0\n"
                              "    LIMIT = 3\n"
                              "    UNUSED = 4\n"
                              "class Failed(Exception):\n"
                              "    def __init__(self, step, lr):\n"
                              "        self.step, self.seen = step, lr\n"
                              "        self.lr = lr\n"
                              "        self.by_bench = 0\n"
                              "def run(s, e, args):\n"
                              "    e.seen += 1\n"
                              "    return s.read + e.seen + Spec.LIMIT + args.lr\n")
    (bench / "run.py").write_text("import segconv.a as a\n"
                                  "a.run(a.Spec(1), a.Failed(2, 0.1), None)\n"
                                  "print(a.Failed(0, 0.1).by_bench)\n")
    # step is only a parameter and a store; lr's only read is args.lr, so
    # the check cannot tell it from Failed.lr
    assert unread_members(src, bench) == ["a.Spec.unread", "a.Spec.UNUSED", "a.Failed.step"]
