"""Every function, class and method defined in `src/torsiongen` has a caller
outside the tests.

A name counts as used when the package, `scripts/` or `perfbench/*.py`
mentions it as a name, an attribute or an import, or names it as the
attribute of a tracer hook string ``"torsiongen.module:Attr.path"``.  A
definition that only the tests reach is dead weight in the verifier: what a
test still needs belongs in `tests/helpers.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torsiongen"
HOOK = re.compile(r"torsiongen(?:\.\w+)+:([\w.]+)")


def defined(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of the top-level functions and classes
    and of the non-dunder methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def mentioned(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for path in HOOK.findall(node.value):
                names.update(path.split("."))
    return names


def unused_names() -> list[str]:
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(mentioned(ast.parse(p.read_text())) for p in callers))
    return sorted(
        f"{path.stem}.{qualified}"
        for path in PACKAGE.glob("*.py")
        for qualified, name in defined(ast.parse(path.read_text()))
        if name not in used
    )


def test_every_src_definition_has_a_non_test_caller():
    assert unused_names() == []


def test_scan_sees_definitions_and_hooks():
    tree = ast.parse(
        "class C:\n    def m(self): pass\n    def __str__(self): pass\n"
        "def f(): pass\n"
        "HOOKS = ('torsiongen.engine:StabilizerChain.__init__',)\n"
    )
    assert defined(tree) == [("C", "C"), ("C.m", "m"), ("f", "f")]
    assert {"StabilizerChain", "__init__"} <= mentioned(tree)
    assert "f" not in mentioned(tree)
