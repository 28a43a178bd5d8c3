"""Every module under ``src/repro`` uses what it imports.

An import whose name the module never reads again is dead code that a
reader still has to account for.  No linter is a dependency of this
project, so the check is a plain :mod:`ast` scan: an imported name
counts as used when the module reads it as a name (``x``, ``x.attr``),
names it in a string annotation (``"FaultPlan"``), or lists it in
``__all__``.  Package ``__init__.py`` files are skipped: their imports
are the package's re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(root, name)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), path


def _imported(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotation_names(node):
    """Names read inside an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used.update(_annotation_names(annotation))
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant)
            )
    return used


def unused_imports(path):
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree) if name not in used
    )


@pytest.mark.parametrize("module, path", list(_modules()),
                         ids=[m for m, _ in _modules()])
def test_module_uses_its_imports(module, path):
    unused = unused_imports(path)
    assert not unused, "{}: unused import(s) {}".format(
        module, ", ".join(f"{name!r} (line {line})" for line, name in unused)
    )


def test_scan_flags_an_unused_import(tmp_path):
    """The scan is not vacuous: it names an import nothing reads, and
    accepts one read only in a string annotation."""
    source = tmp_path / "sample.py"
    source.write_text(
        "import os\n"
        "from typing import Dict, List\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(str(source)) == [(1, "os"), (2, "Dict")]
