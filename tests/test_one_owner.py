"""Each file-format concept has one owner: only `geogrid` imports `csv` and
calls `csv.reader` or `csv.writer`, and only `geogrid.atomic_write` opens a
file in a write mode. Checked on the syntax trees of the package's modules."""

import ast
from pathlib import Path

import nemonsoon

MODULES = sorted(Path(nemonsoon.__file__).parent.glob("*.py"))


def _scan(path):
    """(kind, module, enclosing function) for each csv import, csv.reader or
    csv.writer call and open call in a write mode (or a mode that is not a
    string literal) in the module at `path`."""
    module = path.stem
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names) or \
                isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(("import csv", module, function))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id == "csv" and func.attr in ("reader", "writer"):
                found.append((f"csv.{func.attr}", module, function))
            if isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax+")):
                    found.append(("open for writing", module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


FOUND = [hit for path in MODULES for hit in _scan(path)]


def test_scan_sees_the_owners():
    """The scan is not vacuous: it finds the owners' own uses."""
    assert ("csv.reader", "geogrid", "read_csv_rows") in FOUND
    assert ("csv.writer", "geogrid", "write_csv_rows") in FOUND
    assert ("open for writing", "geogrid", "atomic_write") in FOUND


def test_only_geogrid_uses_csv():
    assert [hit for hit in FOUND if hit[0] != "open for writing" and hit[1] != "geogrid"] == []


def test_only_atomic_write_opens_for_writing():
    assert [hit for hit in FOUND if hit[0] == "open for writing"
            and hit[1:] != ("geogrid", "atomic_write")] == []
