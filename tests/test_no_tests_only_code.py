"""Every top-level name defined in the package serves the pipeline: it is
referenced from `src/nemonsoon/` or from the benchmark (`perfbench/`), not
only from the tests. A helper that only tests call belongs in the tests.
Checked on the syntax trees: a reference is a name, an attribute, an
imported name or a string constant spelling an identifier, which covers
the attribute names perfbench's tracer lists as strings."""

import ast
from pathlib import Path

import nemonsoon

PACKAGE = Path(nemonsoon.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# (module, name) pairs kept without a production reference
ALLOWED = {
    ("index", "objective_q"),  # acceptance criterion 01 checks the objective's arithmetic with it
}


def _definitions(path):
    """(module, name) of each top-level function, class and assigned name."""
    found = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add((path.stem, node.name))
        elif isinstance(node, ast.Assign):
            found.update((path.stem, t.id) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add((path.stem, node.target.id))
    return found


def _references(path):
    """Every identifier the module at `path` refers to, definitions aside."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


MODULES = sorted(PACKAGE.glob("*.py"))
DEFINED = set().union(*map(_definitions, MODULES))
USED = set().union(*map(_references, MODULES + sorted(PERFBENCH.glob("*.py"))))


def test_scan_sees_definitions_and_references():
    """The scan is not vacuous: it finds the benchmark's tracer and its
    string-named attributes."""
    assert PERFBENCH.is_dir()
    assert {("dqn", "td_targets"), ("index", "objective_q"), ("geogrid", "area_cells")} <= DEFINED
    assert {"td_targets", "gen_forecast_cluster", "area_cells"} <= USED


def test_no_tests_only_names():
    unused = {(module, name) for module, name in DEFINED if name not in USED}
    assert unused == ALLOWED
