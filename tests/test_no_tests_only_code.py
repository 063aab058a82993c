"""Every top-level name defined in the package, and every method and
property of a top-level class, serves the pipeline: it is referenced from
`src/nemonsoon/` or from the benchmark (`perfbench/`), not only from the
tests. A helper that only tests call belongs in the tests. Dunder names
(`__init__`, `__all__`) are read by Python itself and are not checked.
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
    """(module, name) of each top-level function, class and assigned name,
    and (module, "Class.name") of each method and property of a top-level
    class, dunder names aside."""
    found = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            found.update((path.stem, f"{node.name}.{f.name}") for f in node.body
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add((path.stem, node.name))
        elif isinstance(node, ast.Assign):  # `A = ...` and `A, B = ...`
            names = [e for t in node.targets for e in getattr(t, "elts", [t])]
            found.update((path.stem, n.id) for n in names if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add((path.stem, node.target.id))
    return {(module, name) for module, name in found
            if not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__"))}


def _references(path):
    """Every identifier the module at `path` refers to, definitions aside:
    a name that is only assigned to is not referred to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
    assert {("dqn", "td_targets"), ("index", "objective_q"), ("geogrid", "area_cells"),
            ("geogrid", "GridSpec.lats"), ("dqn", "QNetwork.loss_and_grads"),
            ("dqn", "ADAM_EPS"), ("synthdata", "SURROGATE_MIX")} <= DEFINED
    assert not any(name.endswith(".__init__") for _, name in DEFINED)
    assert {"td_targets", "gen_forecast_cluster", "area_cells"} <= USED


def test_no_tests_only_names():
    unused = {(module, name) for module, name in DEFINED
              if name.rsplit(".", 1)[-1] not in USED}
    assert unused == ALLOWED
