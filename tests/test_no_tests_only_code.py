"""Every top-level name defined in the package, and every method and
property of a top-level class, serves the pipeline: it is referenced from
`src/nemonsoon/` or from the benchmark (`perfbench/`), not only from the
tests. A helper that only tests call belongs in the tests. Dunder names
(`__init__`, `__all__`) are read by Python itself and are not checked.
Checked on the syntax trees: a reference is a name, an attribute, an
imported name or a string constant spelling an identifier, which covers
the attribute names perfbench's tracer lists as strings.

Dataclass fields are held to the same rule. Every field is read as an
attribute in the package or the benchmark, and every defaulted field of a
`*Config`, `*Spec` or `*Params` dataclass is set by keyword there or in
the acceptance criteria; a default that nothing varies is a constant."""

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


# (module, "Class.field") defaulted settings that nothing sets yet
ALLOWED_UNSET = {
    # the null test of the search (ROADMAP item 8) builds beta = 0 worlds
    ("synthdata", "SynthSpec.beta_onset"),
    ("synthdata", "SynthSpec.beta_retreat"),
}
SETTINGS = ("Config", "Spec", "Params")


def _fields(path):
    """(module, class, field, defaulted) for each field of a top-level
    dataclass: an annotated name in the class body."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef) and any(
                _named(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
            found += [(path.stem, node.name, f.target.id, f.value is not None)
                      for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return found


def _named(node):
    """The name a Name or Attribute node ends in, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _attribute_reads(path):
    return {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _keywords(path):
    """(callee, keyword) for each keyword argument of a call in the module
    at `path`. The callees are the names the call ends in, as its function
    or a positional argument (`_checked(dqn.DQNConfig, seed=...)`), and a
    function that hands its `**kwargs` to a call passes its keywords on to
    that call's callees."""
    tree = ast.parse(path.read_text(), str(path))
    forwards = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.args.kwarg:
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and any(
                        k.arg is None and _named(k.value) == fn.args.kwarg.arg
                        for k in call.keywords):
                    forwards.setdefault(fn.name, set()).update(
                        map(_named, [call.func, *call.args]))
    found = set()
    for call in filter(lambda node: isinstance(node, ast.Call), ast.walk(tree)):
        callees = set(map(_named, [call.func, *call.args]))
        callees.update(*(forwards.get(c, ()) for c in list(callees)))
        found.update((c, k.arg) for c in callees for k in call.keywords if k.arg)
    return found


SOURCES = MODULES + sorted(PERFBENCH.glob("*.py"))
FIELDS = [f for path in MODULES for f in _fields(path)]
READ = set().union(*map(_attribute_reads, SOURCES))
PASSED = set().union(*map(_keywords, SOURCES + [Path(__file__).with_name("test_acceptance.py")]))


def test_field_scan_sees_fields_and_keywords():
    """The scan is not vacuous: it finds fields, reads and keywords passed
    directly, through `_checked` and through `_load_world`'s **env_flags."""
    assert {("stations", "Cluster", "member_ids", False),
            ("dqn", "DQNConfig", "seed", True),
            ("synthdata", "SynthSpec", "beta_onset", True)} <= set(FIELDS)
    assert {"member_ids", "rect_a", "step"} <= READ
    assert {("ForecasterConfig", "hidden"), ("ClusterParams", "d"),
            ("EnvConfig", "episode_len"), ("EnvConfig", "jitter")} <= PASSED


def test_every_field_is_read():
    assert [f"{module}.{cls}.{name}" for module, cls, name, _ in FIELDS
            if name not in READ] == []


def test_every_setting_is_set():
    unset = {(module, f"{cls}.{name}") for module, cls, name, defaulted in FIELDS
             if defaulted and cls.endswith(SETTINGS) and (cls, name) not in PASSED}
    assert unset == ALLOWED_UNSET
