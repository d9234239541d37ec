"""No public surface without a caller.

Every function, method and property defined in ``src/faultgraph`` must be
referenced somewhere in ``src/`` outside its own body, be a name that the
benchmark's tracer wraps (``perfbench/tracing.py`` ``WRAPPED``, loaded by
path), or be on ``ALLOWED``. A method or property counts as referenced by
an attribute of its name (``x.name``), a function also by a plain name.
Names are matched, not bindings: any ``x.run`` keeps every ``run`` method.
Dunder methods are called by Python itself and are not checked.

No field without a reader either: every field of a record in
``src/faultgraph``, a ``@dataclass`` or a ``NamedTuple``, must be loaded as
an attribute of its name somewhere in ``src/``, unless its class is on
``READ_BY_NAME``.

Only a class that holds state derived after it is made may be a
``@dataclass`` (``DATACLASSES``): each dataclass costs its module's import
the generation of its methods, at every start. Every other record is a
``NamedTuple``.

No import without a use: every name a ``src/faultgraph`` module imports must
be loaded as a plain name in that module. A name imported only so that
another module can take it from this one (a re-export) is not a use.
"""

import ast
import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "faultgraph"
TRACING = ROOT / "perfbench" / "tracing.py"

# the acceptance tests' API: no program path calls them
ALLOWED = {"expected_max", "loglog_slope"}

# records whose fields are read through getattr by name: a MetricVector's
# by metrics.metric_value
READ_BY_NAME = {"MetricVector"}


def references(tree: ast.AST) -> tuple[Counter, Counter]:
    """(attribute names, loaded plain names) used in ``tree``."""
    attrs, names = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
    return attrs, names


def traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("faultgraph_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {qual.rsplit(".", 1)[-1] for names in tracing.WRAPPED.values() for qual in names}


def orphans() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    attrs, names = Counter(), Counter()
    for tree in trees.values():
        a, n = references(tree)
        attrs += a
        names += n
    kept = traced_names() | ALLOWED
    found = []
    for path, tree in trees.items():
        methods = {
            id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in kept or (name.startswith("__") and name.endswith("__")):
                continue
            own_attrs, own_names = references(node)
            uses = attrs[name] - own_attrs[name]
            if id(node) not in methods:
                uses += names[name] - own_names[name]
            if uses == 0:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_definition_has_a_caller():
    assert orphans() == []


def is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def is_named_tuple(cls: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)


def is_record(cls: ast.ClassDef) -> bool:
    return is_dataclass(cls) or is_named_tuple(cls)


def unread_fields() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not is_record(cls) or cls.name in READ_BY_NAME:
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if node.target.id not in loaded:
                        found.append(f"{path.name}:{node.lineno} {cls.name}.{node.target.id}")
    return found


def test_every_dataclass_field_has_a_reader():
    assert unread_fields() == []


# the classes that index or compile their fields when made
DATACLASSES = {"ClassGraph", "CUGraph", "BugLedger", "FilterConfig"}


def test_only_classes_with_derived_state_are_dataclasses():
    found = {
        cls.name
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
    }
    assert found <= DATACLASSES


def unused_imports() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _, loaded = references(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if loaded[bound] == 0:
                        found.append(f"{path.name}:{node.lineno} {bound}")
    return found


def test_every_import_is_used():
    assert unused_imports() == []
