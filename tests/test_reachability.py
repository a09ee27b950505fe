"""Every module under ``src/repro`` serves a command or an experiment,
and every public function and class is used by something other than
its own tests.

A static import walk starts at the CLI (``repro.cli``,
``repro.__main__``) and at the module of every entry of the experiment
table, and follows each ``import`` and ``from ... import`` anywhere in a
module's source, function bodies included.  ``from PKG import NAME``
follows ``PKG.NAME`` when that is a module, else ``PKG._EXPORTS[NAME]``,
so a lazy package init is resolved by name and never wholesale; and
importing a module reaches its parent packages.  A module the walk
never reaches is code that no command runs.

A name walk then reads the source of the package, ``tools/``,
``examples/`` and ``perfbench/``.  A public top-level function or class
is referenced when one of those files uses its name as a name, an
attribute, an import or an identifier inside a string (the experiment
table's ``function="run_gpu"``, perfbench's ``"EvalPlanner.add_all"``
hooks), outside its own definition.  Docstrings, the ``__all__`` and
``_EXPORTS`` lists and a package init's re-export imports do not count.
Names are matched bare, so a name two modules define is referenced once
either is; the walk can only err toward passing.  A name nothing
references is code that only its tests run.

Last, every name a module's top-level imports bind is used in that
module, as a name, a string annotation included.  Package inits, which
re-export, ``from __future__`` and a dotted ``import a.b``, which loads
a submodule for its side effect, are exempt.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

#: Where a reference to a public name may come from.
REFERRING = (PACKAGE, ROOT / "tools", ROOT / "examples", ROOT / "perfbench")

#: Modules no command reaches yet, each kept for the ROADMAP open item
#: that adopts it.  When the item lands, its module leaves this map.
ADOPTED_BY_ITEM = {
    "repro.simgpu.roofline": 9,     # `repro explain`'s binding resource
}

#: Public names nothing outside the tests references, each kept for
#: its reason.  A name that becomes referenced, or is deleted, leaves
#: this map.
KEPT = {
    "repro.core.pareto.dominates":
        "the relation the front tests check pareto_front, front_indices "
        "and IncrementalParetoFront against",
    "repro.core.biobjective.exhaustive_front":
        "the reference greedy_front_search is checked against",
    "repro.experiments.fig2_p100_n18432.monotone_fraction":
        "the point-list reference of fig2's column kernel",
    "repro.experiments.fig2_p100_n18432.rank_correlation":
        "the point-list reference of fig2's column kernel",
    "repro.obs.perf.parse_folded":
        "the inverse the flamegraph tests round-trip through",
    "repro.obs.telemetry.get_telemetry":
        "what the telemetry fixtures save and restore through",
    "repro.measurement.stats.run_until_confident":
        "the paper's Section V protocol, which no command runs on the "
        "noise-free models",
    "repro.measurement.stats.pearson_normality_check":
        "the paper's Section V protocol, which no command runs on the "
        "noise-free models",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro", *parts))


ALL_MODULES = frozenset(_module_name(p) for p in PACKAGE.rglob("*.py"))


def _source(module: str) -> Path | None:
    """The file that defines ``module``, or None if it is no module."""
    base = PACKAGE.joinpath(*module.split(".")[1:])
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


@cache
def _exports(package: str) -> dict[str, str]:
    """A lazy package init's ``_EXPORTS`` map, empty for any other."""
    path = _source(package)
    if path is None or path.name != "__init__.py":
        return {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS"
            for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _imports(module: str) -> set[str]:
    """The repro modules that ``module``'s source imports."""
    path = _source(module)
    is_init = path.name == "__init__.py"
    package = module if is_init else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if _is_repro(a.name))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            if not _is_repro(base):
                continue
            found.add(base)
            for alias in node.names:
                if _source(f"{base}.{alias.name}") is not None:
                    found.add(f"{base}.{alias.name}")
                elif alias.name in _exports(base):
                    found.add(f"{base}.{_exports(base)[alias.name]}")
    return found


@cache
def reachable() -> frozenset[str]:
    """Every repro module the CLI or the experiment table imports."""
    todo = [
        "repro.cli",
        "repro.__main__",
        *(f"repro.experiments.{e.module}" for e in EXPERIMENTS.values()),
    ]
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parts = module.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imports(module))
    return frozenset(seen)


@cache
def public_names() -> dict[str, str]:
    """Every public top-level function and class: qualified -> bare name."""
    names = {}
    for module in sorted(ALL_MODULES):
        for node in ast.parse(_source(module).read_text()).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                names[f"{module}.{node.name}"] = node.name
    return names


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants of a module's scopes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            found.add(id(node.body[0].value))
    return found


def _identifiers(node: ast.AST, docstrings: set[int]) -> set[str]:
    """The names, attributes, imports and string identifiers in ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rpartition(".")[2] for a in sub.names)
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in docstrings
        ):
            found.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return found


def _is_export_list(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS")
        for t in node.targets
    )


@cache
def referenced() -> frozenset[str]:
    """Every identifier the package, tools, examples and perfbench use."""
    found: set[str] = set()
    for path in sorted(p for root in REFERRING for p in root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = _docstrings(tree)
        is_init = path.name == "__init__.py"
        for node in tree.body:
            if _is_export_list(node) or (
                is_init and isinstance(node, ast.ImportFrom)
            ):
                continue
            names = _identifiers(node, docstrings)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.discard(node.name)  # its own definition
            found |= names
    return frozenset(found)


@pytest.mark.parametrize("module", sorted(ALL_MODULES - ADOPTED_BY_ITEM.keys()))
def test_every_module_serves_a_command_or_an_experiment(module):
    assert module in reachable(), f"no command imports {module}"


@pytest.mark.parametrize("module", sorted(ADOPTED_BY_ITEM))
def test_each_adopted_module_is_still_unreached(module):
    # A module a command now imports has been adopted: take it out of
    # the map.  This also fails if the walk ever follows a lazy init's
    # exports wholesale, since each mapped module is such an export.
    assert module in ALL_MODULES, f"{module} is gone: take it out of the map"
    assert module not in reachable(), f"a command now imports {module}"


def test_every_public_name_is_referenced():
    unreferenced = [
        name
        for name, bare in public_names().items()
        if name not in KEPT and bare not in referenced()
    ]
    assert not unreferenced, (
        "only tests reach these public names: delete them, or keep one "
        "in KEPT with its reason: " + ", ".join(unreferenced)
    )


@pytest.mark.parametrize("name", sorted(KEPT))
def test_each_kept_name_is_still_unreferenced(name):
    assert name in public_names(), f"{name} is gone: take it out of KEPT"
    assert public_names()[name] not in referenced(), (
        f"{name} is referenced now: take it out of KEPT"
    )


def _annotation_names(node: ast.AST) -> set[str]:
    """The names in an annotation, string annotations parsed."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return found


def _unused_imports(module: str) -> list[str]:
    """The names ``module``'s top-level imports bind that it never uses."""
    tree = ast.parse(_source(module).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(
                a.asname or a.name for a in node.names
                if a.asname or "." not in a.name
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.arg) and sub.annotation is not None:
            used |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            sub.returns is not None
        ):
            used |= _annotation_names(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            used |= _annotation_names(sub.annotation)
    return sorted(bound - used)


@pytest.mark.parametrize(
    "module",
    sorted(m for m in ALL_MODULES if _source(m).name != "__init__.py"),
)
def test_every_import_is_used(module):
    unused = _unused_imports(module)
    assert not unused, f"{module} never uses its imports of " + ", ".join(
        unused
    )
