"""Every module under ``src/repro`` serves a command or an experiment.

A static import walk starts at the CLI (``repro.cli``,
``repro.__main__``) and at the module of every entry of the experiment
table, and follows each ``import`` and ``from ... import`` anywhere in a
module's source, function bodies included.  ``from PKG import NAME``
follows ``PKG.NAME`` when that is a module, else ``PKG._EXPORTS[NAME]``,
so a lazy package init is resolved by name and never wholesale; and
importing a module reaches its parent packages.  A module the walk
never reaches is code that no command runs.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS

PACKAGE = Path(repro.__file__).resolve().parent

#: Modules no command reaches yet, each kept for the ROADMAP open item
#: that adopts it.  When the item lands, its module leaves this map.
ADOPTED_BY_ITEM = {
    "repro.measurement.stats": 10,  # `repro bench`'s repetition protocol
    "repro.simgpu.roofline": 9,     # `repro explain`'s binding resource
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
