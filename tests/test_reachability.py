"""Every module under ``src/repro`` is on a consumer's import path.

Roots are what a user or the driver actually runs: ``examples/*.py``,
``benchmarks/**/*.py`` and the CLI (``repro.experiments.__main__``).
Imports are followed statically — function-local ones included — and
``from package import Name`` resolves to the module that *defines*
``Name``, through the package's lazy ``_EXPORTS`` table (``{name:
module}``) or its imports: a package ``__init__``'s re-export list is not
itself followed, so re-exporting a module nothing uses does not keep it
alive.  A module
outside the closure is shelf-ware: wire it to a consumer or delete it.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: modules allowed to sit outside the closure (keep empty)
ALLOWED_UNREACHED: set[str] = set()


def _path_of(module: str) -> Path | None:
    """Source file of a ``repro`` module or package, else None."""
    base = SRC.joinpath(*module.split("."))
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    return None


def _imports(path: Path, module: str):
    """``(absolute module, imported names or None)`` for every import
    statement anywhere in the file."""
    is_package = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                parts = module.split(".")
                # level 1 is the containing package: the module itself
                # when it is a package __init__, else its parent
                parts = parts[: len(parts) - (node.level - (1 if is_package else 0))]
                target = ".".join(parts + ([target] if target else []))
            yield target, [alias.name for alias in node.names]


def _lazy_exports(path: Path, package: str) -> dict[str, str]:
    """A package ``__init__``'s ``_EXPORTS`` table, with each module made
    absolute."""
    for node in ast.parse(path.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
        ):
            return {
                name: package + module if module.startswith(".") else module
                for name, module in ast.literal_eval(node.value).items()
            }
    return {}


def _defining_module(package: str, name: str) -> str | None:
    """Resolve ``from package import name`` to the defining module."""
    if _path_of(f"{package}.{name}") is not None:
        return f"{package}.{name}"  # a submodule
    path = _path_of(package)
    if path is None:
        return None
    if path.name != "__init__.py":
        return package  # a plain module defines its own names
    lazy = _lazy_exports(path, package)
    if name in lazy:
        return _defining_module(lazy[name], name)
    for target, names in _imports(path, package):
        if names and name in names and target.startswith("repro"):
            return _defining_module(target, name)
    return package  # defined in the __init__ itself


def _closure() -> set[str]:
    seen: set[str] = set()
    stack: list[tuple[Path, str]] = [
        (path, f"<{path.relative_to(REPO)}>")
        for pattern in ("examples/*.py", "benchmarks/**/*.py")
        for path in sorted(REPO.glob(pattern))
    ]
    stack.append((_path_of("repro.experiments.__main__"), "repro.experiments.__main__"))
    seen.add("repro.experiments.__main__")
    while stack:
        path, module = stack.pop()
        for target, names in _imports(path, module):
            if not target.startswith("repro"):
                continue
            if names is None:
                reached = [target]
            else:
                reached = [_defining_module(target, name) for name in names]
            for mod in reached:
                mod_path = _path_of(mod) if mod else None
                if mod_path is None or mod in seen:
                    continue
                seen.add(mod)
                if mod_path.name != "__init__.py":  # re-exports: not followed
                    stack.append((mod_path, mod))
    return seen


def test_every_module_is_reached_from_a_consumer():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached = sorted(m.removeprefix("repro.") for m in modules - _closure())
    assert unreached == sorted(ALLOWED_UNREACHED), (
        "modules no example, benchmark or CLI target imports: "
        + ", ".join(unreached)
    )


def test_lazy_exports_resolve_to_their_defining_modules():
    """A name re-exported through two lazy tables reaches the module that
    defines it, so the closure sees the module and not the ``__init__``."""
    assert _defining_module("repro", "FaultPlan") == "repro.chaos.plan"
    assert _defining_module("repro", "Gateway") == "repro.faas.gateway"
    assert _defining_module("repro.experiments", "replay") == "repro.experiments.replay"
