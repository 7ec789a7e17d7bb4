"""No module-level ID source and no salted hash under ``src/repro``.

A decision is a pure function of (config, workload, fault plan) only if
nothing one run draws carries into the next.  The classic leak is an ID
counter at module level: a second replay in the same process numbers its
requests where the first stopped, so two equal runs no longer compare
raw.  Every ID is minted by its owner instead (a workload numbers its
rows, a Gateway its invocations and containers, a system its handles'
requests); this scan keeps it that way.  It flags, per counter:

* a module-level assignment of ``itertools.count(...)``;
* a dataclass ``default_factory`` that calls ``next`` (it can only draw
  from a counter that outlives the instance).

The other leak is the builtin ``hash``: a ``str`` hashes differently in
every process (``PYTHONHASHSEED``), so anything derived from one — a
node's IP, say — changes between two runs of the same replay.  A second
scan flags every call to it.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_count_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr == "count" and isinstance(fn.value, ast.Name) and fn.value.id == "itertools"
    return isinstance(fn, ast.Name) and fn.id == "count"


def global_id_sources(tree: ast.Module, module: str) -> set[str]:
    """``module:counter`` for every module-level ID source in ``tree``."""
    hits = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _is_count_call(stmt.value):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            hits.update(f"{module}:{ast.unparse(t)}" for t in targets)
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "default_factory":
            for call in ast.walk(node.value):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "next"
                ):
                    hits.add(f"{module}:{ast.unparse(call.args[0]) if call.args else 'next'}")
    return hits


def builtin_hash_calls(tree: ast.Module, module: str) -> set[str]:
    """``module:line`` for every call to the builtin ``hash`` in ``tree``."""
    return {
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    }


def _scan_src(scan) -> list[str]:
    hits = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix()
        hits |= scan(ast.parse(path.read_text()), module)
    return sorted(hits)


def test_src_has_no_module_level_id_source():
    assert _scan_src(global_id_sources) == []


def test_src_calls_no_builtin_hash():
    assert _scan_src(builtin_hash_calls) == []


def test_the_scan_sees_each_form():
    source = textwrap.dedent(
        """
        import itertools
        from itertools import count
        from dataclasses import dataclass, field

        _ids = itertools.count(1)
        _other: object = count()

        @dataclass
        class Row:
            row_id: int = field(default_factory=lambda: next(_ids))
            tag: int = field(default_factory=lambda: next(_shared))

        class Owner:
            def __init__(self):
                self.ids = itertools.count(1)  # owned by an instance: fine
        """
    )
    assert global_id_sources(ast.parse(source), "m") == {"m:_ids", "m:_other", "m:_shared"}


def test_the_hash_scan_sees_calls_only():
    source = textwrap.dedent(
        """
        ip = f"10.0.0.{abs(hash(node_id)) % 200}"

        class Key:
            def __hash__(self):
                return hash((self.a, self.b))

        digest = hashlib.sha256(b"x")  # a named hash function: fine
        """
    )
    assert builtin_hash_calls(ast.parse(source), "m") == {"m:2", "m:6"}
