import ast
from pathlib import Path

import phasetrack as pt

SRC = Path(pt.__file__).parent
TESTS = Path(__file__).parent

# module-level names of src/ that nothing in src/ reads yet, each kept for
# a reader outside it or one that is planned
NO_SRC_READER = {
    "rh_residual": "bench/tracing.py counts its calls (analysis re-exports it)",
    "weak_residual": "the benchmark's history workload calls it and its tracer times it",
    "lwr_entropy_pair": "ROADMAP item 3 reads it in the free-branch entropy audit",
}


def test_all_names_resolve():
    assert [name for name in pt.__all__ if not hasattr(pt, name)] == []


def test_all_has_no_duplicates():
    assert len(pt.__all__) == len(set(pt.__all__))


def _modules():
    """(file name, parsed tree) of each module of the package but __init__.py."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def test_every_src_name_has_a_reader():
    # every module-level function and class of the package is read, as a
    # Name or an Attribute, somewhere in src/ outside its own body and
    # outside __init__.py: a name only tests read belongs in tests/
    modules = _modules()
    defs = [(name, stmt) for name, tree in modules for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    # each read, with the module-level statement it lies in
    reads: dict[str, set[int]] = {}
    for _, tree in modules:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add(id(stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, set()).add(id(stmt))
    unread = {stmt.name: module for module, stmt in defs
              if not reads.get(stmt.name, set()) - {id(stmt)}}
    assert sorted(unread) == sorted(NO_SRC_READER), unread


def test_src_imports_no_test_module():
    test_modules = {path.stem for path in TESTS.glob("*.py")}
    imported = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((name, node.module))
    assert [(m, i) for m, i in imported if i.split(".")[0] in test_modules] == []
