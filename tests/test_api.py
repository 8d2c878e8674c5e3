import ast
from pathlib import Path

import phasetrack as pt

SRC = Path(pt.__file__).parent
TESTS = Path(__file__).parent
BENCH = TESTS.parent / "bench"

# module-level names of src/ that nothing in src/ reads yet, each kept for
# a reader outside it or one that is planned
NO_SRC_READER = {
    "rh_residual": "bench/tracing.py counts its calls (analysis re-exports it)",
    "weak_residual": "the benchmark's history workload calls it and its tracer times it",
    "lwr_entropy_pair": "ROADMAP item 3 reads it in the free-branch entropy audit",
}

# members of src/ classes that nothing in src/ reads, each kept for a
# reader outside it
NO_SRC_MEMBER_READER = {
    "PiecewiseConstantDatum.tv_coords": "bench/workloads.py reads it",
}

# defaulted parameters that no call in src/ or bench/ passes, each kept for
# a caller that is planned
UNSET_PARAMETERS = {
    "run.observers": "called with one typed engine.Event per event; kept for "
                     "callers outside src/ and bench/ and for ROADMAP item 10",
}


def test_all_names_resolve():
    assert [name for name in pt.__all__ if not hasattr(pt, name)] == []


def test_all_has_no_duplicates():
    assert len(pt.__all__) == len(set(pt.__all__))


def _modules():
    """(file name, parsed tree) of each module of the package but __init__.py."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _unread(trees, defs) -> list[str]:
    """The labels of the (label, name, body) definitions whose name is read,
    as a Name or an Attribute, nowhere in the trees outside its own body."""
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for label, name, body in defs:
        own = {id(node) for node in ast.walk(body)}
        if all(id(node) in own for node in reads.get(name, [])):
            unread.append(label)
    return unread


def _classes(trees):
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_every_src_name_has_a_reader():
    # every module-level function and class of the package is read, as a
    # Name or an Attribute, somewhere in src/ outside its own body and
    # outside __init__.py: a name only tests read belongs in tests/
    trees = [tree for _, tree in _modules()]
    defs = [(stmt.name, stmt.name, stmt) for tree in trees for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    unread = _unread(trees, defs)
    assert sorted(unread) == sorted(NO_SRC_READER), unread


def test_every_src_member_has_a_reader():
    # every method and property of a src/ class, dunders aside, and every
    # member of a src/ Enum is read by name somewhere in src/ outside its
    # own body: a member only tests read belongs in tests/
    trees = [tree for _, tree in _modules()]
    members = []
    for cls in _classes(trees):
        is_enum = any(getattr(base, "id", getattr(base, "attr", None)) == "Enum"
                      for base in cls.bases)
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                    members.append((f"{cls.name}.{stmt.name}", stmt.name, stmt))
            elif is_enum and isinstance(stmt, ast.Assign):
                members += [(f"{cls.name}.{target.id}", target.id, stmt)
                            for target in stmt.targets]
    unread = _unread(trees, members)
    assert sorted(unread) == sorted(NO_SRC_MEMBER_READER), unread


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether the call passes the parameter `name`, at positional index
    `index` (None for keyword-only), by position, by keyword or through
    *args / **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    # every defaulted parameter of a src/ function or method is passed by
    # some call in src/ or bench/ to a callable of that name (a class's
    # __init__ is called through the class name): a default that every
    # caller takes is a constant
    trees = [tree for _, tree in _modules()]
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees + [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(callee, []).append(node)
    owner = {id(stmt): cls for cls in _classes(trees) for stmt in cls.body}
    unset = []
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = int(cls is not None and not static)     # self or cls
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            params = [(i - bound, a.arg) for i, a in enumerate(args) if i >= first]
            params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            for index, name in params:
                if not any(_passes(call, index, name) for call in calls.get(callee, [])):
                    unset.append(f"{fn.name}.{name}")
    assert sorted(unset) == sorted(UNSET_PARAMETERS), unset


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
