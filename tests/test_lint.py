"""A small AST lint of the package: no orphaned imports, no dead module
names, no function body written twice, no process-wide state, no prose
pointing at a name the code no longer has.

Deleting code tends to leave behind an import that nothing uses any more, a
private helper that nothing calls, or a public function that nothing calls
and the package does not export.  Copying code leaves two functions that have
to be changed together.  The checks read the source of ``src/orthoform``
with ``ast`` and ``tokenize`` alone.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orthoform"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _reads(node: ast.AST) -> Counter:
    """The names a piece of source reads: loaded names, attribute names and
    identifier strings (string annotations such as ``-> "Matrix"``)."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names[sub.value] += 1
    return names


def _imports(tree: ast.Module) -> list[ast.alias]:
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def _imported_from(trees: dict[str, ast.Module], module: str) -> set[str]:
    """The names that the other modules, ``__init__`` aside, import from `module`."""
    return {
        alias.name
        for name, tree in trees.items()
        if name != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def test_every_import_is_used():
    # __init__ only re-exports; a name another module imports from this one counts as used
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        used = set(_reads(tree)) | _imported_from(trees, module)
        for alias in _imports(tree):
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{module}.py: {bound}")
    assert unused == []


def _unreferenced(public: bool) -> list[str]:
    """The module-level names, public or private (dunders aside), that no
    module reads or imports; ``__init__``'s re-exports count as imports, and a
    reference inside the definition itself (a recursive call) does not."""
    trees = _trees()
    reads = sum(map(_reads, trees.values()), Counter())
    reads.update(alias.name for tree in trees.values() for alias in _imports(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = _reads(node)
            for name in defined:
                if name.startswith("_") != public and not name.startswith("__") and reads[name] <= inside[name]:
                    dead.append(f"{module}.py:{node.lineno} {name}")
    return dead


def test_every_private_module_name_is_referenced():
    assert _unreferenced(public=False) == []


def test_every_public_module_name_is_read_or_exported():
    # a public name that no module reads is an entry point only if the
    # package exports it
    assert _unreferenced(public=True) == []


def _body(node: ast.FunctionDef) -> str:
    """The function's body, its docstring aside, as a dump without line numbers."""
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return ast.dump(ast.Module(body=body, type_ignores=[]))


# the body of an abstract method, which every such method shares by design
_ABSTRACT = ast.dump(ast.parse("raise NotImplementedError"))


def test_no_two_functions_share_a_body():
    # two functions with one body are one change waiting to be made twice:
    # share them through a base class or a helper instead
    where = defaultdict(list)
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _body(node) != _ABSTRACT:
                where[_body(node)].append(f"{module}.py:{node.lineno} {node.name}")
    assert [names for names in where.values() if len(names) > 1] == []


# the names through which a module reads the environment or caches across calls
_PROCESS_STATE = {"os": {"environ", "getenv"}, "functools": {"cache", "lru_cache", "cached_property"}}


def test_the_package_keeps_no_process_wide_state():
    # every knob is an argument: no function rebinds a name outside itself,
    # and no module reads the environment or caches across calls, so one
    # call cannot change how a later one in the same process runs
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{module}.py:{node.lineno} {type(node).__name__.lower()}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.attr in _PROCESS_STATE.get(node.value.id, ()):
                    found.append(f"{module}.py:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                names = _PROCESS_STATE.get(node.module, ())
                found += [f"{module}.py:{node.lineno} {node.module}.{a.name}" for a in node.names if a.name in names]
    assert found == []


def _docstrings(tree: ast.Module) -> list[ast.Constant]:
    """The docstring nodes of the module, its classes and its functions."""
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [
        n.body[0].value
        for n in nodes
        if n.body and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
        and isinstance(n.body[0].value.value, str)
    ]


def _known_names(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the package defines, imports, reads or uses as a string
    constant, and its module names; a docstring is not a definition."""
    known = set(trees)
    for tree in trees.values():
        docs = set(map(id, _docstrings(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
            elif isinstance(node, ast.arg):
                known.add(node.arg)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                known.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                known.update((getattr(node, "module", None) or "").split("."))
                for alias in node.names:
                    known.update(alias.name.split("."))
                    known.add(alias.asname or alias.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                known.add(node.value)
    return known


# ``name`` or ``a.b`` in double backticks: prose that points at the code
_CODE_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def test_every_name_the_prose_points_at_exists():
    # a docstring or comment that names ``something`` in double backticks
    # points a reader at the code; after a deletion or rename the name must
    # still be there to find
    trees = _trees()
    known = _known_names(trees)
    stale = []
    for module, tree in trees.items():
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        texts = [(doc.lineno, doc.value) for doc in _docstrings(tree)]
        texts += [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
        for line, text in texts:
            for match in _CODE_NAME.finditer(text):
                if not set(match[1].split(".")) <= known:
                    stale.append(f"{module}.py:{line + text.count(chr(10), 0, match.start())} {match[1]}")
    assert stale == []
