"""Every public name in ``src/crystalforge`` is used by something that runs,
and every public exception class is one that some caller tells apart.

A public top-level function or class, or a public method, must be named
by other ``src/`` code, hooked by the benchmark tracer (an attribute path
in ``perfbench/tracing.py``'s ``HOOKS``) or used by an acceptance test
(``tests/test_acceptance.py``).  The few kept for another reason are in
``KEPT``, each with its reason.  The sources are parsed, not imported.

A module-level name counts as used where it is read as a bare name that
no enclosing function binds, imported by name, read as an attribute of
an imported module (``cd.certificate_to_json``) or spelled as a string
constant (the CLI looks exception classes up by name).  A method counts
as used wherever an attribute of its name is read.  So ``set.add`` does
not use a function ``add``, but any ``.add`` uses a method ``add``.  A
read inside the definition itself, or inside a definition that is unused
and not kept, does not count, so dead code cannot keep dead code alive.

An exception class is told apart where an ``except`` clause names it or
the CLI looks it up (``_raised(exc, module, name)``) to pick an exit code.
A class that no caller tells apart is one name too many: raise its base
with the same message instead.  The few exempt are in ``UNCAUGHT``, each
with its reason.
"""

import ast
import builtins
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "crystalforge"

# public names that nothing above uses, and why each stays; a name that
# comes into use leaves the list
KEPT = {
    "tensor_core.contract":
        "a layer the north star times, and the paper's lower-bound chain may call it",
    "shadow_realiser.system_to_json":
        "writes the shadow-system JSON that the CLI reads; its round-trip tests need it",
    "relaxation_engine.LinearSystem.forced_zero":
        "the forced-zero columns, computed on request: the tracer's _system_sizes "
        "counts them, and the oracle comparisons read them",
    "relaxation_engine.LinearSystem.variables":
        "the column names, decoded on request: the tracer's _system_sizes counts them, "
        "and the oracle comparisons and the keyed test helpers read them",
}

# public exception classes that nothing tells apart, and why each stays
UNCAUGHT: dict = {}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_in(fn):
    """The names a function binds, so reads of them in it are local."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def references(trees):
    """Map (is an attribute, name) to the definitions enclosing each read of
    that module-level name or attribute in ``trees``."""
    out = defaultdict(list)

    def visit(node, local, owners, modules):
        if isinstance(node, SCOPES):
            local = local | bound_in(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners += (node,)
        reads = []
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            reads.append((False, node.id))
        elif isinstance(node, ast.ImportFrom):
            reads.extend((False, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            reads.append((True, node.attr))
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.append((False, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            reads.extend(((False, node.value), (True, node.value)))
        for read in reads:
            out[read].append(owners)
        for child in ast.iter_child_nodes(node):
            visit(child, local, owners, modules)

    for tree in trees:
        modules = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        visit(tree, frozenset(), (), modules)
    return out


def parse(path):
    return ast.parse(path.read_text())


def public_definitions(trees):
    """(qualified name, node, is a method) of every public top-level
    function and class and every public method, ``trees`` mapping each
    module name to its parse."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        yield f"{module}.{node.name}.{meth.name}", meth, True


def hooked_names():
    """Every part of every attribute path in the tracer's ``HOOKS``."""
    tree = parse(ROOT / "perfbench" / "tracing.py")
    (hooks,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["HOOKS"]]
    return {part for hook in hooks.elts for part in hook.elts[1].value.split(".")}


def unused_names():
    trees = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    src = references(trees.values())
    outside = set(references([parse(ROOT / "tests" / "test_acceptance.py")]))
    hooked = hooked_names()
    defs = [(qual, node, (method, node.name)) for qual, node, method in public_definitions(trees)
            if (method, node.name) not in outside and node.name not in hooked]
    # reads inside dead definitions are dropped until no more die
    dead = set()
    while True:
        unused = {qual: node for qual, node, read in defs
                  if not any(node not in owners and dead.isdisjoint(owners) for owners in src[read])}
        now = {node for qual, node in unused.items() if qual not in KEPT}
        if now == dead:
            return set(unused)
        dead = now


def test_every_public_name_is_used_or_kept_for_a_reason():
    assert sorted(unused_names() - set(KEPT)) == []


def test_every_kept_name_is_still_defined_and_unused():
    assert sorted(set(KEPT) - unused_names()) == []


def exception_classes(trees):
    """The qualified names of the public classes that derive, through
    classes of the package, from a builtin exception."""
    bases = {node.name: (module, [b.id for b in node.bases if isinstance(b, ast.Name)])
             for module, tree in trees.items() for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def is_exception(name):
        if name in bases:
            return any(is_exception(b) for b in bases[name][1])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    return {f"{module}.{name}" for name, (module, _) in bases.items()
            if not name.startswith("_") and is_exception(name)}


def told_apart(trees):
    """Every class name an ``except`` clause or a CLI ``_raised`` lookup names."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names |= {getattr(t, "attr", getattr(t, "id", None)) for t in kinds}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_raised":
                names.add(node.args[2].value)
    return names


def uncaught_exceptions():
    trees = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    caught = told_apart(trees)
    return {qual for qual in exception_classes(trees) if qual.rsplit(".", 1)[1] not in caught}


def test_every_public_exception_class_is_told_apart_or_exempt():
    assert sorted(uncaught_exceptions() - set(UNCAUGHT)) == []


def test_every_exempt_exception_class_is_still_defined_and_uncaught():
    assert sorted(set(UNCAUGHT) - uncaught_exceptions()) == []
