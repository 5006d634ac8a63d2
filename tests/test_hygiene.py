"""Static checks on the library source, read with ``ast``: every import is
used, every private top-level function has a caller in the package, every
public function and method is read in the package unless it is listed with
a reason, every module-level constant is read in the package, no mask is
written bit by bit outside ``bitmatrix``, no code is transposed outside
``Code.columns``, no process is forked outside ``fanout``, and no module
reads a private name of a sibling."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "revfree"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def references(node):
    """Names read anywhere below ``node``: bare names and attribute names."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - read) == []


def test_every_private_function_has_a_caller():
    everywhere = sum(map(references, TREES.values()), Counter())
    stranded = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # a call from the function's own body does not count
        and everywhere[node.name] == references(node)[node.name]
    ]
    assert stranded == []


# public functions and methods with no reader in the package, each kept for
# the reason given; a listed name that gains a reader, or goes, leaves the list
UNREAD_PUBLIC = {
    "contains": "perfbench spans it; it moves to the tests with its span (ROADMAP item 1)",
    "naive_subset_oracle": "tests/test_acceptance.py calls it from the library",
    "regular_permanent_lower_bound": "tests/test_acceptance.py calls it from the library",
    "largest_plane_order": "the lower-bound planner of ROADMAP item 5 is to call it",
}


def test_every_public_function_is_read():
    everywhere = sum(map(references, TREES.values()), Counter())
    functions = [
        node
        for tree in TREES.values()
        for top in tree.body
        for node in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    # a read from the function's own body does not count
    unread = [node.name for node in functions
              if everywhere[node.name] == references(node)[node.name]]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


def test_every_module_constant_is_read():
    # a limit whose guard is gone must go with it
    loads = Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for tree in TREES.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    )
    constants = [
        f"{module}:{target.id}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("__")
    ]
    assert "galois.py:MAX_FIELD_ORDER" in constants
    assert [c for c in constants if not loads[c.partition(":")[2]]] == []


def test_masks_are_written_only_in_bitmatrix():
    # ``mask |= 1 << c`` and ``sum(1 << c for c in ...)`` belong in
    # bitmatrix.scatter; toggles (``^=``) and ORs of whole masks are not mask
    # writes
    def shifted(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)

    writes = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        if module != "bitmatrix.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
        and shifted(node.value)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "sum" and node.args
        and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
        and shifted(node.args[0].elt)
    ]
    assert writes == []


def test_codes_are_transposed_only_in_code():
    # ``zip(*words)`` belongs in ``Code.columns``, built once per code; every
    # other stage reads those columns instead of transposing the words again
    code = next(node for node in TREES["words.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "Code")
    inside = set(map(id, ast.walk(code)))
    transposes = [
        (id(node) in inside, f"{module}:{node.lineno}")
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "zip"
        and any(isinstance(arg, ast.Starred) and references(arg)["words"] for arg in node.args)
    ]
    assert [where for ours, where in transposes if not ours] == []
    assert [ours for ours, _ in transposes] == [True]  # the rule sees Code's own


def test_processes_are_forked_only_in_fanout():
    # ``fanout.fan_out`` reaps every child it forks; ``multiprocessing``,
    # ``concurrent`` and ``threading`` would add start-up time and parent
    # memory to every CLI call, and a thread would make forking unsafe
    calls = [
        (module == "fanout.py", f"{module}:{node.lineno}")
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("fork", "_exit")
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    ]
    assert [where for ours, where in calls if not ours] == []
    assert [ours for ours, _ in calls] == [True, True]  # the rule sees fanout's own
    imported = [
        f"{module}:{name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if name.partition(".")[0] in ("multiprocessing", "concurrent", "threading")
    ]
    assert imported == []


def test_no_module_reads_a_private_name_of_a_sibling():
    # a helper that siblings share is public; a leading underscore marks a
    # module's own, so a rename inside one module never breaks another
    relative = [node for tree in TREES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    siblings = {a.asname or a.name for node in relative if node.module is None
                for a in node.names}
    assert "exact" in siblings  # the rule sees ``from . import exact``
    private = [
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        and any(a.name.startswith("_") for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id in siblings
    ]
    assert private == []
