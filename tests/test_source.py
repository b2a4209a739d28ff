"""The library's source keeps thirteen promises that no other test reads: it
imports nothing outside the standard library, its modules import each
other in one order, at load time and never inside a function, it
computes in exact
numbers, naming ``float`` only to draw SVG and to refuse float input, it
scales rationals to ints in ``core`` alone, the one module naming
``lcm``, it holds a cell's edges as one bitmask, which ``core`` alone
reads back as edge pairs through the attribute ``edges``, it holds a
type's entries as label masks, which ``core`` alone reads back as label
sets through the attribute ``entries``, its pivot walk holds each
tree as an edge mask and keys each side by an edge's bit, with no
frozenset of node pairs, and its budget policy lives in ``core``'s
meter alone: no other module names ``DEFAULT_BUDGET``, bar the package's
re-export, or words a budget refusal, and its types come from one
computation: no module defines the feasibility search's ``_Feasibility``,
``_cliques`` or ``_tree_types`` or words its feasibility steps,
``geometry._faces`` alone builds a collection of types, called once, by
``enumerate_realizations``, and no
``geometry`` function takes a callable parameter, and the axiom
checks decide whether a collection fits (n, d) in one place: only
``axioms._Table`` raises the refusals of mixed lengths, of a length other
than n and of a label beyond d, and every internal fault, a
``RuntimeError`` that the CLI reports with exit 4, opens with the name of
its stage, as every budget refusal, a ``ResourceLimitError`` that the CLI
reports with exit 5, does, and importing the CLI maps no OpenSSL and no
XML parser: the input's digest comes from the interpreter's own SHA-256
module and the SVG picture is written as text."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "troparr").glob("*.py"))

#: The interpreter's own SHA-256 module, ``_sha2`` from Python 3.12 and
#: ``_sha256`` before it: each version's ``sys.stdlib_module_names``
#: names only its own.
SHA256_MODULES = {"_sha2", "_sha256"}

#: (module, top-level function) pairs allowed to name ``float``: the SVG
#: drawing and its range check, and the input coercion that rejects floats.
FLOAT_ALLOWED = {("cli", "render_svg"), ("cli", "_cmd_render"), ("core", "to_fraction")}


def _parsed():
    assert {p.stem for p in SOURCES} >= {"axioms", "cli", "core", "duality", "envelope", "geometry", "secondary"}
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in SOURCES]


def _name(node: ast.AST) -> str | None:
    """The name a Name, an attribute or an import alias node names."""
    return (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name if isinstance(node, ast.alias)
        else None
    )


def test_absolute_imports_are_standard_library():
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                standard = module.split(".")[0] in sys.stdlib_module_names or module in SHA256_MODULES
                assert standard, f"{path.name}:{node.lineno} imports {module}"


#: The package's modules in the one order they import in: each imports
#: only modules before it.
ORDER = ("core", "linalg", "envelope", "geometry", "axioms", "duality", "secondary", "cli")


def test_the_package_imports_in_one_order():
    # no cycle hides behind an import inside a function: every import runs
    # at load time, each module's relative imports name modules before it,
    # and the package's __init__ and __main__ import them in that order
    parsed = _parsed()
    assert {path.stem for path, _ in parsed} == set(ORDER) | {"__init__", "__main__"}
    for path, tree in parsed:
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), f"{path.name}:{node.lineno} imports in a function"
        named = [
            (node.lineno, module)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for module in ([node.module] if node.module else [alias.name for alias in node.names])
        ]
        places = [ORDER.index(module) for _, module in sorted(named) if module in ORDER]
        assert len(places) == len(named), f"{path.name} imports a module outside the order: {named}"
        if path.stem in ORDER:
            assert all(place < ORDER.index(path.stem) for place in places), f"{path.name} imports a later module: {named}"
        else:
            assert places == sorted(places), f"{path.name} imports out of order: {named}"


def test_float_is_named_only_to_render_and_to_refuse_input():
    for path, tree in _parsed():
        for top in tree.body:
            function = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "float":
                    assert (path.stem, function) in FLOAT_ALLOWED, f"{path.name}:{node.lineno} names float"


def test_lcm_is_named_only_in_core():
    # one integer form of the apex matrix, computed in core and read by
    # every kernel
    for path, tree in _parsed():
        if path.stem == "core":
            continue
        for node in ast.walk(tree):
            assert _name(node) != "lcm", f"{path.name}:{node.lineno} names lcm"


def test_edges_are_read_only_in_core():
    # one edge encoding: every module but core reads a cell's mask
    for path, tree in _parsed():
        if path.stem == "core":
            continue
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "edges"), f"{path.name}:{node.lineno} reads .edges"


def test_type_entries_are_read_only_in_core():
    # one label encoding: every module but core reads a type's masks; a
    # call of a method named entries is no read
    for path, tree in _parsed():
        if path.stem == "core":
            continue
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            read = isinstance(node, ast.Attribute) and node.attr == "entries" and id(node) not in called
            assert not read, f"{path.name}:{node.lineno} reads .entries"


def test_the_pivot_walk_names_no_frozenset():
    # a tree of the walk is its edge mask, its facets tried in ascending
    # bit order, so the walk's order rests on no set's layout
    (path, tree), = [(path, tree) for path, tree in _parsed() if path.stem == "envelope"]
    walk = {"_pivot_walk", "_rooted", "_sides", "_swapped_sides"}
    functions = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name in walk]
    assert {top.name for top in functions} == walk
    for top in functions:
        for node in ast.walk(top):
            assert not (isinstance(node, ast.Name) and node.id == "frozenset"), f"{path.name}:{node.lineno} names frozenset"


def test_the_budget_policy_lives_in_core():
    # one meter: the default budget and the refusal message are core's,
    # and every other module charges a meter
    for path, tree in _parsed():
        if path.stem == "core":
            continue
        assert "exceed budget" not in path.read_text(encoding="utf-8"), f"{path.name} words a budget refusal"
        if path.stem == "__init__":
            continue
        for node in ast.walk(tree):
            assert _name(node) != "DEFAULT_BUDGET", f"{path.name}:{node.lineno} names DEFAULT_BUDGET"


#: The search over prefixes, which the tests keep as their oracle, and
#: the tree route it ran beside.
SEARCH = {"_Feasibility", "_cliques", "_tree_types"}


def test_the_type_enumeration_is_one_loop():
    # one computation of the types, with no callback helper: no module
    # defines the search or words its feasibility steps, types are built
    # one at a time (a point's type, a copy with one entry replaced)
    # everywhere but in geometry._faces, which enumerate_realizations
    # calls once, and no geometry function calls what it is handed
    for path in SOURCES:
        assert "feasibility step" not in path.read_text(encoding="utf-8"), f"{path.name} words the search's steps"
    builders, callers = set(), []
    for path, tree in _parsed():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert node.name not in SEARCH, f"{path.name}:{node.lineno} defines {node.name}"
                if not isinstance(node, ast.Call):
                    continue
                func = ast.unparse(node.func)
                where = (path.stem, getattr(top, "name", None))
                if func == "TypeVector._trusted":
                    builders.add(where)
                elif func == "_faces":
                    callers.append(where)
    assert builders == {("core", "TypeVector"), ("geometry", "type_of_point"), ("geometry", "_faces")}
    assert callers == [("geometry", "enumerate_realizations")]
    (path, tree), = [(path, tree) for path, tree in _parsed() if path.stem == "geometry"]
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
            continue
        arguments = function.args
        params = arguments.posonlyargs + arguments.args + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg]
        names = {a.arg for a in params if a is not None}
        for a in params:
            assert a is None or a.annotation is None or "Callable" not in ast.unparse(a.annotation), (
                f"{path.name}:{function.lineno} takes a callable {a.arg}"
            )
        for node in ast.walk(function):
            called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
            assert not called, f"{path.name}:{node.lineno} calls its parameter {node.func.id}"


#: A fragment of each refusal of a type collection that does not fit (n, d).
FIT_REFUSALS = ("mixes types of different lengths", "types of length", "labels beyond d=")


def test_only_the_axiom_table_refuses_a_collection_that_does_not_fit():
    # one validated table per collection: its construction refuses, and a
    # check handed a table reads it as it is
    for fragment in FIT_REFUSALS:
        raisers = set()
        for path, tree in _parsed():
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Raise) and fragment in ast.unparse(node):
                        raisers.add((path.stem, getattr(top, "name", None)))
        assert raisers == {("axioms", "_Table")}, (fragment, raisers)


def _opening(message: ast.expr) -> str:
    """The first piece of a message: its leading text, or ``{name}`` when
    it opens with the value of the variable ``name``."""
    first = message.values[0] if isinstance(message, ast.JoinedStr) else message
    if isinstance(first, ast.FormattedValue):
        return "{" + (_name(first.value) or "") + "}"
    return first.value if isinstance(first, ast.Constant) else ""


#: The stages an internal fault may name first, besides the type
#: enumeration's, which its message reads from the variable ``stage``.
STAGES = ("pivot walk", "cell walk", "surrounding", "flips step ")


def test_every_internal_fault_opens_with_its_stage():
    # an exit-4 message says where the fault arose before what it is
    raised = set()
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if _name(node.exc.func) != "RuntimeError":
                continue
            message, = node.exc.args
            opens = _opening(message).startswith(STAGES + ("{stage}",))
            assert opens, f"{path.name}:{node.lineno} raises a RuntimeError that names no stage first"
            raised.add(path.stem)
    assert raised == {"axioms", "envelope", "geometry", "secondary"}


#: The stages a work cap's refusal names first; every budget's refusal is
#: worded by ``core.Meter``, from the stage it is handed.
LIMITS = ("surrounding", "normalized volume", "flip cone", "type enumeration")


def test_every_budget_refusal_opens_with_its_stage():
    # an exit-5 message says which stage ran out before by how much
    built = set()
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _name(node.func) == "ResourceLimitError"):
                continue
            message, = node.args
            opening = _opening(message)
            opens = opening.startswith(LIMITS) or (path.stem == "core" and opening == "{stage}")
            assert opens, f"{path.name}:{node.lineno} builds a ResourceLimitError that names no stage first"
            built.add(path.stem)
    assert built == {"axioms", "core", "duality", "geometry", "secondary"}


#: Modules that map OpenSSL or an XML parser into the process.
HEAVY = ("_hashlib", "_ssl", "pyexpat", "xml.etree.ElementTree")


def test_the_cli_maps_no_openssl_and_no_xml_parser():
    # hashlib maps OpenSSL (about 3.6 MB of RSS) and ElementTree an XML
    # parser; a fresh interpreter without site imports, so only the
    # package's own imports count
    if not any(importlib.util.find_spec(name) for name in SHA256_MODULES):
        pytest.skip("this interpreter has neither _sha2 nor _sha256, so the digest falls back to hashlib")
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import troparr, troparr.cli; "
        f"print(' '.join(name for name in {HEAVY!r} if name in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.split() == [], f"importing the CLI loads {run.stdout.split()}"
