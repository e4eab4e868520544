"""Checks on the shape of the code rather than on its verdicts.

``perfbench/layers.py`` wraps functions by (module, attribute) and only
lists the ones it cannot find, so a rename would silently drop a span
from traced runs.  ``test_every_trace_target_resolves`` resolves every
target with plain ``getattr``, without installing any wrapper.

``test_imports_are_one_way`` keeps the modules of ``src/locfusion`` in
layers: each imports only the modules before it in ``MODULE_ORDER``, and
only at module level.

``test_every_function_is_reached`` keeps package-dead code out of
``src/locfusion``: every module-level function and every method is
reached from the CLI (``cli.HANDLERS`` and the ``main`` entry point) or
from a class of the package, through the names that the functions it
reaches use.  The functions and methods only tests call are listed with
the ROADMAP item that keeps them.

``test_cli_starts_without_heavy_imports`` keeps the start-up of a
verdict process small: in ``python -S``, where no site hook preloads
anything, running a CLI command imports neither ``dataclasses`` (with
its ``inspect``) nor ``importlib.resources``.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
PACKAGE = ROOT / "src" / "locfusion"

MODULE_ORDER = ["permgroup", "report", "fusion", "locality",
                "partial_subgroups", "products", "instances", "cli"]

# Targets kept in the benchmark for older versions of the program.
RETIRED = ["locality._check_delta_of_locality"]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    missing = []
    for modname, attr, _span, _count in _load_layers().TARGETS:
        obj = importlib.import_module("locfusion." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == RETIRED


def _package_imports(node: ast.AST) -> list[str]:
    """The modules of the package that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "locfusion":
                return []
            parts = parts[1:]
        else:
            parts = (node.module or "").split(".") if node.module else []
        if parts:
            return [parts[0]]
        return [alias.name for alias in node.names]  # from . import x
    return [alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("locfusion.")]


def test_imports_are_one_way():
    files = sorted(PACKAGE.glob("*.py"))
    assert {f.stem for f in files} == set(MODULE_ORDER) | {"__init__"}
    problems = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = set(map(id, tree.body))
        before = MODULE_ORDER[:MODULE_ORDER.index(path.stem)] \
            if path.stem in MODULE_ORDER else []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.name}:{node.lineno}"
            if id(node) not in top_level:
                problems.append(f"{where}: import below module level")
            for mod in _package_imports(node):
                if mod not in before:
                    problems.append(f"{where}: {path.stem} imports {mod}")
    assert problems == []


# Parameters that set a word bound or a cap, and the functions that may
# take one: the builders, where a run sets its bounds on the objects it
# builds, the validator's optional override of the word bound, and the
# word explorer with the validator's split check, which run under it.
BOUND_PARAMS = {"cap", "group_cap", "morphism_cap", "max_word_length",
                "max_len", "max_size"}
BOUND_TAKERS = {
    "permgroup._closure", "permgroup.FiniteGroup.__init__",
    "permgroup.FiniteGroup.from_descriptor",
    "fusion.FusionSystem.__init__", "fusion.close", "fusion.fusion_of_group",
    "locality.Locality.__init__", "locality.locality_from_group",
    "locality.validate_locality", "locality._word_states",
    "locality._split_fault", "instances.group_of",
    "instances.Instance.__init__"}


def test_bounds_are_set_where_objects_are_built():
    """A locality keeps its word bound and morphism cap, and a fusion
    system its cap, so no other function takes one per call."""
    takers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(node, path.stem) for node in tree.body]
        while scopes:
            node, where = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes += [(n, f"{where}.{node.name}") for n in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.args + node.args.kwonlyargs
                if BOUND_PARAMS & {a.arg for a in args}:
                    takers.add(f"{where}.{node.name}")
    assert takers == BOUND_TAKERS


# Functions and methods that only tests (or the bench) call, each with the
# ROADMAP item that keeps it in the package.
TEST_ONLY = {
    "permgroup.SIndex.mask": "item 9: the fusion layer reads masks off "
                             "SIndex.masks; tests name subgroups by it",
    "locality.Locality.s_mask": "item 9: the predicates walk preimages "
                                "through _word_states; tests check S_w",
    "fusion.subcentric_subgroups": "item 3: the perfbench fusion.subcentric "
                                   "layer",
    "permgroup.is_characteristic_p": "item 3: the perfbench char_p layer",
    "permgroup.center": "item 9: moves to tests/ after item 3",
    "permgroup.centralizer": "item 9: moves to tests/ after item 3",
    "permgroup.centralizer_in": "item 9: the helper of center and "
                                "centralizer, which move with it",
    "partial_subgroups.enumerate_partial_normals": "item 7: find N",
    "locality.locality_from_descriptor": "item 2: abstract localities",
    "locality.locality_to_descriptor": "item 2: abstract localities",
}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _attrs(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_function_is_reached():
    """Reachability by name: a module-level function is reached when a
    reached function or a root names it, and a method when one names it
    as an attribute (``x.name``; a local variable of the same name does
    not count).  The roots are ``cli.HANDLERS``, ``cli.main``, every
    class body outside its methods, and the special methods
    (``__init__``, ``__eq__``, ...), which Python calls itself.  Two
    functions of one name are reached together, and so is a method with
    any attribute of its name: ``FusionSystem.subgroups`` is reached
    through the slot ``SIndex.subgroups``, which ``subgroup_lattice``
    reads, whether or not the method has a caller."""
    functions: dict[str, list[ast.AST]] = {}
    methods: dict[str, list[ast.AST]] = {}
    found = []
    roots: list[ast.AST] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
                found.append((f"{path.stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                roots += node.bases + node.decorator_list
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        methods.setdefault(item.name, []).append(item)
                        found.append(
                            (f"{path.stem}.{node.name}.{item.name}", item))
                    else:
                        roots.append(item)
            elif (path.stem == "cli" and isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["HANDLERS"]):
                roots.append(node)
    seen: set[int] = set()  # the ids of the reached nodes
    todo = roots + functions["main"]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo += [f for n in _names(node) for f in functions.get(n, ())]
            todo += [m for n in _attrs(node) for m in methods.get(n, ())]
    unreached = sorted(q for q, node in found if id(node) not in seen)
    assert unreached == sorted(TEST_ONLY)


# modules whose import costs a verdict process milliseconds of start-up
HEAVY_IMPORTS = {"dataclasses", "inspect", "importlib.resources"}

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from locfusion import cli
code = cli.main(["group", "info", "group-8", "--out", sys.argv[2]])
print(code, sorted(set(sys.argv[3:]) & set(sys.modules)))
"""


def test_cli_starts_without_heavy_imports(tmp_path):
    """``-S`` keeps site from importing anything, and ``-I`` keeps the
    environment's paths out, so ``src`` is the only path added."""
    out = tmp_path / "r.json"
    got = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(PACKAGE.parent),
         str(out), *sorted(HEAVY_IMPORTS)],
        capture_output=True, text=True, check=True)
    assert got.stdout == "0 []\n", got.stdout + got.stderr
    assert out.exists()
