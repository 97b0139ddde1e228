"""The package holds no code, and no parameter default, that only the tests use.

It also imports nothing at run time but numpy and the standard library,
and every name a module imports at module level is used in that module.

Every top-level function and class of ``src/spreadrank``, private helpers
included, and every public method must be referenced, by name or as an
attribute, from some definition in the package other than its own
(module-level code counts), so a helper that a change leaves behind fails.
``__init__.py`` only re-exports, so its references do not count.  Every
defaulted parameter of a public function or method must be set, by
keyword or by position, by some call in the package: a default no call
overrides is a setting that nothing in the pipeline reads.  Nor may every
call in the package set it: a default no call uses serves only the tests.
A class's ``__init__`` counts as called by the class's name.  Names match
by spelling alone, so the scans can miss dead code whose name is also
used for something else, but they never flag code the package uses.

No module imports another module's private name: what two modules share
is public, or lives in one of them.
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spreadrank"

# scipy and hypothesis stay test-only
RUNTIME_DEPENDENCIES = {"numpy"}

# used outside src/ by name, so nothing in the package has to call them
ALLOWED = {
    "propagation.cascade_sizes": "per-run counts for the benchmark's oracle and the tests",
    "graph.Network.from_edges": "builds small networks in the benchmark's oracle and the tests",
    "storage.read_scores": "reader the benchmark's tracer rebinds by name",
}

# defaulted parameters set only from outside src/
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console script calls main() bare; the benchmark and the tests "
                      "pass an argv",
    "centrality.eigenvector(tol)": "acceptance criterion 2 tightens the tolerance",
}

# defaulted parameters every call in the package sets, kept for callers outside src/
ALLOWED_SET_DEFAULTS = {
    "propagation.spread_all(progress)": "scripts/engine_scaling.py times the engine without one",
    "storage.read_spread(node_count)": "the benchmark's rerun_cached check reads a spread file "
                                       "without its graph",
}


def _referenced(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _modules():
    """(module name, syntax tree) of every module but ``__init__.py``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _scan() -> tuple[dict[str, str], list[tuple[str, set[str]]]]:
    """Checked definitions (qualified name -> name) and (owner, names referenced) per body.

    Checked are every top-level function and class and every public method.
    """
    checked: dict[str, str] = {}
    bodies: list[tuple[str, set[str]]] = []
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{module}.{node.name}"
                bodies.append((owner, _referenced(node)))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = f"{owner}.{item.name}"
                        if not item.name.startswith("_"):
                            checked[method] = item.name
                        bodies.append((method, _referenced(item)))
                    else:
                        bodies.append((owner, _referenced(item)))
                bodies.append((f"{owner}.<bases>", set().union(
                    *map(_referenced, node.bases + node.keywords + node.decorator_list))))
            else:
                owner = f"{module}.<module>"
                bodies.append((owner, _referenced(node)))
                continue
            checked[owner] = node.name
    return checked, bodies


def _unreferenced() -> set[str]:
    checked, bodies = _scan()
    unused = set()
    for qualified, name in checked.items():
        # a class's own body and methods do not count for it, nor a method for itself
        if not any(name in names for owner, names in bodies
                   if owner != qualified and not owner.startswith(qualified + ".")):
            unused.add(qualified)
    return unused


def _defaulted(args: ast.arguments, method: bool) -> dict[str, int | None]:
    """Defaulted parameters and their positions in a call (None if keyword-only)."""
    positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
    first = len(positional) - len(args.defaults)
    params = {name: index for index, name in enumerate(positional) if index >= first}
    params.update({a.arg: None for a, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None})
    return params


def _sets(call: ast.Call, param: str, index: int | None, unpacked: bool) -> bool:
    """Whether ``call`` passes ``param``; ``unpacked`` if only a ``*args`` or ``**kwargs`` may."""
    if any(k.arg == param for k in call.keywords):
        return True
    fixed = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    if index is not None and index < fixed:
        return True
    return unpacked and (fixed < len(call.args) or any(k.arg is None for k in call.keywords))


def _public_defaults() -> dict[str, tuple[tuple[str, int | None], list[ast.Call]]]:
    """``name(param)`` of each public function's defaulted parameter -> (param, index), calls.

    ``index`` is the parameter's position in a call (None if keyword-only), and
    the calls are every call in the package of a callable spelled like the
    function; a class's ``__init__`` is called by the class's name.
    """
    defaulted: dict[str, tuple[str, dict[str, int | None]]] = {}
    calls: dict[str, list[ast.Call]] = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaulted[f"{module}.{node.name}"] = (node.name, _defaulted(node.args, False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = node.name if item.name == "__init__" else item.name
                        defaulted[f"{module}.{node.name}.{item.name}"] = (
                            name, _defaulted(item.args, True))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                calls.setdefault(name, []).append(call)
    return {f"{qualified}({param})": ((param, index), calls.get(name, []))
            for qualified, (name, params) in defaulted.items() if not name.startswith("_")
            for param, index in params.items()}


def _unset_defaults() -> set[str]:
    """Each public defaulted parameter no call in the package sets."""
    return {qualified for qualified, (param, calls) in _public_defaults().items()
            if not any(_sets(call, *param, unpacked=True) for call in calls)}


def _always_set_defaults() -> set[str]:
    """Each public defaulted parameter that calls in the package set, every one of them."""
    return {qualified for qualified, (param, calls) in _public_defaults().items()
            if calls and all(_sets(call, *param, unpacked=False) for call in calls)}


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[1].startswith("_")


def test_every_public_definition_is_used_inside_the_package():
    assert {q for q in _unreferenced() if not _private(q)} - set(ALLOWED) == set()


def test_every_private_helper_is_used_inside_the_package():
    assert {q for q in _unreferenced() if _private(q)} == set()


def test_every_defaulted_parameter_is_set_inside_the_package():
    assert _unset_defaults() - set(ALLOWED_DEFAULTS) == set()


def test_every_default_is_used_inside_the_package():
    assert _always_set_defaults() - set(ALLOWED_SET_DEFAULTS) == set()


def test_allowlist_is_current():
    checked, _ = _scan()
    assert set(ALLOWED) <= set(checked)
    assert set(ALLOWED) <= _unreferenced()
    assert set(ALLOWED_DEFAULTS) <= _unset_defaults()
    assert set(ALLOWED_SET_DEFAULTS) <= _always_set_defaults()


def _imported_modules() -> set[str]:
    """Top-level names of the modules any file of the package imports, anywhere in it."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {PACKAGE.name}
    assert _imported_modules() - allowed == set()


def _unused_imports() -> set[str]:
    """``module.name`` of each name imported at module level that its module never reads."""
    unused = set()
    for module, tree in _modules():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {(a.asname or a.name).split(".")[0] for a in node.names}
                unused.update(f"{module}.{name}" for name in bound - read)
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == set()
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "noqa: F401" in path.read_text(encoding="utf-8")]


def _private_imports() -> set[str]:
    """``module: from .other import _name`` of each private name a module imports."""
    found = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith(PACKAGE.name))):
                found.update(f"{module}: from {'.' * node.level}{node.module or ''} "
                             f"import {alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__"))
    return found


def test_no_module_imports_a_private_name():
    assert _private_imports() == set()
