"""The package holds no public code that only the tests call.

Every public top-level function and class of ``src/spreadrank`` and every
public method must be referenced, by name or as an attribute, from some
definition in the package other than its own (module-level code counts).
``__init__.py`` only re-exports, so its references do not count.  Names
match by spelling alone, so the scan can miss dead code whose name is
also used for something else, but it never flags code the package uses.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spreadrank"

# used outside src/ by name, so nothing in the package has to call them
ALLOWED = {
    "propagation.cascade_sizes": "per-run counts for the benchmark's oracle and the tests",
    "graph.Network.from_edges": "builds small networks in the benchmark's oracle and the tests",
    "storage.read_scores": "reader the benchmark's tracer rebinds by name",
}


def _referenced(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _scan() -> tuple[dict[str, str], list[tuple[str, set[str]]]]:
    """Public definitions (qualified name -> name) and (owner, names referenced) per body."""
    public: dict[str, str] = {}
    bodies: list[tuple[str, set[str]]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{module}.{node.name}"
                bodies.append((owner, _referenced(node)))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = f"{owner}.{item.name}"
                        if not item.name.startswith("_"):
                            public[method] = item.name
                        bodies.append((method, _referenced(item)))
                    else:
                        bodies.append((owner, _referenced(item)))
                bodies.append((f"{owner}.<bases>", set().union(
                    *map(_referenced, node.bases + node.keywords + node.decorator_list))))
            else:
                owner = f"{module}.<module>"
                bodies.append((owner, _referenced(node)))
                continue
            if not node.name.startswith("_"):
                public[owner] = node.name
    return public, bodies


def _unreferenced() -> set[str]:
    public, bodies = _scan()
    unused = set()
    for qualified, name in public.items():
        # a class's own body and methods do not count for it, nor a method for itself
        if not any(name in names for owner, names in bodies
                   if owner != qualified and not owner.startswith(qualified + ".")):
            unused.add(qualified)
    return unused


def test_every_public_definition_is_used_inside_the_package():
    assert _unreferenced() - set(ALLOWED) == set()


def test_allowlist_is_current():
    public, _ = _scan()
    assert set(ALLOWED) <= set(public)
    assert set(ALLOWED) <= _unreferenced()
