"""Every public function and method of the library has a caller outside the tests.

A public function that nothing in `src/shatterlab` or the benchmark in
`perfbench/` refers to backs no acceptance criterion, CLI command or
benchmarked layer; it is kept alive only by its own tests.  A reference is
any use of the name other than its own `def`: a name, an attribute, an
import or a string (the benchmark names the attributes it wraps by string).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# qualified name -> why it stays without a caller in the library
ALLOWED = {
    "SimplicialComplex.as_setsystem": "the bridge by which tests compare "
    "scan.exact_shatter_value with the independent setsystem.shatter_value oracle",
    "SetSystem.from_sets": "the public constructor from label lists, "
    "in which the tests write their set systems",
}


def _public_defs(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_function_has_a_reference():
    library = sorted((ROOT / "src" / "shatterlab").glob("*.py"))
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in library + bench}
    referenced = set().union(*map(_referenced_names, trees.values()))
    defined = {}
    for path in library:
        for qualname, name in _public_defs(trees[path]):
            defined[qualname] = (path.name, name)
    assert set(ALLOWED) <= set(defined)
    unreferenced = [
        f"{module}: {qualname}"
        for qualname, (module, name) in sorted(defined.items())
        if name not in referenced and qualname not in ALLOWED
    ]
    assert unreferenced == []
