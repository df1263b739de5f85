"""Every public function and option of the library has a caller outside the tests.

A public function that nothing in `src/shatterlab` or the benchmark in
`perfbench/` refers to backs no acceptance criterion, CLI command or
benchmarked layer; it is kept alive only by its own tests.  A reference is
any use of the name other than its own `def`: a name, an attribute, an
import or a string (the benchmark names the attributes it wraps by string).
Likewise a defaulted parameter that no call there passes has one value in
use, so it is a constant, not an option.
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


# (qualified name, parameter) -> why no call in the library passes it
ALLOWED_DEFAULTS = {
    ("main", "argv"): "the console script calls main() so that argparse reads "
    "sys.argv; tests pass argv",
}


def _public_defs(tree: ast.Module):
    """(qualified name, def node, whether calls bind self or cls first)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _trees():
    library = sorted((ROOT / "src" / "shatterlab").glob("*.py"))
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return library, {path: ast.parse(path.read_text(encoding="utf-8")) for path in library + bench}


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
    library, trees = _trees()
    referenced = set().union(*map(_referenced_names, trees.values()))
    defined = {}
    for path in library:
        for qualname, node, _ in _public_defs(trees[path]):
            defined[qualname] = (path.name, node.name)
    assert set(ALLOWED) <= set(defined)
    unreferenced = [
        f"{module}: {qualname}"
        for qualname, (module, name) in sorted(defined.items())
        if name not in referenced and qualname not in ALLOWED
    ]
    assert unreferenced == []


def _defaulted(node: ast.FunctionDef, bound: bool):
    """(parameter, position in a call's positional arguments or None)."""
    args = node.args
    positional = args.posonlyargs + args.args
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_by_some_call():
    library, trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in library:
        for qualname, node, bound in _public_defs(trees[path]):
            for param, position in _defaulted(node, bound):
                if (qualname, param) in ALLOWED_DEFAULTS:
                    continue
                if not any(_passes(c, param, position) for c in calls.get(node.name, [])):
                    unpassed.append(f"{path.name}: {qualname}({param}=)")
    assert set(ALLOWED_DEFAULTS) <= {
        (qualname, param)
        for path in library
        for qualname, node, bound in _public_defs(trees[path])
        for param, _ in _defaulted(node, bound)
    }
    assert unpassed == []
