"""Every public function and option of the library has a caller outside the tests.

A public function that nothing in `src/shatterlab` or the benchmark in
`perfbench/` refers to backs no acceptance criterion, CLI command or
benchmarked layer; it is kept alive only by its own tests.  A reference is
any use of the name other than its own `def`: a name, an attribute, an
import or a string (the benchmark names the attributes it wraps by string).
Likewise a defaulted parameter (of a public function, method or class
constructor) that no call there passes, or that every call passes as the
same literal, has one value in use, so it is a constant, not an option.
And every worker pool is one of the two bounded pools of _pool: no other
function names ProcessPoolExecutor or ThreadPoolExecutor, and importing the
library loads neither.  Likewise every chunked layer sizes its blocks through
_bits.blocks: no other function calls range with a step.  And _bits is the
one module that walks the bits of a mask: no other function takes the
lowest set bit, x & -x.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# qualified name -> why it stays without a caller in the library
ALLOWED = {
    "SimplicialComplex.as_setsystem": "the bridge by which tests compare "
    "scan.exact_shatter_value with the independent setsystem.shatter_value oracle",
    "SetSystem.from_sets": "the public constructor from label lists, "
    "in which the tests write their set systems",
}


# (qualified name, parameter) -> why it keeps one value in use
ALLOWED_DEFAULTS = {
    ("main", "argv"): "the console script calls main() so that argparse reads "
    "sys.argv; tests pass argv",
}


def _public_defs(tree: ast.Module):
    """(qualified name, def node, name its calls use, whether calls bind self
    or cls first).  The __init__ of a public class is called by class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, node.name, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if sub.name == "__init__" and not node.name.startswith("_"):
                    yield f"{node.name}.__init__", sub, node.name, True
                elif not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, sub.name, True


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
        for qualname, _, name, _ in _public_defs(trees[path]):
            defined[qualname] = (path.name, name)
    assert set(ALLOWED) <= set(defined)
    unreferenced = [
        f"{module}: {qualname}"
        for qualname, (module, name) in sorted(defined.items())
        if name not in referenced and qualname not in ALLOWED
    ]
    assert unreferenced == []


def _defaulted(node: ast.FunctionDef, bound: bool):
    """(parameter, position in a call's positional arguments or None, default)."""
    args = node.args
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults, start=offset):
        yield positional[i].arg, i - bound, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _bound_value(call: ast.Call, param: str, position, default: ast.expr):
    """The expression a call binds to param (its default when the call does
    not pass it), or None when *args or **kwargs hide it."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            return None
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if position is not None and len(call.args) > position:
        return call.args[position]
    return default


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Calls keyed by the called name; `cls(...)` inside a class counts as a
    call of that class."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(owner if name == "cls" else name, []).append(child)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for tree in trees.values():
        visit(tree, None)
    return calls


def test_every_defaulted_parameter_has_more_than_one_value_in_use():
    """A parameter that no call passes, or that every call passes as the same
    literal, has one value in use."""
    library, trees = _trees()
    calls = _calls_by_name(trees)
    single = []
    for path in library:
        for qualname, node, name, bound in _public_defs(trees[path]):
            for param, position, default in _defaulted(node, bound):
                if (qualname, param) in ALLOWED_DEFAULTS:
                    continue
                values = [_bound_value(c, param, position, default) for c in calls.get(name, [])]
                if None in values:
                    continue
                if all(v is default for v in values) or (
                    len({ast.dump(v) for v in values}) == 1 and _is_literal(values[0])
                ):
                    single.append(f"{path.name}: {qualname}({param}=)")
    assert set(ALLOWED_DEFAULTS) <= {
        (qualname, param)
        for path in library
        for qualname, node, _, bound in _public_defs(trees[path])
        for param, _, _ in _defaulted(node, bound)
    }
    assert single == []


def test_one_function_names_the_process_pool():
    library, trees = _trees()
    owners = [
        f"{path.name}: {getattr(node, 'name', type(node).__name__)}"
        for path in library
        for node in trees[path].body
        if "ProcessPoolExecutor" in _referenced_names(node)
    ]
    assert owners == ["_pool.py: bounded_map"]


def test_one_function_names_the_thread_pool():
    library, trees = _trees()
    owners = [
        f"{path.name}: {getattr(node, 'name', type(node).__name__)}"
        for path in library
        for node in trees[path].body
        if "ThreadPoolExecutor" in _referenced_names(node)
    ]
    assert owners == ["_pool.py: _start_helpers"]


def test_importing_the_library_loads_no_executor():
    # concurrent.futures costs milliseconds to import; the pools load it
    # when they first start
    script = (
        "import sys, shatterlab, shatterlab.cli, shatterlab.randgen;"
        "print('concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _steps_a_range(node: ast.AST) -> bool:
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and len(call.args) == 3
        for call in ast.walk(node)
    )


def test_one_function_steps_a_range():
    library, trees = _trees()
    owners = [
        f"{path.name}: {getattr(node, 'name', type(node).__name__)}"
        for path in library
        for node in trees[path].body
        if _steps_a_range(node)
    ]
    assert owners == ["_bits.py: blocks"]


def _takes_the_lowest_bit(node: ast.AST) -> bool:
    return any(
        isinstance(op, ast.BinOp)
        and isinstance(op.op, ast.BitAnd)
        and any(
            isinstance(neg, ast.UnaryOp)
            and isinstance(neg.op, ast.USub)
            and ast.dump(neg.operand) == ast.dump(other)
            for neg, other in ((op.right, op.left), (op.left, op.right))
        )
        for op in ast.walk(node)
    )


def test_one_module_takes_the_lowest_bit():
    library, trees = _trees()
    owners = [
        f"{path.name}: {getattr(node, 'name', type(node).__name__)}"
        for path in library
        for node in trees[path].body
        if _takes_the_lowest_bit(node)
    ]
    assert owners == [
        "_bits.py: bits",
        "_bits.py: facets_present",
        "_bits.py: submasks",
        "_bits.py: iter_size_subsets",
    ]
