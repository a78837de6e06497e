"""No unused imports and no unused definitions in the source tree.

An import is unused when its name is never read in its file; the imports of
an __init__.py are its re-exports, so they count as used.  A module-level
function, class or constant under src/ is unused when no file under src/,
tests/ or bench/ names it (reads it, takes it as an attribute or imports
it); dunder names are exempt.

No module of the package but arrays.py names numpy's power ufuncs: numpy
may run np.power as SIMD code that moves the last ulp of ``**`` on some
machines and not on others, so a bound that called it could pass the
goldens on one machine and fail them on another.

No module of the package names the builtin sum: since Python 3.12 it adds
floats with compensation, so a sum of the same floats has other last bits
on 3.12 and later than on 3.10 and 3.11.  The package adds floats with
math.fsum, correctly rounded on every version, or in a plain loop.

No call of an attribute named f or f_prime in bounds.py, moments.py,
means.py or cli.py: they read the user's f and f' at a point only through
TestFunction.sample, the one place that decides what a failure there means.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROOTS = ("src", "tests", "bench")


def _trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text(), str(path))
            for root in ROOTS
            for path in sorted((ROOT / root).rglob("*.py"))}


def _unused_imports(trees):
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in read:
                        unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def _unused_definitions(trees):
    named = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.add(n.name.split(".")[-1])
    unused = []
    for path, tree in trees.items():
        if path.parts[0] != "src":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defs:
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in named:
                    unused.append(f"{path}:{node.lineno}: {name}")
    return unused


def _numpy_powers(trees):
    """Each np.power, numpy.power or float_power under src/quadcert but in
    arrays.py, the one module that takes powers of arrays."""
    found = []
    for path, tree in trees.items():
        if path.parts[:2] != ("src", "quadcert") or path.name == "arrays.py":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                hit = n.attr == "float_power" or (
                    n.attr == "power" and isinstance(n.value, ast.Name)
                    and n.value.id in ("np", "numpy"))
            elif isinstance(n, ast.ImportFrom):
                hit = n.module == "numpy" and any(
                    a.name in ("power", "float_power") for a in n.names)
            else:
                hit = isinstance(n, ast.Name) and n.id == "float_power"
            if hit:
                found.append(f"{path}:{n.lineno}")
    return found


def _builtin_sums(trees):
    """Each name sum under src/quadcert: the builtin, or a name that
    shadows it."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path.parts[:2] == ("src", "quadcert")
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "sum"]


# the modules that read f and f' only through TestFunction.sample
_SAMPLED_ONLY = ("bounds.py", "moments.py", "means.py", "cli.py")


def _user_calls(trees):
    """Each call of an attribute named f or f_prime in _SAMPLED_ONLY."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path.parts[:2] == ("src", "quadcert")
            and path.name in _SAMPLED_ONLY
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("f", "f_prime")]


def test_no_unused_imports():
    assert _unused_imports(_trees()) == []


def test_no_unused_definitions():
    assert _unused_definitions(_trees()) == []


def test_no_numpy_power_outside_arrays():
    assert _numpy_powers(_trees()) == []


def test_no_builtin_sum():
    assert _builtin_sums(_trees()) == []


def test_no_user_calls_outside_sample():
    assert _user_calls(_trees()) == []


@pytest.mark.parametrize("source, hits", [
    ("d = abs(tf.f_prime(x))", ["src/quadcert/bounds.py:1"]),
    ("y = self.f(x) + tf.f(b)", ["src/quadcert/bounds.py:1"] * 2),
    ("d = abs(tf.sample(tf.f_prime, x))", []),
    ("y = f(x)", []),
])
def test_user_call_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _user_calls({Path("src/quadcert/bounds.py"): tree}) == hits
    assert _user_calls({Path("src/quadcert/classes.py"): tree}) == []
    assert _user_calls({Path("tests/bounds.py"): tree}) == []


@pytest.mark.parametrize("source, hits", [
    ("y = sum(xs)", ["src/quadcert/tanhsinh.py:1"]),
    ("y = math.fsum(xs)", []),
    ("y = np.sum(xs)", []),
])
def test_builtin_sum_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _builtin_sums({Path("src/quadcert/tanhsinh.py"): tree}) == hits
    assert _builtin_sums({Path("tests/test_tanhsinh.py"): tree}) == []


@pytest.mark.parametrize("source", ["y = np.power(x, 0.5)",
                                    "y = numpy.float_power(x, 0.5)",
                                    "from numpy import power"])
def test_numpy_power_scan_sees(source):
    tree = ast.parse(source)
    assert _numpy_powers({Path("src/quadcert/bounds.py"): tree}) \
        == ["src/quadcert/bounds.py:1"]
    assert _numpy_powers({Path("src/quadcert/arrays.py"): tree}) == []
    assert _numpy_powers({Path("src/quadcert/bounds.py"):
                          ast.parse("h = HModulus.power(0.5)")}) == []
