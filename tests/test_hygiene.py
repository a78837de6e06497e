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

No module of the package but classes.py reads an attribute named fn: a
custom modulus's fn is sampled only there, through HModulus.evaluator and
HModulus.moment_integrand, where each of its values is checked.

No module of the package but specs.py reads an attribute named family:
specs.py alone branches on the poly:, pow: and exp: families, and every
other module reads what a spec decides through its methods.

No call of an attribute named functions under src/quadcert outside
cli.parse_function: every (f, f') the commands evaluate is built there, and
the benchmark counts f and f' evaluations on its grid workload by wrapping
that one name, so an f built by calling a spec's functions() directly would
drop from its evaluation count and read as a gain.

No float literal in oracle.py outside the qk15 table (_K15_PAIRS and
_K15_CENTRE) equals one of its constants or is as long as one (15 or more
significant digits): the kernel reads the table's constants by name, so a
retyped constant cannot drift from the one copy the tests check.

No module of the package but classes.py, moments.py and oracle.py reads a
member of HKind: classes.py defines the kinds, moments.py alone decides
which moduli have closed-form moments and which are integrated, and
oracle.py keys its Hadamard table by kind.

A string literal under src/quadcert that names a bound (a key of
bounds.BOUNDS) is a key of that table, --bound's default in cli.py, or the
name bounds.py passes to its own evaluate_bound: the table is the one place
that knows what a bound needs, so no other code branches on a bound's name.

cli.py constructs no OverflowError and writes no "bound is not finite":
bounds.evaluate_bound alone decides that a bound which is inf or NaN, or
overflows a Python float, is not finite, so every command and every API
caller meets the one rule.

No import of a package that pyproject.toml does not list: under src/ only
the standard library, numpy and quadcert itself; tests/ and bench/ may also
import pytest, hypothesis and the bench's own modules.  mpmath, scipy or
sympy may be installed where the suite runs, so only a bare environment
would otherwise catch a stray import.
"""

import ast
import sys
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


# the modules that call a custom modulus's fn
_FN_CALLERS = ("classes.py",)


def _fn_reads(trees):
    """Each read of an attribute named fn under src/quadcert outside
    _FN_CALLERS; reading it is how a module would call it."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path.parts[:2] == ("src", "quadcert")
            and path.name not in _FN_CALLERS
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "fn"]


# the modules that read a spec's family
_FAMILY_READERS = ("specs.py",)


def _family_reads(trees):
    """Each read of an attribute named family under src/quadcert outside
    _FAMILY_READERS; reading it is how a module would branch on one."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path.parts[:2] == ("src", "quadcert")
            and path.name not in _FAMILY_READERS
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "family"]


def _spec_function_calls(trees):
    """Each call of an attribute named functions under src/quadcert outside
    the body of cli.parse_function."""
    found = []
    for path, tree in trees.items():
        if path.parts[:2] != ("src", "quadcert"):
            continue
        inside = {id(n) for d in tree.body
                  if path.name == "cli.py" and isinstance(d, ast.FunctionDef)
                  and d.name == "parse_function" for n in ast.walk(d)}
        found += [f"{path}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "functions" and id(n) not in inside]
    return found


# the modules that read a member of HKind
_HKIND_READERS = ("classes.py", "moments.py", "oracle.py")


def _hkind_reads(trees):
    """Each HKind.<member> under src/quadcert outside _HKIND_READERS, by
    the bare name or as an attribute of a module."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path.parts[:2] == ("src", "quadcert")
            and path.name not in _HKIND_READERS
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and (getattr(n.value, "id", None) == "HKind"
                 or getattr(n.value, "attr", None) == "HKind")]


_BOUNDS_PY = Path("src/quadcert/bounds.py")


def _table_keys(tree):
    """The key nodes of the BOUNDS = {...} assignment in tree."""
    return [k for n in tree.body if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == "BOUNDS"
                    for t in n.targets)
            for k in n.value.keys]


def _allowed_names(path, tree):
    """The nodes of tree where a bound name may be written."""
    allowed = _table_keys(tree) if path == _BOUNDS_PY else []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if path == _BOUNDS_PY and isinstance(n.func, ast.Name) \
                and n.func.id == "evaluate_bound" and n.args:
            allowed.append(n.args[0])
        elif path.name == "cli.py" and isinstance(n.func, ast.Attribute) \
                and n.func.attr == "add_argument" and n.args \
                and getattr(n.args[0], "value", None) == "--bound":
            allowed += [k.value for k in n.keywords if k.arg == "default"]
    return {id(n) for n in allowed}


def _bound_name_literals(trees):
    """Each string literal under src/quadcert that equals a key of the
    BOUNDS table and is not written where _allowed_names allows it."""
    names = {k.value for k in _table_keys(trees[_BOUNDS_PY])}
    found = []
    for path, tree in trees.items():
        if path.parts[:2] != ("src", "quadcert"):
            continue
        allowed = _allowed_names(path, tree)
        found += [f"{path}:{line}" for line in sorted(
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value in names and id(n) not in allowed)]
    return found


def _cli_overflow_rules(trees):
    """Each OverflowError that src/quadcert/cli.py constructs or names in a
    raise, and each of its string literals that says a bound is not
    finite."""
    return [f"{path}:{n.lineno}"
            for path, tree in trees.items()
            if path == Path("src/quadcert/cli.py")
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "OverflowError"
            or isinstance(n, ast.Raise) and isinstance(n.exc, ast.Name)
            and n.exc.id == "OverflowError"
            or isinstance(n, ast.Constant) and isinstance(n.value, str)
            and "bound is not finite" in n.value]


# beyond the standard library: what pyproject.toml lists, per root
_PACKAGE_DEPS = {"numpy", "quadcert"}
_TEST_DEPS = _PACKAGE_DEPS | {"pytest", "hypothesis", "run", "spans",
                              "workloads"}


def _unlisted_imports(trees):
    """Each absolute import of a top-level name that is neither in the
    standard library nor listed for its root."""
    found = []
    for path, tree in trees.items():
        allowed = _PACKAGE_DEPS if path.parts[0] == "src" else _TEST_DEPS
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom) and not n.level:
                names = [n.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in allowed:
                    found.append(f"{path}:{n.lineno}: {top}")
    return found


# the assignments that hold oracle.py's qk15 constants
_QK15_TABLES = ("_K15_PAIRS", "_K15_CENTRE")


def _significant_digits(x):
    return len(repr(abs(x)).split("e")[0].replace(".", "").strip("0"))


def _qk15_table(tree):
    """The nodes of the _QK15_TABLES assignments' values in tree."""
    return [c for n in tree.body if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in _QK15_TABLES
                    for t in n.targets)
            for c in ast.walk(n.value)]


def _qk15_copies(trees):
    """Each float literal in src/quadcert/oracle.py outside _QK15_TABLES
    that equals a constant of the table or has 15 or more significant
    digits."""
    found = []
    for path, tree in trees.items():
        if path != Path("src/quadcert/oracle.py"):
            continue
        table = _qk15_table(tree)
        values = {c.value for c in table if isinstance(c, ast.Constant)
                  and type(c.value) is float and c.value != 0.0}
        inside = {id(c) for c in table}
        found += [f"{path}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) is float
                  and id(n) not in inside
                  and (n.value in values
                       or _significant_digits(n.value) >= 15)]
    return found


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


def test_fn_read_only_where_checked():
    assert _fn_reads(_trees()) == []


def test_family_read_only_in_specs():
    assert _family_reads(_trees()) == []


def test_spec_functions_called_only_in_parse_function():
    assert _spec_function_calls(_trees()) == []


# (source, hits in cli.py, hits in any other module of the package)
@pytest.mark.parametrize("source, cli_hits, other_hits", [
    ("def parse_function(spec):\n    return spec.functions()", [], [2]),
    ("def parse_function(spec):\n    return spec.functions()\n"
     "def _job_tfs(args):\n"
     "    f, fp = parse_spec(args.function).functions()", [4], [2, 4]),
    ("f, fp = FunctionSpec('exp', (1.0,)).functions()", [1], [1]),
    ("f, fp = parse_function(spec)\nnames = spec.functions", [], []),
])
def test_spec_function_call_scan_sees(source, cli_hits, other_hits):
    tree = ast.parse(source)
    for path, hits in (("src/quadcert/cli.py", cli_hits),
                       ("src/quadcert/bounds.py", other_hits),
                       ("tests/test_cli.py", [])):
        assert _spec_function_calls({Path(path): tree}) \
            == [f"{path}:{n}" for n in hits]


def test_hkind_read_only_where_moments_are_decided():
    assert _hkind_reads(_trees()) == []


@pytest.mark.parametrize("source, hits", [
    ("if h.kind is HKind.CUSTOM:\n    pass", [1]),
    ("k = classes.HKind.POWER\nj = quadcert.HKind.CONSTANT", [1, 2]),
    ("from .classes import HKind, HModulus", []),
    ("kinds = tuple(HKind)", []),
])
def test_hkind_read_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _hkind_reads({Path("src/quadcert/bounds.py"): tree}) \
        == [f"src/quadcert/bounds.py:{n}" for n in hits]
    for reader in _HKIND_READERS:
        assert _hkind_reads({Path("src/quadcert", reader): tree}) == []
    assert _hkind_reads({Path("tests/test_bounds.py"): tree}) == []


def test_bound_names_only_in_the_table():
    trees = _trees()
    assert _bound_name_literals(trees) == []
    # the scan sees the whole table
    assert len(_table_keys(trees[_BOUNDS_PY])) == 9


_SCAN_TABLE = 'BOUNDS = {"one": 1, "two": 2}'


@pytest.mark.parametrize("path, source, hits", [
    ("bounds.py", _SCAN_TABLE + '\nname = "one"\n'
                                'x = evaluate_bound("two", tf, rp)', [2]),
    ("bounds.py", _SCAN_TABLE + '\nif name == "two":\n    y = "one bound"',
     [2]),
    ("cli.py", 'p.add_argument("--bound", default="one")\n'
               'p.add_argument("--kinds", default="two")\n'
               'if args.bound == "one":\n    pass', [2, 3]),
    ("cli.py", 'res = bnd.evaluate_bound("one", tf, rp)', [1]),
])
def test_bound_name_scan_sees(path, source, hits):
    # a bounds.py source brings its own table, which replaces the bare one
    trees = {_BOUNDS_PY: ast.parse(_SCAN_TABLE),
             Path("src/quadcert", path): ast.parse(source),
             Path("tests/test_cli.py"): ast.parse(source)}
    assert _bound_name_literals(trees) \
        == [f"src/quadcert/{path}:{n}" for n in hits]


def test_no_overflow_rule_in_cli():
    assert _cli_overflow_rules(_trees()) == []


@pytest.mark.parametrize("source, hits", [
    ('raise OverflowError(f"the {name} bound is not finite")', [1, 1]),
    ("if not ok:\n    raise OverflowError", [2]),
    ('msg = "the power-mean bound is not finite"', [1]),
    ("try:\n    pass\nexcept OverflowError as exc:\n    print(exc)", []),
])
def test_cli_overflow_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _cli_overflow_rules({Path("src/quadcert/cli.py"): tree}) \
        == [f"src/quadcert/cli.py:{n}" for n in hits]
    assert _cli_overflow_rules({Path("src/quadcert/bounds.py"): tree}) == []


def test_only_listed_imports():
    assert _unlisted_imports(_trees()) == []


def test_qk15_constants_only_in_their_table():
    trees = _trees()
    assert _qk15_copies(trees) == []
    # the scan sees the whole table: the pairs' 7 abscissae, 7 Kronrod and
    # 3 nonzero Gauss weights, and the centre's 2 weights
    table = _qk15_table(trees[Path("src/quadcert/oracle.py")])
    assert len([c for c in table if isinstance(c, ast.Constant)
                and c.value != 0.0]) == 19


@pytest.mark.parametrize("source, hits", [
    ("_K15_CENTRE = (0.20948214108472782801, 0.5)\n"
     "_KC = 0.20948214108472782801", [2]),
    ("_K15_PAIRS = ((0.25, 0.75, 0.0),)\nw = 0.75 * x", [2]),
    ("_K15_CENTRE = (0.25, 0.5)\nw = 0.123456789012345", [2]),
    ("_K15_PAIRS = ((0.25, 0.75, 0.0),)\n"
     "((_X1, _K1, _G1),) = _K15_PAIRS\nw = 0.5 * _K1 + 0.0", []),
])
def test_qk15_copy_scan_sees(source, hits):
    tree = ast.parse(source)
    path = "src/quadcert/oracle.py"
    assert _qk15_copies({Path(path): tree}) == [f"{path}:{n}" for n in hits]
    assert _qk15_copies({Path("src/quadcert/bounds.py"): tree}) == []


@pytest.mark.parametrize("source, hits", [
    ("v = h.fn(t)", ["src/quadcert/bounds.py:1"]),
    ("g = cert.h.fn", ["src/quadcert/bounds.py:1"]),
    ("v = h.evaluator(t)", []),
    ("v = fn(t)", []),
])
def test_fn_read_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _fn_reads({Path("src/quadcert/bounds.py"): tree}) == hits
    assert _fn_reads({Path("src/quadcert/moments.py"): tree}) \
        == [hit.replace("bounds", "moments") for hit in hits]
    for caller in _FN_CALLERS:
        assert _fn_reads({Path("src/quadcert", caller): tree}) == []
    assert _fn_reads({Path("tests/test_bounds.py"): tree}) == []


@pytest.mark.parametrize("source, hits", [
    ('if tf.spec.family == "pow":\n    pass', ["src/quadcert/classes.py:1"]),
    ("name = spec.family", ["src/quadcert/classes.py:1"]),
    ("ok = spec.decides_from(tf.a)", []),
    ("family = 1", []),
])
def test_family_read_scan_sees(source, hits):
    tree = ast.parse(source)
    assert _family_reads({Path("src/quadcert/classes.py"): tree}) == hits
    assert _family_reads({Path("src/quadcert/cli.py"): tree}) \
        == [hit.replace("classes", "cli") for hit in hits]
    for reader in _FAMILY_READERS:
        assert _family_reads({Path("src/quadcert", reader): tree}) == []
    assert _family_reads({Path("tests/test_classes.py"): tree}) == []


@pytest.mark.parametrize("source, src_hits, test_hits", [
    ("import scipy.integrate", ["scipy"], ["scipy"]),
    ("from mpmath import mp", ["mpmath"], ["mpmath"]),
    ("import pytest", ["pytest"], []),
    ("from workloads import build", ["workloads"], []),
    ("import math, numpy as np", [], []),
    ("from quadcert.arrays import power", [], []),
    ("from . import oracle", [], []),
])
def test_unlisted_import_scan_sees(source, src_hits, test_hits):
    tree = ast.parse(source)
    for path, hits in (("src/quadcert/bounds.py", src_hits),
                       ("tests/test_bounds.py", test_hits),
                       ("bench/run.py", test_hits)):
        assert _unlisted_imports({Path(path): tree}) \
            == [f"{path}:1: {top}" for top in hits]


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
