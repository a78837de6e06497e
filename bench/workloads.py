"""Seeded workloads for the quadcert benchmark.

Each generator takes the seed and returns the list of tasks one pass runs.
The composition of a pass (how many tasks of each kind, grid shapes, the
share of invalid jobs) is fixed; the seed only draws the numbers inside
each task, so a claim can be rechecked on a held-out seed.

Every task carries its own output check against a reference computed here,
independently of the package: closed-form integrals and means, exact rule
errors, and documented exit codes.  The package is called only through
module attributes looked up at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from quadcert import bounds, classes, cli, means, oracle
from quadcert.moments import RuleParams

WORKLOADS = ("grid", "oracle", "custom")

ORACLE_TOL = 1e-12
# A grid row's lhs is |rule - oracle mean|; the mean is requested to 1e-12
# of the width-normalised integral, so allow ten times that plus rounding.
LHS_ATOL = 1e-11
LHS_RTOL = 1e-13
# The CLI's own soundness slack (cli._SOUND_SLACK) is the documented gate.
SOUND_SLACK = 1e-9
IDENTITY_MAX = 1e-9


@dataclass
class Task:
    """One unit of timed work and the check of its output.

    ``check(output, ref)`` returns None when the output is correct and a
    short reason otherwise.  ``known`` marks a known defect of the package:
    a failure whose reason contains that text still counts as failed, but
    does not make the run incorrect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], Optional[str]]
    ref: Any = None
    known: Optional[str] = None


class CliOutput(NamedTuple):
    """What one in-process CLI run produced."""

    code: int
    stdout: str


class EvalCounter:
    """Counts evaluations of the callables the benchmark supplies."""

    def __init__(self):
        self.n = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(x):
            v = fn(x)
            self.n += 1 if type(x) is float else np.size(x)
            return v
        return counted


@contextlib.contextmanager
def counting_cli_functions(counter: EvalCounter):
    """Count evaluations of the (f, f') pairs the CLI parses from specs."""
    original = cli.parse_function

    @functools.wraps(original)
    def parse_function(spec):
        f, fp = original(spec)
        return counter.wrap(f), counter.wrap(fp)

    cli.parse_function = parse_function
    try:
        yield
    finally:
        cli.parse_function = original


def build(workload: str, seed: int, counter: EvalCounter, make_tf=None):
    """The task list of one pass of ``workload`` for ``seed``.

    ``make_tf`` constructs TestFunctions; the benchmark passes a timed one.
    """
    make_tf = make_tf or classes.TestFunction
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    generate = {"grid": _grid_tasks, "oracle": _oracle_tasks,
               "custom": _custom_tasks}[workload]
    return generate(rng, counter, make_tf)


# ---------------------------------------------------------------------------
# Shared helpers


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _strata(rng, n):
    """n values in (0, 1), one drawn inside each of n equal strata."""
    return [(i + _u(rng, 0.05, 0.95)) / n for i in range(n)]


def _close(x, ref, atol, rtol=0.0):
    return abs(x - ref) <= atol + rtol * abs(ref)


def _cli_task(kind, argv, check, ref, known=None):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code
        return CliOutput(code, out.getvalue())
    return Task(kind, run, check, ref, known)


class Fn:
    """A function spec with an independent evaluator and exact mean."""

    def __init__(self, family, params):
        self.family, self.params = family, tuple(params)

    @property
    def spec(self):
        return f"{self.family}:" + ",".join(map(repr, self.params))

    def __call__(self, x):
        p = self.params
        if self.family == "poly":
            return math.fsum(c * x ** k for k, c in enumerate(p))
        if self.family == "exp":
            return math.exp(p[0] * x)
        return p[0] * x ** p[1]  # pow

    def mean(self, a, b):
        p = self.params
        if self.family == "poly":
            return math.fsum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                             for k, c in enumerate(p)) / (b - a)
        if self.family == "exp":
            k = p[0]
            return math.exp(k * a) * math.expm1(k * (b - a)) / (k * (b - a))
        beta, r = p
        return beta * (b ** (r + 1) - a ** (r + 1)) / ((r + 1) * (b - a))

    def rule_error(self, a, b, alpha, lam):
        rule = (lam * (alpha * self(a) + (1 - alpha) * self(b))
                + (1 - lam) * self(alpha * a + (1 - alpha) * b))
        return abs(rule - self.mean(a, b))


FAMILIES = ("poly", "exp", "pow")


def _convex_fn(rng, family):
    """A spec whose |f'|^q is nonnegative and convex on its interval.

    Nonnegative convex functions are h-convex for h(t) = t, t^s and 1, so
    every certificate the grid claims for them is true.
    """
    if family == "poly":
        a = _u(rng, 0.0, 1.0)
        fn = Fn("poly", [_u(rng, -1, 1), _u(rng, 0.1, 2), _u(rng, 0, 1),
                         _u(rng, 0, 1)])
    elif family == "exp":
        a = _u(rng, -1.0, 0.5)
        fn = Fn("exp", [_u(rng, 0.3, 2.0) * (1 if rng.random() < 0.5 else -1)])
    else:
        a = _u(rng, 0.0, 1.0)
        fn = Fn("pow", [_u(rng, 0.5, 2.0), _u(rng, 2.0, 3.0)])
    return fn, a, a + _u(rng, 0.5, 2.0)


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# grid: closed-form certification jobs through the CLI and the means module


def _check_rows(out, ref):
    """Shared check of a verify/sweep/compare CSV against exact errors."""
    code, text = out
    if code != 0:
        return f"exit {code}, expected 0"
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = list(itertools.product(ref["qs"], ref["alphas"], ref["lams"]))
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    fn, a, b = ref["fn"], ref["a"], ref["b"]
    for row, (q, alpha, lam) in zip(rows, expected):
        if (float(row["alpha"]), float(row["lambda"]), float(row["q"])) \
                != (alpha, lam, q):
            return f"row order differs at {row}"
        exact = fn.rule_error(a, b, alpha, lam)
        if "lhs" in row and not _close(float(row["lhs"]), exact,
                                       LHS_ATOL, LHS_RTOL):
            return f"lhs {row['lhs']} vs exact {exact!r}"
        for col in ref["bound_cols"]:
            rhs = float(row[col])
            if not exact <= rhs + SOUND_SLACK * (1.0 + rhs):
                return f"{col}={rhs!r} below exact error {exact!r}"
        # Read the flag by value: exp specs print it as 1/0, not true/false.
        if ref["command"] == "verify" and row["sound"] not in ("true", "1"):
            return f"row not sound: {row}"
        if ref["command"] == "compare":
            best = min(ref["bound_cols"], key=lambda c: float(row[c]))
            if float(row[row["argmin"]]) != float(row[best]):
                return f"argmin {row['argmin']} is not the smallest"
    return None


def _grid_job(rng, family, command, n_grid, n_q, bound="power-mean", h="t",
              concave=False):
    if concave:
        # |f'|^q = c x^gamma with gamma in (0, 1]: concave, so h-concave
        # for h(t) = t.
        q = 2.0
        fn = Fn("pow", [_u(rng, 0.5, 2.0), 1.0 + _u(rng, 0.3, 1.0) / q])
        a = _u(rng, 0.0, 0.5)
        b = a + _u(rng, 0.5, 2.0)
        qs = [q]
    else:
        fn, a, b = _convex_fn(rng, family)
        # Hoelder routes (compare includes one) need q > 1.
        low = 1.0 if bound == "power-mean" and command != "compare" else 1.5
        qs = sorted(_u(rng, low, 3.0) for _ in range(n_q))
    alphas = _strata(rng, n_grid)
    lams = _strata(rng, n_grid)
    argv = [command, "--function", fn.spec, "--interval", _fmt(a), _fmt(b),
            "--h", h, "--alpha-grid", *map(_fmt, alphas),
            "--lambda-grid", *map(_fmt, lams), "--q-grid", *map(_fmt, qs),
            "--seed", str(int(rng.integers(1000)))]
    if h == "t^s":
        argv += ["--s", _fmt(_u(rng, 0.3, 1.0))]
    if command == "compare":
        kinds = ["power-mean", "holder", "general-convex"]
        argv += ["--kinds", ",".join(kinds)]
        bound_cols = kinds
    else:
        argv += ["--bound", bound] + (["--concave"] if concave else [])
        bound_cols = ["rhs"]
    ref = dict(command=command, fn=fn, a=a, b=b, qs=qs, alphas=alphas,
               lams=lams, bound_cols=bound_cols)
    kind = f"{command}.{n_grid}x{n_grid}x{len(qs)}"
    return _cli_task(kind, argv, _check_rows, ref)


def _check_exit(out, ref):
    code, _ = out
    return None if code == ref else f"exit {code}, expected {ref}"


def _invalid_jobs(rng):
    """Configurations whose documented outcome is exit 2 (config error).

    The first three are known defects: the exception escapes main().
    """
    fn, a, b = _convex_fn(rng, "poly")
    q = _fmt(_u(rng, 1.5, 3.0))
    common = ["--function", fn.spec, "--interval", _fmt(a), _fmt(b)]
    argvs = [
        ["verify", *common, "--bound", "holder-concave", "--q-grid", q],
        ["hadamard", *common, "--variant", "s_convex", "--h", "t"],
        ["verify", "--function", "pow:1,0.5", "--interval", "-1", "1"],
        ["verify", *common, "--h", "t^s"],
        ["sweep", "--function", fn.spec, "--interval", _fmt(b), _fmt(a)],
        ["verify", "--function", "bogus:" + q],
        ["verify", *common, "--h", "1/t", "--bound", "holder",
         "--q-grid", q],
    ]
    known = ["raised ClassMismatch", "raised ClassMismatch",
             "raised ZeroDivisionError"]
    known += [None] * (len(argvs) - len(known))
    return [_cli_task("invalid", argv, _check_exit, 2, k)
            for argv, k in zip(argvs, known)]


def _prop_task(rng, which, n_grid):
    a = _u(rng, 0.2, 1.0)
    b = a + _u(rng, 0.5, 2.0)
    if which == 1:
        q = (1.0, 1.5, 2.0)[int(rng.integers(3))]
        p = None
    else:
        q = _u(rng, 1.5, 3.0)
        p = q / (q - 1.0)
    s = _u(rng, 0.1, 0.9) / q
    grid = list(itertools.product(_strata(rng, n_grid), _strata(rng, n_grid)))

    def run():
        if which == 1:
            check = means.proposition1_check
            return [check(a, b, al, lm, q, s) for al, lm in grid]
        check = means.proposition2_check
        return [check(a, b, al, lm, p, q, s) for al, lm in grid]

    def check(results, ref):
        for res, (al, lm) in zip(results, grid):
            # f(t) = t^(s+1): exact rule error from closed-form powers
            rule = (lm * (al * a ** (s + 1) + (1 - al) * b ** (s + 1))
                    + (1 - lm) * (al * a + (1 - al) * b) ** (s + 1))
            mean = (b ** (s + 2) - a ** (s + 2)) / ((s + 2) * (b - a))
            exact = abs(rule - mean)
            if not _close(res.lhs, exact, 1e-12 * (1 + abs(mean))):
                return f"lhs {res.lhs!r} vs exact {exact!r}"
            if not (res.holds and
                    exact <= res.rhs + SOUND_SLACK * (1.0 + res.rhs)):
                return f"proposition {which} fails at ({al}, {lm})"
        return None if len(results) == len(grid) else "missing grid points"

    return Task(f"prop{which}.{n_grid}x{n_grid}", run, check)


def _control_tasks(rng):
    """One 3x3 verify job and one 3x3 proposition grid.

    The oracle and custom workloads carry these so that every layer has
    spans, and a nonzero self time, on every workload; together they take
    about 1% of a pass.
    """
    return [_grid_job(rng, "poly", "verify", 3, 1), _prop_task(rng, 1, 3)]


# Fixed composition of one grid pass: (count, command, grid, q values, kw).
_GRID_MIX = (
    (1, "verify", 41, 3, {}),
    (2, "verify", 21, 2, {"bound": "holder"}),
    (2, "sweep", 21, 2, {"h": "t^s"}),
    (2, "verify", 21, 2, {"h": "1"}),
    (2, "verify", 9, 2, {"h": "t^s"}),
    (2, "sweep", 9, 2, {}),
    (2, "verify", 9, 1, {"bound": "holder-concave", "concave": True}),
    (6, "compare", 9, 1, {}),
    (10, "verify", 5, 1, {}),
    (5, "verify", 5, 1, {"h": "t^s"}),
    (5, "sweep", 5, 1, {"h": "1"}),
)


def _grid_tasks(rng, counter, make_tf):
    tasks = []
    families = itertools.cycle(FAMILIES)
    for count, command, n_grid, n_q, kw in _GRID_MIX:
        for _ in range(count):
            tasks.append(_grid_job(rng, next(families), command, n_grid, n_q,
                                   **kw))
    for which in (1, 1, 1, 2, 2, 2):
        tasks.append(_prop_task(rng, which, 11))
    tasks.extend(_invalid_jobs(rng))
    return tasks


# ---------------------------------------------------------------------------
# oracle: integrals with closed-form values


def _check_integral(res, ref):
    allowed = max(ORACLE_TOL, 1e-14 * abs(ref))
    if not _close(res.value, ref, allowed):
        return f"value {res.value!r} vs closed form {ref!r}"
    return None


def _integral_task(kind, g, a, b, ref, break_points=(), known=None):
    def run():
        return oracle.integrate_adaptive(g, a, b, ORACLE_TOL,
                                         break_points=break_points)
    return Task(kind, run, _check_integral, ref, known)


def _smooth_integrals(rng, counter, n):
    tasks = []
    for i in range(n):
        a = _u(rng, -1.0, 1.0)
        b = a + _u(rng, 0.5, 2.0)
        c = _u(rng, 0.5, 2.0)
        family = i % 4
        if family == 0:
            k = _u(rng, 0.3, 2.0) * (1 if rng.random() < 0.5 else -1)
            g = lambda t, c=c, k=k: c * np.exp(k * t)
            ref = c * math.exp(k * a) * math.expm1(k * (b - a)) / k
        elif family == 1:
            p = [_u(rng, -2.0, 2.0) for _ in range(4)]
            g = lambda t, p=p: p[0] + t * (p[1] + t * (p[2] + t * p[3]))
            ref = math.fsum(p[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                            for k in range(4))
        elif family == 2:
            w, phi = _u(rng, 0.5, 3.0), _u(rng, 0.0, math.pi)
            g = lambda t, c=c, w=w, phi=phi: c * np.cos(w * t + phi)
            ref = c * (math.sin(w * b + phi) - math.sin(w * a + phi)) / w
        else:
            k = _u(rng, 0.5, 2.0)
            g = lambda t, k=k: 1.0 / (1.0 + (k * t) ** 2)
            ref = (math.atan(k * b) - math.atan(k * a)) / k
        kind = ("exp", "cubic", "cos", "rational")[family]
        tasks.append(_integral_task(f"smooth.{kind}", counter.wrap(g),
                                    a, b, ref))
    return tasks


def _kink_task(kind, rng, counter, u, with_break, known=None):
    """|t - m| e^t on a seeded [a, b], the kink m at relative position u."""
    a = _u(rng, -1.0, 0.5)
    b = a + _u(rng, 0.5, 2.0)
    m = a + (b - a) * u
    g = counter.wrap(lambda t, m=m: np.abs(t - m) * np.exp(t))

    def anti(t):  # antiderivative of (t - m) e^t
        return (t - m - 1.0) * math.exp(t)

    ref = anti(a) + anti(b) - 2.0 * anti(m)
    return _integral_task(kind, g, a, b, ref, (m,) if with_break else (),
                          known)


# Whether the oracle finds a kink that is not passed as a break point
# depends on where it sits relative to the bisection points of [a, b].  The
# outermost Kronrod nodes leave a blind gap of about 0.43% of a rule's
# width at each of its ends, and within about 1% of an end the error
# estimate is already optimistic.  Near the coarse edges (a, b, the
# midpoint) a kink in a gap makes the oracle report convergence with an
# estimate near 1e-17 while the value is off by 1e-8 to 1e-5; near the
# rule edges at the depth where it stops, the value misses by a few times
# the tolerance.  Random positions hit one of these about 2% of the time,
# which made the failure count depend on the seed.  So the plain kinks sit
# at fractions j/d of the interval with odd d <= KINK_MAX_DENOMINATOR: the
# binary expansion of j/d is periodic, so at every depth the kink stays at
# least 1/d of a rule's width from its ends.  On 3,000 random intervals
# their error stayed below 0.06 of the tolerance (with d up to 99: 2.4
# times the tolerance).  The seed draws a, b, d and j within each stratum.
# KINK_BLIND_GAPS holds two ranges, next to a and next to the midpoint,
# where the known defect shows on every seed.
KINK_MAX_DENOMINATOR = 15
KINK_BLIND_GAPS = ((0.0006, 0.0018), (0.5003, 0.5007))


def _odd_fraction(rng, x):
    """A fraction j/d near x in (0, 1), d odd, 3 <= d <= 15."""
    d = 2 * int(rng.integers(1, (KINK_MAX_DENOMINATOR + 1) // 2)) + 1
    return min(max(round(x * d), 1), d - 1) / d


def _kink_integrals(rng, counter, n):
    """n kinks with the break point passed, n - 2 plain ones, 2 blind ones."""
    tasks = [_kink_task("kink.break", rng, counter,
                        (i + _u(rng, 0.1, 0.9)) / n, True)
             for i in range(n)]
    plain = n - len(KINK_BLIND_GAPS)
    tasks += [_kink_task("kink.plain", rng, counter,
                         _odd_fraction(rng, (i + _u(rng, 0.1, 0.9)) / plain),
                         False)
              for i in range(plain)]
    # Known defect: the kink sits in a blind gap and is missed.
    tasks += [_kink_task("kink.blind", rng, counter, _u(rng, lo, hi), False,
                         known="vs closed form")
              for lo, hi in KINK_BLIND_GAPS]
    return tasks


def _singular_integrals(rng, counter, n):
    tasks = []
    for i in range(n):
        b = _u(rng, 0.5, 2.0)
        c = _u(rng, 0.5, 2.0)
        family = i % 3
        if family == 0:
            g = lambda t, c=c: c / np.sqrt(t)
            ref, kind = 2.0 * c * math.sqrt(b), "inv_sqrt"
        elif family == 1:
            g = lambda t, c=c: c * np.log(t)
            ref, kind = c * (b * math.log(b) - b), "log"
        else:
            g = lambda t, c=c: c * t ** 0.2
            ref, kind = c * b ** 1.2 / 1.2, "pow0.2"
        tasks.append(_integral_task(f"singular.{kind}", counter.wrap(g),
                                    0.0, b, ref))
    return tasks


def _convex_testfunction(rng, counter, make_tf, h, family, q=1.0):
    """(TestFunction, Fn, uncounted f') with f and |f'|^q nonnegative convex."""
    a = _u(rng, 0.0, 1.0)
    b = a + _u(rng, 0.5, 2.0)
    if family == "exp":
        k = _u(rng, 0.3, 2.0) * (1 if rng.random() < 0.5 else -1)
        fn = Fn("exp", [k])
        f = lambda x, k=k: np.exp(k * x)
        fp = lambda x, k=k: k * np.exp(k * x)
    else:
        c = [_u(rng, 0.0, 1.0), _u(rng, 0.1, 2.0), _u(rng, 0.0, 1.0),
             _u(rng, 0.0, 1.0)]
        fn = Fn("poly", c)
        f = lambda x, c=c: c[0] + x * (c[1] + x * (c[2] + x * c[3]))
        fp = lambda x, c=c: c[1] + x * (2 * c[2] + x * 3 * c[3])
    cert = classes.ClassCertificate(classes.ClassKind.H_CONVEX, h, q)
    return make_tf(counter.wrap(f), counter.wrap(fp), a, b, cert), fn, fp


def _mean_tasks(rng, counter, make_tf, n):
    tasks = []
    for i in range(n):
        tf, fn, _ = _convex_testfunction(rng, counter, make_tf,
                                         classes.HModulus.identity(),
                                         FAMILIES[i % 2])
        ref = fn.mean(tf.a, tf.b)

        def check(value, ref):
            ok = _close(value, ref, ORACLE_TOL, 1e-14)
            return None if ok else f"mean {value!r} vs closed form {ref!r}"

        tasks.append(Task("mean_value",
                          functools.partial(lambda tf: oracle.mean_value(tf),
                                            tf), check, ref))
    return tasks


def _identity_tasks(seed, n):
    def check(residual, ref):
        return None if residual <= ref else f"residual {residual!r}"
    return [Task("identity",
                 functools.partial(
                     lambda tf, rp: oracle.lemma_identity_residual(tf, rp),
                     tf, rp),
                 check, IDENTITY_MAX)
            for tf, rp in cli._identity_corpus(seed, n)]


def _hadamard_variants(rng):
    """(variant, modulus, factor on the mean in the chain's middle term)."""
    s = _u(rng, 0.3, 1.0)
    V, H = oracle.HadamardVariant, classes.HModulus
    return [(V.CLASSICAL, H.identity(), 1.0), (V.CLASSICAL, H.identity(), 1.0),
            (V.S_CONVEX, H.power(s), 1.0), (V.S_CONVEX, H.power(s), 1.0),
            (V.P_FUNCTION, H.constant(), 2.0),
            (V.P_FUNCTION, H.constant(), 2.0),
            (V.GODUNOVA_LEVIN, H.reciprocal(), 4.0),
            (V.H_CONVEX, H.power(s), 1.0)]


def _hadamard_task(tf, fn, variant, factor):
    def run():
        return oracle.hadamard_check(tf, variant)

    def check(res, ref):
        if not res.holds:
            return f"{variant.value} chain does not hold"
        if not _close(res.middle, ref, factor * ORACLE_TOL, 1e-14):
            return f"middle {res.middle!r} vs closed form {ref!r}"
        return None

    return Task(f"hadamard.{variant.value}", run, check,
                factor * fn.mean(tf.a, tf.b))


def _oracle_tasks(rng, counter, make_tf):
    seed = int(rng.integers(2 ** 31))
    tasks = (_smooth_integrals(rng, counter, 40)
             + _kink_integrals(rng, counter, 20)
             + _singular_integrals(rng, counter, 12)
             + _mean_tasks(rng, counter, make_tf, 10)
             + _identity_tasks(seed, 30))
    for i, (variant, h, factor) in enumerate(_hadamard_variants(rng)):
        tf, fn, _ = _convex_testfunction(rng, counter, make_tf, h,
                                         FAMILIES[i % 2])
        tasks.append(_hadamard_task(tf, fn, variant, factor))
    return tasks + _control_tasks(rng)


# ---------------------------------------------------------------------------
# custom: benchmark-supplied moduli through the quadrature fallbacks


def _custom_moduli(counter):
    """(name, h, raw h, named twin or None, integral of h, grid side).

    Every h here satisfies h(t) >= t, so nonnegative convex |f'|^q is
    h-convex for it.  The first three are scalar-only.  The two moduli with
    an infinite slope at 0 make each bound call cost ~3,000 evaluations;
    the smooth two cost ~300.  The costly ones get the larger (alpha,
    lambda) grids so that the median task lies inside their group.
    """
    s = 0.7
    H = classes.HModulus
    fns = [("sqrt", math.sqrt, H.power(0.5), 2.0 / 3.0, 6),
           ("pow", lambda t: math.pow(t, s), H.power(s), 1.0 / (1.0 + s), 6),
           ("sin", lambda t: math.sin(0.5 * math.pi * t), None, 2.0 / math.pi,
            3),
           ("quad", lambda t: t * (2.0 - t), None, 2.0 / 3.0, 3)]
    return [(name, H.custom(counter.wrap(fn)), fn, twin, h_int, side)
            for name, fn, twin, h_int, side in fns]


def _bound_task(tf, fn, twin_tf, alpha, lam, q):
    rp = RuleParams(alpha, lam, q)
    exact = fn.rule_error(tf.a, tf.b, alpha, lam)
    # Closed-form bound for the named modulus equal to this custom one.
    twin = bounds.bound_power_mean(twin_tf, rp).value if twin_tf else None

    def run():
        return bounds.bound_power_mean(tf, rp)

    def check(res, ref):
        exact, twin = ref
        if not exact <= res.value + SOUND_SLACK * (1.0 + res.value):
            return f"bound {res.value!r} below exact error {exact!r}"
        if twin is not None and not _close(res.value, twin, 1e-10, 1e-8):
            return f"bound {res.value!r} vs closed-form twin {twin!r}"
        return None

    return Task("bound.custom", run, check, (exact, twin))


def _certify_task(tf, fn_prime, h, q, expect_holds, seed):
    # 1,000 samples keep these below the costly bound calls, so that the
    # tail percentile falls inside the bound-call group: on a busy machine
    # the membership check's array code slowed far more than the bound calls
    # and the reference kernel (p95 spread 0.51 at 2,000 samples).
    def run():
        return classes.certify_membership(tf, n_samples=1000, seed=seed)

    def check(rep, ref):
        if rep.holds != ref:
            return f"holds={rep.holds}, expected {ref}"
        if not ref:
            # The witness must violate the class inequality by our own sums.
            x, y, al = rep.witness
            g = lambda v: abs(fn_prime(v)) ** q
            slack = g(al * x + (1 - al) * y) - (h(al) * g(x)
                                                 + h(1 - al) * g(y))
            if not slack > 0.0:
                return f"witness {rep.witness} is not a violation"
        return None

    return Task("certify.custom", run, check, expect_holds)


def _custom_tasks(rng, counter, make_tf):
    tasks = []
    for i, (name, h, h_raw, twin_h, h_int, side) in enumerate(
            _custom_moduli(counter)):
        q = (1.0, 2.0)[i % 2]
        tf, fn, fp = _convex_testfunction(rng, counter, make_tf, h,
                                          FAMILIES[i % 2], q)
        twin_tf = None
        if twin_h is not None:
            twin_cert = classes.ClassCertificate(
                classes.ClassKind.H_CONVEX, twin_h, q)
            twin_tf = classes.TestFunction(tf.f, tf.f_prime, tf.a, tf.b,
                                           twin_cert,
                                           skip_derivative_check=True)
        for alpha, lam in itertools.product(_strata(rng, side),
                                            _strata(rng, side)):
            tasks.append(_bound_task(tf, fn, twin_tf, alpha, lam, q))
        for _ in range(2):
            tasks.append(_certify_task(tf, fp, h_raw, q, True,
                                       int(rng.integers(1000))))

        def integral(h=h):
            return classes.h_integral_01(h)

        def check_integral(value, ref):
            ok = _close(value, ref, ORACLE_TOL, 1e-14)
            return None if ok else f"integral {value!r} vs {ref!r}"

        tasks.append(Task(f"h_integral.{name}", integral, check_integral,
                          h_int))
        hf, hfn, _ = _convex_testfunction(rng, counter, make_tf, h,
                                          FAMILIES[(i + 1) % 2])
        tasks.append(_hadamard_task(hf, hfn, oracle.HadamardVariant.H_CONVEX,
                                    1.0))
    # False claims: h(t) = t^2 < t, which no positive g satisfies.
    square = lambda t: t * t
    narrow = classes.HModulus.custom(counter.wrap(square))
    for family in FAMILIES[:2]:
        tf, _, fp = _convex_testfunction(rng, counter, make_tf, narrow,
                                         family)
        tasks.append(_certify_task(tf, fp, square, 1.0, False,
                                   int(rng.integers(1000))))
    return tasks + _control_tasks(rng)
