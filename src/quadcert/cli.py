"""Batch front end: verify, sweep, compare, identity, hadamard.

Exit codes: 0 all checks sound, 1 a violation (including a rejected
certificate), 2 configuration error, 3 oracle failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import bounds as bnd
from . import oracle
from .classes import (ClassCertificate, ClassKind, HModulus, TestFunction,
                      certify_membership)
from .errors import ConfigError, NonFiniteSample, ToleranceNotReached
from .moments import RuleParams

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3

MEMBERSHIP_SAMPLES = 2000  # f' samples per job of verify and sweep

SWEEP_COLUMNS = ["alpha", "lambda", "q", "s", "p",
                 "bound_kind", "branch", "lhs", "rhs", "ratio"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return "%.17g" % x


def _json_value(x):
    """x for the JSON writer; a non-finite float, which JSON has no token
    for, becomes the text the CSV prints."""
    return _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def parse_function(spec: str):
    """Parse an inline function spec into (f, f_prime).

    Supported forms:
      poly:c0,c1,...   f(x) = sum c_k x^k
      pow:beta,r       f(x) = beta * x^r          (r > 0, domain x >= 0)
      exp:k            f(x) = exp(k x)

    Every parameter must be a finite float.
    """
    try:
        name, _, rest = spec.partition(":")
        params = [float(c) for c in rest.split(",")]
        if not all(map(math.isfinite, params)):
            raise ValueError
        if name == "poly":
            dcoeffs = [k * c for k, c in enumerate(params)][1:] or [0.0]

            def poly(c):
                return lambda x: sum(ck * x ** k for k, ck in enumerate(c))
            return poly(params), poly(dcoeffs)
        if name == "pow":
            beta, r = params
            if r <= 0.0:
                raise ValueError
            return (lambda x: beta * x ** r,
                    lambda x: beta * r * x ** (r - 1.0))
        if name == "exp":
            (k,) = params
            return (lambda x: np.exp(k * x), lambda x: k * np.exp(k * x))
    except (ValueError, TypeError):
        pass
    raise ConfigError(f"cannot parse function spec {spec!r}")


_FIXED_MODULI = {"t": HModulus.identity, "1": HModulus.constant,
                 "1/t": HModulus.reciprocal}


def parse_modulus(spec: str, s: Optional[float]) -> HModulus:
    """The modulus named by --h; s is --s, which only t^s reads."""
    if spec == "t^s":
        if s is None:
            raise ConfigError("--h t^s needs --s")
        return HModulus.power(s)
    if spec not in _FIXED_MODULI:
        raise ConfigError(f"unknown modulus {spec!r}")
    if s is not None:
        # t, 1 and 1/t do not read s; each value would repeat the rows
        raise ConfigError(f"--s applies only to --h t^s, not --h {spec}")
    return _FIXED_MODULI[spec]()


def _job_tfs(args, blocks, kinds):
    """Yield the TestFunction of each (q, s) in blocks and class in kinds.
    The spec is parsed once; the first TestFunction checks f' against f,
    the later ones share its (f, f', a, b) and skip the check."""
    f, fp = parse_function(args.function)
    a, b = args.interval
    for i, ((q, s), kind) in enumerate(itertools.product(blocks, kinds)):
        cert = ClassCertificate(kind, parse_modulus(args.h, s), q)
        yield TestFunction(f, fp, a, b, cert, skip_derivative_check=i > 0)


def _on_grid(evaluate, q: float, alphas, lams):
    """evaluate(RuleParams) on the whole grid; after an error, again point by
    point in row order, so the error raised is the first failing row's."""
    try:
        return evaluate(RuleParams(alphas, lams, q))
    except Exception:
        for alpha, lam in itertools.product(alphas.ravel().tolist(),
                                            lams.tolist()):
            evaluate(RuleParams(alpha, lam, q))
        raise


def _axes(args, default_q: float):
    """The alpha column, the lambda row and the q values of a grid command."""
    grids = [(args.alpha_grid, [0.5]), (args.lambda_grid, [1.0 / 3.0]),
             (args.q_grid, [default_q])]
    alphas, lams, qs = (default if given is None else given
                        for given, default in grids)
    if not (alphas and lams and qs):
        raise ConfigError("empty parameter grid")
    return np.array(alphas)[:, None], np.array(lams), qs


def _iter_blocks(args, kind: ClassKind, rejected_branch: str):
    """Yield each (q, s) block: per column one value or an array over it.
    A rejected block evaluates its bound too, so a configuration error
    shows; the first certified block takes the mean and lhs for the job."""
    alphas, lams, qs = _axes(args, 1.0)
    blocks = list(itertools.product(qs, args.s))
    lhs = None  # |rule - mean|, which no q or s moves
    for (q, s), tf in zip(blocks, _job_tfs(args, blocks, [kind])):
        rep = certify_membership(tf, MEMBERSHIP_SAMPLES, seed=args.seed)

        def evaluate(rp):
            res = bnd.evaluate_bound(args.bound, tf, rp)
            # power-mean uses no conjugate exponent
            return {"p": None if args.bound == "power-mean" else rp.p,
                    "branch": res.branch, "rhs": res.value}
        block = _on_grid(evaluate, q, alphas, lams)
        if not rep.holds:
            block = {"branch": rejected_branch, "sound": False}
        else:
            if lhs is None:  # f runs in row order; the first bad row raises
                mean = oracle.mean_value(tf)
                lhs = abs(oracle.rule_value(tf, alphas, lams) - mean)
            rhs = block["rhs"]
            positive = rhs > 0.0
            block.update(lhs=lhs, margin=rhs - lhs,
                         ratio=np.where(positive,
                                        lhs / np.where(positive, rhs, 1.0),
                                        np.where(lhs == 0.0, 0.0, np.inf)),
                         sound=bnd.is_sound(lhs, rhs))
        yield {"alpha": alphas, "lambda": lams, "q": q, "s": s,
               "bound_kind": args.bound, **block}


def _rows(block, columns, fmt=lambda value: value):
    """The block's rows, lists in grid order; each value formatted once."""
    shape = np.broadcast_shapes(*map(np.shape, block.values()))
    cells = np.empty((*shape, len(columns)), dtype=object)
    for j, c in enumerate(columns):
        cells[..., j] = fmt(block.get(c))
    return cells.reshape(-1, len(columns)).tolist()


def _csv_text(value):
    """value's cells as _fmt prints them, in its shape; floats in one pass."""
    if not isinstance(value, np.ndarray):
        return np.array(_fmt(value), dtype=object)
    if value.dtype.kind == "U":  # names
        return value.astype(object)
    if value.dtype.kind == "b":
        return np.array(["false", "true"], dtype=object)[value.astype(int)]
    cells = value.ravel().tolist()
    return np.array(("\n".join(["%.17g"] * len(cells)) % tuple(cells))
                    .split("\n"), dtype=object).reshape(value.shape)


def _write_table(blocks, columns, fmt, out_path):
    """Write the rows of every block as CSV or as a JSON list of objects."""
    if fmt == "csv":  # each distinct object, such as an axis, formatted once
        objs = {id(v): v for b in blocks for v in map(b.get, columns)}
        texts = {key: _csv_text(value) for key, value in objs.items()}
        rows = (",".join(row) for b in blocks
                for row in _rows(b, columns, lambda v: texts[id(v)]))
        text = "\n".join([",".join(columns), *rows])
    else:
        cell = np.frompyfunc(_json_value, 1, 1)
        text = json.dumps([dict(zip(columns, row)) for b in blocks
                           for row in _rows(b, columns, cell)],
                          indent=2, sort_keys=True)
    if not out_path:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror}")


def cmd_verify(args) -> int:
    columns = ["alpha", "lambda", "q", "s", "branch",
               "lhs", "rhs", "margin", "sound"]
    if args.concave and args.bound != "holder-concave":
        raise ConfigError(f"--concave declares an h-concave certificate, "
                          f"and {args.bound} needs an h-convex one")
    kind = ClassKind.H_CONCAVE if args.concave else ClassKind.H_CONVEX
    blocks = list(_iter_blocks(args, kind, "rejected"))
    _write_table(blocks, columns, args.format, args.out)
    bad = next((b for b in blocks if not np.all(b["sound"])), None)
    if bad is not None:
        row = next(r for r in _rows(bad, columns) if not r[-1])
        print("first violation:", dict(zip(columns, row)), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep(args) -> int:
    blocks = list(_iter_blocks(args, bnd.certificate_class(args.bound), ""))
    _write_table(blocks, SWEEP_COLUMNS, args.format, args.out)
    sound = all(np.all(block["sound"]) for block in blocks)
    return EXIT_OK if sound else EXIT_VIOLATION


def cmd_compare(args) -> int:
    kind_names = args.kinds.split(",")
    for name in kind_names:  # a repeated kind would repeat its column
        if kind_names.count(name) > 1:
            raise ConfigError(f"--kinds names {name!r} more than once")
    blocks = []
    alphas, lams, qs = _axes(args, 2.0)
    grid = list(itertools.product(qs, args.s))
    classes = list(dict.fromkeys(map(bnd.certificate_class, kind_names)))
    job = _job_tfs(args, grid, classes)
    for q, s in grid:
        tfs = {kind: next(job) for kind in classes}

        def evaluate(rp):
            # |f'|^q of an exp: spec, a numpy float, overflows to inf with a
            # warning where a poly: spec's raises OverflowError; a bound
            # that is not finite is that error too
            with np.errstate(over="ignore", invalid="ignore"):
                values = [bnd.evaluate_bound(
                    name, tfs[bnd.certificate_class(name)], rp,
                    sup_f4=args.sup_f4).value for name in kind_names]
            for name, value in zip(kind_names, values):
                if not np.isfinite(value).all():
                    raise OverflowError(f"the {name} bound is not finite")
            argmin = np.array(kind_names)[  # a tie: the kind listed first
                np.argmin(np.broadcast_arrays(*values), axis=0)]
            return {"alpha": alphas, "lambda": lams, "q": q, "s": s,
                    "p": rp.p, **dict(zip(kind_names, values)),
                    "argmin": argmin}
        blocks.append(_on_grid(evaluate, q, alphas, lams))
    columns = ["alpha", "lambda", "q", "s", "p"] + kind_names + ["argmin"]
    _write_table(blocks, columns, args.format, args.out)
    return EXIT_OK


def _identity_corpus(seed: int, n_cases: int):
    rng = np.random.default_rng(seed)
    cases = []
    q = 1.0
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), q)
    while len(cases) < n_cases:
        family = len(cases) % 3
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        if family == 0:
            coeffs = rng.uniform(-3.0, 3.0, 5)
            a = float(rng.uniform(-2.0, 0.0))
            b = a + float(rng.uniform(0.5, 3.0))
            f, fp = parse_function("poly:" + ",".join(map(str, coeffs)))
        elif family == 1:
            k = float(rng.uniform(-2.0, 2.0))
            a = float(rng.uniform(-1.0, 0.5))
            b = a + float(rng.uniform(0.5, 2.0))
            f, fp = parse_function(f"exp:{k}")
        else:
            beta = float(rng.uniform(0.2, 3.0))
            r = float(rng.uniform(1.2, 3.0))
            a = float(rng.uniform(0.0, 1.0))
            b = a + float(rng.uniform(0.5, 2.0))
            f, fp = parse_function(f"pow:{beta},{r}")
        tf = TestFunction(f, fp, a, b, cert, skip_derivative_check=True)
        cases.append((tf, RuleParams(alpha, lam, q)))
    return cases


def cmd_identity(args) -> int:
    if args.cases < 1:
        raise ConfigError("--cases must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must be at least 0")
    worst = 0.0
    for tf, rp in _identity_corpus(args.seed, args.cases):
        worst = max(worst, oracle.lemma_identity_residual(tf, rp))
    print(f"max identity residual over {args.cases} cases: {worst:.3e}")
    return EXIT_OK if worst <= 1e-9 else EXIT_VIOLATION


def cmd_hadamard(args) -> int:
    (tf,) = _job_tfs(args, [(1.0, args.s)], [ClassKind.H_CONVEX])
    variant = oracle.HadamardVariant(args.variant)
    res = oracle.hadamard_check(tf, variant)
    print(f"left={_fmt(res.left)} middle={_fmt(res.middle)} "
          f"right={_fmt(res.right)} holds={res.holds}")
    return EXIT_OK if res.holds else EXIT_VIOLATION


def _add_function_args(p):
    """Flags that build the test function and its certificate modulus."""
    p.add_argument("--function", required=True,
                   help="poly:c0,c1,... | pow:beta,r | exp:k")
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                   default=(0.0, 1.0))
    p.add_argument("--h", default="t", help="modulus: t | t^s | 1 | 1/t")


def _add_grid_args(p):
    """Flags of the grid commands verify, sweep and compare."""
    # defaults are shared by every parse of the one parser: keep them immutable
    p.add_argument("--s", type=float, nargs="+", default=(None,),
                   help="one or more values of s for --h t^s")
    p.add_argument("--alpha-grid", type=float, nargs="*", default=None)
    p.add_argument("--lambda-grid", type=float, nargs="*", default=None)
    p.add_argument("--q-grid", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)


@functools.cache  # built once: every parse reuses it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadcert",
        description="Certified error bounds for blended quadrature rules")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [("verify", cmd_verify), ("sweep", cmd_sweep),
                     ("compare", cmd_compare), ("hadamard", cmd_hadamard)]:
        p = sub.add_parser(name)
        _add_function_args(p)
        if name != "hadamard":
            _add_grid_args(p)
        if name in ("verify", "sweep"):
            p.add_argument("--bound", default="power-mean",
                           choices=list(bnd.GENERAL_BOUNDS))
        p.set_defaults(func=fn)
    sub.choices["verify"].add_argument(
        "--concave", action="store_true",
        help="declare an h-concave certificate, which --bound "
             "holder-concave needs and no other bound takes")
    pc = sub.choices["compare"]
    pc.add_argument("--kinds", required=True,
                    help="comma list of: " + ",".join(
                        [*bnd.GENERAL_BOUNDS, *bnd.PRIOR_BOUNDS])
                    + "; the argmin column ranks the printed values and is "
                      "not a soundness verdict")
    pc.add_argument("--sup-f4", type=float, default=None)
    ph = sub.choices["hadamard"]
    ph.add_argument("--s", type=float, default=None)
    ph.add_argument("--variant", default="classical",
                    choices=[v.value for v in oracle.HadamardVariant])
    pi = sub.add_parser("identity")
    pi.add_argument("--cases", type=int, default=200)
    pi.add_argument("--seed", type=int, default=0)
    pi.set_defaults(func=cmd_identity)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"config error: overflow: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ToleranceNotReached, NonFiniteSample) as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
