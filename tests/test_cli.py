"""End-to-end tests for the command-line front end."""

import collections
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import (bounds, classes, cli, errors, moments, oracle, specs,
                      tanhsinh)
from quadcert.errors import ToleranceNotReached
from quadcert.moments import RuleParams


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# the bounds that take the certified h: the choices of --bound
H_BOUNDS = [name for name, b in bounds.BOUNDS.items() if b.takes == "h"]

VERIFY_SQUARE = [
    "verify", "--function", "poly:0,0,1", "--interval", "0", "1",
]


class TestVerify:
    def test_simpson_exact_square(self, capsys):
        code, out, err = run_cli(capsys, VERIFY_SQUARE)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [*rows[0]] == ["alpha", "lambda", "q", "s", "branch",
                              "lhs", "rhs", "margin", "sound"]
        assert len(rows) == 1
        assert float(rows[0]["lhs"]) <= 1e-12
        assert rows[0]["sound"] == "true"

    def test_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, VERIFY_SQUARE + [
            "--alpha-grid", "0.25", "0.5", "0.75",
            "--lambda-grid", "0.0", "0.5", "1.0",
            "--q-grid", "1.0", "2.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 18
        assert all(r["sound"] == "true" for r in rows)

    def test_rejected_certificate(self, capsys):
        # |2x| on [-1, 1] is convex, so the concavity claim is rejected
        code, out, err = run_cli(capsys, [
            "verify", "--function", "poly:0,0,1",
            "--interval", "-1", "1", "--concave",
            "--bound", "holder-concave", "--q-grid", "2.0"])
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["branch"] == "rejected"
        assert rows[0]["sound"] == "false"
        assert "first violation" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, VERIFY_SQUARE + ["--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("alpha,lambda,q,s,branch")

    def test_unwritable_out(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, VERIFY_SQUARE + [
            "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exp_sound_flag_is_boolean(self, capsys, fmt):
        # exp: specs evaluate through numpy, so the comparison behind the
        # flag yields a numpy.bool_ unless it is cast
        code, out, _ = run_cli(capsys, [
            "verify", "--function", "exp:1", "--interval", "0", "1",
            "--format", fmt])
        assert code == 0
        if fmt == "json":
            assert json.loads(out)[0]["sound"] is True
        else:
            assert list(csv.DictReader(io.StringIO(out)))[0]["sound"] == "true"

    def test_steep_exact_derivative_accepted(self, capsys):
        # exp: declares the exact f'; steepness alone is no config error
        code, out, err = run_cli(capsys, [
            "verify", "--function", "exp:250", "--interval", "0", "1"])
        assert (code, err) == (0, "")
        assert list(csv.DictReader(io.StringIO(out)))[0]["sound"] == "true"

    def test_s_grid(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--function", "pow:1,1.5", "--interval", "0", "1",
            "--h", "t^s", "--s", "0.25", "0.5"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["s"] for r in rows] == ["0.25", "0.5"]


class TestSweep:
    ARGS = [
        "sweep", "--function", "exp:1", "--interval", "0", "1",
        "--alpha-grid", "0.25", "0.5", "--lambda-grid", "0.0", "1.0",
        "--q-grid", "1.0",
    ]

    def test_header_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == \
            "alpha,lambda,q,s,p,bound_kind,branch,lhs,rhs,ratio"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        for r in rows:
            assert 0.0 <= float(r["ratio"]) <= 1.0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS)
        _, out2, _ = run_cli(capsys, self.ARGS)
        assert out1 == out2

    def test_json_parity(self, capsys):
        _, out_csv, _ = run_cli(capsys, self.ARGS)
        _, out_json, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
        rows_json = json.loads(out_json)
        assert len(rows_csv) == len(rows_json)
        for rc, rj in zip(rows_csv, rows_json):
            assert float(rc["rhs"]) == pytest.approx(rj["rhs"], rel=1e-15)
            assert float(rc["ratio"]) == pytest.approx(rj["ratio"], rel=1e-15)

    def test_json_strict_non_finite(self, capsys):
        # lhs is rounding noise (4.4e-16) where the bound is exactly 0, so
        # the ratio is inf; JSON has no token for it and prints the CSV text
        argv = ["sweep", "--function", "poly:3.3", "--interval", "0.1", "0.7",
                "--alpha-grid", "0.3", "0.7", "0.9",
                "--lambda-grid", "0.3", "0.6"]
        code, out_csv, _ = run_cli(capsys, argv)
        assert code == 0
        code, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0

        def reject(token):
            raise ValueError(f"not a JSON token: {token}")
        rows_json = json.loads(out_json, parse_constant=reject)
        rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
        assert [r["ratio"] for r in rows_csv].count("inf") == 3
        for rc, rj in zip(rows_csv, rows_json, strict=True):
            if rc["ratio"] == "inf":
                assert rj["ratio"] == "inf"
            else:
                assert float(rc["ratio"]) == rj["ratio"]

    def test_p_column(self, capsys):
        # p is derived from q for the Hoelder bounds; power-mean uses none
        _, out, _ = run_cli(capsys, self.ARGS)
        assert {r["p"] for r in csv.DictReader(io.StringIO(out))} == {""}
        code, out, _ = run_cli(capsys, [
            "sweep", "--function", "exp:1", "--interval", "0", "1",
            "--bound", "holder", "--q-grid", "1.5", "4.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(float(r["q"]), float(r["p"])) for r in rows] == \
            [(1.5, 3.0), (4.0, 4.0 / 3.0)]

    def test_violation_exit(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--function", "poly:0,0,1", "--interval", "-1", "1",
            "--bound", "holder-concave", "--q-grid", "2.0"])
        assert code == 1

    @pytest.mark.parametrize("spec, interval, expected", [
        ("poly:0,0,1", ["-1", "1"], 1),     # |f'|^2 = 4x^2 is convex
        ("pow:1,1.4", ["0.1", "1.6"], 0),   # |f'|^2 = 1.96x^0.8 is concave
    ], ids=["convex", "concave"])
    def test_bound_names_the_class(self, capsys, spec, interval, expected):
        # holder-concave certifies an h-concave |f'|^q; no flag declares it
        code, _, err = run_cli(capsys, [
            "sweep", "--function", spec, "--interval", *interval,
            "--bound", "holder-concave", "--q-grid", "2"])
        assert code == expected, err


class TestCompare:
    def test_holder_matches_prior_simpson(self, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", "--function", "pow:1,1.6", "--interval", "0", "1",
            "--h", "t^s", "--s", "0.6", "--q-grid", "2.0",
            "--kinds", "holder,simpson-holder"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        v1 = float(rows[0]["holder"])
        v2 = float(rows[0]["simpson-holder"])
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert rows[0]["argmin"] in ("holder", "simpson-holder")

    def test_new_bound_dominates_prior_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", "--function", "pow:1,1.5", "--interval", "0", "1",
            "--h", "t^s", "--s", "0.5", "--q-grid", "2.0",
            "--lambda-grid", "0.0",
            "--kinds", "power-mean,midpoint-power-mean"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["power-mean"]) <= \
            float(rows[0]["midpoint-power-mean"]) * (1.0 + 1e-12)
        assert rows[0]["argmin"] == "power-mean"

    @pytest.mark.parametrize("kinds", [
        "general-convex,power-mean,classical-simpson",
        "classical-simpson,power-mean,general-convex"])
    def test_argmin_tie_first_listed(self, capsys, kinds):
        # f' = 0 and sup |f^(4)| = 0: every bound is exactly 0
        argv = ["compare", "--function", "poly:1", "--interval", "0", "1",
                "--q-grid", "2", "--sup-f4", "0", "--kinds", kinds]
        first = kinds.split(",")[0]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert {row[k] for k in kinds.split(",")} == {"0"}
        assert row["argmin"] == first
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        assert [r["argmin"] for r in json.loads(out)] == [first]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_kind(self, capsys, fmt):
        # it printed the power-mean column twice in CSV and once in JSON
        code, out, err = run_cli(capsys, [
            "compare", "--function", "poly:0,0,1",
            "--kinds", "power-mean,holder,power-mean", "--q-grid", "2",
            "--alpha-grid", "0.5", "--lambda-grid", "0.5", "--format", fmt])
        assert (code, out) == (2, "")
        assert err == ("config error: --kinds names 'power-mean' "
                       "more than once\n")

    def test_classical_simpson_needs_sup(self, capsys):
        code, _, err = run_cli(capsys, [
            "compare", "--function", "poly:0,0,0,0,1",
            "--interval", "0", "1", "--kinds", "classical-simpson"])
        assert code == 2

    def test_classical_simpson_with_sup(self, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", "--function", "poly:0,0,0,0,1",
            "--interval", "0", "1", "--q-grid", "1.0",
            "--kinds", "classical-simpson", "--sup-f4", "24"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["classical-simpson"]) == \
            pytest.approx(24.0 / 2880.0, rel=1e-12)

    # each bound at an (alpha, lambda) where it holds, with what it reads
    KINDS = {
        "power-mean": ["--alpha-grid", "0.3", "--lambda-grid", "0.6"],
        "holder": ["--alpha-grid", "0.3", "--lambda-grid", "0.6"],
        "holder-concave": ["--alpha-grid", "0.3", "--lambda-grid", "0.6"],
        "general-convex": ["--alpha-grid", "0.3", "--lambda-grid", "0.6"],
        "midpoint-power-mean": ["--lambda-grid", "0"],
        "midpoint-holder": ["--lambda-grid", "0"],
        "simpson-holder": [],
        "trapezoid-holder": ["--lambda-grid", "1"],
        "classical-simpson": ["--sup-f4", "24"],
    }

    def test_kinds_cover_the_table(self):
        assert list(self.KINDS) == list(bounds.BOUNDS)

    @pytest.mark.parametrize("name", KINDS)
    def test_every_bound_by_name(self, capsys, name):
        code, out, err = run_cli(capsys, [
            "compare", "--function", "pow:1,1.5", "--interval", "0", "1",
            "--h", "t^s", "--s", "0.5", "--q-grid", "2",
            "--kinds", name, *self.KINDS[name]])
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert math.isfinite(float(rows[0][name]))


    def test_mixed_classes(self, capsys):
        # power-mean reads an h-convex certificate and holder-concave an
        # h-concave one; each column is what its bound prints alone
        common = ["--function", "pow:1,1.4", "--interval", "0.1", "1.6",
                  *EDGE_GRID, "--q-grid", "2"]
        code, out, err = run_cli(capsys, [
            "compare", *common, "--kinds", "power-mean,holder-concave"])
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        code, out, err = run_cli(capsys, [
            "verify", *common, "--concave", "--bound", "holder-concave"])
        assert code == 0, err
        assert [r["holder-concave"] for r in rows] == \
            [r["rhs"] for r in csv.DictReader(io.StringIO(out))]
        code, out, err = run_cli(capsys, [
            "compare", *common, "--kinds", "power-mean"])
        assert code == 0, err
        assert [r["power-mean"] for r in rows] == \
            [r["power-mean"] for r in csv.DictReader(io.StringIO(out))]


class TestCompareReadsOnlyFPrime:
    """compare's bounds read f' alone, so it does not check f' against
    finite differences of f: what only that check refused prints."""

    @pytest.mark.parametrize("spec, a, b", [
        ("exp:1", 30.0, 30.000001), ("poly:0,0,1", 1.0, 1.000001)])
    def test_narrow_interval_prints_its_bound(self, capsys, spec, a, b):
        # rounding f(x +- h) swamps the finite difference here, and verify
        # exits 2 with "interval too narrow to check f'"
        code, out, err = run_cli(capsys, [
            "compare", "--function", spec, "--interval", repr(a), repr(b),
            "--kinds", "power-mean"])
        assert (code, err) == (0, "")
        (row,) = csv.DictReader(io.StringIO(out))
        # compare's defaults: h = t, q = 2, alpha = 1/2, lambda = 1/3
        cert = classes.ClassCertificate(classes.ClassKind.H_CONVEX,
                                        classes.HModulus.identity(), 2.0)
        tf = classes.TestFunction(*cli.parse_function(spec), a, b, cert,
                                  skip_derivative_check=True,
                                  spec=specs.parse_spec(spec))
        want = bounds.evaluate_bound("power-mean", tf,
                                     RuleParams(0.5, 1.0 / 3.0, 2.0))
        assert row["power-mean"] == "%.17g" % want.value

    def test_f_prime_not_real_at_a_named(self, capsys):
        # f' = 0.5x^-0.5 is complex at a = -1 and undefined at 0; the
        # derivative check met 0 first and raised ZeroDivisionError
        code, out, err = run_cli(capsys, [
            "compare", "--function", "pow:1,0.5", "--interval", "-1", "1",
            "--kinds", "power-mean"])
        assert (code, out, err) == (
            2, "", "config error: f' is not real at the end a=-1.0\n")

    def test_classical_simpson_reads_neither_f_nor_f_prime(self, capsys):
        # exp(1000 x) overflows at the points the derivative check would
        # difference, and the bound is (b - a)^2 sup|f''''| / 2880 alone
        code, out, err = run_cli(capsys, [
            "compare", "--kinds", "classical-simpson", "--sup-f4", "1",
            "--function", "exp:1000", "--interval", "0", "1"])
        assert (code, err) == (0, "")
        assert out == ("alpha,lambda,q,s,p,classical-simpson,argmin\n"
                       "0.5,0.33333333333333331,2,,2,%.17g,classical-simpson"
                       "\n" % (1.0 / 2880.0))


class TestConfigErrors:
    # intervals narrow next to |x|, where rounding f(x +- h) swamps the
    # difference of an exact f': "interval too narrow to check f' at x=...:
    # rounding can move the finite difference by up to ...", not a wrong f'
    ROUNDING = [
        *(["verify", "--function", "poly:0,0,1", "--interval", "1", b]
          for b in ("1.0000000001", "1.000000001", "1.00000001",
                    "1.0000001", "1.000001")),
        *(["verify", "--function", "exp:1", "--interval", "100", b]
          for b in ("100.000001", "100.00000001")),
    ]
    # |f'(1)|^3 of exp:300, a numpy float, overflows to inf
    COMPARE_OVERFLOW = ["compare", "--function", "exp:300", "--interval", "0",
                        "1", "--q-grid", "3", "--kinds",
                        "power-mean,general-convex"]
    CASES = [
        ["verify", "--function", "nope:1"],
        ["verify", "--function", "poly:0,0,1", "--alpha-grid"],
        ["verify", "--function", "poly:0,0,1", "--h", "t^s"],
        ["verify", "--function", "poly:0,0,1", "--interval", "2", "1"],
        ["verify", "--function", "poly:0,0,1", "--h", "weird"],
        # mismatched derivative claim is impossible through the parser, but
        # a reciprocal modulus makes the power-mean moments diverge
        ["verify", "--function", "poly:0,0,1", "--h", "1/t"],
        ["identity", "--cases", "0"],
        # the Hoelder routes need q > 1 for the conjugate p; q defaults to 1
        ["verify", "--function", "poly:0,0,1", "--bound", "holder"],
        ["verify", "--function", "poly:0,0,1", "--q-grid", "nan"],
        ["verify", "--function", "poly:0,0,1", "--q-grid", "inf"],
        ["verify", "--function", "poly:0,0,1", "--interval", "0", "inf"],
        ["hadamard", "--function", "poly:0,0,1", "--interval", "0", "inf"],
        ["compare", "--function", "poly:0,0,1", "--kinds", "bogus"],
        # x^2 overflows the float range on a finite interval
        ["verify", "--function", "poly:0,0,1", "--interval", "0", "1e200"],
        # --s on a modulus that does not read it
        ["verify", "--function", "poly:0,0,1", "--s", "0.3", "0.5"],
        ["sweep", "--function", "poly:0,0,1", "--h", "1", "--s", "0.3"],
        ["compare", "--function", "poly:0,0,1", "--h", "1/t", "--s", "0.5",
         "--kinds", "power-mean"],
        ["hadamard", "--function", "poly:0,0,1", "--s", "0.5"],
        # an output file that cannot be opened
        ["verify", "--function", "poly:0,0,1", "--out", "/nonexistent/x.csv"],
        # non-finite function parameters
        ["verify", "--function", "pow:1,nan"],
        ["verify", "--function", "poly:nan"],
        ["verify", "--function", "exp:nan"],
        ["verify", "--function", "poly:0,inf"],
        ["verify", "--function", "pow:nan,2"],
        # finite parameters, but f overflows to inf on the interval
        ["verify", "--function", "poly:0,0,0,1e308", "--interval", "0", "2"],
        # a seed numpy's generator refuses
        ["verify", "--function", "poly:0,0,1", "--seed", "-1"],
        ["sweep", "--function", "poly:0,0,1", "--seed", "-1"],
        ["identity", "--seed", "-1"],
        # |f'|^q = (2x)^2000 overflows the float range on [0, 1]
        ["verify", "--function", "poly:0,0,1", "--q-grid", "2000"],
        ["sweep", "--function", "poly:0,0,1", "--q-grid", "2000"],
        # a non-finite bound on the fourth derivative
        ["compare", "--function", "poly:0,0,1", "--kinds",
         "classical-simpson", "--sup-f4", "nan"],
        ["compare", "--function", "poly:0,0,1", "--kinds",
         "classical-simpson", "--sup-f4", "inf"],
        # intervals too narrow for the derivative check's step to move x
        ["verify", "--function", "poly:0,0,1", "--interval", "0", "1e-320"],
        ["verify", "--function", "poly:0,0,1", "--interval", "1",
         "1.0000000000000002"],
        # f overflows at a derivative check point (no numpy warning either:
        # pytest turns one into an error)
        ["verify", "--function", "exp:1000", "--interval", "0", "1"],
        ["hadamard", "--function", "exp:800", "--interval", "0", "1"],
        *ROUNDING,
        COMPARE_OVERFLOW,
    ]

    @pytest.mark.parametrize("argv", CASES,
                             ids=[str(i) for i in range(len(CASES))])
    def test_exit_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("bound", ["power-mean", "holder"])
    def test_concave_needs_holder_concave(self, capsys, bound):
        # --concave with a bound that reads an h-convex certificate
        code, out, err = run_cli(capsys, [
            "verify", "--function", "pow:1,1.4", "--interval", "0.1", "1.6",
            "--q-grid", "2", "--concave", "--bound", bound])
        assert (code, out, err) == (
            2, "", f"config error: --concave declares an h-concave "
            f"certificate, and {bound} needs an h-convex one\n")

    @pytest.mark.parametrize("argv", ROUNDING,
                             ids=[argv[-1] for argv in ROUNDING])
    def test_rounding_named(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert re.fullmatch(r"config error: interval too narrow to check f' "
                            r"at x=\S+: rounding can move the finite "
                            r"difference by up to \S+, and it misses f' by "
                            r"only \S+\n", err)

    @pytest.mark.parametrize("argv", [
        ["verify"], ["sweep"], ["sweep", "--bound", "holder", "--q-grid", "2"],
        ["compare", "--kinds", "general-convex"],
        ["compare", "--kinds", "holder,midpoint-power-mean", "--lambda-grid",
         "0"],
        # alpha = 1 puts the holder node and the holder-concave left
        # midpoint on a, which each bound reads before |f'(a)|
        ["verify", "--bound", "holder", "--q-grid", "2", "--alpha-grid", "1",
         "--lambda-grid", "0"],
        ["verify", "--bound", "holder-concave", "--concave", "--q-grid", "2",
         "--alpha-grid", "1", "--lambda-grid", "0"],
        ["compare", "--kinds", "holder", "--q-grid", "2", "--alpha-grid", "1",
         "--lambda-grid", "0"]],
        ids=lambda argv: "-".join(argv[:3:2]))
    def test_undefined_end_named(self, capsys, argv):
        # the bounds read |f'(a)| and f' = 0.5x^-0.5 divides by zero at 0
        code, out, err = run_cli(capsys, [
            *argv, "--function", "pow:1,0.5", "--interval", "0", "1"])
        assert (code, out, err) == (
            2, "", "config error: f' is undefined at the end a=0.0\n")

    def test_classical_simpson_reads_no_f_prime(self, capsys):
        # (b - a)^2 sup|f''''| / 2880 has no |f'| term, so an f' that is
        # undefined at a = 0 does not stop it
        code, out, err = run_cli(capsys, [
            "compare", "--function", "pow:1,0.5", "--interval", "0", "1",
            "--kinds", "classical-simpson", "--sup-f4", "24",
            "--lambda-grid", "0.3333333333333333"])
        assert (code, err) == (0, "")
        assert "%.17g" % (1.0 ** 2 * 24.0 / 2880.0) == "0.0083333333333333332"
        assert out == ("alpha,lambda,q,s,p,classical-simpson,argmin\n"
                       "0.5,0.33333333333333331,2,,2,0.0083333333333333332,"
                       "classical-simpson\n")

    def test_unknown_kind_named(self, capsys):
        code, out, err = run_cli(capsys, [
            "compare", "--function", "poly:0,0,1", "--kinds", "bogus"])
        assert (code, out, err) == (
            2, "", "config error: unknown bound 'bogus'\n")

    def test_configuration_before_user_code(self, capsys):
        # two faults: the rule is off midpoint-power-mean's fixed point, and
        # f' = 0.5x^-0.5 is undefined at a = 0; the rule is checked first
        code, out, err = run_cli(capsys, [
            "compare", "--function", "pow:1,0.5", "--interval", "0", "1",
            "--h", "t^s", "--s", "0.5", "--q-grid", "2",
            "--kinds", "midpoint-power-mean"])
        assert (code, out, err) == (
            2, "", "config error: midpoint-power-mean is fixed at "
                   "alpha=0.5, lambda=0.0\n")

    @pytest.mark.parametrize("argv, line", [
        (["compare", "--kinds", "power-mean,general-convex"],
         "f' is not real at the end a=-2.0"),
        (["hadamard", "--h", "1/t", "--variant", "godunova_levin"],
         "f is not real at x=-1.5"),
    ], ids=["compare", "hadamard"])
    def test_not_real_named(self, capsys, argv, line):
        # f = x^1.5 and f' = 1.5x^0.5 are complex on [-2, -1]; compare reads
        # f'(a) first and the Hadamard chain f at the midpoint
        code, out, err = run_cli(capsys, [
            *argv, "--function", "pow:1,1.5", "--interval", "-2", "-1"])
        assert (code, out, err) == (2, "", f"config error: {line}\n")

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_nan_derivative_named(self, capsys, command):
        # f' = 1.5x^0.5 is NaN on a numpy array of negative x; it was called
        # an overflow, or a scalar retry ended in a TypeError
        code, out, err = run_cli(capsys, [
            command, "--function", "pow:1,1.5", "--interval", "-2", "-1"])
        assert (code, out) == (2, "")
        assert err == "config error: f' is NaN at a sampled point\n"

    def test_compare_overflow_named(self, capsys):
        code, out, err = run_cli(capsys, self.COMPARE_OVERFLOW)
        assert (code, out, err) == (
            2, "", "config error: overflow: the power-mean bound is not "
                   "finite\n")

    @pytest.mark.parametrize("argv, bound", [
        (["verify"], "power-mean"),
        (["sweep", "--bound", "holder"], "holder"),
        (["compare", "--kinds", "general-convex"], "general-convex"),
    ], ids=["verify", "sweep", "compare"])
    def test_float_power_overflow_named(self, capsys, argv, bound):
        # |f'(a)| = 0.5/sqrt(1e-300) = 5e149, a Python float whose cube,
        # d_a ** q in the bound, overflows with a bare OverflowError
        code, out, err = run_cli(capsys, [
            *argv, "--function", "pow:1,0.5", "--interval", "1e-300", "1",
            "--q-grid", "3"])
        assert (code, out, err) == (
            2, "", f"config error: overflow: the {bound} bound is not "
                   f"finite\n")

    @pytest.mark.parametrize("argv, line", [
        (["verify", "--function", "poly:0,0,1", "--interval", "0", "1e200"],
         "f is not finite near x=8.333333333333333e+198"),
        (["sweep", "--function", "poly:0,0,0,1", "--interval", "1e120",
          "2e120"], "f is not finite near x=1.0833333333333334e+120"),
        # compare reads f' alone, and (1e200)^2 overflows in 3x^2 at a
        (["compare", "--function", "pow:1,3", "--interval", "1e200", "2e200",
          "--kinds", "power-mean"],
         "f' is not finite at the end a=1e+200"),
        (["hadamard", "--function", "poly:0,0,1", "--interval", "0",
          "1e200"], "f is not finite near x=8.333333333333333e+198"),
        # the derivative check passes; the oracle's mean meets x^2 past the
        # float range first
        (["verify", "--function", "poly:0,0,1", "--interval", "0",
          "1.4e154"], "f is not finite at x=1.394018759784569e+154"),
        # 1145.8^100 at the last check point is finite, 1250^100 is not
        (["hadamard", "--function", "poly:" + "0," * 100 + "1",
          "--interval", "0", "1250"], "f is not finite at the end b=1250.0"),
    ], ids=["verify", "sweep", "compare", "hadamard", "verify-mean",
            "hadamard-end"])
    def test_float_overflow_of_f_named(self, capsys, argv, line):
        # x ** k of a poly: or pow: spec raises OverflowError on a Python
        # float; the derivative check and TestFunction.sample name f or f'
        # and x
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"config error: {line}\n")

    @pytest.mark.parametrize("spec", ["pow:1,0", "pow:1,-0.5"])
    def test_pow_needs_positive_exponent(self, capsys, spec):
        code, out, err = run_cli(capsys, ["verify", "--function", spec])
        assert (code, out, err) == (
            2, "", f"config error: cannot parse function spec {spec!r}\n")


@st.composite
def _singular_pow_argv(draw):
    """A verify, sweep or compare job on pow:beta,r with 0 < r < 1 on
    [a, b], a = 0 or 0 < a < 1, its alpha grid holding 0 and 1."""
    real = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    a = draw(st.sampled_from([0.0]) | real)
    b = a + draw(st.floats(0.5, 2.0))
    r = draw(real)
    h = draw(st.sampled_from(["t", "t^s", "1", "1/t"]))
    argv = ["--function", f"pow:{draw(st.floats(0.5, 2.0))!r},{r!r}",
            "--interval", repr(a), repr(b), "--h", h,
            "--alpha-grid", "0", "1",
            *map(repr, draw(st.lists(real, max_size=2))),
            "--lambda-grid", *map(repr, draw(st.lists(
                st.floats(0.0, 1.0), min_size=1, max_size=2))),
            "--q-grid", draw(st.sampled_from(["1", "2", "3.5"]))]
    if h == "t^s":
        argv += ["--s", repr(draw(st.floats(0.1, 1.0)))]
    command = draw(st.sampled_from(["verify", "sweep", "compare"]))
    if command == "verify":
        bound = draw(st.sampled_from(
            ["power-mean", "holder", "holder-concave"]))
        argv += ["--bound", bound]
        if bound == "holder-concave":
            argv.append("--concave")
    elif command == "sweep":
        argv += ["--bound", draw(st.sampled_from(
            ["holder", "holder-concave"]))]
    else:
        argv += ["--kinds", ",".join(draw(st.lists(
            st.sampled_from(H_BOUNDS),
            min_size=1, max_size=3, unique=True)))]
    return [command, *argv]


@st.composite
def _straddling_pow_compare_argv(draw):
    """A compare job on pow:beta,r over [a, b], a < 0 <= b, on a grid whose
    alpha = 1 and, where b = -a, alpha = 0.5 put a node on a and on 0."""
    a = -draw(st.floats(0.1, 2.0))
    b = draw(st.sampled_from([0.0, -a]) | st.floats(0.0, 2.0))
    r = draw(st.sampled_from([1.0, 2.0, 3.0])
             | st.floats(0.0, 3.0, exclude_min=True))
    h = draw(st.sampled_from(["t", "t^s", "1", "1/t"]))
    argv = ["compare", "--function", f"pow:{draw(st.floats(0.5, 2.0))!r},"
            f"{r!r}", "--interval", repr(a), repr(b), "--h", h,
            "--alpha-grid", "0", "0.5", "1", "--lambda-grid",
            *map(repr, draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                     max_size=2))),
            "--q-grid", draw(st.sampled_from(["1", "2", "3.5"])),
            "--kinds", ",".join(draw(st.lists(st.sampled_from(H_BOUNDS),
                                              min_size=1, max_size=3,
                                              unique=True)))]
    if h == "t^s":
        argv += ["--s", repr(draw(st.floats(0.1, 1.0)))]
    return argv


class TestSampledPoints:
    """f and f' are read at points through TestFunction.sample, so a
    division by zero or a complex value there exits 2 with one line."""

    @settings(max_examples=100, deadline=None)
    @given(argv=_straddling_pow_compare_argv())
    # a derivative check point lands on 0 here
    @example(argv=["compare", "--function", "pow:1.5,0.5", "--interval",
                   "-0.5", "0.5", "--kinds", "holder,general-convex",
                   "--q-grid", "2"])
    def test_compare_below_zero(self, argv):
        """pow:beta,r on [a, b] with a < 0 <= b: f' is complex below 0 for
        most r, and undefined at 0 for r < 1.  compare reads f' at points
        only, so every such job exits 0, or 2 with one "config error:"
        line; verify and sweep still difference f and are left out, as in
        test_documented_exit."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert re.fullmatch(r"config error: [^\n]*\n", err.getvalue())

    @settings(max_examples=100, deadline=None)
    @given(argv=_singular_pow_argv())
    def test_documented_exit(self, argv):
        """pow:beta,r with 0 < r < 1 on [a, b], a = 0 or 0 < a < 1: f' is
        undefined at 0 and steep near it, and alpha = 1 puts the node on a.
        Every such job exits 0, 1 or 2, and 2 with one "config error:" line.
        a < 0 is left out: there f is complex, and a derivative check point
        of verify or sweep can land on 0, where f' raises a
        ZeroDivisionError that escapes main; the benchmark pins that
        traceback (ROADMAP item 1).  compare, which runs no such check,
        takes a < 0 in test_compare_below_zero."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert re.fullmatch(r"config error: [^\n]*\n", err.getvalue())


# alpha on both sides of 1/2 by one ulp and at the ends, lambda at the
# midpoint, Simpson and trapezoid values
EDGE_GRID = ["--alpha-grid", "0", "0.49999999999999994", "0.5",
             "0.5000000000000001", "1",
             "--lambda-grid", "0", "0.3333333333333333", "1"]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# file name -> (exit code, argv); the files hold the standard output
GOLDEN = {
    "verify_t.csv": (0, [
        "verify", "--function", "poly:0,1,0.5,0.3", "--interval", "0", "1.5",
        *EDGE_GRID, "--q-grid", "1", "2.5"]),
    "verify_t.json": (0, [
        "verify", "--function", "poly:0,1,0.5,0.3", "--interval", "0", "1.5",
        *EDGE_GRID, "--q-grid", "1", "2.5", "--format", "json"]),
    "verify_ts.csv": (0, [
        "verify", "--function", "exp:-1.3", "--interval", "-0.5", "1",
        "--h", "t^s", "--s", "0.4", "0.9", *EDGE_GRID, "--q-grid", "1", "2"]),
    "verify_1.csv": (0, [
        "verify", "--function", "pow:1.2,2.5", "--interval", "0.3", "1.8",
        "--h", "1", *EDGE_GRID, "--q-grid", "1.5"]),
    "verify_reciprocal.csv": (0, [
        "verify", "--function", "poly:0,1,0.5,0.3", "--interval", "0", "1.5",
        "--h", "1/t", "--alpha-grid", "0.3", "0.5", "--lambda-grid", "0"]),
    "verify_holder.csv": (0, [
        "verify", "--function", "poly:0.5,-1,0.5,0.25", "--interval", "1.5",
        "2.7", "--bound", "holder", *EDGE_GRID, "--q-grid", "1.5", "3"]),
    "verify_holder.json": (0, [
        "verify", "--function", "exp:0.8", "--interval", "0", "1.3",
        "--bound", "holder", *EDGE_GRID, "--q-grid", "2", "--format",
        "json"]),
    "verify_holder_concave.csv": (0, [
        "verify", "--function", "pow:1,1.4", "--interval", "0.1", "1.6",
        "--concave", "--bound", "holder-concave", *EDGE_GRID,
        "--q-grid", "2"]),
    "verify_rejected.csv": (1, [
        "verify", "--function", "poly:0,1,0,-1", "--interval", "-1", "1",
        *EDGE_GRID]),
    "verify_rejected.json": (1, [
        "verify", "--function", "poly:0,1,0,-1", "--interval", "-1", "1",
        *EDGE_GRID, "--format", "json"]),
    "sweep_ts.csv": (0, [
        "sweep", "--function", "exp:0.7", "--interval", "0", "2",
        "--h", "t^s", "--s", "0.5", *EDGE_GRID, "--q-grid", "1", "2"]),
    "sweep_holder.json": (0, [
        "sweep", "--function", "poly:0,1,0.5,0.3", "--interval", "0", "1.5",
        "--bound", "holder", *EDGE_GRID, "--q-grid", "1.5", "--format",
        "json"]),
    "sweep_rejected.csv": (1, [
        "sweep", "--function", "poly:0,1,0,-1", "--interval", "-1", "1",
        *EDGE_GRID]),
    "compare.csv": (0, [
        "compare", "--function", "pow:1,2.2", "--interval", "0.2", "1.2",
        *EDGE_GRID, "--q-grid", "2", "3",
        "--kinds", "power-mean,holder,general-convex"]),
    "compare.json": (0, [
        "compare", "--function", "exp:-0.6", "--interval", "0", "1",
        *EDGE_GRID, "--kinds", "holder,power-mean,general-convex",
        "--format", "json"]),
    "compare_prior.csv": (0, [
        "compare", "--function", "pow:1,1.5", "--interval", "0", "1",
        "--h", "t^s", "--s", "0.5", "--q-grid", "2", "--alpha-grid", "0.5",
        "--lambda-grid", "0",
        "--kinds", "midpoint-power-mean,power-mean,midpoint-holder"]),
}


class TestGoldenOutput:
    """Standard output byte for byte as committed in tests/golden."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_matches_file(self, capsys, name):
        code, argv = GOLDEN[name]
        got_code, out, _ = run_cli(capsys, argv)
        assert got_code == code
        assert out.encode() == (GOLDEN_DIR / name).read_bytes()

    def test_every_file_has_an_argv(self):
        assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


def _reference_rows(block, columns):
    """The block's rows cell by cell, each column broadcast on its own: an
    independent restatement of cli._rows, which fills one object array."""
    shape = np.broadcast_shapes(*map(np.shape, block.values()))
    cells = [np.broadcast_to(np.asarray(block.get(c), dtype=object),
                             shape).ravel().tolist() for c in columns]
    return list(zip(*cells))


def _reference_csv(blocks, columns):
    """The CSV of blocks with _fmt applied cell by cell: an independent
    restatement of the writer, which formats by column."""
    lines = [",".join(columns)]
    for block in blocks:
        lines += [",".join(map(cli._fmt, row))
                  for row in _reference_rows(block, columns)]
    return "\n".join(lines) + "\n"


def _reference_json(blocks, columns):
    """The JSON of blocks with _json_value applied cell by cell."""
    rows = [dict(zip(columns, map(cli._json_value, row)))
            for block in blocks for row in _reference_rows(block, columns)]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


class TestCsvWriter:
    """The CSV writer prints what _fmt prints cell by cell."""

    COLUMNS = ["alpha", "lambda", "q", "s", "p", "branch", "lhs", "rhs",
               "sound", "note"]

    def _blocks(self):
        alphas = np.array([0.0, -0.0, 0.1, 1.0])[:, None]
        lams = np.array([0.0, 1.0 / 3.0, 1.0])
        lhs = np.array([[0.1, -0.0, np.inf], [np.nan, 1e-300, -np.inf],
                        [2.0 / 3.0, 5e-324, 1.7976931348623157e308],
                        [-1.5, 0.0, 3.0]])
        rhs = lhs + 1.0
        return [
            {"alpha": alphas, "lambda": lams, "q": 2.5, "s": None,
             "p": 2.5 / 1.5, "branch": np.where(lhs > 0.5, "mid_order",
                                                "left_of_lower"),
             "lhs": lhs, "rhs": rhs, "sound": lhs <= rhs, "note": "x"},
            # a rejected block: no lhs, rhs or note, a Python False
            {"alpha": alphas, "lambda": lams, "q": 1.0, "s": 0.5,
             "branch": "rejected", "sound": False},
            # the same lhs object again, as a job's blocks share it
            {"alpha": alphas, "lambda": lams, "q": 3.0, "s": 0.5,
             "p": 1.5, "branch": np.full(lhs.shape, "right_of_upper"),
             "lhs": lhs, "rhs": rhs + 0.25, "sound": np.isfinite(lhs),
             "note": True},
        ]

    def test_blocks(self, capsys):
        blocks = self._blocks()
        cli._write_table(blocks, self.COLUMNS, "csv", None)
        out = capsys.readouterr().out
        assert out == _reference_csv(blocks, self.COLUMNS)
        # the cases are there: inf, -0, nan, empty cells, flags
        assert {"inf", "-inf", "-0", "nan", "true", "false", ""} <= set(
            out.replace("\n", ",").split(","))

    def test_blocks_json(self, capsys):
        """The same blocks as JSON: what json.dumps prints of the rows built
        cell by cell, non-finite floats as the CSV text and None as null."""
        blocks = self._blocks()
        cli._write_table(blocks, self.COLUMNS, "json", None)
        out = capsys.readouterr().out
        assert out == _reference_json(blocks, self.COLUMNS)
        rows = json.loads(out)
        assert len(rows) == 3 * 12
        assert {"inf", "-inf", "nan"} <= {r["lhs"] for r in rows}
        assert rows[12]["lhs"] is None and rows[12]["sound"] is False

    @pytest.mark.parametrize("name", ["verify_ts.csv", "sweep_ts.csv",
                                      "sweep_rejected.csv", "compare.csv",
                                      "verify_holder_concave.csv"])
    def test_jobs(self, capsys, monkeypatch, name):
        """A job's blocks, such as two q and two s values, print what the
        cell-by-cell reference prints, and each object is formatted once."""
        written, formatted = [], []
        write_table, csv_text = cli._write_table, cli._csv_text

        def capture(blocks, columns, fmt, out_path):
            written.append((blocks, columns))
            return write_table(blocks, columns, fmt, out_path)

        def counting_text(value):
            formatted.append(value)
            return csv_text(value)

        monkeypatch.setattr(cli, "_write_table", capture)
        monkeypatch.setattr(cli, "_csv_text", counting_text)
        code, argv = GOLDEN[name]
        got, out, _ = run_cli(capsys, argv)
        assert got == code
        ((blocks, columns),) = written
        assert out == _reference_csv(blocks, columns)
        ids = [id(value) for value in formatted]
        assert len(ids) == len(set(ids))
        if "lhs" in columns:  # a job's blocks share one lhs array
            assert len({id(b["lhs"]) for b in blocks if "lhs" in b}) <= 1


class TestFirstViolation:
    def test_row_past_the_first(self, capsys, monkeypatch):
        """verify names the first unsound row of the first unsound block,
        as the cell-by-cell reference builds it, also where that row is not
        the block's first."""
        written = []
        write_table, evaluate_bound = cli._write_table, bounds.evaluate_bound

        def capture(blocks, columns, fmt, out_path):
            written.append((blocks, columns))
            return write_table(blocks, columns, fmt, out_path)

        def unsound_late(name, tf, rp, **kw):
            # the q = 2 block's bound is -1 from alpha = 0.5 on
            res = evaluate_bound(name, tf, rp, **kw)
            if rp.q != 2.0:
                return res
            return dataclasses.replace(
                res, value=np.where(rp.alpha >= 0.5, -1.0, res.value))

        monkeypatch.setattr(cli, "_write_table", capture)
        monkeypatch.setattr(bounds, "evaluate_bound", unsound_late)
        code, _, err = run_cli(capsys, [*VERIFY_SQUARE, *EDGE_GRID,
                                        "--q-grid", "1", "2"])
        assert code == 1
        ((blocks, columns),) = written
        rows = _reference_rows(blocks[1], columns)
        i = next(i for i, row in enumerate(rows) if not row[-1])
        assert i == 6  # alpha = 0.5 is the third alpha, of three lambdas
        assert err == f"first violation: {dict(zip(columns, rows[i]))}\n"
        assert rows[i][:4] == (0.5, 0.0, 2.0, None)


class TestOncePerJob:
    """A verify or sweep job parses f, checks f' and takes the mean once,
    draws the f' samples at most once, and none when every claim is decided
    exactly; a compare job parses f once and does nothing else of these; and
    each (q, s) block prints what it prints alone."""

    # (f' checks, f' draws, means) of each job
    @pytest.mark.parametrize("argv, want", [
        ([*VERIFY_SQUARE, "--q-grid", "1", "1.5", "2"], (1, 0, 1)),
        (["sweep", "--function", "poly:0,0,1", "--interval", "0", "1",
          "--h", "t^s", "--s", "0.3", "0.6", "--q-grid", "1", "2"],
         (1, 0, 1)),
        # |f'| = 1.5 - x^2 is concave and not monotone, so the t^s claim is
        # sampled
        (["verify", "--function", "poly:0,1.5,0,-0.3333333333333333",
          "--interval", "-0.5", "0.5", "--h", "t^s", "--s", "0.5",
          "--q-grid", "1", "1.5", "2"], (1, 3, 1)),
        # the h = 1 claim is P-tested: it holds, since |f'|^q stays within
        # a factor 2 on the interval
        (["verify", "--function", "poly:0,1.5,0,-0.3333333333333333",
          "--interval", "-0.5", "0.5", "--h", "1", "--q-grid", "1", "1.5",
          "2"], (1, 0, 1)),
        # two q blocks of two classes: compare reads f' at points only
        (["compare", "--function", "poly:0,0,1", "--interval", "0", "1",
          "--q-grid", "1.5", "2", "--kinds", "power-mean,holder-concave"],
         (0, 0, 0)),
    ], ids=["verify", "sweep", "verify-sampled", "verify-p-test", "compare"])
    def test_counts(self, capsys, monkeypatch, argv, want):
        counts = {"parse": 0, "check": 0, "draw": 0, "mean": 0}
        parse = cli.parse_function
        check = classes.TestFunction._check_derivative
        mean_value = oracle.mean_value

        def counting_parse(spec):
            f, fp = parse(spec)
            counts["parse"] += 1

            def counted_fp(x):
                counts["draw"] += np.size(x) == cli.MEMBERSHIP_SAMPLES
                return fp(x)
            return f, counted_fp

        def counting_check(tf):
            counts["check"] += 1
            return check(tf)

        def counting_mean(tf):
            counts["mean"] += 1
            return mean_value(tf)

        monkeypatch.setattr(cli, "parse_function", counting_parse)
        monkeypatch.setattr(classes.TestFunction, "_check_derivative",
                            counting_check)
        monkeypatch.setattr(oracle, "mean_value", counting_mean)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        # a draw evaluates f' at x, at y and between them
        assert counts == dict(zip(["parse", "check", "draw", "mean"],
                                  (1, *want)))

    def test_exact_job_reads_f_prime_at_points_only(self, capsys,
                                                    monkeypatch):
        """An exp: job decided exactly calls f' at the derivative check's
        11 points and at the ends its bounds read, once per job, one float
        at a time."""
        args, parse = [], cli.parse_function

        def counting_parse(spec):
            f, fp = parse(spec)

            def counted_fp(x):
                args.append(x)
                return fp(x)
            return f, counted_fp

        monkeypatch.setattr(cli, "parse_function", counting_parse)
        code, _, _ = run_cli(capsys, [
            "verify", "--function", "exp:0.7", "--interval", "0", "2",
            "--q-grid", "1.5", "2"])
        assert code == 0
        checked = [2.0 * (i + 1) / 12 for i in range(11)]
        assert args == [*checked, 0.0, 2.0]
        assert all(type(x) is float for x in args)

    def test_holder_job_reads_each_f_prime_point_once(self, capsys,
                                                      monkeypatch):
        """A two-q holder job reads f' at the Hoelder nodes and the ends
        once: the second block's TestFunction is recertified from the
        first and shares its reads, and its rule shares the alpha column."""
        args, parse = [], cli.parse_function

        def counting_parse(spec):
            f, fp = parse(spec)

            def counted_fp(x):
                args.append(x)
                return fp(x)
            return f, counted_fp

        monkeypatch.setattr(cli, "parse_function", counting_parse)
        code, out, _ = run_cli(capsys, [
            "verify", "--function", "exp:0.7", "--interval", "0", "2",
            "--bound", "holder", *EDGE_GRID, "--q-grid", "1.5", "2"])
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 15
        checked = [2.0 * (i + 1) / 12 for i in range(11)]
        alphas = [float(x) for x in EDGE_GRID[1:6]]
        nodes = [(1.0 - al) * 2.0 + al * 0.0 for al in alphas]
        # the record reads the node, then a and b
        assert args == [*checked, *nodes, 0.0, 2.0]

    def test_holder_job_first_failing_read(self, capsys):
        """Sharing the reads moves no error: f' undefined at the node of
        alpha = 1 (the end a = 0) stops a two-q job as it stops one q."""
        base = ["verify", "--function", "pow:1,0.5", "--interval", "0", "1",
                "--alpha-grid", "1", "--lambda-grid", "0", "--bound",
                "holder"]
        one = run_cli(capsys, [*base, "--q-grid", "2"])
        two = run_cli(capsys, [*base, "--q-grid", "2", "3"])
        assert one == two == (
            2, "", "config error: f' is undefined at the end a=0.0\n")

    def test_moments_once_per_job(self, capsys, monkeypatch):
        """A three-q power-mean job computes the t moments and gamma/upsilon
        once: its blocks' rules share one memo."""
        counts = collections.Counter()

        def spy(name):
            fn = getattr(moments, name)

            def counted(*args):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(moments, name, counted)

        for name in ("_power_forms", "gamma_coeffs", "upsilon_coeffs"):
            spy(name)
        code, out, _ = run_cli(capsys, [*VERIFY_SQUARE, *EDGE_GRID,
                                        "--q-grid", "1", "1.5", "2"])
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 15
        assert counts == collections.Counter(
            _power_forms=1, gamma_coeffs=1, upsilon_coeffs=1)

    @pytest.mark.parametrize("argv, qs", [
        ([*VERIFY_SQUARE, *EDGE_GRID, "--q-grid", "1", "1.5", "2"],
         [1.0, 1.5, 2.0]),
        (["sweep", "--function", "poly:0,0,1", "--interval", "0", "1",
          "--h", "t^s", "--s", "0.3", "0.6", *EDGE_GRID, "--q-grid", "1",
          "2"], [1.0, 2.0]),
        (["compare", "--function", "exp:0.7", "--interval", "0", "2",
          "--h", "t^s", "--s", "0.4", "0.8", *EDGE_GRID, "--q-grid", "1.5",
          "2", "--kinds", "power-mean,holder"], [1.5, 2.0]),
    ], ids=["verify", "sweep", "compare"])
    def test_one_rule_per_block(self, capsys, monkeypatch, argv, qs):
        """Each (q, s) block evaluates on one RuleParams on its grid, which
        its bounds share; the lhs of the first certified block needs none.
        A job builds one, and derives the rule of each other q from it, so
        its blocks share one geometry and memo."""
        shapes, rules = [], []
        rule_params = cli.RuleParams
        evaluate_bound = bounds.evaluate_bound

        def counting_rule_params(alpha, lam, q):
            shapes.append((np.shape(alpha), np.shape(lam)))
            return rule_params(alpha, lam, q)

        def recording_bound(name, tf, rp, **kw):
            rules.append(rp)
            return evaluate_bound(name, tf, rp, **kw)

        monkeypatch.setattr(cli, "RuleParams", counting_rule_params)
        monkeypatch.setattr(bounds, "evaluate_bound", recording_bound)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert shapes == [((5, 1), (3,))]
        # one rule per q, whatever the count of s values and bound kinds
        firsts = list({id(rp): rp for rp in rules}.values())
        assert [rp.q for rp in firsts] == qs
        assert len({id(rp.memo) for rp in rules}) == 1
        assert len({id(rp.alpha) for rp in rules}) == 1

    # (job, its q values, its s values, its row count): a t^s verify, a
    # two-q holder verify and a two-q, two-s sweep
    BLOCK_JOBS = [
        (["verify", "--function", "exp:0.7", "--interval", "0", "2", "--h",
          "t^s", *EDGE_GRID], ["1", "2"], ["0.4", "0.8"], 4 * 15),
        (["verify", "--function", "exp:0.7", "--interval", "0", "2",
          "--bound", "holder", "--alpha-grid", "0", "0.3", "0.5", "1",
          "--lambda-grid", "0", "0.5", "1"], ["1.5", "3"], [], 2 * 12),
        (["sweep", "--function", "exp:0.7", "--interval", "0", "2", "--h",
          "t^s", "--alpha-grid", "0", "0.3", "0.5", "1", "--lambda-grid",
          "0", "0.5", "1"], ["1", "2"], ["0.3", "0.8"], 4 * 12),
    ]

    def test_blocks_equal_single_runs(self, capsys):
        for base, qs, ss, n in self.BLOCK_JOBS:
            s_args = ["--s", *ss] if ss else []
            code, out, _ = run_cli(capsys, [*base, "--q-grid", *qs, *s_args])
            header, *rows = out.splitlines()
            assert code == 0 and len(rows) == n
            single = []
            for q, s in itertools.product(qs, ss or [None]):
                code, out, _ = run_cli(capsys, [*base, "--q-grid", q,
                                                *(["--s", s] if s else [])])
                block = out.splitlines()
                assert code == 0 and block[0] == header
                single += block[1:]
            assert rows == single

    # |f'| = sqrt(x) on [1, 2] is concave, so the q = 1 block is rejected;
    # |f'|^2 is linear and |f'|^3 convex
    FIRST_REJECTED = ["verify", "--function", "pow:0.6667,1.5", "--interval",
                      "1", "2", *EDGE_GRID]

    @pytest.mark.parametrize("argv, code", [
        ([*FIRST_REJECTED, "--q-grid", "1", "2", "3"], 1),
        (["sweep", "--function", "exp:0.7", "--interval", "0", "2",
          "--h", "t^s", "--s", "0.4", "0.8", *EDGE_GRID], 0),
    ], ids=["verify-3q-first-rejected", "sweep-2s"])
    def test_rule_values_once(self, capsys, monkeypatch, argv, code):
        """One rule_value call per job, on the whole grid: f is evaluated
        at a, at b and at each rule node once."""
        calls, nodes, inside = [], [], []
        rule_value, parse = oracle.rule_value, cli.parse_function

        def counting_rule(tf, alpha, lam):
            calls.append(np.shape(alpha))
            inside.append(True)
            try:
                return rule_value(tf, alpha, lam)
            finally:
                inside.pop()

        def counting_parse(spec):
            f, fp = parse(spec)

            def counted_f(x):
                if inside:
                    nodes.append(x)
                return f(x)
            return counted_f, fp

        monkeypatch.setattr(oracle, "rule_value", counting_rule)
        monkeypatch.setattr(cli, "parse_function", counting_parse)
        got, _, _ = run_cli(capsys, argv)
        assert got == code
        i = argv.index("--interval")
        a, b = float(argv[i + 1]), float(argv[i + 2])
        alphas = [float(x) for x in EDGE_GRID[1:6]]
        assert calls == [(len(alphas), 1)]
        assert nodes == [a, b, *(al * a + (1.0 - al) * b for al in alphas)]

    def test_first_rejected_blocks_equal_single_runs(self, capsys):
        argv = [*self.FIRST_REJECTED, "--q-grid", "1", "2", "3"]
        code, out, _ = run_cli(capsys, argv)
        header, *rows = out.splitlines()
        assert code == 1 and len(rows) == 3 * 15
        single = []
        for q, want in [("1", 1), ("2", 0), ("3", 0)]:
            code, out, _ = run_cli(capsys,
                                   [*self.FIRST_REJECTED, "--q-grid", q])
            assert code == want and out.splitlines()[0] == header
            single += out.splitlines()[1:]
        assert rows == single

    @pytest.mark.parametrize("failing_q", [1.0, 2.0, 3.0])
    def test_first_failing_row(self, capsys, monkeypatch, failing_q):
        """A block whose bound fails on the grid reports the error of its
        first failing row.  The bound comes before the rule values, so the
        rule values are computed once on the grid by the first block whose
        bound holds, and never point by point."""
        calls = []
        evaluate_bound, rule_value = bounds.evaluate_bound, oracle.rule_value

        def failing_bound(name, tf, rp, **kw):
            if rp.q == failing_q and np.any(rp.alpha >= 0.5):
                raise errors.ConfigError(f"row {rp.alpha!r}, {rp.lam!r}")
            return evaluate_bound(name, tf, rp, **kw)

        def counting_rule(tf, alpha, lam):
            calls.append(np.shape(alpha))
            return rule_value(tf, alpha, lam)

        monkeypatch.setattr(bounds, "evaluate_bound", failing_bound)
        monkeypatch.setattr(oracle, "rule_value", counting_rule)
        code, out, err = run_cli(capsys, [*VERIFY_SQUARE, *EDGE_GRID,
                                          "--q-grid", "1", "2", "3"])
        # rows run alpha by alpha; alpha = 0.5 is the third, lambda = 0 first
        assert (code, out, err) == (2, "", "config error: row 0.5, 0.0\n")
        assert calls == ([(5, 1)] if failing_q > 1.0 else [])


class TestFirstError:
    """A grid that fails reports the error of its first failing row."""

    # |f'|^q of x - x^3 on [-1, 1] is not convex: every block is rejected
    REJECTED = ["verify", "--function", "poly:0,1,0,-1", "--interval", "-1",
                "1"]

    CASES = [
        # (0, 0) has the divergent reflected-left moment; (0.5, 0.3) the
        # left one, which a whole-grid check of that moment would meet first
        (["verify", "--function", "poly:0,1,0.5,0.3", "--interval", "0",
          "1.5", "--h", "1/t", "--alpha-grid", "0", "0.5",
          "--lambda-grid", "0", "0.3"],
         "reflected left moment of 1/t diverges at 1"),
        (["sweep", "--function", "poly:0,1,0.5,0.3", "--interval", "0",
          "1.5", "--h", "1/t", "--alpha-grid", "0.5", "1",
          "--lambda-grid", "0", "1"],
         "left moment of 1/t diverges at 0"),
        # the second kind fails on the first row, the first on the second
        (["compare", "--function", "pow:1,1.5", "--interval", "0", "1",
          "--h", "t^s", "--s", "0.5", "--q-grid", "2", "--alpha-grid", "0.5",
          "--lambda-grid", "0", "1",
          "--kinds", "midpoint-holder,trapezoid-holder"],
         "trapezoid-holder is fixed at alpha=0.5, lambda=1.0"),
        # lambda is out of range on the second row, alpha on the third
        (["verify", "--function", "poly:0,0,1", "--alpha-grid", "0.5", "2",
          "--lambda-grid", "0.3", "-1"],
         "lambda must lie in [0, 1]"),
        # a rejected certificate does not hide a configuration error: the
        # bound is evaluated before the block's certificate is read
        ([*REJECTED, "--alpha-grid", "2", "-0.5", "--lambda-grid", "3"],
         "alpha must lie in [0, 1]"),
        ([*REJECTED, "--bound", "holder"],
         "the conjugate exponent p needs q > 1"),
        ([*REJECTED, "--h", "1/t", "--bound", "holder", "--q-grid", "2"],
         "modulus is not integrable on (0, 1)"),
        (["sweep", *REJECTED[1:], "--alpha-grid", "2", "--q-grid", "1", "2"],
         "alpha must lie in [0, 1]"),
    ]

    @pytest.mark.parametrize("argv, message", CASES,
                             ids=[str(i) for i in range(len(CASES))])
    def test_exit_and_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_all_rejected_takes_no_mean(self, capsys, monkeypatch, command):
        def unexpected(*args):
            raise AssertionError("an all-rejected job needs no mean or rule")

        monkeypatch.setattr(oracle, "mean_value", unexpected)
        monkeypatch.setattr(oracle, "rule_value", unexpected)
        code, out, err = run_cli(capsys, [command, *self.REJECTED[1:],
                                          *EDGE_GRID, "--q-grid", "1", "2"])
        assert code == 1 and "config error" not in err
        assert len(out.splitlines()) == 1 + 2 * 15

    def test_first_rejected_row(self, capsys):
        code, _, err = run_cli(capsys, GOLDEN["verify_rejected.csv"][1])
        assert code == 1
        assert err == (
            "certificate rejected at q=1.0, s=None (exact): |f'|^q fails at "
            "x=0.0\n"
            "first violation: {'alpha': 0.0, 'lambda': 0.0, 'q': 1.0, "
            "'s': None, 'branch': 'rejected', 'lhs': None, 'rhs': None, "
            "'margin': None, 'sound': False}\n")


class TestRejectionLine:
    """verify names where each rejected block's claim fails, one stderr
    line per block: the exact point, or the witness and its slack."""

    def test_zero_class_witness(self, capsys):
        # h = 1 makes every h-concave claim on a nonzero f' false: the
        # midpoint 0.5 is the witness, with the sampled check's slack there
        code, out, err = run_cli(capsys, [
            "verify", "--function", "exp:1", "--interval", "0", "1", "--h",
            "1", "--concave", "--bound", "holder-concave", "--q-grid", "2",
            "3"])
        assert code == 1
        assert [row.split(",")[4] for row in out.splitlines()[1:]] \
            == ["rejected"] * 2
        lines = err.splitlines()
        for q, line in zip((2.0, 3.0), lines):
            g = math.exp(0.5) ** q
            assert line == (f"certificate rejected at q={q!r}, s=None "
                            f"(exact): slack {-(g - (g + g))!r} at "
                            f"(x, y, alpha) = (0.5, 0.5, 0.5)")
        assert len(lines) == 3 and lines[2].startswith("first violation: ")

    def test_sampled_witness(self, capsys):
        # 3|x^2 - 1/3| under t^s: neither convex nor monotone, so sampled
        argv = ["verify", "--function", "poly:0,-1,0,1", "--interval", "-1",
                "1", "--h", "t^s", "--s", "0.5", "0.7"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 3
        for s, line in zip((0.5, 0.7), lines):
            head = f"certificate rejected at q=1.0, s={s!r} (sampled): slack "
            assert line.startswith(head) and " at (x, y, alpha) = (" in line

    def test_sweep_prints_none(self, capsys):
        code, _, err = run_cli(capsys, GOLDEN["sweep_rejected.csv"][1])
        assert (code, err) == (1, "")

    # two claims the sampled route accepts and the P-test rejects, from
    # tests/test_classes.py's TestPTest.FALSE_ACCEPTS
    @pytest.mark.parametrize("spec, a, b, q", [
        ("poly:1.4484105300143808,-1.1595377277684218,1.5641764843179278,"
         "1.0044617115031365,-1.0118290580612896", "0.7395443543207434",
         "1.8799470820387", "1"),
        ("poly:0.370038686282125,0.07731128294994871,1.3300397318259773,"
         "-0.771162953192615,-0.2581258834187725,1.7648746370777721",
         "-1.569418279500324", "-0.4866081766709336", "2"),
    ], ids=["q1", "q2"])
    def test_p_test_point(self, capsys, spec, a, b, q):
        code, out, err = run_cli(capsys, [
            "verify", "--function", spec, "--interval", a, b, "--h", "1",
            "--q-grid", q])
        assert code == 1 and out.splitlines()[1].split(",")[4] == "rejected"
        line = err.splitlines()[0]
        head = f"certificate rejected at q={float(q)!r}, s=None (exact): "
        assert line.startswith(head + "|f'|^q fails at x=")
        assert float(a) < float(line.rsplit("=", 1)[1]) < float(b)

    def test_t_to_the_one_is_decided_as_t(self, capsys):
        # h = t^s at s = 1 is h = t: its claim is rejected exactly at the
        # point --h t names, not sampled
        code, _, err = run_cli(capsys, [
            "verify", "--function", "poly:0,1,0,-1", "--interval", "-1",
            "1", "--h", "t^s", "--s", "1"])
        assert code == 1
        assert err.splitlines()[0] == ("certificate rejected at q=1.0, "
                                       "s=1.0 (exact): |f'|^q fails at "
                                       "x=0.0")


def _poly_at(coeffs, x):
    """sum c_k x^k in exact rationals."""
    total = Fraction(0)
    for k, ck in enumerate(coeffs):
        total += Fraction(ck) * x ** k
    return total


class TestDecidedExactly:
    """|f'|^q of a poly: spec is decided exactly where 2,000 samples miss a
    concave stretch of it."""

    MISSED = [
        # f' has a simple root near 0.635, and |f'| = -f' is concave on
        # [0.598, 0.635], 1.6% of the interval: no sampled triple has both
        # x and y there
        ("poly:0,-0.004421288902905829,-0.47356586137783774,"
         "0.5008978144347983", "0.5979144668972163", "2.9310356862168807"),
        # f' = x^4 - 1e-5 x^2 + 1 is concave for |x| < 1.3e-3, where the
        # sampled slack, 2.5e-11, lies inside the tolerance of 2.1e-12
        ("poly:0,1,0,-3.3333333333333337e-06,0,0.2", "-0.5", "0.5"),
    ]
    IDS = ["root", "flat"]

    @pytest.mark.parametrize("spec, a, b", MISSED, ids=IDS)
    def test_rejected(self, capsys, spec, a, b):
        code, out, err = run_cli(capsys, ["verify", "--function", spec,
                                          "--interval", a, b])
        header, *rows = out.splitlines()
        assert code == 1 and len(rows) == 1
        assert rows[0].split(",")[4] == "rejected"
        assert "'branch': 'rejected'" in err

    @pytest.mark.parametrize("spec, a, b", MISSED, ids=IDS)
    def test_point_and_sampled_blind_spot(self, spec, a, b):
        """The exact report names a point where r = p p'' < 0 (q = 1,
        p = f'); the same f and f' as API callables are sampled and pass."""
        fs = specs.parse_spec(spec)
        f, fp = fs.functions()
        a, b = float(a), float(b)
        cert = classes.ClassCertificate(classes.ClassKind.H_CONVEX,
                                        classes.HModulus.identity(), 1.0)
        exact = classes.certify_membership(
            classes.TestFunction(f, fp, a, b, cert, spec=fs),
            cli.MEMBERSHIP_SAMPLES)
        assert (exact.holds, exact.route) == (False, "exact")
        p = fs.derivative_coeffs
        p2 = [k * (k - 1) * Fraction(c) for k, c in enumerate(p)][2:]
        x = Fraction(exact.point)
        assert a <= exact.point <= b
        assert _poly_at(p, x) * _poly_at(p2, x) < 0
        sampled = classes.certify_membership(
            classes.TestFunction(f, fp, a, b, cert), cli.MEMBERSHIP_SAMPLES)
        assert (sampled.holds, sampled.route) == (True, "sampled")


class TestParserReuse:
    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_do_not_leak(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--function", "pow:1,1.5", "--h", "t^s",
            "--s", "0.25", "0.5"])
        assert code == 0
        code, out, _ = run_cli(capsys, VERIFY_SQUARE)
        assert code == 0
        assert [r["s"] for r in csv.DictReader(io.StringIO(out))] == [""]
        # defaults are shared by every parse, so they are immutable
        args = cli.build_parser().parse_args(VERIFY_SQUARE[:3])
        assert args.s == (None,) and args.interval == (0.0, 1.0)


UNKNOWN_FLAGS = [
    ["hadamard", "--function", "poly:0,0,1", "--concave"],
    ["verify", "--function", "poly:0,0,1", "--sup-f4", "1"],
    ["compare", "--function", "poly:0,0,1", "--kinds", "power-mean",
     "--samples", "5"],
    ["compare", "--function", "poly:0,0,1", "--kinds", "power-mean",
     "--bound", "holder"],
    ["verify", "--function", "poly:0,0,1", "--samples", "5"],
    ["sweep", "--function", "poly:0,0,1", "--samples", "5"],
    # the bound names the certificate class
    ["sweep", "--function", "poly:0,0,1", "--concave"],
    ["compare", "--function", "poly:0,0,1", "--kinds", "power-mean",
     "--concave"],
]


class TestUnknownFlags:
    @pytest.mark.parametrize("argv", UNKNOWN_FLAGS, ids=[
        "hadamard-concave", "verify-sup-f4", "compare-samples",
        "compare-bound", "verify-samples", "sweep-samples",
        "sweep-concave", "compare-concave"])
    def test_parser_rejects(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _readme_cli_examples():
    """The quadcert command lines of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("quadcert ")]


class TestReadmeExamples:
    EXAMPLES = _readme_cli_examples()

    def test_block_found(self):
        assert len(self.EXAMPLES) >= 5

    @pytest.mark.parametrize("argv", EXAMPLES,
                             ids=[argv[0] for argv in EXAMPLES])
    def test_exits_zero(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 0, err


def _parse_outcome(capsys, parse, argv):
    """parse(argv)'s namespace, or its exit code; with what it printed."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


class TestParsePath:
    """main parses a command's argv with that command's parser alone."""

    ARGV = [*(argv for _, argv in GOLDEN.values()), *_readme_cli_examples(),
            *UNKNOWN_FLAGS,
            ["verify", "--func", "poly:0,0,1"],  # an abbreviated flag
            ["verify", "--function", "poly:0,0,1", "--interval", "0", "x"],
            ["verify"],                          # no --function
            ["sweep", "--function", "poly:0,0,1", "--x", "1", "--y"],
            [], ["-h"], ["--help"], ["verify", "-h"], ["frob"],
            ["frob", "--function", "poly:0,0,1"]]

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: shlex.join(argv))
    def test_same_as_parent_parse(self, capsys, argv):
        want = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert _parse_outcome(capsys, cli._parse_args, argv) == want

    def test_command_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: quadcert verify ")

    def test_command_argv_skips_parent(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the parent parser read a command's argv")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        code, out, _ = run_cli(capsys, VERIFY_SQUARE)
        assert code == 0 and out.startswith("alpha,lambda,q,s,branch")
        # leftovers are still reported as the parent's own error
        with pytest.raises(SystemExit) as exc:
            cli.main([*VERIFY_SQUARE, "--samples", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "quadcert: error: unrecognized arguments: --samples 5\n")


def _left_to_right(coeffs, x):
    """sum_k c_k x^k added left to right from the integer 0."""
    total = 0
    for k, ck in enumerate(coeffs):
        total = total + ck * x ** k
    return total


def _compensated(coeffs, x):
    """The same terms summed as sum() of floats has since Python 3.12."""
    total = comp = 0.0
    for k, ck in enumerate(coeffs):
        term = ck * x ** k
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


class TestPolyOrder:
    """poly: sums its terms left to right on every Python version."""

    COEFFS = [0.0, 1.0, 0.5, 0.3]
    DCOEFFS = [1.0, 1.0, 3 * 0.3]

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def test_points_where_the_orders_differ(self):
        f, fp = cli.parse_function("poly:0,1,0.5,0.3")
        xs = np.random.default_rng(24).uniform(0.0, 1.5, 1000).tolist()
        for fn, coeffs in ((f, self.COEFFS), (fp, self.DCOEFFS)):
            moved = [x for x in xs if _left_to_right(coeffs, x)
                     != _compensated(coeffs, x)]
            assert len(moved) > 100
            got = [fn(x) for x in moved]
            want = [_left_to_right(coeffs, x) for x in moved]
            assert self._bits(got) == self._bits(want)

    def test_signed_zero(self):
        f, _ = cli.parse_function("poly:-0.0")
        assert self._bits(f(2.0)) == self._bits(0 + -0.0) == self._bits(0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, x):
        f, fp = cli.parse_function("poly:0,1,0.5,0.3")
        assert self._bits(f(x)) == self._bits(_left_to_right(self.COEFFS, x))
        assert self._bits(fp(x)) == self._bits(
            _left_to_right(self.DCOEFFS, x))

    def test_overflow_raises(self):
        f, _ = cli.parse_function("poly:0,1,0.5,0.3")
        for form in (f, functools.partial(_left_to_right, self.COEFFS),
                     functools.partial(_compensated, self.COEFFS)):
            with pytest.raises(OverflowError):
                form(1e200)

    def test_array_argument(self):
        f, fp = cli.parse_function("poly:0,1,0.5,0.3")
        x = np.random.default_rng(25).uniform(0.0, 1.5, (4, 5))
        assert self._bits(f(x)) == self._bits(_left_to_right(self.COEFFS, x))
        assert self._bits(fp(x)) == self._bits(
            _left_to_right(self.DCOEFFS, x))


class TestConfigErrorFamily:
    """errors.ConfigError is the one family that exits 2."""

    def test_one_class(self):
        assert cli.ConfigError is errors.ConfigError
        for exc in (errors.DomainError, errors.DegenerateModulus,
                    errors.ParamMismatch, errors.NotIntegrable):
            assert issubclass(exc, errors.ConfigError)
        # these still escape main; the benchmark pins that traceback
        for exc in (errors.ClassMismatch, errors.EvaluationError):
            assert not issubclass(exc, errors.ConfigError)

    @pytest.mark.parametrize("exc", [errors.ConfigError, errors.DomainError,
                                     errors.ParamMismatch,
                                     errors.NotIntegrable])
    def test_exit_two(self, capsys, monkeypatch, exc):
        def boom(tf):
            raise exc("forced")

        monkeypatch.setattr(cli.oracle, "mean_value", boom)
        code, out, err = run_cli(capsys, VERIFY_SQUARE)
        assert (code, out, err) == (2, "", "config error: forced\n")


class TestOracleFailure:
    def test_exit_three(self, capsys, monkeypatch):
        def boom(tf):
            raise ToleranceNotReached("forced")

        monkeypatch.setattr(oracle, "mean_value", boom)
        monkeypatch.setattr(cli.oracle, "mean_value", boom)
        code, _, err = run_cli(capsys, VERIFY_SQUARE)
        assert code == 3
        assert "oracle failure" in err


class TestReciprocalNearAnEnd:
    """1/t at lambda = 0 with alpha within 1e-15 or 1e-12 of 0: the left
    reflected moment ends that close to its pole at 1, and its closed form
    takes no quadrature.  Integrated, the first exited 3 after 1,000,000
    panels and the second printed an rhs 3.1e-9 low (46.734064853752216)."""

    @pytest.mark.parametrize("alpha, rhs", [
        ("1e-15", "57.096863988511316"), ("1e-12", "46.734064856836248"),
    ])
    def test_verify(self, capsys, monkeypatch, alpha, rhs):
        def refuse(*args, **kwargs):
            raise AssertionError("a 1/t moment was integrated")

        monkeypatch.setattr(tanhsinh, "integrate", refuse)
        code, out, err = run_cli(capsys, [
            "verify", "--function", "poly:0,1,0.5,0.3", "--interval", "0",
            "1.5", "--h", "1/t", "--alpha-grid", alpha, "--lambda-grid",
            "0"])
        assert (code, err) == (0, "")
        [row] = csv.DictReader(io.StringIO(out))
        assert row["rhs"] == rhs


class TestIdentityAndHadamard:
    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, ["identity", "--cases", "30"])
        assert code == 0
        assert "max identity residual over 30 cases" in out

    def test_hadamard_classical(self, capsys):
        code, out, _ = run_cli(capsys, [
            "hadamard", "--function", "poly:0,0,1", "--interval", "0", "1",
            "--variant", "classical"])
        assert code == 0
        assert "holds=True" in out

    def test_hadamard_godunova_levin(self, capsys):
        code, out, _ = run_cli(capsys, [
            "hadamard", "--function", "poly:1,0,1", "--interval", "0", "1",
            "--h", "1/t", "--variant", "godunova_levin"])
        assert code == 0
        # no finite right side exists for this variant; it prints empty
        assert "right= holds=True" in out


class TestSubprocess:
    # each exits 2 with one "config error:" line on stderr and nothing else,
    # such as a numpy warning, which in-process runs turn into errors
    ONE_LINE_ERRORS = {
        # f overflows at a derivative check point
        "exp:1000": ["verify", "--function", "exp:1000", "--interval", "0",
                     "1"],
        # an interval too narrow to difference
        "poly:0,0,1": ["verify", "--function", "poly:0,0,1", "--interval",
                       "0", "1e-320"],
        # |f'|^3 is convex, so the second block is certified exactly, and
        # its power-mean bound is not finite
        "exp:300": ["verify", "--function", "exp:300", "--interval", "0",
                    "1", "--q-grid", "1", "3"],
        # |f'|^2 is convex, so the first block is certified exactly, and its
        # power-mean bound is not finite before the job's mean, which would
        # take about 40 s and fail in the oracle
        "poly:0,0,0,1e300": ["verify", "--function", "poly:0,0,0,1e300",
                             "--interval", "-1", "1", "--q-grid", "2", "1"],
        # f' divides by zero at the end a = 0
        "pow:1,0.5": ["verify", "--function", "pow:1,0.5", "--interval", "0",
                      "1"],
        # f' is NaN at the sampled points
        "pow:1,1.5": ["verify", "--function", "pow:1,1.5", "--interval",
                      "-2", "-1"],
        # x^2 of a Python float overflows at a derivative check point, and
        # past the check points in the oracle's mean
        "overflow-near": ["verify", "--function", "poly:0,0,1", "--interval",
                          "0", "1e200"],
        "overflow-at": ["verify", "--function", "poly:0,0,1", "--interval",
                        "0", "1.4e154"],
        # alpha = 1 puts the holder node and the holder-concave left
        # midpoint on a = 0, where f' divides by zero
        "verify-holder": ["verify", "--function", "pow:1,0.5", "--interval",
                          "0", "1", "--q-grid", "2", "--alpha-grid", "1",
                          "--lambda-grid", "0", "--bound", "holder"],
        "verify-holder-concave": [
            "verify", "--function", "pow:1,0.5", "--interval", "0", "1",
            "--q-grid", "2", "--alpha-grid", "1", "--lambda-grid", "0",
            "--bound", "holder-concave", "--concave"],
        "compare-holder": ["compare", "--function", "pow:1,0.5", "--interval",
                           "0", "1", "--q-grid", "2", "--alpha-grid", "1",
                           "--lambda-grid", "0", "--kinds", "holder"],
        # f' is complex at the end a, and f at the midpoint
        "compare-not-real": ["compare", "--function", "pow:1,1.5",
                             "--interval", "-2", "-1", "--kinds",
                             "power-mean,general-convex"],
        "hadamard-not-real": ["hadamard", "--function", "pow:1,1.5",
                              "--interval", "-2", "-1", "--h", "1/t",
                              "--variant", "godunova_levin"],
    }

    @pytest.mark.parametrize("argv", list(ONE_LINE_ERRORS.values()),
                             ids=list(ONE_LINE_ERRORS))
    def test_one_config_error_line(self, argv):
        r = subprocess.run([sys.executable, "-m", "quadcert", *argv],
                           capture_output=True, text=True, timeout=30)
        assert r.returncode == 2
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("config error: ")
        assert "RuntimeWarning" not in r.stderr

    # each exits 3 with one "oracle failure:" line on stderr and nothing else
    ONE_LINE_ORACLE_FAILURES = [
        # x^3 is finite on the interval, but its integral overflows: the
        # oracle once took the inf as settled and printed lhs=inf, exit 1
        ["verify", "--function", "poly:0,0,0,1", "--interval", "0", "2e102",
         "--alpha-grid", "0.5", "--lambda-grid", "0.3333333333333333",
         "--q-grid", "1"],
        ["hadamard", "--function", "poly:0,0,0,1", "--interval", "0",
         "5.6e102"],
        # f is inf at an oracle node: numpy's overflow warning stays silent
        ["hadamard", "--function", "exp:800", "--interval", "-1", "1"],
    ]

    @pytest.mark.parametrize("argv", ONE_LINE_ORACLE_FAILURES,
                             ids=["verify-poly", "hadamard-poly",
                                  "hadamard-exp"])
    def test_one_oracle_failure_line(self, argv):
        r = subprocess.run([sys.executable, "-m", "quadcert", *argv],
                           capture_output=True, text=True, timeout=30)
        assert (r.returncode, r.stdout) == (3, "")
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("oracle failure: ")
        assert "RuntimeWarning" not in r.stderr

    def test_module_entry_deterministic(self, tmp_path):
        argv = [sys.executable, "-m", "quadcert", "sweep",
                "--function", "exp:1", "--interval", "0", "1",
                "--alpha-grid", "0.3", "0.7", "--lambda-grid", "0.5"]
        r1 = subprocess.run(argv, capture_output=True, text=True)
        r2 = subprocess.run(argv, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith("alpha,lambda,q,s,p,bound_kind")
