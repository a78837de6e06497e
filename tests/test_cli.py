"""End-to-end tests for the command-line front end."""

import csv
import io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quadcert import bounds, cli, oracle
from quadcert.errors import ToleranceNotReached


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
            "--concave", "--bound", "holder-concave", "--q-grid", "2.0"])
        assert code == 1


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
        "holder-concave": ["--alpha-grid", "0.3", "--lambda-grid", "0.6",
                           "--concave"],
        "general-convex": ["--alpha-grid", "0.3", "--lambda-grid", "0.6"],
        "midpoint-power-mean": ["--lambda-grid", "0"],
        "midpoint-holder": ["--lambda-grid", "0"],
        "simpson-holder": [],
        "trapezoid-holder": ["--lambda-grid", "1"],
        "classical-simpson": ["--sup-f4", "24"],
    }

    def test_kinds_cover_the_table(self):
        assert set(self.KINDS) == {*bounds.GENERAL_BOUNDS,
                                   *bounds.PRIOR_BOUNDS}

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


class TestConfigErrors:
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
    ]

    @pytest.mark.parametrize("argv", CASES,
                             ids=[str(i) for i in range(len(CASES))])
    def test_exit_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "config error" in err


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
        *EDGE_GRID, "--kinds", "holder,power-mean,holder,general-convex",
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


class TestFirstError:
    """A grid that fails reports the error of its first failing row."""

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
    ]

    @pytest.mark.parametrize("argv, message", CASES,
                             ids=[str(i) for i in range(len(CASES))])
    def test_exit_and_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_first_rejected_row(self, capsys):
        code, _, err = run_cli(capsys, GOLDEN["verify_rejected.csv"][1])
        assert code == 1
        assert err == (
            "first violation: {'alpha': 0.0, 'lambda': 0.0, 'q': 1.0, "
            "'s': None, 'branch': 'rejected', 'lhs': None, 'rhs': None, "
            "'margin': None, 'sound': False}\n")


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


class TestUnknownFlags:
    @pytest.mark.parametrize("argv", [
        ["hadamard", "--function", "poly:0,0,1", "--concave"],
        ["verify", "--function", "poly:0,0,1", "--sup-f4", "1"],
        ["compare", "--function", "poly:0,0,1", "--kinds", "power-mean",
         "--samples", "5"],
        ["compare", "--function", "poly:0,0,1", "--kinds", "power-mean",
         "--bound", "holder"],
    ], ids=["hadamard-concave", "verify-sup-f4", "compare-samples",
            "compare-bound"])
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


class TestOracleFailure:
    def test_exit_three(self, capsys, monkeypatch):
        def boom(tf):
            raise ToleranceNotReached("forced")

        monkeypatch.setattr(oracle, "mean_value", boom)
        monkeypatch.setattr(cli.oracle, "mean_value", boom)
        code, _, err = run_cli(capsys, VERIFY_SQUARE)
        assert code == 3
        assert "oracle failure" in err


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
    def test_module_entry_deterministic(self, tmp_path):
        argv = [sys.executable, "-m", "quadcert", "sweep",
                "--function", "exp:1", "--interval", "0", "1",
                "--alpha-grid", "0.3", "0.7", "--lambda-grid", "0.5"]
        r1 = subprocess.run(argv, capture_output=True, text=True)
        r2 = subprocess.run(argv, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.startswith("alpha,lambda,q,s,p,bound_kind")
