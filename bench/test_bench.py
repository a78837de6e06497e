"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run single passes in-process; no timing is asserted.
"""

import collections
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from quadcert import bounds, classes, moments  # noqa: E402


def _one_pass_each(workload, seed, perturb=None):
    """(untraced pass, traced pass, trace deltas) for one fresh build."""
    counter = workloads.EvalCounter()
    with workloads.counting_cli_functions(counter):
        tasks = workloads.build(workload, seed, counter)
        if perturb:
            perturb(tasks)
        runner = run.Runner(tasks, counter)
        untraced = runner.run_pass()
        tracer = spans.Tracer()
        tracer.install()
        try:
            before = tracer.snapshot()
            traced = runner.run_pass()
            after = tracer.snapshot()
        finally:
            tracer.restore()
    return untraced, traced, {k: after[k] - before[k] for k in before}


def _exact_counts(workload, seed):
    untraced, traced, d = _one_pass_each(workload, seed)
    return {"evals_per_task": untraced["evals"] / len(untraced["lat"]),
            "oracle.evals": d["oracle.evals"],
            "oracle.subdivisions": d["oracle.subdivisions"],
            "cli.rows": traced["rows"], "cli.bytes_out": traced["bytes"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    first = _exact_counts(workload, 7)
    assert first == _exact_counts(workload, 7)
    assert first["evals_per_task"] > 0 and first["oracle.evals"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_composition_is_fixed_across_seeds(workload):
    counter = workloads.EvalCounter()
    with workloads.counting_cli_functions(counter):
        kinds = [collections.Counter(t.kind for t in
                                     workloads.build(workload, seed, counter))
                 for seed in (1, 2)]
    assert kinds[0] == kinds[1]


@pytest.mark.parametrize("workload, known_failures", [
    ("grid", 3), ("oracle", 2), ("custom", 0)])
def test_failed_count_does_not_depend_on_the_seed(workload, known_failures):
    """Only the known defects fail, the same number of them on every seed."""
    for seed in (1, 2, 3):
        counter = workloads.EvalCounter()
        with workloads.counting_cli_functions(counter):
            tasks = workloads.build(workload, seed, counter)
            p = run.Runner(tasks, counter).run_pass()
        assert (p["failed"], p["unexpected"]) == (known_failures, 0)


def _perturb_integral(tasks):
    task = next(t for t in tasks if t.kind.startswith("smooth."))
    task.ref *= 1.0 + 1e-6


def _perturb_exit_code(tasks):
    task = next(t for t in tasks if t.kind == "invalid" and t.known is None)
    task.ref = 0


@pytest.mark.parametrize("workload, perturb", [
    ("oracle", _perturb_integral), ("grid", _perturb_exit_code)])
def test_perturbed_reference_counts_as_failed(workload, perturb):
    clean, _, _ = _one_pass_each(workload, 3)
    bad, _, _ = _one_pass_each(workload, 3, perturb)
    assert bad["failed"] == clean["failed"] + 1
    assert clean["unexpected"] == 0 and bad["unexpected"] == 1


def test_traced_names_include_from_imports():
    """bounds imports weighted_moment by name; that copy gets a span too."""
    h = classes.HModulus.identity()
    cert = classes.ClassCertificate(classes.ClassKind.H_CONVEX, h, 1.0)
    tf = classes.TestFunction(lambda x: x * x, lambda x: 2 * x, 0.0, 1.0,
                              cert)
    rp = moments.RuleParams(0.5, 1.0 / 3.0, 1.0)
    original = moments.weighted_moment
    tracer = spans.Tracer()
    tracer.install()
    try:
        bounds.bound_power_mean(tf, rp)
    finally:
        tracer.restore()
    snap = tracer.snapshot()
    assert snap["bounds.entries"] == 1
    assert snap["moments.weighted"] == 4
    assert snap["moments.numeric"] == 0
    assert moments.weighted_moment is original
    assert bounds.weighted_moment is original
