#!/usr/bin/env python3
"""quadcert benchmark: seeded grid, oracle and custom workloads.

    python3 bench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  One process, one thread, closed loop: each pass runs the
workload's task list once, in order, and passes repeat until ``--seconds``
is used up.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans (see ``spans.py``).  Every output is
checked; the last line of standard output is the JSON result.  See
README.md in this directory for the metric definitions.
"""

import time

_T0 = time.perf_counter()  # before any heavy import: setup_s starts here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

_T_NUMPY = time.perf_counter()  # stdlib and numpy imported: setup_s reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# setup_s is expressed at the speed where a fresh process imports the
# standard library modules above and numpy in this time.
IMPORT_NOMINAL_S = 0.125
MIN_PASSES = 3
# The reference kernel runs between tasks at most this often; its median
# time in a pass, over REF_NOMINAL_S, is the drift factor of the pass.
REF_EVERY_S = 0.025
REF_NOMINAL_S = 0.0015
# Tail percentile per workload: the heaviest task group of a pass covers
# it, and a 10 s run leaves well over ten samples beyond it.
TAIL_PCT = {"grid": 95.0, "oracle": 99.0, "custom": 95.0}
TAIL_MIN_BEYOND = 10


def import_package():
    """Import quadcert from this checkout's src/, never an installed copy."""
    if not (SRC / "quadcert" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadcert
    if Path(quadcert.__file__).resolve().parent != SRC / "quadcert":
        sys.exit(f"error: imported quadcert from {quadcert.__file__}")
    return quadcert


# ---------------------------------------------------------------------------
# Machine speed
#
# On a shared machine the speed of one core drifts by a quarter or more over
# a few seconds, and the drift moves every timing alike.  Each pass therefore
# also times a fixed reference kernel, independent of quadcert, between its
# tasks; every reported time is divided by the pass's drift factor, i.e.
# expressed at the speed where the kernel takes REF_NOMINAL_S.  Raw times
# are printed in the run information line.


def _ref_leaf(x, table):
    return table["a"] + math.exp(-x) * x


def reference_kernel():
    """Fixed pure-Python and numpy-scalar work: float loops, calls, dict
    lookups and string formatting, the instruction mix of the workloads."""
    acc = 0.0
    for i in range(3000):
        acc += abs(0.3 * i - 7.0) ** 1.5
    table, out = {"a": 1.0}, []
    for i in range(400):
        x = i * 0.01
        acc += _ref_leaf(x, table) + float(np.exp(x * 0.001))
        out.append("%.17g" % acc)
    return len("".join(out))


def time_reference(repeats=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Passes


class Runner:
    """Runs passes over one task list and checks every output.

    A task fails when it raises (an escaped exception is never a documented
    outcome) or when its output disagrees with its reference.  A failure is
    unexpected unless it matches the task's known defect.  Outputs equal to
    one already checked reuse that verdict, so later passes cost only an
    equality test.
    """

    def __init__(self, tasks, counter):
        self.tasks = tasks
        self.counter = counter
        self._checked = [None] * len(tasks)
        self.reasons = {}  # failure reason -> known defect?

    def _fail(self, task, reason):
        known = task.known is not None and task.known in reason
        self.reasons[f"{task.kind}: {reason}"] = known
        return not known

    def _verdict(self, i, out):
        seen = self._checked[i]
        if seen is not None and seen[0] == out:
            return seen[1]
        task = self.tasks[i]
        verdict = task.check(out, task.ref)
        self._checked[i] = (out, verdict)
        return verdict

    def run_pass(self):
        clock = time.perf_counter
        lat, refs, failed, unexpected, rows, out_bytes = [], [], 0, 0, 0, 0
        evals0 = self.counter.n
        next_ref = 0.0
        for i, task in enumerate(self.tasks):
            if clock() >= next_ref:
                refs.append(time_reference())
                next_ref = clock() + REF_EVERY_S
            t0 = clock()
            try:
                out = task.run()
            except Exception as exc:  # counted, reported, and the run goes on
                lat.append(clock() - t0)
                failed += 1
                unexpected += self._fail(
                    task, f"raised {type(exc).__name__}: {exc}")
                continue
            lat.append(clock() - t0)
            stdout = getattr(out, "stdout", None)  # CLI tasks: CliOutput
            if stdout is not None:
                rows += max(stdout.count("\n") - 1, 0)  # minus the header
                out_bytes += len(stdout.encode())
            reason = self._verdict(i, out)
            if reason is not None:
                failed += 1
                unexpected += self._fail(task, reason)
        # An array, so that memory does not grow with the number of passes.
        return {"lat": np.array(lat),
                "drift": statistics.median(refs) / REF_NOMINAL_S,
                "failed": failed,
                "unexpected": unexpected, "evals": self.counter.n - evals0,
                "rows": rows, "bytes": out_bytes}


def measure(runner, seconds, after_pass=None):
    """Whole passes until another one would overrun ``seconds`` of passes.

    ``after_pass(share of seconds used)`` runs between passes, unmeasured.
    """
    passes = []
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        busy += time.perf_counter() - t0
        if after_pass:
            after_pass(busy / seconds)
        if (len(passes) >= MIN_PASSES
                and busy * (len(passes) + 1) / len(passes) > seconds):
            return passes


def _seconds(p, corrected):
    return p["lat"] / p["drift"] if corrected else p["lat"]


def tasks_per_s(passes, corrected=True):
    return statistics.median(len(p["lat"]) / _seconds(p, corrected).sum()
                             for p in passes)


# ---------------------------------------------------------------------------
# Metrics


def latency_ms(passes, workload, corrected=True):
    """(p50, tail, tail percentile, samples, samples beyond the tail)."""
    lat = np.concatenate([_seconds(p, corrected) for p in passes]) * 1000.0
    n = len(lat)
    pct = TAIL_PCT[workload]
    if n * (1.0 - pct / 100.0) < TAIL_MIN_BEYOND:
        pct = max(0.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / n))
    tail = float(np.percentile(lat, pct))
    return (float(np.percentile(lat, 50.0)), tail, pct, n,
            int(np.sum(lat > tail)))


def end_to_end(workload, passes, setup_s):
    p50, tail, pct, n, beyond = latency_ms(passes, workload)
    tasks = sum(len(p["lat"]) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (tasks_per_s(passes), "1/s"),
        "task_ms_p50": (p50, "ms"),
        "task_ms_tail": (tail, "ms"),
        "evals_per_task": (sum(p["evals"] for p in passes) / tasks, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    raw_p50, raw_tail = latency_ms(passes, workload, corrected=False)[:2]
    notes = {"latency_samples": n, "tail_percentile": pct,
             "samples_beyond_tail": beyond,
             "raw": {"tasks_per_s": tasks_per_s(passes, corrected=False),
                     "task_ms_p50": raw_p50, "task_ms_tail": raw_tail}}
    return metrics, notes


def per_layer(passes, snaps, setup_tf, untraced_passes):
    """Per-pass layer figures: medians over the traced passes.

    Times are divided by each pass's drift factor like the end-to-end ones.
    """
    deltas = [{k: b[k] - a[k] for k in a} for a, b in zip(snaps, snaps[1:])]
    for d, p in zip(deltas, passes):
        for key in [k for k in d if k.endswith("_s")]:
            d[key] /= p["drift"]

    def med(fn):
        return statistics.median(fn(d) for d in deltas)

    def ratio(num, den):
        return num / den if den else 0.0

    traced = tasks_per_s(passes)
    untraced = tasks_per_s(untraced_passes)
    drift = statistics.median(p["drift"] for p in passes)
    tf_n = setup_tf[0] + sum(d["classes.testfunctions"] for d in deltas)
    tf_s = setup_tf[1] / drift + sum(d["classes.testfunction_s"]
                                     for d in deltas)
    return {
        "oracle.calls": (med(lambda d: d["oracle.calls"]), "count"),
        "oracle.self_ms": (med(lambda d: d["oracle.self_s"] * 1e3), "ms"),
        "oracle.evals": (med(lambda d: d["oracle.evals"]), "count"),
        "oracle.subdivisions": (med(lambda d: d["oracle.subdivisions"]),
                                "count"),
        "oracle.failed": (med(lambda d: d["oracle.failed"]), "count"),
        "oracle.evals_per_subdivision": (
            med(lambda d: ratio(d["oracle.evals"], d["oracle.subdivisions"])),
            "count"),
        "bounds.calls": (med(lambda d: d["bounds.entries"]), "count"),
        "bounds.self_ms": (med(lambda d: d["bounds.self_s"] * 1e3), "ms"),
        "bounds.us_per_call": (
            med(lambda d: ratio(d["bounds.self_s"] * 1e6,
                                d["bounds.entries"])), "us"),
        "moments.calls": (med(lambda d: d["moments.entries"]), "count"),
        "moments.self_ms": (med(lambda d: d["moments.self_s"] * 1e3), "ms"),
        "moments.numeric_share": (
            med(lambda d: ratio(d["moments.numeric"],
                                d["moments.weighted"])), "share"),
        "means.calls": (med(lambda d: d["means.entries"]), "count"),
        "means.self_ms": (med(lambda d: d["means.self_s"] * 1e3), "ms"),
        "cli.calls": (med(lambda d: d["cli.entries"]), "count"),
        "cli.self_ms": (med(lambda d: d["cli.self_s"] * 1e3), "ms"),
        "cli.rows": (statistics.median(p["rows"] for p in passes), "count"),
        "cli.bytes_out": (statistics.median(p["bytes"] for p in passes),
                          "bytes"),
        "classes.calls": (med(lambda d: d["classes.entries"]), "count"),
        "classes.self_ms": (med(lambda d: d["classes.self_s"] * 1e3), "ms"),
        "classes.certify_calls": (med(lambda d: d["classes.certify_calls"]),
                                  "count"),
        "classes.certify_ms": (
            med(lambda d: ratio(d["classes.certify_s"] * 1e3,
                                d["classes.certify_calls"])), "ms"),
        "classes.samples_per_s": (
            med(lambda d: ratio(d["classes.samples"],
                                d["classes.certify_s"])), "1/s"),
        "classes.rejected": (med(lambda d: d["classes.rejected"]), "count"),
        "classes.testfunction_ms": (ratio(tf_s * 1e3, tf_n), "ms"),
        "trace.tasks_per_s": (traced, "1/s"),
        "trace.untraced_tasks_per_s": (untraced, "1/s"),
        "trace.overhead": (untraced / traced - 1.0, "share"),
    }


# ---------------------------------------------------------------------------
# Run information


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_info(args, quadcert):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "quadcert": quadcert.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit()}


class SetupProbes:
    """Setup times of fresh processes, spread over the run.

    A fresh import is file and extension loading, which the reference
    kernel does not track.  Each probe is instead divided by the time the
    same process took to import the standard library modules and numpy,
    over IMPORT_NOMINAL_S: on a 2-vCPU Xeon that cut the spread of single
    probes from 15% to 5%.  The raw times go to ``run_info``.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-probe"]
        self.times = []  # corrected, seconds
        self.raw = []    # (setup, reference import), seconds

    def due(self, share):
        while len(self.times) < min(SETUP_PROBES,
                                    math.ceil(share * SETUP_PROBES)):
            out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=120, check=True)
            setup_s, import_s = map(float, out.stdout.split()[-2:])
            self.raw.append((setup_s, import_s))
            self.times.append(setup_s * IMPORT_NOMINAL_S / import_s)


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["grid", "oracle", "custom"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import and input building, print it")
    args = ap.parse_args(argv)

    quadcert = import_package()
    sys.path.insert(1, str(HERE))
    import workloads
    import spans

    counter = workloads.EvalCounter()
    setup_tf = [0, 0.0]  # TestFunctions built in setup: count, seconds

    def make_tf(*a, **kw):
        t0 = time.perf_counter()
        tf = quadcert.classes.TestFunction(*a, **kw)
        setup_tf[0] += 1
        setup_tf[1] += time.perf_counter() - t0
        return tf

    with workloads.counting_cli_functions(counter):
        tasks = workloads.build(args.workload, args.seed, counter, make_tf)
        if args.setup_probe:
            print(time.perf_counter() - _T0, _T_NUMPY - _T0)
            return 0
        main_setup_s = time.perf_counter() - _T0
        info = run_info(args, quadcert)
        ref_before = time_reference(5)

        runner = Runner(tasks, counter)
        warm = runner.run_pass()  # checks every output once; not timed
        if args.trace == 0:
            probes = SetupProbes(args)
            passes = measure(runner, args.seconds, probes.due)
            probes.due(1.0)
            metrics, notes = end_to_end(args.workload, passes,
                                        statistics.median(probes.times))
            notes["setup_probes_raw_s"] = probes.raw
            counted = passes
        else:
            untraced = measure(runner, args.seconds / 2.0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                snaps = [tracer.snapshot()]
                passes = measure(runner, args.seconds / 2.0,
                                 lambda _: snaps.append(tracer.snapshot()))
            finally:
                tracer.restore()
            metrics = per_layer(passes, snaps, setup_tf, untraced)
            notes = {"untraced_passes": len(untraced)}
            counted = untraced + passes
    ref_after = time_reference(5)

    attempted = sum(len(p["lat"]) for p in counted)
    failed = sum(p["failed"] for p in counted)
    unexpected = sum(p["unexpected"] for p in counted) + warm["unexpected"]
    drifts = [p["drift"] for p in counted]
    info.update(notes, passes=len(passes), tasks_per_pass=len(tasks),
                main_setup_s=main_setup_s,
                reference_ms={"before": ref_before * 1e3,
                              "after": ref_after * 1e3,
                              "nominal": REF_NOMINAL_S * 1e3},
                drift={"median": statistics.median(drifts),
                              "min": min(drifts), "max": max(drifts)},
                failed_share=failed / attempted,
                known_failures=sorted(r for r, k in runner.reasons.items()
                                      if k),
                unexpected_failures=sorted(r for r, k in
                                           runner.reasons.items() if not k))
    print("run_info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:16.6f} {unit}")
    print(f"  {'failed_share':30s} {failed / attempted:16.6f} share "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": unexpected == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
