"""Fast self-test of the benchmark at toy size (about a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at toy size with a seed not used to
tune the benchmark, checks that each metric BENCHMARK.json names is printed
with its unit, and checks that corrupted grid scores make the run fail:
a non-finite score, a score above 1, and a small shift that only the mel
reference can catch.  Exits 0 when everything holds.
"""

import contextlib
import io
import json
import math
import os
import sys

from run import ROOT, THREAD_PINS, import_sarlab, main as run_main

SEED = 9173
WORKLOADS = ("train_c5", "train_ragged", "grid_c5")


def run_toy(workload, trace):
    """(exit code, parsed result line) of one toy-size run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "1", "--trace", str(trace)], toy=True)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def metric_problems(result, expected):
    """Differences between the printed metrics and BENCHMARK.json's list."""
    problems = []
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name]["unit"] != unit:
            problems.append("metric %s has unit %r, BENCHMARK.json says %r"
                            % (name, got[name]["unit"], unit))
        elif not math.isfinite(got[name]["value"]):
            problems.append("metric %s is %r" % (name, got[name]["value"]))
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    return problems


def corrupted_run(corrupt_score):
    """A toy grid run in which every ESTOI score harness sees is corrupted."""
    from sarlab import harness
    real = harness.estoi
    harness.estoi = lambda ref, deg: corrupt_score(real(ref, deg))
    try:
        return run_toy("grid_c5", 0)
    finally:
        harness.estoi = real


def main():
    os.environ.update(THREAD_PINS)
    if import_sarlab() is None:
        print("sarlab not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_toy(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append("%s: exit %d, correct %s, failed %s"
                                % (label, code, result["correct"], result["failed"]))
            problems += ["%s: %s" % (label, p)
                         for p in metric_problems(result, expected[trace])]
            print("ok" if len(problems) == before else "FAILED", label, flush=True)

    cases = (("non-finite score", lambda s: float("nan"), True),
             ("score above 1", lambda s: 1.5, True),
             ("score shifted by 1e-3", lambda s: s + 1e-3, False))
    for label, corrupt_score, counted_as_failed in cases:
        code, result = corrupted_run(corrupt_score)
        caught = code != 0 and not result["correct"]
        if counted_as_failed:
            caught = caught and result["failed"] > 0
        if not caught:
            problems.append("%s not caught: exit %d, correct %s, failed %s"
                            % (label, code, result["correct"], result["failed"]))
        print("ok" if caught else "FAILED", "corrupted grid:", label, flush=True)

    for p in problems:
        print("problem: %s" % p)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
