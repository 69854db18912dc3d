#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
  - every workload, traced and untraced, prints each metric named in
    BENCHMARK.json with its unit, and passes its correctness gate;
  - the gate rejects a deliberately wrong expected count;
  - the closed form gives the acceptance suite's axiom-II counts;
  - without the program's source the benchmark exits non-zero and prints
    no result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from run import WORK_DIR  # noqa: E402

FAILURES = []


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_outputs(root, spec):
    for workload in sorted(wl.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(root, workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and lines, "%s exits 0" % tag)
            if not lines:
                continue
            res = json.loads(lines[-1])
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], "%s result keys" % tag)
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1, "%s passes its gate" % tag)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, "%s prints every %s metric with its unit"
                   % (tag, key))
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   "%s metric values are numbers" % tag)
            env = json.loads(lines[-2])["env"]
            expect({"nproc", "python", "numpy", "use_numba", "git_sha",
                    "seed"} <= set(env), "%s records its environment" % tag)


def check_gate(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import collinext.cli
    import collinext.primesets
    expect([wl.axiom2_count(3, 3), wl.axiom2_count(4, 3),
            wl.axiom2_count(3, 4)] == [21060, 161280, 842400],
           "axiom-II closed form gives 21060, 161280, 842400")
    with tempfile.TemporaryDirectory() as tmp:
        ctx = wl.Context(collinext.cli, collinext.primesets,
                         os.path.join(tmp, "report.json"))
        right = wl.EXPECT["desargues"][3]
        try:
            wl.EXPECT["desargues"][3] = right + 1
            failed, msgs = wl.checkgeom_step(3, 3, 0).run(ctx)
        finally:
            wl.EXPECT["desargues"][3] = right
        expect(failed == 1 and any("desargues_checked" in m for m in msgs),
               "gate rejects a wrong Desargues count")
        failed, msgs = wl.checkgeom_step(3, 3, 0).run(ctx)
        expect(failed == 0 and not msgs, "gate accepts the right count")


def check_no_program(root):
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits %d and prints no result"
               % proc.returncode)


def main():
    root = os.getcwd()
    # keep every temporary file inside the checkout
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    tempfile.tempdir = work
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_gate(root)
    check_no_program(root)
    check_outputs(root, spec)
    print("selftest: %s" % ("ok" if not FAILURES else
                            "%d failed" % len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
