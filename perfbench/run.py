#!/usr/bin/env python3
"""Benchmark of the collinext pipeline: four seeded workloads through the
`collinext` command line, with a separate traced run for per-layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/collinext; NAME is one of
extend_large, oracle, geometry, small_batch, or `all` for each in turn.
The load is a closed loop with one client: a workload process runs its
commands back to back through collinext.cli.main, in rounds, until the
time budget is spent.  Workload processes run one at a time, with BLAS
and OpenMP pinned to one thread.

--trace 0 times set-up in seven fresh processes and the rounds in the
middle one, and reports the end-to-end metrics of BENCHMARK.json.  --trace 1
splits the budget between an untraced process and a traced one (spans
around every public collinext function, written to .perfbench_work/) and
reports the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment the numbers come from, the round times and fail_share, the
share of attempted trials that failed their correctness gate.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 7
BUDGET_S = 170.0     # a whole run ends, hung or not, before 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Spawner:
    """Runs workload processes one at a time under a shared deadline."""

    def __init__(self, root, seed, tiny):
        self.root, self.seed, self.tiny = root, seed, tiny
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, TMPDIR=os.path.join(root, WORK_DIR))
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))

    def run(self, workload, mode, seconds, spans=None):
        """(launch time, parsed last line or None, failure text or None)"""
        argv = [sys.executable, CHILD, workload, "--mode", mode,
                "--seed", str(self.seed), "--seconds", repr(seconds)]
        argv += ["--tiny"] if self.tiny else []
        argv += ["--spans", spans] if spans else []
        launched = time.monotonic()
        left = self.deadline - launched
        if left <= 0:
            return launched, None, "%s: wall-time limit reached" % mode
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            return launched, None, "%s: killed at the wall-time limit" % mode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return launched, None, "%s: exit %d: %s" % (
                mode, proc.returncode, proc.stderr.strip()[-2000:])
        try:
            return launched, json.loads(lines[-1]), None
        except ValueError:
            return launched, None, "%s: unreadable result %r" % (
                mode, lines[-1][:200])


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure_e2e(sp, workload, seconds):
    """setup_s, run_s and peak_rss_mb with tracing off."""
    setups, failures = [], []

    def sample_setups(n):
        for _ in range(n):
            launched, out, err = sp.run(workload, "setup", seconds)
            if out is None:
                failures.append(err)
            else:
                setups.append(out["setup_done"] - launched)

    # set-up samples on both sides of the timed rounds, so that a slow
    # spell of the machine does not decide the median alone
    sample_setups(SETUP_SAMPLES // 2)
    launched, main, err = sp.run(workload, "run", seconds)
    if main is None:
        failures.append(err)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        main = {"round_s": [time.monotonic() - launched], "attempted": 0,
                "failed": 0, "errors": [], "env": {},
                "peak_rss_mb": rss_kb / 1024.0}
    else:
        setups.append(main["setup_done"] - launched)
    sample_setups(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    values = {"setup_s": median(setups) if setups else 0.0,
              "run_s": median(main["round_s"]),
              "peak_rss_mb": main["peak_rss_mb"]}
    return values, [main], failures


def measure_layers(sp, workload, seconds):
    """Per-layer metrics from a traced process, and its overhead against
    an untraced one running the same rounds."""
    spans = os.path.join(sp.root, WORK_DIR, "spans-%s-seed%d.jsonl"
                         % (workload, sp.seed))
    _, base, err_base = sp.run(workload, "run", seconds / 2)
    _, traced, err_traced = sp.run(workload, "trace", seconds / 2, spans)
    failures = [e for e in (err_base, err_traced) if e]
    if failures:
        return None, [r for r in (base, traced) if r], failures
    values = dict(traced["layers"])
    n = min(len(base["round_s"]), len(traced["round_s"]))
    values["trace.overhead_s"] = (median(traced["round_s"][:n])
                                  - median(base["round_s"][:n]))
    return values, [base, traced], failures


def run_workload(sp, spec, workload, seconds, trace):
    measure = measure_layers if trace else measure_e2e
    values, outs, failures = measure(sp, workload, seconds)
    attempted = sum(o["attempted"] for o in outs) + len(failures)
    failed = sum(o["failed"] for o in outs) + len(failures)
    errors = failures + [e for o in outs for e in o["errors"]]
    fail_share = failed / max(1, attempted)
    if values is not None:
        values["fail_share"] = fail_share
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0.0,
                           "unit": m["unit"]} for m in names}
    env = dict(outs[-1]["env"]) if outs else {}
    env.update(workload=workload, seed=sp.seed, seconds=seconds,
               trace=int(trace), nproc=os.cpu_count(), git_sha=git_sha(sp.root))
    info = {"env": env, "fail_share": fail_share,
            "round_s": [o["round_s"] for o in outs], "errors": errors[:20]}
    result = {"correct": not errors and failed == 0,
              "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a small version of each workload, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "collinext", "cli.py")):
        print("perfbench: no src/collinext under %s; run from the root of "
              "a checkout" % root, file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("perfbench: no BENCHMARK.json under %s" % root, file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        sp = Spawner(root, args.seed, args.tiny)
        info, result = run_workload(sp, spec, name, args.seconds, args.trace)
        for err in info["errors"]:
            print("perfbench: %s: %s" % (name, err), file=sys.stderr)
        print(json.dumps(info))
        if len(names) > 1:
            print(json.dumps(dict(result, workload=name)))
        results.append(result)
    if len(names) > 1:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {"%s.%s" % (n, k): v for n, r in
                              zip(names, results)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
