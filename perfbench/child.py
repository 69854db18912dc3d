"""One workload process: set up, run rounds for a time budget, report.

    python3 perfbench/child.py WORKLOAD --mode {setup,run,trace}
        --seed N --seconds S [--tiny] [--spans FILE]

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output is one JSON object.  run.py starts this
process and points TMPDIR into the checkout.
"""

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from statistics import median

import numpy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402
from tracing import ROUND, SETUP, Recorder, install  # noqa: E402

MIN_ROUNDS = 2
MAX_ROUNDS = 1000    # round seeds stay distinct across run seeds


def import_program(root):
    """Import collinext.cli from root/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import collinext
    import collinext.cli
    where = os.path.realpath(os.path.dirname(collinext.__file__))
    if where != os.path.realpath(os.path.join(src, "collinext")):
        raise SystemExit("perfbench: imported collinext from %s, not %s"
                         % (where, src))
    return collinext


def table_bytes(field):
    return sum(int(v.nbytes) for v in vars(field).values()
               if isinstance(v, numpy.ndarray))


def run_rounds(workload, ctx, args, start, rec):
    """Rounds back to back until the next would overrun the budget."""
    round_s, attempted, failed, errors = [], 0, 0, []
    while len(round_s) < MAX_ROUNDS:
        steps = workload.steps(wl.round_seed(args.seed, len(round_s)),
                               args.tiny)
        span = rec.open(ROUND) if rec is not None else None
        t0 = time.perf_counter()
        for step in steps:
            bad, msgs = step.run(ctx)
            attempted += step.units
            failed += bad
            errors += msgs
        round_s.append(time.perf_counter() - t0)
        if rec is not None:
            rec.close(span)
        if (len(round_s) >= MIN_ROUNDS
                and time.monotonic() - start + median(round_s) > args.seconds):
            break
    return round_s, attempted, failed, errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    collinext = import_program(os.getcwd())
    rec = None
    if args.mode == "trace":
        rec = Recorder()
        install(rec)
        setup_span = rec.open(SETUP)
    fields = [collinext.gf.make_field(p, n) for p, n in workload.fields]
    if rec is not None:
        rec.close(setup_span)
    setup_done = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        ctx = wl.Context(collinext.cli, collinext.primesets,
                         os.path.join(tmp, "report.json"))
        round_s, attempted, failed, errors = run_rounds(
            workload, ctx, args, setup_done, rec)

    out = {
        "setup_done": setup_done,
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__,
                "use_numba": bool(collinext._kernels.USE_NUMBA)},
    }
    if rec is not None:
        out["layers"] = rec.layer_metrics(len(round_s))
        out["layers"]["gf.table_bytes"] = sum(table_bytes(f) for f in fields)
        if args.spans:
            rec.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
