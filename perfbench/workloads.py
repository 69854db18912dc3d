"""The four workloads: the fields each builds in set-up, the steps of one
round, and the correctness gate every step's output must pass.

A round is a fixed list of steps run back to back by one client.  Its
inputs come from the round seed only, so the same run seed gives the same
rounds.  Every expected value below holds on any seed: closed forms, or
counts frozen from the seed commit.
"""

import json
import os
from dataclasses import dataclass

EXPECT = {
    # exhaustive Desargues configurations on P^2(F_q)
    "desargues": {3: 1_316_952, 4: 35_091_840},
    # checkgeom samples this many admissible configurations off planes
    "desargues_sample": 2000,
    # in-range product pairs of the function-field demo, by q
    "ffdemo_pairs": {13: 703, 9: 262},
    # least qualifying prime of the low-density set at the CLI defaults
    "primesets_r": 13,
}

# (q, characteristic) cells of the growth-recovery grid
GROWTH_FIELDS = ((2, 2), (3, 3), (4, 2), (5, 5), (9, 3))
GROWTH_A = (1, 2, 3)
GROWTH_COMPLEMENTS = ((), (3,), (3, 5))


def n_points(q, d):
    return (q ** d - 1) // (q - 1)


def axiom2_count(q, d):
    """T((q+1)^2 - 1) with T = P(P-1)(P-q-1) ordered non-collinear triples."""
    P = n_points(q, d)
    return P * (P - 1) * (P - q - 1) * ((q + 1) ** 2 - 1)


@dataclass
class Context:
    """What a step needs: the program's modules and a scratch file."""
    cli: object
    primesets: object
    out_path: str


@dataclass
class Step:
    units: int    # trials the step attempts
    run: object   # Context -> (failed units, messages)


def cli_step(argv, units, check):
    """One `collinext` command through cli.main, gated by check(report)."""
    def run(ctx):
        if os.path.exists(ctx.out_path):
            os.remove(ctx.out_path)
        try:
            rc = ctx.cli.main(argv + ["--out", ctx.out_path])
        except (Exception, SystemExit) as err:
            return units, ["%s raised %r" % (" ".join(argv), err)]
        if rc != 0:
            return units, ["%s exited %r" % (" ".join(argv), rc)]
        with open(ctx.out_path) as fh:
            report = json.load(fh)
        failed, msgs = check(report)
        return failed, ["%s: %s" % (" ".join(argv), m) for m in msgs]
    return Step(units, run)


def trials_check(n, extra=None, what=""):
    """Exactly n trials, each with ok true and extra(trial) true."""
    def check(report):
        trials = report["trials"]
        bad = [t.get("trial") for t in trials
               if t.get("ok") is not True or (extra and not extra(t))]
        missing = max(0, n - len(trials))
        msgs = []
        if bad:
            msgs.append("trials %s fail %s" % (bad, what or "ok"))
        if len(trials) != n:
            msgs.append("%d trials reported, %d run" % (len(trials), n))
        return min(n, len(bad) + missing), msgs
    return check


def single_check(test):
    """One-record report; test(record) lists what is wrong with it."""
    def check(report):
        trials = report["trials"]
        if len(trials) != 1:
            return 1, ["%d records, expected 1" % len(trials)]
        msgs = test(trials[0])
        return int(bool(msgs)), msgs
    return check


def geometry_test(q, d):
    def test(rec):
        msgs = []
        got = rec["axiom_configs"]
        want = {"points": n_points(q, d), "axiom_ii_configs": axiom2_count(q, d)}
        msgs += ["%s = %s, expected %s" % (k, got.get(k), v)
                 for k, v in want.items() if got.get(k) != v]
        dwant = EXPECT["desargues"][q] if d == 3 else EXPECT["desargues_sample"]
        if rec["desargues_checked"] != dwant:
            msgs.append("desargues_checked = %s, expected %s"
                        % (rec["desargues_checked"], dwant))
        if not (rec["axioms_ok"] and rec["desargues_ok"] and rec["ok"]):
            msgs.append("axioms or Desargues reported failing")
        return msgs
    return test


def ffdemo_test(q):
    def test(rec):
        msgs = []
        if rec["pairs_checked"] != EXPECT["ffdemo_pairs"][q]:
            msgs.append("pairs_checked = %s, expected %s"
                        % (rec["pairs_checked"], EXPECT["ffdemo_pairs"][q]))
        if not (rec["matches_truth"] is True and rec["multiplicative"]
                and rec["ok"]):
            msgs.append("recovered map does not match the scramble")
        return msgs
    return test


def primesets_test(rec):
    msgs = []
    if rec["r"] != EXPECT["primesets_r"]:
        msgs.append("r = %s, expected %s" % (rec["r"], EXPECT["primesets_r"]))
    if not rec["ok"]:
        msgs.append("certificate failed")
    return msgs


def extend_step(q, d, trials, seed):
    argv = ["--cmd", "extend", "--q", str(q), "--d", str(d), "--t", "1",
            "--trials", str(trials), "--seed", str(seed)]
    return cli_step(argv, trials, trials_check(trials))


def oracle_step(q, trials, seed):
    argv = ["--cmd", "oracle", "--q", str(q), "--d", "3", "--t", "1",
            "--trials", str(trials), "--seed", str(seed)]
    return cli_step(argv, trials, trials_check(
        trials, lambda t: t.get("count") == 1, "count == 1"))


def checkgeom_step(q, d, seed):
    argv = ["--cmd", "checkgeom", "--q", str(q), "--d", str(d),
            "--seed", str(seed)]
    return cli_step(argv, 1, single_check(geometry_test(q, d)))


def ffdemo_step(q, seed):
    argv = ["--cmd", "ffdemo", "--q", str(q), "--seed", str(seed)]
    return cli_step(argv, 1, single_check(ffdemo_test(q)))


def primesets_step():
    return cli_step(["--cmd", "primesets"], 1, single_check(primesets_test))


def growth_step(length):
    """Recover (q^(2a), p) from w_sequence on a doubling schedule."""
    schedule = [2 ** j for j in range(length)]
    cells = [(q, p, a, comp) for q, p in GROWTH_FIELDS for a in GROWTH_A
             for comp in GROWTH_COMPLEMENTS]

    def run(ctx):
        ps = ctx.primesets
        msgs = []
        for q, p, a, comp in cells:
            try:
                got = ps.recover_M0_and_p(ps.w_sequence(
                    q, a, ps.PrimeSet.cofinite(list(comp)), schedule))
            except Exception as err:
                got = err
            if got != (q ** (2 * a), p):
                msgs.append("growth q=%d a=%d sigma'=%s: got %r"
                            % (q, a, list(comp), got))
        return len(msgs), msgs
    return Step(len(cells), run)


def extend_large(seed, tiny):
    if tiny:
        return [extend_step(8, 4, 1, seed)]
    return [extend_step(8, 4, 2, seed), extend_step(5, 5, 1, seed)]


def oracle(seed, tiny):
    return [oracle_step(5, 1 if tiny else 2, seed)]


def geometry(seed, tiny):
    cells = ((3, 3),) if tiny else ((3, 3), (4, 3), (3, 4))
    return [checkgeom_step(q, d, seed) for q, d in cells]


def small_batch(seed, tiny):
    n, demos, length = (2, 1, 6) if tiny else (10, 3, 7)
    steps = [extend_step(9, 3, n, seed), extend_step(5, 4, n, seed)]
    for j in range(demos):
        steps += [ffdemo_step(13, seed * demos + j),
                  ffdemo_step(9, seed * demos + j)]
    return steps + [primesets_step(), growth_step(length)]


@dataclass(frozen=True)
class Workload:
    fields: tuple   # (p, n) of every field the commands use
    steps: object   # (round seed, tiny) -> [Step]


WORKLOADS = {
    "extend_large": Workload(((2, 3), (5, 1)), extend_large),
    "oracle": Workload(((5, 1),), oracle),
    "geometry": Workload(((3, 1), (2, 2)), geometry),
    "small_batch": Workload(((3, 2), (5, 1), (13, 1)), small_batch),
}


def round_seed(seed, r):
    """Seed of round r of a run; rounds never share inputs across runs."""
    return seed * 1000 + r
