"""Batch front end: seeded experiment runner with deterministic reports.

Reports carry no wall-clock data (timing goes to stderr), so a fixed
config always produces the same bytes.  Trial k draws its randomness
from a Philox stream keyed (seed, k) and is reproducible in isolation.
"""

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .gf import GFError, field_of_order
from .projgeom import (GeomError, certify_triples, check_axioms, check_plane,
                       check_sweep_tables, desargues_sweep, space_of,
                       space_size)
from .semilinear import SemilinearError, equal_up_to_scalar, random_semilinear
from .ample import AmpleError, AmpleFamily
from .extend import (ExtendError, brute_force_extensions, extend,
                     random_ample_instance, restrict)
from .primesets import (PrimeSetError, check_density_bound,
                        construct_remark28, natural_density_estimate)
from .funcfield import FuncFieldError, run_demo

SCHEMA = 1
TRIALS_CAP = 1000   # trials in one extend or oracle battery

_ERRORS = (GFError, GeomError, SemilinearError, AmpleError, ExtendError,
           PrimeSetError, FuncFieldError)


def trial_rng(seed, trial):
    # a uint64 key: a list key goes through a lossy cast at 2^63 and above
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_extend_pre(q, d, t, trials):
    if not 1 <= trials <= TRIALS_CAP:
        raise ExtendError("precondition: --trials must be from 1 to %d"
                          % TRIALS_CAP)
    if d < 3:
        raise ExtendError("precondition: dimension must be at least 3")
    if q <= 3 * t + 1:
        raise ExtendError(
            "precondition: q = %d fails q > 3t+1 at t = %d" % (q, t))


def _field(q, d, check=space_size):
    """GF(q) once check(q, d) has passed, so an oversized space is refused
    before the field tables (GF(2^10) alone takes about 0.25 s to build
    on 2 vCPUs)."""
    if q >= 2:   # space_size divides by q - 1; field_of_order refuses q
        check(q, d)
    return field_of_order(q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _trials(cfg, judge):
    """Report of cfg.trials seeded trials.  Trial k restricts a random
    semilinear map iso, with collineation truth, to a random U ample for
    size_at_most(t), giving pc; its record is trial, kind and n_u1 plus
    the fields judge(k, fam, iso, truth, pc) returns."""
    q, d, t = cfg.q, cfg.d, cfg.t
    _check_extend_pre(q, d, t, cfg.trials)
    space = space_of(_field(q, d), d)
    fam = AmpleFamily.size_at_most(t)
    trials = []
    for k in range(cfg.trials):
        rng = trial_rng(cfg.seed, k)
        iso = random_semilinear(space, rng)
        truth = iso.induce()
        U, kind = random_ample_instance(space, t, rng)
        pc = restrict(truth, U)
        trials.append(dict(judge(k, fam, iso, truth, pc), trial=k, kind=kind,
                           n_u1=int(len(U))))
    return _wrap(cfg, trials)


def cmd_extend(cfg):
    """Random scramble -> restrict -> extend -> decode round trips."""
    def judge(k, fam, iso, truth, pc):
        res = extend(pc, fam, seed=k)
        ok = (np.array_equal(res.sigma_tilde, truth.sigma)
              and equal_up_to_scalar(res.decoded, iso))
        return {"frob": int(iso.frob_exp), "ok": bool(ok)}
    return _trials(cfg, judge)


def cmd_oracle(cfg):
    """Exhaustive uniqueness counts against the extension output."""
    def judge(k, fam, iso, truth, pc):
        found = brute_force_extensions(pc)
        res = extend(pc, fam, seed=k)
        ok = (len(found) == 1
              and np.array_equal(found[0].sigma, res.sigma_tilde))
        return {"count": int(len(found)), "ok": bool(ok)}
    return _trials(cfg, judge)


def cmd_primesets(cfg):
    """Low-density prime set construction with its certificate."""
    check_density_bound(cfg.bound)   # before any sieve
    ps, cert = construct_remark28(cfg.g, cfg.p, cfg.eps)
    density = natural_density_estimate(ps, cfg.bound)
    ok = bool(cert["all_pass"])
    rec = {
        "trial": 0,
        "r": int(ps.r),
        "density": str(density),
        "density_float": round(float(density), 6),
        "density_bound": str(cert["density_bound"]),
        "cert_checked": int(cert["n_checked"]),
        "cert_bound": int(cert["checked_to"]),
        "ok": ok,
    }
    return _wrap(cfg, [rec])


def cmd_ffdemo(cfg):
    """Function-field pipeline demo; --q 13 or 9 selects the instance."""
    key = {13: "q13", 9: "q9frob"}.get(cfg.q)
    if key is None:
        raise FuncFieldError("no demo instance at q = %d (use 13 or 9)"
                             % cfg.q)
    rep = run_demo(key, seed=cfg.seed)
    ok = bool(rep["multiplicative"] and rep["matches_truth"]
              and rep["ample"] and rep["extendable"])
    rec = dict(rep, trial=0, ok=ok)
    return _wrap(cfg, [rec])


def cmd_checkgeom(cfg):
    """Exhaustive incidence axioms and the Desargues property."""
    check_plane(cfg.d)
    space = space_of(_field(cfg.q, cfg.d, check_sweep_tables), cfg.d)
    T = certify_triples(space)   # once, for both sweeps
    ax = check_axioms(space, triples=T)
    sample = None if space.d == 3 else 2000
    checked, witness = desargues_sweep(space, sample=sample, seed=cfg.seed,
                                       triples=T)
    rec = {
        "trial": 0,
        "axioms_ok": bool(ax.ok),
        "axiom_configs": {k: int(v) for k, v in ax.checked.items()},
        "desargues_checked": int(checked),
        "desargues_ok": witness is None,
        "ok": bool(ax.ok and witness is None),
    }
    return _wrap(cfg, [rec])


_COMMANDS = {
    "extend": cmd_extend,
    "oracle": cmd_oracle,
    "primesets": cmd_primesets,
    "ffdemo": cmd_ffdemo,
    "checkgeom": cmd_checkgeom,
}


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _wrap(cfg, trials):
    passed = sum(1 for t in trials if t["ok"])
    return {
        "schema": SCHEMA,
        "config": {
            "cmd": cfg.cmd, "q": cfg.q, "d": cfg.d, "t": cfg.t,
            "trials": len(trials), "seed": cfg.seed, "g": cfg.g, "p": cfg.p,
            "eps": str(cfg.eps), "bound": cfg.bound,
        },
        "trials": trials,
        "aggregate": {"n": len(trials), "passed": passed,
                      "all_pass": passed == len(trials)},
    }


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          default=str) + "\n"
    cols = sorted({k for t in report["trials"] for k in t})
    lines = [",".join(cols)]
    for t in report["trials"]:
        lines.append(",".join(_csv_cell(t.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(v):
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _fraction(text):
    """--eps as a Fraction; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("%r has a zero denominator" % text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="collinext",
        description="collineation extension experiments over finite fields")
    ap.add_argument("--cmd", required=True, choices=sorted(_COMMANDS))
    ap.add_argument("--q", type=int, default=5)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--t", type=int, default=1)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--g", type=int, default=1)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--eps", type=_fraction, default=Fraction(3, 10))
    ap.add_argument("--bound", type=int, default=10 ** 5)
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


# one parser per process: parse_args leaves it as it was
_parser = functools.cache(build_parser)


def main(argv=None):
    cfg = _parser().parse_args(argv)
    if not 0 <= cfg.seed < 1 << 64:   # Philox's key words are 64-bit
        print("rejected: --seed must be at least 0 and below 2^64",
              file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        report = _COMMANDS[cfg.cmd](cfg)
    except _ERRORS as err:
        print("rejected: %s" % err, file=sys.stderr)
        return 2
    text = render(report, cfg.format)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print("rejected: --out: %s" % err, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print("elapsed %.2fs" % (time.time() - t0), file=sys.stderr)
    return 0 if report["aggregate"]["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
