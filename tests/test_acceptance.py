"""Acceptance gate: the nine headline checks, one line of output each.

Run with -s to see the per-criterion lines; every check is also a hard
assertion at the stated tolerance (exact unless noted).
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from collinext.gf import make_field, mat_apply, mat_inv, rref
from collinext.projgeom import ProjSpace, check_axioms, desargues_sweep
from collinext.semilinear import (SemilinearIso, equal_up_to_scalar,
                                  random_semilinear)
from collinext.ample import AmpleFamily, is_ample, is_mn_admissible
from collinext.extend import (_flat_points, _frame_in,
                              brute_force_extensions, extend,
                              random_ample_instance, restrict)
from collinext.primesets import (PrimeSet, construct_remark28, gl_order,
                                 natural_density_estimate, recover_M0_and_p,
                                 w_sequence)
from collinext.funcfield import run_demo
from test_brute import ref_brute_force_extensions

_FIELDS = {}


def field(q):
    if q not in _FIELDS:
        for p in (2, 3, 5, 7):
            n = 1
            while p ** n < q:
                n += 1
            if p ** n == q:
                _FIELDS[q] = make_field(p, n)
    return _FIELDS[q]


def report(n, ok, detail):
    print("criterion %d: %s  %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok


def test_criterion_1_unique_extension_brute_force():
    # 20 random ample instances on P2(F5), S = size_at_most(1): the full
    # 372000-element sweep finds exactly one extension, equal to extend's
    # and to the frame search's
    t0 = time.time()
    space = ProjSpace(field(5), 3)
    fam = AmpleFamily.size_at_most(1)
    ok = True
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        iso = random_semilinear(space, rng)
        truth = iso.induce()
        U, _ = random_ample_instance(space, 1, rng)
        pc = restrict(truth, U)
        found = ref_brute_force_extensions(pc)
        res = extend(pc, fam, seed=k)
        ok &= (len(found) == 1 and brute_force_extensions(pc) == found
               and np.array_equal(found[0].sigma, res.sigma_tilde)
               and np.array_equal(found[0].sigma, truth.sigma))
    dt = time.time() - t0
    ok &= dt < 300
    report(1, ok, "20/20 unique over 372000 collineations, %.1fs" % dt)


def test_criterion_2_roundtrip_at_scale():
    # restrict -> extend -> decode recovers the map up to scalar, with
    # sigma-tilde exact under shuffled choice order; 100 trials per config
    lines = []
    ok = True
    for q, d in [(5, 3), (7, 3), (8, 3), (9, 3), (5, 4)]:
        t0 = time.time()
        space = ProjSpace(field(q), d)
        fam = AmpleFamily.size_at_most(1)
        good = 0
        for k in range(100):
            rng = np.random.default_rng(2000 + 37 * q + 11 * d + k)
            iso = random_semilinear(space, rng)
            truth = iso.induce()
            U, _ = random_ample_instance(space, 1, rng)
            res = extend(restrict(truth, U), fam, seed=k)
            good += (np.array_equal(res.sigma_tilde, truth.sigma)
                     and equal_up_to_scalar(res.decoded, iso))
        dt = time.time() - t0
        ok &= good == 100 and dt < 120
        lines.append("(%d,%d) %d/100 %.1fs" % (q, d, good, dt))
    report(2, ok, "; ".join(lines))


def test_criterion_3_geometry_ground_truth():
    t0 = time.time()
    ok = True
    counts = {}
    for q in (2, 3):
        space = ProjSpace(field(q), 3)
        ax = check_axioms(space)
        checked, witness = desargues_sweep(space)
        ok &= ax.ok and witness is None
        counts[q] = (ax.checked["axiom_ii_configs"], checked)
    ok &= counts[2] == (1344, 13440) and counts[3] == (21060, 1316952)
    report(3, ok, "P2(F2) %s, P2(F3) %s configs, %.1fs"
           % (counts[2], counts[3], time.time() - t0))


def test_criterion_4_admissibility_criterion():
    t0 = time.time()
    ok = True
    n_checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m, n, t in itertools.product(range(1, 5), range(0, 5),
                                         range(0, 5)):
            fam = AmpleFamily.size_at_most(t)
            got = is_mn_admissible(fam, q, m, n)
            want = q > m * t + n - 1
            ok &= got == want
            n_checked += 1
    report(4, ok, "%d grid cells, exact, %.1fs" % (n_checked,
                                                   time.time() - t0))


def test_criterion_5_growth_recovery_closed_loop():
    t0 = time.time()
    ok = True
    for q, char in [(2, 2), (3, 3), (4, 2), (5, 5), (9, 3)]:
        for a in (1, 2, 3):
            for comp in ([], [3], [3, 5]):
                g = w_sequence(q, a, PrimeSet.cofinite(comp),
                               [2 ** j for j in range(6)])
                ok &= recover_M0_and_p(g) == (q ** (2 * a), char)
    report(5, ok, "45 (q, a, sigma') cells exact, %.1fs" % (time.time() - t0))


def test_criterion_6_low_density_prime_set():
    t0 = time.time()
    ps, cert = construct_remark28(1, 2, Fraction(3, 10))
    density = natural_density_estimate(ps, 10 ** 5)
    ok = (ps.r == 13
          and cert["density_bound"] == Fraction(1, 4)
          and density <= Fraction(1, 4) + Fraction(5, 100)
          and cert["all_pass"] and cert["checked_to"] == 10 ** 4)
    dt = time.time() - t0
    ok &= dt < 60
    report(6, ok, "r=13, density@1e5 = %.4f <= 0.30, certificate clean, "
           "%.1fs" % (float(density), dt))


def test_criterion_7_gl_order_formula():
    t0 = time.time()
    ok = True
    for n, l, expect in [(2, 2, 6), (2, 3, 48)]:
        cnt = 0
        for flat in itertools.product(range(l), repeat=n * n):
            m = np.array(flat).reshape(n, n)
            cnt += int(round(np.linalg.det(m))) % l != 0
        ok &= gl_order(n, l) == expect == cnt
    report(7, ok, "gl_order(2,2)=6, gl_order(2,3)=48 vs brute counts, "
           "%.1fs" % (time.time() - t0))


def test_criterion_8_ring_iso_recovery():
    t0 = time.time()
    r13 = run_demo("q13")
    r9 = run_demo("q9frob")
    ok = (r13["multiplicative"] and r13["matches_truth"]
          and r13["psi_fixes_one"] and r13["pairs_checked"] > 0
          and r9["multiplicative"] and r9["matches_truth"]
          and r9["recovered_frob"] == 1)
    dt = time.time() - t0
    ok &= dt < 60
    report(8, ok, "q=13 (%d pairs) and q=9 frob=1 (%d pairs) recovered, "
           "%.1fs" % (r13["pairs_checked"], r9["pairs_checked"], dt))


def holds_frame(space, U):
    """Whether U holds d + 1 points in general position: d independent
    points and one whose coordinates in their basis are all nonzero."""
    f, pts = space.field, space.pts[U]
    if _frame_in(space, np.array(U))[1] is not None:
        return True
    for B in itertools.combinations(range(len(U)), space.d):
        if len(rref(f, pts[list(B)])[1]) == space.d:
            x = mat_apply(f, mat_inv(f, pts[list(B)]).T, pts)
            if (x != 0).all(axis=1).any():
                return True
    return False


def boundary_domain(space, kind, rng):
    """A seeded U holding a frame: the complement of a line, of a flat
    (a point up to a hyperplane), or a random frame with each other point
    added at a random density."""
    P, d = space.n_points, space.d
    while True:
        if kind == "random":
            frame = np.vstack([np.eye(d, dtype=int), np.ones((1, d), int)])
            g = random_semilinear(space, rng).sigma_array()
            keep = rng.random(P) < rng.choice([0.0, 0.3, 0.7])
            keep[g[space.canon_index_many(frame)]] = True
            return np.flatnonzero(keep).tolist()
        if kind == "line_complement":
            removed = space.line_pts[int(rng.integers(space.n_lines))]
        else:
            gens = space.pts[rng.choice(P, size=int(rng.integers(1, d)),
                                        replace=False)]
            removed = list(_flat_points(space, gens))
        U = np.setdiff1d(np.arange(P), removed).tolist()
        # a hyperplane complement over GF(2) holds no frame: the sum of
        # d points off the hyperplane lies on it when d is even
        if holds_frame(space, U):
            return U


def test_criterion_9_ampleness_boundary_table():
    # The extensions of restrict(g, U) are g composed with those of the
    # identity on U, so one oracle call on the identity per U counts them.
    # Every U holds a frame; an ample U (size_at_most(t), t = 1, 2) must
    # have exactly one, any other at least one.
    t0 = time.time()
    ok = True
    n_ample = 0
    other = {}
    for q, d in [(q, 3) for q in (2, 3, 4, 5, 7, 8, 9)] + [
            (q, 4) for q in (2, 3, 4, 5)]:
        space = ProjSpace(field(q), d)
        ident = SemilinearIso(space, np.eye(d, dtype=int), 0)
        rng = np.random.default_rng(9000 + 10 * q + d)
        for kind in ("line_complement", "flat", "random"):
            for _ in range(3):
                U = boundary_domain(space, kind, rng)
                count = len(brute_force_extensions(restrict(ident, U)))
                for t in (1, 2):
                    if is_ample(space, U, AmpleFamily.size_at_most(t)).ample:
                        ok &= count == 1
                        n_ample += 1
                    else:
                        ok &= count >= 1
                        key = (q, d, kind, t)
                        other[key] = other.get(key, ()) + (count,)
    print({k: v for k, v in sorted(other.items())})
    report(9, ok, "%d ample (U, t) with one extension, %d other, %.1fs"
           % (n_ample, sum(map(len, other.values())), time.time() - t0))
