"""Divisors on the line, truncated function spaces, ring-map recovery."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collinext.gf import make_field, mat_apply
from collinext._kernels import pair_mult_scan
from collinext.ample import AmpleFamily
from collinext.extend import extend
from collinext.funcfield import (
    ClosedPointP1,
    DivisorP1,
    FuncFieldError,
    RatFunc,
    ample_certificate,
    apply_psi,
    demo_instance,
    divisor_of,
    irreducible_monics,
    moebius_point_image,
    moebius_substitute,
    pdivmod,
    pfactor,
    pgcd,
    pmul,
    ptrim,
    recover_ring_iso,
    rr_basis,
    run_demo,
    scramble,
    shift_survivors,
    unit_subset,
    valuation,
)
from collinext.semilinear import SemilinearIso


def rand_poly(f, rng, deg):
    return ptrim(rng.integers(0, f.q, size=deg + 1))


def rand_func(f, rng, deg=3):
    while True:
        num = rand_poly(f, rng, int(rng.integers(0, deg + 1)))
        den = rand_poly(f, rng, int(rng.integers(0, deg + 1)))
        if num and den:
            return RatFunc(f, num, den)


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------

def test_poly_arithmetic_roundtrip():
    f = make_field(5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rand_poly(f, rng, int(rng.integers(0, 6)))
        b = rand_poly(f, rng, int(rng.integers(1, 4)))
        if not b:
            continue
        q, r = pdivmod(f, a, b)
        assert padd_check(f, pmul(f, q, b), r) == a
        assert len(r) < len(b)


def padd_check(f, a, b):
    from collinext.funcfield import padd
    return padd(f, a, b)


def test_irreducible_counts():
    # monic irreducible counts: q in degree 1, (q^2 - q)/2 in degree 2
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        f = make_field(p, n)
        assert len(irreducible_monics(f, 1)) == f.q
        assert len(irreducible_monics(f, 2)) == (f.q ** 2 - f.q) // 2


def test_pfactor_roundtrip():
    f = make_field(3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rand_poly(f, rng, int(rng.integers(1, 7)))
        if len(a) < 2:
            continue
        fac = pfactor(f, a)
        prod = (1,)
        for g, m in fac.items():
            assert g[-1] == 1
            for _ in range(m):
                prod = pmul(f, prod, g)
        # factorization is of the monic part
        from collinext.funcfield import pmonic
        assert prod == pmonic(f, a)


def test_gcd_divides_both():
    f = make_field(2, 2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rand_poly(f, rng, int(rng.integers(1, 5)))
        b = rand_poly(f, rng, int(rng.integers(1, 5)))
        if not a or not b:
            continue
        g = pgcd(f, a, b)
        assert not pdivmod(f, a, g)[1] and not pdivmod(f, b, g)[1]


# ---------------------------------------------------------------------------
# closed points and divisors
# ---------------------------------------------------------------------------

def test_closed_point_validation():
    f = make_field(5)
    ClosedPointP1.finite(f, (3, 1))
    with pytest.raises(FuncFieldError):
        ClosedPointP1.finite(f, (2, 2, 1))   # (t-1)(t-2)
    with pytest.raises(FuncFieldError):
        ClosedPointP1.finite(f, (3, 2))      # not monic
    with pytest.raises(FuncFieldError):
        ClosedPointP1.finite(f, (3,))        # constant
    assert ClosedPointP1.infinity(f).degree == 1
    f3 = make_field(3)
    assert ClosedPointP1.finite(f3, (1, 0, 1)).degree == 2


def test_divisor_of_examples():
    f = make_field(13)
    t = RatFunc.coordinate(f)
    d = divisor_of(t)
    assert d.mult(ClosedPointP1.finite(f, (0, 1))) == 1
    assert d.mult(ClosedPointP1.infinity(f)) == -1
    assert d.degree() == 0

    f3 = make_field(3)
    g = RatFunc(f3, (1, 0, 1), (f3.neg(1), 1))
    dg = divisor_of(g)
    assert dg.mult(ClosedPointP1.finite(f3, (1, 0, 1))) == 1
    assert dg.mult(ClosedPointP1.finite(f3, (2, 1))) == -1
    assert dg.mult(ClosedPointP1.infinity(f3)) == -1
    assert dg.degree() == 0


def test_divisor_degree_zero_random():
    rng = np.random.default_rng(3)
    for q, n in [(5, 1), (3, 2), (7, 1)]:
        f = make_field(q, n)
        for _ in range(80):
            fn = rand_func(f, rng)
            assert divisor_of(fn).degree() == 0


def test_divisor_additive_on_products():
    f = make_field(5)
    rng = np.random.default_rng(4)
    for _ in range(60):
        a, b = rand_func(f, rng), rand_func(f, rng)
        assert divisor_of(a * b) == divisor_of(a) + divisor_of(b)


def test_valuation_matches_divisor():
    f = make_field(7)
    rng = np.random.default_rng(5)
    for _ in range(40):
        fn = rand_func(f, rng)
        d = divisor_of(fn)
        for pt, m in d.items().items():
            assert valuation(fn, pt) == m
        off = ClosedPointP1.finite(f, (6, 1))
        if off not in d.support():
            assert valuation(fn, off) == 0


# ---------------------------------------------------------------------------
# Riemann-Roch truncations
# ---------------------------------------------------------------------------

def test_rr_basis_shapes():
    f = make_field(13)
    t = RatFunc.coordinate(f)
    one = RatFunc.constant(f, 1)

    rr = rr_basis(DivisorP1(f, {ClosedPointP1.infinity(f): 2}))
    assert rr.dim == 3 and set(rr.basis) == {one, t, t * t}

    rr = rr_basis(DivisorP1(f, {ClosedPointP1.finite(f, (0, 1)): 1,
                                ClosedPointP1.infinity(f): 1}))
    assert set(rr.basis) == {one, t, one / t}

    f5 = make_field(5)
    D = DivisorP1(f5, {ClosedPointP1.finite(f5, (f5.neg(1), 1)): 2})
    rr = rr_basis(D)
    assert rr.dim == 3
    for b in rr.basis:
        for pt, m in divisor_of(b).items().items():
            if m < 0:
                assert -m <= D.mult(pt)   # poles stay inside D

    with pytest.raises(FuncFieldError):
        rr_basis(DivisorP1(f5, {ClosedPointP1.infinity(f5): -1}))


def test_rr_coords_roundtrip_and_rejects():
    f = make_field(13)
    D = DivisorP1(f, {ClosedPointP1.finite(f, (f.neg(1), 1)): 2})
    rr = rr_basis(D)
    rng = np.random.default_rng(6)
    for _ in range(40):
        v = rng.integers(0, 13, size=3)
        if not v.any():
            continue
        fn = rr.func_of(v)
        back = rr.coords_of(fn)
        assert back is not None and np.array_equal(back, v)
    t = RatFunc.coordinate(f)
    assert rr.coords_of(t * t * t) is None
    assert rr.coords_of(RatFunc(f, (1,), (f.neg(2), 1))) is None


# ---------------------------------------------------------------------------
# unit subsets and shifts
# ---------------------------------------------------------------------------

def test_unit_subset_q13_demo():
    f, D, E, _, _ = demo_instance("q13")
    U = unit_subset(D, E)
    assert U.n_units == 156
    assert int(U.one_index) in set(int(p) for p in U.points)
    # independent recount straight from divisor supports
    keep = []
    for i in range(U.space.n_points):
        fn = U.rr.func_of(U.space.pts[i])
        if all(valuation(fn, pt) == 0 for pt in E):
            keep.append(i)
    assert keep == sorted(int(p) for p in U.points)


def test_unit_subset_empty_e_and_overlap():
    f = make_field(5)
    D = DivisorP1(f, {ClosedPointP1.infinity(f): 2})
    U = unit_subset(D, set())
    assert U.n_units == U.space.n_points
    with pytest.raises(FuncFieldError, match="overlap"):
        unit_subset(D, {ClosedPointP1.infinity(f)})


def test_shift_survivors_frozen():
    f = make_field(13)
    E = {ClosedPointP1.finite(f, (0, 1)), ClosedPointP1.infinity(f)}
    fr = RatFunc(f, (1,), (f.neg(1), 1))       # 1/(t-1)
    sv = shift_survivors(fr, E)
    assert sv == list(range(1, 12))            # f(0) = -1 and f(oo) = 0 out
    assert shift_survivors(RatFunc.coordinate(f),
                           {ClosedPointP1.infinity(f)}) == []
    c5 = RatFunc.constant(f, 5)
    assert shift_survivors(c5, E) == [c for c in range(13) if c != 5]


def test_ample_certificate_demo_and_small_q():
    _, D, E, _, _ = demo_instance("q13")
    cert = ample_certificate(unit_subset(D, E))
    assert cert.ample and cert.t_star == 2 and cert.extendable
    assert cert.n_meeting == 181   # two removed-condition lines are exempt

    # explicit family: checked as given, t_star still the exact worst case
    loose = ample_certificate(unit_subset(D, E), AmpleFamily.size_at_most(3))
    assert loose.ample and loose.t_star == 2 and loose.extendable
    assert loose.family.t == 3
    tight = ample_certificate(unit_subset(D, E), AmpleFamily.size_at_most(1))
    assert not tight.ample and tight.t_star == 2

    f5 = make_field(5)
    D5 = DivisorP1(f5, {ClosedPointP1.finite(f5, (f5.neg(1), 1)): 2})
    E5 = {ClosedPointP1.finite(f5, (0, 1)), ClosedPointP1.infinity(f5)}
    cert5 = ample_certificate(unit_subset(D5, E5))
    assert cert5.ample and cert5.t_star == 2
    assert not cert5.extendable    # 5 <= 3*2 + 1

    Ufull = unit_subset(D5, set())
    cfull = ample_certificate(Ufull)
    assert cfull.ample and cfull.t_star == 0


# ---------------------------------------------------------------------------
# moebius actions
# ---------------------------------------------------------------------------

def test_moebius_point_images():
    f = make_field(13)
    inv = ((0, 1), (1, 0))
    two = ClosedPointP1.finite(f, (f.neg(2), 1))
    seven = ClosedPointP1.finite(f, (f.neg(7), 1))
    zero = ClosedPointP1.finite(f, (0, 1))
    oo = ClosedPointP1.infinity(f)
    assert moebius_point_image(f, inv, two) == seven
    assert moebius_point_image(f, inv, seven) == two
    assert moebius_point_image(f, inv, zero) == oo
    assert moebius_point_image(f, inv, oo) == zero

    f3 = make_field(3)
    quad = ClosedPointP1.finite(f3, (1, 0, 1))
    assert moebius_point_image(f3, ((0, 1), (1, 0)), quad) == quad
    shifted = moebius_point_image(f3, ((1, 1), (0, 1)), quad)
    assert shifted == ClosedPointP1.finite(f3, (2, 1, 1))


def test_moebius_substitute_evaluates():
    f = make_field(7)
    rng = np.random.default_rng(7)
    mats = [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 3), (1, 4))]
    for mat in mats:
        (a, b), (c, d) = mat
        for _ in range(30):
            fn = rand_func(f, rng)
            comp = moebius_substitute(fn, mat)
            for x in range(7):
                den = f.add(f.mul(c, x), d)
                if den == 0:
                    continue
                mx = f.div(f.add(f.mul(a, x), b), den)
                lhs, rhs = comp.evaluate(x), fn.evaluate(mx)
                if lhs is not None and rhs is not None:
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# scramble and recovery
# ---------------------------------------------------------------------------

def test_scramble_identity_and_errors():
    f, D, E, _, _ = demo_instance("q13")
    scr = scramble(((1, 0), (0, 1)), 0, D, E)
    for p in scr.unit.points:
        assert scr.pc.sigma[int(p)] == int(p)
    with pytest.raises(FuncFieldError, match="stabilize the divisor"):
        scramble(((1, 1), (0, 1)), 0, D, E)
    with pytest.raises(FuncFieldError, match="invertible"):
        scramble(((1, 1), (1, 1)), 0, D, E)
    # E unstable: drop infinity so t -> 1/t sends (t) out of E
    E2 = {ClosedPointP1.finite(f, (0, 1))}
    D2 = DivisorP1(f, {ClosedPointP1.finite(f, (f.neg(2), 1)): 1,
                       ClosedPointP1.finite(f, (f.neg(7), 1)): 1})
    with pytest.raises(FuncFieldError, match="evaluation set"):
        scramble(((0, 1), (1, 0)), 0, D2, E2)


def test_scramble_frobenius_requires_stable_data():
    f9 = make_field(3, 2)
    # divisor at t = x with x a generator: moved by frobenius
    D = DivisorP1(f9, {ClosedPointP1.finite(f9, (f9.neg(3), 1)): 2})
    E = {ClosedPointP1.finite(f9, (0, 1)), ClosedPointP1.infinity(f9)}
    with pytest.raises(FuncFieldError, match="frobenius"):
        scramble(((1, 0), (0, 1)), 1, D, E)


def test_scramble_restriction_consistent():
    f, D, E, gmat, frob = demo_instance("q13")
    scr = scramble(gmat, frob, D, E)
    for p in scr.unit.points:
        assert scr.pc.sigma[int(p)] == int(scr.truth.sigma[int(p)])
    units = set(int(p) for p in scr.unit.points)
    assert set(scr.pc.sigma.values()) == units


def test_demo_q13_end_to_end():
    rep = run_demo("q13")
    assert rep["q"] == 13 and rep["frob"] == 0
    assert rep["n_units"] == 156 and rep["t_star"] == 2
    assert rep["ample"] and rep["extendable"]
    assert rep["multiplicative"] and rep["matches_truth"]
    assert rep["pairs_checked"] == 703


def test_demo_q9_frobenius_end_to_end():
    rep = run_demo("q9frob")
    assert rep["q"] == 9 and rep["frob"] == 1
    assert rep["recovered_frob"] == 1
    assert rep["n_units"] == 72 and rep["t_star"] == 2
    assert rep["multiplicative"] and rep["matches_truth"]
    with pytest.raises(FuncFieldError):
        demo_instance("nope")


def test_recovered_psi_is_composition():
    f, D, E, gmat, frob = demo_instance("q13")
    scr = scramble(gmat, frob, D, E)
    cert = ample_certificate(scr.unit)
    res = extend(scr.pc, cert.family)
    rep = recover_ring_iso(res, scr.unit, truth=scr.semi)
    adj = ((0, 1), (1, 0))   # inverse of t -> 1/t is itself
    for b in scr.unit.rr.basis:
        lhs = apply_psi(scr.unit.rr, rep.psi_matrix, rep.frob_exp, b)
        assert lhs == moebius_substitute(b, adj)


def test_recovered_psi_multiplicative_oracle():
    # independent recheck with rational-function arithmetic
    f, D, E, gmat, frob = demo_instance("q13")
    scr = scramble(gmat, frob, D, E)
    res = extend(scr.pc, ample_certificate(scr.unit).family)
    rep = recover_ring_iso(res, scr.unit, truth=scr.semi)
    rr, space = scr.unit.rr, scr.unit.space
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 50:
        i, j = rng.integers(0, space.n_points, size=2)
        fi, fj = rr.func_of(space.pts[i]), rr.func_of(space.pts[j])
        prod = fi * fj
        if rr.coords_of(prod) is None:
            continue
        lhs = apply_psi(rr, rep.psi_matrix, rep.frob_exp, prod)
        rhs = (apply_psi(rr, rep.psi_matrix, rep.frob_exp, fi)
               * apply_psi(rr, rep.psi_matrix, rep.frob_exp, fj))
        assert lhs == rhs
        checked += 1


def test_recover_rejects_bad_maps():
    f, D, E, gmat, frob = demo_instance("q13")
    scr = scramble(gmat, frob, D, E)
    space, rr = scr.unit.space, scr.unit.rr
    # moves the class of 1
    bad1 = SemilinearIso(space, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 0)
    with pytest.raises(FuncFieldError, match="class of 1"):
        recover_ring_iso(SimpleNamespace(decoded=bad1), scr.unit)
    # fixes 1 exactly (row3 += (-4, 1, 0), orthogonal to (1, 4, 1))
    # but is not a ring map
    bad2 = SemilinearIso(space, [[1, 0, 0], [0, 1, 0], [9, 1, 1]], 0)
    v1 = np.zeros(3, dtype=np.int64)
    v1[:len(rr.mpoly)] = rr.mpoly
    assert np.array_equal(np.array(bad2.apply_vec(v1)), v1)
    with pytest.raises(FuncFieldError, match="multiplicativity"):
        recover_ring_iso(SimpleNamespace(decoded=bad2), scr.unit)


def test_demo_order_independent():
    reps = [run_demo("q13", order=o, seed=3) for o in
            ("canonical", "reversed", "shuffled")]
    assert all(r["matches_truth"] for r in reps)


def multscan_reference(nums, psin, psi_m, mu, mpoly, degcap,
                       mul_t, add_t, neg_t):
    """Per-pair loop over (a, b) in row-major order: the reference for
    _kernels.pair_mult_scan, with the same return value."""
    nums, psin, psi_m, mu, mpoly, mul_t, add_t, neg_t = (
        np.asarray(x).tolist()
        for x in (nums, psin, psi_m, mu, mpoly, mul_t, add_t, neg_t))
    N, md = len(nums), len(nums[0])
    dm = len(mpoly) - 1
    clen = 2 * md - 1
    n_in = 0
    for a in range(N):
        for b in range(N):
            conv = [0] * clen
            for i in range(md):
                va = nums[a][i]
                if va == 0:
                    continue
                for j in range(md):
                    conv[i + j] = add_t[conv[i + j]][mul_t[va][nums[b][j]]]
            deg = max((k for k in range(clen) if conv[k] != 0), default=-1)
            if deg > degcap or deg < dm:
                continue
            rem = list(conv)
            quo = [0] * md
            for k in range(deg - dm, -1, -1):
                c = rem[k + dm]
                if c != 0:
                    quo[k] = c
                    for i in range(dm + 1):
                        sub = neg_t[mul_t[c][mpoly[i]]]
                        rem[k + i] = add_t[rem[k + i]][sub]
            if any(r != 0 for r in rem[:dm]):
                continue
            n_in += 1
            # psi of the quotient (coords of f*g in the ambient basis)
            img = [0] * md
            for i in range(md):
                acc = 0
                for j in range(md):
                    acc = add_t[acc][mul_t[psi_m[i][j]][mu[quo[j]]]]
                img[i] = acc
            lhs, rhs = [0] * clen, [0] * clen
            for i in range(md):
                for j in range(dm + 1):
                    lhs[i + j] = add_t[lhs[i + j]][mul_t[img[i]][mpoly[j]]]
            for i in range(md):
                for j in range(md):
                    prod = mul_t[psin[a][i]][psin[b][j]]
                    rhs[i + j] = add_t[rhs[i + j]][prod]
            if lhs != rhs:
                return n_in, a, b
    return n_in, -1, -1


@functools.cache
def scan_inputs(key, recovered):
    """pair_mult_scan's arguments on a demo instance, for the psi that
    recover_ring_iso recovers or for the identity."""
    f, D, E, gmat, frob = demo_instance(key)
    scr = scramble(gmat, frob, D, E)
    rr, space = scr.unit.rr, scr.unit.space
    nums = space.pts.astype(np.int64)
    if recovered:
        res = extend(scr.pc, ample_certificate(scr.unit).family)
        rep = recover_ring_iso(res, scr.unit)
        psi = rep.psi_matrix
        row = f.frob_t[rep.frob_exp].astype(np.int64)
    else:
        psi = np.eye(rr.dim, dtype=np.int64)
        row = np.arange(f.q, dtype=np.int64)
    mpoly = np.array(rr.mpoly, dtype=np.int64)
    degcap = len(mpoly) - 1 + rr.dim - 1
    return (nums, mat_apply(f, psi, row[nums]), psi, row, mpoly, degcap,
            f.mul_t, f.add_t, f.neg_t)


def bumped(args, r, c):
    """args with psin[r, c] moved to the next field index."""
    psin = args[1].copy()
    psin[r, c] = (psin[r, c] + 1) % len(args[6])
    return (args[0], psin) + args[2:]


def test_multscan_kernel_twins():
    for key in ("q13", "q9frob"):
        for recovered in (False, True):
            args = scan_inputs(key, recovered)
            n = len(args[0])
            want = multscan_reference(*args)
            assert want[1:] == (-1, -1) and want[0] > 0
            assert pair_mult_scan(*args) == want
            # planted corruptions in the first, a middle and the last row
            for r in (0, n // 2, n - 1):
                bad = bumped(args, r, r % 3)
                want = multscan_reference(*bad)
                assert want[1] >= 0 and r in want[1:]
                assert pair_mult_scan(*bad) == want
            # a zero numerator is never in range, though over a linear
            # denominator the degree sum alone would admit it
            zero = args[0].copy()
            zero[n // 2] = 0
            for mpoly in (args[4], np.array([1, 1])):
                cap = len(mpoly) - 1 + zero.shape[1] - 1
                bad = (zero,) + args[1:4] + (mpoly, cap) + args[6:]
                assert pair_mult_scan(*bad) == multscan_reference(*bad)


def test_multscan_witness_counts_through_failing_pair():
    # in-range pairs up to and including (10, 37), not all of row 10
    args = bumped(scan_inputs("q9frob", True), 37, 0)
    assert pair_mult_scan(*args) == (57, 10, 37)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([("q13", True), ("q9frob", True), ("q9frob", False)]),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10 ** 6),
                          st.integers(0, 2), st.integers(0, 12)),
                min_size=1, max_size=4),
       st.integers(0, 2))
def test_multscan_random_perturbations(inst, edits, cut):
    # edits overwrite entries of nums (0) or psin (1); a lower degree cap
    # makes the degree filter bite, which it never does on the demo inputs
    args = scan_inputs(*inst)
    rows = [args[0].copy(), args[1].copy()]
    for which, r, c, v in edits:
        rows[which][r % len(args[0]), c] = v % len(args[6])
    args = (*rows, *args[2:5], args[5] - cut, *args[6:])
    assert pair_mult_scan(*args) == multscan_reference(*args)
