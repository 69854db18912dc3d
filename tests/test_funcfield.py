"""Divisors on the line, truncated function spaces, ring-map recovery."""

import functools
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collinext import _kernels, ample, funcfield
from collinext.gf import (field_of_order, irreducible_monics, make_field,
                          mat_apply)
from collinext.projgeom import ProjSpace
from collinext._kernels import pair_mult_scan
from collinext.ample import AmpleFamily, is_ample, is_mn_admissible
from collinext.extend import extend
from collinext.funcfield import (
    ClosedPointP1,
    DivisorP1,
    FuncFieldError,
    ample_certificate,
    demo_instance,
    moebius_point_image,
    recover_ring_iso,
    rr_basis,
    run_demo,
    scramble,
    unit_subset,
)
from collinext.semilinear import SemilinearIso
from polyref import (RatFunc, apply_psi, coords_of, divisor_of, divisor_sum,
                     func_of, mult, padd, pdivmod, peval, pfactor, pgcd,
                     pmonic, pmul, ppow, pscale, ptrim, shift_survivors,
                     valuation)


def rand_poly(f, rng, deg):
    return ptrim(rng.integers(0, f.q, size=deg + 1))


def rand_func(f, rng, deg=3):
    while True:
        num = rand_poly(f, rng, int(rng.integers(0, deg + 1)))
        den = rand_poly(f, rng, int(rng.integers(0, deg + 1)))
        if num and den:
            return RatFunc(f, num, den)


def basis(rr):
    """The basis t^j / M of L(D), as rational functions."""
    return [func_of(rr, v) for v in np.eye(rr.dim, dtype=np.int64)]


def moebius_substitute(fn, mat):
    """fn composed with t -> (a t + b)/(c t + d), in rational-function
    arithmetic: the reference for the scramble's matrix."""
    f = fn.field
    a, b, c, d = (int(mat[0][0]), int(mat[0][1]),
                  int(mat[1][0]), int(mat[1][1]))
    det = f.sub(f.mul(a, d), f.mul(b, c))
    if det == 0:
        raise FuncFieldError("substitution matrix is singular")
    top, bot = (b, a), (d, c)
    r = max(len(fn.num), len(fn.den)) - 1

    def clear(poly):
        out = ()
        for i, coef in enumerate(poly):
            term = pmul(f, ppow(f, top, i), ppow(f, bot, r - i))
            out = padd(f, out, pscale(f, term, coef))
        return out
    num, den = clear(fn.num), clear(fn.den)
    if not den:
        raise FuncFieldError("substitution sends the denominator to zero")
    return RatFunc(f, num, den)


def ref_point_image(f, mat, pt):
    """Image of a closed point under t -> (a t + b)/(c t + d), case by
    case in polynomial arithmetic: the reference for moebius_point_image."""
    a, b, c, d = (int(mat[0][0]), int(mat[0][1]),
                  int(mat[1][0]), int(mat[1][1]))
    if pt.is_infinity:
        if c == 0:
            return pt
        return ClosedPointP1.finite(f, (f.neg(f.div(a, c)), 1))
    if pt.degree == 1:
        alpha = f.neg(pt.poly[0])
        den = f.add(f.mul(c, alpha), d)
        if den == 0:
            return ClosedPointP1.infinity(f)
        beta = f.div(f.add(f.mul(a, alpha), b), den)
        return ClosedPointP1.finite(f, (f.neg(beta), 1))
    # roots of the image are m(roots): substitute the inverse map and clear
    top, bot = (f.neg(b), d), (a, f.neg(c))   # m^-1(y) = (dy - b)/(-cy + a)
    deg = pt.degree
    out = ()
    for i, coef in enumerate(pt.poly):
        term = pmul(f, ppow(f, top, i), ppow(f, bot, deg - i))
        out = padd(f, out, pscale(f, term, coef))
    assert len(out) - 1 == deg
    return ClosedPointP1.finite(f, pmonic(f, out))


def rand_moebius(f, rng, sub=None):
    """A seeded invertible 2 x 2 matrix, with entries below sub (the
    prime subfield at sub = p)."""
    while True:
        (a, b), (c, d) = rng.integers(0, sub or f.q, size=(2, 2)).tolist()
        if f.sub(f.mul(a, d), f.mul(b, c)):
            return (a, b), (c, d)


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
        assert padd(f, pmul(f, q, b), r) == a
        assert len(r) < len(b)


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


@pytest.mark.parametrize("q", [9, 16])
def test_closed_point_refuses_reducibles_off_the_prime_field(q):
    # a square, a split quadratic and a cubic with a root, each with
    # coefficients outside the prime field, against the degree-k sieve
    f = field_of_order(q)
    r, s = f.q - 1, f.q - 2
    quad = irreducible_monics(f, 2)[-1]
    reducible = {"square": pmul(f, (f.neg(r), 1), (f.neg(r), 1)),
                 "split": pmul(f, (f.neg(r), 1), (f.neg(s), 1)),
                 "cubic": pmul(f, (f.neg(s), 1), quad)}
    for name, poly in reducible.items():
        assert max(poly) >= f.p and sum(pfactor(f, poly).values()) > 1, name
        with pytest.raises(FuncFieldError, match="reducible"):
            ClosedPointP1.finite(f, poly)
    for poly in (quad, irreducible_monics(f, 3)[-1]):
        assert ClosedPointP1.finite(f, poly).poly == poly
        # trailing zeros are trimmed before the monic check
        assert ClosedPointP1.finite(f, poly + (0, 0)).poly == poly


def test_divisor_of_examples():
    f = make_field(13)
    t = RatFunc.coordinate(f)
    d = divisor_of(t)
    assert mult(d, ClosedPointP1.finite(f, (0, 1))) == 1
    assert mult(d, ClosedPointP1.infinity(f)) == -1
    assert d.degree() == 0

    f3 = make_field(3)
    g = RatFunc(f3, (1, 0, 1), (f3.neg(1), 1))
    dg = divisor_of(g)
    assert mult(dg, ClosedPointP1.finite(f3, (1, 0, 1))) == 1
    assert mult(dg, ClosedPointP1.finite(f3, (2, 1))) == -1
    assert mult(dg, ClosedPointP1.infinity(f3)) == -1
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
        assert divisor_of(a * b) == divisor_sum(divisor_of(a), divisor_of(b))


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
    assert rr.dim == 3 and set(basis(rr)) == {one, t, t * t}

    rr = rr_basis(DivisorP1(f, {ClosedPointP1.finite(f, (0, 1)): 1,
                                ClosedPointP1.infinity(f): 1}))
    assert set(basis(rr)) == {one, t, one / t}

    f5 = make_field(5)
    D = DivisorP1(f5, {ClosedPointP1.finite(f5, (f5.neg(1), 1)): 2})
    rr = rr_basis(D)
    assert rr.dim == 3
    for b in basis(rr):
        for pt, m in divisor_of(b).items().items():
            if m < 0:
                assert -m <= mult(D, pt)   # poles stay inside D

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
        fn = func_of(rr, v)
        back = coords_of(rr, fn)
        assert back is not None and np.array_equal(back, v)
    t = RatFunc.coordinate(f)
    assert coords_of(rr, t * t * t) is None
    assert coords_of(rr, RatFunc(f, (1,), (f.neg(2), 1))) is None


# ---------------------------------------------------------------------------
# unit subsets and shifts
# ---------------------------------------------------------------------------

def valuation_recount(U):
    """The unit classes, straight from the valuations at E."""
    return [i for i in range(U.space.n_points)
            if all(valuation(func_of(U.rr, U.space.pts[i]), pt) == 0
                   for pt in U.E)]


def test_unit_subset_q13_demo():
    f, D, E, _, _ = demo_instance("q13")
    U = unit_subset(D, E)
    assert U.n_units == 156
    assert int(U.one_index) in set(int(p) for p in U.points)
    assert valuation_recount(U) == U.points.tolist()


def test_unit_subset_matches_valuations():
    _, D, E, _, _ = demo_instance("q9frob")
    U = unit_subset(D, E)
    assert valuation_recount(U) == U.points.tolist()
    # a degree-2 closed point of E removes the classes it divides
    f = make_field(5)
    D = DivisorP1(f, {ClosedPointP1.finite(f, (f.neg(1), 1)): 2})
    quad = ClosedPointP1.finite(f, irreducible_monics(f, 2)[0])
    E = {quad, ClosedPointP1.infinity(f)}
    U = unit_subset(D, E)
    assert valuation_recount(U) == U.points.tolist()
    assert U.n_units < unit_subset(D, E - {quad}).n_units


def test_unit_subset_empty_e_and_overlap():
    f = make_field(5)
    D = DivisorP1(f, {ClosedPointP1.infinity(f): 2})
    U = unit_subset(D, set())
    assert U.n_units == U.space.n_points
    with pytest.raises(FuncFieldError, match="overlap"):
        unit_subset(D, {ClosedPointP1.infinity(f)})


def test_unit_subset_refuses_an_oversized_space(monkeypatch):
    # P(L(D)) for a degree-3 D over F_23 is P^3(F_23), 12720 points, above
    # P_CAP: refused as a function-field error before the space is built
    def unbuilt(*args):
        raise AssertionError("the space was built")
    monkeypatch.setattr(funcfield, "space_of", unbuilt)
    f = field_of_order(23)
    D = DivisorP1(f, {ClosedPointP1.finite(f, (f.neg(a), 1)): 1
                      for a in (1, 2, 3)})
    with pytest.raises(FuncFieldError, match="space has 12720 points"):
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

    assert cert.family == AmpleFamily.size_at_most(2)
    # a family of the caller's own is checked by is_ample, t* still the
    # exact worst case
    U = unit_subset(D, E)
    loose = is_ample(U.space, U.points, AmpleFamily.size_at_most(3))
    assert loose.ample and loose.t_star == 2
    assert is_mn_admissible(AmpleFamily.size_at_most(3), 13, 3, 2)
    tight = is_ample(U.space, U.points, AmpleFamily.size_at_most(1))
    assert not tight.ample and tight.t_star == 2

    f5 = make_field(5)
    D5 = DivisorP1(f5, {ClosedPointP1.finite(f5, (f5.neg(1), 1)): 2})
    E5 = {ClosedPointP1.finite(f5, (0, 1)), ClosedPointP1.infinity(f5)}
    cert5 = ample_certificate(unit_subset(D5, E5))
    assert cert5.ample and cert5.t_star == 2
    assert not cert5.extendable    # 5 <= 3*2 + 1
    # the empty-only family is the cap 0, and its margin is that of t = 0
    U5 = unit_subset(D5, E5)
    only = is_ample(U5.space, U5.points, AmpleFamily.size_at_most(0))
    assert not only.ample and only.t_star == 2
    assert is_mn_admissible(AmpleFamily.size_at_most(0), 5, 3, 2)  # 5 > 1

    Ufull = unit_subset(D5, set())
    cfull = ample_certificate(Ufull)
    assert cfull.ample and cfull.t_star == 0


def test_ample_certificate_scans_the_lines_once(monkeypatch):
    # t* and the verdict come from one is_ample call; the certificate
    # scanned the lines a second time for t*
    real, calls = ample.lines_meeting, []

    def counted(*args):
        calls.append(args)
        return real(*args)
    for mod in (ample, funcfield):   # every module that holds the name
        if getattr(mod, "lines_meeting", None) is real:
            monkeypatch.setattr(mod, "lines_meeting", counted)
    _, D, E, _, _ = demo_instance("q13")
    U = unit_subset(D, E)
    ample_certificate(U)
    assert len(calls) == 1


def test_ample_certificate_margin_is_the_family_admissibility():
    # P(L(2(t-1))) over GF(5) with E empty has t* = 0, certified with the
    # cap 0 and its margin; the explicit family of all subsets of size
    # <= 2 passes is_ample like size_at_most(2), and is (3,2)-admissible
    # exactly when that is: neither is at q = 5 (5 <= 3*2 + 1)
    f5 = make_field(5)
    D5 = DivisorP1(f5, {ClosedPointP1.finite(f5, (f5.neg(1), 1)): 2})
    U = unit_subset(D5, set())
    cert = ample_certificate(U)
    assert cert.ample and cert.t_star == 0
    assert cert.family == AmpleFamily.size_at_most(0)
    assert cert.extendable == is_mn_admissible(cert.family, 5, 3, 2) is True
    small = AmpleFamily.explicit(
        [s for k in range(3) for s in itertools.combinations(range(6), k)], 5)
    sized = AmpleFamily.size_at_most(2)
    for fam in (small, sized):
        rep = is_ample(U.space, U.points, fam)
        assert rep.ample and rep.t_star == 0
        assert is_mn_admissible(fam, 5, 3, 2) is False


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


def closed_points(f, deg):
    """Infinity and every monic irreducible of degree at most deg."""
    return [ClosedPointP1.infinity(f)] + [
        ClosedPointP1.finite(f, poly)
        for k in range(1, deg + 1) for poly in irreducible_monics(f, k)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_moebius_point_image_matches_reference(q):
    f = field_of_order(q)
    rng = np.random.default_rng(300 + q)
    mats = [((1, 0), (0, 1)), ((0, 1), (1, 0))]
    mats += [rand_moebius(f, rng) for _ in range(4)]
    for mat in mats:
        for pt in closed_points(f, 3):
            assert moebius_point_image(f, mat, pt) == \
                ref_point_image(f, mat, pt), (q, mat, pt)


def orbit(f, g, pt):
    """The closed points pt, g pt, g^2 pt, ... up to the return to pt."""
    out = [pt]
    while (nxt := moebius_point_image(f, g, out[-1])) != pt:
        out.append(nxt)
    return out


def orbit_instances():
    """Seeded (g, frob, D, E) with g stabilizing D and E: D is the g-orbit
    of a closed point, with multiplicity 1 or 2, and E the orbit of
    another.  At q = 9 g and the starting points are defined over F_3,
    so the Frobenius twist stabilizes the orbits too."""
    for q, deg_cap, n_cases in ((5, 3, 8), (7, 3, 8), (13, 2, 6),
                                (9, 3, 8)):
        f = field_of_order(q)
        sub = f.p if f.n > 1 else None
        rng = np.random.default_rng(400 + q)
        pts = [pt for pt in closed_points(f, 2)
               if sub is None or pt.is_infinity or max(pt.poly) < sub]
        found = 0
        while found < n_cases:
            g = rand_moebius(f, rng, sub)
            P, Q = (pts[i] for i in rng.choice(len(pts), 2, replace=False))
            m = 1 + found % 2
            D = orbit(f, g, P)
            if m * sum(pt.degree for pt in D) > deg_cap or Q in D:
                continue
            found += 1
            yield (f, g, int(sub is not None),
                   DivisorP1(f, {pt: m for pt in D}), set(orbit(f, g, Q)))


def substitution_matrix(rr, gmat):
    """The matrix of fn -> fn o g^-1 on L(D), column j the coordinates of
    the j-th basis function substituted in rational-function arithmetic."""
    f = rr.field
    (a, b), (c, d) = gmat
    adj = ((d, f.neg(b)), (f.neg(c), a))
    cols = [coords_of(rr, moebius_substitute(fn, adj)) for fn in basis(rr)]
    return np.stack(cols, axis=1)


def test_scramble_matrix_is_the_substitution():
    # the scramble's matrix is the symmetric power of g^-1 on binary forms;
    # against the rational-function composition it agrees up to the
    # scalar by which g^-1 moves the form of D
    seen = {"infinity": 0, "double": 0, "frobenius": 0, "scaled": 0}
    for f, g, frob, D, E in orbit_instances():
        scr = scramble(g, frob, D, E)
        want = f.frob_t[frob][substitution_matrix(scr.unit.rr, g)]
        got = scr.semi.mat
        j = np.flatnonzero(want)[0]
        s = f.div(int(got.flat[j]), int(want.flat[j]))
        assert s and np.array_equal(got, f.mul_t[s, want]), (f, g, D)
        seen["infinity"] += ClosedPointP1.infinity(f) in D.support()
        seen["double"] += 2 in D.items().values()
        seen["frobenius"] += frob
        seen["scaled"] += s != 1
    assert all(seen.values()), seen


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
    assert set(scr.pc.sigma[scr.pc.U1]) == units


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
    for b in basis(scr.unit.rr):
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
        fi, fj = func_of(rr, space.pts[i]), func_of(rr, space.pts[j])
        prod = fi * fj
        if coords_of(rr, prod) is None:
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
    assert np.array_equal(mat_apply(space.field, bad2.mat, v1[None])[0], v1)
    with pytest.raises(FuncFieldError, match="multiplicativity"):
        recover_ring_iso(SimpleNamespace(decoded=bad2), scr.unit)


def test_normalize_fixing_one_applies_the_twist():
    # e = 1 over F_9 with an mpoly entry outside F_3, so mu moves the
    # class of 1: psi must take mu(v1), not v1, back onto v1
    f = field_of_order(9)
    frob = f.frob_t[1]
    alpha = int(np.flatnonzero(frob != np.arange(f.q))[0])
    pt = ClosedPointP1.finite(f, (f.neg(alpha), 1))
    rr = rr_basis(DivisorP1(f, {pt: 2}))
    v1 = np.array(rr.mpoly, dtype=np.int64)
    w = frob[v1].astype(np.int64)
    assert rr.dim == 3 and not np.array_equal(w, v1) and v1[2] == w[2] == 1
    # the identity with column 2 moved so that M w = v1; det M = 1
    M = np.eye(3, dtype=np.int64)
    M[:, 2] = f.add_t[f.add_t[v1, f.neg_t[w]], M[:, 2]]
    assert np.array_equal(mat_apply(f, M, w[None])[0], v1)
    c = 5
    iso = SemilinearIso(ProjSpace(f, 3), f.mul_t[c, M], 1)
    psi = funcfield._normalize_fixing_one(iso, rr)
    assert np.array_equal(psi, M)
    assert np.array_equal(mat_apply(f, psi, w[None])[0], v1)


def test_demo_order_independent():
    reps = [run_demo("q13", seed=s) for s in (0, 3, 5)]
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


def mpoly_shapes(f):
    """Monic denominators the demos do not reach: a constant, where only
    the degree window decides; an irreducible quadratic, with no root; the
    square of a linear factor; two distinct linear factors."""
    r, s = f.neg(2), f.neg(3)
    shapes = {"constant": ((1,), None),
              "irreducible": (irreducible_monics(f, 2)[0], []),
              "square": (pmul(f, (r, 1), (r, 1)), [2]),
              "split": (pmul(f, (r, 1), (s, 1)), [2, 3])}
    for mpoly, roots in shapes.values():
        assert roots is None or roots == [
            x for x in range(f.q) if peval(f, mpoly, x) == 0]
    return {name: mpoly for name, (mpoly, _) in shapes.items()}


@pytest.mark.parametrize("key", ["q13", "q9frob"])
def test_multscan_kernel_twins_on_other_denominators(key):
    # the demo rows scaled row by row, so that their remainders are not
    # monic; with psi the identity every in-range pair agrees, whatever
    # mpoly is, and a bumped psi entry plants a failure
    args = scan_inputs(key, False)
    f = demo_instance(key)[0]
    rng = np.random.default_rng(19)
    nums = f.mul_t[rng.integers(1, f.q, size=(len(args[0]), 1)), args[0]]
    n = len(nums)
    for name, mpoly in mpoly_shapes(f).items():
        mpoly = np.array(mpoly, dtype=np.int64)
        cap = len(mpoly) - 1 + nums.shape[1] - 1
        for cut in (0, 1):
            ok = (nums, nums) + args[2:4] + (mpoly, cap - cut) + args[6:]
            want = multscan_reference(*ok)
            assert want[0] > 0 and want[1:] == (-1, -1), name
            assert pair_mult_scan(*ok) == want, name
            bad = bumped(ok, n // 2, 1)
            want = multscan_reference(*bad)
            assert n // 2 in want[1:], name
            assert pair_mult_scan(*bad) == want, name


def test_multscan_range_work_scales_with_classes(monkeypatch):
    # q13: mpoly has degree 2, so the remainders fall into at most
    # (13^2 - 1) / 12 + 1 = 15 classes up to scaling; _polymul sees the
    # 15^2 class pairs and three products per in-range pair, not 183^2
    # pairs
    args = scan_inputs("q13", True)
    rows = []

    def counting(x, y, width, mul_t, add_t):
        rows.append(len(x))
        return polymul(x, y, width, mul_t, add_t)
    polymul = _kernels._polymul
    monkeypatch.setattr(_kernels, "_polymul", counting)
    assert pair_mult_scan(*args) == (703, -1, -1)
    assert len(args[0]) ** 2 == 33489
    assert sum(rows) == 15 ** 2 + 3 * 703


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
