"""Genus-zero function field layer: divisors on the projective line over
F_q, Riemann-Roch truncations, unit subsets, and recovery of a ring
isomorphism from a collineation extension.

Rational functions are kept as reduced numerator/denominator pairs of
dense coefficient tuples (constant term first, entries are field element
indices).  The space L(D) for an effective divisor D with finite part M
and infinity multiplicity n is spanned by t^j / M, 0 <= j <= deg M + n,
so its projectivization is a standard ProjSpace and the whole extension
machinery applies unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .gf import (GF, field_of_order, mat_apply, padd, pdivmod, peval,
                 pfactor, pgcd, pirreducible, pmonic, pmul, pneg, ppow,
                 pscale, ptrim)
from ._kernels import _polydiv, pair_mult_scan
from .projgeom import ProjSpace
from .semilinear import Collineation, SemilinearIso
from .ample import AmpleFamily, is_ample, is_mn_admissible, lines_meeting
from .extend import extend, restrict


class FuncFieldError(Exception):
    pass


# ---------------------------------------------------------------------------
# closed points, divisors, rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedPointP1:
    field: GF
    poly: tuple | None    # None encodes the point at infinity

    @staticmethod
    def infinity(field):
        return ClosedPointP1(field, None)

    @staticmethod
    def finite(field, poly):
        poly = ptrim(poly)
        if len(poly) < 2 or poly[-1] != 1:
            raise FuncFieldError("closed point needs a monic polynomial "
                                 "of degree >= 1")
        if not pirreducible(field, poly):
            raise FuncFieldError("polynomial is reducible")
        return ClosedPointP1(field, poly)

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else len(self.poly) - 1

    def __repr__(self):
        return "oo" if self.poly is None else "pt%s" % (self.poly,)


class DivisorP1:
    """Finite formal sum of closed points with integer multiplicities."""

    def __init__(self, field, mults=None):
        self.field = field
        self._m = {}
        for pt, m in (mults or {}).items():
            if pt.field != field:
                raise FuncFieldError("mixed fields in divisor")
            if m:
                self._m[pt] = int(m)

    def mult(self, pt):
        return self._m.get(pt, 0)

    def support(self):
        return set(self._m)

    def items(self):
        return dict(self._m)

    def degree(self):
        return sum(m * pt.degree for pt, m in self._m.items())

    def is_effective(self):
        return all(m > 0 for m in self._m.values())

    def __add__(self, other):
        out = dict(self._m)
        for pt, m in other._m.items():
            out[pt] = out.get(pt, 0) + m
        return DivisorP1(self.field, out)

    def __neg__(self):
        return DivisorP1(self.field, {pt: -m for pt, m in self._m.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, DivisorP1) and self._m == other._m

    def __repr__(self):
        return "Div(%s)" % (self._m,)


class RatFunc:
    """Reduced fraction num/den with monic denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=(1,)):
        num, den = ptrim(num), ptrim(den)
        if not den:
            raise FuncFieldError("zero denominator")
        if num:
            g = pgcd(field, num, den)
            if len(g) > 1:
                num = pdivmod(field, num, g)[0]
                den = pdivmod(field, den, g)[0]
            s = int(field.inv_t[den[-1]])
            num, den = pscale(field, num, s), pscale(field, den, s)
        else:
            den = (1,)
        self.field, self.num, self.den = field, num, den

    @staticmethod
    def constant(field, c):
        return RatFunc(field, (int(c),))

    @staticmethod
    def coordinate(field):
        return RatFunc(field, (0, 1))

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        f = self.field
        return RatFunc(f, padd(f, pmul(f, self.num, other.den),
                               pmul(f, other.num, self.den)),
                       pmul(f, self.den, other.den))

    def __neg__(self):
        return RatFunc(self.field, pneg(self.field, self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        return RatFunc(f, pmul(f, self.num, other.num),
                       pmul(f, self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise FuncFieldError("division by the zero function")
        f = self.field
        return RatFunc(f, pmul(f, self.num, other.den),
                       pmul(f, self.den, other.num))

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.field == other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, x):
        """Value at a field element, or None at a pole."""
        f = self.field
        d = peval(f, self.den, x)
        if d == 0:
            return None
        return int(f.mul_t[peval(f, self.num, x), f.inv_t[d]])

    def frobenius(self, e):
        f = self.field
        row = f.frob_t[e % f.n]
        return RatFunc(f, tuple(int(row[c]) for c in self.num),
                       tuple(int(row[c]) for c in self.den))

    def __repr__(self):
        return "RatFunc(%s / %s)" % (self.num, self.den)


def valuation(fn, pt):
    """Order of vanishing of fn at a closed point (negative at poles)."""
    if fn.is_zero():
        raise FuncFieldError("the zero function has no valuation")
    f = fn.field
    if pt.is_infinity:
        return (len(fn.den) - 1) - (len(fn.num) - 1)

    def order(poly):
        v = 0
        while True:
            q, r = pdivmod(f, poly, pt.poly)
            if r:
                return v
            poly, v = q, v + 1
    return order(fn.num) - order(fn.den)


def divisor_of(fn):
    """Zeros minus poles over all closed points; always degree zero."""
    if fn.is_zero():
        raise FuncFieldError("the zero function has no divisor")
    f = fn.field
    mults = {}
    for poly, m in pfactor(f, fn.num).items():
        mults[ClosedPointP1.finite(f, poly)] = m
    for poly, m in pfactor(f, fn.den).items():
        pt = ClosedPointP1.finite(f, poly)
        mults[pt] = mults.get(pt, 0) - m
    if not fn.num or len(fn.num) == 1:
        inf_m = len(fn.den) - 1
    else:
        inf_m = (len(fn.den) - 1) - (len(fn.num) - 1)
    if inf_m:
        mults[ClosedPointP1.infinity(f)] = inf_m
    return DivisorP1(f, mults)


# ---------------------------------------------------------------------------
# Riemann-Roch truncations and unit subsets
# ---------------------------------------------------------------------------

@dataclass
class RRSpace:
    D: DivisorP1
    field: GF
    mpoly: tuple          # product of the finite part, monic
    n_inf: int
    dim: int
    basis: list

    def coords_of(self, fn):
        """Coefficient vector of fn in the t^j/M basis, or None."""
        f = self.field
        prod = fn * RatFunc(f, self.mpoly)
        if prod.den != (1,) or len(prod.num) > self.dim:
            return None
        v = np.zeros(self.dim, dtype=np.int64)
        v[:len(prod.num)] = prod.num
        return v

    def func_of(self, coords):
        f = self.field
        return RatFunc(f, ptrim(int(c) for c in coords), self.mpoly)


def rr_basis(D):
    """Basis t^j/M of L(D) on the line; dimension deg(D) + 1."""
    if not D.is_effective():
        raise FuncFieldError("divisor must be effective")
    f = D.field
    mpoly = (1,)
    n_inf = 0
    for pt, m in D.items().items():
        if pt.is_infinity:
            n_inf = m
        else:
            mpoly = pmul(f, mpoly, ppow(f, pt.poly, m))
    dim = D.degree() + 1
    basis = [RatFunc(f, (0,) * j + (1,), mpoly) for j in range(dim)]
    return RRSpace(D, f, mpoly, n_inf, dim, basis)


@dataclass
class UnitSubset:
    rr: RRSpace
    E: frozenset
    space: ProjSpace
    points: np.ndarray    # indices of unit classes
    one_index: int

    @property
    def n_units(self):
        return len(self.points)


def unit_subset(D, E):
    """Classes in P(L(D)) whose divisor avoids every point of E."""
    f = D.field
    E = frozenset(E)
    if any(pt.field != f for pt in E):
        raise FuncFieldError("evaluation points live over the wrong field")
    if E & D.support():
        raise FuncFieldError("divisor and evaluation set overlap")
    rr = rr_basis(D)
    space = ProjSpace(f, rr.dim)
    # point i is the function pts[i] / M, with M prime to every point of E
    keep = np.ones(space.n_points, dtype=bool)
    for pt in E:
        if pt.is_infinity:   # no zero or pole there: deg pts[i] = deg M
            deg = rr.dim - 1 - np.argmax(space.pts[:, ::-1] != 0, axis=1)
            keep &= deg == len(rr.mpoly) - 1
        else:                # no zero there: pt.poly does not divide pts[i]
            sub_t = f.neg_t[f.mul_t[:, pt.poly]]
            keep &= _polydiv(space.pts, sub_t, f.add_t)[1].any(axis=1)
    keep = np.flatnonzero(keep)
    one = space.canon_index_many(
        np.array(list(rr.mpoly) + [0] * (rr.dim - len(rr.mpoly))))
    U = UnitSubset(rr, E, space, keep, int(one))
    if int(one) not in keep:
        raise FuncFieldError("internal: the constant 1 is not a unit")
    return U


def shift_survivors(fn, E):
    """Constants c with f - c a unit along E (no zero or pole there)."""
    f = fn.field
    out = []
    for c in range(f.q):
        g = fn - RatFunc.constant(f, c)
        if g.is_zero():
            continue
        if all(valuation(g, pt) == 0 for pt in E):
            out.append(c)
    return out


@dataclass
class FFCertificate:
    ample: bool
    t_star: int
    q: int
    extendable: bool      # the family is (3,2)-admissible at q
    n_meeting: int
    family: AmpleFamily


def ample_certificate(U, fam=None):
    """Exact worst-case line complement over U, with the q margin.

    Without a family, certifies the tightest size_at_most(t*); a given
    family is checked as passed.  extendable is the (3,2)-admissibility of
    the certified family, the precondition extend checks.
    """
    space = U.space
    q = space.field.q
    meeting, in_cnt, _ = lines_meeting(space, U.points)
    if len(meeting) == 0:
        raise FuncFieldError("no line meets the unit set")
    comp = (space.line_pts.shape[1] - in_cnt[meeting]).astype(np.int64)
    t_star = int(comp.max())
    if fam is None:
        fam = AmpleFamily.size_at_most(t_star)
    rep = is_ample(space, U.points, fam)
    return FFCertificate(rep.ample, t_star, q, is_mn_admissible(fam, q, 3, 2),
                         int(len(meeting)), fam)


# ---------------------------------------------------------------------------
# scrambling: coordinate change + Frobenius, as a partial collineation
# ---------------------------------------------------------------------------

def moebius_point_image(f, mat, pt):
    """Image of a closed point under t -> (a t + b)/(c t + d)."""
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
    if len(out) - 1 != deg:
        raise FuncFieldError("point image degenerates")
    return ClosedPointP1.finite(f, pmonic(f, out))


def moebius_substitute(fn, mat):
    """fn composed with t -> (a t + b)/(c t + d)."""
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


def _transport_divisor(D, point_map):
    return DivisorP1(D.field, {point_map(pt): m for pt, m in D.items().items()})


@dataclass
class Scramble:
    pc: object            # PartialCollineation on the unit classes
    truth: Collineation
    semi: SemilinearIso
    unit: UnitSubset
    gmat: tuple
    frob: int


def scramble(gmat, frob, D, E):
    """Partial collineation induced on the units by f -> frob^e(f o g^-1).

    g must stabilize both D (with multiplicities) and E; when the twist
    is nonzero, so must the coefficientwise Frobenius.  The ground-truth
    semilinear map is retained for later comparison.
    """
    f = D.field
    U = unit_subset(D, E)
    gmat = tuple(tuple(int(x) for x in row) for row in gmat)
    a, b, c, d = gmat[0][0], gmat[0][1], gmat[1][0], gmat[1][1]
    if f.sub(f.mul(a, d), f.mul(b, c)) == 0:
        raise FuncFieldError("g must be invertible")
    gpt = lambda pt: moebius_point_image(f, gmat, pt)
    if _transport_divisor(D, gpt) != D:
        raise FuncFieldError("g does not stabilize the divisor")
    if {gpt(pt) for pt in E} != set(E):
        raise FuncFieldError("g does not stabilize the evaluation set")
    e = int(frob) % f.n
    if e:
        row = f.frob_t[e]
        fpt = lambda pt: (pt if pt.is_infinity else ClosedPointP1.finite(
            f, tuple(int(row[c0]) for c0 in pt.poly)))
        if _transport_divisor(D, fpt) != D:
            raise FuncFieldError("frobenius does not stabilize the divisor")
        if {fpt(pt) for pt in E} != set(E):
            raise FuncFieldError("frobenius does not stabilize "
                                 "the evaluation set")
    # g^-1 corresponds to the adjugate matrix
    adj = ((d, f.neg(b)), (f.neg(c), a))
    rr = U.rr
    cols = []
    for bf in rr.basis:
        img = moebius_substitute(bf, adj)
        v = rr.coords_of(img)
        if v is None:
            raise FuncFieldError("internal: basis image leaves L(D)")
        cols.append(v)
    A = np.stack(cols, axis=1)
    B = f.frob_t[e][A].astype(np.int64)
    semi = SemilinearIso(U.space, B, e)
    truth = semi.induce()
    if not np.isin(truth.sigma[U.points], U.points).all():
        raise FuncFieldError("internal: scramble does not preserve units")
    pc = restrict(truth, U.points)
    return Scramble(pc, truth, semi, U, gmat, e)


# ---------------------------------------------------------------------------
# ring isomorphism recovery
# ---------------------------------------------------------------------------

@dataclass
class RingIsoReport:
    psi_matrix: np.ndarray
    frob_exp: int
    n_classes: int
    n_pairs_checked: int
    multiplicative: bool
    matches_truth: bool | None


def _normalize_fixing_one(iso, rr):
    """Rescale a semilinear map so the class of the constant 1 is fixed."""
    f = iso.field
    v1 = np.zeros(rr.dim, dtype=np.int64)
    v1[:len(rr.mpoly)] = rr.mpoly
    twisted = f.frob_t[iso.frob_exp][v1]
    u = mat_apply(f, iso.mat, twisted[None])[0].astype(np.int64)
    j0 = int(np.argmax(v1 != 0))
    s = f.mul(int(u[j0]), f.inv(int(v1[j0])))
    if s == 0 or not np.array_equal(u, f.mul_t[s, v1].astype(np.int64)):
        raise FuncFieldError("decoded map does not fix the class of 1")
    psi = f.mul_t[f.inv(s), iso.mat].astype(np.int64)
    return psi


def apply_psi(rr, psi, e, fn):
    """The recovered map as a function on rational functions."""
    v = rr.coords_of(fn)
    if v is None:
        raise FuncFieldError("function is outside the truncation")
    f = rr.field
    row = f.frob_t[e % f.n]
    return rr.func_of(mat_apply(f, psi, row[v][None])[0])


def recover_ring_iso(result, unit, truth=None):
    """Normalize the decoded semilinear map by psi(1) = 1 and verify it
    is multiplicative on every pair of classes whose product stays in
    L(D); optionally compare against the known scramble map."""
    rr, space = unit.rr, unit.space
    f = space.field
    psi = _normalize_fixing_one(result.decoded, rr)
    e = result.decoded.frob_exp
    row = f.frob_t[e].astype(np.int64)

    nums = space.pts.astype(np.int64)
    psin = mat_apply(f, psi, row[nums])

    deg_m = len(rr.mpoly) - 1
    degcap = deg_m + rr.dim - 1
    mpoly = np.array(rr.mpoly, dtype=np.int64)
    n_pairs, bad_i, bad_j = pair_mult_scan(
        nums, psin, psi, row, mpoly, degcap, f.mul_t, f.add_t, f.neg_t)
    if bad_i >= 0:
        raise FuncFieldError(
            "multiplicativity fails for classes %d and %d" % (bad_i, bad_j))

    match = None
    if truth is not None:
        tpsi = _normalize_fixing_one(truth, rr)
        match = bool(np.array_equal(psi, tpsi)
                     and e == truth.frob_exp % f.n)
    return RingIsoReport(psi, e, space.n_points, int(n_pairs), True, match)


# ---------------------------------------------------------------------------
# canned demonstration instances
# ---------------------------------------------------------------------------

def demo_instance(key):
    """Named end-to-end setups; each returns (D, E, gmat, frob)."""
    if key == "q13":
        f = field_of_order(13)
        # divisor (t-2) + (t-7): the points 2 and 7 swap under t -> 1/t
        D = DivisorP1(f, {
            ClosedPointP1.finite(f, (f.neg(2), 1)): 1,
            ClosedPointP1.finite(f, (f.neg(7), 1)): 1,
        })
        E = {ClosedPointP1.finite(f, (0, 1)), ClosedPointP1.infinity(f)}
        return f, D, E, ((0, 1), (1, 0)), 0
    if key == "q9frob":
        f = field_of_order(9)
        # double point at t=1, fixed by t -> 1/t and by Frobenius
        D = DivisorP1(f, {ClosedPointP1.finite(f, (f.neg(1), 1)): 2})
        E = {ClosedPointP1.finite(f, (0, 1)), ClosedPointP1.infinity(f)}
        return f, D, E, ((0, 1), (1, 0)), 1
    raise FuncFieldError("unknown demo instance %r" % (key,))


def run_demo(key, seed=0):
    """Full pipeline on a named instance; every claim is verified.

    seed picks extend's line-search shuffle."""
    f, D, E, gmat, frob = demo_instance(key)
    scr = scramble(gmat, frob, D, E)
    cert = ample_certificate(scr.unit)
    if not (cert.ample and cert.extendable):
        raise FuncFieldError("demo instance is not extendable")
    res = extend(scr.pc, cert.family, seed=seed)
    rep = recover_ring_iso(res, scr.unit, truth=scr.semi)
    return {
        "instance": key,
        "q": f.q,
        "frob": frob,
        "n_units": int(scr.unit.n_units),
        "t_star": cert.t_star,
        "ample": cert.ample,
        "extendable": cert.extendable,
        "recovered_frob": rep.frob_exp,
        "pairs_checked": rep.n_pairs_checked,
        "multiplicative": rep.multiplicative,
        "matches_truth": rep.matches_truth,
        "psi_fixes_one": True,
    }
