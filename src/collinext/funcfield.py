"""Genus-zero function field layer: divisors on the projective line over
F_q, Riemann-Roch truncations, unit subsets, and recovery of a ring
isomorphism from a collineation extension.

A function of L(D) is its numerator over the fixed monic denominator M,
kept as a coefficient row (constant term first, entries are field
element indices) and computed on with gf's row kernels; a closed point
is its monic irreducible polynomial as a tuple.  The space L(D) for an
effective divisor D with finite part M and infinity multiplicity n is
spanned by t^j / M, 0 <= j <= deg M + n, so its projectivization is a
standard ProjSpace and the whole extension machinery applies unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .gf import (GF, _polydiv, _polymul, field_of_order,
                 is_irreducible_monic, mat_apply)
from ._kernels import pair_mult_scan
from .projgeom import GeomError, ProjSpace, space_of, space_size
from .semilinear import Collineation, SemilinearIso
from .ample import AmpleFamily, is_ample, is_mn_admissible
from .extend import extend, restrict


class FuncFieldError(Exception):
    pass


# ---------------------------------------------------------------------------
# closed points and divisors
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
        poly = tuple(int(c) for c in poly)
        while poly and poly[-1] == 0:
            poly = poly[:-1]
        if len(poly) < 2 or poly[-1] != 1:
            raise FuncFieldError("closed point needs a monic polynomial "
                                 "of degree >= 1")
        if not is_irreducible_monic(field, poly):
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

    def support(self):
        return set(self._m)

    def items(self):
        return dict(self._m)

    def degree(self):
        return sum(m * pt.degree for pt, m in self._m.items())

    def is_effective(self):
        return all(m > 0 for m in self._m.values())

    def __eq__(self, other):
        return isinstance(other, DivisorP1) and self._m == other._m

    def __repr__(self):
        return "Div(%s)" % (self._m,)


# ---------------------------------------------------------------------------
# Riemann-Roch truncations and unit subsets
# ---------------------------------------------------------------------------

@dataclass
class RRSpace:
    D: DivisorP1
    field: GF
    mpoly: tuple          # product of the finite part, monic
    dim: int


def rr_basis(D):
    """L(D) on the line, spanned by t^j/M for 0 <= j <= deg D."""
    if not D.is_effective():
        raise FuncFieldError("divisor must be effective")
    f = D.field
    mpoly = np.ones((1, 1), dtype=np.int64)
    for pt, m in D.items().items():
        for _ in range(0 if pt.is_infinity else m):
            mpoly = _polymul(mpoly, np.array([pt.poly]),
                             mpoly.shape[1] + pt.degree, f.mul_t, f.add_t)
    return RRSpace(D, f, tuple(int(c) for c in mpoly[0]), D.degree() + 1)


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
    try:   # priced before anything is built
        space_size(f.q, rr.dim)
    except GeomError as err:
        raise FuncFieldError("P(L(D)): %s" % err) from None
    space = space_of(f, rr.dim)
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


@dataclass
class FFCertificate:
    ample: bool
    t_star: int
    q: int
    extendable: bool      # the family is (3,2)-admissible at q
    n_meeting: int
    family: AmpleFamily


def ample_certificate(U):
    """Exact worst-case line complement over U, with the q margin.

    Certifies the tightest family, size_at_most(t*); extendable is its
    (3,2)-admissibility, the precondition extend checks.  A caller with a
    family of its own asks is_ample and is_mn_admissible.
    """
    space = U.space
    q = space.field.q
    # one scan gives t* and the verdict: the cap q accepts every
    # complement of a line meeting U, as the cap t* does
    rep = is_ample(space, U.points, AmpleFamily.size_at_most(q))
    if not rep.n_meeting:
        raise FuncFieldError("no line meets the unit set")
    fam = AmpleFamily.size_at_most(rep.t_star)
    return FFCertificate(rep.ample, rep.t_star, q,
                         is_mn_admissible(fam, q, 3, 2), rep.n_meeting, fam)


# ---------------------------------------------------------------------------
# scrambling: coordinate change + Frobenius, as a partial collineation
# ---------------------------------------------------------------------------

def _adjugate(f, mat):
    """The adjugate of a 2 x 2 matrix: the inverse Moebius map."""
    (a, b), (c, d) = mat
    return (d, f.neg(b)), (f.neg(c), a)


def _form_substitution(f, mat, r):
    """The [r + 1, r + 1] matrix of F(t, s) -> F(a t + b s, c t + d s) on
    binary forms of degree r, coefficient j on t^j s^(r - j): column j
    is (b + a t)^j (d + c t)^(r - j)."""
    (a, b), (c, d) = mat
    lin = np.array([[b, a], [d, c]])
    # pw[j] holds (b + a t)^j and (d + c t)^j
    pw = np.zeros((r + 1, 2, r + 1), dtype=np.int64)
    pw[0, :, 0] = 1
    for j in range(1, r + 1):
        pw[j] = _polymul(pw[j - 1, :, :r], lin, r + 1, f.mul_t, f.add_t)
    return _polymul(pw[:, 0], pw[::-1, 1], 2 * r + 1,
                    f.mul_t, f.add_t)[:, :r + 1].T


def moebius_point_image(f, mat, pt):
    """Image of a closed point under t -> (a t + b)/(c t + d): its binary
    form (s at infinity) under the inverse map, made monic; a zero top
    coefficient is the form s, infinity."""
    form = np.array((1, 0) if pt.is_infinity else pt.poly)
    A = _form_substitution(f, _adjugate(f, mat), len(form) - 1)
    img = mat_apply(f, A, form[None])[0]
    if img[-1] == 0:
        return ClosedPointP1.infinity(f)
    return ClosedPointP1.finite(f, f.mul_t[f.inv_t[img[-1]], img])


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
    # f o g^-1 on L(D) = <t^j s^(r - j)> / (the form of D), whose form g
    # fixes up to a scalar
    A = _form_substitution(f, _adjugate(f, gmat), U.rr.dim - 1)
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
