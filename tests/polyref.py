"""Tuple polynomials and rational functions over a GF, one scalar table
lookup at a time: the reference for collinext's coefficient-row layer.

A polynomial is a tuple of field element indices, constant term first,
with no trailing zeros.  A rational function is a reduced
numerator/denominator pair of them with a monic denominator.  The tests
check the sieve of gf.irreducible_monics, the scramble
(moebius_substitute, ref_point_image) and the recovered ring map
(apply_psi) against this arithmetic."""

import functools

import numpy as np

from collinext.gf import GFError, mat_apply
from collinext.funcfield import ClosedPointP1, DivisorP1, FuncFieldError


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over a GF (tuples, constant term first)
# ---------------------------------------------------------------------------

def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(int(x) for x in c)


def padd(f, a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return ptrim(int(f.add_t[x, y]) for x, y in zip(a, b))


def pneg(f, a):
    return tuple(int(f.neg_t[x]) for x in a)


def pscale(f, a, s):
    if s == 0:
        return ()
    return tuple(int(f.mul_t[s, x]) for x in a)


def pmul(f, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = int(f.add_t[out[i + j], f.mul_t[x, y]])
    return ptrim(out)


def pdivmod(f, a, b):
    if not b:
        raise GFError("polynomial division by zero")
    a = list(a)
    il = int(f.inv_t[b[-1]])
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = int(f.mul_t[a[k + len(b) - 1], il])
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] = int(f.add_t[a[k + i], f.neg_t[f.mul_t[c, y]]])
    return ptrim(q), ptrim(a)


def pmonic(f, a):
    if not a:
        return ()
    return pscale(f, a, int(f.inv_t[a[-1]]))


def pgcd(f, a, b):
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(f, a, b)[1]
    return pmonic(f, a)


def peval(f, a, x):
    acc = 0
    for c in reversed(a):
        acc = int(f.add_t[f.mul_t[acc, x], c])
    return acc


def ppow(f, a, k):
    out = (1,)
    for _ in range(k):
        out = pmul(f, out, a)
    return out


@functools.cache
def ref_irreducible_monics(f, deg):
    """The monic irreducibles of degree deg by trial division, in the
    order of gf.irreducible_monics: c_(deg-1) most significant."""
    out = []
    for code in range(f.q ** deg):
        digs = [code // f.q ** j % f.q for j in range(deg)]
        poly = tuple(digs) + (1,)
        if pirreducible(f, poly):
            out.append(poly)
    return out


def pirreducible(f, a):
    """Whether a monic polynomial of degree >= 1 has no monic irreducible
    factor of degree at most half its own."""
    return all(pdivmod(f, a, g)[1] for k in range(1, (len(a) - 1) // 2 + 1)
               for g in ref_irreducible_monics(f, k))


def pfactor(f, a):
    """Monic irreducible factorization {poly: multiplicity}; unit dropped."""
    a = pmonic(f, ptrim(a))
    if not a:
        raise GFError("cannot factor the zero polynomial")
    out = {}
    d = 1
    while len(a) - 1 >= 2 * d:
        for g in ref_irreducible_monics(f, d):
            while True:
                q, r = pdivmod(f, a, g)
                if r:
                    break
                out[g] = out.get(g, 0) + 1
                a = q
        d += 1
    if len(a) > 1:
        out[a] = out.get(a, 0) + 1
    return out


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

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

    def __repr__(self):
        return "RatFunc(%s / %s)" % (self.num, self.den)


def mult(D, pt):
    """The multiplicity of a closed point in a divisor."""
    return D.items().get(pt, 0)


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


def divisor_sum(a, b):
    """The divisor a + b, multiplicities added point by point."""
    mults = a.items()
    for pt, m in b.items().items():
        mults[pt] = mults.get(pt, 0) + m
    return DivisorP1(a.field, mults)


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


# ---------------------------------------------------------------------------
# L(D) as rational functions
# ---------------------------------------------------------------------------

def coords_of(rr, fn):
    """Coefficient vector of fn in the t^j/M basis of rr, or None."""
    prod = fn * RatFunc(rr.field, rr.mpoly)
    if prod.den != (1,) or len(prod.num) > rr.dim:
        return None
    v = np.zeros(rr.dim, dtype=np.int64)
    v[:len(prod.num)] = prod.num
    return v


def func_of(rr, coords):
    """The function of L(D) with the given coordinates."""
    return RatFunc(rr.field, ptrim(int(c) for c in coords), rr.mpoly)


def apply_psi(rr, psi, e, fn):
    """The recovered map psi composed with the e-th Frobenius, as a
    function on rational functions."""
    v = coords_of(rr, fn)
    if v is None:
        raise FuncFieldError("function is outside the truncation")
    f = rr.field
    row = f.frob_t[e % f.n]
    return func_of(rr, mat_apply(f, psi, row[v][None])[0])
