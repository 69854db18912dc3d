"""Arithmetic in GF(p^n) with a fixed polynomial-basis encoding.

An element is an index in 0..q-1 whose base-p digits are the coefficients
of the residue polynomial, constant term first: idx = sum(c_i * p**i).
Index 0 is zero and index 1 is one in every field.  Fields up to
q = Q_CAP = 2**10 are supported, and all arithmetic is lookups in full
q x q tables built at construction.

Polynomials over a field are tuples of element indices, constant term
first, with no trailing zeros; make_field finds its modulus with them.
"""

import itertools

import numpy as np

from .primesets import is_prime_u64

Q_CAP = 1 << 10  # full q x q tables are built up to this


class GFError(Exception):
    pass


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class GF:
    """GF(p^n) with modulus fixed at construction.

    All index-level operations accept and return plain ints.
    """

    def __init__(self, p, n, modulus):
        self.p = int(p)
        self.n = int(n)
        self.q = self.p ** self.n
        self.modulus = tuple(int(c) for c in modulus)
        if self.q > Q_CAP:
            raise GFError("field size %d exceeds cap %d" % (self.q, Q_CAP))
        if len(self.modulus) != self.n + 1 or self.modulus[-1] != 1:
            raise GFError("modulus must be monic of degree n")
        self._pw = [self.p ** i for i in range(self.n + 1)]
        self._build_tables()

    # -- tables ------------------------------------------------------------

    def _build_tables(self):
        q, p, n = self.q, self.p, self.n
        digs = np.zeros((q, n), dtype=np.int64)
        t = np.arange(q)
        for i in range(n):
            digs[:, i] = t % p
            t = t // p
        self._digs = digs
        # addition is digitwise mod p
        s = (digs[:, None, :] + digs[None, :, :]) % p
        self.add_t = self._recompose(s)
        self.neg_t = self._recompose((-digs) % p)
        # multiplication: row-by-row convolution then reduction by modulus
        red = self._reduction_rows()
        mul = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            da = digs[a]
            conv = np.zeros((q, 2 * n - 1), dtype=np.int64)
            for i in range(n):
                if da[i]:
                    conv[:, i:i + n] += da[i] * digs
            conv %= p
            full = conv[:, :n].copy()
            for k in range(n, 2 * n - 1):
                full = (full + conv[:, k:k + 1] * red[k - n]) % p
            mul[a] = full @ np.array(self._pw[:n], dtype=np.int64)
        self.mul_t = mul
        # inverses from the multiplication table
        inv = np.zeros(q, dtype=np.int32)
        aa, bb = np.nonzero(mul == 1)
        inv[aa] = bb
        self.inv_t = inv
        # frobenius powers
        frob = np.zeros((n, q), dtype=np.int32)
        frob[0] = np.arange(q)
        if n > 1:
            f1 = np.array([self._pow_scalar(a, p) for a in range(q)], dtype=np.int32)
            frob[1] = f1
            for i in range(2, n):
                frob[i] = f1[frob[i - 1]]
        self.frob_t = frob

    def _recompose(self, digs):
        return (digs @ np.array(self._pw[:self.n], dtype=np.int64)).astype(np.int32)

    def _reduction_rows(self):
        # digit rows of x^(n+k) mod modulus, for k = 0..n-2
        p, n = self.p, self.n
        rows = np.zeros((max(n - 1, 1), n), dtype=np.int64)
        cur = [(-c) % p for c in self.modulus[:n]]  # x^n mod f
        rows[0, :] = cur[:n] if n > 1 else rows[0, :]
        if n == 1:
            return rows
        for k in range(1, n - 1):
            nxt = [0] + cur[: n - 1]
            lead = cur[n - 1]
            if lead:
                for i in range(n):
                    nxt[i] = (nxt[i] + lead * rows[0, i]) % p
            cur = [c % p for c in nxt]
            rows[k, :] = cur
        return rows

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a, b):
        return int(self.add_t[a, b])

    def neg(self, a):
        return int(self.neg_t[a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return int(self.mul_t[a, b])

    def inv(self, a):
        if a == 0:
            raise GFError("zero has no inverse")
        return int(self.inv_t[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def _pow_scalar(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p and
                self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.n)


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


_irr_cache = {}


def irreducible_monics(f, deg):
    """All monic irreducible polynomials of the given degree, sorted."""
    key = (f, deg)
    if key in _irr_cache:
        return _irr_cache[key]
    if deg < 1:
        raise GFError("degree must be >= 1")
    out = []
    for code in range(f.q ** deg):
        c, digs = code, []
        for _ in range(deg):
            digs.append(c % f.q)
            c //= f.q
        poly = tuple(digs) + (1,)
        if pirreducible(f, poly):
            out.append(poly)
    _irr_cache[key] = out
    return out


def pirreducible(f, a):
    """Whether a monic polynomial of degree >= 1 has no monic irreducible
    factor of degree at most half its own."""
    return all(pdivmod(f, a, g)[1] for k in range(1, (len(a) - 1) // 2 + 1)
               for g in irreducible_monics(f, k))


def pfactor(f, a):
    """Monic irreducible factorization {poly: multiplicity}; unit dropped."""
    a = pmonic(f, ptrim(a))
    if not a:
        raise GFError("cannot factor the zero polynomial")
    out = {}
    d = 1
    while len(a) - 1 >= 2 * d:
        for g in irreducible_monics(f, d):
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
# field construction
# ---------------------------------------------------------------------------

_FIELD_CACHE = {}


def make_field(p, n=1):
    """GF(p^n) with the lexicographically least monic irreducible modulus.

    "Least" compares the coefficient tuple (c_0, ..., c_{n-1}), constant
    term first; the leading coefficient is always 1 and not compared.
    """
    p, n = int(p), int(n)
    key = (p, n)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if not is_prime_u64(p):
        raise GFError("p = %d is not prime" % p)
    if n < 1:
        raise GFError("n must be >= 1")
    if p ** n > Q_CAP:
        raise GFError("p^n = %d exceeds cap %d" % (p ** n, Q_CAP))
    modulus = (0, 1) if n == 1 else _least_modulus(p, n)
    f = _FIELD_CACHE[key] = GF(p, n, modulus)
    return f


def _least_modulus(p, n):
    """The least monic irreducible of degree n over GF(p), in make_field's
    order."""
    f = make_field(p)
    for tail in itertools.product(range(p), repeat=n):
        if pirreducible(f, tail + (1,)):
            return tail + (1,)
    raise GFError("no irreducible modulus found (unreachable)")


def field_of_order(q):
    """GF(q) for a prime power q over a prime p <= 13."""
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n < q:
            n += 1
        if p ** n == q:
            return make_field(p, n)
    raise GFError("q = %d is not a supported prime power" % q)


# ---------------------------------------------------------------------------
# small dense linear algebra over a field (index-valued int arrays)
# ---------------------------------------------------------------------------

def mat_apply(f, mats, vecs):
    """M v for every matrix M of a stack and every index vector v.

    mats is [..., d, d] and vecs is [N, d]; the result is [..., N, d]."""
    mats = np.asarray(mats)
    vecs = np.asarray(vecs)
    out = 0
    for j in range(vecs.shape[-1]):
        out = f.add_t[out, f.mul_t[mats[..., None, :, j], vecs[:, None, j]]]
    return out


def rref(f, M):
    """Reduced row echelon form of an [m, n] index array, as (rows, pivot
    columns): rows is the reduced [m, n] int64 array, zero rows last.
    Each pivot clears its column from every other row in one table
    gather."""
    R = np.array(M, dtype=np.int64)
    m, n = R.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if not len(nz):
            continue
        if nz[0]:
            R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r] = f.mul_t[f.inv_t[R[r, c]], R[r]]
        t = f.neg_t[R[:, c]]
        t[r] = 0
        R[:] = f.add_t[R, f.mul_t[t[:, None], R[r]]]
        pivots.append(c)
    return R, pivots


def mat_inv(f, M):
    """Inverse of a square index matrix, from the rref of [M | I]; None
    when M is singular."""
    d = len(M)
    R, pivots = rref(f, np.hstack([M, np.eye(d, dtype=np.int64)]))
    if pivots != list(range(d)):
        return None
    return R[:, d:]
