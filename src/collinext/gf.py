"""Arithmetic in GF(p^n) with a fixed polynomial-basis encoding.

An element is an index in 0..q-1 whose base-p digits are the coefficients
of the residue polynomial, constant term first: idx = sum(c_i * p**i).
Index 0 is zero and index 1 is one in every field.  Fields up to
q = Q_CAP = 2**10 are supported, and all arithmetic is lookups in full
q x q tables built at construction.

Polynomials over a field are coefficient rows of element indices,
constant term first, a batch of them one [n, w] array: _polymul and
_polydiv are the one polynomial layer, and make_field finds its modulus
with a sieve on them.
"""

import functools

import numpy as np

from .primesets import is_prime_u64

Q_CAP = 1 << 10  # full q x q tables are built up to this
_TABLE_BLOCK = 1 << 18  # elements per temporary of the table build
SIEVE_CAP = Q_CAP ** 2  # monic rows in one irreducibility sieve


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
        self._build_tables()

    # -- tables ------------------------------------------------------------

    def _build_tables(self):
        q, p, n = self.q, self.p, self.n
        pw = p ** np.arange(n)
        digs = np.arange(q)[:, None] // pw % p   # [q, n] digit rows
        self.neg_t = (-digs % p @ pw).astype(np.int32)   # digitwise
        # xb[i] holds the digit rows of x^i b for every b.  Times x is the
        # companion matrix of the modulus: the digits shift up, and the
        # carry x^n folds back as -modulus[:n].
        comp = np.eye(n, k=-1, dtype=np.int64)
        comp[:, -1] += -np.array(self.modulus[:n]) % p
        xb = [digs]
        for _ in range(1, n):
            xb.append(xb[-1] @ comp.T % p)
        xb = np.stack(xb)
        # a block of rows a at a time: a + b is digitwise mod p, and
        # a b = sum_i a_i x^i b
        add = np.empty((q, q), dtype=np.int32)
        mul = np.empty((q, q), dtype=np.int32)
        step = max(1, _TABLE_BLOCK // (q * n))
        for s in range(0, q, step):
            a = digs[s:s + step]
            add[s:s + step] = (a[:, None] + digs) % p @ pw
            mul[s:s + step] = np.tensordot(a, xb, 1) % p @ pw
        self.add_t, self.mul_t = add, mul
        # inverses from the multiplication table
        inv = np.zeros(q, dtype=np.int32)
        aa, bb = np.nonzero(mul == 1)
        inv[aa] = bb
        self.inv_t = inv
        # frobenius powers: row k is row k - 1 raised to the p-th power
        frob = np.empty((n, q), dtype=np.int32)
        frob[0] = np.arange(q)
        for k in range(1, n):
            frob[k] = 1
            for _ in range(p):
                frob[k] = mul[frob[k], frob[k - 1]]
        self.frob_t = frob

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
# polynomials over a GF: coefficient rows, constant term first
# ---------------------------------------------------------------------------

def _polymul(x, y, width, mul_t, add_t):
    """Row-wise product of coefficient rows x [n, a] and y [n or 1, b],
    lowest degree first, zero-padded to width columns."""
    out = np.zeros((len(x), width), dtype=add_t.dtype)
    for i in range(x.shape[1]):
        seg = out[:, i:i + y.shape[1]]
        seg[...] = add_t[seg, mul_t[x[:, i, None], y]]
    return out


def _polydiv(x, sub_t, add_t):
    """Row-wise quotient and remainder of x [n, w] by a monic polynomial
    of degree dm, given as sub_t[c] = -c * mpoly ([q, dm + 1])."""
    dm = sub_t.shape[1] - 1
    rem = x.copy()
    quo = np.zeros((len(x), max(x.shape[1] - dm, 0)), dtype=x.dtype)
    for k in range(quo.shape[1] - 1, -1, -1):
        c = rem[:, k + dm]
        quo[:, k] = c
        seg = rem[:, k:k + dm + 1]
        seg[...] = add_t[seg, sub_t[c]]
    return quo, rem[:, :dm]


def _monic_rows(q, deg):
    """The q^deg monic rows of degree deg, row c holding the base-q digits
    of c below its leading 1."""
    digs = np.arange(q ** deg)[:, None] // q ** np.arange(deg) % q
    return np.hstack([digs, np.ones((len(digs), 1), dtype=digs.dtype)])


@functools.cache
def _irreducible_mask(f, deg):
    """Whether each monic row of degree deg (as _monic_rows numbers them)
    is irreducible: a sieve that marks every product of monic rows of
    degrees i and deg - i, 1 <= i <= deg / 2.  It holds about
    (deg / 2) q^deg product rows, so q^deg is capped at SIEVE_CAP."""
    if deg < 1:
        raise GFError("degree must be >= 1")
    if f.q ** deg > SIEVE_CAP:
        raise GFError("the degree-%d sieve over %r has %d rows, cap is %d"
                      % (deg, f, f.q ** deg, SIEVE_CAP))
    keep = np.ones(f.q ** deg, dtype=bool)
    for i in range(1, deg // 2 + 1):
        a, b = _monic_rows(f.q, i), _monic_rows(f.q, deg - i)
        prod = _polymul(np.repeat(a, len(b), axis=0),
                        np.tile(b, (len(a), 1)), deg + 1, f.mul_t, f.add_t)
        keep[prod[:, :deg] @ f.q ** np.arange(deg)] = False
    keep.flags.writeable = False   # shared by every caller
    return keep


@functools.cache
def irreducible_monics(f, deg):
    """All monic irreducible polynomials of the given degree, as a tuple
    of tuples, sorted by their coefficients read from c_(deg-1) down to
    c_0.  Cached and shared by every caller, hence immutable."""
    keep = _irreducible_mask(f, deg)
    return tuple(tuple(int(c) for c in row)
                 for row in _monic_rows(f.q, deg)[keep])


def is_irreducible_monic(f, poly):
    """Whether a monic tuple of degree >= 1 is irreducible: a lookup in
    the sieve of its degree."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    code = sum(c * f.q ** j for j, c in enumerate(poly[:deg]))
    return bool(_irreducible_mask(f, deg)[code])


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
    # every irreducible ends in the same 1, so tuple order is make_field's
    return min(irreducible_monics(make_field(p), n))


def field_of_order(q):
    """GF(q) for a prime power q up to Q_CAP."""
    if 2 <= q <= Q_CAP:
        for n in range(1, Q_CAP.bit_length()):
            p = round(q ** (1 / n))
            if p ** n == q and is_prime_u64(p):
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
