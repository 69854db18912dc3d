"""Arithmetic in GF(p^n) with a fixed polynomial-basis encoding.

An element is an index in 0..q-1 whose base-p digits are the coefficients
of the residue polynomial, constant term first: idx = sum(c_i * p**i).
Index 0 is zero and index 1 is one in every field.  Fields up to
q = Q_CAP = 2**10 are supported, and all arithmetic is lookups in full
q x q tables built at construction.
"""

import numpy as np

Q_CAP = 1 << 10  # full q x q tables are built up to this


class GFError(Exception):
    pass


# ---------------------------------------------------------------------------
# polynomials over Z/p (plain int-list coefficient vectors, constant first)
# ---------------------------------------------------------------------------

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        a = _ptrim(a)
        if len(a) - 1 < df:
            break
        lead = a[-1]
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - lead * fi) % p
        a = _ptrim(a)
    return a


def _ppowmod(base, e, f, p):
    r = [1]
    b = _pmod(base, f, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, b, p), f, p)
        b = _pmod(_pmul(b, b, p), f, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        # make b monic before reducing
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _is_prime(m):
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _irreducible(coeffs, p):
    """Monic coeffs (constant first, leading 1), degree n >= 1, over Z/p."""
    f = list(coeffs)
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    # x^(p^n) == x mod f
    t = x
    for _ in range(n):
        t = _ppowmod(t, p, f, p)
    if _ptrim([(ti - xi) % p for ti, xi in _zippad(t, x, p)]):
        return False
    for r in _prime_divisors(n):
        t = x
        for _ in range(n // r):
            t = _ppowmod(t, p, f, p)
        g = _pgcd([(ti - xi) % p for ti, xi in _zippad(t, x, p)], f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _zippad(a, b, p):
    m = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(m)]


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a):
        """Coefficient vector of element a, constant term first, length n."""
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def el(self, c):
        """Element from an int (coerced mod p if n == 1 semantics do not
        apply: ints 0..q-1 are taken as indices) or a coefficient list."""
        if isinstance(c, (list, tuple)):
            if len(c) > self.n:
                raise GFError("coefficient vector longer than n")
            return sum((int(ci) % self.p) * self._pw[i] for i, ci in enumerate(c))
        c = int(c)
        if not 0 <= c < self.q:
            raise GFError("index %d out of range for q=%d" % (c, self.q))
        return c

    def elements(self):
        """All q elements in canonical order: zero first, then one."""
        return range(self.q)

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

    def pow_(self, a, e):
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        return self._pow_scalar(a, e)

    def _pow_scalar(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frob(self, a, i):
        """a ** (p**i); i is reduced mod n."""
        return int(self.frob_t[int(i) % self.n, a])

    # -- misc --------------------------------------------------------------

    def prime_subfield(self):
        return range(self.p)

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p and
                self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.n)


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
    if not _is_prime(p):
        raise GFError("p = %d is not prime" % p)
    if n < 1:
        raise GFError("n must be >= 1")
    if p ** n > Q_CAP:
        raise GFError("p^n = %d exceeds cap %d" % (p ** n, Q_CAP))
    if n == 1:
        f = GF(p, 1, (0, 1))
        _FIELD_CACHE[key] = f
        return f
    import itertools
    for tail in itertools.product(range(p), repeat=n):
        coeffs = tuple(tail) + (1,)
        if coeffs[0] == 0:
            continue  # divisible by x
        if _irreducible(coeffs, p):
            f = GF(p, n, coeffs)
            _FIELD_CACHE[key] = f
            return f
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
    """Reduced row echelon form; returns (rows, pivot columns)."""
    R = [list(int(x) for x in row) for row in M]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if R[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        s = f.inv(R[r][c])
        R[r] = [f.mul(s, x) for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                t = R[i][c]
                R[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def solve_linear(f, A, b):
    """One solution x of A x = b, or None.  A is square or tall."""
    n = len(A)
    m = len(A[0])
    aug = [list(A[i]) + [int(b[i])] for i in range(n)]
    R, pivots = rref(f, aug)
    if m in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [0] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x
