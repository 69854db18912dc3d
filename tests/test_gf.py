import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from sympy import mobius, primefactors

from collinext.gf import (
    GF, Q_CAP, GFError, _least_modulus, irreducible_monics, make_field,
    field_of_order, mat_apply, mat_inv, rref,
)
from polyref import ref_irreducible_monics

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_moduli_frozen():
    # least monic irreducible, comparing (c_0, .., c_{n-1}) constant-first
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)      # x^2+x+1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)   # x^3+x^2+1
    assert make_field(3, 2).modulus == (1, 0, 1)      # x^2+1
    assert make_field(5, 1).modulus == (0, 1)


# tail (c_0, .., c_{n-1}) of the least monic irreducible modulus of every
# non-prime field p^n <= Q_CAP, frozen from the Z/p list-polynomial finder
# that make_field used before it moved onto the table-based layer
MODULI = {
    (2, 2): (1, 1), (2, 3): (1, 0, 1), (2, 4): (1, 0, 0, 1),
    (2, 5): (1, 0, 0, 1, 0), (2, 6): (1, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (3, 2): (1, 0), (3, 3): (1, 0, 2), (3, 4): (1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2), (3, 6): (1, 0, 0, 0, 1, 1),
    (5, 2): (1, 1), (5, 3): (1, 0, 1), (5, 4): (1, 0, 1, 1),
    (7, 2): (1, 0), (7, 3): (1, 0, 1), (11, 2): (1, 0), (13, 2): (1, 3),
    (17, 2): (1, 1), (19, 2): (1, 0), (23, 2): (1, 0), (29, 2): (1, 1),
    (31, 2): (1, 0),
}


def test_moduli_least_irreducible_against_sympy():
    from sympy import Poly, isprime, symbols
    x = symbols("x")

    def irreducible(coeffs, p):
        return Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

    assert sorted(MODULI) == [(p, n) for p in range(2, 32) if isprime(p)
                              for n in range(2, 11) if p ** n <= Q_CAP]
    for (p, n), tail in MODULI.items():
        # the finder alone: make_field(2, 10) would build 2^20-entry tables
        assert _least_modulus(p, n) == tail + (1,), (p, n)
        assert irreducible(tail + (1,), p), (p, n)
        # every candidate before it, constant term first, is reducible
        for t in itertools.product(range(p), repeat=n):
            if t == tail:
                break
            assert not irreducible(t + (1,), p), (p, n, t)


def test_make_field_rejects():
    with pytest.raises(GFError):
        make_field(4, 1)
    with pytest.raises(GFError):
        make_field(2, 17)  # 2^17 over cap
    with pytest.raises(GFError):
        make_field(2, 11)  # 2048 is over Q_CAP, every field is tabled
    with pytest.raises(GFError):
        make_field(2, 0)


def ref_mul_row(f, a):
    """Row a of mul_t by convolution and reduction: the digits of a times
    the digits of every b, then long division by the modulus; the
    reference for the companion-matrix build."""
    p, n = f.p, f.n
    digs = np.arange(f.q)[:, None] // p ** np.arange(n) % p
    conv = np.zeros((f.q, 2 * n - 1), dtype=np.int64)
    for i, c in enumerate(digs[a]):
        conv[:, i:i + n] += c * digs
    for k in range(2 * n - 2, n - 1, -1):   # x^k = x^(k - n) (x^n - modulus)
        conv[:, k - n:k + 1] -= conv[:, k:k + 1] * np.array(f.modulus)
        conv %= p
    return conv[:, :n] % p @ p ** np.arange(n)


ALL_FIELDS = sorted(MODULI) + [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19,
                                                23, 29, 31)]


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_tables_match_convolution_reference(p, n):
    # every row up to q = 256, and 64 seeded rows of each larger field
    f = make_field(p, n)
    q = f.q
    rows = (range(q) if q <= 256 else
            np.random.default_rng(q).choice(q, size=64, replace=False))
    pw = p ** np.arange(n)
    digs = np.arange(q)[:, None] // pw % p
    for a in rows:
        assert np.array_equal(f.mul_t[a], ref_mul_row(f, a)), (p, n, a)
        assert np.array_equal(f.add_t[a], (digs[a] + digs) % p @ pw)
    assert np.array_equal(f.neg_t, -digs % p @ pw)
    assert f.mul_t[np.arange(1, q), f.inv_t[1:]].tolist() == [1] * (q - 1)
    # x -> x^p is the p-fold product, and frob_t[k] its k-th iterate
    xp = np.ones(q, dtype=np.int64)
    for _ in range(p):
        xp = f.mul_t[xp, np.arange(q)]
    for k in range(1, n):
        assert np.array_equal(f.frob_t[k], xp[f.frob_t[k - 1]]), (p, n, k)
    for t in (f.add_t, f.neg_t, f.mul_t, f.inv_t, f.frob_t):
        assert t.dtype == np.int32
    assert f.add_t.shape == f.mul_t.shape == (q, q)
    assert f.frob_t.shape == (n, q)


def test_table_build_peak_memory():
    # the [q, q, n] digit sums of add_t, built for every pair at once, made
    # GF(2^10) peak at 160 MB for the 8.4 MB of tables it keeps
    m = make_field(2, 10).modulus
    tracemalloc.start()
    try:
        GF(2, 10, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


# ---------------------------------------------------------------------------
# field axioms, exhaustive for q <= 16
# ---------------------------------------------------------------------------

def _axioms_exhaustive(f):
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_small(p, n):
    _axioms_exhaustive(make_field(p, n))


# (2, 10) is the largest field, at Q_CAP
@pytest.mark.parametrize("p,n", [(5, 2), (17, 1), (2, 8), (3, 4), (251, 1), (2, 10), (7, 3)])
def test_field_axioms_random_triples(p, n):
    f = make_field(p, n)
    rng = np.random.default_rng(9001 + f.q)
    trips = rng.integers(0, f.q, size=(10_000, 3))
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    # a^q == a on a sample
    for a in rng.integers(0, f.q, size=50):
        assert _pow(f, int(a), f.q) == int(a)


def _pow(f, a, e):
    """a ** e by repeated multiplication, the reference for frob_t."""
    return functools.reduce(f.mul, [a] * e, 1)


def test_power_map_identity_small():
    for p, n in SMALL:
        f = make_field(p, n)
        for a in range(f.q):
            assert _pow(f, a, f.q) == a


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------

def test_frobenius_is_p_power():
    for p, n in SMALL:
        f = make_field(p, n)
        for i in range(n):
            assert f.frob_t[i].tolist() == [_pow(f, a, p ** i)
                                            for a in range(f.q)]


def test_frobenius_order_exactly_n():
    for p, n in [(2, 4), (3, 2), (2, 3), (5, 2), (3, 3)]:
        f = make_field(p, n)
        ident = np.arange(f.q)
        assert (f.frob_t[0] == ident).all()
        for i in range(1, n):
            assert (f.frob_t[i] != ident).any()
        # the n-th power of x -> x^p is the identity
        assert (f.frob_t[1][f.frob_t[n - 1]] == ident).all()


def test_frobenius_fixes_prime_subfield():
    # the prime subfield is the constants, indices 0 .. p - 1
    f = make_field(3, 3)
    assert f.frob_t[1][:f.p].tolist() == list(range(f.p))


def test_frobenius_additive_multiplicative():
    f = make_field(2, 4)
    fr = f.frob_t[1]
    assert (fr[f.add_t] == f.add_t[fr[:, None], fr[None, :]]).all()
    assert (fr[f.mul_t] == f.mul_t[fr[:, None], fr[None, :]]).all()


def test_gf4_frobenius_swaps_generators():
    # in GF(4) with modulus x^2+x+1 the two non-subfield elements, x and
    # x + 1 (indices 2 and 3), are exchanged by x -> x^2
    f = make_field(2, 2)
    assert f.frob_t[1][2] == 3
    assert f.frob_t[1][3] == 2


# ---------------------------------------------------------------------------
# matrix helpers, against scalar references
# ---------------------------------------------------------------------------

def mat_vec(f, A, v):
    """A v, one table lookup per product."""
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            acc = f.add(acc, f.mul(int(a), int(x)))
        out.append(acc)
    return out


def mat_det(f, A):
    """Determinant by Gaussian elimination with row swaps."""
    n = len(A)
    R = [list(int(x) for x in row) for row in A]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if R[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            R[c], R[piv] = R[piv], R[c]
            det = f.neg(det)
        det = f.mul(det, R[c][c])
        s = f.inv(R[c][c])
        for i in range(c + 1, n):
            if R[i][c] != 0:
                t = f.mul(s, R[i][c])
                R[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(R[i], R[c])]
    return det


def ref_rref(f, M):
    """Reduced row echelon form of a list of rows, one scalar at a time:
    the reference for the array rref.  Returns (rows, pivot columns)."""
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


def ref_solve(f, A, b):
    """One solution x of A x = b from ref_rref, free unknowns 0; None
    when there is none."""
    m = len(A[0])
    R, pivots = ref_rref(f, [list(row) + [int(x)] for row, x in zip(A, b)])
    if m in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [0] * m
    for r, c in enumerate(pivots):
        x[c] = R[r][m]
    return x


def test_linalg_roundtrip():
    f = make_field(5)
    rng = np.random.default_rng(42)
    for _ in range(50):
        A = rng.integers(0, 5, size=(3, 3))
        if mat_det(f, A) == 0:
            continue
        Ainv = mat_inv(f, A)
        assert (mat_apply(f, A, Ainv.T).T == np.eye(3)).all()
        v = rng.integers(0, 5, size=3)
        assert (mat_apply(f, Ainv, mat_apply(f, A, v[None])) == v).all()


def random_matrices(f, rng):
    """Seeded [m, n] index matrices: square, wide, tall, of deficient
    rank (products of [m, k] and [k, n] factors, and zero) and empty."""
    for m, n in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 5), (3, 7),
                 (5, 2), (7, 3), (1, 4), (4, 1)]:
        for _ in range(12):
            yield rng.integers(0, f.q, size=(m, n))
    for m, n, k in [(3, 3, 2), (4, 4, 1), (5, 5, 3), (3, 6, 2), (6, 3, 2)]:
        for _ in range(6):
            a = rng.integers(0, f.q, size=(m, k))
            b = rng.integers(0, f.q, size=(k, n))
            yield mat_apply(f, a, b.T).T
    for m, n in [(3, 3), (2, 4), (0, 3), (3, 0), (0, 0)]:
        yield np.zeros((m, n), dtype=np.int64)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_rref_matches_list_reference(p, n):
    f = make_field(p, n)
    rng = np.random.default_rng(100 * p + n)
    square = singular = 0
    for M in random_matrices(f, rng):
        R, piv = rref(f, M)
        want_R, want_piv = ref_rref(f, M.tolist())
        assert R.shape == M.shape and R.dtype == np.int64
        assert R.tolist() == want_R and piv == want_piv
        if M.shape[0] != M.shape[1] or not len(M):
            continue
        d = len(M)
        inv = mat_inv(f, M)
        square += 1
        if len(piv) < d:
            singular += 1
            assert inv is None
            continue
        assert (mat_apply(f, inv, M.T).T == np.eye(d)).all()
        assert (mat_apply(f, M, inv.T).T == np.eye(d)).all()
    assert 0 < singular < square


def test_mat_apply_matches_mat_vec():
    for p, n in [(5, 1), (2, 2), (3, 2)]:
        f = make_field(p, n)
        rng = np.random.default_rng(p * n)
        mats = rng.integers(0, f.q, size=(4, 3, 3))
        vecs = rng.integers(0, f.q, size=(6, 3))
        got = mat_apply(f, mats, vecs)
        assert got.shape == (4, 6, 3)
        for i in range(4):
            for j in range(6):
                assert got[i, j].tolist() == mat_vec(f, mats[i], vecs[j])
        assert np.array_equal(mat_apply(f, mats[2], vecs), got[2])


def test_rref_canonical():
    f = make_field(3)
    R, piv = rref(f, np.array([[2, 1, 0], [1, 1, 0]]))
    assert piv == [0, 1]
    assert np.array_equal(R, [[1, 0, 0], [0, 1, 0]])


def test_full_rank_iff_nonzero_det():
    # invertibility is tested by rref rank; it must agree with det != 0
    for p, n, d in [(2, 1, 3), (2, 2, 3), (3, 1, 4), (5, 1, 2)]:
        f = make_field(p, n)
        rng = np.random.default_rng(10 * f.q + d)
        for A in rng.integers(0, f.q, size=(200, d, d)).tolist():
            assert (len(rref(f, A)[1]) == d) == (mat_det(f, A) != 0)


def test_singular_inverse_none():
    f = make_field(5)
    assert mat_inv(f, np.array([[1, 2, 3], [2, 4, 1], [0, 0, 1]])) is None


def test_field_of_order():
    # every prime power up to Q_CAP; p stopped at 13, which refused 17
    for q, p, n in ((2, 2, 1), (8, 2, 3), (9, 3, 2), (13, 13, 1),
                    (17, 17, 1), (25, 5, 2), (31, 31, 1), (169, 13, 2),
                    (289, 17, 2)):
        f = field_of_order(q)
        assert f is make_field(p, n) and f.q == q
    for q in (-3, 0, 1, 6, 12, 100, 2 * Q_CAP):
        with pytest.raises(GFError, match="prime power"):
            field_of_order(q)


# ---------------------------------------------------------------------------
# irreducible polynomials by a sieve on coefficient rows
# ---------------------------------------------------------------------------

ORDERS_TO_32 = [q for q in range(2, 33) if len(primefactors(q)) == 1]


def gauss_count(q, k):
    """Monic irreducibles of degree k over F_q: (1/k) sum_{d | k}
    mu(d) q^(k/d)."""
    return sum(int(mobius(d)) * q ** (k // d)
               for d in range(1, k + 1) if k % d == 0) // k


@pytest.mark.parametrize("q", ORDERS_TO_32)
def test_irreducible_monics_gauss_count(q):
    f = field_of_order(q)
    for k in (1, 2, 3):
        polys = irreducible_monics(f, k)
        assert len(polys) == gauss_count(q, k), (q, k)
        assert all(type(c) is int for poly in polys for c in poly)
        assert {len(poly) for poly in polys} == {k + 1}
        assert {poly[-1] for poly in polys} == {1}


@pytest.mark.parametrize("q", ORDERS_TO_32)
def test_irreducible_monics_match_trial_division(q):
    # the same tuples in the same order as the tuple-arithmetic finder
    f = field_of_order(q)
    for k in (1, 2, 3):
        if q ** k <= 2000:
            assert irreducible_monics(f, k) == \
                tuple(ref_irreducible_monics(f, k)), (q, k)


def test_irreducible_sieve_refused_above_its_cap():
    # the degree-3 sieve over GF(961) would hold 961^3 product rows, so
    # it is refused before anything is allocated
    f = make_field(31, 2)
    with pytest.raises(GFError, match=r"degree-3 sieve over GF\(31\^2\) "
                       r"has 887503681 rows, cap is 1048576"):
        irreducible_monics(f, 3)


def test_irreducible_monics_cache_cannot_be_edited():
    # the cached answer is shared by every caller, so it is a tuple: an
    # edit through one caller's copy cannot change the next answer
    f = make_field(5)
    polys = irreducible_monics(f, 2)
    assert type(polys) is tuple and len(polys) == 10
    with pytest.raises(AttributeError):
        polys.clear()
    assert irreducible_monics(f, 2) == polys
