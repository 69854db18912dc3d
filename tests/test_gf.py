import functools
import itertools

import numpy as np
import pytest

from collinext.gf import (
    Q_CAP, GFError, _least_modulus, make_field, field_of_order, mat_apply,
    rref, solve_linear,
)

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


def mat_inv(f, A):
    """Inverse by row reduction of [A | I], None when A is singular."""
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    R, pivots = rref(f, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]


def test_linalg_roundtrip():
    f = make_field(5)
    rng = np.random.default_rng(42)
    for _ in range(50):
        A = rng.integers(0, 5, size=(3, 3)).tolist()
        if mat_det(f, A) == 0:
            continue
        Ainv = mat_inv(f, A)
        assert (mat_apply(f, A, np.array(Ainv).T).T == np.eye(3)).all()
        v = rng.integers(0, 5, size=3).tolist()
        b = mat_vec(f, A, v)
        x = solve_linear(f, A, b)
        assert x == [int(t) for t in v]


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
    R, piv = rref(f, [[2, 1, 0], [1, 1, 0]])
    assert piv == [0, 1]
    assert R == [[1, 0, 0], [0, 1, 0]]


def test_full_rank_iff_nonzero_det():
    # invertibility is tested by rref rank; it must agree with det != 0
    for p, n, d in [(2, 1, 3), (2, 2, 3), (3, 1, 4), (5, 1, 2)]:
        f = make_field(p, n)
        rng = np.random.default_rng(10 * f.q + d)
        for A in rng.integers(0, f.q, size=(200, d, d)).tolist():
            assert (len(rref(f, A)[1]) == d) == (mat_det(f, A) != 0)


def test_singular_inverse_none():
    f = make_field(5)
    assert mat_inv(f, [[1, 2, 3], [2, 4, 1], [0, 0, 1]]) is None


def test_field_of_order():
    for q, p, n in ((2, 2, 1), (8, 2, 3), (9, 3, 2), (13, 13, 1),
                    (25, 5, 2), (169, 13, 2)):
        f = field_of_order(q)
        assert f is make_field(p, n) and f.q == q
    for q in (-3, 0, 1, 6, 12, 17, 100):
        with pytest.raises(GFError, match="prime power"):
            field_of_order(q)
