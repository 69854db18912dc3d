"""Sigma-part splits, growth-sequence recovery, GL orders, densities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from collinext import primesets
from collinext.primesets import (
    FrobGrowth,
    PrimeSet,
    PrimeSetError,
    construct_remark28,
    factorize,
    gl_order,
    integer_nth_root,
    is_prime_u64,
    natural_density_estimate,
    prime_sieve,
    recover_M0_and_p,
    sigma_part,
    w_sequence,
)


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------

def test_is_prime_u64_matches_sieve():
    primes = set(map(int, prime_sieve(10 ** 4)))
    for n in range(10 ** 4 + 1):
        assert is_prime_u64(n) == (n in primes)
    assert is_prime_u64(2 ** 61 - 1)
    assert not is_prime_u64(2 ** 64 - 1)


def test_integer_nth_root_exact():
    for x in range(0, 3000):
        for n in (1, 2, 3, 5):
            r = integer_nth_root(x, n)
            assert r ** n <= x < (r + 1) ** n
    big = 10 ** 60 + 12345
    r = integer_nth_root(big, 7)
    assert r ** 7 <= big < (r + 1) ** 7
    assert integer_nth_root(81 ** 50, 50) == 81


def test_factorize_small_and_errors():
    assert factorize(1) == {}
    assert factorize(2 ** 4 * 3 * 7) == {2: 4, 3: 1, 7: 1}
    p = 10 ** 6 + 3  # prime just past the trial bound
    assert factorize(p) == {p: 1}
    assert factorize(7 * p) == {7: 1, p: 1}
    m = 2 ** 61 - 1
    assert factorize(m) == {m: 1}
    # composite cofactors with no factor below the trial bound are out of reach
    with pytest.raises(PrimeSetError, match="budget"):
        factorize(p * p)
    with pytest.raises(PrimeSetError, match="budget"):
        factorize(m * m)
    with pytest.raises(PrimeSetError):
        factorize(0)


# ---------------------------------------------------------------------------
# prime sets and membership
# ---------------------------------------------------------------------------

def test_primeset_validation():
    ps = PrimeSet.cofinite([5, 2, 2, 3])
    assert ps.primes == (2, 3, 5)
    with pytest.raises(PrimeSetError):
        PrimeSet.cofinite([4])
    with pytest.raises(PrimeSetError):
        PrimeSet.cofinite([9])
    with pytest.raises(PrimeSetError):
        PrimeSet.remark28(13, 1, 13)
    with pytest.raises(PrimeSetError):
        PrimeSet.remark28(12, 1, 2)
    with pytest.raises(PrimeSetError):
        PrimeSet.remark28(13, 0, 2)


def test_membership_cofinite():
    cof = PrimeSet.cofinite([2, 7])
    for l in (2, 3, 5, 7, 11):
        assert cof.contains(l) == (l not in (2, 7))
    with pytest.raises(PrimeSetError):
        cof.contains(6)


def test_remark28_membership_vs_modular_exponentiation():
    # ord of l mod r divides some k <= 2g  iff  some l^k = 1 mod r, k <= 2g
    for r, g, p in [(13, 1, 2), (17, 1, 3), (211, 2, 2)]:
        ps = PrimeSet.remark28(r, g, p)
        for l in map(int, prime_sieve(10 ** 4)):
            direct = l in (r, p) or any(
                pow(l, k, r) == 1 for k in range(1, 2 * g + 1))
            assert ps.contains(l) == direct, (r, g, p, l)


def ref_residue_order_member(ps, l):
    """PrimeSet.contains for the residue-order kind as a loop over the
    powers of l mod r, in Python ints."""
    if l in (ps.r, ps.p):
        return True
    x, acc = l % ps.r, 1
    for _ in range(2 * ps.g):
        acc = acc * x % ps.r
        if acc == 1:
            return True
    return False


def test_remark28_membership_matches_scalar_loop():
    # primes up to 2^64 - 59, the largest below 2^64, and moduli r to
    # the same size; contains goes through the sieve-side mask, which
    # cast its primes to int64 and so wrapped 2^63 and above
    top = 2 ** 64 - 59
    ls = [2, 3, 13, 53, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 63 + 29, top]
    ls += list(map(int, prime_sieve(2000)))
    for r, g, p in [(13, 1, 2), (211, 2, 2), (7, 3, 13), (2 ** 61 - 1, 2, 3),
                    (top, 1, 2), (2 ** 63 + 29, 3, top)]:
        ps = PrimeSet.remark28(r, g, p)
        for l in ls:
            assert ps.contains(l) == ref_residue_order_member(ps, l), (r, l)
    assert PrimeSet.remark28(13, 1, 2).contains(top) == (top % 13 in (1, 12))
    # the mask over a sieve, and over uint64 primes at and above 2^63
    big = np.array([2 ** 63 + 29, top], dtype=np.uint64)
    for r, g in [(13, 1), (211, 2), (7, 3), (1009, 4)]:
        ps = PrimeSet.remark28(r, g, 2)
        for primes in (prime_sieve(10 ** 4), big):
            assert primesets._residue_order_members(ps, primes).tolist() == [
                ref_residue_order_member(ps, int(l)) for l in primes], r


def test_remark28_small_members_frozen():
    # members of the (r=13, g=1) set are {2, 13} plus primes = +-1 mod 13
    ps = PrimeSet.remark28(13, 1, 2)
    assert ps.contains(2) and ps.contains(13) and ps.contains(53)
    assert not ps.contains(3) and not ps.contains(5) and not ps.contains(7)
    members = [l for l in map(int, prime_sieve(30)) if ps.contains(l)]
    assert members == [2, 13]


# ---------------------------------------------------------------------------
# sigma_part
# ---------------------------------------------------------------------------

def test_sigma_part_examples():
    s = sigma_part(12, PrimeSet.cofinite([2]))
    assert (s.n_sigma, s.n_sigma_prime) == (3, 4)
    for sig in (PrimeSet.cofinite([2]), PrimeSet.cofinite([5]),
                PrimeSet.remark28(13, 1, 2)):
        s = sigma_part(1, sig)
        assert (s.n_sigma, s.n_sigma_prime) == (1, 1)
    s = sigma_part(2 ** 4 * 3 * 7, PrimeSet.cofinite([3]))
    assert (s.n_sigma, s.n_sigma_prime) == (112, 3)
    s = sigma_part(2 ** 5 * 13 * 7, PrimeSet.remark28(13, 1, 2))
    assert (s.n_sigma, s.n_sigma_prime) == (2 ** 5 * 13, 7)


def test_sigma_part_recomposition_exhaustive():
    # against a trial-division ground truth for every n <= 10^4
    cof = PrimeSet.cofinite([2, 5])
    for n in range(1, 10 ** 4 + 1):
        part = 1
        m = n
        for l in (2, 5):
            while m % l == 0:
                part *= l
                m //= l
        c = sigma_part(n, cof)
        assert (c.n_sigma, c.n_sigma_prime) == (m, part)


def test_sigma_part_huge_cofinite_is_cheap():
    # listed-prime extraction must not factor the full number
    n = 9 ** (2 * 3 * 256) - 1
    s = sigma_part(n, PrimeSet.cofinite([3, 5]))
    assert s.n_sigma * s.n_sigma_prime == n
    assert s.n_sigma_prime % 5 == 0 and s.n_sigma % 5 != 0
    assert s.n_sigma % 3 != 0


def test_sigma_part_budget_error_remark28():
    with pytest.raises(PrimeSetError, match="budget"):
        sigma_part((2 ** 61 - 1) ** 2, PrimeSet.remark28(13, 1, 2))


# ---------------------------------------------------------------------------
# growth sequences
# ---------------------------------------------------------------------------

def test_w_sequence_examples():
    g = w_sequence(2, 1, PrimeSet.cofinite([3]), [1, 2])
    assert g.values == [1, 5]
    g = w_sequence(2, 1, PrimeSet.cofinite([]), [2])
    assert g.values == [15]
    with pytest.raises(PrimeSetError):
        w_sequence(1, 1, PrimeSet.cofinite([]), [1])
    with pytest.raises(PrimeSetError):
        w_sequence(2, 1, PrimeSet.cofinite([]), [0])


def test_recover_synthetic_examples():
    g = w_sequence(2, 1, PrimeSet.cofinite([3]), [2 ** j for j in range(9)])
    assert recover_M0_and_p(g) == (4, 2)
    g = w_sequence(3, 2, PrimeSet.cofinite([2]), [5 ** j for j in range(4)])
    assert recover_M0_and_p(g) == (81, 3)


def test_recover_grid():
    # closed loop on the synthetic growth data for every (q, a) pair
    for q, char in [(2, 2), (3, 3), (4, 2), (5, 5), (9, 3)]:
        for a in (1, 2, 3):
            for comp in ([], [3], [3, 5]):
                g = w_sequence(q, a, PrimeSet.cofinite(comp),
                               [2 ** j for j in range(6)])
                assert recover_M0_and_p(g) == (q ** (2 * a), char), (q, a, comp)


def test_recover_blind_to_q():
    # recovery reads only schedule, values and sigma
    g = w_sequence(5, 2, PrimeSet.cofinite([3]), [2 ** j for j in range(6)])
    blind = FrobGrowth(None, None, g.sigma, g.schedule, g.values)
    assert recover_M0_and_p(blind) == (5 ** 4, 5)


def test_recover_errors():
    cof = PrimeSet.cofinite([3])
    with pytest.raises(PrimeSetError, match="no growth"):
        recover_M0_and_p(FrobGrowth(None, None, cof, [1, 2, 4], [1, 1, 1]))
    with pytest.raises(PrimeSetError, match="cofinite"):
        recover_M0_and_p(FrobGrowth(None, None, PrimeSet.remark28(13, 1, 2),
                                    [1, 2], [3, 15]))
    # a single ratio is not enough evidence
    with pytest.raises(PrimeSetError, match="too short"):
        recover_M0_and_p(FrobGrowth(None, None, cof, [1, 2], [1, 5]))
    # no geometric run at all
    with pytest.raises(PrimeSetError, match="too short|geometric"):
        recover_M0_and_p(FrobGrowth(None, None, cof, [1, 3, 7], [3, 63, 3]))
    # repunit-consistent growth on a non prime power base
    vals = [6 ** n - 1 for n in (1, 2, 4, 8)]
    with pytest.raises(PrimeSetError, match="prime power"):
        recover_M0_and_p(FrobGrowth(None, None, PrimeSet.cofinite([]),
                                    [1, 2, 4, 8], vals))
    # two runs that disagree on the base
    sched = [1, 2, 4, 1, 3, 9]
    vals = [4 ** 1 - 1, 4 ** 2 - 1, 4 ** 4 - 1,
            3 ** 1 - 1, 3 ** 3 - 1, 3 ** 9 - 1]
    with pytest.raises(PrimeSetError, match="inconsistent"):
        recover_M0_and_p(FrobGrowth(None, None, PrimeSet.cofinite([]),
                                    sched, vals))


def test_recover_skips_runs_inside_complement():
    # the ratio trick needs the run prime outside the removed support
    g = w_sequence(2, 1, PrimeSet.cofinite([3]), [3 ** j for j in range(5)])
    with pytest.raises(PrimeSetError):
        recover_M0_and_p(g)


# ---------------------------------------------------------------------------
# GL orders
# ---------------------------------------------------------------------------

def brute_gl_count(n, l):
    cnt = 0
    for flat in itertools.product(range(l), repeat=n * n):
        m = np.array(flat, dtype=np.int64).reshape(n, n)
        # integer determinant is exact at these sizes
        d = int(round(np.linalg.det(m))) % l
        cnt += d != 0
    return cnt


def test_gl_order_vs_brute_force():
    for n, l in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        assert gl_order(n, l) == brute_gl_count(n, l), (n, l)
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(1, 5) == 4
    with pytest.raises(PrimeSetError):
        gl_order(0, 2)
    with pytest.raises(PrimeSetError):
        gl_order(2, 4)


# ---------------------------------------------------------------------------
# remark28 construction and densities
# ---------------------------------------------------------------------------

def test_construct_g1():
    ps, cert = construct_remark28(1, 2, Fraction(3, 10))
    assert ps.r == 13 and ps.g == 1 and ps.p == 2
    assert cert["density_bound"] == Fraction(1, 4)
    assert cert["all_pass"] and cert["first_fail"] is None
    assert cert["checked_to"] == 10 ** 4 and cert["n_checked"] > 1000


def test_construct_g2():
    ps, _ = construct_remark28(2, 3, Fraction(1, 20))
    assert ps.r == 211


def test_construct_skips_p_and_rejects():
    # with p = 13 the least qualifying prime moves past 13
    ps, _ = construct_remark28(1, 13, Fraction(3, 10))
    assert ps.r == 17
    with pytest.raises(PrimeSetError, match="no qualifying"):
        construct_remark28(1, 2, Fraction(1, 10 ** 9))
    with pytest.raises(PrimeSetError):
        construct_remark28(1, 2, Fraction(0))


def ref_remark28_certificate(ps, cert_bound):
    """Per-prime certificate loop the residue-order mask replaced: each
    sieve prime tested by PrimeSet.contains, and each complement prime by
    the full gl_order, both re-proving primality."""
    checked, all_pass, first_fail = [], True, None
    for l in map(int, prime_sieve(cert_bound)):
        if ps.contains(l):
            continue
        checked.append(l)
        if gl_order(2 * ps.g, l) % ps.r == 0:
            all_pass = False
            if first_fail is None:
                first_fail = l
    return {"r": ps.r,
            "density_bound": Fraction(2 * ps.g * (2 * ps.g + 1),
                                      2 * (ps.r - 1)),
            "checked_to": int(cert_bound), "n_checked": len(checked),
            "all_pass": all_pass, "first_fail": first_fail}


def test_certificate_matches_per_prime_loop(monkeypatch):
    for g, p, eps, cert_bound in itertools.product(
            (1, 2, 3), (2, 3, 13), (Fraction(3, 10), Fraction(1, 20), 2),
            (1, 2, 97, 3000)):
        monkeypatch.setattr(primesets, "CERT_BOUND", cert_bound)
        ps, cert = construct_remark28(g, p, eps)
        assert cert == ref_remark28_certificate(ps, cert_bound), (g, p, eps)


def test_gl_order_mod_matches_gl_order():
    # including the residues the certificate never meets: l of order at
    # most n mod r, where r divides gl_order(n, l)
    for n, l, r in itertools.product((1, 2, 4, 6), (2, 3, 5, 7, 13),
                                     (2, 3, 5, 7, 13, 211)):
        assert primesets._gl_order_mod(n, l, r) == gl_order(n, l) % r


def test_density_basics():
    assert natural_density_estimate(PrimeSet.cofinite([]), 10 ** 4) == 1
    d = natural_density_estimate(PrimeSet.cofinite([2, 3]), 10 ** 4)
    assert d == Fraction(1227, 1229)
    with pytest.raises(PrimeSetError):
        natural_density_estimate(PrimeSet.cofinite([2]), 50)
    # above the cap the sieve would not fit a desk budget: refused unbuilt
    with pytest.raises(PrimeSetError, match="sieve cap"):
        natural_density_estimate(PrimeSet.cofinite([2]),
                                 primesets.SIEVE_CAP + 1)


def test_density_remark28_under_bound():
    for r, g in [(13, 1), (17, 1), (211, 2)]:
        ps = PrimeSet.remark28(r, g, 2)
        d = natural_density_estimate(ps, 10 ** 6)
        bound = Fraction(2 * g * (2 * g + 1), 2 * (r - 1))
        assert d <= bound + Fraction(2, 100), (r, g, float(d))


def test_density_matches_scalar_membership():
    ps = PrimeSet.remark28(13, 1, 2)
    primes = list(map(int, prime_sieve(2000)))
    hits = sum(ps.contains(l) for l in primes)
    assert natural_density_estimate(ps, 2000) == Fraction(hits, len(primes))


def test_integer_nth_root_matches_sympy():
    from sympy import integer_nthroot
    cases = [(3 ** 400, 2), (3 ** 400, 3), (3 ** 400 - 1, 5),
             (3 ** 400 + 1, 7), (2 ** 600 - 1, 3), (10 ** 300, 9),
             (7 ** 1001, 11), (2 ** 521, 521), (2 ** 521 - 1, 521)]
    rng = np.random.default_rng(5)
    for _ in range(200):
        bits = int(rng.integers(1, 2000))
        x = int.from_bytes(rng.bytes(bits // 8 + 1), "big") >> (7 - bits % 8)
        cases.append((x, int(rng.integers(1, 40))))
    for x, n in cases:
        assert integer_nth_root(x, n) == integer_nthroot(x, n)[0], (x, n)


def test_factorize_matches_sympy():
    from sympy import factorint
    cases = [1, 2, 3 ** 40, 2 ** 62, 10 ** 6 + 3, 999983 * 1000003,
             (2 ** 61 - 1) * 2 ** 3 * 5, 13 ** 8 - 1, 9 ** 12 - 1]
    rng = np.random.default_rng(11)
    cases += [int(x) for x in rng.integers(1, 10 ** 12, size=300)]
    cases += [int(a) * int(b) for a, b in
              rng.integers(1, 10 ** 6, size=(100, 2))]
    for n in cases:
        assert factorize(n) == factorint(n), n


def test_gl_order_matches_sympy_count():
    from sympy import Matrix
    for n, l in [(2, 2), (2, 3), (3, 2)]:
        count = sum(Matrix(n, n, list(flat)).det() % l != 0
                    for flat in itertools.product(range(l), repeat=n * n))
        assert gl_order(n, l) == count, (n, l)
