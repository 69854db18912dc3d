"""Prime-support arithmetic: Sigma-parts, growth sequences, densities.

A PrimeSet is cofinite or the residue-order kind (all primes whose order
mod r is at most 2g, together with r and p).  The Sigma-part of an
integer splits it into the factor supported inside the set and the
factor outside; for a cofinite set this needs no factorization of the
full number, which is what keeps the growth-sequence recovery
cheap at astronomical magnitudes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TRIAL_BOUND = 10 ** 6
R_SEARCH_BOUND = 10 ** 6
SIEVE_CAP = 10 ** 8   # density bound cap: a 100 MB bool sieve
CERT_BOUND = 10 ** 4  # construct_remark28 certifies the primes up to this


class PrimeSetError(Exception):
    pass


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n):
    """Deterministic Miller-Rabin, valid for n < 2^64."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_nth_root(x, n):
    """Largest r with r^n <= x."""
    if x < 0 or n < 1:
        raise PrimeSetError("nth root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    # integer Newton from 2^ceil(bits/n), which is at least the root; the
    # iterates fall monotonically onto the floor of the root
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


_sieve_cache = {}


def prime_sieve(bound):
    """Array of all primes <= bound."""
    bound = int(bound)
    if bound not in _sieve_cache:
        mask = np.ones(bound + 1, dtype=bool)
        mask[:2] = False
        for i in range(2, int(bound ** 0.5) + 1):
            if mask[i]:
                mask[i * i::i] = False
        _sieve_cache[bound] = np.nonzero(mask)[0]
    return _sieve_cache[bound]


def factorize(n):
    """Full factorization {prime: exponent} within the desk budget."""
    if n < 1:
        raise PrimeSetError("factorization needs n >= 1")
    out = {}
    for sp in (2, 3, 5):
        while n % sp == 0:
            out[sp] = out.get(sp, 0) + 1
            n //= sp
    for p in map(int, prime_sieve(TRIAL_BOUND)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < TRIAL_BOUND * TRIAL_BOUND:
            out[n] = out.get(n, 0) + 1  # no divisor below its square root
        elif n < 1 << 64 and is_prime_u64(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise PrimeSetError("factorization budget exceeded "
                                "(cofactor %d bits)" % n.bit_length())
    return out


# ---------------------------------------------------------------------------
# prime sets
# ---------------------------------------------------------------------------

def _checked_primes(primes):
    out = sorted(set(int(x) for x in primes))
    for l in out:
        if not is_prime_u64(l):
            raise PrimeSetError("%d is not prime" % l)
    return tuple(out)


@dataclass(frozen=True)
class PrimeSet:
    kind: str                      # "cofinite" | "remark28"
    primes: tuple = ()             # complement (cofinite)
    r: int | None = None
    g: int | None = None
    p: int | None = None

    @staticmethod
    def cofinite(complement):
        return PrimeSet("cofinite", _checked_primes(complement))

    @staticmethod
    def remark28(r, g, p):
        r, g, p = int(r), int(g), int(p)
        if not is_prime_u64(r) or not is_prime_u64(p):
            raise PrimeSetError("r and p must be prime")
        if r == p:
            raise PrimeSetError("r must differ from p")
        if g < 1:
            raise PrimeSetError("g must be >= 1")
        return PrimeSet("remark28", r=r, g=g, p=p)

    def contains(self, l):
        l = int(l)
        if not is_prime_u64(l):
            raise PrimeSetError("membership is defined on primes")
        if self.kind == "cofinite":
            return l not in self.primes
        return bool(_residue_order_members(
            self, np.array([l], dtype=object))[0])


@dataclass(frozen=True)
class SigmaFactorization:
    n_sigma: int
    n_sigma_prime: int


def _extract_part(n, primes):
    part = 1
    for l in primes:
        while n % l == 0:
            part *= l
            n //= l
    return part, n


def sigma_part(n, sigma):
    """Unique split n = n_S * n_S' with supports inside and outside S."""
    n = int(n)
    if n < 1:
        raise PrimeSetError("sigma_part needs n >= 1")
    if sigma.kind == "cofinite":
        outside, rest = _extract_part(n, sigma.primes)
        return SigmaFactorization(rest, outside)
    fac = factorize(n)
    ns = nsp = 1
    for l, e in fac.items():
        if sigma.contains(l):
            ns *= l ** e
        else:
            nsp *= l ** e
    return SigmaFactorization(ns, nsp)


# ---------------------------------------------------------------------------
# growth sequences
# ---------------------------------------------------------------------------

@dataclass
class FrobGrowth:
    q: int | None
    a: int | None
    sigma: PrimeSet
    schedule: list
    values: list


def w_sequence(q, a, sigma, n_list):
    """values[i] = Sigma-part of q^(2 a N_i) - 1."""
    q, a = int(q), int(a)
    if q < 2 or a < 1:
        raise PrimeSetError("need q >= 2 and a >= 1")
    schedule = [int(N) for N in n_list]
    if any(N < 1 for N in schedule):
        raise PrimeSetError("schedule entries must be >= 1")
    values = [sigma_part(q ** (2 * a * N) - 1, sigma).n_sigma for N in schedule]
    return FrobGrowth(q, a, sigma, schedule, values)


def _geometric_chains(schedule):
    """Maximal runs of consecutive entries N, lN, l^2 N ... with l prime."""
    chains = []
    i = 0
    while i + 1 < len(schedule):
        a, b = schedule[i], schedule[i + 1]
        if a >= 1 and b % a == 0 and is_prime_u64(b // a):
            l = b // a
            j = i + 1
            while j + 1 < len(schedule) and schedule[j + 1] == schedule[j] * l:
                j += 1
            chains.append((l, list(range(i, j + 1))))
            i = j
        else:
            i += 1
    return chains


def _solve_repunit(R, l):
    """Integer X >= 2 with 1 + X + ... + X^(l-1) = R, or None."""
    if l == 2:
        X = R - 1
        return X if X >= 2 else None
    lo, hi = 2, 2
    while sum(hi ** i for i in range(l)) < R:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        s = sum(mid ** i for i in range(l))
        if s == R:
            return mid if mid >= 2 else None
        if s < R:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def recover_M0_and_p(growth):
    """Growth base M0 and its prime, from schedule and values alone.

    Needs a cofinite set (bounded removed part) and a geometric run
    N, lN, l^2 N, ... in the schedule with l outside the complement: the
    removed part is eventually constant along the run, so consecutive
    value ratios are exact repunits in X = M0^N.  Two consecutive
    agreeing solutions are required before M0 is accepted.
    """
    sigma = growth.sigma
    if sigma.kind != "cofinite":
        raise PrimeSetError("recovery needs a cofinite set "
                            "(finite removed support)")
    if all(v == 1 for v in growth.values):
        raise PrimeSetError("non-stabilizing sequence: values show no growth")
    candidates = []
    for l, idxs in _geometric_chains(growth.schedule):
        if l in sigma.primes:
            continue
        prev = None
        for i, j in zip(idxs, idxs[1:]):
            wi, wj = growth.values[i], growth.values[j]
            Ni = growth.schedule[i]
            M0 = None
            if wi > 0 and wj % wi == 0:
                X = _solve_repunit(wj // wi, l)
                if X is not None:
                    root = integer_nth_root(X, Ni)
                    if root ** Ni == X and root >= 2:
                        M0 = root
            if M0 is not None and M0 == prev:
                candidates.append(M0)
            prev = M0
    if not candidates:
        raise PrimeSetError("non-stabilizing sequence: schedule too short "
                            "or no usable geometric run")
    if len(set(candidates)) != 1:
        raise PrimeSetError("inconsistent growth: runs disagree on M0")
    M0 = candidates[0]
    fac = factorize(M0)
    if len(fac) != 1:
        raise PrimeSetError("M0 is not a prime power")
    return M0, next(iter(fac))


# ---------------------------------------------------------------------------
# GL orders and low-density constructions
# ---------------------------------------------------------------------------

def gl_order(n, l):
    """Number of invertible n x n matrices over F_l."""
    n, l = int(n), int(l)
    if n < 1 or not is_prime_u64(l):
        raise PrimeSetError("gl_order needs n >= 1 and l prime")
    out = l ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= l ** i - 1
    return out


def _gl_order_mod(n, l, r):
    """gl_order(n, l) mod r, one factor at a time."""
    out = pow(l, n * (n - 1) // 2, r)
    for i in range(1, n + 1):
        out = out * (pow(l, i, r) - 1) % r
    return out


def construct_remark28(g, p, eps):
    """Least r != p with g(2g+1)/eps < r-1, plus the divisibility
    certificate over the complement primes up to CERT_BOUND.

    The density of the produced set is at most 2g(2g+1)/(2(r-1)).
    """
    g, p = int(g), int(p)
    eps = Fraction(eps)
    if eps <= 0:
        raise PrimeSetError("eps must be positive")
    if g < 1 or not is_prime_u64(p):
        raise PrimeSetError("need g >= 1 and p prime")
    need = Fraction(2 * g * (2 * g + 1), 2) / eps  # r - 1 must exceed this
    r = None
    for cand in map(int, prime_sieve(R_SEARCH_BOUND)):
        if cand != p and cand - 1 > need:
            r = cand
            break
    if r is None:
        raise PrimeSetError("no qualifying prime below the search bound")
    ps = PrimeSet.remark28(r, g, p)
    primes = prime_sieve(CERT_BOUND)
    checked = [int(l) for l in primes[~_residue_order_members(ps, primes)]]
    fails = [l for l in checked if _gl_order_mod(2 * g, l, r) == 0]
    cert = {
        "r": r,
        "density_bound": Fraction(2 * g * (2 * g + 1), 2 * (r - 1)),
        "checked_to": CERT_BOUND,
        "n_checked": len(checked),
        "all_pass": not fails,
        "first_fail": fails[0] if fails else None,
    }
    return ps, cert


def _residue_order_members(sigma, primes):
    """Mask of the primes of an array that lie in the residue-order set
    sigma: r, p, and those whose order mod r is at most 2g.  The powers
    are taken in the array's dtype, whose range must hold (r - 1)^2."""
    x = primes % sigma.r
    acc = np.ones_like(x)
    member = (primes == sigma.r) | (primes == sigma.p)
    for _ in range(2 * sigma.g):
        acc = acc * x % sigma.r
        member |= acc == 1
    return member


def check_density_bound(bound):
    """Refuse a density bound below 100 or above SIEVE_CAP, before the
    sieve is allocated."""
    if bound < 100:
        raise PrimeSetError("bound must be >= 100")
    if bound > SIEVE_CAP:
        raise PrimeSetError("budget: bound %d is above the sieve cap %d"
                            % (bound, SIEVE_CAP))


def natural_density_estimate(sigma, bound):
    """Fraction of primes <= bound lying in the set."""
    bound = int(bound)
    check_density_bound(bound)
    primes = prime_sieve(bound)
    if sigma.kind == "cofinite":
        hits = len(primes) - int(
            np.isin(primes, np.array(sigma.primes, dtype=np.int64)).sum())
    else:
        hits = int(_residue_order_members(sigma, primes).sum())
    return Fraction(hits, len(primes))
