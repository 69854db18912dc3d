"""Semilinear maps, induced collineations, and decoding."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from collinext import semilinear
from collinext.gf import make_field, solve_linear
from collinext.projgeom import ProjSpace
from collinext.semilinear import (
    Collineation,
    SemilinearError,
    SemilinearIso,
    decode_ftpg,
    equal_up_to_scalar,
    random_semilinear,
)
from test_gf import mat_det, mat_vec
from test_projgeom import ref_canon_index


def space(p, n, d):
    return ProjSpace(make_field(p, n), d)


# ---------------------------------------------------------------------------
# semilinear isos and induced point maps
# ---------------------------------------------------------------------------

def test_rejects_singular_matrix():
    S = space(3, 1, 3)
    with pytest.raises(SemilinearError):
        SemilinearIso(S, [[1, 2, 0], [2, 1, 0], [0, 0, 0]], 0)


def test_identity_induces_identity():
    S = space(5, 1, 3)
    iso = SemilinearIso(S, np.eye(3, dtype=int), 0)
    assert (iso.sigma_array() == np.arange(S.n_points)).all()


def test_sigma_array_matches_pointwise_apply():
    for p, n, d in [(3, 1, 3), (2, 2, 3), (5, 1, 4)]:
        S = space(p, n, d)
        f = S.field
        rng = np.random.default_rng(2)
        iso = random_semilinear(S, rng)
        sig = iso.sigma_array()
        for i in range(0, S.n_points, max(1, S.n_points // 25)):
            moved = [int(f.frob_t[iso.frob_exp, x]) for x in S.pts[i]]
            w = mat_vec(f, iso.mat.tolist(), moved)
            assert ref_canon_index(S, w) == sig[i]


def test_frobenius_plane_fixed_points():
    # the coordinate Frobenius on P2 over GF(4) fixes exactly the
    # subplane with GF(2) coordinates: 7 points
    S = space(2, 2, 3)
    iso = SemilinearIso(S, np.eye(3, dtype=int), 1)
    sig = iso.sigma_array()
    assert int((sig == np.arange(S.n_points)).sum()) == 7


def test_pgl32_orbit_count():
    # all invertible 3x3 matrices over GF(2) induce 168 distinct maps
    S = space(2, 1, 3)
    f = S.field
    seen = set()
    for bits in itertools.product((0, 1), repeat=9):
        M = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
        if mat_det(f, M) == 0:
            continue
        sig = SemilinearIso(S, M, 0).sigma_array()
        seen.add(tuple(int(x) for x in sig))
    assert len(seen) == 168


# ---------------------------------------------------------------------------
# collineation objects
# ---------------------------------------------------------------------------

def test_collineation_rejects_non_bijection():
    S = space(2, 1, 3)
    with pytest.raises(SemilinearError):
        Collineation(S, np.zeros(S.n_points, dtype=int))


def test_collineation_rejects_line_breaking_swap():
    S = space(2, 1, 3)
    sig = np.arange(S.n_points)
    sig[0], sig[1] = 1, 0  # transposing two points tears the pencil apart
    with pytest.raises(SemilinearError):
        Collineation(S, sig)


def test_collineation_tau_consistent():
    S = space(3, 1, 3)
    rng = np.random.default_rng(4)
    iso = random_semilinear(S, rng)
    coll = iso.induce()
    for l in range(S.n_lines):
        img = sorted(int(coll.sigma[p]) for p in S.line_pts[l])
        assert img == [int(x) for x in S.line_pts[coll.tau[l]]]


# ---------------------------------------------------------------------------
# equality up to scalar
# ---------------------------------------------------------------------------

def test_equal_up_to_scalar():
    S = space(5, 1, 3)
    f = S.field
    rng = np.random.default_rng(6)
    a = random_semilinear(S, rng)
    for s in range(2, f.q):
        scaled = SemilinearIso(S, f.mul_t[s, a.mat], a.frob_exp)
        assert equal_up_to_scalar(a, scaled)
        assert equal_up_to_scalar(scaled, a)
    b = random_semilinear(S, rng)
    if (b.mat != a.mat).any():
        assert not equal_up_to_scalar(a, b) or (a.induce() == b.induce())


def test_equal_up_to_scalar_needs_same_twist():
    S = space(2, 2, 3)
    a = SemilinearIso(S, np.eye(3, dtype=int), 0)
    b = SemilinearIso(S, np.eye(3, dtype=int), 1)
    assert not equal_up_to_scalar(a, b)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

DECODE_SPACES = [(5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3), (5, 1, 4), (2, 2, 3)]


def test_decode_roundtrip():
    for p, n, d in DECODE_SPACES:
        S = space(p, n, d)
        rng = np.random.default_rng(100 * p + 10 * n + d)
        for _ in range(8):
            iso = random_semilinear(S, rng)
            coll = iso.induce()
            dec = decode_ftpg(coll)
            assert equal_up_to_scalar(dec, iso)
            assert (dec.sigma_array() == coll.sigma).all()
            # normalized output: leading nonzero entry is one
            flat = dec.mat.ravel()
            assert flat[np.argmax(flat != 0)] == 1


def test_decode_identity_and_twist():
    S = space(2, 2, 3)
    dec = decode_ftpg(SemilinearIso(S, np.eye(3, dtype=int), 1).induce())
    assert dec.frob_exp == 1
    assert (dec.mat == np.eye(3, dtype=int)).all()


def test_decode_rejects_low_dim():
    S = space(3, 1, 2)
    coll = Collineation(S, np.arange(S.n_points))
    with pytest.raises(SemilinearError):
        decode_ftpg(coll)


def test_random_semilinear_seeded():
    S = space(3, 1, 3)
    a = random_semilinear(S, np.random.default_rng(42))
    b = random_semilinear(S, np.random.default_rng(42))
    assert (a.mat == b.mat).all() and a.frob_exp == b.frob_exp
    assert mat_det(S.field, a.mat.tolist()) != 0


def ref_normalized(iso):
    """normalized() as a fresh, rank-checked construction."""
    f = iso.field
    flat = iso.mat.ravel()
    s = f.inv(int(flat[np.argmax(flat != 0)]))
    return SemilinearIso(iso.space, f.mul_t[s, iso.mat], iso.frob_exp)


def test_normalized_matches_checked_construction(monkeypatch):
    def no_rref(*args):
        raise AssertionError("normalized() re-ran the rank check")
    for p, n, d in DECODE_SPACES + [(5, 1, 5)]:
        S = space(p, n, d)
        rng = np.random.default_rng(7 * p + 3 * n + d)
        for _ in range(6):
            iso = random_semilinear(S, rng)
            before = iso.mat.copy()
            want = ref_normalized(iso)
            with monkeypatch.context() as m:
                m.setattr(semilinear, "rref", no_rref)
                got = iso.normalized()
            assert got is not iso and np.array_equal(iso.mat, before)
            assert got.space is S and got.frob_exp == want.frob_exp
            assert got.mat.dtype == want.mat.dtype
            assert np.array_equal(got.mat, want.mat)
            assert np.array_equal(got.sigma_array(), iso.sigma_array())


def ref_decode_ftpg(coll):
    """The decode that read the twist pointwise: the frame fixes M, then
    each point (1 : a : 0 ...) of the line e1 e2 gives mu(a) by one
    linear solve against the first two columns of M."""
    S = coll.space
    f, d, q = S.field, S.d, S.q
    frame_idx = [ref_canon_index(S, [int(j == i) for j in range(d)])
                 for i in range(d)]
    unit_idx = ref_canon_index(S, [1] * d)
    F = [list(map(int, S.pts[coll.sigma[i]])) for i in frame_idx]
    W = list(map(int, S.pts[coll.sigma[unit_idx]]))
    c = solve_linear(f, [[F[j][i] for j in range(d)] for i in range(d)], W)
    assert c is not None and 0 not in c
    M = np.array([[f.mul(c[j], F[j][i]) for j in range(d)]
                  for i in range(d)], dtype=np.int64)
    cols = [[int(M[i, 0]), int(M[i, 1])] for i in range(d)]
    mu_map = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        x = ref_canon_index(S, [1, a] + [0] * (d - 2))
        w = list(map(int, S.pts[coll.sigma[x]]))
        sol = solve_linear(f, cols, w)
        assert sol is not None and sol[0] != 0
        mu_map[a] = f.div(sol[1], sol[0])
    e = next(e for e in range(f.n) if (mu_map == f.frob_t[e]).all())
    iso = SemilinearIso(S, M, e).normalized()
    assert (iso.sigma_array() == coll.sigma).all()
    return iso


@pytest.mark.parametrize("p,n,d", [(2, 1, 3), (2, 2, 3), (2, 3, 3),
                                   (3, 2, 3), (2, 4, 3), (2, 3, 4),
                                   (5, 1, 5)])
def test_decode_matches_pointwise_reference(p, n, d):
    S = space(p, n, d)
    rng = np.random.default_rng(1000 * p + 10 * n + d)
    for _ in range(4):
        coll = random_semilinear(S, rng).induce()
        got, want = decode_ftpg(coll), ref_decode_ftpg(coll)
        assert got.frob_exp == want.frob_exp
        assert (got.mat == want.mat).all() and got.mat.dtype == want.mat.dtype


def test_decode_rejects_non_semilinear_bijection():
    # fixes the frame and the unit point, so M is the identity, but swaps
    # two other points: no Frobenius power reproduces it
    S = space(3, 1, 3)
    sigma = np.arange(S.n_points)
    a, b = ref_canon_index(S, [1, 2, 0]), ref_canon_index(S, [1, 0, 2])
    sigma[[a, b]] = sigma[[b, a]]
    with pytest.raises(SemilinearError, match="not induced by a semilinear"):
        decode_ftpg(SimpleNamespace(space=S, sigma=sigma))
