"""The brute-force oracle's enumeration and filter against references.

The reference enumeration is the q^(d^2) digit sweep with a determinant
filter that the row-by-row enumeration replaced; the reference filter
applies each candidate matrix to each rep, one at a time."""

import importlib
import tracemalloc

import numpy as np
import pytest

from collinext import _kernels
from collinext.ample import AmpleFamily
from collinext.gf import make_field
from collinext.primesets import gl_order
from collinext.projgeom import ProjSpace
from collinext.semilinear import random_semilinear
from test_gf import mat_det, mat_vec
from test_projgeom import ref_canon_index, ref_canon_index_many

E = importlib.import_module("collinext.extend")

_SPACES = {}


def space(p, n, d):
    if (p, n, d) not in _SPACES:
        _SPACES[p, n, d] = ProjSpace(make_field(p, n), d)
    return _SPACES[p, n, d]


def ref_candidate_matrices(f, d):
    """All invertible d x d matrices with leading nonzero entry 1, in
    lexicographic order of their q^(d^2) digit vectors."""
    q = f.q
    total = q ** (d * d)
    t = np.arange(total, dtype=np.int64)[:, None]
    M = (t // q ** np.arange(d * d - 1, -1, -1)) % q
    M = M[M[np.arange(total), np.argmax(M != 0, axis=1)] == 1]
    if d == 3:
        mt, at, neg = f.mul_t, f.add_t, f.neg_t
        a, b, c, dd, e, ff, g, h, i = M.T
        det = at[at[mt[a, at[mt[e, i], neg[mt[ff, h]]]],
                    neg[mt[b, at[mt[dd, i], neg[mt[ff, g]]]]]],
                 mt[c, at[mt[dd, h], neg[mt[e, g]]]]]
        return M[det != 0].reshape(-1, 3, 3)
    keep = [mat_det(f, m) != 0 for m in M.reshape(-1, d, d).tolist()]
    return M[keep].reshape(-1, d, d)


@pytest.mark.parametrize("p,n,d", [(2, 1, 2), (3, 1, 2), (2, 1, 3),
                                   (3, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_candidates_match_digit_sweep(p, n, d):
    S = space(p, n, d)
    q = S.q
    codes = E._candidate_matrices(S)
    got = S.code_vectors()[codes]
    ref = ref_candidate_matrices(S.field, d)
    assert got.shape == ref.shape
    assert (got == ref).all()
    assert len(codes) == E._gl_size(q, d) // (q - 1)
    if n == 1:
        assert len(codes) == gl_order(d, q) // (q - 1)


def ref_matrix_filter(S, mats, reps, expect):
    out = []
    for M in mats.tolist():
        ok = True
        for v, x in zip(reps.tolist(), expect.tolist()):
            w = mat_vec(S.field, M, v)
            if not any(w) or ref_canon_index(S, w) != x:
                ok = False
                break
        out.append(ok)
    return np.array(out, dtype=bool)


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (2, 3, 3), (3, 2, 2),
                                   (5, 1, 3), (3, 1, 4)])
def test_matrix_filter_matches_per_candidate_loop(p, n, d, monkeypatch):
    monkeypatch.setattr(_kernels, "_CHUNK", 1)   # filter chunks of 4 codes
    S = space(p, n, d)
    f, q = S.field, S.q
    vecs = S.code_vectors()
    rng = np.random.default_rng(100 * q + d)
    for trial in range(4):
        e = trial % f.n
        U = rng.choice(S.n_points, size=int(rng.integers(1, d + 3)),
                       replace=False)
        reps = f.frob_t[e][S.pts[U]]
        # random rows, singular ones included, plus a planted matrix and
        # its scalar multiples, which map every rep where it does
        codes = rng.integers(0, q ** d, size=(300, d))
        plant = random_semilinear(S, rng).mat
        expect = np.array([ref_canon_index(S, mat_vec(f, plant.tolist(), v))
                           for v in reps.tolist()])
        at = rng.choice(len(codes), size=q - 1, replace=False)
        for c, pos in zip(range(1, q), at):
            codes[pos] = f.mul_t[c, plant] @ S._qpow
        mask = _kernels.matrix_filter(codes, reps, expect, vecs,
                                      S.code_points(), f.mul_t, f.add_t)
        assert mask.dtype == bool and mask[at].all()
        assert (mask == ref_matrix_filter(S, vecs[codes], reps,
                                          expect)).all()


def test_matrix_filter_memory_stays_near_the_mask():
    # P^1(F_211) with all but one point fixed: 9.4M candidates, 211 reps,
    # of which nearly every candidate fails the first.  One [q^d] dot table
    # at a time keeps the peak near the B-byte mask; building all 211 up
    # front peaked at 108 MB above the candidate codes.
    S = ProjSpace(make_field(211), 2)
    f = S.field
    codes = E._candidate_matrices(S)
    U = np.arange(1, S.n_points)
    sigma = random_semilinear(S, np.random.default_rng(211)).sigma_array()
    args = (codes, S.pts[U], sigma[U], S.code_vectors(), S.code_points(),
            f.mul_t, f.add_t)
    tracemalloc.start()
    try:
        mask = _kernels.matrix_filter(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.sum() == 1
    assert peak < len(codes) + (8 << 20)


def test_code_points_inverts_the_code():
    S = space(2, 2, 3)
    vecs = S.code_vectors()
    point_of = S.code_points()
    assert point_of.dtype == np.int32 and point_of[0] == -1
    assert (vecs @ S._qpow == np.arange(len(vecs))).all()
    assert (point_of[1:] == ref_canon_index_many(S, vecs[1:])).all()


def test_brute_force_unique_on_P2_F7():
    S = space(7, 1, 3)
    rng = np.random.default_rng(77)
    iso = random_semilinear(S, rng)
    U, _ = E.random_ample_instance(S, 1, rng)
    pc = E.restrict(iso, U)
    found = E.brute_force_extensions(pc)
    assert len(found) == 1
    res = E.extend(pc, AmpleFamily.size_at_most(1), order="shuffled")
    assert (found[0].sigma == res.sigma_tilde).all()
    assert (found[0].sigma == iso.sigma_array()).all()
