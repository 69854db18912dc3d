"""The brute-force oracle against the full enumeration it replaced.

ref_brute_force_extensions walks every normalized matrix of PGL_d(q),
row by row, under every Frobenius power, and keeps those that
matrix_filter passes; the frame search must return the same
collineations in the same order.  The row-by-row enumeration is checked
in turn against the q^(d^2) digit sweep with a determinant filter, and
matrix_filter, which takes [B, d, d] matrices and applies them to blocks
of reps through mat_apply, against a loop that applies each candidate
matrix to each rep, one at a time."""

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collinext import _kernels
from collinext.ample import AmpleFamily
from collinext.gf import make_field, mat_apply, mat_inv, rref
from collinext.primesets import gl_order
from collinext.projgeom import ProjSpace
from collinext.semilinear import Collineation, SemilinearIso, random_semilinear
from test_gf import mat_det, mat_vec
from test_projgeom import ref_canon_index, ref_canon_index_many

E = importlib.import_module("collinext.extend")

_SPACES = {}


def space(p, n, d):
    if (p, n, d) not in _SPACES:
        _SPACES[p, n, d] = ProjSpace(make_field(p, n), d)
    return _SPACES[p, n, d]


def gl_size(q, d):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def candidate_matrices(S):
    """Row codes [B, d] of the invertible d x d matrices with leading
    nonzero entry 1, one per element of PGL_d(q), in lexicographic order
    of their entries read row by row.

    Row 0 runs over the canonical points; each further row runs over
    the codes outside the span of the rows above it."""
    f, q, d = S.field, S.q, S.d
    vecs = S.code_vectors()
    every = np.arange(q ** d, dtype=np.min_scalar_type(q ** d - 1))
    codes = np.sort(S.pts @ S._qpow).astype(every.dtype)[:, None]
    step = max(1, (1 << 18) // q ** d)   # prefixes per span mask
    for k in range(1, d):
        n, n_free = len(codes), q ** d - q ** k
        out = np.empty((n, n_free, k + 1), dtype=every.dtype)
        out[:, :, :k] = codes[:, None]
        for s in range(0, n, step):
            prefix = vecs[codes[s:s + step]]
            m = len(prefix)
            # the q^k linear combinations of the prefix rows
            span = np.zeros((m, 1, d), dtype=np.int32)
            for i in range(k):
                span = f.add_t[span[:, :, None], f.mul_t[
                    np.arange(q)[:, None], prefix[:, None, None, i]]]
                span = span.reshape(m, -1, d)
            free = np.ones((m, q ** d), dtype=bool)
            free[np.arange(m)[:, None], span @ S._qpow] = False
            out[s:s + m, :, k] = np.broadcast_to(every, free.shape)[
                free].reshape(m, n_free)
        codes = out.reshape(-1, k + 1)
    return codes


def ref_brute_force_extensions(pc):
    """Every collineation agreeing with sigma on U1, by walking the
    semilinear group modulo scalars: each of the n Frobenius powers, then
    every candidate_matrices row in order."""
    S = pc.space
    f = S.field
    mats = S.code_vectors()[candidate_matrices(S)]
    U1 = np.flatnonzero(pc.sigma >= 0)
    out = []
    for e in range(f.n):
        moved = f.frob_t[e][S.pts]
        mask = _kernels.matrix_filter(mats, moved[U1], pc.sigma[U1], S)
        maps = S.canon_index_many(mat_apply(f, mats[mask], moved))
        out += [Collineation(S, sigma) for sigma in maps]
    return out


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
    codes = candidate_matrices(S)
    got = S.code_vectors()[codes]
    ref = ref_candidate_matrices(S.field, d)
    assert got.shape == ref.shape
    assert (got == ref).all()
    assert len(codes) == gl_size(q, d) // (q - 1)
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
    S = space(p, n, d)
    f, q = S.field, S.q
    blocks = []   # (candidates, reps) of every mat_apply in the filter

    def recording(f, mats, vecs):
        blocks.append((len(mats), len(vecs)))
        return mat_apply(f, mats, vecs)
    monkeypatch.setattr(_kernels, "mat_apply", recording)
    rng = np.random.default_rng(100 * q + d)
    # _CHUNK = 1 filters one candidate against one rep at a time; at 64,
    # a full chunk takes one rep, and its few survivors take the rest in
    # blocks of several reps
    for chunk in (1, 64):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        blocks.clear()
        for trial in range(4):
            e = trial % f.n
            U = rng.choice(S.n_points, size=int(rng.integers(1, d + 3)),
                           replace=False)
            reps = f.frob_t[e][S.pts[U]]
            # random matrices, singular ones included, plus a planted
            # matrix and its scalar multiples, which map every rep where
            # it does
            mats = S.code_vectors()[rng.integers(0, q ** d, size=(300, d))]
            plant = random_semilinear(S, rng).mat
            expect = np.array([ref_canon_index(S, mat_vec(f, plant.tolist(),
                                                          v))
                               for v in reps.tolist()])
            at = rng.choice(len(mats), size=q - 1, replace=False)
            mats[at] = f.mul_t[np.arange(1, q)[:, None, None], plant]
            mask = _kernels.matrix_filter(mats, reps, expect, S)
            assert mask.dtype == bool and mask[at].all()
            assert (mask == ref_matrix_filter(S, mats, reps, expect)).all()
        if chunk == 1:
            assert set(blocks) == {(1, 1)}
        else:
            assert (chunk, 1) in blocks
            assert max(r for _, r in blocks) > 1


def test_matrix_filter_memory_stays_near_the_mask():
    # P^1(F_211) with all but one point fixed: 9.4M candidates, 211 reps,
    # of which nearly every candidate fails the first.  Chunks of _CHUNK
    # candidates, each filtered over its own survivors, keep the peak near
    # the B-byte mask.
    S = ProjSpace(make_field(211), 2)
    codes = candidate_matrices(S)
    mats = S.code_vectors().astype(np.uint8)[codes]
    U = np.arange(1, S.n_points)
    sigma = random_semilinear(S, np.random.default_rng(211)).sigma_array()
    args = (mats, S.pts[U], sigma[U], S)
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
    res = E.extend(pc, AmpleFamily.size_at_most(1))
    assert (found[0].sigma == res.sigma_tilde).all()
    assert (found[0].sigma == iso.sigma_array()).all()


# ---------------------------------------------------------------------------
# the frame search against the full enumeration
# ---------------------------------------------------------------------------

def fixing(S, U):
    """The identity of S restricted to U."""
    return E.restrict(SemilinearIso(S, np.eye(S.d, dtype=int), 0), U)


def assert_same_extensions(pc):
    got = E.brute_force_extensions(pc)
    ref = ref_brute_force_extensions(pc)
    assert len(got) == len(ref)
    assert all(a == b for a, b in zip(got, ref))
    return got


@pytest.mark.parametrize("p,n,d,U,count", [
    (2, 1, 3, [0], 24),        # point stabilizer of PGL(3,2): 168 / 7
    (3, 1, 2, [0], 6),         # PGL(2,3): 24 / 4
    (2, 1, 4, [0], 1344),      # PGL(4,2): 20160 / 15
    (5, 1, 3, [0, 8], 400),    # PGL(3,5): 372000 / (31 * 30)
])
def test_frame_search_matches_on_stabilizers(p, n, d, U, count):
    assert len(assert_same_extensions(fixing(space(p, n, d), U))) == count


def test_frame_search_matches_on_inconsistent_sigma():
    S = space(5, 1, 3)
    U = [x for x in range(S.n_points) if x != 3]
    basis, unit = E._frame_in(S, np.array(U))
    line = S.line_pts[S.join_idx(basis[0], basis[1])]
    off = [x for x in line if x not in basis[:2]][0]
    for dom, edit in ((U, {U[1]: U[4], U[4]: U[1]}),  # images swapped
                      (U, {basis[1]: basis[0]}),      # basis images repeated
                      (U, {basis[2]: off}),           # basis images collinear
                      (U, {unit: off}),               # unit image on a side
                      (line, {basis[1]: basis[0]})):  # the same, off a frame
        pc = fixing(S, dom)
        for x, y in edit.items():
            pc.sigma[x] = y
        assert assert_same_extensions(pc) == []


def in_general_position(S, pts):
    """Whether every d of the points are independent."""
    return all(len(rref(S.field, S.pts[list(B)].tolist())[1]) == S.d
               for B in itertools.combinations(pts, S.d))


def test_frame_search_exchanges_a_basis_point_for_a_unit():
    # greedily [0, 7, 8], in whose basis neither 10 nor 12 has all
    # coordinates nonzero; [0, 7, 10] with unit 12 is a frame in U1
    S = space(3, 1, 3)
    U = np.array([0, 7, 8, 10, 12])
    basis, unit = E._frame_in(S, U)
    assert unit is not None and in_general_position(S, basis + [unit])
    assert set(basis + [unit]) <= set(U.tolist())
    assert E._candidate_count(S.q, S.d, S.field.n, len(basis), unit) == 1
    rng = np.random.default_rng(3)
    assert_same_extensions(fixing(S, U))
    assert_same_extensions(E.restrict(random_semilinear(S, rng), U))


def test_frame_search_finds_every_frame_in_the_plane():
    # the bases one exchange from the greedy one hold a unit whenever U1
    # holds a frame, on random small sets of P^2(F_3)
    S = space(3, 1, 3)
    rng = np.random.default_rng(15)
    found = set()
    for _ in range(200):
        U = np.sort(rng.choice(S.n_points, size=int(rng.integers(4, 7)),
                               replace=False))
        basis, unit = E._frame_in(S, U)
        framed = any(in_general_position(S, F)
                     for F in itertools.combinations(U.tolist(), S.d + 1))
        assert (unit is not None) == framed
        if framed:
            assert in_general_position(S, basis + [unit])
            assert set(basis + [unit]) <= set(U.tolist())
        found.add(framed)
    assert found == {False, True}


def ref_frame_in(S, U1):
    """_frame_in as a greedy loop: each basis point is the first point of
    U1 off the span of those before it, that span listed as its q^k
    combinations, and x is the inverse of the basis applied to U1."""
    f, q, d, pts = S.field, S.q, S.d, S.pts[U1]
    basis = []
    for _ in range(d):
        span = np.zeros((1, d), dtype=np.int64)
        for b in S.pts[basis]:
            span = f.add_t[span[:, None], f.mul_t[np.arange(q)[:, None], b]]
            span = span.reshape(-1, d)
        inspan = np.isin(S._vector_code(pts), S._vector_code(span))
        if inspan.all():
            break
        basis.append(int(U1[np.argmin(inspan)]))
    if len(basis) < d:
        return basis, None
    x = mat_apply(f, mat_inv(f, S.pts[basis]).T, pts)
    full = (x != 0).all(axis=1)
    if full.any():
        return basis, int(U1[np.argmax(full)])
    for j in range(d):
        for w in np.flatnonzero(x[:, j]):
            minor = f.add_t[f.mul_t[x, x[w, j]],
                            f.neg_t[f.mul_t[x[w], x[:, j, None]]]]
            minor[:, j] = x[:, j]
            full = (minor != 0).all(axis=1)
            if full.any():
                basis[j] = int(U1[w])
                return basis, int(U1[np.argmax(full)])
    return basis, None


@pytest.mark.parametrize("p,n,d", [(2, 1, 3), (3, 1, 3), (2, 2, 4),
                                   (5, 1, 3)])
def test_span_codes_match_combination_loop(p, n, d):
    # every combination of the rows, the first coefficient most
    # significant, for stacks of 0 to d random rows, dependent ones too
    S = space(p, n, d)
    f = S.field
    rng = np.random.default_rng(p + n + d)
    for k in range(d + 1):
        rows = rng.integers(0, S.q, size=(3, k, d))
        got = E._span_codes(S, rows)
        for stack, codes in zip(rows, got):
            want = []
            for coef in itertools.product(range(S.q), repeat=k):
                v = [0] * d
                for c, r in zip(coef, stack.tolist()):
                    v = [f.add(a, f.mul(c, b)) for a, b in zip(v, r)]
                want.append(int(S._vector_code(np.array(v))))
            assert codes.tolist() == want


FRAME_SPACES = [(2, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3),
                (2, 3, 3), (2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 5),
                (3, 1, 5)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FRAME_SPACES), st.integers(1, 14), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_frame_in_matches_greedy_loop(pnd, size, in_hyperplane, seed):
    # the one rref against the loop it replaced, on random sets that span
    # the space and on sets inside a hyperplane, which cannot
    S = space(*pnd)
    rng = np.random.default_rng(seed)
    pool = np.arange(S.n_points)
    if in_hyperplane:   # the points where a random nonzero form vanishes
        form = rng.integers(0, S.q, size=(1, S.d))
        form[0, rng.integers(S.d)] = 1
        pool = np.flatnonzero(mat_apply(S.field, form, S.pts)[:, 0] == 0)
    U = np.sort(rng.choice(pool, size=min(size, len(pool)), replace=False))
    basis, unit = E._frame_in(S, U)
    assert (basis, unit) == ref_frame_in(S, U)
    assert all(type(b) is int for b in basis)


def battery_domain(S, kind, rng):
    """A seeded U1 of the given kind: an ample instance (it holds a
    frame), the points of a line with or without one point off it (no
    frame), or a few random points."""
    if kind == "ample":
        return E.random_ample_instance(S, 1, rng)[0]
    line = S.line_pts[int(rng.integers(S.n_lines))].tolist()
    if kind == "line":
        return line
    if kind == "line_plus_point":
        off = [x for x in range(S.n_points) if x not in line]
        return line + [off[int(rng.integers(len(off)))]]
    return rng.choice(S.n_points, size=int(rng.integers(2, 7)),
                      replace=False).tolist()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_frame_search_matches_full_enumeration(p, n):
    S = space(p, n, 3)
    f = S.field
    rng = np.random.default_rng(40 + 7 * p + n)
    seen = set()
    for trial in range(12):
        iso = random_semilinear(S, rng)
        if n > 1:   # every other map twisted by the Frobenius
            iso = SemilinearIso(S, iso.mat, trial % 2)
        kind = ("ample", "line", "line_plus_point", "random")[trial % 4]
        U = np.sort(battery_domain(S, kind, rng))
        pc = E.restrict(iso, U)
        if trial % 3 == 2:   # images permuted: usually no extension
            pc.sigma[U] = pc.sigma[rng.permutation(U)]
        got = assert_same_extensions(pc)
        seen.add((E._frame_in(S, U)[1] is not None, iso.frob_exp, len(got)))
    assert {framed for framed, _, _ in seen} == {False, True}
    assert {frob for _, frob, _ in seen} == set(range(f.n))
    assert {count > 1 for _, _, count in seen} == {False, True}


@pytest.mark.parametrize("p,n,U,count", [
    (7, 1, [0], 56 * 49 * 36),      # |PGL(3,7)| / 57
    (3, 2, [0, 1], 2 * 81 * 64),    # |PGammaL(3,9)| / (91 * 90)
])
def test_frame_search_counts_match_closed_forms(p, n, U, count):
    S = space(p, n, 3)
    q = S.q
    group = gl_size(q, 3) // (q - 1) * n
    assert count * S.n_points * (S.n_points - 1) ** (len(U) - 1) == group
    assert len(E.brute_force_extensions(fixing(S, U))) == count
