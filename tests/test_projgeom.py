"""Projective space construction, incidence, axioms, Desargues."""

import copy
import itertools

import numpy as np
import pytest

from collinext.gf import make_field
from collinext import _kernels, cli
from collinext.semilinear import Collineation
from collinext.projgeom import (
    GeomError,
    Perspectivity,
    ProjSpace,
    check_axioms,
    check_desargues,
    collinear,
    concurrent,
    desargues_admissible,
    desargues_sweep,
    gaussian_binomial,
    join,
    meet,
    _certify_transports,
    _frame_transports,
    noncollinear_triples,
    span_rank,
)


SMALL = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (3, 1, 4)]


def space(p, n, d):
    return ProjSpace(make_field(p, n), d)


# ---------------------------------------------------------------------------
# counts and enumeration order
# ---------------------------------------------------------------------------

def test_point_line_counts():
    for p, n, d in SMALL + [(7, 1, 3), (2, 3, 3), (3, 2, 3), (5, 1, 4)]:
        S = space(p, n, d)
        q = p ** n
        assert S.n_points == (q ** d - 1) // (q - 1)
        assert S.n_lines == gaussian_binomial(d, 2, q)
        assert len(S.pts) == S.n_points
        assert len(S.line_pts) == S.n_lines


def test_enumeration_order_plane_f3():
    S = space(3, 1, 3)
    expect = [
        (1, 0, 0), (1, 0, 1), (1, 0, 2),
        (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 0), (1, 2, 1), (1, 2, 2),
        (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (0, 0, 1),
    ]
    got = [tuple(int(x) for x in row) for row in S.pts]
    assert got == expect


def test_canon_index_roundtrip_and_scaling():
    for p, n, d in SMALL:
        S = space(p, n, d)
        f = S.field
        for i in range(S.n_points):
            assert S.canon_index(S.pts[i]) == i
        # arbitrary nonzero scalings land on the same class
        rng = np.random.default_rng(7)
        for _ in range(200):
            i = int(rng.integers(0, S.n_points))
            s = int(rng.integers(1, f.q))
            scaled = [f.mul(s, int(x)) for x in S.pts[i]]
            assert S.canon_index(scaled) == i
        many = S.canon_index_many(S.pts)
        assert (many == np.arange(S.n_points)).all()


def test_canon_index_rejects_zero():
    S = space(2, 1, 3)
    with pytest.raises(GeomError):
        S.canon_index([0, 0, 0])
    with pytest.raises(GeomError):
        S.canon_index_many(np.zeros((2, 3), dtype=np.int32))


# ---------------------------------------------------------------------------
# lines against a brute-force subspace oracle
# ---------------------------------------------------------------------------

def brute_lines(S):
    """Distinct 2-subspaces as frozensets of point indices, from scratch."""
    f = S.field
    out = set()
    for a in range(S.n_points):
        for b in range(a + 1, S.n_points):
            va, vb = S.pts[a], S.pts[b]
            pts = set()
            for s in range(f.q):
                w = [f.add(int(x), f.mul(s, int(y))) for x, y in zip(va, vb)]
                pts.add(S.canon_index(w))
            pts.add(b)
            out.add(frozenset(pts))
    return out


def test_lines_match_brute_force():
    for p, n, d in [(2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 4)]:
        S = space(p, n, d)
        oracle = brute_lines(S)
        assert len(oracle) == S.n_lines
        mine = {frozenset(int(x) for x in row) for row in S.line_pts}
        assert mine == oracle


def test_line_rows_sorted_distinct():
    for p, n, d in SMALL:
        S = space(p, n, d)
        assert (np.diff(S.line_pts, axis=1) > 0).all()


# ---------------------------------------------------------------------------
# join / meet
# ---------------------------------------------------------------------------

def test_join_meet_properties():
    for p, n, d in SMALL:
        S = space(p, n, d)
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.integers(0, S.n_points, size=2)
            a, b = int(a), int(b)
            if a == b:
                continue
            l = S.join_idx(a, b)
            assert S.join_idx(b, a) == l
            assert S.on_line[a, l] and S.on_line[b, l]
        for _ in range(300):
            l, m = rng.integers(0, S.n_lines, size=2)
            l, m = int(l), int(m)
            if l == m:
                continue
            x = S.meet_idx(l, m)
            common = set(map(int, S.line_pts[l])) & set(map(int, S.line_pts[m]))
            if x < 0:
                assert not common
            else:
                assert common == {x}


def test_join_meet_reject_equal_args():
    S = space(3, 1, 3)
    with pytest.raises(GeomError):
        S.join_idx(4, 4)
    with pytest.raises(GeomError):
        S.meet_idx(2, 2)


def test_planes_have_no_skew_lines():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        S = space(p, n, 3)
        for l in range(S.n_lines):
            for m in range(l + 1, S.n_lines):
                assert S.meet_idx(l, m) >= 0


def test_dim4_has_skew_lines():
    S = space(2, 1, 4)
    skew = sum(
        1
        for l in range(S.n_lines)
        for m in range(l + 1, S.n_lines)
        if S.meet_idx(l, m) < 0
    )
    assert skew > 0


def test_fallback_join_meet_match_tables():
    # force the arithmetic path and compare against the tables
    S = space(3, 1, 3)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.integers(0, S.n_points, size=2)
        a, b = int(a), int(b)
        if a == b:
            continue
        assert S.line_through_vecs(S.pts[a], S.pts[b]) == S.join_t[a, b]


def test_object_layer():
    S = space(3, 1, 3)
    P = S.points()
    l = join(P[0], P[1])
    assert P[0] in l and P[1] in l
    assert len(l.points()) == S.q + 1
    m = join(P[0], P[3])
    x = meet(l, m)
    assert x == P[0]
    assert collinear(l.points())
    assert not collinear([P[0], P[1], P[3]])
    assert concurrent([l, m, join(P[0], P[5])])
    assert span_rank(S, [S.pts[0], S.pts[1], S.pts[3]]) == 3


def test_incidence_tables_consistent():
    for p, n, d in SMALL:
        S = space(p, n, d)
        # pt_lines rows enumerate exactly the lines through the point
        for i in range(0, S.n_points, max(1, S.n_points // 10)):
            via_rows = set(map(int, S.pt_lines[i]))
            via_mask = set(np.nonzero(S.on_line[i])[0].tolist())
            assert via_rows == via_mask
            assert len(via_rows) == S.lines_per_pt


# ---------------------------------------------------------------------------
# perspectivities
# ---------------------------------------------------------------------------

def test_perspectivity_basic():
    S = space(3, 1, 3)
    l1, l2 = S.line(0), S.line(1)
    x = meet(l1, l2)
    center = next(
        p for p in S.points() if p not in l1 and p not in l2
    )
    f = Perspectivity(l1, l2, center)
    imgs = [f(p) for p in l1.points()]
    assert all(p in l2 for p in imgs)
    assert len(set(imgs)) == S.q + 1
    assert f(x) == x
    g = Perspectivity(l2, l1, center)
    for p in l1.points():
        assert g(f(p)) == p


def test_perspectivity_rejects_bad_center():
    S = space(3, 1, 3)
    l1, l2 = S.line(0), S.line(1)
    on_l1 = l1.points()[0]
    with pytest.raises(GeomError):
        Perspectivity(l1, l2, on_l1)
    with pytest.raises(GeomError):
        Perspectivity(l1, l1, S.point(12))


def test_perspectivity_rejects_noncoplanar():
    S = space(2, 1, 4)
    # find two skew lines; any center makes this non-flat
    skew = None
    for l in range(S.n_lines):
        for m in range(l + 1, S.n_lines):
            if S.meet_idx(l, m) < 0:
                skew = (l, m)
                break
        if skew:
            break
    l1, l2 = S.line(skew[0]), S.line(skew[1])
    center = next(
        p for p in S.points() if p not in l1 and p not in l2
    )
    with pytest.raises(GeomError):
        Perspectivity(l1, l2, center)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_axioms_exhaustive_small_planes():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        S = space(p, n, 3)
        rep = check_axioms(S, mode="exhaustive")
        assert rep.ok and rep.axiom_i and rep.axiom_ii and rep.axiom_iii
        assert rep.witness is None
        T = len(noncollinear_triples(S))
        k = S.pts_per_line
        assert rep.checked["axiom_ii_configs"] == T * (k * k - 1)


def test_axioms_exhaustive_dim4():
    rep = check_axioms(space(2, 1, 4), mode="exhaustive")
    assert rep.ok


def test_axioms_sampled():
    rep = check_axioms(space(5, 1, 4), mode="sampled", samples=2000, seed=1)
    assert rep.ok
    assert rep.checked["axiom_ii_configs"] > 0


def ref_axiom2(tri, join_t, meet_t, line_pts):
    """Per-triple axiom-II loop the chunked kernel replaced."""
    n = 0
    k = line_pts.shape[1]
    for t in range(tri.shape[0]):
        p0, p1, p2 = int(tri[t, 0]), int(tri[t, 1]), int(tri[t, 2])
        lab, lac, lbc = join_t[p0, p1], join_t[p0, p2], join_t[p1, p2]
        q1 = np.repeat(line_pts[lab], k)
        q2 = np.tile(line_pts[lac], k)
        keep = q1 != q2
        q1, q2 = q1[keep], q2[keep]
        n += len(q1)
        m = join_t[q1, q2]
        if ((m != lbc) & (meet_t[lbc, m] < 0)).any():
            return n, tuple(int(x) for x in tri[t])
    return n, None


def test_axiom2_kernel_twins_agree():
    for S in (space(2, 1, 3), space(3, 1, 3), space(2, 1, 4)):
        tri = noncollinear_triples(S)
        want = ref_axiom2(tri, S.join_t, S.meet_t, S.line_pts)
        assert want[1] is None
        assert _kernels.axiom2_scan(tri, S.join_t, S.meet_t,
                                    S.line_pts) == want
        # a planted skew pair: witness and count must still agree
        bad = S.meet_t.copy()
        l, m = S.pt_lines[5, 0], S.pt_lines[5, 1]
        bad[l, m] = bad[m, l] = -1
        want = ref_axiom2(tri, S.join_t, bad, S.line_pts)
        assert want[1] is not None
        assert _kernels.axiom2_scan(tri, S.join_t, bad, S.line_pts) == want


# ---------------------------------------------------------------------------
# Desargues
# ---------------------------------------------------------------------------

def test_desargues_admissibility_filters():
    S = space(3, 1, 3)
    ps, qs = [0, 3, 12], [1, 4, 11]
    assert not desargues_admissible(S, [0, 1, 2], qs)  # first triple collinear
    assert not desargues_admissible(S, ps, [0, 3, 11])  # shares two vertices
    with pytest.raises(GeomError):
        check_desargues(S, [0, 1, 2], qs)


def test_desargues_single_config_true_case():
    # a visibly perspective pair: project one triangle from a center
    S = space(5, 1, 3)
    ps = [S.point([1, 0, 0]), S.point([0, 1, 0]), S.point([0, 0, 1])]
    o = S.point([1, 1, 1])
    qs = []
    for pt in ps:
        l = join(o, pt)
        qs.append(next(
            r for r in l.points() if r != o and r != pt
        ))
    res = check_desargues(S, ps, qs)
    assert res.left and res.right and res.agree


def test_desargues_exhaustive_f2_against_slow_oracle():
    S = space(2, 1, 3)
    n, wit = desargues_sweep(S)
    assert wit is None
    assert n == 13440
    # independent recount through the object layer
    tri = [tuple(map(int, t)) for t in noncollinear_triples(S)]
    slow = 0
    for ps in tri:
        for qs in tri:
            if not desargues_admissible(S, list(ps), list(qs)):
                continue
            slow += 1
            assert check_desargues(S, list(ps), list(qs)).agree
    assert slow == n


def test_desargues_exhaustive_f3():
    S = space(3, 1, 3)
    n, wit = desargues_sweep(S)
    assert wit is None
    assert n == 1316952


def test_desargues_kernel_twins_agree():
    # the frame-row kernel against the frame row of the full reference
    S = space(2, 1, 3)
    tri = noncollinear_triples(S)
    frame = frame_of(S)
    row = int(np.nonzero((tri == frame).all(axis=1))[0][0])
    for mt in (S.meet_t, _planted_meet(S)):
        want = ref_desargues(tri, S.join_t, mt, S.on_line, rows=[row])
        got = _kernels.desargues_scan(frame, tri, S.join_t, mt, S.line_pts)
        assert got == want
    assert want[1] is not None and want[1][:3] == frame


def test_desargues_sampled_dim4():
    n, wit = desargues_sweep(space(3, 1, 4), sample=150, seed=5)
    assert n == 150 and wit is None


# ---------------------------------------------------------------------------
# caps and rejects
# ---------------------------------------------------------------------------

def test_space_rejects():
    f = make_field(2, 1)
    with pytest.raises(GeomError):
        ProjSpace(f, 1)
    with pytest.raises(GeomError):
        ProjSpace(make_field(2, 5), 5)  # 1.08e9 points, over the cap
    with pytest.raises(GeomError):
        ProjSpace("GF(2)", 3)


def test_desargues_sweep_rejects_projective_line():
    S = space(5, 1, 2)
    for sample in (None, 10):
        with pytest.raises(GeomError, match="dimension"):
            desargues_sweep(S, sample=sample)


def test_meet_many_matches_meet_idx():
    for S in (space(3, 1, 3), space(2, 1, 4), space(3, 1, 4)):
        rng = np.random.default_rng(S.n_lines)
        ls = rng.integers(0, S.n_lines, size=300)
        ms = rng.integers(0, S.n_lines, size=300)
        keep = ls != ms
        got = S.meet_many(ls[keep], ms[keep])
        want = [S.meet_idx(int(l), int(m)) for l, m in zip(ls[keep], ms[keep])]
        assert got.tolist() == want
        assert (got < 0).any() == (S.d > 3)


# ---------------------------------------------------------------------------
# frame-reduced exhaustive sweep
# ---------------------------------------------------------------------------

def frame_of(S):
    """Point indices of e1, e2, e3."""
    return tuple(S.canon_index([int(i == j) for i in range(S.d)])
                 for j in range(3))


def ref_noncollinear_triples(S):
    """Per-pair loop the vectorized enumeration replaced."""
    out = []
    for a in range(S.n_points):
        for b in range(S.n_points):
            if b == a:
                continue
            third = np.nonzero(~S.on_line[:, S.join_idx(a, b)])[0]
            out += [(a, b, int(c)) for c in third]
    return np.array(out, dtype=np.int32)


def ref_desargues(tri, join_t, meet_t, on_line, rows=None):
    """Full T x T scan the frame reduction replaced; rows picks the first
    triples to scan (all by default).  Returns (checked, witness)."""
    tri = np.asarray(tri)
    q1a, q2a, q3a = tri[:, 0], tri[:, 1], tri[:, 2]
    checked = 0
    for a in (range(len(tri)) if rows is None else rows):
        p1, p2, p3 = (int(x) for x in tri[a])
        s12, s23, s31 = join_t[p1, p2], join_t[p2, p3], join_t[p3, p1]
        keep = np.nonzero((q1a != p1) & (q2a != p2) & (q3a != p3)
                          & (join_t[q1a, q2a] != s12)
                          & (join_t[q2a, q3a] != s23)
                          & (join_t[q3a, q1a] != s31))[0]
        q1, q2, q3 = q1a[keep], q2a[keep], q3a[keep]
        l1, l2, l3 = join_t[p1, q1], join_t[p2, q2], join_t[p3, q3]
        x = meet_t[l1, l2]
        generic = (x >= 0) & on_line[np.maximum(x, 0), l3]
        left = np.where(
            l1 == l2,
            (l1 == l3) | (meet_t[l1, l3] >= 0),
            np.where((l1 == l3) | (l2 == l3), meet_t[l1, l2] >= 0, generic),
        )
        r12 = meet_t[s12, join_t[q1, q2]]
        r23 = meet_t[s23, join_t[q2, q3]]
        r31 = meet_t[s31, join_t[q3, q1]]
        exists = (r12 >= 0) & (r23 >= 0) & (r31 >= 0)
        dup = (r12 == r23) | (r23 == r31) | (r12 == r31)
        jj = join_t[np.maximum(r12, 0), np.maximum(r23, 0)]
        right = exists & (dup | on_line[np.maximum(r31, 0), np.maximum(jj, 0)])
        bad = np.nonzero(left != right)[0]
        if len(bad):
            b = tri[keep[bad[0]]]
            return (checked + int(bad[0]) + 1,
                    (p1, p2, p3) + tuple(int(v) for v in b))
        checked += len(keep)
    return checked, None


def _planted_meet(S):
    """meet_t with the side p1 v p2 of the frame made skew to every line,
    so perspective configurations lose their right-hand side."""
    bad = S.meet_t.copy()
    s12 = S.join_idx(*frame_of(S)[:2])
    bad[s12, :] = bad[:, s12] = -1
    return bad


@pytest.mark.parametrize("p,n,d", [(2, 1, 3), (3, 1, 3), (3, 1, 4)])
def test_noncollinear_triples_matches_loop(p, n, d):
    S = space(p, n, d)
    got = noncollinear_triples(S)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref_noncollinear_triples(S))


def test_noncollinear_triples_budget():
    S = space(2, 1, 8)  # 255 points, 16.3M triples
    with pytest.raises(GeomError, match="budget"):
        noncollinear_triples(S)
    assert cli.main(["--cmd", "checkgeom", "--q", "2", "--d", "8"]) == 2


@pytest.mark.parametrize("p,n,d,want", [
    (2, 1, 3, 13440), (3, 1, 3, 1316952), (2, 1, 4, 4919040)])
def test_reduced_sweep_matches_full_reference(p, n, d, want):
    S = space(p, n, d)
    ref = ref_desargues(noncollinear_triples(S), S.join_t, S.meet_t,
                        S.on_line)
    assert ref == (want, None)
    assert desargues_sweep(S) == ref


@pytest.mark.parametrize("p,n,want", [(2, 2, 35091840), (5, 1, 454816500)])
def test_reduced_sweep_matches_seed_full_sweep(p, n, want):
    # counts measured by the full T x T sweep before the frame reduction
    assert desargues_sweep(space(p, n, 3)) == (want, None)


@pytest.mark.parametrize("p,n,d", [(3, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_frame_transports_are_collineations(p, n, d):
    S = space(p, n, d)
    tri = noncollinear_triples(S)
    g = _frame_transports(S, tri, S.code_points())
    assert np.array_equal(g[:, list(frame_of(S))], tri)
    for row in g:
        Collineation(S, row)


def test_corrupted_tables_raise():
    S = space(3, 1, 3)
    tri = noncollinear_triples(S)
    # a join entry pointing at the wrong line
    T = copy.copy(S)
    T.join_t = S.join_t.copy()
    wrong = S.pt_lines[0][S.pt_lines[0] != S.join_t[0, 1]][0]
    T.join_t[0, 1] = T.join_t[1, 0] = wrong
    with pytest.raises(GeomError):
        desargues_sweep(T)
    with pytest.raises(GeomError, match="not a collineation"):
        _certify_transports(T, tri)
    # a meet table the kernel reads but the transports do not
    T = copy.copy(S)
    T.meet_t = _planted_meet(S)
    with pytest.raises(GeomError, match="disagree"):
        desargues_sweep(T)
    # a collinear row has a singular transport
    bad = tri.copy()
    bad[7] = S.line_pts[0][:3]
    with pytest.raises(GeomError, match=str(tuple(bad[7].tolist()))):
        _certify_transports(S, bad)
