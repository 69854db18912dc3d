"""Projective space construction, incidence, axioms, Desargues."""

import copy
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collinext.gf import field_of_order, make_field, mat_apply
from collinext import _kernels, cli, projgeom
from collinext.semilinear import Collineation
from collinext.projgeom import (
    GeomError,
    ProjSpace,
    check_axioms,
    check_sweep_tables,
    desargues_admissible,
    desargues_sweep,
    gaussian_binomial,
    noncollinear_triples,
    space_of,
    space_size,
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


def ref_canon_index(S, vec):
    """Point index of one nonzero vector: scale its leading entry to 1,
    then read the free entries after it as base-q digits."""
    f, q, d = S.field, S.q, S.d
    vec = [int(x) for x in vec]
    j = next((i for i, x in enumerate(vec) if x != 0), None)
    if j is None:
        raise GeomError("zero vector has no projective class")
    s = f.inv(vec[j])
    idx = int(S._offs[j])
    nfree = d - 1 - j
    for i in range(nfree):
        idx += f.mul(s, vec[j + 1 + i]) * q ** (nfree - 1 - i)
    return idx


def test_canon_index_roundtrip_and_scaling():
    for p, n, d in SMALL:
        S = space(p, n, d)
        f = S.field
        assert (S.canon_index_many(S.pts) == np.arange(S.n_points)).all()
        assert [ref_canon_index(S, v) for v in S.pts] == list(
            range(S.n_points))
        # arbitrary nonzero scalings land on the same class
        rng = np.random.default_rng(7)
        i = rng.integers(0, S.n_points, size=200)
        s = rng.integers(1, f.q, size=200)
        scaled = f.mul_t[s[:, None], S.pts[i]]
        assert (S.canon_index_many(scaled) == i).all()
        assert [ref_canon_index(S, v) for v in scaled] == i.tolist()


def test_canon_index_rejects_zero():
    S = space(2, 1, 3)
    with pytest.raises(GeomError):
        S.canon_index_many(np.zeros(3, dtype=np.int32))
    with pytest.raises(GeomError):
        S.canon_index_many(np.zeros((2, 3), dtype=np.int32))


# ---------------------------------------------------------------------------
# the space build against the per-lead and repeat/tile references
# ---------------------------------------------------------------------------

def ref_canon_index_many(S, vecs):
    """Point index of each row of an [N, d] array: scale by the inverse of
    the leading entry, then add the free digits per lead position."""
    f, q, d = S.field, S.q, S.d
    vecs = np.asarray(vecs, dtype=np.int32)
    nz = vecs != 0
    if not nz.any(axis=1).all():
        raise GeomError("zero vector has no projective class")
    lead = np.argmax(nz, axis=1)
    s = f.inv_t[vecs[np.arange(len(vecs)), lead]]
    scaled = f.mul_t[s[:, None], vecs]
    idx = S._offs[lead].copy()
    for j in range(d):
        rows = lead == j
        if not rows.any():
            continue
        nfree = d - 1 - j
        for i in range(nfree):
            idx[rows] += scaled[rows, j + 1 + i].astype(np.int64) * q ** (
                nfree - 1 - i)
    return idx


def ref_span_points(S, b0, b1):
    f = S.field
    cols = [ref_canon_index_many(S, f.add_t[b0, f.mul_t[c, b1]])
            for c in range(S.q)]
    cols.append(ref_canon_index_many(S, b1))
    return np.stack(cols, axis=1)


def ref_code_points(S):
    """Point of every vector code, by writing each point's q - 1 nonzero
    multiples as codes with an integer dot product."""
    f, q = S.field, S.q
    point_of = np.full(q ** S.d, -1, dtype=np.int32)
    multiples = f.mul_t[np.arange(1, q)[:, None, None], S.pts]
    point_of[multiples @ S._qpow] = np.arange(S.n_points)
    return point_of


def ref_pair_table(rows, n):
    """Every ordered pair of entries of a row, as [rows * k^2] repeat/tile
    index arrays."""
    k = rows.shape[1]
    t = np.full((n, n), -1, dtype=np.int32)
    a = np.repeat(rows, k, axis=1).ravel()
    b = np.tile(rows, (1, k)).ravel()
    t[a, b] = np.repeat(np.arange(len(rows), dtype=np.int32), k * k)
    np.fill_diagonal(t, -1)
    return t


def ref_line_bases(pts):
    """Reduced row-echelon bases (b0, b1) of every line, as [L, d] stacks:
    every pair of points with leads j0 < j1 and a zero in b0 at j1,
    ordered by (j0, j1, b0, b1)."""
    lead = np.argmax(pts != 0, axis=1)
    a, b = np.nonzero((lead[:, None] < lead[None, :])
                      & (pts[:, lead] == 0))
    order = np.lexsort((b, a, lead[b], lead[a]))
    return pts[a[order]], pts[b[order]]


def ref_tables(S):
    q, d, P, L = S.q, S.d, S.n_points, S.n_lines
    pts = np.array([[0] * j + [1] + list(rest) for j in range(d)
                    for rest in itertools.product(range(q), repeat=d - 1 - j)],
                   dtype=np.int32)
    # column c is b0 + c b1 for c < q, column q is b1: no sort
    lp = ref_span_points(S, *ref_line_bases(pts)).astype(np.int32)
    # line l is _line_base[lowest, lead of highest] + highest
    lead = np.argmax(pts != 0, axis=1).astype(np.int32)
    line_base = np.full((P, d), -(L + P) - 1, dtype=np.int64)
    line_base[lp[:, 0], lead[lp[:, q]]] = np.arange(L) - lp[:, q]
    flat_pts = lp.ravel()
    flat_lns = np.repeat(np.arange(L, dtype=np.int32), q + 1)
    pt_lines = flat_lns[np.argsort(flat_pts, kind="stable")].reshape(P, -1)
    on_line = np.zeros((P, L), dtype=bool)
    on_line[flat_pts, flat_lns] = True
    return {
        "pts": pts, "line_pts": lp, "_lead": lead, "_line_base": line_base,
        "pt_lines": pt_lines,
        "on_line": on_line, "code_points": ref_code_points(S),
        "join_t": (ref_pair_table(lp, P)
                   if P <= projgeom._JOIN_TABLE_CAP else None),
        "meet_t": (ref_pair_table(pt_lines, L)
                   if L <= projgeom._MEET_TABLE_CAP else None),
    }


@pytest.mark.parametrize("q,d", [(2, 2), (32, 2), (4, 3), (8, 3), (9, 3),
                                 (16, 3), (3, 4), (8, 4), (2, 5), (5, 5)])
def test_tables_match_reference_build(q, d):
    S = ProjSpace(field_of_order(q), d)
    want = ref_tables(S)
    # getattr, not vars(S): the dense tables are built on first read
    got = {name: getattr(S, name) for name in want if name != "code_points"}
    got["code_points"] = S.code_points()
    for name, ref in want.items():
        if ref is None:
            assert got[name] is None, name
        else:
            assert got[name].dtype == ref.dtype, name
            assert np.array_equal(got[name], ref), name
    # and canon_index_many on every nonzero multiple of every point
    vecs = S.field.mul_t[np.arange(1, q)[:, None, None], S.pts].reshape(-1, d)
    assert (S.canon_index_many(vecs) == ref_canon_index_many(S, vecs)).all()


def test_space_build_transient_memory():
    # the [L k^2] repeat/tile join table and the per-lead canon loops
    # peaked 9.9 MB above the tables the space keeps
    f = make_field(5)
    tracemalloc.start()
    try:
        S = ProjSpace(f, 5)
        assert S.join_t is not None and S.meet_t is None  # built on read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 4 << 20


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (4, 3), (5, 3), (3, 4),
                                 (2, 5)])
def test_fresh_space_holds_only_its_tables(q, d):
    # a table a later change stores on the space has to be named here
    S = ProjSpace(field_of_order(q), d)
    held = {k: v for k, v in vars(S).items() if isinstance(v, np.ndarray)}
    assert set(held) == {"pts", "_point_of", "_offs", "_qpow", "line_pts",
                         "_lead", "_line_base", "pt_lines"}
    assert all(isinstance(v, int) for k, v in vars(S).items()
               if k not in held and k != "field")
    # int32 pts, code table, offsets, lines and pencils (P r = L k) and
    # point leads; int64 digit weights and line bases
    P, L = space_size(q, d)
    k = q + 1
    assert sum(a.nbytes for a in held.values()) == (
        4 * (P * d + q ** d + d + 2 * L * k + P) + 8 * (d + P * d))


def test_dense_tables_are_built_on_first_read():
    S = space(3, 1, 3)
    assert not {"on_line", "join_t", "meet_t"} & set(vars(S))
    assert S.join_t is S.join_t and "join_t" in vars(S)
    assert S.join_idx(0, 1) == S.join_t[0, 1]
    big = space(2, 1, 7)   # 2667 lines: no meet table
    assert big.meet_t is None and big.join_t is not None


def test_sweep_tables_refused_from_q_and_d():
    for q, d in [(2, 3), (2, 6), (43, 3)]:
        P, L = space_size(q, d)
        assert P <= projgeom._JOIN_TABLE_CAP and L <= projgeom._MEET_TABLE_CAP
        check_sweep_tables(q, d)
    assert space_size(2, 7) == (127, 2667)
    for q, d in [(2, 7), (47, 3), (2, 12), (3, 8)]:
        with pytest.raises(GeomError, match="incidence tables"):
            check_sweep_tables(q, d)
    with pytest.raises(GeomError, match="dim_v"):
        check_sweep_tables(5, 1)


def test_space_tables_are_read_only():
    # space_of hands one space to every caller, so no caller may write
    # to it; the tables built on first read are sealed too
    S = space_of(make_field(3), 3)
    for name in ("pts", "line_pts", "pt_lines", "on_line", "join_t",
                 "meet_t"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(S, name)[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        S.code_points()[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        S.line_pts += 1
    assert not [k for k, v in vars(S).items()
                if isinstance(v, np.ndarray) and v.flags.writeable]


def test_space_of_shares_a_space_until_evicted():
    f = make_field(3)
    S = space_of(f, 3)
    assert space_of(f, 3) is S and space_of(make_field(3), 3) is S
    assert isinstance(S, ProjSpace) and (S.field, S.d) == (f, 3)
    for q, d in [(2, 2), (3, 2), (4, 2), (2, 3)]:   # four other spaces
        space_of(field_of_order(q), d)
    T = space_of(f, 3)   # evicted: built afresh, with equal tables
    assert T is not S
    for name in ("pts", "line_pts", "pt_lines", "_lead", "_line_base"):
        assert np.array_equal(getattr(T, name), getattr(S, name)), name


@pytest.mark.parametrize("q,d", [(2, 5), (3, 4), (5, 3)])
def test_line_build_in_slices_matches_one_slice(q, d, monkeypatch):
    # the line build spans 7 lines a slice, which leaves a short last
    # slice at each of these sizes; the pencils take max(1, 7 // (q + 1))
    # lines a slice
    whole = ProjSpace(field_of_order(q), d)
    monkeypatch.setattr(projgeom, "_LINE_CHUNK", 7)
    cut = ProjSpace(field_of_order(q), d)
    assert whole.n_lines > 7 and whole.n_lines % 7
    for name in ("line_pts", "pt_lines", "_lead", "_line_base"):
        assert getattr(cut, name).dtype == getattr(whole, name).dtype
        assert np.array_equal(getattr(cut, name), getattr(whole, name)), name


def test_incidence_build_peak_memory():
    # an int64 argsort order over all L (q + 1) entries, next to the
    # int32 pencils, made this step of the P^10(F_2) build peak at 32 MB
    # for the 8 MB it keeps
    S = ProjSpace(make_field(2), 11)
    held = S.pt_lines
    tracemalloc.start()
    try:
        S._build_incidence()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(S.pt_lines, held)
    assert peak < 12 << 20


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL + [(2, 1, 5), (7, 1, 3)]),
       st.sampled_from(["point", "line", "half", "all but one", "all"]),
       st.integers(0, 2 ** 32 - 1))
def test_line_counts_match_gathered_rows(pnd, kind, seed):
    # from the pencils of U or of its complement, whichever is smaller;
    # halves of an odd P fall on either side of the switch
    S = space_of(make_field(*pnd[:2]), pnd[2])
    rng = np.random.default_rng(seed)
    P = S.n_points
    inU = np.zeros(P, dtype=bool)
    if kind == "point":
        inU[rng.integers(P)] = True
    elif kind == "line":
        inU[S.line_pts[rng.integers(S.n_lines)]] = True
    elif kind == "half":
        inU[rng.choice(P, size=P // 2 + int(rng.integers(2)),
                       replace=False)] = True
    else:
        inU[:] = True
        if kind == "all but one":
            inU[rng.integers(P)] = False
    got = S.line_counts(inU)
    assert got.shape == (S.n_lines,)
    assert (got == inU[S.line_pts].sum(axis=1)).all()


def test_line_build_peak_memory():
    # the [L, d] basis gathers and field sums of every line at once made
    # the build of P^10(F_2) peak at 130.8 MB for 26.7 MB held; int64
    # basis-index lists and a second int64 copy of the incidence order
    # made it peak at 58.8 MB; it peaks at 19.4 MB, and the bound leaves
    # a 4.5 MB margin, so a doubled transient fails
    f = make_field(2)
    tracemalloc.start()
    try:
        ProjSpace(f, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


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
                pts.add(ref_canon_index(S, w))
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
            x = S.meet_t[l, m]
            common = set(map(int, S.line_pts[l])) & set(map(int, S.line_pts[m]))
            if x < 0:
                assert not common
            else:
                assert common == {x}


def test_join_meet_reject_equal_args():
    S = space(3, 1, 3)
    with pytest.raises(GeomError):
        S.join_idx(4, 4)


def test_planes_have_no_skew_lines():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        S = space(p, n, 3)
        for l in range(S.n_lines):
            for m in range(l + 1, S.n_lines):
                assert S.meet_t[l, m] >= 0


def test_dim4_has_skew_lines():
    S = space(2, 1, 4)
    skew = sum(
        1
        for l in range(S.n_lines)
        for m in range(l + 1, S.n_lines)
        if S.meet_t[l, m] < 0
    )
    assert skew > 0


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
# axioms
# ---------------------------------------------------------------------------

def test_axioms_exhaustive_small_planes():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        S = space(p, n, 3)
        rep = check_axioms(S)
        assert rep.ok
        assert rep.witness is None
        T = len(noncollinear_triples(S))
        k = S.pts_per_line
        assert rep.checked["axiom_ii_configs"] == T * (k * k - 1)


def test_axioms_exhaustive_dim4():
    rep = check_axioms(space(2, 1, 4))
    assert rep.ok


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


def ref_desargues_config(S, ps, qs):
    """(left, right) of one configuration of point indices from the
    definitions, None when it is not admissible.  Reads the join_t, meet_t
    and line_pts the sweeps read.  Left: the connectors p_i v q_i, with
    repeated lines dropped, are concurrent.  Right: the side meets
    (p_i v p_j) ^ (q_i v q_j) exist and are collinear."""
    jt, mt, lp = S.join_t, S.meet_t, S.line_pts

    def collinear(pts):
        pts = list(dict.fromkeys(pts))
        return len(pts) <= 2 or all(x in lp[jt[pts[0], pts[1]]]
                                    for x in pts[2:])

    sides = [(0, 1), (1, 2), (2, 0)]
    if (collinear(ps) or collinear(qs) or any(p == q for p, q in zip(ps, qs))
            or any(jt[ps[i], ps[j]] == jt[qs[i], qs[j]] for i, j in sides)):
        return None
    lines = list(dict.fromkeys(int(jt[p, q]) for p, q in zip(ps, qs)))
    x = mt[lines[0], lines[1]] if len(lines) > 1 else None
    left = x is None or (x >= 0 and all(x in lp[l] for l in lines[2:]))
    rs = [int(mt[jt[ps[i], ps[j]], jt[qs[i], qs[j]]]) for i, j in sides]
    right = min(rs) >= 0 and collinear(rs)
    return left, right


def test_desargues_single_config_true_case():
    # a visibly perspective pair: project one triangle from a center
    S = space(5, 1, 3)
    ps = list(frame_of(S))
    o = ref_canon_index(S, [1, 1, 1])
    qs = [int(next(r for r in S.line_pts[S.join_t[o, p]] if r not in (o, p)))
          for p in ps]
    assert desargues_admissible(S, ps, qs)
    assert ref_desargues_config(S, ps, qs) == (True, True)


@pytest.mark.parametrize("q,d", [(3, 3), (4, 3), (2, 4)])
def test_admissibility_matches_reference(q, d):
    S = ProjSpace(field_of_order(q), d)
    rng = np.random.default_rng(1000 * q + d)
    seen = Counter()
    for _ in range(600):
        six = rng.integers(0, S.n_points, size=6)
        kind = int(rng.integers(0, 4))
        if kind == 1:     # a point repeated, in one triple or across both
            i, j = rng.choice(6, size=2, replace=False)
            six[j] = six[i]
        elif kind == 2:   # a collinear triple
            t = 3 * int(rng.integers(0, 2))
            if six[t] != six[t + 1]:
                six[t + 2] = rng.choice(S.line_pts[S.join_t[six[t],
                                                            six[t + 1]]])
        elif kind == 3:   # a shared side: q_i, q_j on the line p_i v p_j
            i, j = rng.choice(3, size=2, replace=False)
            if six[i] != six[j]:
                six[[3 + i, 3 + j]] = rng.choice(
                    S.line_pts[S.join_t[six[i], six[j]]], size=2,
                    replace=False)
        ps, qs = [int(x) for x in six[:3]], [int(x) for x in six[3:]]
        want = ref_desargues_config(S, ps, qs) is not None
        assert desargues_admissible(S, ps, qs) == want, (ps, qs)
        seen[kind, want] += 1
    assert seen[0, True] and seen[1, True]
    assert seen[1, False] and seen[2, False] and seen[3, False]


def test_desargues_exhaustive_f2_against_slow_oracle():
    S = space(2, 1, 3)
    n, wit = desargues_sweep(S)
    assert wit is None
    assert n == 13440
    # independent recount, one configuration at a time
    tri = [tuple(map(int, t)) for t in noncollinear_triples(S)]
    slow = 0
    for ps in tri:
        for qs in tri:
            sides = ref_desargues_config(S, ps, qs)
            if sides is None:
                continue
            slow += 1
            assert sides[0] == sides[1]
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


def ref_sampled_desargues(space, sample, seed=0):
    """Per-draw loop the batched sampled sweep replaced."""
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < sample:
        idx = rng.integers(0, space.n_points, size=6)
        ps, qs = [int(i) for i in idx[:3]], [int(i) for i in idx[3:]]
        sides = ref_desargues_config(space, ps, qs)
        if sides is None:
            continue
        if sides[0] != sides[1]:
            return checked, tuple(ps) + tuple(qs)
        checked += 1
    return checked, None


def _knockout(S, rng):
    """meet_t with a random quarter of the meeting pairs (l, m) made skew,
    one way round."""
    bad = S.meet_t.copy()
    l, m = np.nonzero(bad >= 0)
    pick = rng.choice(len(l), size=len(l) // 4, replace=False)
    bad[l[pick], m[pick]] = -1
    return bad


SAMPLED = [(3, 1, 3), (2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 5)]


@pytest.mark.parametrize("p,n,d", SAMPLED)
def test_sampled_sweep_matches_object_loop(p, n, d, monkeypatch):
    monkeypatch.setattr(_kernels, "_CHUNK", 256)   # kernel chunks of 16 rows
    S = space(p, n, d)
    for seed in range(5):
        want = ref_sampled_desargues(S, 400, seed)
        assert want == (400, None)
        assert desargues_sweep(S, sample=400, seed=seed) == want
    # corrupted meet tables: the witness and the count before it agree
    rng = np.random.default_rng(100 * p + d)
    witnesses = 0
    for seed in range(5):
        for mt in (_planted_meet(S), _knockout(S, rng)):
            T = copy.copy(S)
            T.meet_t = mt
            want = ref_sampled_desargues(T, 300, seed)
            assert desargues_sweep(T, sample=300, seed=seed) == want
            witnesses += want[1] is not None
    assert witnesses >= 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300))
def test_sampled_sweep_property(seed, sample):
    S = space(3, 1, 4)
    T = copy.copy(S)
    T.meet_t = _knockout(S, np.random.default_rng(seed))
    for U in (S, T):
        assert (desargues_sweep(U, sample=sample, seed=seed)
                == ref_sampled_desargues(U, sample, seed))


def test_sampled_sweep_needs_tables():
    S = space(3, 1, 4)
    for name in ("join_t", "meet_t"):
        bare = copy.copy(S)
        setattr(bare, name, None)
        for sample in (None, 50):
            with pytest.raises(GeomError, match="full incidence tables"):
                desargues_sweep(bare, sample=sample)


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
    # meet_many against the meet table
    for S in (space(3, 1, 3), space(2, 1, 4), space(3, 1, 4)):
        rng = np.random.default_rng(S.n_lines)
        ls = rng.integers(0, S.n_lines, size=300)
        ms = rng.integers(0, S.n_lines, size=300)
        keep = ls != ms
        got = S.meet_many(ls[keep], ms[keep])
        assert np.array_equal(got, S.meet_t[ls[keep], ms[keep]])
        assert (got < 0).any() == (S.d > 3)


# ---------------------------------------------------------------------------
# frame-reduced exhaustive sweep
# ---------------------------------------------------------------------------

def frame_of(S):
    """Point indices of e1, e2, e3."""
    return tuple(ref_canon_index(S, [int(i == j) for i in range(S.d)])
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


def ref_noncollinear_triples_mask(S):
    """The on_line gather the line_pts scatter replaced."""
    P = S.n_points
    a, b = np.nonzero(~np.eye(P, dtype=bool))
    flat = np.flatnonzero(~S.on_line.T[S.join_t[a, b]])
    return np.stack([a[flat // P], b[flat // P], flat % P],
                    axis=1).astype(np.int32)


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


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (4, 3), (3, 4), (2, 5)])
def test_noncollinear_triples_matches_mask_gather(q, d):
    S = ProjSpace(field_of_order(q), d)
    got = noncollinear_triples(S)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref_noncollinear_triples_mask(S))


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


def _frame_transports(space, tri, point_of):
    """Point maps g_a with g_a(e1, e2, e3) = a, one row per triple a: the
    transport certificate the generator orbit replaced.

    g_a is induced by the matrix whose first three columns are the
    representatives pts[a], completed by standard basis vectors off the
    pivot columns of a row echelon form of pts[a].  point_of is
    space.code_points().  A point whose image is zero (a singular matrix,
    from a collinear triple) maps to -1."""
    f, d, n = space.field, space.d, len(tri)
    rows = space.pts[tri].astype(np.int64)
    mats = np.zeros((n, d, d), dtype=np.int64)
    mats[:, :, :3] = rows.transpose(0, 2, 1)
    if d > 3:
        ech, ar = rows.copy(), np.arange(n)
        pivot = np.zeros((n, d), dtype=bool)
        for r in range(3):
            c = np.argmax(ech[:, r] != 0, axis=1)
            pivot[ar, c] = True
            inv = f.inv_t[ech[ar, r, c]]
            for s in range(r + 1, 3):
                fac = f.neg_t[f.mul_t[ech[ar, s, c], inv]]
                ech[:, s] = f.add_t[ech[:, s], f.mul_t[fac[:, None], ech[:, r]]]
        free = np.argsort(pivot, axis=1, kind="stable")[:, :d - 3]
        mats[ar[:, None], free, np.arange(3, d)] = 1
    return point_of[mat_apply(f, mats, space.pts) @ space._qpow]


def _certify_transports(space, tri):
    """Raise GeomError unless every transport of a row of tri is a
    collineation of the tables: a bijection that sends the standard frame
    to the row and carries each row of line_pts onto a row of line_pts.

    Needs join_t consistent with line_pts: then a line goes onto the join
    of its first two images when every image lies on that join, and
    bijectivity makes the images fill it."""
    P, L, k = space.n_points, space.n_lines, space.pts_per_line
    frame = space._offs[:3]   # indices of e1, e2, e3
    point_of = space.code_points()
    step = max(1, _kernels._CHUNK // (L * k + P * space.d))
    for s in range(0, len(tri), step):
        part = tri[s:s + step]
        g = _frame_transports(space, part, point_of)
        ok = (np.sort(g, axis=1) == np.arange(P)).all(axis=1)
        ok &= (g[:, frame] == part).all(axis=1)
        img = g[:, space.line_pts]
        # joins of each line's first image with the others, all one line
        joins = space.join_t.ravel()[img[..., :1] * P + img[..., 1:]]
        ok &= ((joins[..., 0] >= 0).all(axis=1)
               & (joins == joins[..., :1]).all(axis=(1, 2)))
        if not ok.all():
            bad = tuple(int(x) for x in part[np.argmin(ok)])
            raise GeomError("transport of triple %s is not a collineation "
                            "of the incidence tables" % (bad,))


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


# ---------------------------------------------------------------------------
# counting certificate of the incidence tables
# ---------------------------------------------------------------------------

def _skew_pair_given_a_point(S, T):
    l, m = np.argwhere(S.meet_t < 0)[1]   # [0] is the diagonal entry (0, 0)
    T.meet_t[l, m] = 0


def _meeting_pair_set_to_minus_one(S, T):
    T.meet_t[S.pt_lines[5, 0], S.pt_lines[5, 1]] = -1


def _meeting_pair_given_a_wrong_point(S, T):
    T.meet_t[S.pt_lines[5, 0], S.pt_lines[5, 1]] = 6


def _pencils_swapped(S, T):
    # pencils of 0 and 1 swapped, with meet_t relabelled to match: every
    # count and the meet gather still hold, only the containment fails
    T.pt_lines[[0, 1]] = S.pt_lines[[1, 0]]
    T.meet_t[S.meet_t == 0], T.meet_t[S.meet_t == 1] = 1, 0


def _repeated_point_on_a_line(S, T):
    T.line_pts[7, 1] = S.line_pts[7, 0]


def _wrong_join_entry(S, T):
    T.join_t[0, 1] = S.pt_lines[0][S.pt_lines[0] != S.join_t[0, 1]][0]


def _join_diagonal_set(S, T):
    T.join_t[3, 3] = S.pt_lines[3, 0]


def _unsorted_line(S, T):
    T.line_pts[7, [0, 1]] = S.line_pts[7, [1, 0]]


def _unsorted_pencil(S, T):
    T.pt_lines[4, [0, 1]] = S.pt_lines[4, [1, 0]]


def _pencil_entry_out_of_range(S, T):
    # -1 indexes line L - 1, so the row still reads as x's pencil
    x = S.line_pts[-1, 0]
    T.pt_lines[x] = np.roll(S.pt_lines[x], 1)
    T.pt_lines[x, 0] = -1


@pytest.mark.parametrize("corrupt", [
    _skew_pair_given_a_point, _meeting_pair_set_to_minus_one,
    _meeting_pair_given_a_wrong_point, _pencils_swapped,
    _repeated_point_on_a_line, _wrong_join_entry, _join_diagonal_set,
    _unsorted_line, _unsorted_pencil, _pencil_entry_out_of_range])
def test_counting_certificate_refuses(corrupt):
    S = space(3, 1, 4)
    projgeom._check_tables(S)
    T = copy.copy(S)
    for name in ("line_pts", "pt_lines", "join_t", "meet_t"):
        setattr(T, name, getattr(S, name).copy())
    corrupt(S, T)
    with pytest.raises(GeomError, match="disagree"):
        projgeom._check_tables(T)


# ---------------------------------------------------------------------------
# stabilizer chain certificate
# ---------------------------------------------------------------------------

def ref_frame_orbit(S, gens):
    """Orbit of the frame triple (e1, e2, e3) under the point maps gens,
    as a seen-mask over the triple codes (a P + b) P + c: the [P^3]
    breadth-first search the stabilizer chain replaced."""
    P = S.n_points
    g = np.asarray(gens, dtype=np.int64)
    a, b, c = S._offs[:3]
    frontier = np.array([(a * P + b) * P + c])
    seen = np.zeros(P ** 3, dtype=bool)
    seen[frontier] = True
    step = max(1, _kernels._CHUNK // len(g))
    while len(frontier):
        grown = seen.copy()
        for s in range(0, len(frontier), step):
            ab, c = np.divmod(frontier[s:s + step], P)
            a, b = np.divmod(ab, P)
            grown[(g[:, a] * P + g[:, b]) * P + g[:, c]] = True
        frontier = np.flatnonzero(grown ^ seen)
        seen = grown
    return seen


def ref_orbit_is_every_triple(S, gens):
    P = S.n_points
    tri = noncollinear_triples(S).astype(np.int64)
    codes = (tri[:, 0] * P + tri[:, 1]) * P + tri[:, 2]
    return np.array_equal(np.flatnonzero(ref_frame_orbit(S, gens)), codes)


def chain_accepts(S, cols, gens):
    try:
        projgeom._stabilizer_chain(S, cols, gens)
    except GeomError:
        return False
    return True


def elementary_maps(S, entries):
    """(cols, point maps) of the transvections I + E_ij, (i, j) in
    entries (0-based)."""
    mats = np.tile(np.eye(S.d, dtype=np.int64), (len(entries), 1, 1))
    i, j = np.array(entries).T
    mats[np.arange(len(entries)), i, j] = 1
    return j, S.code_points()[mat_apply(S.field, mats, S.pts) @ S._qpow]


UPPER = [(0, 1), (0, 2), (1, 2)]   # fix e1: the frame's orbit is q^3 triples
LOWER = [(1, 0), (2, 0), (2, 1)]   # fix e3: e1 reaches q^2 points


@pytest.mark.parametrize("p,n,d", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_frame_orbit_is_every_noncollinear_triple(p, n, d):
    S = space(p, n, d)
    cols, gens = projgeom._transvection_maps(S)
    assert len(gens) == len(cols) == d * (d - 1) * n
    assert ref_orbit_is_every_triple(S, gens)
    assert chain_accepts(S, cols, gens)
    for entries in (UPPER, LOWER):
        sub = elementary_maps(S, entries)
        assert not ref_orbit_is_every_triple(S, sub[1])
        assert not chain_accepts(S, *sub)


@pytest.mark.parametrize("p,n,d", [(3, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_chain_accepts_only_transitive_sets(p, n, d):
    # every subset of the transvections missing one or two of them: the
    # chain is sufficient, so it never accepts a set whose frame orbit
    # misses a triple.  It is not necessary: it refuses sets that still
    # generate SL_d(q) through commutators, such as one without I + E_23
    S = space(p, n, d)
    cols, gens = projgeom._transvection_maps(S)
    seen = Counter()
    for k in (1, 2):
        for drop in itertools.combinations(range(len(gens)), k):
            keep = np.setdiff1d(np.arange(len(gens)), drop)
            accepts = chain_accepts(S, cols[keep], gens[keep])
            if accepts:
                assert ref_orbit_is_every_triple(S, gens[keep]), drop
            seen[accepts] += 1
    assert seen[True] and seen[False]


def test_orbit_of_a_unitriangular_set_is_refused(monkeypatch):
    # the upper-unitriangular transvections fix e1, so the frame's orbit
    # is the q^3 triples (e1, e2 + a e1, e3 + b e1 + c e2), and the chain
    # stops at its first level
    S = space(3, 1, 3)
    maps = elementary_maps(S, UPPER)
    monkeypatch.setattr(projgeom, "_transvection_maps", lambda S: maps)
    for sweep in (check_axioms, desargues_sweep):
        with pytest.raises(GeomError, match="level 0: the orbit of e1 "
                                            "reaches 1 of the 13 points"):
            sweep(S)


def test_non_collineation_generator_is_refused(monkeypatch):
    # a transposition of two points breaks incidence; added to a
    # transitive set, only the Collineation check can catch it
    S = space(3, 1, 3)
    cols, gens = projgeom._transvection_maps(S)
    swap = np.arange(S.n_points)
    swap[[0, 1]] = [1, 0]
    stacked = np.append(cols, 2), np.vstack([gens, swap])
    monkeypatch.setattr(projgeom, "_transvection_maps", lambda S: stacked)
    for sweep in (check_axioms, desargues_sweep):
        with pytest.raises(GeomError, match="not a collineation"):
            sweep(S)


@pytest.mark.parametrize("level", [1, 2])
def test_generator_that_moves_a_base_point_is_refused(level, monkeypatch):
    # a collineation planted at a level whose base point it moves; at
    # level 2 the orbit of e3 is still the 9 points off e1 v e2, so only
    # the fixing check catches it there
    S = space(3, 1, 3)
    cols, gens = projgeom._transvection_maps(S)
    planted = cols.copy()
    g = int(np.flatnonzero(cols == level - 1)[0])
    planted[g] = level
    assert chain_accepts(S, cols, gens)
    monkeypatch.setattr(projgeom, "_transvection_maps",
                        lambda S: (planted, gens))
    for sweep in (check_axioms, desargues_sweep):
        with pytest.raises(GeomError, match="level %d: generator %d moves "
                                            "e%d" % (level, g, level)):
            sweep(S)


# ---------------------------------------------------------------------------
# axiom II on the frame row
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4),
                                 (2, 5)])
def test_frame_row_axiom2_matches_full_scan(q, d):
    S = ProjSpace(field_of_order(q), d)
    tri = noncollinear_triples(S)
    want = _kernels.axiom2_scan(tri, S.join_t, S.meet_t, S.line_pts)
    assert want[1] is None
    rep = check_axioms(S)
    assert rep.ok and rep.witness is None
    assert rep.checked["axiom_ii_configs"] == want[0]
    assert type(rep.checked["axiom_ii_configs"]) is int


@pytest.mark.parametrize("q,d,want", [
    (2, 4, 20160), (3, 4, 842400), (4, 4, 13708800), (2, 5, 208320)])
def test_axiom2_counts_off_the_plane_frozen(q, d, want):
    # T ((q + 1)^2 - 1); the first three equal the full per-triple scan
    # (test_frame_row_axiom2_matches_full_scan), (4, 4) was checked
    # against it once when frozen
    rep = check_axioms(ProjSpace(field_of_order(q), d))
    assert rep.ok and rep.checked["axiom_ii_configs"] == want


def test_frame_row_witness_counts_up_to_it():
    # with the certificate taken on the true tables, a planted skew pair
    # on the frame's lines fails axiom II on the frame triple itself
    S = space(3, 1, 3)
    T = projgeom.certify_triples(S)
    frame = tuple(int(x) for x in S._offs[:3])
    bad_space = copy.copy(S)
    bad_space.meet_t = S.meet_t.copy()
    l, m = S.join_idx(frame[1], frame[2]), S.join_idx(*frame[:2])
    x = S.line_pts[m][S.line_pts[m] != frame[0]][0]
    y = S.line_pts[S.join_idx(frame[0], frame[2])][1]
    lxy = S.join_t[x, y]
    bad_space.meet_t[l, lxy] = bad_space.meet_t[lxy, l] = -1
    want = _kernels.axiom2_scan(np.array([frame]), S.join_t,
                                bad_space.meet_t, S.line_pts)
    assert want[1] == frame
    rep = check_axioms(bad_space, triples=T)
    assert not rep.ok
    assert rep.witness == frame
    assert rep.checked["axiom_ii_configs"] == want[0] < T
    with pytest.raises(GeomError, match="disagree"):
        check_axioms(bad_space)


def test_projective_line_has_no_chain(monkeypatch):
    def no_chain(*args):
        raise AssertionError("the chain ran")
    monkeypatch.setattr(projgeom, "_stabilizer_chain", no_chain)
    S = space(5, 1, 2)
    assert projgeom.certify_triples(S) == 0
    rep = check_axioms(S)
    assert rep.ok and rep.checked["axiom_ii_configs"] == 0


def test_triple_budget_refused_before_the_certificate(monkeypatch):
    # P^2(F_13) has 5628714 ordered non-collinear triples
    def no_tables(space):
        raise AssertionError("the tables were checked")
    monkeypatch.setattr(projgeom, "_check_tables", no_tables)
    S = space(13, 1, 3)
    for sweep in (projgeom.certify_triples, check_axioms, desargues_sweep):
        with pytest.raises(GeomError, match="budget: 5628714 ordered "
                                            "non-collinear triples"):
            sweep(S)
