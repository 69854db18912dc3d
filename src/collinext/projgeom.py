"""Projective spaces P(V) for V = k^d over a finite field.

Points are canonicalized so the leftmost nonzero coordinate is 1 and are
addressed by an index in a fixed enumeration (leading position ascending,
then remaining coordinates lexicographic).  Lines are 2-dimensional
subspaces enumerated by their reduced row-echelon basis and looked up by
their two lowest points.  A space is built with its points, lines and
pencils; the dense point-on-line mask and the join/meet lookup tables
that the sweeps read are built on first read.  Above their caps the
join/meet tables are None.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF, mat_apply

P_CAP = 10_000          # hard point-count cap, desk scale
_JOIN_TABLE_CAP = 2048  # P x P join table below this many points
_MEET_TABLE_CAP = 2048  # L x L meet table below this many lines
TRIPLE_CAP = 4_000_000  # ordered non-collinear triples an exhaustive sweep takes


class GeomError(Exception):
    pass


def gaussian_binomial(d, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def space_size(q, d):
    """(points, lines) of P(F_q^d), from q and d alone; refused above
    P_CAP points, before anything is allocated."""
    if d < 2:
        raise GeomError("dim_v must be >= 2")
    P = (q ** d - 1) // (q - 1)
    if P > P_CAP:
        raise GeomError("space has %d points, cap is %d" % (P, P_CAP))
    return P, gaussian_binomial(d, 2, q)


def check_sweep_tables(q, d):
    """Refuse P(F_q^d), before anything is allocated, when the join or
    meet table that the sweeps read would be over its cap."""
    P, L = space_size(q, d)
    if P > _JOIN_TABLE_CAP or L > _MEET_TABLE_CAP:
        raise GeomError("sweeps need full incidence tables: %d points "
                        "(cap %d), %d lines (cap %d)"
                        % (P, _JOIN_TABLE_CAP, L, _MEET_TABLE_CAP))


class ProjSpace:
    """P(k^d) with its full point/line incidence structure."""

    def __init__(self, field, dim_v):
        if not isinstance(field, GF):
            raise GeomError("field must be a GF instance")
        self.field = field
        self.d = int(dim_v)
        q = field.q
        self.q = q
        self.n_points, self.n_lines = space_size(q, self.d)
        self.pts_per_line = q + 1
        self.lines_per_pt = (q ** (self.d - 1) - 1) // (q - 1)
        # weights of a vector code, see code_vectors
        self._qpow = q ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        self._build_points()
        # point index of every vector code, from the nonzero multiples
        multiples = field.mul_t[np.arange(1, q)[:, None, None], self.pts]
        self._point_of = np.full(q ** self.d, -1, dtype=np.int32)
        self._point_of[self._vector_code(multiples)] = np.arange(self.n_points)
        self._point_of.flags.writeable = False
        # index of each standard basis vector e_j: where lead j starts
        self._offs = self.canon_index_many(np.eye(self.d, dtype=np.int64))
        self._build_lines()
        self._build_incidence()

    # -- construction ------------------------------------------------------

    def _build_points(self):
        q, d = self.q, self.d
        pts = np.zeros((self.n_points, d), dtype=np.int32)
        pos = 0
        for j in range(d):
            nfree = d - 1 - j
            cnt = q ** nfree
            block = np.zeros((cnt, d), dtype=np.int32)
            block[:, j] = 1
            t = np.arange(cnt)
            for i in range(nfree):
                block[:, j + 1 + i] = (t // q ** (nfree - 1 - i)) % q
            pts[pos:pos + cnt] = block
            pos += cnt
        self.pts = pts

    def _build_lines(self):
        # the basis (b0, b1) of a line in reduced row-echelon form, with
        # pivots j0 < j1, is a point with lead j0 and a zero at j1 and a
        # point with lead j1; b0 outer, each in point order.  The points
        # with lead j are offs[j] .. offs[j + 1] - 1.
        ends = np.append(self._offs, self.n_points)
        r0s, r1s = [], []
        for j0 in range(self.d):
            lead0 = self.pts[ends[j0]:ends[j0 + 1]]
            for j1 in range(j0 + 1, self.d):
                i0 = ends[j0] + np.flatnonzero(lead0[:, j1] == 0)
                i1 = np.arange(ends[j1], ends[j1 + 1])
                r0s.append(np.repeat(i0, len(i1)))
                r1s.append(np.tile(i1, len(i0)))
        self.line_b0 = self.pts[np.concatenate(r0s)]
        self.line_b1 = self.pts[np.concatenate(r1s)]
        assert len(self.line_b0) == self.n_lines
        lp = self.span_points(self.line_b0, self.line_b1)
        lp.sort(axis=1)
        self.line_pts = lp
        # two distinct points lie on one line, so its lowest pair keys it
        keys = lp[:, 0].astype(np.int64) * self.n_points + lp[:, 1]
        self._key_order = np.argsort(keys, kind="stable")
        self._keys = keys[self._key_order]

    def _build_incidence(self):
        P, k = self.n_points, self.pts_per_line
        flat_pts = self.line_pts.ravel()
        # P < 2^16: a stable sort of uint16 keys is numpy's radix sort
        order = np.argsort(flat_pts.astype(np.uint16), kind="stable")
        counts = np.bincount(flat_pts, minlength=P)
        assert (counts == self.lines_per_pt).all()
        # entry i of flat_pts lies on line i // k
        self.pt_lines = (order // k).astype(np.int32).reshape(
            P, self.lines_per_pt)

    @cached_property
    def on_line(self):
        """[P, L] point-on-line mask, built on first read."""
        on = np.zeros((self.n_points, self.n_lines), dtype=bool)
        on[self.line_pts, np.arange(self.n_lines)[:, None]] = True
        return on

    @cached_property
    def join_t(self):
        """[P, P] line through each pair of distinct points, built on
        first read; None above _JOIN_TABLE_CAP points."""
        if self.n_points > _JOIN_TABLE_CAP:
            return None
        return self._pair_table(self.line_pts, self.n_points)

    @cached_property
    def meet_t(self):
        """[L, L] common point of each pair of distinct lines, -1 where
        skew, built on first read; None above _MEET_TABLE_CAP lines."""
        if self.n_lines > _MEET_TABLE_CAP:
            return None
        return self._pair_table(self.pt_lines, self.n_lines)

    @staticmethod
    def _pair_table(rows, n):
        """[n, n] table of the row holding each pair of distinct entries,
        -1 on the diagonal and for pairs that share no row; one row
        scatter per column, with no [rows * k^2] temporary."""
        t = np.full((n, n), -1, dtype=np.int32)
        idx = np.arange(len(rows), dtype=np.int32)[:, None]
        rows = rows.astype(np.intp)   # native index width scatters faster
        for i in range(rows.shape[1]):
            t[rows[:, i:i + 1], rows] = idx
        np.fill_diagonal(t, -1)
        return t

    # -- canonical forms ---------------------------------------------------

    def canon_index_many(self, vecs):
        """Point index of every nonzero vector of an [..., d] array of
        index vectors: its vector code, then one code_points lookup."""
        idx = self._point_of[self._vector_code(np.asarray(vecs))]
        if (idx < 0).any():
            raise GeomError("zero vector has no projective class")
        return idx

    def _vector_code(self, vecs):
        """Vector code of every row of an [..., d] array, by Horner."""
        code = vecs[..., 0].astype(np.int64)
        for j in range(1, self.d):
            code = code * self.q + vecs[..., j]
        return code

    def code_vectors(self):
        """The coordinate vector of every vector code 0 .. q^d - 1.

        The code of a coordinate vector is the base-q number of its field
        indices, first entry most significant."""
        codes = np.arange(self.q ** self.d)[:, None]
        return (codes // self._qpow % self.q).astype(np.int32)

    def code_points(self):
        """Point index of every vector code, int32, -1 for the zero vector;
        one read-only table built with the space."""
        return self._point_of

    def span_points(self, b0, b1):
        """Points of span(b0[i], b1[i]) for [n, d] stacks of independent
        vectors, as an [n, q + 1] array: b0 + c b1 for c < q, then b1."""
        f = self.field
        cols = [self.canon_index_many(f.add_t[b0, f.mul_t[c, b1]])
                for c in range(self.q)]
        cols.append(self.canon_index_many(b1))
        return np.stack(cols, axis=1)

    def line_of(self, a, b):
        """Line whose two lowest points are a < b, elementwise; -1 where
        no line has that lowest pair."""
        key = np.asarray(a, dtype=np.int64) * self.n_points + b
        pos = np.minimum(np.searchsorted(self._keys, key), self.n_lines - 1)
        return np.where(self._keys[pos] == key, self._key_order[pos], -1)

    # -- index-level operations -------------------------------------------

    def join_idx(self, p, q):
        """Line through two distinct points: the one line of both pencils."""
        if p == q:
            raise GeomError("join needs two distinct points")
        return int(np.intersect1d(self.pt_lines[p], self.pt_lines[q])[0])

    def meet_many(self, ls, ms):
        """Common point of each pair of distinct lines of two arrays, -1
        where skew."""
        a, b = self.line_pts[ls], self.line_pts[ms]
        hit = (a[:, :, None] == b[:, None, :]).any(axis=2)
        return np.where(hit.any(axis=1),
                        a[np.arange(len(a)), hit.argmax(axis=1)], -1)

    def __repr__(self):
        return "ProjSpace(%r, d=%d)" % (self.field, self.d)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    ok: bool
    checked: dict
    witness: tuple | None


def _full_tables(space):
    """(join_t, meet_t, line_pts), the tables the sweeps read; refused
    when the join or meet table is over its cap."""
    jt, mt = space.join_t, space.meet_t
    if jt is None or mt is None:
        raise GeomError("sweeps need full incidence tables")
    return jt, mt, space.line_pts


def _triple_count(space):
    """T = P (P - 1)(P - k), the number of ordered non-collinear triples;
    refused up front when it exceeds TRIPLE_CAP."""
    P, k = space.n_points, space.pts_per_line
    T = P * (P - 1) * (P - k)
    if T > TRIPLE_CAP:
        raise GeomError("budget: %d ordered non-collinear triples, cap is %d"
                        % (T, TRIPLE_CAP))
    return T


def noncollinear_triples(space):
    """All ordered non-collinear point triples, as an [T, 3] int array.

    Rows are ordered by the first point, then the second, then the third.
    Refused up front when T exceeds TRIPLE_CAP."""
    P = space.n_points
    _triple_count(space)
    jt, _, lp = _full_tables(space)
    a, b = np.nonzero(~np.eye(P, dtype=bool))
    # row (a, b) marks the points of the line a v b as collinear
    off = np.ones((len(a), P), dtype=bool)
    off[np.arange(len(a))[:, None], lp[jt[a, b]]] = False
    flat = np.flatnonzero(off)
    out = np.empty((len(flat), 3), dtype=np.int32)
    out[:, 2] = flat % P
    flat //= P   # now the index of the (a, b) pair
    out[:, 0] = a[flat]
    out[:, 1] = b[flat]
    return out


def check_axioms(space, triples=None):
    """Verify the three incidence axioms; axiom II on every configuration.

    The certificate's table check proves axiom I, and every line has
    q + 1 >= 3 points (axiom III), so ok is axiom II.  Axiom II asks, for
    each ordered non-collinear triple (a, b, c), that every line joining
    a point of a v b to a different point of a v c meets b v c.  That is an
    incidence property, so once certify_triples has shown every triple
    to be the image of the frame (e1, e2, e3) under a collineation of the
    tables, every triple has the frame triple's count: the kernel scans
    the frame row only and the count is T times it.  A witness is a
    failure in the frame row (the frame triple), reported with the point
    pairs checked up to it.  triples is the T that certify_triples(space)
    returned, when the caller has run it already; None runs it here.
    """
    from . import _kernels
    tables = _full_tables(space)
    T = certify_triples(space) if triples is None else triples
    n2, bad = 0, None
    if T:   # a projective line has no triple, and no frame
        n2, bad = _kernels.axiom2_scan(space._offs[None, :3], *tables)
    checked = {"points": space.n_points, "lines": space.n_lines,
               "axiom_ii_configs": n2 if bad else T * n2}
    return AxiomReport(bad is None, checked, bad)


# ---------------------------------------------------------------------------
# Desargues
# ---------------------------------------------------------------------------

def desargues_admissible(space, ps, qs):
    """Hypotheses on point indices: both triples non-collinear, p_i != q_i,
    and the three corresponding sides distinct lines (so their
    intersections are points)."""
    for a, b, c in (ps, qs):
        if a == b or c in space.line_pts[space.join_idx(a, b)]:
            return False
    if any(p == q for p, q in zip(ps, qs)):
        return False
    return all(space.join_idx(ps[i], ps[j]) != space.join_idx(qs[i], qs[j])
               for i, j in ((0, 1), (1, 2), (2, 0)))


def _transvection_maps(space):
    """Point maps of the transvections I + x^k E_ij, i != j, 0 <= k < n,
    as (cols, maps): the column j of each ([d (d - 1) n]) and the maps
    ([d (d - 1) n, P]).

    Element index p^k is the monomial x^k, so the x^k are an F_p-basis of
    F_q and these transvections generate SL_d(q).  Representatives of a
    triple can be rescaled, so SL_d(q) is already transitive on ordered
    non-collinear triples and no diagonal generator is needed."""
    f, d = space.field, space.d
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    mats = np.tile(np.eye(d, dtype=np.int64), (len(i) * f.n, 1, 1))
    mats[np.arange(len(mats)), np.repeat(i, f.n), np.repeat(j, f.n)] = \
        np.tile(f.p ** np.arange(f.n), len(i))
    return (np.repeat(j, f.n),
            space.canon_index_many(mat_apply(f, mats, space.pts)))


def _orbit(gens, x):
    """Mask of the orbit of point x under the point maps gens ([n, P]),
    breadth-first: each frontier's images under every generator at once."""
    seen = np.zeros(gens.shape[1], dtype=bool)
    seen[x] = True
    frontier = np.array([x])
    while len(frontier):
        img = gens[:, frontier].ravel()
        frontier = np.unique(img[~seen[img]])
        seen[frontier] = True
    return seen


def _stabilizer_chain(space, cols, gens):
    """Raise GeomError unless the point maps gens are collineations of
    line_pts whose group is transitive on ordered non-collinear triples.

    cols[g] is the column j of the transvection I + x^k E_ij behind gens[g]
    (0-based), which fixes every e_m with m != j.  This is the
    base-and-strong-generating-set form of Schreier-Sims (Sims, 1970) on
    the base e1, e2, e3: level i takes the generators with j >= i, checks
    on their point maps that they fix e1 .. ei, and asks that the orbit
    of e(i+1) be every point off the span of e1 .. ei.  So the group
    moves any point to e1, the stabilizer of e1 moves any other point to
    e2, and the stabilizer of both moves any point off e1 v e2 to e3:
    with the generators collineations, any ordered non-collinear triple
    goes to (e1, e2, e3)."""
    from .semilinear import Collineation, SemilinearError
    try:
        Collineation.many(space, gens)
    except SemilinearError as err:
        raise GeomError("generator is not a collineation of the "
                        "incidence tables: %s" % err)
    base = space._offs[:3]   # indices of e1, e2, e3
    want = np.ones((3, space.n_points), dtype=bool)
    want[1:, base[0]] = False
    want[2, space.line_pts[space.join_idx(base[0], base[1])]] = False
    span = ("", " other than e1", " off e1 v e2")
    for level in range(3):
        at = np.flatnonzero(cols >= level)
        g = gens[at]
        moved = np.argwhere(g[:, base[:level]] != base[:level])
        if len(moved):
            raise GeomError("stabilizer chain level %d: generator %d moves "
                            "e%d" % (level, at[moved[0, 0]], moved[0, 1] + 1))
        seen = _orbit(g, base[level])
        if not np.array_equal(seen, want[level]):
            raise GeomError("stabilizer chain level %d: the orbit of e%d "
                            "reaches %d of the %d points%s"
                            % (level, level + 1,
                               np.count_nonzero(seen & want[level]),
                               np.count_nonzero(want[level]), span[level]))


def _increasing(rows, n):
    """Every row strictly increasing, with entries in range(n)."""
    return bool((np.diff(rows, axis=1) > 0).all() and rows[:, 0].min() >= 0
                and rows[:, -1].max() < n)


def _check_tables(space):
    """Raise GeomError unless join_t, meet_t and pt_lines are the join,
    the meet and the pencils of line_pts, so a collineation of line_pts
    preserves every table; this also proves axiom I.

    By counting: the L k (k - 1) = P (P - 1) ordered pairs of distinct
    points on a line all have that line in join_t, so no pair lies on
    two lines and every pair lies on one (axiom I), and join_t has no
    other entry >= 0.  The P r = L k pencil entries lie on their point,
    so the pencils hold every incidence once.  The P r (r - 1) ordered
    pairs of distinct lines through a point all have that point in
    meet_t, and meet_t has no other entry >= 0."""
    lp, pl = space.line_pts, space.pt_lines
    (L, k), (P, r) = lp.shape, pl.shape
    a, b = np.nonzero(~np.eye(k, dtype=bool))
    c, d = np.nonzero(~np.eye(r, dtype=bool))
    ok = (_increasing(lp, P) and _increasing(pl, L)
          and L * k * (k - 1) == P * (P - 1) and P * r == L * k
          and (space.join_t[lp[:, a], lp[:, b]]
               == np.arange(L)[:, None]).all()
          and np.count_nonzero(space.join_t >= 0) == P * (P - 1)
          and (lp[pl] == np.arange(P)[:, None, None]).any(axis=2).all()
          and (space.meet_t[pl[:, c], pl[:, d]]
               == np.arange(P)[:, None]).all()
          and np.count_nonzero(space.meet_t >= 0) == P * r * (r - 1))
    if not ok:
        raise GeomError("join/meet tables disagree with line_pts")


def certify_triples(space):
    """T, the number of ordered non-collinear triples, once every one of
    them is shown to be the image of the frame (e1, e2, e3) under a
    collineation of the tables; refused up front over TRIPLE_CAP.

    The join, meet and pencil tables must agree with line_pts, so a
    collineation of line_pts preserves every table, and the transvection
    generators must pass the stabilizer chain.  Then every triple has the
    frame triple's count of any incidence-defined configuration, which is
    what lets the exhaustive sweeps scan the frame row and multiply by T.
    A projective line has T = 0 and no frame, so it has no chain."""
    T = _triple_count(space)
    _full_tables(space)
    _check_tables(space)
    if T:
        _stabilizer_chain(space, *_transvection_maps(space))
    return T


def check_plane(d):
    """Refuse a dimension below a plane, where Desargues has no
    configuration; from d alone, before anything is built."""
    if d < 3:
        raise GeomError("Desargues needs a plane: dimension must be at "
                        "least 3")


def desargues_sweep(space, sample=None, seed=0, triples=None):
    """Check left/right agreement over admissible configurations.

    Exhaustive when sample is None: every triple a is g(frame) for a
    collineation g (certify_triples), so every pair (a, b) is the image
    of (frame, g^-1 b).  Admissibility and both sides are
    incidence-defined, so each row has the frame row's count and the
    total is T times it.  A witness is a disagreement in the frame row,
    reported with the configurations checked up to it.  triples is the T
    that certify_triples(space) returned, when the caller has run it
    already; None runs it here.
    Otherwise checks the first `sample` admissible configs among seeded
    uniform 6-tuples of points, drawn in batches through the same kernel,
    and counts those that agree before the witness.  Returns (checked,
    witness).
    """
    from . import _kernels
    check_plane(space.d)
    jt, mt, lp = _full_tables(space)
    if sample is None:
        T = certify_triples(space) if triples is None else triples
        tri = noncollinear_triples(space)
        n, witness = _kernels.desargues_scan(space._offs[:3], tri, jt, mt, lp)
        return (n if witness else T * n), witness
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < sample:
        need = sample - checked
        # one (n, 6) draw is the same stream as n draws of 6
        draw = rng.integers(0, space.n_points, size=(2 * need + 16, 6))
        # p- and q-triples in turn; c = a or b lies on a v b, so is dropped
        a, b, c = draw.reshape(-1, 3).T
        ok = (a != b) & ~_kernels._on(lp, c, jt[a, b])
        draw = draw[ok.reshape(-1, 2).all(axis=1)]
        n, witness = _kernels.desargues_scan(draw[:, :3], draw[:, 3:],
                                             jt, mt, lp)
        if witness is not None and n <= need:
            return checked + n - 1, witness
        checked += min(n, need)
    return checked, None
