"""Projective spaces P(V) for V = k^d over a finite field.

Points are canonicalized so the leftmost nonzero coordinate is 1 and are
addressed by an index in a fixed enumeration (leading position ascending,
then remaining coordinates lexicographic).  Lines are 2-dimensional
subspaces addressed through their reduced row-echelon basis.  Small
spaces carry full join/meet lookup tables; larger ones fall back to
arithmetic on demand.
"""

from dataclasses import dataclass

import numpy as np

from .gf import GF, mat_apply, rref

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


class ProjSpace:
    """P(k^d) with its full point/line incidence structure."""

    def __init__(self, field, dim_v):
        if not isinstance(field, GF):
            raise GeomError("field must be a GF instance")
        if dim_v < 2:
            raise GeomError("dim_v must be >= 2")
        if not field.tabled:
            raise GeomError("geometry needs a table-backed field (q too large)")
        self.field = field
        self.d = int(dim_v)
        q = field.q
        self.q = q
        self.n_points = (q ** self.d - 1) // (q - 1)
        if self.n_points > P_CAP:
            raise GeomError("space has %d points, cap is %d" % (self.n_points, P_CAP))
        self.n_lines = gaussian_binomial(self.d, 2, q)
        self.pts_per_line = q + 1
        self.lines_per_pt = (q ** (self.d - 1) - 1) // (q - 1)
        # weights of a vector code, see code_vectors
        self._qpow = q ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        self._offs = np.zeros(self.d, dtype=np.int64)
        for j in range(1, self.d):
            self._offs[j] = self._offs[j - 1] + q ** (self.d - 1 - (j - 1))
        self._build_points()
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
        q, d = self.q, self.d
        f = self.field
        r0s, r1s = [], []
        for j0 in range(d):
            for j1 in range(j0 + 1, d):
                free0 = [c for c in range(j0 + 1, d) if c != j1]
                free1 = [c for c in range(j1 + 1, d)]
                nf = len(free0) + len(free1)
                cnt = q ** nf
                b0 = np.zeros((cnt, d), dtype=np.int32)
                b1 = np.zeros((cnt, d), dtype=np.int32)
                b0[:, j0] = 1
                b1[:, j1] = 1
                t = np.arange(cnt)
                slots = [(0, c) for c in free0] + [(1, c) for c in free1]
                for i, (r, c) in enumerate(slots):
                    dig = (t // q ** (nf - 1 - i)) % q
                    if r == 0:
                        b0[:, c] = dig
                    else:
                        b1[:, c] = dig
                r0s.append(b0)
                r1s.append(b1)
        self.line_b0 = np.concatenate(r0s)
        self.line_b1 = np.concatenate(r1s)
        assert len(self.line_b0) == self.n_lines
        # points on each line: (1:c) combos then (0:1)
        cols = [self.canon_index_many(
            f.add_t[self.line_b0, f.mul_t[c, self.line_b1]])
            for c in range(q)]
        cols.append(self.canon_index_many(self.line_b1))
        lp = np.stack(cols, axis=1).astype(np.int32)
        lp.sort(axis=1)
        self.line_pts = lp
        # canonical-basis key -> line index, for fallback joins
        self._line_key = {self._basis_key(self.line_b0[i], self.line_b1[i]): i
                          for i in range(self.n_lines)}

    def _build_incidence(self):
        P, L, k = self.n_points, self.n_lines, self.pts_per_line
        flat_pts = self.line_pts.ravel()
        flat_lns = np.repeat(np.arange(L, dtype=np.int32), k)
        order = np.argsort(flat_pts, kind="stable")
        counts = np.bincount(flat_pts, minlength=P)
        assert (counts == self.lines_per_pt).all()
        self.pt_lines = flat_lns[order].reshape(P, self.lines_per_pt)
        self.on_line = np.zeros((P, L), dtype=bool)
        self.on_line[flat_pts, flat_lns] = True
        if P <= _JOIN_TABLE_CAP:
            jt = np.full((P, P), -1, dtype=np.int32)
            a = np.repeat(self.line_pts, k, axis=1).ravel()
            b = np.tile(self.line_pts, (1, k)).ravel()
            jt[a, b] = np.repeat(np.arange(L, dtype=np.int32), k * k)
            np.fill_diagonal(jt, -1)
            self.join_t = jt
        else:
            self.join_t = None
        if L <= _MEET_TABLE_CAP:
            mt = np.full((L, L), -1, dtype=np.int32)
            kk = self.lines_per_pt
            a = np.repeat(self.pt_lines, kk, axis=1).ravel()
            b = np.tile(self.pt_lines, (1, kk)).ravel()
            mt[a, b] = np.repeat(np.arange(P, dtype=np.int32), kk * kk)
            np.fill_diagonal(mt, -1)
            self.meet_t = mt
        else:
            self.meet_t = None

    # -- canonical forms ---------------------------------------------------

    def canon_index(self, vec):
        """Point index of a nonzero coordinate vector."""
        f, q, d = self.field, self.q, self.d
        vec = [int(x) for x in vec]
        j = next((i for i, x in enumerate(vec) if x != 0), None)
        if j is None:
            raise GeomError("zero vector has no projective class")
        s = f.inv(vec[j])
        idx = int(self._offs[j])
        nfree = d - 1 - j
        for i in range(nfree):
            idx += f.mul(s, vec[j + 1 + i]) * q ** (nfree - 1 - i)
        return idx

    def canon_index_many(self, vecs):
        """Vectorized canon_index for an [N, d] array of index vectors."""
        f, q, d = self.field, self.q, self.d
        vecs = np.asarray(vecs, dtype=np.int32)
        nz = vecs != 0
        if not nz.any(axis=1).all():
            raise GeomError("zero vector has no projective class")
        lead = np.argmax(nz, axis=1)
        s = f.inv_t[vecs[np.arange(len(vecs)), lead]]
        scaled = f.mul_t[s[:, None], vecs]
        idx = self._offs[lead].copy()
        for j in range(d):
            rows = lead == j
            if not rows.any():
                continue
            nfree = d - 1 - j
            for i in range(nfree):
                idx[rows] += scaled[rows, j + 1 + i].astype(np.int64) * q ** (nfree - 1 - i)
        return idx

    def code_vectors(self):
        """The coordinate vector of every vector code 0 .. q^d - 1.

        The code of a coordinate vector is the base-q number of its field
        indices, first entry most significant."""
        codes = np.arange(self.q ** self.d)[:, None]
        return (codes // self._qpow % self.q).astype(np.int32)

    def code_points(self):
        """Point index of every vector code, int32, -1 for the zero vector."""
        f, q = self.field, self.q
        point_of = np.full(q ** self.d, -1, dtype=np.int32)
        multiples = f.mul_t[np.arange(1, q)[:, None, None], self.pts]
        point_of[multiples @ self._qpow] = np.arange(self.n_points)
        return point_of

    def _basis_key(self, r0, r1):
        return bytes(np.asarray(r0, dtype=np.int32)) + bytes(np.asarray(r1, dtype=np.int32))

    def line_through_vecs(self, v0, v1):
        """Line index of the span of two independent vectors."""
        R, piv = rref(self.field, [list(map(int, v0)), list(map(int, v1))])
        if len(piv) != 2:
            raise GeomError("vectors are dependent, no unique line")
        key = self._basis_key(np.array(R[0], dtype=np.int32), np.array(R[1], dtype=np.int32))
        return self._line_key[key]

    # -- index-level operations -------------------------------------------

    def join_idx(self, p, q):
        if p == q:
            raise GeomError("join needs two distinct points")
        if self.join_t is not None:
            return int(self.join_t[p, q])
        return self.line_through_vecs(self.pts[p], self.pts[q])

    def meet_idx(self, l, m):
        """Common point of two distinct lines, or -1."""
        if l == m:
            raise GeomError("meet needs two distinct lines")
        if self.meet_t is not None:
            return int(self.meet_t[l, m])
        common = np.intersect1d(self.line_pts[l], self.line_pts[m])
        return int(common[0]) if len(common) else -1

    def meet_many(self, ls, ms):
        """meet_idx over arrays of distinct line pairs, -1 where skew."""
        a, b = self.line_pts[ls], self.line_pts[ms]
        hit = (a[:, :, None] == b[:, None, :]).any(axis=2)
        return np.where(hit.any(axis=1),
                        a[np.arange(len(a)), hit.argmax(axis=1)], -1)

    def point(self, spec):
        if isinstance(spec, ProjPoint):
            if spec.space is not self:
                raise GeomError("point belongs to a different space")
            return spec
        if isinstance(spec, (int, np.integer)):
            i = int(spec)
            if not 0 <= i < self.n_points:
                raise GeomError("point index out of range")
            return ProjPoint(self, i)
        return ProjPoint(self, self.canon_index(spec))

    def line(self, i):
        i = int(i)
        if not 0 <= i < self.n_lines:
            raise GeomError("line index out of range")
        return ProjLine(self, i)

    def points(self):
        return [ProjPoint(self, i) for i in range(self.n_points)]

    def lines(self):
        return [ProjLine(self, i) for i in range(self.n_lines)]

    def __repr__(self):
        return "ProjSpace(%r, d=%d)" % (self.field, self.d)


@dataclass(frozen=True)
class ProjPoint:
    space: ProjSpace
    idx: int

    @property
    def coords(self):
        return tuple(int(x) for x in self.space.pts[self.idx])

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and other.space is self.space
                and other.idx == self.idx)

    def __hash__(self):
        return hash((id(self.space), self.idx))

    def __repr__(self):
        return "Pt%r" % (self.coords,)


@dataclass(frozen=True)
class ProjLine:
    space: ProjSpace
    idx: int

    @property
    def basis(self):
        s = self.space
        return (tuple(int(x) for x in s.line_b0[self.idx]),
                tuple(int(x) for x in s.line_b1[self.idx]))

    @property
    def point_indices(self):
        return [int(x) for x in self.space.line_pts[self.idx]]

    def points(self):
        return [ProjPoint(self.space, i) for i in self.point_indices]

    def __contains__(self, p):
        return bool(self.space.on_line[p.idx, self.idx])

    def __eq__(self, other):
        return (isinstance(other, ProjLine) and other.space is self.space
                and other.idx == self.idx)

    def __hash__(self):
        return hash(("line", id(self.space), self.idx))

    def __repr__(self):
        return "Line(%d)" % self.idx


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def join(p, q):
    if p.space is not q.space:
        raise GeomError("points from different spaces")
    return ProjLine(p.space, p.space.join_idx(p.idx, q.idx))


def meet(l, m):
    """Intersection point of two distinct lines, None if skew."""
    if l.space is not m.space:
        raise GeomError("lines from different spaces")
    i = l.space.meet_idx(l.idx, m.idx)
    return None if i < 0 else ProjPoint(l.space, i)


def collinear(points):
    pts = list(points)
    distinct = []
    for p in pts:
        if all(p != r for r in distinct):
            distinct.append(p)
    if len(distinct) <= 2:
        return True
    ln = join(distinct[0], distinct[1])
    return all(p in ln for p in distinct[2:])


def concurrent(lines):
    lns = list(lines)
    distinct = []
    for l in lns:
        if all(l != r for r in distinct):
            distinct.append(l)
    if len(distinct) <= 1:
        return True
    x = meet(distinct[0], distinct[1])
    if x is None:
        return False
    return all(x in l for l in distinct[2:])


def span_rank(space, vec_rows):
    _, piv = rref(space.field, [list(map(int, r)) for r in vec_rows])
    return len(piv)


class Perspectivity:
    """Central projection of one line onto another from a point off both."""

    def __init__(self, l1, l2, center):
        space = l1.space
        if l2.space is not space or center.space is not space:
            raise GeomError("objects from different spaces")
        if l1 == l2:
            raise GeomError("perspectivity needs two distinct lines")
        if center in l1 or center in l2:
            raise GeomError("center must avoid both lines")
        b1, b2 = l1.basis, l2.basis
        if span_rank(space, list(b1) + list(b2) + [space.pts[center.idx]]) != 3:
            raise GeomError("lines and center are not coplanar")
        self.l1, self.l2, self.center = l1, l2, center
        mapping = {}
        for p in l1.points():
            img = meet(join(p, center), l2)
            assert img is not None  # coplanar by construction
            mapping[p] = img
        self.mapping = mapping

    def __call__(self, p):
        try:
            return self.mapping[p]
        except KeyError:
            raise GeomError("point not on the source line")


def perspectivity(l1, l2, center):
    return Perspectivity(l1, l2, center)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    ok: bool
    axiom_i: bool
    axiom_ii: bool
    axiom_iii: bool
    mode: str
    checked: dict
    witness: tuple | None


def noncollinear_triples(space):
    """All ordered non-collinear point triples, as an [T, 3] int array.

    Rows are ordered by the first point, then the second, then the third.
    Refused up front when T exceeds TRIPLE_CAP."""
    P, k = space.n_points, space.pts_per_line
    T = P * (P - 1) * (P - k)
    if T > TRIPLE_CAP:
        raise GeomError("budget: %d ordered non-collinear triples, cap is %d"
                        % (T, TRIPLE_CAP))
    if space.join_t is None:
        raise GeomError("enumerating triples needs the join table")
    a, b = np.nonzero(~np.eye(P, dtype=bool))
    flat = np.flatnonzero(~space.on_line.T[space.join_t[a, b]])
    out = np.empty((len(flat), 3), dtype=np.int32)
    out[:, 2] = flat % P
    flat //= P   # now the index of the (a, b) pair
    out[:, 0] = a[flat]
    out[:, 1] = b[flat]
    return out


def _axiom_i_iii(space):
    """Unique joins (I) and >= 3 points per line (III), by counting."""
    P, k = space.n_points, space.pts_per_line
    lp = space.line_pts
    if not (np.diff(np.sort(lp, axis=1), axis=1) > 0).all():
        return False, False, ("repeated point on a line",)
    # every unordered pair covered exactly once
    a = np.repeat(lp, k, axis=1).ravel()
    b = np.tile(lp, (1, k)).ravel()
    mask = a < b
    codes = a[mask].astype(np.int64) * P + b[mask]
    uniq = np.unique(codes)
    total_pairs = P * (P - 1) // 2
    ax1 = len(uniq) == total_pairs and len(codes) == total_pairs
    ax3 = k >= 3
    return ax1, ax3, None


def check_axioms(space, mode="exhaustive", samples=20_000, seed=0):
    """Verify the three incidence axioms; exhaustive needs <= 1e4 points."""
    from . import _kernels
    if mode == "exhaustive" and space.n_points > P_CAP:
        raise GeomError("exhaustive mode capped at %d points" % P_CAP)
    ax1, ax3, wit = _axiom_i_iii(space)
    checked = {"points": space.n_points, "lines": space.n_lines}
    if mode == "exhaustive":
        tri = noncollinear_triples(space)
        n2, bad = _kernels.axiom2_scan(tri, space.join_t, space.meet_t,
                                       space.line_pts)
        ax2 = bad is None
        checked["axiom_ii_configs"] = int(n2)
        if not ax2:
            wit = wit or tuple(int(x) for x in bad)
    else:
        rng = np.random.default_rng(seed)
        ax2 = True
        n2 = 0
        for _ in range(samples):
            a, b, c = rng.integers(0, space.n_points, size=3)
            a, b, c = int(a), int(b), int(c)
            if a == b or a == c:
                continue
            lab = space.join_idx(a, b)
            lac = space.join_idx(a, c) if not space.on_line[c, lab] else None
            if lac is None:
                continue
            q1 = int(space.line_pts[lab][rng.integers(0, space.pts_per_line)])
            q2 = int(space.line_pts[lac][rng.integers(0, space.pts_per_line)])
            if q1 == q2:
                continue
            n2 += 1
            l = space.join_idx(b, c)
            m = space.join_idx(q1, q2)
            if l != m and space.meet_idx(l, m) < 0:
                ax2 = False
                wit = (a, b, c, q1, q2)
                break
        checked["axiom_ii_configs"] = n2
    ok = ax1 and ax2 and ax3
    return AxiomReport(ok, ax1, ax2, ax3, mode, checked, wit)


# ---------------------------------------------------------------------------
# Desargues
# ---------------------------------------------------------------------------

@dataclass
class DesarguesCheck:
    left: bool       # the three connector lines p_i v q_i are concurrent
    right: bool      # the three side intersections exist and are collinear
    agree: bool
    meets: tuple


def desargues_admissible(space, ps, qs):
    """Hypotheses: both triples non-collinear, p_i != q_i, and the three
    corresponding side pairs are distinct lines (so their intersections
    are points)."""
    p1, p2, p3 = ps
    q1, q2, q3 = qs
    if collinear([space.point(p1), space.point(p2), space.point(p3)]):
        return False
    if collinear([space.point(q1), space.point(q2), space.point(q3)]):
        return False
    for a, b in zip(ps, qs):
        if space.point(a) == space.point(b):
            return False
    for (a, b), (c, d) in (((p1, p2), (q1, q2)), ((p2, p3), (q2, q3)), ((p3, p1), (q3, q1))):
        if space.join_idx(space.point(a).idx, space.point(b).idx) == \
           space.join_idx(space.point(c).idx, space.point(d).idx):
            return False
    return True


def check_desargues(space, ps, qs):
    """Evaluate both sides of the perspectivity equivalence on one
    admissible configuration."""
    ps = [space.point(p) for p in ps]
    qs = [space.point(q) for q in qs]
    if not desargues_admissible(space, ps, qs):
        raise GeomError("inadmissible configuration")
    left = concurrent([join(a, b) for a, b in zip(ps, qs)])
    pairs = ((0, 1), (1, 2), (2, 0))
    rs = []
    for i, j in pairs:
        r = meet(join(ps[i], ps[j]), join(qs[i], qs[j]))
        rs.append(r)
    if any(r is None for r in rs):
        right = False
    else:
        right = collinear(rs)
    return DesarguesCheck(left, right, left == right, tuple(rs))


def _frame_transports(space, tri, point_of):
    """Point maps g_a with g_a(e1, e2, e3) = a, one row per triple a.

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
    # canon_index as one lookup
    return point_of[mat_apply(f, mats, space.pts) @ space._qpow]


def _certify_transports(space, tri):
    """Raise GeomError unless every transport of a row of tri is a
    collineation of the tables: a bijection that sends the standard frame
    to the row and carries each row of line_pts onto a row of line_pts.

    Needs join_t consistent with line_pts (_check_tables): then a line
    goes onto the join of its first two images when every image lies on
    that join, and bijectivity makes the images fill it."""
    from . import _kernels
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


def _check_tables(space):
    """Raise GeomError unless join_t and meet_t are the join and meet of
    line_pts, so a collineation of line_pts preserves every table."""
    P, L = space.n_points, space.n_lines
    x, y = np.nonzero(~np.eye(P, dtype=bool))
    j = space.join_t[x, y]
    on = space.line_pts[j]
    ok = ((j >= 0).all() and (on == x[:, None]).any(axis=1).all()
          and (on == y[:, None]).any(axis=1).all())
    l, m = np.nonzero(~np.eye(L, dtype=bool))
    if not (ok and np.array_equal(space.meet_t[l, m], space.meet_many(l, m))):
        raise GeomError("join/meet tables disagree with line_pts")


def desargues_sweep(space, sample=None, seed=0):
    """Check left/right agreement over admissible configurations.

    Exhaustive when sample is None: PGL acts transitively on ordered
    non-collinear triples, so every pair (a, b) is the image under a
    transport g_a of (frame, g_a^-1 b).  Admissibility and both sides are
    incidence-defined, so once the tables are consistent and every g_a is
    certified a collineation, each row has the frame row's count and the
    total is T times it.  A witness is a disagreement in the frame row,
    reported with the configurations checked up to it.  Otherwise draws
    `sample` random admissible configs.  Returns (checked, witness).
    """
    from . import _kernels
    if space.d < 3:
        raise GeomError("Desargues needs a plane: dimension must be at "
                        "least 3")
    if sample is None:
        if space.join_t is None or space.meet_t is None:
            raise GeomError("exhaustive sweep needs full incidence tables")
        tri = noncollinear_triples(space)
        _check_tables(space)   # before the certificate, which relies on it
        _certify_transports(space, tri)
        n, witness = _kernels.desargues_scan(
            space._offs[:3], tri, space.join_t, space.meet_t, space.line_pts)
        return (n if witness else len(tri) * n), witness
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < sample:
        idx = rng.integers(0, space.n_points, size=6)
        ps, qs = [int(i) for i in idx[:3]], [int(i) for i in idx[3:]]
        if len(set(ps)) < 3 or len(set(qs)) < 3:
            continue
        if not desargues_admissible(space, ps, qs):
            continue
        res = check_desargues(space, ps, qs)
        if not res.agree:
            return checked, tuple(ps) + tuple(qs)
        checked += 1
    return checked, None
