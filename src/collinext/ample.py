"""Families of line subsets and the subsets of P(V) they call ample.

A family lives on an abstract projective line with q+1 positions: the
affine parameters c in k at positions 0..q-1 and the infinite point at
position q.  On a line of a space, a point's position is its column in
the line's row of line_pts (b0 + c b1, then b1, for the reduced basis);
the result is basis-independent exactly when the family is stable under
PGL_2, so the explicit kind is checked for that before any per-line
membership question is answered.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .gf import GF


class AmpleError(Exception):
    pass


@dataclass(frozen=True)
class AmpleFamily:
    kind: str                 # "size_at_most" | "explicit"
    t: int | None = None
    sets: frozenset | None = None
    q: int | None = None

    @staticmethod
    def size_at_most(t):
        if t < 0:
            raise AmpleError("threshold must be >= 0")
        return AmpleFamily("size_at_most", t=int(t))

    @staticmethod
    def explicit(sets, q):
        q = int(q)
        norm = set()
        for s in sets:
            fs = frozenset(int(x) for x in s)
            if any(not 0 <= x <= q for x in fs):
                raise AmpleError("positions must lie in 0..q")
            norm.add(fs)
        if frozenset() not in norm:
            raise AmpleError("family must contain the empty set")
        return AmpleFamily("explicit", sets=frozenset(norm), q=q)

    def contains(self, positions, q):
        """Membership of a position subset, on a line over GF(q)."""
        s = frozenset(int(x) for x in positions)
        if self.kind == "size_at_most":
            return len(s) <= self.t
        if self.q != q:
            raise AmpleError("family is bound to q=%s, line has q=%d" % (self.q, q))
        return s in self.sets


# ---------------------------------------------------------------------------
# PGL_2 stability
# ---------------------------------------------------------------------------

def _primitive_element(f):
    if f.q == 2:
        return 1
    for a in range(2, f.q):
        x, order = a, 1
        while x != 1:
            x = f.mul(x, a)
            order += 1
        if order == f.q - 1:
            return a
    raise AmpleError("no primitive element found")  # unreachable for a field


def _pgl2_generator_tables(f):
    """Position permutations for x+1, a*x (a primitive), 1/x; infinity = q."""
    q = f.q
    inf = q
    shift = [0] * (q + 1)
    scale = [0] * (q + 1)
    invert = [0] * (q + 1)
    a = _primitive_element(f)
    for x in range(q):
        shift[x] = f.add(x, 1)
        scale[x] = f.mul(a, x)
        invert[x] = inf if x == 0 else f.inv(x)
    shift[inf] = inf
    scale[inf] = inf
    invert[inf] = 0
    return [shift, scale, invert]


def is_pgl2_stable(family, field):
    """Closure of the family under the Moebius action on positions."""
    if family.kind == "size_at_most":
        return True
    if not isinstance(field, GF):
        raise AmpleError("stability check needs a GF instance")
    if family.q != field.q:
        raise AmpleError("family is bound to a different q")
    tables = _pgl2_generator_tables(field)
    for s in family.sets:
        for t in tables:
            if frozenset(t[x] for x in s) not in family.sets:
                return False
    return True


# ---------------------------------------------------------------------------
# (m, n)-admissibility
# ---------------------------------------------------------------------------

def is_mn_admissible(family, q, m, n):
    """No m family members plus n extra points can cover the q+1 positions."""
    if m < 0 or n < 0:
        raise AmpleError("m and n must be >= 0")
    if family.kind == "size_at_most":
        return m * min(family.t, q + 1) + n <= q
    if family.q != q:
        raise AmpleError("family is bound to a different q")
    # adversary picks the sets; extra points fill any remaining gap
    maximal = [s for s in family.sets
               if not any(s < other for other in family.sets)]
    if m == 0:
        return n <= q
    worst = 0
    for combo in combinations_with_replacement(maximal, m):
        u = frozenset().union(*combo)
        worst = max(worst, len(u))
        if worst + n > q:
            return False
    return worst + n <= q


# ---------------------------------------------------------------------------
# ample subsets
# ---------------------------------------------------------------------------

@dataclass
class AmpleReport:
    ample: bool
    t_star: int          # largest complement among lines meeting the set
    n_meeting: int
    witness_line: int | None
    reason: str


def lines_meeting(space, U):
    """(mask of the lines meeting U, [L] counts of points in U, mask of U)."""
    U = np.asarray(U, dtype=np.int64)
    if U.size and not 0 <= U.min() <= U.max() < space.n_points:
        raise AmpleError("points must lie in 0..%d" % (space.n_points - 1))
    inU = np.zeros(space.n_points, dtype=bool)
    inU[U] = True
    in_cnt = space.line_counts(inU)
    return in_cnt > 0, in_cnt, inU


def is_ample(space, U, family):
    """Check every line meeting U leaves a complement the family accepts.

    Also reports t*, the largest such complement, which is what the
    extension precondition is phrased in."""
    U = np.asarray(U, dtype=np.int64)
    if not U.size:
        return AmpleReport(False, 0, 0, None, "empty set")
    meets, in_cnt, inU = lines_meeting(space, U)
    k = space.pts_per_line
    n_meeting = int(np.count_nonzero(meets))
    t_star = k - int(in_cnt.min(where=meets, initial=k))
    if family.kind == "size_at_most":
        if t_star > family.t:
            # the first meeting line whose complement is above the threshold
            bad = meets & (in_cnt < k - family.t)
            return AmpleReport(False, t_star, n_meeting, int(bad.argmax()),
                               "complement larger than the threshold")
        return AmpleReport(True, t_star, n_meeting, None, "")
    if family.q != space.q:
        raise AmpleError("family is bound to a different q")
    if not is_pgl2_stable(family, space.field):
        raise AmpleError("family is not stable, per-line membership would "
                         "depend on the choice of basis")
    for l in np.flatnonzero(meets):
        pos = np.flatnonzero(~inU[space.line_pts[l]])
        if not family.contains(pos, space.q):
            return AmpleReport(False, t_star, n_meeting, int(l),
                               "complement not in the family")
    return AmpleReport(True, t_star, n_meeting, None, "")
