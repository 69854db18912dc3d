"""Hot inner loops, each run in chunks sized from _CHUNK so that
temporaries stay small.

The axiom-II and Desargues sweeps are numpy gathers, and the
multiplicativity scan of the function-field demo runs on gf's coefficient
rows (_polymul, _polydiv); the brute-force matrix filter is gf.mat_apply
and a ProjSpace.code_points lookup.  The scan decides which
pairs are in range from the classes of their remainders, not pair by
pair, so its product checks scale with the in-range pairs.
"""

import numpy as np

from .gf import _polydiv, _polymul, mat_apply

# Read by perfbench/child.py for its environment record; there is one
# backend, numpy.
USE_NUMBA = False

_CHUNK = 1 << 14  # elements per temporary in the chunked sweeps


# ---------------------------------------------------------------------------
# axiom II sweep
# ---------------------------------------------------------------------------

def axiom2_scan(tri, join_t, meet_t, line_pts):
    """Axiom II over every triple (p0, p1, p2) of tri: each line joining a
    point of p0 v p1 to a different point of p0 v p2 meets p1 v p2.

    Returns (n_checked, witness): witness is None or the first failing
    triple in row order, n_checked counting point pairs through it."""
    k = line_pts.shape[1]
    step = max(1, _CHUNK // (k * k))
    n = 0
    for s in range(0, len(tri), step):
        p0, p1, p2 = np.asarray(tri[s:s + step]).T
        lbc = join_t[p1, p2][:, None]
        q1 = np.repeat(line_pts[join_t[p0, p1]], k, axis=1)
        q2 = np.tile(line_pts[join_t[p0, p2]], (1, k))
        keep = q1 != q2
        m = join_t[q1, q2]
        bad = (keep & (m != lbc) & (meet_t[lbc, m] < 0)).any(axis=1)
        counts = keep.sum(axis=1)
        if bad.any():
            t = int(np.argmax(bad))
            return (n + int(counts[:t + 1].sum()),
                    tuple(int(x) for x in tri[s + t]))
        n += int(counts.sum())
    return n, None


# ---------------------------------------------------------------------------
# Desargues sweep, frame row
# ---------------------------------------------------------------------------

def _on(line_pts, x, l):
    """Whether point x lies on line l, elementwise."""
    return (line_pts[l] == x[:, None]).any(axis=1)


def desargues_scan(ps, qs, join_t, meet_t, line_pts):
    """Left/right agreement of (a, b) over every admissible row pair: a is
    ps ([3], such as the frame, paired with every row) or its row of ps
    ([n, 3]), b the row of qs ([n, 3]); every triple is non-collinear.

    Left: the connectors p_i v q_i are concurrent.  Right: the side meets
    (p_i v p_j) ^ (q_i v q_j) exist and are collinear.  Returns
    (n_checked, witness): witness is None or the 6-tuple a + b of the
    first disagreement in row order, n_checked counting the admissible
    rows through it."""
    ps = np.broadcast_to(ps, np.shape(qs))
    step = _CHUNK // 16  # about 16 row-length temporaries live at once
    checked = 0
    for s in range(0, len(qs), step):
        p, q = ps[s:s + step], np.asarray(qs[s:s + step])
        # the sides 12, 23, 31 of each triple, as columns
        sp, sq = join_t[p, p[:, [1, 2, 0]]], join_t[q, q[:, [1, 2, 0]]]
        rows = np.nonzero(((p != q) & (sp != sq)).all(axis=1))[0]
        l1, l2, l3 = join_t[p[rows], q[rows]].T
        x = meet_t[l1, l2]
        generic = (x >= 0) & _on(line_pts, x, l3)
        left = np.where(
            l1 == l2,
            (l1 == l3) | (meet_t[l1, l3] >= 0),
            np.where((l1 == l3) | (l2 == l3), x >= 0, generic),
        )
        r12, r23, r31 = meet_t[sp[rows], sq[rows]].T
        exists = (r12 >= 0) & (r23 >= 0) & (r31 >= 0)
        dup = (r12 == r23) | (r23 == r31) | (r12 == r31)
        right = exists & (dup | _on(line_pts, r31, join_t[r12, r23]))
        bad = left != right
        if bad.any():
            i = int(np.argmax(bad))
            r = s + rows[i]
            return (checked + i + 1,
                    tuple(int(v) for v in (*ps[r], *qs[r])))
        checked += len(rows)
    return checked, None


# ---------------------------------------------------------------------------
# matrix agreement filter (brute-force extension oracle)
# ---------------------------------------------------------------------------

def matrix_filter(mats, reps, expect, space):
    """Mask of the candidate matrices mapping each rep to its expected point.

    mats: [B, d, d]; reps: [m, d] (already Frobenius twisted by the
    caller); expect: [m] point indices.  In each chunk of _CHUNK
    candidates the reps go in blocks of max(1, _CHUNK // (n_alive d))
    over the survivors of the blocks before: one mat_apply, then one
    code_points lookup, where a zero image reads -1 and matches nothing."""
    f, d = space.field, space.d
    point_of = space.code_points()
    out = np.zeros(len(mats), dtype=bool)
    for s in range(0, len(mats), _CHUNK):
        chunk = mats[s:s + _CHUNK]
        alive = None   # the whole chunk, without an index array
        n, r = len(chunk), 0
        while n and r < len(reps):
            step = max(1, _CHUNK // (n * d))
            img = mat_apply(f, chunk if alive is None else chunk[alive],
                            reps[r:r + step])
            ok = (point_of[space._vector_code(img)]
                  == expect[r:r + step]).all(axis=1)
            alive = np.flatnonzero(ok) if alive is None else alive[ok]
            n, r = len(alive), r + step
        out[s:s + len(chunk)][slice(None) if alive is None else alive] = True
    return out


# ---------------------------------------------------------------------------
# multiplicativity scan (function-field demo): the range from a table over
# remainder classes, the product check on the in-range pairs only
# ---------------------------------------------------------------------------

def pair_mult_scan(nums, psin, psi_m, mu, mpoly, degcap, mul_t, add_t, neg_t):
    """Check psi(f g) = psi(f) psi(g) over all in-range pairs.

    nums[i] holds the numerator coefficients of function i over the fixed
    monic denominator mpoly; psin[i] the numerator of its psi image; psi_m
    and mu give psi on arbitrary coordinate vectors.  A pair is in range
    when the product stays representable: its degree lies in
    [deg mpoly, degcap] and mpoly divides it.  The range is decided from
    classes, not from pairs: the rows fall into C classes by their
    remainder mod mpoly scaled to be monic, and one [C, C] table says
    which class products mpoly divides.  Rows a go in chunks of
    _CHUNK // N, and each chunk gathers that table against every row b and
    checks the product only on its in-range pairs, in row-major order.
    Returns (n_in_range, bad_i, bad_j): with every pair agreeing, the
    in-range count and -1 markers; otherwise the first failing pair, with
    n_in_range counting the in-range pairs up to and including it."""
    N, md = nums.shape
    mpoly = np.asarray(mpoly)
    dm = len(mpoly) - 1
    clen = 2 * md - 1
    sub_t = neg_t[mul_t[:, mpoly]]
    # Over a field deg(f g) = deg f + deg g, and mpoly divides f g exactly
    # when it divides the product of their remainders, whatever nonzero
    # constants scale them; so the range test needs only per-row degrees
    # and remainder classes.  A zero row is never in range.
    deg = ((nums != 0) * np.arange(1, md + 1)).max(axis=1) - 1
    deg[deg < 0] = -md
    res = _polydiv(nums, sub_t, add_t)[1]
    # each remainder times the inverse of its leading coefficient
    lead = np.zeros(N, dtype=res.dtype)
    for k in range(dm):
        lead = np.where(res[:, k] != 0, res[:, k], lead)
    res = mul_t[(mul_t == 1).argmax(axis=1)[lead][:, None], res]
    _, first, cls = np.unique(res @ len(mul_t) ** np.arange(dm),
                              return_index=True, return_inverse=True)
    C = len(first)
    zero = np.empty(C * C, dtype=bool)   # class pair -> mpoly | product
    step = max(1, _CHUNK // clen)
    for s in range(0, C * C, step):
        ca, cb = np.divmod(np.arange(s, min(s + step, C * C)), C)
        rr = _polymul(res[first[ca]], res[first[cb]], max(2 * dm - 1, 0),
                      mul_t, add_t)
        zero[s:s + step] = ~_polydiv(rr, sub_t, add_t)[1].any(axis=1)
    zero = zero.reshape(C, C)
    rows = max(1, _CHUNK // N)
    n_in = 0
    for s in range(0, N, rows):
        sdeg = deg[s:s + rows, None] + deg
        a, b = np.nonzero(zero[cls[s:s + rows, None], cls]
                          & (sdeg >= dm) & (sdeg <= degcap))
        a += s
        prod = _polymul(nums[a], nums[b], clen, mul_t, add_t)
        muq = mu[_polydiv(prod, sub_t, add_t)[0][:, :md]]
        img = 0   # psi of the quotient: psi_m . mu[quo]
        for j in range(md):
            img = add_t[img, mul_t[psi_m[:, j], muq[:, j, None]]]
        lhs = _polymul(img, mpoly[None], clen, mul_t, add_t)
        rhs = _polymul(psin[a], psin[b], clen, mul_t, add_t)
        bad = (lhs != rhs).any(axis=1)
        if bad.any():
            t = int(np.argmax(bad))
            return n_in + t + 1, int(a[t]), int(b[t])
        n_in += len(a)
    return n_in, -1, -1
