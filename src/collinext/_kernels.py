"""Hot inner loops, each one chunked numpy gather.

The axiom-II and Desargues sweeps, the brute-force matrix filter and the
all-pairs multiplicativity scan of the function-field demo, each run in
chunks sized from _CHUNK so that temporaries stay small.
"""

import numpy as np

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
    if join_t is None or meet_t is None:
        raise ValueError("axiom II sweep needs join/meet tables")
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


def desargues_scan(frame, tri, join_t, meet_t, line_pts):
    """Left/right agreement of (frame, b) over every admissible row b of tri.

    Left: the connectors p_i v q_i are concurrent.  Right: the side meets
    (p_i v p_j) ^ (q_i v q_j) exist and are collinear.  Returns
    (n_checked, witness): witness is None or the 6-tuple frame + b of the
    first disagreement in row order, n_checked counting the admissible
    rows through it."""
    p1, p2, p3 = (int(x) for x in frame)
    s12, s23, s31 = join_t[p1, p2], join_t[p2, p3], join_t[p3, p1]
    step = _CHUNK // 16  # about 16 row-length temporaries live at once
    checked = 0
    for s in range(0, len(tri), step):
        q1, q2, q3 = np.asarray(tri[s:s + step]).T
        t12, t23, t31 = join_t[q1, q2], join_t[q2, q3], join_t[q3, q1]
        adm = ((q1 != p1) & (q2 != p2) & (q3 != p3)
               & (t12 != s12) & (t23 != s23) & (t31 != s31))
        rows = np.nonzero(adm)[0]
        q1, q2, q3 = q1[rows], q2[rows], q3[rows]
        t12, t23, t31 = t12[rows], t23[rows], t31[rows]
        l1, l2, l3 = join_t[p1, q1], join_t[p2, q2], join_t[p3, q3]
        x = meet_t[l1, l2]
        generic = (x >= 0) & _on(line_pts, x, l3)
        left = np.where(
            l1 == l2,
            (l1 == l3) | (meet_t[l1, l3] >= 0),
            np.where((l1 == l3) | (l2 == l3), x >= 0, generic),
        )
        r12, r23, r31 = meet_t[s12, t12], meet_t[s23, t23], meet_t[s31, t31]
        exists = (r12 >= 0) & (r23 >= 0) & (r31 >= 0)
        dup = (r12 == r23) | (r23 == r31) | (r12 == r31)
        right = exists & (dup | _on(line_pts, r31, join_t[r12, r23]))
        bad = left != right
        if bad.any():
            i = int(np.argmax(bad))
            b = tri[s + rows[i]]
            return (checked + i + 1,
                    (p1, p2, p3) + tuple(int(v) for v in b))
        checked += len(rows)
    return checked, None


# ---------------------------------------------------------------------------
# matrix agreement filter (brute-force extension oracle)
# ---------------------------------------------------------------------------

def matrix_filter(codes, reps, expect, vecs, point_of, mul_t, add_t):
    """Mask of the candidate matrices mapping each rep to its expected point.

    codes: [B, d] row codes of the candidates, the code of a row being the
    base-q number of its field indices; vecs: [q^d, d] the row of every
    code; point_of: [q^d] the point index of every code, -1 for zero;
    reps: [m, d] (already frobenius twisted by the caller); expect: [m]
    point indices.  Row i of M v is dot[code of row i] for the table
    dot = vecs . v, so each image is d gathers and one point lookup."""
    q, d = len(mul_t), codes.shape[1]
    weights = q ** np.arange(d - 1, -1, -1)
    dots = 0
    for j in range(d):
        dots = add_t[dots, mul_t[vecs[:, j], reps[:, j, None]]]
    out = np.zeros(len(codes), dtype=bool)
    step = _CHUNK * 4
    for s in range(0, len(codes), step):
        alive = np.arange(s, min(s + step, len(codes)))
        for dot, e in zip(dots, expect):
            alive = alive[point_of[dot[codes[alive]] @ weights] == e]
            if not len(alive):
                break
        out[alive] = True
    return out


# ---------------------------------------------------------------------------
# all-pairs multiplicativity scan (function-field demo)
# ---------------------------------------------------------------------------

def _polymul(x, y, width, mul_t, add_t):
    """Row-wise product of coefficient rows x [n, a] and y [n or 1, b],
    lowest degree first, zero-padded to width columns."""
    out = np.zeros((len(x), width), dtype=add_t.dtype)
    for i in range(x.shape[1]):
        seg = out[:, i:i + y.shape[1]]
        seg[...] = add_t[seg, mul_t[x[:, i, None], y]]
    return out


def _polydiv(x, sub_t, add_t):
    """Row-wise quotient and remainder of x [n, w] by a monic polynomial
    of degree dm, given as sub_t[c] = -c * mpoly ([q, dm + 1])."""
    dm = sub_t.shape[1] - 1
    rem = x.copy()
    quo = np.zeros((len(x), max(x.shape[1] - dm, 0)), dtype=x.dtype)
    for k in range(quo.shape[1] - 1, -1, -1):
        c = rem[:, k + dm]
        quo[:, k] = c
        seg = rem[:, k:k + dm + 1]
        seg[...] = add_t[seg, sub_t[c]]
    return quo, rem[:, :dm]


def pair_mult_scan(nums, psin, psi_m, mu, mpoly, degcap, mul_t, add_t, neg_t):
    """Check psi(f g) = psi(f) psi(g) over all in-range pairs.

    nums[i] holds the numerator coefficients of function i over the fixed
    monic denominator mpoly; psin[i] the numerator of its psi image; psi_m
    and mu give psi on arbitrary coordinate vectors.  A pair is in range
    when the product stays representable: its degree lies in
    [deg mpoly, degcap] and mpoly divides it.  Pairs (a, b) run in
    row-major order, in chunks.  Returns (n_in_range, bad_i, bad_j): with
    every pair agreeing, the in-range count and -1 markers; otherwise the
    first failing pair, with n_in_range counting the in-range pairs up to
    and including it."""
    N, md = nums.shape
    mpoly = np.asarray(mpoly)
    dm = len(mpoly) - 1
    clen = 2 * md - 1
    sub_t = neg_t[mul_t[:, mpoly]]
    # Over a field deg(f g) = deg f + deg g, and mpoly divides f g exactly
    # when it divides the product of their remainders, so the range test
    # needs only per-row degrees and remainders; a zero row is never in
    # range.
    deg = ((nums != 0) * np.arange(1, md + 1)).max(axis=1) - 1
    deg[deg < 0] = -md
    res = _polydiv(nums, sub_t, add_t)[1]
    step = max(1, _CHUNK // clen)
    n_in = 0
    for s in range(0, N * N, step):
        a, b = np.divmod(np.arange(s, min(s + step, N * N)), N)
        rr = _polymul(res[a], res[b], max(2 * dm - 1, 0), mul_t, add_t)
        sdeg = deg[a] + deg[b]
        keep = ((sdeg >= dm) & (sdeg <= degcap)
                & ~_polydiv(rr, sub_t, add_t)[1].any(axis=1))
        a, b = a[keep], b[keep]
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
