"""Hot inner loops.

The axiom-II and Desargues sweeps are chunked numpy gathers.  The matrix
filter and the multiplicativity scan are compiled with numba when it is
available and have pure-numpy twins; set COLLINEXT_NO_NUMBA=1 to force
the fallback path.  Those entry points dispatch on USE_NUMBA and return
identical results either way.
"""

import os

import numpy as np

if os.environ.get("COLLINEXT_NO_NUMBA"):
    HAS_NUMBA = False
else:
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA

if not HAS_NUMBA:
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


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

@njit(cache=True)
def _matfilter_jit(cands, reps, expect, mul_t, add_t, inv_t, offs, qpow, d):
    B = cands.shape[0]
    m = reps.shape[0]
    out = np.zeros(B, dtype=np.uint8)
    w = np.zeros(d, dtype=np.int64)
    for c in range(B):
        ok = True
        for r in range(m):
            for i in range(d):
                acc = 0
                for j in range(d):
                    acc = add_t[acc, mul_t[cands[c, i, j], reps[r, j]]]
                w[i] = acc
            lead = -1
            for i in range(d):
                if w[i] != 0:
                    lead = i
                    break
            if lead < 0:
                ok = False
                break
            s = inv_t[w[lead]]
            idx = offs[lead]
            for i in range(lead + 1, d):
                idx += mul_t[s, w[i]] * qpow[d - 1 - i]
            if idx != expect[r]:
                ok = False
                break
        if ok:
            out[c] = 1
    return out


def _matfilter_np(cands, reps, expect, mul_t, add_t, inv_t, offs, qpow, d):
    B = cands.shape[0]
    alive = np.arange(B)
    for r in range(reps.shape[0]):
        M = cands[alive]
        w = np.zeros((len(alive), d), dtype=np.int64)
        for i in range(d):
            acc = np.zeros(len(alive), dtype=np.int64)
            for j in range(d):
                acc = add_t[acc, mul_t[M[:, i, j], reps[r, j]]]
            w[:, i] = acc
        nz = w != 0
        has = nz.any(axis=1)
        lead = np.argmax(nz, axis=1)
        s = inv_t[w[np.arange(len(alive)), lead]]
        idx = offs[lead].astype(np.int64)
        for i in range(1, d):
            use = lead < i
            idx[use] += mul_t[s[use], w[use, i]].astype(np.int64) * qpow[d - 1 - i]
        keep = has & (idx == expect[r])
        alive = alive[keep]
        if len(alive) == 0:
            break
    out = np.zeros(B, dtype=np.uint8)
    out[alive] = 1
    return out


def matrix_filter(cands, reps, expect, mul_t, add_t, inv_t, offs, qpow):
    """Mask of candidate matrices mapping each rep to the expected point.

    cands: [B, d, d] field indices; reps: [m, d] (already frobenius
    twisted by the caller); expect: [m] canonical point indices."""
    cands = np.ascontiguousarray(cands, dtype=np.int64)
    reps = np.ascontiguousarray(reps, dtype=np.int64)
    expect = np.ascontiguousarray(expect, dtype=np.int64)
    offs = np.ascontiguousarray(offs, dtype=np.int64)
    qpow = np.ascontiguousarray(qpow, dtype=np.int64)
    d = cands.shape[1]
    mul_t = np.ascontiguousarray(mul_t.astype(np.int64))
    add_t = np.ascontiguousarray(add_t.astype(np.int64))
    inv_t = np.ascontiguousarray(inv_t.astype(np.int64))
    if USE_NUMBA:
        return _matfilter_jit(cands, reps, expect, mul_t, add_t, inv_t, offs, qpow, d)
    return _matfilter_np(cands, reps, expect, mul_t, add_t, inv_t, offs, qpow, d)


# ---------------------------------------------------------------------------
# all-pairs multiplicativity scan (function-field demo)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _multscan_jit(nums, psin, psi_m, mu, mpoly, degcap, mul_t, add_t, neg_t):
    N, md = nums.shape
    dm = mpoly.shape[0] - 1
    clen = 2 * md - 1
    n_in = 0
    conv = np.zeros(clen, dtype=np.int64)
    rem = np.zeros(clen, dtype=np.int64)
    quo = np.zeros(md, dtype=np.int64)
    img = np.zeros(md, dtype=np.int64)
    lhs = np.zeros(clen, dtype=np.int64)
    rhs = np.zeros(clen, dtype=np.int64)
    for a in range(N):
        for b in range(N):
            for k in range(clen):
                conv[k] = 0
            for i in range(md):
                va = nums[a, i]
                if va == 0:
                    continue
                for j in range(md):
                    conv[i + j] = add_t[conv[i + j], mul_t[va, nums[b, j]]]
            deg = -1
            for k in range(clen - 1, -1, -1):
                if conv[k] != 0:
                    deg = k
                    break
            if deg > degcap or deg < dm:
                continue
            for k in range(clen):
                rem[k] = conv[k]
            for k in range(md):
                quo[k] = 0
            for k in range(deg - dm, -1, -1):
                c = rem[k + dm]
                if c != 0:
                    quo[k] = c
                    for i in range(dm + 1):
                        rem[k + i] = add_t[rem[k + i], neg_t[mul_t[c, mpoly[i]]]]
            divisible = True
            for k in range(dm):
                if rem[k] != 0:
                    divisible = False
                    break
            if not divisible:
                continue
            n_in += 1
            # psi of the quotient (coords of f*g in the ambient basis)
            for i in range(md):
                acc = 0
                for j in range(md):
                    acc = add_t[acc, mul_t[psi_m[i, j], mu[quo[j]]]]
                img[i] = acc
            for k in range(clen):
                lhs[k] = 0
                rhs[k] = 0
            for i in range(md):
                vi = img[i]
                if vi == 0:
                    continue
                for j in range(dm + 1):
                    lhs[i + j] = add_t[lhs[i + j], mul_t[vi, mpoly[j]]]
            for i in range(md):
                vi = psin[a, i]
                if vi == 0:
                    continue
                for j in range(md):
                    rhs[i + j] = add_t[rhs[i + j], mul_t[vi, psin[b, j]]]
            for k in range(clen):
                if lhs[k] != rhs[k]:
                    return n_in, a, b
    return n_in, -1, -1


def _multscan_np(nums, psin, psi_m, mu, mpoly, degcap, mul_t, add_t, neg_t):
    N, md = nums.shape
    dm = mpoly.shape[0] - 1
    clen = 2 * md - 1
    n_in = 0
    for a in range(N):
        conv = np.zeros((N, clen), dtype=np.int64)
        for i in range(md):
            va = int(nums[a, i])
            if va == 0:
                continue
            for j in range(md):
                conv[:, i + j] = add_t[conv[:, i + j], mul_t[va, nums[:, j]]]
        nzmask = conv != 0
        degs = np.where(nzmask.any(axis=1), clen - 1 - np.argmax(nzmask[:, ::-1], axis=1), -1)
        inrange = (degs <= degcap) & (degs >= dm)
        rows = np.nonzero(inrange)[0]
        if len(rows) == 0:
            continue
        rem = conv[rows].copy()
        quo = np.zeros((len(rows), md), dtype=np.int64)
        for k in range(clen - 1 - dm, -1, -1):
            c = rem[:, k + dm]
            hit = c != 0
            if hit.any():
                if k < md:
                    quo[hit, k] = c[hit]
                for i in range(dm + 1):
                    rem[hit, k + i] = add_t[rem[hit, k + i], neg_t[mul_t[c[hit], mpoly[i]]]]
        divisible = (rem[:, :dm] == 0).all(axis=1) if dm > 0 else np.ones(len(rows), bool)
        rows = rows[divisible]
        quo = quo[divisible]
        n_in += len(rows)
        if len(rows) == 0:
            continue
        img = np.zeros((len(rows), md), dtype=np.int64)
        muq = mu[quo]
        for i in range(md):
            acc = np.zeros(len(rows), dtype=np.int64)
            for j in range(md):
                acc = add_t[acc, mul_t[psi_m[i, j], muq[:, j]]]
            img[:, i] = acc
        lhs = np.zeros((len(rows), clen), dtype=np.int64)
        for i in range(md):
            vi = img[:, i]
            for j in range(dm + 1):
                lhs[:, i + j] = add_t[lhs[:, i + j], mul_t[vi, mpoly[j]]]
        rhs = np.zeros((len(rows), clen), dtype=np.int64)
        for i in range(md):
            va = int(psin[a, i])
            if va == 0:
                continue
            for j in range(md):
                rhs[:, i + j] = add_t[rhs[:, i + j], mul_t[va, psin[:, j][rows]]]
        bad = (lhs != rhs).any(axis=1)
        if bad.any():
            return n_in, a, int(rows[np.nonzero(bad)[0][0]])
    return n_in, -1, -1


def pair_mult_scan(nums, psin, psi_m, mu, mpoly, degcap, mul_t, add_t, neg_t):
    """Check psi(f g) = psi(f) psi(g) over all in-range pairs.

    nums[i] holds the numerator coefficients of function i over the fixed
    denominator; psin[i] the numerator of its psi image; psi_m and mu give
    psi on arbitrary coordinate vectors.  A pair is in range when the
    product stays representable (degree cap and exact divisibility).
    Returns (n_in_range, bad_i, bad_j) with -1 markers when all agree."""
    nums = np.ascontiguousarray(nums, dtype=np.int64)
    psin = np.ascontiguousarray(psin, dtype=np.int64)
    psi_m = np.ascontiguousarray(psi_m, dtype=np.int64)
    mu = np.ascontiguousarray(mu, dtype=np.int64)
    mpoly = np.ascontiguousarray(mpoly, dtype=np.int64)
    mul_t = np.ascontiguousarray(mul_t.astype(np.int64))
    add_t = np.ascontiguousarray(add_t.astype(np.int64))
    neg_t = np.ascontiguousarray(neg_t.astype(np.int64))
    if USE_NUMBA:
        return _multscan_jit(nums, psin, psi_m, mu, mpoly, int(degcap), mul_t, add_t, neg_t)
    return _multscan_np(nums, psin, psi_m, mu, mpoly, int(degcap), mul_t, add_t, neg_t)
