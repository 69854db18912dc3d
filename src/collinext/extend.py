"""Extending a partial collineation on an ample subset to the whole space.

The partial data is a point bijection sigma on an ample U1 together with a
line bijection tau on the lines meeting U1, compatible on intersections.
Under (3,2)-admissibility of the governing family the extension exists, is
unique, and is found constructively: each missing point image is the meet
of two transported lines, the line map is re-derived from point images,
and the result is verified end to end before being decoded into matrix
plus twist form.  Error messages name the construction step that failed.
"""

from dataclasses import dataclass

import numpy as np

from .gf import mat_apply, mat_inv, rref
from .projgeom import ProjSpace
from .semilinear import Collineation, SemilinearError, SemilinearIso, decode_ftpg
from .ample import is_ample, is_mn_admissible
from . import _kernels

BRUTE_BUDGET = 10 ** 7


class ExtendError(Exception):
    pass


class PartialCollineation:
    """sigma on U1 (point indices) and tau on the lines meeting U1.

    Both are -1-padded integer arrays, of length P and L, held as int64
    copies."""

    def __init__(self, space, sigma, tau):
        if not isinstance(space, ProjSpace):
            raise ExtendError("space must be a ProjSpace")
        self.space = space
        self.sigma = _index_map(sigma, space.n_points, "sigma")
        self.tau = _index_map(tau, space.n_lines, "tau")

    # derived on access, as ascending int64 index arrays: callers may
    # edit sigma in place
    @property
    def U1(self):
        return np.flatnonzero(self.sigma >= 0)

    @property
    def U2(self):
        return np.flatnonzero(_image_mask(self.space, self.sigma))


def _index_map(m, n, name):
    """A partial map of [0, n) into itself, given as a -1-padded integer
    array, as a -1-padded int64 array of length n."""
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        raise ExtendError("%s is not an integer map" % name)
    if m.shape != (n,):
        raise ExtendError("%s must be an array of length %d" % (name, n))
    if ((m < -1) | (m >= n)).any():
        raise ExtendError("%s has an entry outside [-1, %d)" % (name, n))
    return m.astype(np.int64)


def _check_ranges(pc):
    """Re-run the construction's range checks: sigma and tau are public
    arrays that callers may edit in place."""
    _index_map(pc.sigma, pc.space.n_points, "sigma")
    _index_map(pc.tau, pc.space.n_lines, "tau")


def _image_mask(space, sigma):
    """Mask of the points of space hit by sigma."""
    hit = np.zeros(space.n_points, dtype=bool)
    hit[sigma[sigma >= 0]] = True
    return hit


def _meets(space, sigma):
    """Mask of the lines that meet the domain of sigma."""
    return space.line_counts(sigma >= 0) > 0


@dataclass
class ValidationReport:
    ok: bool
    reason: str
    witness: tuple | None


def validate_partial(pc, concurrency=None):
    """Bijectivity, domain coverage, and the intersection identity.

    concurrency: None, or "exhaustive" to check as well that every pair
    of lines meeting U1 that meet goes to a pair that meets.

    The identity carries sigma(p) onto tau(l) for every line l through a
    domain point p, so an injective tau maps the pencil at p injectively,
    hence bijectively, onto the equal-sized pencil at sigma(p).  The same
    argument puts sigma(x) on both images of two lines meeting at x in U1,
    so only a common point outside U1 can lose its image.

    Raises ExtendError when sigma or tau was edited out of range, or on
    any other value of concurrency."""
    if concurrency not in (None, "exhaustive"):
        raise ExtendError("concurrency must be None or 'exhaustive'")
    _check_ranges(pc)
    S = pc.space
    sig, tau = pc.sigma, pc.tau
    n_dom = np.count_nonzero(sig >= 0)
    if not n_dom:
        return ValidationReport(False, "empty domain", None)
    in_u2 = _image_mask(S, sig)
    if np.count_nonzero(in_u2) != n_dom:
        return ValidationReport(False, "sigma is not injective", None)
    meets = _meets(S, sig)
    if (meets != (tau >= 0)).any():
        return ValidationReport(
            False, "tau domain differs from the lines meeting U1", None)
    meeting = np.flatnonzero(meets)
    tau_img = np.zeros(S.n_lines, dtype=bool)
    tau_img[tau[meeting]] = True
    if np.count_nonzero(tau_img) != len(meeting):
        return ValidationReport(False, "tau is not injective", None)
    # sigma(l cap U1) against tau(l) cap U2, as sorted rows padded with -1
    src = np.sort(sig.astype(np.int32)[S.line_pts[meeting]], axis=1)
    dst = S.line_pts[tau[meeting]]
    dst = np.sort(np.where(in_u2[dst], dst, -1), axis=1)
    bad = np.flatnonzero((src != dst).any(axis=1))
    if len(bad):
        l = int(meeting[bad[0]])
        return ValidationReport(
            False, "tau(l) cuts U2 differently than sigma maps l cap U1",
            (l, int(tau[l])))
    if concurrency:
        pairs = meeting[np.stack(np.triu_indices(len(meeting), 1), axis=1)]
        step = max(1, _kernels._CHUNK // S.pts_per_line ** 2)
        for s in range(0, len(pairs), step):
            l, m = pairs[s:s + step].T
            bad = np.flatnonzero((S.meet_many(l, m) >= 0)
                                 & (S.meet_many(tau[l], tau[m]) < 0))
            if len(bad):
                i = bad[0]
                return ValidationReport(False, "Step2-1: images not concurrent",
                                        (int(l[i]), int(m[i])))
    return ValidationReport(True, "", None)


# ---------------------------------------------------------------------------
# the extension itself
# ---------------------------------------------------------------------------

def extend_point(pc, p, order=None, diagnostics=None):
    """Image of one point: sigma(p) on U1, else the meet of two
    transported lines through p."""
    p = int(p)
    if not 0 <= p < pc.space.n_points:
        raise ExtendError("point %d is outside the space" % p)
    _check_ranges(pc)
    if pc.sigma[p] >= 0:
        return int(pc.sigma[p])
    seq = np.asarray(pc.U1 if order is None else order, dtype=np.int64)
    return int(_extend_points(pc, [p], [seq[seq != p]], pc.tau,
                              diagnostics)[0])


def _extend_points(pc, pts, seqs, tau, diagnostics=None):
    """Images of points outside U1, each searched along its row of seqs.

    A line through the point ranks by the first place of its points in the
    row; the two lowest-ranked lines are the first two distinct lines the
    search meets, and their tau images meet in the image."""
    S, P = pc.space, pc.space.n_points
    seqs = np.asarray(seqs, dtype=np.int64)
    rows = np.arange(len(pts))[:, None]
    pos = np.full((len(pts), P), P, dtype=np.int64)
    np.minimum.at(pos, (rows, seqs), np.arange(seqs.shape[1]))
    thru = S.pt_lines[pts]
    ranks = pos[rows[:, :, None], S.line_pts[thru]].min(axis=2)
    if ranks.shape[1] < 2:
        raise ExtendError(_POINT_ERRORS[0])
    pick = np.argsort(ranks, axis=1)[:, :2]
    rk = np.take_along_axis(ranks, pick, axis=1)
    t = tau[np.take_along_axis(thru, pick, axis=1)]
    x = S.meet_many(*np.maximum(t, 0).T)
    fail = np.select([rk[:, 0] == P, t[:, 0] < 0, rk[:, 1] == P, t[:, 1] < 0,
                      (t[:, 0] == t[:, 1]) | (x < 0)], [0, 1, 0, 1, 2], -1)
    if (fail >= 0).any():
        raise ExtendError(_POINT_ERRORS[fail[fail >= 0][0]])
    if diagnostics is not None:
        diagnostics["line_searches"] += int(rk[:, 1].sum()) + len(rk)
    return x


_POINT_ERRORS = ("ampleness violated: fewer than two lines through the "
                 "point meet the domain",
                 "tau undefined on a line meeting the domain",
                 "Step2-1: images not concurrent")


@dataclass
class ExtensionResult:
    sigma_tilde: np.ndarray
    tau_tilde: np.ndarray
    collineation: Collineation
    decoded: SemilinearIso
    diagnostics: dict


def extend(pc, fam, seed=0):
    """Full extension with verification; raises on any inconsistency.

    fam governs both the domain and its image.  Each point outside U1
    searches its lines along its own seeded shuffle of U1; the result
    must not depend on the seed.

    After the ampleness checks the steps run on the unvalidated map, and
    validate_partial runs only to name a failure: when a step raises, or
    when tau's domain is not the set of lines meeting U1, a failed
    validation raises "precondition: <reason>", and otherwise the step's
    own error stands.  The result or error is the one validating first
    would give.  The final check makes the extension a collineation that
    agrees with sigma on U1 and with tau on its domain.  So for each line
    l meeting U1 it maps l onto tau(l), and, being a bijection, it maps
    l cap U1 onto tau(l) cap U2: the intersection identity holds, and
    sigma and tau are injective as restrictions of bijections.  Of
    validation's checks only tau's domain is left, and it is checked.
    """
    S = pc.space
    if S.d < 3:
        raise ExtendError("precondition: dimension must be at least 3")
    _check_ranges(pc)
    if not is_mn_admissible(fam, S.q, 3, 2):
        raise ExtendError("precondition: family is not (3,2)-admissible "
                          "at q=%d" % S.q)
    rep1 = is_ample(S, pc.U1, fam)
    if not rep1.ample:
        raise ExtendError("precondition: domain is not ample (%s)" % rep1.reason)
    rep2 = is_ample(S, pc.U2, fam)
    if not rep2.ample:
        raise ExtendError("precondition: image is not ample (%s)" % rep2.reason)
    try:
        if (_meets(S, pc.sigma) != (pc.tau >= 0)).any():
            # validation fails on this, if not on something before it
            raise ExtendError("tau domain differs from the lines meeting U1")
        sigma_tilde, tau = pc.sigma.copy(), pc.tau
        outside = np.flatnonzero(sigma_tilde < 0)
        diagnostics = {"line_searches": 0, "points_extended": len(outside),
                       "lines_verified": S.n_lines,
                       "t_star": max(rep1.t_star, rep2.t_star)}
        seqs = np.random.default_rng(seed).permuted(
            np.tile(np.flatnonzero(pc.sigma >= 0), (len(outside), 1)), axis=1)
        sigma_tilde[outside] = _extend_points(pc, outside, seqs, tau,
                                              diagnostics)
        if len(np.unique(sigma_tilde)) != S.n_points:
            raise ExtendError("Step3-1: extended point map is not a bijection")
        try:
            coll = Collineation(S, sigma_tilde)
        except SemilinearError:
            raise ExtendError("Step3-4: extended map does not carry lines "
                              "to lines")
        bad = np.nonzero((tau >= 0) & (coll.tau != tau))[0]
        if len(bad):
            raise ExtendError("Step3-2: extended line map disagrees with tau "
                              "on line %d" % bad[0])
    except ExtendError:
        val = validate_partial(pc, concurrency=None)
        if not val.ok:
            raise ExtendError("precondition: %s" % val.reason) from None
        raise
    return ExtensionResult(sigma_tilde, coll.tau.copy(), coll,
                           decode_ftpg(coll), diagnostics)


def restrict(mapping, U1):
    """Partial collineation induced on U1 by a full map; extend's inverse."""
    if isinstance(mapping, SemilinearIso):
        coll = mapping.induce()
    elif isinstance(mapping, Collineation):
        coll = mapping
    else:
        raise ExtendError("mapping must be a SemilinearIso or Collineation")
    S = coll.space
    U1 = np.asarray(U1, dtype=np.int64)
    if not U1.size:
        raise ExtendError("restriction needs a nonempty subset")
    if ((U1 < 0) | (U1 >= S.n_points)).any():
        raise ExtendError("restriction domain has a point outside the space")
    sigma = np.full(S.n_points, -1, dtype=np.int64)
    sigma[U1] = coll.sigma[U1]
    tau = np.where(_meets(S, sigma), coll.tau, -1)
    return PartialCollineation(S, sigma, tau)


def _span_codes(S, rows):
    """Vector codes of the q^k linear combinations of the k rows of each
    [m, k, d] stack, as an [m, q^k] array: one mat_apply of each stack
    against the q^k coefficient vectors, the first most significant."""
    q, k = S.q, rows.shape[1]
    if not k:
        return np.zeros((len(rows), 1), dtype=np.int64)
    coef = np.indices((q,) * k).reshape(k, -1).T
    return S._vector_code(mat_apply(S.field, rows.swapaxes(1, 2), coef))


def _flat_points(space, gens):
    """Point indices of the span of generator vectors, ascending."""
    codes = _span_codes(space, np.asarray(gens)[None])[0]
    return np.unique(space.code_points()[codes[codes > 0]])


def random_ample_instance(space, t, rng):
    """Random U ample for size_at_most(t), as an ascending int64 index
    array; returns (U, kind label).

    Shapes of the removed set, by threshold: nothing for t = 0; a single
    point or a single flat as well for t = 1; additionally point pairs,
    triangles, and flat-plus-point for t = 2.  The complement of a point
    or a flat is exempt on the lines inside it and misses exactly one
    point on every other meeting line.
    """
    if space.d < 3:
        raise ExtendError("precondition: dimension must be at least 3")
    kinds = ["all"]
    if t >= 1:
        kinds += ["point", "flat"]
    if t >= 2:
        kinds += ["two_points", "triangle", "flat_plus_point"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    P = space.n_points
    removed = np.zeros(P, dtype=bool)
    if kind == "point":
        removed[rng.integers(0, P)] = True
    elif kind in ("flat", "flat_plus_point"):
        dim_flat = int(rng.integers(2, space.d))  # proper flat, >= a line
        while True:
            gens = space.pts[rng.integers(0, P, size=dim_flat)]
            if len(rref(space.field, gens)[1]) == dim_flat:
                break
        removed[_flat_points(space, gens)] = True
        if kind == "flat_plus_point":
            outside = np.flatnonzero(~removed)
            removed[outside[rng.integers(0, len(outside))]] = True
    elif kind == "two_points":
        removed[rng.choice(P, size=2, replace=False)] = True
    elif kind == "triangle":
        while True:
            a, b, c = rng.choice(P, size=3, replace=False)
            if c not in space.line_pts[space.join_idx(a, b)]:
                removed[[a, b, c]] = True
                break
    return np.flatnonzero(~removed), kind


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def _frame_in(S, U1):
    """Points of U1 in general position: a basis of the span of U1, taken
    greedily in ascending order, and, when it spans the space, a unit: a
    point of U1 whose coordinates x in the basis are all nonzero, else
    None.  When the greedy basis holds no unit, the bases one exchange
    away are searched: b_j gives way to a point w with x_wj != 0, and u is
    a unit of the new basis when x_uj != 0 and x_ui x_wj != x_wi x_uj for
    every i != j."""
    f = S.field
    # the pivot columns of the rref of U1's columns are the greedy basis,
    # and the reduced columns are the coordinates x of U1 in it: v = x B
    R, pivots = rref(f, S.pts[U1].T)
    basis = [int(U1[c]) for c in pivots]
    if len(basis) < S.d:
        return basis, None
    x = R.T
    full = (x != 0).all(axis=1)
    if full.any():
        return basis, int(U1[np.argmax(full)])
    for j in range(S.d):
        for w in np.flatnonzero(x[:, j]):
            minor = f.add_t[f.mul_t[x, x[w, j]],
                            f.neg_t[f.mul_t[x[w], x[:, j, None]]]]
            minor[:, j] = x[:, j]
            full = (minor != 0).all(axis=1)
            if full.any():
                basis[j] = int(U1[w])
                return basis, int(U1[np.argmax(full)])
    return basis, None


def _candidate_count(q, d, n, k, unit):
    """Candidates of the frame search: for each of the n Frobenius powers,
    every image of the d - k missing basis points in general position
    and, without a unit in U1, every unit image, (q - 1)^(d - 1)."""
    out = n * (q - 1) ** (d - 1 if unit is None else 0)
    for j in range(k, d):
        out *= (q ** d - q ** j) // (q - 1)
    return out


def _image_bases(S, fixed):
    """Row codes [N, d] of the ordered bases of k^d that start with the
    canonical vectors `fixed` ([k, d], independent), each further row
    running over the points off the span of the rows above it."""
    q, d = S.q, S.d
    vecs = S.code_vectors()
    pt_codes = S._vector_code(S.pts).astype(np.min_scalar_type(q ** d - 1))
    codes = S._vector_code(fixed).astype(pt_codes.dtype)[None]
    step = max(1, (1 << 18) // q ** d)   # prefixes per span mask
    for k in range(len(fixed), d):
        n, n_free = len(codes), (q ** d - q ** k) // (q - 1)
        out = np.empty((n, n_free, k + 1), dtype=codes.dtype)
        out[:, :, :k] = codes[:, None]
        for s in range(0, n, step):
            prefix = vecs[codes[s:s + step]]
            m = len(prefix)
            inspan = np.zeros((m, q ** d), dtype=bool)
            inspan[np.arange(m)[:, None], _span_codes(S, prefix)] = True
            free = ~inspan[:, pt_codes]
            out[s:s + m, :, k] = np.broadcast_to(pt_codes, free.shape)[
                free].reshape(m, n_free)
        codes = out.reshape(-1, k + 1)
    return codes


def brute_force_extensions(pc):
    """Every collineation agreeing with sigma on U1, by a frame search.

    A collineation is v -> M mu(v), with M fixed up to a scalar by mu and
    the images of a projective frame (FTPG).  The frame is the points of
    U1 in general position (_frame_in), completed by standard basis
    vectors off their pivots and a unit point.  For each Frobenius power
    mu, every choice of images in general position for the completion
    gives one candidate M = W diag(s) A^-1: A has the frame's basis
    vectors under mu as columns, W their images, and s scales the columns
    of W so that the unit goes to the unit's image.  Each chunk of
    candidates goes through matrix_filter as it is built, and only the
    ones that agree with sigma on all of U1 are kept.  tau is not
    consulted: a survivor's line map is its own, whatever pc.tau says.

    The survivors come power by power, each in lexicographic order of its
    matrix scaled to first entry 1, read row by row: the order of a walk
    over the semilinear group modulo scalars.  Refuses above 1e7
    candidates, counted before any is built.
    """
    S = pc.space
    f, q, d = S.field, S.q, S.d
    U1 = np.flatnonzero(pc.sigma >= 0)
    basis, unit = _frame_in(S, U1)
    count = _candidate_count(q, d, f.n, len(basis), unit)
    if count > BRUTE_BUDGET:
        raise ExtendError("frame search too large for brute force "
                          "(%d candidates)" % count)
    # a collineation keeps the basis images independent
    img = S.pts[pc.sigma[basis]]
    if len(rref(f, img)[1]) < len(basis):
        return []
    if unit is None:
        # every column scaling; scaling column 0 by 1 fixes the scalar
        scales = np.indices((1,) + (q - 1,) * (d - 1)).reshape(d, -1).T + 1
    else:
        c = mat_apply(f, mat_inv(f, img.T), S.pts[pc.sigma[[unit]]])[0]
    bases = _image_bases(S, img)
    # standard basis vectors off the pivots complete the domain basis
    free = np.setdiff1d(np.arange(d), rref(f, S.pts[basis])[1])
    vecs = S.code_vectors()
    expect = pc.sigma[U1]
    out = []
    for e in range(f.n):
        moved = f.frob_t[e][S.pts]
        A_inv = mat_inv(f, np.vstack([moved[basis],
                                      np.eye(d, dtype=np.int64)[free]]).T)
        if unit is not None:
            a = mat_apply(f, A_inv, moved[[unit]])[0]
            scales = f.mul_t[c, f.inv_t[a]][None]
        # the columns of every diag(s) A^-1, and W times each of them
        cols = f.mul_t[scales[:, :, None], A_inv].swapaxes(1, 2).reshape(-1, d)
        mats = []
        step = max(1, _kernels._CHUNK // len(cols))
        for s in range(0, len(bases), step):
            W = vecs[bases[s:s + step]].swapaxes(1, 2)
            M = mat_apply(f, W, cols).reshape(-1, d, d).swapaxes(1, 2)
            lead = np.take_along_axis(
                M[:, 0], np.argmax(M[:, 0] != 0, axis=1)[:, None], axis=1)
            M = f.mul_t[f.inv_t[lead][..., None], M]
            mats.append(M[_kernels.matrix_filter(M, moved[U1], expect, S)])
        mats = np.concatenate(mats)
        # lexicographic in the entries read row by row
        mats = mats[np.lexsort(mats.reshape(-1, d * d).T[::-1])]
        # the point maps v -> M mu(v) of the survivors, a chunk at a time;
        # each M is invertible by construction
        step = max(1, _kernels._CHUNK // S.n_points)
        for s in range(0, len(mats), step):
            out += Collineation.many(S, S.canon_index_many(
                mat_apply(f, mats[s:s + step], moved)))
    return out
