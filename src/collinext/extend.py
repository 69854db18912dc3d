"""Extending a partial collineation on an ample subset to the whole space.

The partial data is a point bijection sigma on an ample U1 together with a
line bijection tau on the lines meeting U1, compatible on intersections.
Under (3,2)-admissibility of the governing family the extension exists, is
unique, and is found constructively: each missing point image is the meet
of two transported lines, the line map is re-derived from point images,
and the result is verified end to end before being decoded into matrix
plus twist form.  Error messages name the construction step that failed.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import rref
from .projgeom import ProjSpace
from .semilinear import Collineation, SemilinearError, SemilinearIso, decode_ftpg
from .ample import is_ample, is_mn_admissible
from . import _kernels

BRUTE_BUDGET = 10 ** 7


class ExtendError(Exception):
    pass


class PartialCollineation:
    """sigma on U1 (point indices) and tau on the lines meeting U1."""

    def __init__(self, space1, sigma, tau, space2=None):
        if not isinstance(space1, ProjSpace):
            raise ExtendError("space1 must be a ProjSpace")
        if space2 is None:
            space2 = space1
        if space2.field is not space1.field or space2.d != space1.d:
            raise ExtendError("spaces must share field and dimension")
        if space2 is not space1:
            # separately built spaces enumerate identically; pin that down
            if not (np.array_equal(space1.pts, space2.pts)
                    and np.array_equal(space1.line_pts, space2.line_pts)):
                raise ExtendError("spaces disagree on enumeration")
        self.space1 = space1
        self.space2 = space2
        self.sigma = {int(k): int(v) for k, v in sigma.items()}
        self.tau = {int(k): int(v) for k, v in tau.items()}

    # derived on access: callers may edit sigma in place
    @property
    def U1(self):
        return sorted(self.sigma)

    @property
    def U2(self):
        return sorted(set(self.sigma.values()))

    def meeting_lines(self):
        hit = np.isin(self.space1.line_pts, self.U1).any(axis=1)
        return np.nonzero(hit)[0].tolist()


@dataclass
class ValidationReport:
    ok: bool
    reason: str
    witness: tuple | None


def _as_arrays(pc):
    """sigma and tau as index arrays over points and lines, -1 off domain."""
    sig = np.full(pc.space1.n_points, -1, dtype=np.int64)
    sig[list(pc.sigma)] = list(pc.sigma.values())
    tau = np.full(pc.space1.n_lines, -1, dtype=np.int64)
    tau[list(pc.tau)] = list(pc.tau.values())
    return sig, tau


def validate_partial(pc, concurrency="sampled", samples=300, seed=0):
    """Bijectivity, domain coverage, and the intersection identity.

    concurrency: None, "sampled", or "exhaustive" pair/triple preservation
    checks on the lines meeting U1."""
    S1, S2 = pc.space1, pc.space2
    if not pc.U1:
        return ValidationReport(False, "empty domain", None)
    if len(set(pc.sigma.values())) != len(pc.sigma):
        return ValidationReport(False, "sigma is not injective", None)
    meeting = pc.meeting_lines()
    if set(pc.tau) != set(meeting):
        return ValidationReport(
            False, "tau domain differs from the lines meeting U1", None)
    if len(set(pc.tau.values())) != len(pc.tau):
        return ValidationReport(False, "tau is not injective", None)
    sig, tau = _as_arrays(pc)
    # sigma(l cap U1) against tau(l) cap U2, as sorted rows padded with -1
    src = np.sort(sig[S1.line_pts[meeting]], axis=1)
    dst = S2.line_pts[tau[meeting]]
    dst = np.sort(np.where(np.isin(dst, pc.U2), dst, -1), axis=1)
    bad = np.nonzero((src != dst).any(axis=1))[0]
    if len(bad):
        l = meeting[bad[0]]
        return ValidationReport(
            False, "tau(l) cuts U2 differently than sigma maps l cap U1",
            (l, pc.tau[l]))
    # Step1: the pencil at p must go bijectively onto the pencil at
    # sigma(p); pencils are sorted rows of pt_lines
    img = np.sort(tau[S1.pt_lines[pc.U1]], axis=1)
    dup = (img[:, 1:] == img[:, :-1]).any(axis=1)
    miss = (img != S2.pt_lines[sig[pc.U1]]).any(axis=1)
    bad = np.nonzero(dup | miss)[0]
    if len(bad):
        i = bad[0]
        reason = ("Step1: line pencil at a domain point does not stay "
                  "bijective" if dup[i] else
                  "Step1: image line misses the image point")
        return ValidationReport(False, reason, (pc.U1[i],))
    if concurrency:
        pairs = _line_pairs(meeting, concurrency, samples, seed)
        for l, m in pairs:
            x = S1.meet_idx(l, m)
            y = S2.meet_idx(pc.tau[l], pc.tau[m])
            if x >= 0 and y < 0:
                return ValidationReport(
                    False, "Step2-1: images not concurrent", (l, m))
            if x >= 0 and int(x) in pc.sigma and pc.sigma[int(x)] != y:
                return ValidationReport(
                    False, "Step2-1: image lines miss the image of the "
                    "common point", (l, m))
    return ValidationReport(True, "", None)


def _line_pairs(meeting, mode, samples, seed):
    n = len(meeting)
    if mode == "exhaustive" or n * (n - 1) // 2 <= samples:
        return list(itertools.combinations(meeting, 2))
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < samples:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            out.append((meeting[int(i)], meeting[int(j)]))
    return out


# ---------------------------------------------------------------------------
# the extension itself
# ---------------------------------------------------------------------------

def extend_point(pc, p, order=None, diagnostics=None):
    """Image of one point: sigma(p) on U1, else the meet of two
    transported lines through p."""
    p = int(p)
    if p in pc.sigma:
        return pc.sigma[p]
    seq = [int(u) for u in (pc.U1 if order is None else order) if int(u) != p]
    return int(_extend_points(pc, [p], [seq], _as_arrays(pc)[1],
                              diagnostics)[0])


def _extend_points(pc, pts, seqs, tau, diagnostics=None):
    """Images of points outside U1, each searched along its row of seqs.

    A line through the point ranks by the first place of its points in the
    row; the two lowest-ranked lines are the first two distinct lines the
    search meets, and their tau images meet in the image."""
    S1, P = pc.space1, pc.space1.n_points
    seqs = np.asarray(seqs, dtype=np.int64)
    rows = np.arange(len(pts))[:, None]
    pos = np.full((len(pts), P), P, dtype=np.int64)
    np.minimum.at(pos, (rows, seqs), np.arange(seqs.shape[1]))
    thru = S1.pt_lines[pts]
    ranks = pos[rows[:, :, None], S1.line_pts[thru]].min(axis=2)
    if ranks.shape[1] < 2:
        raise ExtendError(_POINT_ERRORS[0])
    pick = np.argsort(ranks, axis=1)[:, :2]
    rk = np.take_along_axis(ranks, pick, axis=1)
    t = tau[np.take_along_axis(thru, pick, axis=1)]
    x = pc.space2.meet_many(*np.maximum(t, 0).T)
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


def extend(pc, fam1, fam2=None, order="canonical", seed=0, decode=True):
    """Full extension with verification; raises on any inconsistency.

    order picks the line-search sequence per point: "canonical" ascending,
    "reversed", or "shuffled" (seeded); the result must not depend on it.
    """
    if fam2 is None:
        fam2 = fam1
    S1, S2 = pc.space1, pc.space2
    if S1.d < 3:
        raise ExtendError("precondition: dimension must be at least 3")
    q = S1.q
    for fam, who in ((fam1, "source"), (fam2, "target")):
        if not is_mn_admissible(fam, q, 3, 2):
            raise ExtendError("precondition: %s family is not "
                              "(3,2)-admissible at q=%d" % (who, q))
    rep1 = is_ample(S1, pc.U1, fam1)
    if not rep1.ample:
        raise ExtendError("precondition: domain is not ample (%s)" % rep1.reason)
    rep2 = is_ample(S2, pc.U2, fam2)
    if not rep2.ample:
        raise ExtendError("precondition: image is not ample (%s)" % rep2.reason)
    val = validate_partial(pc, concurrency=None)
    if not val.ok:
        raise ExtendError("precondition: %s" % val.reason)

    sigma_tilde, tau = _as_arrays(pc)
    outside = np.nonzero(sigma_tilde < 0)[0]
    diagnostics = {"line_searches": 0, "points_extended": len(outside),
                   "lines_verified": S1.n_lines,
                   "t_star": max(rep1.t_star, rep2.t_star)}
    if order not in ("canonical", "reversed", "shuffled"):
        raise ExtendError("unknown order %r" % order)
    U1 = np.asarray(pc.U1)
    seqs = np.tile(U1[::-1] if order == "reversed" else U1, (len(outside), 1))
    if order == "shuffled":
        seqs = np.random.default_rng(seed).permuted(seqs, axis=1)
    sigma_tilde[outside] = _extend_points(pc, outside, seqs, tau, diagnostics)
    if len(np.unique(sigma_tilde)) != S1.n_points:
        raise ExtendError("Step3-1: extended point map is not a bijection")
    try:
        coll = Collineation(S1, sigma_tilde)
    except SemilinearError:
        raise ExtendError("Step3-4: extended map does not carry lines to lines")
    bad = np.nonzero((tau >= 0) & (coll.tau != tau))[0]
    if len(bad):
        raise ExtendError("Step3-2: extended line map disagrees with tau "
                          "on line %d" % bad[0])
    decoded = decode_ftpg(coll) if decode else None
    return ExtensionResult(sigma_tilde, coll.tau.copy(), coll, decoded,
                           diagnostics)


def restrict(mapping, U1):
    """Partial collineation induced on U1 by a full map; extend's inverse."""
    if isinstance(mapping, SemilinearIso):
        coll = mapping.induce()
    elif isinstance(mapping, Collineation):
        coll = mapping
    else:
        raise ExtendError("mapping must be a SemilinearIso or Collineation")
    S = coll.space
    U1 = sorted(int(p) for p in U1)
    if not U1:
        raise ExtendError("restriction needs a nonempty subset")
    sigma = {p: int(coll.sigma[p]) for p in U1}
    pc = PartialCollineation(S, sigma, {})
    tau = {l: int(coll.tau[l]) for l in pc.meeting_lines()}
    return PartialCollineation(S, sigma, tau)


def _flat_points(space, gens):
    """Point indices of the span of independent generator vectors."""
    f = space.field
    v = np.zeros((1, space.d), dtype=np.int64)
    for g in np.asarray(gens, dtype=np.int64):
        v = f.add_t[v[:, None], f.mul_t[np.arange(f.q)[:, None], g]]
        v = v.reshape(-1, space.d)
    return set(space.canon_index_many(v[(v != 0).any(axis=1)]).tolist())


def random_ample_instance(space, t, rng):
    """Random U ample for size_at_most(t); returns (U, kind label).

    Shapes of the removed set, by threshold: nothing or a single flat for
    t <= 1; additionally point pairs, triangles, and flat-plus-point for
    t = 2.  The complement of a flat is exempt on the lines inside it and
    misses exactly one point on every other meeting line.
    """
    if space.d < 3:
        raise ExtendError("precondition: dimension must be at least 3")
    kinds = ["all", "point"]
    if t >= 1:
        kinds += ["flat"]
    if t >= 2:
        kinds += ["two_points", "triangle", "flat_plus_point"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    P = space.n_points
    removed = set()
    if kind == "point":
        removed = {int(rng.integers(0, P))}
    elif kind in ("flat", "flat_plus_point"):
        dim_flat = int(rng.integers(2, space.d))  # proper flat, >= a line
        while True:
            picks = rng.integers(0, P, size=dim_flat)
            gens = [space.pts[int(i)] for i in picks]
            _, piv = rref(space.field, [list(map(int, g)) for g in gens])
            if len(piv) == dim_flat:
                break
        removed = _flat_points(space, gens)
        if kind == "flat_plus_point":
            outside = [p for p in range(P) if p not in removed]
            removed.add(int(outside[int(rng.integers(0, len(outside)))]))
    elif kind == "two_points":
        removed = set(rng.choice(P, size=2, replace=False).tolist())
    elif kind == "triangle":
        while True:
            a, b, c = map(int, rng.choice(P, size=3, replace=False))
            l = space.join_idx(a, b)
            if not space.on_line[c, l]:
                removed = {a, b, c}
                break
    return [p for p in range(P) if p not in removed], kind


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def _gl_size(q, d):
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def _candidate_matrices(S):
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


def brute_force_extensions(pc):
    """Every collineation agreeing with sigma on U1, by full enumeration.

    Walks the semilinear group modulo scalars; refuses above 1e7 elements.
    """
    S = pc.space1
    f, d = S.field, S.d
    group = _gl_size(f.q, d) // (f.q - 1) * f.n
    if group > BRUTE_BUDGET:
        raise ExtendError("collineation group too large for brute force "
                          "(%d elements)" % group)
    codes = _candidate_matrices(S)
    vecs = S.code_vectors()
    point_of = S.code_points()
    expect = np.array([pc.sigma[p] for p in pc.U1], dtype=np.int64)
    out = []
    for e in range(f.n):
        reps = f.frob_t[e][S.pts[pc.U1]]
        mask = _kernels.matrix_filter(codes, reps, expect, vecs, point_of,
                                      f.mul_t, f.add_t)
        for M in vecs[codes[mask]]:
            out.append(SemilinearIso(S, M, e).induce())
    return out
