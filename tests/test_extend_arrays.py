"""Array-native validation and extension against loop-based references.

The references below are the per-line and per-point loops the array code
replaced; verdicts, witnesses, images and search counts must agree."""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from collinext import _kernels
from collinext.gf import make_field
from collinext.projgeom import ProjSpace
from collinext.semilinear import (
    SemilinearIso,
    equal_up_to_scalar,
    random_semilinear,
)
from collinext.ample import AmpleFamily
from collinext.extend import (
    ExtendError,
    PartialCollineation,
    ValidationReport,
    _line_pairs,
    brute_force_extensions,
    extend,
    extend_point,
    random_ample_instance,
    restrict,
    validate_partial,
)
from test_extend import meeting_lines

_SPACES = {}


def space(p, n, d):
    if (p, n, d) not in _SPACES:
        _SPACES[p, n, d] = ProjSpace(make_field(p, n), d)
    return _SPACES[p, n, d]


# ---------------------------------------------------------------------------
# loop-based references
# ---------------------------------------------------------------------------

def as_dict(m):
    """A -1-padded index array as the dict it stands for."""
    return {i: v for i, v in enumerate(m.tolist()) if v >= 0}


def ref_validate(pc, concurrency="sampled", samples=300, seed=0):
    S = pc.space
    sigma, tau = as_dict(pc.sigma), as_dict(pc.tau)
    if not len(pc.U1):
        return ValidationReport(False, "empty domain", None)
    vals = list(sigma.values())
    if len(set(vals)) != len(vals):
        return ValidationReport(False, "sigma is not injective", None)
    meeting = meeting_lines(pc)
    if set(tau) != set(meeting):
        return ValidationReport(
            False, "tau domain differs from the lines meeting U1", None)
    tvals = list(tau.values())
    if len(set(tvals)) != len(tvals):
        return ValidationReport(False, "tau is not injective", None)
    inU2 = set(pc.U2)
    for l in meeting:
        src = {sigma[int(p)] for p in S.line_pts[l] if int(p) in sigma}
        dst = {int(p) for p in S.line_pts[tau[l]]} & inU2
        if src != dst:
            return ValidationReport(
                False, "tau(l) cuts U2 differently than sigma maps l cap U1",
                (l, tau[l]))
    for p in pc.U1:
        thru = [l for l in meeting if S.on_line[p, l]]
        imgs = {tau[l] for l in thru}
        if len(imgs) != len(thru):
            return ValidationReport(False, "Step1: line pencil at a domain "
                                    "point does not stay bijective", (p,))
        sp = sigma[p]
        if any(not S.on_line[sp, m] for m in imgs):
            return ValidationReport(False, "Step1: image line misses the "
                                    "image point", (p,))
    if concurrency:
        for l, m in ref_line_pairs(meeting, concurrency, samples, seed):
            x = S.meet_t[l, m]
            y = S.meet_t[tau[l], tau[m]]
            if x >= 0 and y < 0:
                return ValidationReport(
                    False, "Step2-1: images not concurrent", (l, m))
            if x >= 0 and int(x) in sigma and sigma[int(x)] != y:
                return ValidationReport(
                    False, "Step2-1: image lines miss the image of the "
                    "common point", (l, m))
    return ValidationReport(True, "", None)


def ref_line_pairs(meeting, mode, samples, seed):
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


def ref_extend_point(pc, p, seq):
    """(image, points searched) by walking seq until a second line."""
    S = pc.space
    tau = as_dict(pc.tau)
    first, searched = -1, 0
    for u in seq:
        if u == p:
            continue
        searched += 1
        l = int(S.join_t[p, u])
        if l not in tau:
            raise ExtendError("tau undefined on a line meeting the domain")
        if first < 0:
            first = l
        elif l != first:
            t1, t2 = tau[first], tau[l]
            x = -1 if t1 == t2 else S.meet_t[t1, t2]
            if x < 0:
                raise ExtendError("Step2-1: images not concurrent")
            return int(x), searched
    raise ExtendError("ampleness violated: fewer than two lines through "
                      "the point meet the domain")


# ---------------------------------------------------------------------------
# validation: clean restrictions and mutations
# ---------------------------------------------------------------------------

GRID = [(5, 1, 3), (3, 2, 3), (5, 1, 4)]


def _mutations(S, pc, rng):
    """(label, mutated copy) pairs covering every validation branch."""
    meeting = meeting_lines(pc)
    out = []

    def copy():
        return PartialCollineation(S, pc.sigma.copy(), pc.tau.copy())

    m = copy()
    a, b = rng.choice(m.U1, size=2, replace=False)
    m.sigma[a], m.sigma[b] = m.sigma[b], m.sigma[a]
    out.append(("swapped sigma", m))
    m = copy()
    l = meeting[int(rng.integers(len(meeting)))]
    m.tau[l] = (m.tau[l] + 1 + int(rng.integers(S.n_lines - 1))) % S.n_lines
    out.append(("redirected tau", m))
    m = copy()
    m.tau[meeting[int(rng.integers(len(meeting)))]] = -1
    out.append(("deleted tau", m))
    m = copy()
    l, k = rng.choice(meeting, size=2, replace=False)
    m.tau[l] = m.tau[k]
    out.append(("non-injective tau", m))
    m = copy()
    p = m.U1[int(rng.integers(len(m.U1)))]
    l = int(S.pt_lines[p][int(rng.integers(S.lines_per_pt))])
    away = [n for n in range(S.n_lines) if not S.on_line[m.sigma[p], n]]
    m.tau[l] = away[int(rng.integers(len(away)))]
    out.append(("image line misses image point", m))
    return out


@pytest.mark.parametrize("p,n,d", GRID)
def test_validate_matches_reference(p, n, d):
    S = space(p, n, d)
    rng = np.random.default_rng(100 + p + d)
    fails = 0
    for _ in range(4):
        iso = random_semilinear(S, rng)
        U, _ = random_ample_instance(S, 1, rng)
        pc = restrict(iso, U)
        cases = [("clean", pc)] + _mutations(S, pc, rng)
        for label, m in cases:
            for conc in (None, "sampled"):
                got = validate_partial(m, concurrency=conc, seed=3)
                want = ref_validate(m, concurrency=conc, seed=3)
                assert got == want, (label, conc)
                assert got.witness is None or all(
                    type(w) is int for w in got.witness)
            fails += not got.ok
            assert got.ok == (label == "clean"), label
    assert fails == 4 * 5


def test_validate_exhaustive_matches_reference():
    S = space(5, 1, 3)
    rng = np.random.default_rng(7)
    pc = restrict(random_semilinear(S, rng), random_ample_instance(S, 1, rng)[0])
    for label, m in [("clean", pc)] + _mutations(S, pc, rng):
        got = validate_partial(m, concurrency="exhaustive")
        assert got == ref_validate(m, concurrency="exhaustive"), label


OPS = ["swap", "retarget", "drop", "copy", "move", "pencil", "unset",
       "collide"]


def _mutate(S, pc, rng, op):
    """Apply one in-range random edit to pc in place."""
    keys = np.flatnonzero(pc.tau >= 0).tolist()
    if op == "swap":
        a, b = rng.choice(pc.U1, size=2, replace=False)
        pc.sigma[a], pc.sigma[b] = pc.sigma[b], pc.sigma[a]
    elif op == "retarget" and keys:
        pc.tau[keys[int(rng.integers(len(keys)))]] = int(
            rng.integers(S.n_lines))
    elif op == "drop" and keys:
        pc.tau[keys[int(rng.integers(len(keys)))]] = -1
    elif op == "copy" and len(keys) > 1:
        a, b = rng.choice(keys, size=2, replace=False)
        pc.tau[a] = pc.tau[b]
    elif op == "move":
        # a domain point to a point outside the image, tau untouched
        free = np.setdiff1d(np.arange(S.n_points), pc.U2)
        if len(free):
            pc.sigma[rng.choice(pc.U1)] = rng.choice(free)
    elif op == "pencil":
        # permute tau inside the pencil at a domain point
        thru = S.pt_lines[rng.choice(pc.U1)]
        pc.tau[thru] = pc.tau[rng.permutation(thru)]
    elif op == "unset" and len(pc.U1) > 1:
        pc.sigma[rng.choice(pc.U1)] = -1
    elif op == "collide" and len(pc.U1) > 1:
        a, b = rng.choice(pc.U1, size=2, replace=False)
        pc.sigma[a] = pc.sigma[b]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(GRID), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(OPS), max_size=3))
def test_validate_random_mutations_match_reference(pnd, seed, ops):
    S = space(*pnd)
    rng = np.random.default_rng(seed)
    pc = restrict(random_semilinear(S, rng), random_ample_instance(S, 1, rng)[0])
    for op in ops:
        _mutate(S, pc, rng, op)
    want = ref_validate(pc, seed=seed)
    assert validate_partial(pc, seed=seed) == want
    assert not want.reason.startswith("Step1")
    # the intersection identity already puts sigma(x) on both images
    assert "miss the image of the common point" not in want.reason


def test_step1_is_never_the_first_failure():
    # validate_partial has no Step1 pencil check: the intersection
    # identity puts sigma(p) on tau(l) for each line l through a domain
    # point p, and an injective tau then maps the pencil at p onto the
    # pencil at sigma(p).  The reference keeps the check after the
    # identity; it must never be what fails first.
    reasons = collections.Counter()
    for seed in range(600):
        rng = np.random.default_rng(seed)
        S = space(*GRID[seed % len(GRID)])
        pc = restrict(random_semilinear(S, rng),
                      random_ample_instance(S, 1, rng)[0])
        for op in rng.choice(OPS, size=int(rng.integers(1, 4))):
            _mutate(S, pc, rng, op)
        want = ref_validate(pc, concurrency=None)
        assert not want.reason.startswith("Step1"), (seed, want)
        assert validate_partial(pc, concurrency=None) == want, seed
        reasons[want.reason] += 1
    # every check before the reference's Step1 fails, and some edits pass
    assert len(reasons) == 5 and min(reasons.values()) >= 20, reasons


@pytest.mark.parametrize("n,samples", [(0, 5), (1, 5), (4, 6), (4, 5),
                                       (30, 300), (31, 300), (200, 50)])
def test_line_pairs_match_reference_stream(n, samples):
    meeting = sorted(np.random.default_rng(n).choice(1000, n, replace=False))
    for mode in ("exhaustive", "sampled"):
        for seed in (0, 9):
            got = _line_pairs(meeting, mode, samples, seed)
            want = ref_line_pairs(meeting, mode, samples, seed)
            assert got.shape == (len(want), 2)
            assert got.tolist() == [list(w) for w in want]


@pytest.mark.parametrize("chunk", [16, _kernels._CHUNK])
def test_validate_catches_skew_images(chunk, monkeypatch):
    # U1 = {a, b} in P^3(F_3): a line through a alone only has to go to a
    # line through sigma(a) that misses sigma(b), so rotating tau around
    # the pencil at a keeps the intersection identity.  Lines through a
    # and through b that meet off U1 then go to skew lines.  Chunks of 16
    # elements put one pair in each chunk.
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    S = space(3, 1, 4)
    a, b = 0, 20
    pc = restrict(SemilinearIso(S, np.eye(4, dtype=int), 0), [a, b])
    thru = [l for l in S.pt_lines[a] if b not in S.line_pts[l]]
    pc.tau[thru] = pc.tau[np.roll(thru, 1)]
    for conc in ("exhaustive", "sampled"):
        want = ref_validate(pc, concurrency=conc, samples=40, seed=5)
        assert want.reason == "Step2-1: images not concurrent"
        assert validate_partial(pc, concurrency=conc, samples=40,
                                seed=5) == want
    assert validate_partial(pc, concurrency=None).ok


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def _outcome(fn):
    try:
        return fn()
    except ExtendError as err:
        return str(err)


def test_extend_point_matches_reference_search():
    S = space(5, 1, 3)
    rng = np.random.default_rng(31)
    pc = restrict(random_semilinear(S, rng), random_ample_instance(S, 1, rng)[0])
    off = [p for p in range(S.n_points) if pc.sigma[p] < 0]
    assert off
    outcomes = set()
    for p in off * 10 + [int(x) for x in rng.integers(0, S.n_points, size=5)]:
        # explicit orders may repeat points, hold p itself, and start with
        # points whose line through p misses U1
        seq = [int(u) for u in rng.permutation(S.n_points)[:20]] + [p] + pc.U1.tolist()
        if pc.sigma[p] >= 0:
            assert extend_point(pc, p, order=seq) == pc.sigma[p]
            continue
        diag = {"line_searches": 0}
        want = _outcome(lambda: ref_extend_point(pc, p, seq))
        got = _outcome(lambda: (extend_point(pc, p, order=seq,
                                             diagnostics=diag),
                                diag["line_searches"]))
        assert got == want
        outcomes.add(type(want))
    assert outcomes == {tuple, str}


def test_extend_line_searches_match_reference():
    # each point searches its own seeded shuffle of U1 exactly as the
    # per-point loop does
    S = space(3, 2, 3)
    rng = np.random.default_rng(32)
    fam = AmpleFamily.size_at_most(2)
    kind = "all"
    while kind in ("all", "point"):
        U, kind = random_ample_instance(S, 2, rng)
    pc = restrict(random_semilinear(S, rng), U)
    off = [p for p in range(S.n_points) if pc.sigma[p] < 0]
    for seed in (0, 1):
        res = extend(pc, fam, seed=seed)
        seqs = np.random.default_rng(seed).permuted(
            np.tile(pc.U1, (len(off), 1)), axis=1)
        want = [ref_extend_point(pc, p, seq) for p, seq in zip(off, seqs)]
        assert [int(res.sigma_tilde[p]) for p in off] == [w[0] for w in want]
        assert res.diagnostics["line_searches"] == sum(w[1] for w in want)
        assert res.diagnostics["points_extended"] == len(off)


def test_extend_point_errors_match_reference():
    S = space(5, 1, 3)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0),
                  [p for p in range(S.n_points) if p != 14])
    thru = [int(l) for l in S.pt_lines[14]]
    pc.tau[thru[1]] = -1
    for seq in (pc.U1, pc.U1[::-1]):
        with pytest.raises(ExtendError) as want:
            ref_extend_point(pc, 14, seq)
        with pytest.raises(ExtendError) as got:
            extend_point(pc, 14, order=seq)
        assert str(got.value) == str(want.value)
    with pytest.raises(ExtendError, match="ampleness"):
        extend_point(pc, 14, order=[])
    # on a projective line every point lies on the one line
    pc = PartialCollineation(space(5, 1, 2), {0: 0, 1: 1}, {0: 0})
    with pytest.raises(ExtendError, match="ampleness"):
        ref_extend_point(pc, 3, pc.U1)
    with pytest.raises(ExtendError, match="ampleness"):
        extend_point(pc, 3)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3),
                        (5, 1, 4)]),
       st.integers(0, 2 ** 32 - 1))
def test_restrict_extend_decode_roundtrip(pnd, seed):
    S = space(*pnd)
    rng = np.random.default_rng(seed)
    fam = AmpleFamily.size_at_most(1)
    iso = random_semilinear(S, rng)
    U, _ = random_ample_instance(S, 1, rng)
    pc = restrict(iso, U)
    truth = iso.sigma_array()
    res = extend(pc, fam, seed=seed)
    assert (res.sigma_tilde == truth).all()
    assert equal_up_to_scalar(res.decoded, iso)


# ---------------------------------------------------------------------------
# brute force off the plane
# ---------------------------------------------------------------------------

def test_brute_force_point_stabilizers_off_the_plane():
    # PGL(2,3) has 24 elements and PGL(4,2) has 20160; a point stabilizer
    # is 1/4 and 1/15 of that
    pc = PartialCollineation(space(3, 1, 2), {0: 0}, {})
    assert len(brute_force_extensions(pc)) == 6
    pc = PartialCollineation(space(2, 1, 4), {0: 0}, {})
    assert len(brute_force_extensions(pc)) == 1344
