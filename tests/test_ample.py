"""Line-subset families, admissibility, transport, ample subsets."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from collinext.gf import make_field, rref
from collinext.projgeom import ProjSpace, space_of
from collinext.ample import (
    AmpleError,
    AmpleFamily,
    is_ample,
    is_mn_admissible,
    is_pgl2_stable,
    lines_meeting,
    _pgl2_generator_tables,
)


def space(p, n, d=3):
    return ProjSpace(make_field(p, n), d)


def pgl2_closure(sets, f):
    """The position sets reached from sets under the PGL_2 generators."""
    out = {frozenset(s) for s in sets}
    tables = _pgl2_generator_tables(f)
    changed = True
    while changed:
        changed = False
        for s in list(out):
            for t in tables:
                img = frozenset(t[x] for x in s)
                if img not in out:
                    out.add(img)
                    changed = True
    return out


def all_small_subsets(q, t):
    out = [frozenset()]
    for k in range(1, t + 1):
        out.extend(frozenset(c) for c in combinations(range(q + 1), k))
    return out


# ---------------------------------------------------------------------------
# family objects
# ---------------------------------------------------------------------------

def test_family_contains():
    f0 = AmpleFamily.size_at_most(0)
    assert f0.contains([], 5) and not f0.contains([0], 5)
    f1 = AmpleFamily.size_at_most(2)
    assert f1.contains([0, 5], 5) and not f1.contains([0, 1, 2], 5)
    fx = AmpleFamily.explicit(all_small_subsets(3, 1), 3)
    assert fx.contains([2], 3) and not fx.contains([0, 1], 3)


def test_explicit_family_validation():
    with pytest.raises(AmpleError):
        AmpleFamily.explicit([{0}], 3)  # no empty set
    with pytest.raises(AmpleError):
        AmpleFamily.explicit([set(), {7}], 3)  # position out of range
    with pytest.raises(AmpleError):
        AmpleFamily.explicit(all_small_subsets(3, 1), 3).contains([0], 5)
    with pytest.raises(AmpleError):
        AmpleFamily.size_at_most(-1)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_generator_tables_are_permutations():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, n)
        for t in _pgl2_generator_tables(f):
            assert sorted(t) == list(range(f.q + 1))


def test_size_families_always_stable():
    f = make_field(5, 1)
    assert is_pgl2_stable(AmpleFamily.size_at_most(0), f)
    assert is_pgl2_stable(AmpleFamily.size_at_most(3), f)


def test_explicit_stability():
    f = make_field(3, 1)
    stable = AmpleFamily.explicit(all_small_subsets(3, 1), 3)
    assert is_pgl2_stable(stable, f)
    lopsided = AmpleFamily.explicit([set(), {0}], 3)
    assert not is_pgl2_stable(lopsided, f)
    # closing the lopsided family under the generators makes it stable
    closed = AmpleFamily.explicit(pgl2_closure([set(), {0}], f), 3)
    assert is_pgl2_stable(closed, f)
    # orbit of one point under a transitive action is everything
    assert closed.sets == frozenset(
        [frozenset()] + [frozenset({i}) for i in range(4)])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissible_matches_closed_form_grid():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for t in range(5):
            fam = AmpleFamily.size_at_most(t)
            for m in range(5):
                for n in range(5):
                    assert is_mn_admissible(fam, q, m, n) == \
                        (q > m * t + n - 1), (q, t, m, n)


def test_admissible_explicit_agrees_with_size_kind():
    for q in (2, 3):
        for t in (0, 1, 2):
            fam_x = AmpleFamily.explicit(all_small_subsets(q, t), q)
            fam_s = AmpleFamily.size_at_most(t)
            for m in range(4):
                for n in range(4):
                    assert is_mn_admissible(fam_x, q, m, n) == \
                        is_mn_admissible(fam_s, q, m, n), (q, t, m, n)


def test_admissible_empty_only():
    fam = AmpleFamily.size_at_most(0)
    assert is_mn_admissible(fam, 5, 3, 5)
    assert not is_mn_admissible(fam, 5, 0, 6)


def test_admissible_overlapping_explicit_family():
    # two heavily overlapping 2-sets: unions never exceed 3 positions
    fam = AmpleFamily.explicit([set(), {0, 1}, {1, 2}], 3)
    assert is_mn_admissible(fam, 3, 2, 0)       # worst union is 3 of 4
    assert not is_mn_admissible(fam, 3, 2, 1)   # one extra point covers
    with pytest.raises(AmpleError):
        is_mn_admissible(fam, 3, -1, 0)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def ref_basis(S, l):
    """Reduced row-echelon basis (b0, b1) of line l: the rref of two of
    its points."""
    b0, b1 = rref(S.field, S.pts[S.line_pts[l, :2]])[0]
    return b0, b1


def ref_parametrization(S, b0, b1):
    """Point index at each position of span(b0, b1): c -> b0 + c b1 for
    c < q, then b1."""
    f = S.field
    vecs = [f.add_t[b0, f.mul_t[c, b1]] for c in range(S.q)] + [b1]
    return S.canon_index_many(np.array(vecs))


def ref_is_ample(S, U, fam):
    """(ample, t_star, n_meeting, witness_line) of is_ample for an
    explicit family, positions read through ref_parametrization."""
    inU = np.zeros(S.n_points, dtype=bool)
    inU[U] = True
    meeting = [l for l in range(S.n_lines) if inU[S.line_pts[l]].any()]
    t_star = max(S.q + 1 - int(inU[S.line_pts[l]].sum()) for l in meeting)
    for l in meeting:
        par = ref_parametrization(S, *ref_basis(S, l))
        pos = {c for c, p in enumerate(par) if not inU[p]}
        if not fam.contains(pos, S.q):
            return False, t_star, len(meeting), l
    return True, t_star, len(meeting), None


def test_parametrization_covers_line():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        S = space(p, n)
        for l in range(S.n_lines):
            b0, b1 = ref_basis(S, l)
            par = ref_parametrization(S, b0, b1)
            # the position of a point is its column in line_pts[l]
            assert (par == S.line_pts[l]).all()
            assert par[0] == S.canon_index_many(b0)
            assert par[S.q] == S.canon_index_many(b1)


def test_membership_basis_invariant_when_stable():
    # same line, two parametrizations (basis swapped); a stable family
    # gives one answer, position sets themselves differ
    S = space(3, 1)
    fam = AmpleFamily.explicit(all_small_subsets(3, 1), 3)
    assert is_pgl2_stable(fam, S.field)
    for l in range(S.n_lines):
        b0, b1 = ref_basis(S, l)
        par1 = ref_parametrization(S, b0, b1)
        par2 = ref_parametrization(S, b1, b0)
        back1 = {int(p): c for c, p in enumerate(par1)}
        back2 = {int(p): c for c, p in enumerate(par2)}
        for pt in map(int, S.line_pts[l]):
            m1 = fam.contains({back1[pt]}, 3)
            m2 = fam.contains({back2[pt]}, 3)
            assert m1 == m2


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_explicit_is_ample_matches_basis_reference(p, n):
    # stable families: the small subsets, every subset of a seeded choice
    # of sizes, and every set but the 4-sets off the orbit of
    # {0, 1, 2, inf}.  PGL_2 is 3-transitive, so at q <= 5 each size is
    # one orbit; at q = 7 the 4-sets split by cross-ratio into orbits of
    # 42 and 28, so that family tells positions apart
    S = space(p, n)
    q = S.q
    rng = np.random.default_rng(40 + q)
    families = [AmpleFamily.explicit(all_small_subsets(q, t), q)
                for t in (0, 1, 2)]
    families.append(AmpleFamily.explicit(
        pgl2_closure([{0, 1, 2, q}], S.field)
        | {frozenset(s) for k in range(q + 2) if k != 4
           for s in combinations(range(q + 1), k)}, q))
    for _ in range(3):
        sizes = {0} | set(rng.choice(np.arange(1, q + 2), size=q // 2 + 1,
                                     replace=False).tolist())
        families.append(AmpleFamily.explicit(
            [s for k in sizes for s in combinations(range(q + 1), k)], q))
    verdicts = set()
    for fam in families:
        assert is_pgl2_stable(fam, S.field)
        for _ in range(8):
            k = int(rng.integers(1, S.n_points))
            U = rng.choice(S.n_points, size=k, replace=False)
            rep = is_ample(S, U, fam)
            got = (rep.ample, rep.t_star, rep.n_meeting, rep.witness_line)
            assert got == ref_is_ample(S, U, fam), (q, sorted(fam.sets))
            verdicts.add(rep.ample)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# ample subsets
# ---------------------------------------------------------------------------

def test_ample_full_and_empty():
    S = space(5, 1)
    rep = is_ample(S, range(S.n_points), AmpleFamily.size_at_most(0))
    assert rep.ample and rep.t_star == 0 and rep.n_meeting == S.n_lines
    rep = is_ample(S, [], AmpleFamily.size_at_most(3))
    assert not rep.ample and rep.reason == "empty set"


def test_ample_refuses_points_out_of_range():
    # a negative entry aliased a point from the end: every point but the
    # last, plus -1, read as the whole plane, ample with t* = 0; an entry
    # past the end was a bare IndexError
    S = space(5, 1)
    fam = AmpleFamily.size_at_most(0)
    for U in ([*range(S.n_points - 1), -1], [S.n_points + 3], [S.n_points]):
        with pytest.raises(AmpleError, match="points must lie in 0..30"):
            is_ample(S, U, fam)
        with pytest.raises(AmpleError, match="points must lie in 0..30"):
            lines_meeting(S, U)
    rep = is_ample(S, [*range(S.n_points - 1)], fam)
    assert not rep.ample and rep.t_star == 1


def test_ample_line_complement():
    S = space(5, 1)
    l0 = 0
    U = [p for p in range(S.n_points) if not S.on_line[p, l0]]
    rep = is_ample(S, U, AmpleFamily.size_at_most(1))
    assert rep.ample and rep.t_star == 1
    assert rep.n_meeting == S.n_lines - 1  # the deleted line never meets U
    rep0 = is_ample(S, U, AmpleFamily.size_at_most(0))
    assert not rep0.ample and rep0.witness_line is not None
    assert rep0.reason == "complement larger than the threshold"


def test_ample_point_complement_and_singleton():
    S = space(5, 1)
    U = list(range(1, S.n_points))
    rep = is_ample(S, U, AmpleFamily.size_at_most(1))
    assert rep.ample and rep.t_star == 1
    rep = is_ample(S, [0], AmpleFamily.size_at_most(S.q - 1))
    assert not rep.ample and rep.t_star == S.q
    rep = is_ample(S, [0], AmpleFamily.size_at_most(S.q))
    assert rep.ample and rep.t_star == S.q


def test_ample_counts_match_slow_recount():
    S = space(3, 1)
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, S.n_points))
        U = list(map(int, rng.choice(S.n_points, size=k, replace=False)))
        meeting, in_cnt, inU = lines_meeting(S, U)
        slow_meet = []
        for l in range(S.n_lines):
            cnt = sum(1 for p in S.line_pts[l] if int(p) in set(U))
            assert cnt == in_cnt[l]
            if cnt:
                slow_meet.append(l)
        assert slow_meet == np.flatnonzero(meeting).tolist()


@pytest.mark.parametrize("off_line,meeting,bound",
                         [(False, 3 * 1022 + 1, 7), (True, 698026, 9)],
                         ids=["line", "off_line"])
def test_is_ample_line_peak_memory(off_line, meeting, bound):
    # P^10(F_2) has 698027 lines.  For U a line, gathering every line's
    # points peaked at 7.4 MB, and counting from the pencils of the 2044
    # points off it at 29.3 MB; its three pencils hold the [L] counts and
    # the meeting mask, 6.0 MB.  For U the points off a line, the same
    # 6.0 MB: t* and the verdict are read off the [L] counts through the
    # mask, where int64 copies of the meeting lines and their complements
    # peaked at 21.3 MB; counting from the pencils of U would add the 2044
    # pencils, 8.4 MB, and their int64 copy
    S = space_of(make_field(2), 11)
    U = S.line_pts[5]
    if off_line:
        U = np.setdiff1d(np.arange(S.n_points), U)
    tracemalloc.start()
    try:
        rep = is_ample(S, U, AmpleFamily.size_at_most(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ample and rep.n_meeting == meeting
    assert peak < bound << 20


def test_ample_explicit_matches_size_kind():
    S = space(3, 1)
    fam_x = AmpleFamily.explicit(all_small_subsets(3, 1), 3)
    fam_s = AmpleFamily.size_at_most(1)
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(1, S.n_points))
        U = list(map(int, rng.choice(S.n_points, size=k, replace=False)))
        a = is_ample(S, U, fam_x)
        b = is_ample(S, U, fam_s)
        assert a.ample == b.ample and a.t_star == b.t_star


def test_ample_rejects_unstable_explicit():
    S = space(3, 1)
    fam = AmpleFamily.explicit([set(), {0}], 3)
    with pytest.raises(AmpleError):
        is_ample(S, list(range(S.n_points)), fam)
