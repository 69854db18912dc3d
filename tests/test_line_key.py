"""Lines named by their lowest and highest points: line_of, the tau
gather in Collineation, and join_idx without a join table."""

import copy
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collinext.gf import field_of_order, make_field
from collinext.projgeom import ProjSpace
from collinext.semilinear import Collineation, SemilinearError, random_semilinear

SPACES = [(2, 2, 3), (3, 2, 3), (3, 1, 4), (2, 1, 5)]   # F_4, F_9, F_3, F_2
# (q, d) with at most 400 points, projective lines included
SMALL_CELLS = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
               for d in range(2, 9) if (q ** d - 1) // (q - 1) <= 400]


def space(p, n, d):
    return ProjSpace(make_field(p, n), d)


@cache
def small_space(q, d):
    return ProjSpace(field_of_order(q), d)


def tau_reference(space, sigma):
    """The former derivation: an L-entry dict of sorted-row bytes, walked
    line by line; None where an image is not a line."""
    key = {row.tobytes(): i for i, row in
           enumerate(np.sort(space.line_pts, axis=1).astype(np.int64))}
    img = np.sort(np.asarray(sigma, dtype=np.int64)[space.line_pts], axis=1)
    tau = [key.get(row.tobytes()) for row in img]
    return None if None in tau else np.array(tau, dtype=np.int64)


def line_of_lowest_pair(space, a, b):
    """The former lookup: the line whose two lowest points are a < b, by
    binary search over the sorted lowest-pair keys; -1 where no line has
    that lowest pair."""
    lp, P = space.line_pts, space.n_points
    keys = lp[:, 0].astype(np.int64) * P + lp[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    key = np.asarray(a, dtype=np.int64) * P + b
    pos = np.minimum(np.searchsorted(keys, key), space.n_lines - 1)
    return np.where(keys[pos] == key, order[pos], -1)


@pytest.mark.parametrize("p,n,d", SPACES)
def test_line_of_names_every_line_by_its_lowest_pair(p, n, d):
    # the former lowest-pair search names every line as line_of does by
    # the same line's end points
    S = space(p, n, d)
    lp = S.line_pts
    every = np.arange(S.n_lines)
    assert (line_of_lowest_pair(S, lp[:, 0], lp[:, 1]) == every).all()
    assert (S.line_of(lp[:, 0], lp[:, -1]) == every).all()
    # the reversed pair, a lowest point with a third point, two later points
    for a, b in ((lp[:, 1], lp[:, 0]), (lp[:, 0], lp[:, 2]),
                 (lp[:, 1], lp[:, 2])):
        assert (line_of_lowest_pair(S, a, b) == -1).all()
    # every pair of distinct points that is some line's lowest pair
    a, b = np.nonzero(np.triu(np.ones((S.n_points, S.n_points), bool), 1))
    hit = line_of_lowest_pair(S, a, b)
    assert (hit >= 0).sum() == S.n_lines
    assert (lp[hit[hit >= 0], :2] == np.stack([a, b], 1)[hit >= 0]).all()


@pytest.mark.parametrize("p,n,d", SPACES)
def test_line_of_names_every_line_by_its_end_points(p, n, d):
    S = space(p, n, d)
    lp, q = S.line_pts, S.q
    assert (S.line_of(lp[:, 0], lp[:, q]) == np.arange(S.n_lines)).all()
    assert S.line_of(int(lp[3, 0]), int(lp[3, q])) == 3
    # (lowest, second), (second, highest) and (highest, lowest)
    for a, b in ((lp[:, 0], lp[:, 1]), (lp[:, 1], lp[:, q]),
                 (lp[:, q], lp[:, 0])):
        assert (S.line_of(a, b) == -1).all()
    # every ordered pair of points: exactly L name a line, each a < b and
    # equal to its row's ends
    a, b = np.indices((S.n_points, S.n_points)).reshape(2, -1)
    hit = S.line_of(a, b)
    ok = hit >= 0
    assert ok.sum() == S.n_lines and (a[ok] < b[ok]).all()
    assert (lp[hit[ok]][:, [0, q]] == np.stack([a, b], 1)[ok]).all()
    assert (np.sort(hit[ok]) == np.arange(S.n_lines)).all()


@pytest.mark.parametrize("p,n,d", SPACES)
def test_tau_matches_bytes_dict_reference(p, n, d):
    S = space(p, n, d)
    rng = np.random.default_rng(100 * p + 10 * n + d)
    for _ in range(6):
        coll = random_semilinear(S, rng).induce()
        assert coll.tau.dtype == np.int64
        assert (coll.tau == tau_reference(S, coll.sigma)).all()


def _lowest_pair_kept_third_point_moved(S, g):
    """g with a third point x of some line l swapped against a point y off
    l: the image of l keeps tau_g(l)'s lowest pair but loses g(x)."""
    for l in range(S.n_lines):
        m = g.tau[l]
        m0, m1 = S.line_pts[m, :2]
        on_l = S.line_pts[l]
        x = next(int(x) for x in on_l if g.sigma[x] not in (m0, m1))
        off = np.setdiff1d(np.arange(S.n_points), on_l)
        later = off[g.sigma[off] > m1]
        if len(later):
            sig = g.sigma.copy()
            y = int(later[0])
            sig[x], sig[y] = sig[y], sig[x]
            return sig, l, m
    raise AssertionError("no line with a point to move")


def _end_points_kept_middle_point_moved(S, g):
    """g with a point x of some line l whose image is a middle point of
    tau_g(l) swapped against a point y off l whose image lies strictly
    between tau_g(l)'s end points: the image of l keeps both end points
    but loses g(x)."""
    for l in range(S.n_lines):
        m = g.tau[l]
        lo, hi = S.line_pts[m, [0, S.q]]
        on_l = S.line_pts[l]
        x = next(int(x) for x in on_l if g.sigma[x] not in (lo, hi))
        off = np.setdiff1d(np.arange(S.n_points), on_l)
        inside = off[(g.sigma[off] > lo) & (g.sigma[off] < hi)]
        if len(inside):
            sig = g.sigma.copy()
            y = int(inside[0])
            sig[x], sig[y] = sig[y], sig[x]
            return sig, l, m
    raise AssertionError("no line with a point to move")


@pytest.mark.parametrize("p,n,d", SPACES)
def test_planted_non_collineations_raise(p, n, d):
    S = space(p, n, d)
    rng = np.random.default_rng(7)
    g = random_semilinear(S, rng).induce()
    sig, l, m = _lowest_pair_kept_third_point_moved(S, g)
    img = np.sort(sig[S.line_pts[l]])
    assert line_of_lowest_pair(S, img[0], img[1]) == m
    assert tau_reference(S, sig) is None
    with pytest.raises(SemilinearError, match="lines to lines"):
        Collineation(S, sig)
    # the end points kept: line_of names tau_g(l), the row compare refuses
    sig, l, m = _end_points_kept_middle_point_moved(S, g)
    img = np.sort(sig[S.line_pts[l]])
    assert S.line_of(img[0], img[-1]) == m and tau_reference(S, sig) is None
    with pytest.raises(SemilinearError, match="lines to lines"):
        Collineation(S, sig)
    # a transposition of two points, and a random permutation
    for sig in (np.r_[1, 0, np.arange(2, S.n_points)],
                rng.permutation(S.n_points)):
        assert tau_reference(S, sig) is None
        with pytest.raises(SemilinearError, match="lines to lines"):
            Collineation(S, sig)
    with pytest.raises(SemilinearError, match="bijection"):
        Collineation(S, np.zeros(S.n_points, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_CELLS), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_collineation_accepts_exactly_what_the_reference_maps(cell, seed,
                                                             swap):
    # a seeded semilinear map, or that map with two points transposed
    # (the same point twice leaves it as it is)
    S = small_space(*cell)
    rng = np.random.default_rng(seed)
    sig = random_semilinear(S, rng).sigma_array()
    if swap:
        x, y = rng.integers(0, S.n_points, size=2)
        sig[[x, y]] = sig[[y, x]]
    want = tau_reference(S, sig)
    try:
        got = Collineation(S, sig).tau
    except SemilinearError as err:
        assert want is None and "lines to lines" in str(err)
    else:
        assert want is not None and (got == want).all()


@pytest.mark.parametrize("p,n,d", SPACES)
def test_join_fallback_agrees_with_table(p, n, d):
    S = space(p, n, d)
    bare = copy.copy(S)
    bare.join_t = None
    a, b = np.nonzero(~np.eye(S.n_points, dtype=bool))
    pick = np.random.default_rng(d).choice(len(a), size=300, replace=False)
    for i, j in zip(a[pick], b[pick]):
        assert bare.join_idx(int(i), int(j)) == S.join_t[i, j]
