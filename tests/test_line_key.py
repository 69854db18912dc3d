"""Lines keyed by their two lowest points: line_of, the tau gather in
Collineation, and join_idx without a join table."""

import copy

import numpy as np
import pytest

from collinext.gf import make_field
from collinext.projgeom import ProjSpace
from collinext.semilinear import Collineation, SemilinearError, random_semilinear

SPACES = [(2, 2, 3), (3, 2, 3), (3, 1, 4), (2, 1, 5)]   # F_4, F_9, F_3, F_2


def space(p, n, d):
    return ProjSpace(make_field(p, n), d)


def tau_reference(space, sigma):
    """The former derivation: an L-entry dict of sorted-row bytes, walked
    line by line; None where an image is not a line."""
    key = {row.tobytes(): i for i, row in
           enumerate(np.sort(space.line_pts, axis=1).astype(np.int64))}
    img = np.sort(np.asarray(sigma, dtype=np.int64)[space.line_pts], axis=1)
    tau = [key.get(row.tobytes()) for row in img]
    return None if None in tau else np.array(tau, dtype=np.int64)


@pytest.mark.parametrize("p,n,d", SPACES)
def test_line_of_names_every_line_by_its_lowest_pair(p, n, d):
    S = space(p, n, d)
    lp = S.line_pts
    assert (S.line_of(lp[:, 0], lp[:, 1]) == np.arange(S.n_lines)).all()
    # the reversed pair, a lowest point with a third point, two later points
    for a, b in ((lp[:, 1], lp[:, 0]), (lp[:, 0], lp[:, 2]),
                 (lp[:, 1], lp[:, 2])):
        assert (S.line_of(a, b) == -1).all()
    # every pair of distinct points that is some line's lowest pair
    a, b = np.nonzero(np.triu(np.ones((S.n_points, S.n_points), bool), 1))
    hit = S.line_of(a, b)
    assert (hit >= 0).sum() == S.n_lines
    assert (lp[hit[hit >= 0], :2] == np.stack([a, b], 1)[hit >= 0]).all()
    assert S.line_of(int(lp[3, 0]), int(lp[3, 1])) == 3


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


@pytest.mark.parametrize("p,n,d", SPACES)
def test_planted_non_collineations_raise(p, n, d):
    S = space(p, n, d)
    rng = np.random.default_rng(7)
    g = random_semilinear(S, rng).induce()
    sig, l, m = _lowest_pair_kept_third_point_moved(S, g)
    img = np.sort(sig[S.line_pts[l]])
    assert S.line_of(img[0], img[1]) == m and tau_reference(S, sig) is None
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


@pytest.mark.parametrize("p,n,d", SPACES)
def test_join_fallback_agrees_with_table(p, n, d):
    S = space(p, n, d)
    bare = copy.copy(S)
    bare.join_t = None
    a, b = np.nonzero(~np.eye(S.n_points, dtype=bool))
    pick = np.random.default_rng(d).choice(len(a), size=300, replace=False)
    for i, j in zip(a[pick], b[pick]):
        assert bare.join_idx(int(i), int(j)) == S.join_t[i, j]
