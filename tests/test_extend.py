"""Partial collineations: validation, extension, uniqueness oracle."""

import tracemalloc

import numpy as np
import pytest

from collinext import _kernels
from collinext.gf import make_field
from collinext.projgeom import ProjSpace
from collinext.semilinear import (
    SemilinearIso,
    decode_ftpg,
    equal_up_to_scalar,
    random_semilinear,
)
from collinext.ample import AmpleFamily, is_ample
from collinext.extend import (
    ExtendError,
    PartialCollineation,
    brute_force_extensions,
    extend,
    extend_point,
    random_ample_instance,
    restrict,
    validate_partial,
)


def space(p, n, d=3):
    return ProjSpace(make_field(p, n), d)


def minus(S, removed):
    return [p for p in range(S.n_points) if p not in removed]


def meeting_lines(pc):
    """The lines through a point of U1, by a loop over every line."""
    S = pc.space
    return [l for l in range(S.n_lines)
            if any(pc.sigma[p] >= 0 for p in S.line_pts[l])]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_restriction_passes():
    for p, n, d in [(5, 1, 3), (3, 2, 3), (5, 1, 4)]:
        S = space(p, n, d)
        rng = np.random.default_rng(p + d)
        for k in range(5):
            iso = random_semilinear(S, rng)
            U, _ = random_ample_instance(S, 1, rng)
            pc = restrict(iso, U)
            assert validate_partial(pc).ok


def test_validate_catches_swapped_images():
    S = space(5, 1)
    iso = random_semilinear(S, np.random.default_rng(1))
    pc = restrict(iso, minus(S, {4}))
    a, b = pc.U1[0], pc.U1[5]
    pc.sigma[a], pc.sigma[b] = pc.sigma[b], pc.sigma[a]
    rep = validate_partial(pc)
    assert not rep.ok
    assert rep.witness is not None


def test_validate_catches_redirected_tau():
    S = space(5, 1)
    iso = random_semilinear(S, np.random.default_rng(2))
    pc = restrict(iso, minus(S, {9}))
    l = meeting_lines(pc)[0]
    pc.tau[l] = (pc.tau[l] + 1) % S.n_lines
    rep = validate_partial(pc)
    assert not rep.ok


def test_validate_catches_wrong_tau_domain():
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {0}))
    pc.tau[meeting_lines(pc)[0]] = -1
    assert not validate_partial(pc).ok
    assert "tau domain" in validate_partial(pc).reason


def test_validate_concurrency_exhaustive():
    # concurrency preservation over every pair of domain lines
    S = space(5, 1)
    iso = random_semilinear(S, np.random.default_rng(3))
    pc = restrict(iso, minus(S, {11}))
    assert validate_partial(pc, concurrency="exhaustive").ok


# ---------------------------------------------------------------------------
# pointwise extension
# ---------------------------------------------------------------------------

def test_extend_point_on_domain_returns_sigma():
    S = space(5, 1)
    iso = random_semilinear(S, np.random.default_rng(4))
    pc = restrict(iso, minus(S, {7}))
    for p in pc.U1[:10]:
        assert extend_point(pc, p) == pc.sigma[p]


def test_extend_point_identity_off_domain():
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {7}))
    assert extend_point(pc, 7) == 7


def test_extend_point_matches_known_matrix():
    S = space(5, 1)
    mat = [[1, 2, 0], [0, 1, 3], [4, 0, 2]]
    iso = SemilinearIso(S, mat, 0)
    pc = restrict(iso, minus(S, {20}))
    assert extend_point(pc, 20) == iso.sigma_array()[20]


def test_extend_point_needs_two_lines():
    S = space(5, 1)
    pc = PartialCollineation(S, {0: 0}, {int(l): int(l)
                                         for l in np.nonzero(S.on_line[0])[0]})
    with pytest.raises(ExtendError, match="ampleness violated"):
        extend_point(pc, 14)


def test_extend_point_nonconcurrent_images():
    # two distinct domain lines sent to one line: the meet degenerates
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {14}))
    thru = [l for l in meeting_lines(pc) if S.on_line[14, l]]
    pc.tau[thru[0]] = pc.tau[thru[1]]
    with pytest.raises(ExtendError, match="Step2-1: images not concurrent"):
        extend_point(pc, 14)


# ---------------------------------------------------------------------------
# full extension round trips
# ---------------------------------------------------------------------------

def test_extend_identity():
    S = space(5, 1)
    fam = AmpleFamily.size_at_most(1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {3}))
    res = extend(pc, fam)
    assert (res.sigma_tilde == np.arange(S.n_points)).all()
    assert res.decoded.frob_exp == 0
    assert (res.decoded.mat == np.eye(3, dtype=int)).all()


def test_domain_follows_sigma_edited_in_place():
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {3}))
    pc.sigma[3] = 3
    assert np.array_equal(pc.U1, np.arange(S.n_points))
    assert np.array_equal(pc.U2, np.arange(S.n_points))
    rep = validate_partial(pc)
    assert rep.ok, rep
    res = extend(pc, AmpleFamily.size_at_most(1))
    assert (res.sigma_tilde == np.arange(S.n_points)).all()


def test_extend_roundtrip_plane_f5():
    S = space(5, 1)
    fam = AmpleFamily.size_at_most(1)
    rng = np.random.default_rng(10)
    for k in range(10):
        iso = random_semilinear(S, rng)
        U, _ = random_ample_instance(S, 1, rng)
        pc = restrict(iso, U)
        res = extend(pc, fam)
        assert (res.sigma_tilde == iso.sigma_array()).all()
        assert equal_up_to_scalar(res.decoded, iso)
        # restriction invariants: the extension agrees with the data
        assert all(res.sigma_tilde[p] == pc.sigma[p] for p in pc.U1)
        assert all(res.tau_tilde[l] == pc.tau[l]
                   for l in np.flatnonzero(pc.tau >= 0))


def test_extend_roundtrip_frobenius_f9():
    # semilinear over GF(9) with a triangle removed; twist must be found
    S = space(3, 2)
    fam = AmpleFamily.size_at_most(2)
    rng = np.random.default_rng(11)
    removed = set()
    while True:
        a, b, c = map(int, rng.choice(S.n_points, size=3, replace=False))
        if not S.on_line[c, S.join_t[a, b]]:
            removed = {a, b, c}
            break
    base = random_semilinear(S, rng)
    iso = SemilinearIso(S, base.mat, 1)
    pc = restrict(iso, minus(S, removed))
    res = extend(pc, fam)
    assert res.decoded.frob_exp == 1
    assert equal_up_to_scalar(res.decoded, iso)


def test_extend_dim4():
    S = space(5, 1, 4)
    fam = AmpleFamily.size_at_most(1)
    rng = np.random.default_rng(12)
    iso = random_semilinear(S, rng)
    U, kind = random_ample_instance(S, 1, rng)
    pc = restrict(iso, U)
    res = extend(pc, fam)
    assert equal_up_to_scalar(res.decoded, iso)


def test_extend_choice_independence():
    for p, n, d in [(5, 1, 3), (3, 2, 3), (5, 1, 4)]:
        S = space(p, n, d)
        fam = AmpleFamily.size_at_most(1)
        rng = np.random.default_rng(13)
        iso = random_semilinear(S, rng)
        U, _ = random_ample_instance(S, 1, rng)
        pc = restrict(iso, U)
        base = extend(pc, fam).sigma_tilde
        for seed in (1, 7, 8):
            again = extend(pc, fam, seed=seed).sigma_tilde
            assert (again == base).all()


def test_extend_preconditions():
    S = space(5, 1)
    fam1 = AmpleFamily.size_at_most(1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), [0])
    with pytest.raises(ExtendError, match="not ample"):
        extend(pc, fam1)
    pc2 = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {3}))
    with pytest.raises(ExtendError, match="3,2"):
        extend(pc2, AmpleFamily.size_at_most(2))
    # mutated sigma trips the validation precondition
    pc3 = restrict(random_semilinear(S, np.random.default_rng(5)), minus(S, {3}))
    a, b = pc3.U1[2], pc3.U1[9]
    pc3.sigma[a], pc3.sigma[b] = pc3.sigma[b], pc3.sigma[a]
    with pytest.raises(ExtendError, match="precondition"):
        extend(pc3, fam1)
    with pytest.raises(ExtendError, match="dimension"):
        extend(restrict(SemilinearIso(space(5, 1, 2),
                                      np.eye(2, dtype=int), 0),
                        [0, 1, 2]), fam1)


def test_restrict_rejects_empty():
    S = space(5, 1)
    with pytest.raises(ExtendError):
        restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), [])


def _malformed_maps(S):
    """(sigma, tau) pairs the constructor must refuse on S."""
    P, L = S.n_points, S.n_lines
    ok_sigma, ok_tau = np.full(P, -1), np.full(L, -1)
    return {
        "sigma key past P": ({10 ** 6: 0}, {}),
        "sigma key -1": ({-1: 0}, {}),
        "sigma key P": ({P: 0}, {}),
        "sigma value past P": ({0: P}, {}),
        "sigma value -1": ({0: -1}, {}),
        "sigma key beyond int64": ({10 ** 30: 0}, {}),
        "tau key past L": ({0: 0}, {L: 0}),
        "tau key -1": ({0: 0}, {-1: 0}),
        "tau value past L": ({0: 0}, {0: L}),
        "tau value -1": ({0: 0}, {0: -1}),
        "sigma array short": (ok_sigma[1:], ok_tau),
        "sigma array long": (np.append(ok_sigma, -1), ok_tau),
        "sigma array 2-d": (ok_sigma[None], ok_tau),
        "tau array short": (ok_sigma, ok_tau[1:]),
        "sigma entry -2": (np.where(np.arange(P) == 3, -2, ok_sigma), ok_tau),
        "sigma entry P": (np.where(np.arange(P) == 3, P, ok_sigma), ok_tau),
        "tau entry -2": (ok_sigma, np.where(np.arange(L) == 3, -2, ok_tau)),
        "tau entry L": (ok_sigma, np.where(np.arange(L) == 3, L, ok_tau)),
    }


@pytest.mark.parametrize("case", sorted(_malformed_maps(space(3, 1))))
def test_partial_refuses_malformed_maps(case):
    # out-of-range keys once ended in an IndexError inside validation, or
    # (-1) silently aliased the last point
    S = space(3, 1)
    sigma, tau = _malformed_maps(S)[case]
    with pytest.raises(ExtendError):
        PartialCollineation(S, sigma, tau)


def test_partial_accepts_dicts_and_arrays_alike():
    S = space(3, 1)
    full = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), [0, 5, 9])
    sigma = {int(p): int(full.sigma[p]) for p in full.U1}
    tau = {int(l): int(full.tau[l]) for l in meeting_lines(full)}
    pc = PartialCollineation(S, sigma, tau)
    assert (pc.sigma == full.sigma).all() and (pc.tau == full.tau).all()
    assert pc.sigma.dtype == pc.tau.dtype == np.int64
    # the constructor copies: editing its input leaves the map alone
    arr = full.sigma.copy()
    pc = PartialCollineation(S, arr, full.tau)
    arr[0] = -1
    assert pc.sigma[0] == 0


def test_restrict_refuses_points_outside_the_space():
    S = space(3, 1)
    iso = SemilinearIso(S, np.eye(3, dtype=int), 0)
    for U in ([0, S.n_points], [-1, 2]):
        with pytest.raises(ExtendError, match="outside"):
            restrict(iso, U)
    # a negative point once aliased a point counted from the end
    pc = restrict(iso, list(range(1, S.n_points)))
    for p in (-1, -S.n_points, S.n_points):
        with pytest.raises(ExtendError, match="outside"):
            extend_point(pc, p)


def test_in_place_edits_out_of_range_are_refused():
    # sigma and tau are public arrays; an edit past the construction's
    # range checks once ended in an IndexError inside numpy
    S = space(5, 1)
    fam = AmpleFamily.size_at_most(1)
    iso = SemilinearIso(S, np.eye(3, dtype=int), 0)
    l = int(S.pt_lines[1][0])
    for name, i, v in (("tau", l, 10 ** 6), ("sigma", 1, 10 ** 6),
                       ("sigma", 1, S.n_points), ("tau", l, -2)):
        pc = restrict(iso, minus(S, {0}))
        getattr(pc, name)[i] = v
        with pytest.raises(ExtendError, match=name + " has an entry outside"):
            validate_partial(pc)
        with pytest.raises(ExtendError, match=name + " has an entry outside"):
            extend(pc, fam)
        with pytest.raises(ExtendError, match=name + " has an entry outside"):
            extend_point(pc, 0)


# ---------------------------------------------------------------------------
# instance generator
# ---------------------------------------------------------------------------

def test_random_instances_are_ample():
    for p, n, d, t in [(5, 1, 3, 1), (7, 1, 3, 1), (2, 3, 3, 2),
                       (3, 2, 3, 2), (5, 1, 4, 1)]:
        S = space(p, n, d)
        fam = AmpleFamily.size_at_most(t)
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(12):
            U, kind = random_ample_instance(S, t, rng)
            seen.add(kind)
            rep = is_ample(S, U, fam)
            assert rep.ample, (p, n, d, t, kind)
        assert len(seen) >= 2


def test_random_instances_at_threshold_zero_are_ample():
    # at t = 0 a line that meets U must lie in it, so only the whole
    # space qualifies: removing a point would leave extend to refuse
    for p, n, d in [(2, 1, 3), (5, 1, 3), (2, 2, 4)]:
        S = space(p, n, d)
        fam = AmpleFamily.size_at_most(0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            U, kind = random_ample_instance(S, 0, rng)
            assert kind == "all" and is_ample(S, U, fam).ample
            assert U.dtype == np.int64
            assert np.array_equal(U, np.arange(S.n_points))


def ref_triangle_instance(S, rng):
    """The triangle draw of random_ample_instance at t = 2, collinearity
    by join_t; returns U and the number of collinear draws rejected."""
    rng.integers(0, 6)   # the kind: one of the six kinds at t = 2
    rejected = 0
    while True:
        a, b, c = map(int, rng.choice(S.n_points, size=3, replace=False))
        if c not in S.line_pts[S.join_t[a, b]]:
            return minus(S, {a, b, c}), rejected
        rejected += 1


def test_triangle_draws_match_join_reference():
    rejected = 0
    for p, n, d in [(2, 1, 3), (3, 1, 3), (2, 3, 4)]:
        S = space(p, n, d)
        triangles = 0
        for seed in range(40):
            U, kind = random_ample_instance(S, 2, np.random.default_rng(seed))
            if kind != "triangle":
                continue
            triangles += 1
            want, r = ref_triangle_instance(S, np.random.default_rng(seed))
            assert np.array_equal(U, want), (p, n, d, seed)
            rejected += r
        assert triangles >= 3, (p, n, d)
    assert rejected > 0   # the collinear branch was taken


@pytest.mark.parametrize("p,n,d,t", [(5, 1, 5, 1), (2, 3, 4, 2)])
def test_extension_pipeline_builds_no_dense_table(p, n, d, t):
    # restrict -> validate -> extend -> decode reads points, lines, pencils
    # and the line key; on_line, join_t and meet_t are never built
    S = space(p, n, d)
    fam = AmpleFamily.size_at_most(t)
    kinds = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        iso = random_semilinear(S, rng)
        truth = iso.induce()
        U, kind = random_ample_instance(S, t, rng)
        kinds.add(kind)
        pc = restrict(truth, U)
        assert validate_partial(pc).ok
        res = extend(pc, fam, seed=seed)
        assert np.array_equal(res.sigma_tilde, truth.sigma)
        assert equal_up_to_scalar(decode_ftpg(res.collineation), iso)
    assert t < 2 or "triangle" in kinds
    assert not {"on_line", "join_t", "meet_t"} & set(vars(S))


def test_random_instance_refuses_the_projective_line():
    # a proper flat of P^1 would be a point: every draw must be refused
    # up front, not only the ones that land on the "flat" kind
    S = space(5, 1, 2)
    for seed in range(8):
        with pytest.raises(ExtendError, match="dimension"):
            random_ample_instance(S, 1, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_unique_on_ample_domain():
    S = space(5, 1)
    rng = np.random.default_rng(21)
    iso = random_semilinear(S, rng)
    U, _ = random_ample_instance(S, 1, rng)
    pc = restrict(iso, U)
    exts = brute_force_extensions(pc)
    assert len(exts) == 1
    res = extend(pc, AmpleFamily.size_at_most(1))
    assert (exts[0].sigma == res.sigma_tilde).all()


def test_brute_force_two_point_domain_count():
    # PGL(3,5) is 2-transitive; the pointwise pair stabilizer has
    # 372000 / (31*30) = 400 elements
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), [0, 8])
    exts = brute_force_extensions(pc)
    assert len(exts) == 400


def test_brute_force_inconsistent_sigma_has_no_extension():
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {3}))
    a, b = pc.U1[1], pc.U1[4]
    pc.sigma[a], pc.sigma[b] = pc.sigma[b], pc.sigma[a]
    assert brute_force_extensions(pc) == []


def test_brute_force_budget_guard(monkeypatch):
    # P^3(F_5) with one point fixed: 155 * 150 * 125 images of the missing
    # basis points times 4^3 unit images is 186,000,000 candidates, refused
    # from the count before any candidate is built or filtered
    S = space(5, 1, 4)
    pc = restrict(SemilinearIso(S, np.eye(4, dtype=int), 0), [0])

    def no_filter(*args):
        raise AssertionError("matrix_filter was called")
    monkeypatch.setattr(_kernels, "matrix_filter", no_filter)
    tracemalloc.start()
    try:
        with pytest.raises(ExtendError, match=r"too large for brute force "
                                              r"\(186000000 candidates\)"):
            brute_force_extensions(pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_brute_force_small_plane_full_group():
    # sigma fixed on a single point of P2(F2): the point stabilizer in
    # PGL(3,2) has 168 / 7 = 24 elements
    S = space(2, 1)
    pc = PartialCollineation(S, {0: 0}, {int(l): int(l)
                                         for l in np.nonzero(S.on_line[0])[0]})
    exts = brute_force_extensions(pc)
    assert len(exts) == 24
