"""Partial collineations: validation, extension, uniqueness oracle."""

import numpy as np
import pytest

from collinext.gf import make_field
from collinext.projgeom import ProjSpace
from collinext.semilinear import (
    SemilinearIso,
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
    l = pc.meeting_lines()[0]
    pc.tau[l] = (pc.tau[l] + 1) % S.n_lines
    rep = validate_partial(pc)
    assert not rep.ok


def test_validate_catches_wrong_tau_domain():
    S = space(5, 1)
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), minus(S, {0}))
    del pc.tau[pc.meeting_lines()[0]]
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
    assert extend_point(pc, 20) == iso.apply_point(20)


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
    ls = [l for l in pc.meeting_lines() if not S.on_line[14, l]]
    thru = [l for l in pc.meeting_lines() if S.on_line[14, l]]
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
    assert pc.U1 == pc.U2 == list(range(S.n_points))
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
        assert all(res.tau_tilde[l] == pc.tau[l] for l in pc.tau)


def test_extend_roundtrip_frobenius_f9():
    # semilinear over GF(9) with a triangle removed; twist must be found
    S = space(3, 2)
    fam = AmpleFamily.size_at_most(2)
    rng = np.random.default_rng(11)
    removed = set()
    while True:
        a, b, c = map(int, rng.choice(S.n_points, size=3, replace=False))
        if not S.on_line[c, S.join_idx(a, b)]:
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
        for order, seed in (("reversed", 0), ("shuffled", 7), ("shuffled", 8)):
            again = extend(pc, fam, order=order, seed=seed).sigma_tilde
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


def test_partial_between_twin_spaces():
    Sa = space(5, 1)
    Sb = ProjSpace(make_field(5, 1), 3)
    assert Sa is not Sb
    pc = PartialCollineation(Sa, {0: 0, 1: 1, 2: 2}, {}, space2=Sb)
    assert pc.space2 is Sb
    with pytest.raises(ExtendError):
        PartialCollineation(Sa, {0: 0}, {}, space2=space(5, 1, 4))


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


def test_brute_force_budget_guard():
    S = space(3, 2)  # PGammaL(3,9) is about 85 million
    pc = restrict(SemilinearIso(S, np.eye(3, dtype=int), 0), [0, 1])
    with pytest.raises(ExtendError, match="too large"):
        brute_force_extensions(pc)


def test_brute_force_small_plane_full_group():
    # sigma fixed on a single point of P2(F2): the point stabilizer in
    # PGL(3,2) has 168 / 7 = 24 elements
    S = space(2, 1)
    pc = PartialCollineation(S, {0: 0}, {int(l): int(l)
                                         for l in np.nonzero(S.on_line[0])[0]})
    exts = brute_force_extensions(pc)
    assert len(exts) == 24
