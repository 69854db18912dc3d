"""Semilinear maps on k^d and the collineations they induce.

A semilinear isomorphism is v -> M mu(v) with M in GL_d(k) and mu a field
automorphism applied coordinatewise.  For d >= 3 every incidence-preserving
point bijection of P(k^d) arises this way, uniquely up to a scalar on M;
decode_ftpg performs that reconstruction.
"""

import copy

import numpy as np

from .gf import mat_apply, rref
from .projgeom import ProjSpace


class SemilinearError(Exception):
    pass


class SemilinearIso:
    """v -> M mu(v) on k^d, with M given as a d x d array of field indices
    and mu the Frobenius power x -> x^(p^frob_exp), frob_exp taken mod n."""

    def __init__(self, space, mat, frob_exp):
        if not isinstance(space, ProjSpace):
            raise SemilinearError("space must be a ProjSpace")
        self.space = space
        self.field = space.field
        mat = np.asarray(mat, dtype=np.int64)
        if mat.shape != (space.d, space.d):
            raise SemilinearError("matrix must be %d x %d" % (space.d, space.d))
        if len(rref(self.field, mat)[1]) != space.d:
            raise SemilinearError("matrix is singular")
        self.mat = mat
        self.frob_exp = int(frob_exp) % self.field.n

    def sigma_array(self):
        """Induced map on point indices, vectorized over the whole space."""
        S = self.space
        moved = self.field.frob_t[self.frob_exp][S.pts]
        return S.canon_index_many(
            mat_apply(self.field, self.mat, moved)).astype(np.int64)

    def induce(self):
        return Collineation(self.space, self.sigma_array())

    def normalized(self):
        """Scale the matrix so its first nonzero entry (row-major) is 1."""
        f = self.field
        flat = self.mat.ravel()
        lead = int(flat[np.argmax(flat != 0)])
        # a rescaled invertible matrix stays invertible: no rank check
        out = copy.copy(self)
        out.mat = f.mul_t[f.inv(lead), self.mat].astype(np.int64)
        return out

    def __repr__(self):
        return "SemilinearIso(d=%d, frob=%d)" % (self.space.d, self.frob_exp)


class Collineation:
    """Point bijection of P(k^d) that carries lines to lines.

    The line map is derived from sigma and verified during construction;
    a sigma that breaks incidence is rejected outright.
    """

    def __init__(self, space, sigma):
        self.space = space
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.tau = _line_maps(space, self.sigma[None])[0]

    @classmethod
    def many(cls, space, sigmas):
        """One Collineation per row of an [N, P] stack of point maps,
        checked together."""
        sigmas = np.asarray(sigmas, dtype=np.int64)
        out = []
        for sigma, tau in zip(sigmas, _line_maps(space, sigmas)):
            c = cls.__new__(cls)
            c.space, c.sigma, c.tau = space, sigma, tau
            out.append(c)
        return out

    def __eq__(self, other):
        return (isinstance(other, Collineation) and other.space is self.space
                and (other.sigma == self.sigma).all())

    def __repr__(self):
        return "Collineation(P=%d)" % len(self.sigma)


def _line_maps(space, sigmas):
    """Line maps [N, L] of an [N, P] stack of point maps; raises unless
    every row is a bijection that carries lines to lines."""
    if sigmas.shape[1:] != (space.n_points,):
        raise SemilinearError("sigma must list an image for every point")
    if (np.sort(sigmas, axis=1) != np.arange(space.n_points)).any():
        raise SemilinearError("sigma is not a bijection")
    # each image line is named by its two lowest points, then checked whole
    img = np.sort(sigmas[:, space.line_pts], axis=2)
    tau = space.line_of(img[..., 0], img[..., 1])
    if (tau < 0).any() or (space.line_pts[tau] != img).any():
        raise SemilinearError("point map does not carry lines to lines")
    return tau


def random_semilinear(space, rng):
    """Uniform-ish random element: random invertible matrix + random twist."""
    f, d = space.field, space.d
    while True:
        mat = rng.integers(0, f.q, size=(d, d))
        if len(rref(f, mat)[1]) == d:
            break
    e = int(rng.integers(0, f.n))
    return SemilinearIso(space, mat, e)


def equal_up_to_scalar(a, b):
    """Same projective action: matching twist and proportional matrices."""
    if a.space is not b.space:
        return False
    if a.frob_exp != b.frob_exp:
        return False
    f = a.space.field
    flat_a, flat_b = a.mat.ravel(), b.mat.ravel()
    if ((flat_a == 0) != (flat_b == 0)).any():
        return False
    lead = int(np.argmax(flat_a != 0))
    s = f.div(int(flat_a[lead]), int(flat_b[lead]))
    return (flat_a == f.mul_t[s, flat_b]).all()


# ---------------------------------------------------------------------------
# fundamental-theorem decoding
# ---------------------------------------------------------------------------

def decode_ftpg(coll):
    """Recover the (matrix, twist) pair behind a collineation, d >= 3.

    The matrix is fixed by the images of the standard frame and the unit
    point; the twist is the first of the n Frobenius powers whose induced
    map reproduces the given point map exactly.  The matrix comes back
    normalized (first nonzero entry 1).
    """
    S = coll.space
    f, d = S.field, S.d
    if d < 3:
        raise SemilinearError("decoding needs dim >= 3")
    # images of the standard frame and the unit point, as row vectors
    frame = np.vstack([np.eye(d, dtype=np.int64), np.ones((1, d), np.int64)])
    img = S.pts[coll.sigma[S.canon_index_many(frame)]]
    # scale column j, the image of e_j, by c_j so that M maps (1, ..., 1)
    # onto the unit's image: c solves W c = u, W = img[:d].T.  The last
    # column of the rref of [W | u] is c when W is invertible; otherwise
    # it has a zero, in a row that reduces to zero or off its own pivot
    c = rref(f, np.column_stack([img[:d].T, img[d]]))[0][:, d]
    if not c.all():
        raise SemilinearError("frame images are degenerate")
    M = f.mul_t[c, img[:d].T]
    for e in range(f.n):
        iso = SemilinearIso(S, M, e)
        if np.array_equal(iso.sigma_array(), coll.sigma):
            return iso.normalized()
    raise SemilinearError("point map is not induced by a semilinear map")
