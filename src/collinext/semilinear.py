"""Semilinear maps on k^d and the collineations they induce.

A semilinear isomorphism is v -> M mu(v) with M in GL_d(k) and mu a field
automorphism applied coordinatewise.  For d >= 3 every incidence-preserving
point bijection of P(k^d) arises this way, uniquely up to a scalar on M;
decode_ftpg performs that reconstruction.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import GF, mat_apply, mat_det, mat_mul, mat_vec, solve_linear
from .projgeom import GeomError, ProjSpace


class SemilinearError(Exception):
    pass


@dataclass(frozen=True)
class FieldIso:
    """Automorphism x -> x^(p^e) of a finite field, e taken mod n."""

    field: GF
    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", int(self.e) % self.field.n)

    def __call__(self, a):
        return self.field.frob(a, self.e)

    def table(self):
        return self.field.frob_t[self.e].astype(np.int64)

    def compose(self, other):
        if other.field is not self.field:
            raise SemilinearError("automorphisms of different fields")
        return FieldIso(self.field, self.e + other.e)

    def inverse(self):
        return FieldIso(self.field, -self.e)

    @property
    def is_identity(self):
        return self.e == 0


class SemilinearIso:
    """v -> M mu(v) on k^d, with M given as a d x d array of field indices."""

    def __init__(self, space, mat, frob_exp):
        if not isinstance(space, ProjSpace):
            raise SemilinearError("space must be a ProjSpace")
        self.space = space
        self.field = space.field
        mat = np.asarray(mat, dtype=np.int64)
        if mat.shape != (space.d, space.d):
            raise SemilinearError("matrix must be %d x %d" % (space.d, space.d))
        if mat_det(self.field, mat.tolist()) == 0:
            raise SemilinearError("matrix is singular")
        self.mat = mat
        self.mu = FieldIso(self.field, frob_exp)

    @property
    def frob_exp(self):
        return self.mu.e

    def apply_vec(self, v):
        moved = [self.mu(int(x)) for x in v]
        return mat_vec(self.field, self.mat.tolist(), moved)

    def apply_point(self, i):
        return self.space.canon_index(self.apply_vec(self.space.pts[i]))

    def sigma_array(self):
        """Induced map on point indices, vectorized over the whole space."""
        S = self.space
        moved = self.mu.table()[S.pts]
        return S.canon_index_many(
            mat_apply(self.field, self.mat, moved)).astype(np.int64)

    def induce(self):
        return Collineation(self.space, self.sigma_array())

    def normalized(self):
        """Scale the matrix so its first nonzero entry (row-major) is 1."""
        f = self.field
        flat = self.mat.ravel()
        lead = int(flat[np.argmax(flat != 0)])
        s = f.inv(lead)
        scaled = f.mul_t[s, self.mat]
        return SemilinearIso(self.space, scaled, self.mu.e)

    def compose(self, other):
        """self after other, as a semilinear map."""
        if other.space is not self.space:
            raise SemilinearError("maps on different spaces")
        f = self.field
        twisted = np.array(
            [[self.mu(int(x)) for x in row] for row in other.mat], dtype=np.int64
        )
        prod = mat_mul(f, self.mat.tolist(), twisted.tolist())
        return SemilinearIso(self.space, prod, self.mu.e + other.mu.e)

    def __repr__(self):
        return "SemilinearIso(d=%d, frob=%d)" % (self.space.d, self.mu.e)


class Collineation:
    """Point bijection of P(k^d) that carries lines to lines.

    The line map is derived from sigma and verified during construction;
    a sigma that breaks incidence is rejected outright.
    """

    def __init__(self, space, sigma):
        self.space = space
        sigma = np.asarray(sigma, dtype=np.int64)
        if sigma.shape != (space.n_points,):
            raise SemilinearError("sigma must list an image for every point")
        if len(np.unique(sigma)) != space.n_points:
            raise SemilinearError("sigma is not a bijection")
        self.sigma = sigma
        # each image line is named by its two lowest points, then checked whole
        img = np.sort(sigma[space.line_pts], axis=1)
        tau = space.line_of(img[:, 0], img[:, 1])
        if (tau < 0).any() or (space.line_pts[tau] != img).any():
            raise SemilinearError("point map does not carry lines to lines")
        self.tau = tau

    def point_map(self, i):
        return int(self.sigma[i])

    def line_map(self, l):
        return int(self.tau[l])

    def inverse(self):
        inv = np.empty_like(self.sigma)
        inv[self.sigma] = np.arange(len(self.sigma))
        return Collineation(self.space, inv)

    def compose(self, other):
        """self after other."""
        if other.space is not self.space:
            raise SemilinearError("collineations on different spaces")
        return Collineation(self.space, self.sigma[other.sigma])

    def __eq__(self, other):
        return (isinstance(other, Collineation) and other.space is self.space
                and (other.sigma == self.sigma).all())

    def __repr__(self):
        return "Collineation(P=%d)" % len(self.sigma)


def random_semilinear(space, rng):
    """Uniform-ish random element: random invertible matrix + random twist."""
    f, d = space.field, space.d
    while True:
        mat = rng.integers(0, f.q, size=(d, d))
        if mat_det(f, mat.tolist()) != 0:
            break
    e = int(rng.integers(0, f.n))
    return SemilinearIso(space, mat, e)


def equal_up_to_scalar(a, b):
    """Same projective action: matching twist and proportional matrices."""
    if a.space is not b.space:
        return False
    if a.mu.e != b.mu.e:
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

    The matrix comes back normalized (first nonzero entry 1); the result
    is verified to induce exactly the given point map.
    """
    S = coll.space
    f, d, q = S.field, S.d, S.q
    if d < 3:
        raise SemilinearError("decoding needs dim >= 3")
    # images of the standard frame and the unit point, as row vectors
    frame_idx = [S.canon_index([1 if j == i else 0 for j in range(d)])
                 for i in range(d)]
    unit_idx = S.canon_index([1] * d)
    F = [list(map(int, S.pts[coll.point_map(i)])) for i in frame_idx]
    W = list(map(int, S.pts[coll.point_map(unit_idx)]))
    # scale column i by c_i so the frame plus unit go to the right places
    A = [[F[j][i] for j in range(d)] for i in range(d)]  # columns F_j
    c = solve_linear(f, A, W)
    if c is None or any(x == 0 for x in c):
        raise SemilinearError("frame images are degenerate")
    M = np.array([[f.mul(c[j], F[j][i]) for j in range(d)] for i in range(d)],
                 dtype=np.int64)
    # read the twist off the line through e1, e2: (1 : a : 0 : ...) maps to
    # col1 + mu(a) col2
    col1 = [int(M[i, 0]) for i in range(d)]
    col2 = [int(M[i, 1]) for i in range(d)]
    mu_map = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        vec = [1, a] + [0] * (d - 2)
        w = list(map(int, S.pts[coll.point_map(S.canon_index(vec))]))
        sol = solve_linear(f, [[col1[i], col2[i]] for i in range(d)], w)
        if sol is None or sol[0] == 0:
            raise SemilinearError("image frame is not in general position")
        mu_map[a] = f.div(sol[1], sol[0])
    e_found = None
    for e in range(f.n):
        if (mu_map == f.frob_t[e]).all():
            e_found = e
            break
    if e_found is None:
        raise SemilinearError("point map is not induced by a semilinear map")
    iso = SemilinearIso(S, M, e_found).normalized()
    if (iso.sigma_array() != coll.sigma).any():
        raise SemilinearError("decoded map does not reproduce the point map")
    return iso
