"""Shared helpers for parts of the suite that predate the catalog module."""

import random
from fractions import Fraction

from gwa.core import GwaPresentation
from gwa.field import CYC_KIND, Q_KIND, QQ_KIND, rationals
from gwa.linalg import RowSpace, mat_mul
from gwa.ring import Automorphism, BaseRing


def identity(spec, n: int) -> list:
    """The n x n identity matrix of FieldElement."""
    return [[spec.one() if i == j else spec.zero() for j in range(n)] for i in range(n)]


def weyl1(field=None) -> GwaPresentation:
    field = field or rationals()
    R = BaseRing(field, ["t"])
    phi = Automorphism(R, {"t": R.gen("t") - R.one()})
    return GwaPresentation(R, [phi], [R.gen("t")])


def univariate_affine(field, alpha, beta) -> GwaPresentation:
    R = BaseRing(field, ["t"])
    phi = Automorphism(R, {"t": R.gen("t") * alpha + R.scalar(beta)})
    return GwaPresentation(R, [phi], [R.gen("t")])


def sample_pool(spec) -> list:
    """A small fixed list of scalars of the field, for randomized sweeps."""
    pool = [spec.from_int(k) for k in (-2, -1, 0, 1, 2, 3)]
    if spec.kind == Q_KIND:
        pool += [spec.from_fraction(Fraction(1, 2)), spec.from_fraction(Fraction(-2, 3))]
    elif spec.kind in (CYC_KIND, QQ_KIND):
        g = spec.generator()
        pool += [g, g + spec.one(), g * g - (spec.one() if spec.kind == CYC_KIND else g)]
    return pool


def witness_is_submodule(model, rows) -> bool:
    """Whether the vectors span a nonzero proper subspace that every action
    matrix of the model maps into itself; FieldElement arithmetic only."""
    spec, d = model.field, model.dim
    space = RowSpace(spec, d)
    for row in rows:
        space.add(row)
    if not 0 < space.dim < d:
        return False
    mats = model.x_mats + model.y_mats + list(model.gen_mats.values())
    for m in mats:
        for row in rows:
            image = [r[0] for r in mat_mul(m, [[x] for x in row])]
            if space.add(image):
                return False
    return True


def random_ring_element(rng: random.Random, ring, max_degree=3, n_terms=3):
    pool = sample_pool(ring.field)
    out = ring.zero()
    for _ in range(rng.randint(1, n_terms)):
        exps = []
        left = max_degree
        for l in ring.laurent:
            e = rng.randint(-min(left, max_degree), left) if l else rng.randint(0, left)
            left -= abs(e)
            exps.append(e)
        out = out + ring.monomial(tuple(exps), rng.choice(pool))
    return out


def certificate_holds(cert, target, generators) -> bool:
    """Whether the (cofactor, generator) pairs re-expand to target, each
    generator being one of `generators`.  Ring arithmetic only, so it is an
    oracle independent of the Groebner code that built the certificate."""
    total = target.ring.zero()
    for c, g in cert:
        if g not in generators:
            return False
        total = total + c * g
    return total == target


def stability_certificates_hold(J) -> bool:
    """Every entry (i, j) of J's stability certificate re-expands phi_i(g_j),
    and (i, -j - 1) re-expands phi_i^-1(g_j), over J.generators; the images
    come from the stored generator images by substitution."""
    for (i, j), cert in J.stability_certificate.items():
        phi = J.phis[i]
        g = J.generators[j] if j >= 0 else J.generators[-j - 1]
        image = g.substitute(phi.images if j >= 0 else phi.inverse_images)
        if not certificate_holds(cert, image, J.generators):
            return False
    return len(J.stability_certificate) == 2 * len(J.phis) * len(J.generators)


def random_gwa_element(rng: random.Random, pres, max_z=3, max_degree=3, n_terms=3):
    out = pres.zero()
    for _ in range(rng.randint(1, n_terms)):
        total = rng.randint(0, max_z)
        alpha = [0] * pres.n
        for _ in range(total):
            i = rng.randrange(pres.n)
            alpha[i] += rng.choice((1, -1))
        coeff = random_ring_element(rng, pres.ring, max_degree=max_degree, n_terms=2)
        out = out + pres.monomial(alpha, coeff)
    return out
