"""Shared helpers for parts of the suite that predate the catalog module."""

import random

from gwa.core import GwaPresentation
from gwa.field import rationals
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


def random_ring_element(rng: random.Random, ring, max_degree=3, n_terms=3):
    pool = ring.field.sample_pool()
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
