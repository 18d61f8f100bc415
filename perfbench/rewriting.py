"""Reference product for the `products` output check, by adjacent-pair rewriting.

A product of two normal-form terms r Z^alpha * s Z^beta is written as a word of
atoms ("r", ring element), ("X", i), ("Y", i) and rewritten, one adjacent pair
at a time, with the defining relations only:

    r s -> (rs)                X_i r -> phi_i(r) X_i      Y_i r -> phi_i^-1(r) Y_i
    Y_i X_i -> t_i             X_i Y_i -> phi_i(t_i)      L_i M_j -> M_j L_i  (i > j)

until no rule applies.  Automorphisms are applied by substituting their stored
generator images directly, so neither the closed-form product in gwa.core nor
the automorphism apply cache is involved.
"""

from __future__ import annotations

_STEP_BUDGET = 100_000


def _letters(alpha):
    word = []
    for i, e in enumerate(alpha):
        word.extend([("X" if e > 0 else "Y", i)] * abs(e))
    return word


def _rewrite_pair(pres, p, q):
    """Replacement for the adjacent pair (p, q), "zero", or None if none applies."""
    if p[0] == "r":
        if q[0] != "r":
            return None
        merged = p[1] * q[1]
        return "zero" if merged.is_zero() else [("r", merged)]
    phi = pres.phis[p[1]]
    if q[0] == "r":
        images = phi.images if p[0] == "X" else phi.inverse_images
        return [("r", q[1].substitute(images)), p]
    if p[1] == q[1]:
        if p[0] == "Y" and q[0] == "X":
            return [("r", pres.ts[p[1]])]
        if p[0] == "X" and q[0] == "Y":
            return [("r", pres.ts[p[1]].substitute(phi.images))]
        return None
    return [q, p] if p[1] > q[1] else None


def _normal_word(pres, word):
    """(coefficient, exponent tuple) of the word's normal form, or None for zero."""
    word = list(word)
    for _ in range(_STEP_BUDGET):
        for pos in range(len(word) - 1):
            new = _rewrite_pair(pres, word[pos], word[pos + 1])
            if new == "zero":
                return None
            if new is not None:
                word[pos:pos + 2] = new
                break
        else:
            coeff = word[0][1]
            alpha = [0] * pres.n
            for kind, i in word[1:]:
                alpha[i] += 1 if kind == "X" else -1
            return coeff, tuple(alpha)
    raise RuntimeError("reference rewriting exceeded its step budget")


def product_terms(a, b) -> dict:
    """Normal-form term map of a*b, computed by rewriting alone."""
    pres = a.pres
    out = {}
    for alpha, r in a.terms.items():
        for beta, s in b.terms.items():
            nf = _normal_word(pres, [("r", r)] + _letters(alpha) + [("r", s)] + _letters(beta))
            if nf is None:
                continue
            coeff, gamma = nf
            acc = out.get(gamma)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                out.pop(gamma, None)
            else:
                out[gamma] = acc
    return out
