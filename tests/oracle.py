"""A deliberately naive free-algebra rewriting oracle for the normal-form product.

`oracle_mul` writes each product of normal-form terms as a word of atoms
('r', RingElement) | ('X', i) | ('Y', i) and rewrites it, only ever one
adjacent pair of letters at a time, with the defining relations

    Y_i X_i = t_i,   X_i Y_i = phi_i(t_i),   X_i r = phi_i(r) X_i,
    Y_i r = phi_i^{-1}(r) Y_i,   and letters of distinct indices commute,

so the closed-form product in `gwa.core` can be compared with it on random
inputs.
"""

from gwa.core import GwaElement, GwaPresentation
from gwa.errors import GwaError

_ORACLE_BUDGET = 200_000


def _letters(alpha):
    out = []
    for i, e in enumerate(alpha):
        if e >= 0:
            out.extend([("X", i)] * e)
        else:
            out.extend([("Y", i)] * (-e))
    return out


def _word_rewrite_step(pres, word):
    """Apply the leftmost applicable rule; None when the word is in normal form."""
    for pos in range(len(word) - 1):
        p, q = word[pos], word[pos + 1]
        if p[0] == "r":
            if q[0] == "r":
                merged = p[1] * q[1]
                if merged.is_zero():
                    return "zero"
                return word[:pos] + (("r", merged),) + word[pos + 2:]
            # a letter left of an interior 'r' is handled one position earlier
            continue
        if q[0] == "r":
            moved = pres.phis[p[1]].apply(q[1]) if p[0] == "X" \
                else pres.phis[p[1]].inverse().apply(q[1])
            return word[:pos] + (("r", moved), p) + word[pos + 2:]
        if p[1] == q[1]:
            if p[0] == "Y" and q[0] == "X":
                return word[:pos] + (("r", pres.ts[p[1]]),) + word[pos + 2:]
            if p[0] == "X" and q[0] == "Y":
                return word[:pos] + (("r", pres.phis[p[1]].apply(pres.ts[p[1]])),) + word[pos + 2:]
        elif p[1] > q[1]:
            return word[:pos] + (q, p) + word[pos + 2:]
    return None


def oracle_normal_form(pres: GwaPresentation, words) -> dict:
    """Rewrite a list of free-algebra words to the Z^alpha normal form.

    Each word is a tuple of atoms ('r', RingElement) | ('X', i) | ('Y', i).
    Returns the term map alpha -> coefficient.
    """
    out = {}
    budget = _ORACLE_BUDGET
    for word in words:
        w = tuple(word)
        while True:
            budget -= 1
            if budget <= 0:
                raise GwaError("oracle rewriting exceeded its step budget")
            step = _word_rewrite_step(pres, w)
            if step is None:
                break
            if step == "zero":
                w = None
                break
            w = step
        if w is None:
            continue
        coeff = pres.ring.one()
        letters = w
        if w and w[0][0] == "r":
            coeff = w[0][1]
            letters = w[1:]
        alpha = [0] * pres.n
        for kind, i in letters:
            alpha[i] += 1 if kind == "X" else -1
        key = tuple(alpha)
        acc = out.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def oracle_mul(a: GwaElement, b: GwaElement) -> dict:
    """Product of two normal-form elements computed purely by pair rewriting."""
    pres = a.pres
    words = []
    for alpha, r in a.terms.items():
        for beta, s in b.terms.items():
            word = (("r", r),) + tuple(_letters(alpha)) + (("r", s),) + tuple(_letters(beta))
            words.append(word)
    return oracle_normal_form(pres, words)
