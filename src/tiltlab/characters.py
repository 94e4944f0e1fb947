"""Formal characters: finitely supported Laurent polynomials in one variable.

Weights are plain integers; a character maps weight -> multiplicity.  Weyl
characters chi(n) form the standard basis used to certify filtrations and
tensor decompositions.
"""

from __future__ import annotations


class Character:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for w, m in coeffs.items():
                if m:
                    self.coeffs[w] = m

    @classmethod
    def from_weights(cls, weights):
        c = cls()
        for w in weights:
            c.coeffs[w] = c.coeffs.get(w, 0) + 1
        return c

    def __eq__(self, other):
        return isinstance(other, Character) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, m in other.coeffs.items():
            out[w] = out.get(w, 0) + m
        return Character(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for w, m in other.coeffs.items():
            out[w] = out.get(w, 0) - m
        return Character(out)

    def __mul__(self, other):
        out = {}
        for w1, m1 in self.coeffs.items():
            for w2, m2 in other.coeffs.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + m1 * m2
        return Character(out)

    def is_zero(self):
        return not self.coeffs

    def dimension(self):
        return sum(self.coeffs.values())

    def multiplicity(self, w):
        return self.coeffs.get(w, 0)

    def max_weight(self):
        return max(self.coeffs) if self.coeffs else None

    def reflect(self):
        """Substitute x -> 1/x (character of the dual module)."""
        return Character({-w: m for w, m in self.coeffs.items()})

    def is_symmetric(self):
        return self == self.reflect()

    def __repr__(self):
        if not self.coeffs:
            return "Character(0)"
        parts = [f"{m}*x^{w}" for w, m in sorted(self.coeffs.items())]
        return "Character(" + " + ".join(parts) + ")"


def weyl_character(n: int) -> Character:
    """chi(n) = x^n + x^(n-2) + ... + x^-n, with the reflection rule below -1."""
    if n == -1:
        return Character()
    if n < -1:
        c = weyl_character(-n - 2)
        return Character({w: -m for w, m in c.coeffs.items()})
    return Character({n - 2 * i: 1 for i in range(n + 1)})


def decompose_into_weyl(ch: Character):
    """Write ch as an integer combination of chi(n); returns {n: coeff}.

    Always succeeds (Weyl characters are a basis of symmetric Laurent
    polynomials); coefficients may be negative.  Raises if ch is not
    symmetric under x -> 1/x.
    """
    if not ch.is_symmetric():
        raise ValueError("character is not Weyl-symmetric")
    rest = Character(dict(ch.coeffs))
    out = {}
    while not rest.is_zero():
        top = rest.max_weight()
        if top < 0:
            raise ValueError("asymmetric remainder in Weyl decomposition")
        c = rest.multiplicity(top)
        out[top] = c
        chi = weyl_character(top)
        rest = rest - Character({w: c * m for w, m in chi.coeffs.items()})
    return out


def is_nonneg_weyl_sum(ch: Character) -> bool:
    try:
        dec = decompose_into_weyl(ch)
    except ValueError:
        return False
    return all(c >= 0 for c in dec.values())
