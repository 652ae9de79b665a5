"""Minimal multivariate polynomials with exact rational coefficients.

Used for identity checks in which path evaluations, transport
coefficients, and covariance entries are kept as free commuting
indeterminates.  Monomials are sorted tuples of variable names (with
repetition for powers).
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                coeff = Fraction(coeff)
                if mono in d:
                    coeff = d[mono] + coeff
                if coeff:
                    d[mono] = coeff
                elif mono in d:
                    del d[mono]
        self.terms = d

    @classmethod
    def var(cls, name):
        return cls([((name,), Fraction(1))])

    @classmethod
    def const(cls, value):
        value = Fraction(value)
        return cls([((), value)]) if value else cls()

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for mono, c in other.terms.items():
            c = d.get(mono, Fraction(0)) + c
            if c:
                d[mono] = c
            elif mono in d:
                del d[mono]
        out = Poly()
        out.terms = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                pairs.append((tuple(sorted(m1 + m2)), c1 * c2))
        return Poly(pairs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def substitute(self, values):
        """Evaluate with ``values`` mapping variable name -> Fraction/float."""
        total = 0
        for mono, c in self.terms.items():
            prod = c
            for name in mono:
                prod = prod * values[name]
            total = total + prod
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            body = "*".join(mono) if mono else "1"
            parts.append(f"{c}*{body}" if mono else f"{c}")
        return " + ".join(parts)
