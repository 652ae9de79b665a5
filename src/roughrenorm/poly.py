"""Multivariate polynomials with exact coefficients.

Used for identity checks in which path evaluations, transport
increments, and covariance entries are kept as free commuting
indeterminates.  A polynomial is a :class:`~roughrenorm.trees.FormalSum`
keyed by monomials: sorted tuples of variable names (with repetition for
powers).  It adds to the formal sum only what a ring of polynomials
needs: variables and constants, int/Fraction scalars on either side of
``+ - * ==``, the product of monomials, and substitution.  Its
coefficients follow the formal sum's rule: ints, and a Fraction only
where a rational scalar or covariance entry enters; a constant keeps
the type it is given, and a scalar times a polynomial is a scaling.
"""

from __future__ import annotations

from fractions import Fraction

from .trees import FormalSum


def _coerced(op):
    """``op`` on two polynomials, with an int or Fraction ``other`` read
    as a constant."""

    def wrapper(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return op(self, other)

    return wrapper


def _mono_product(m1, m2):
    return tuple(sorted(m1 + m2))


def _times(self, other):
    """``self * other``: a scaling by an int or Fraction, else the product
    of monomials."""
    if isinstance(other, (int, Fraction)):
        return self.scale(other)
    if not isinstance(other, Poly):
        return NotImplemented
    return self.combine(other, _mono_product)


class Poly(FormalSum):
    """A polynomial: a formal sum over monomials, with int coefficients
    unless a rational enters (see the module docstring)."""

    __slots__ = ()

    @classmethod
    def var(cls, name):
        return cls.lift((name,))

    @classmethod
    def const(cls, value):
        return cls.lift((), value)

    __add__ = __radd__ = _coerced(FormalSum.__add__)
    __sub__ = _coerced(FormalSum.__sub__)
    __rsub__ = _coerced(lambda self, other: other - self)
    __mul__ = __rmul__ = _times
    __eq__ = _coerced(FormalSum.__eq__)

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
