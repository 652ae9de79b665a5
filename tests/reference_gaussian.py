"""The oracle that ``test_gaussian`` compares the Gaussian character against,
kept verbatim from before every moment became a polynomial in the entries
C[u][v] substituted at the covariance: Isserlis' pairing recursion run in the
covariance's own ring (Fractions for a ``CovarianceSpec``, polynomials for a
``SymbolicCovariance``), with a moment cache per covariance, and the character
g built on it tree by tree."""

from fractions import Fraction

from roughrenorm.gaussian import tree_monomial
from roughrenorm.trees import Forest, Tree, forest_of

# one moment cache per covariance object, as each covariance kept its own
_CACHES = {}


def isserlis_moment(monomial, cov):
    """Moment of a product of centered jointly Gaussian variables.

    ``monomial`` is a sequence of variables; pairings are expanded
    recursively on the first element's partner.  Exact (Fraction or Poly
    coefficients, depending on the covariance).
    """
    mono = tuple(sorted(monomial))
    cache = _CACHES.setdefault(cov, {})
    hit = cache.get(mono)
    if hit is not None:
        return hit
    value = _isserlis(mono, cov)
    cache[mono] = value
    return value


def _isserlis(mono, cov):
    n = len(mono)
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(0)
    first, rest = mono[0], mono[1:]
    total = Fraction(0)
    for k in range(len(rest)):
        sub = rest[:k] + rest[k + 1 :]
        total = total + cov.entry(first, rest[k]) * isserlis_moment(sub, cov)
    return total


def g_minus(x, cov):
    """Centered Gaussian character: expectation of the evaluated symbol
    at the origin, multiplicative over forest components."""
    if isinstance(x, Tree):
        x = forest_of(x)
    if isinstance(x, Forest):
        total = Fraction(1)
        for t in x.trees:
            mono = tree_monomial(t)
            if mono is None:
                return Fraction(0)
            total = total * isserlis_moment(mono, cov)
        return total
    acc = Fraction(0)
    for f, c in x:
        acc = acc + c * g_minus(f, cov)
    return acc
