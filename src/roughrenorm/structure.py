"""Degree bookkeeping, symbol-space projections, and parameter presets.

A :class:`StructureSpec` fixes the number of noise channels ``d``, the
exact rational Hoelder exponents ``alpha_i`` in (0, 1) of the integrated
noises, and a truncation bound on monomial powers.  Degrees are computed
edge-wise: an integration edge contributes ``+1`` and a noise edge of
channel ``i`` contributes ``alpha_i - 1``.  All degree arithmetic is done
with :class:`fractions.Fraction` so that sign tests are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DomainError
from .trees import (
    INTEGRATION,
    LEAF,
    Tree,
    branch,
    noise,
    tree_product,
)

_DEGREE_CACHE = {}  # (spec, tree) -> exact degree
_ZERO, _ONE = Fraction(0), Fraction(1)  # a leaf's degree, an integration edge's
# a symbolic check makes d^2 cases over a covariance of (2d)^2 entries: at
# d = 32, nmax = 4, check-bphz takes about 3 s and check-gamma about 7 s
_MAX_CHANNELS = 32
# the simulations' truncation cap, and the cap of check-bphz's and
# check-gamma's --nmax; the README gives the commands' cost at the cap
MAX_TRUNCATION = 64


def require_channels(d):
    """A ConfigError unless ``d`` is a channel count the symbolic layer takes."""
    if not 1 <= d <= _MAX_CHANNELS:
        raise ConfigError(f"d must lie in 1..{_MAX_CHANNELS}")


@dataclass(frozen=True)
class StructureSpec:
    """Parameters of the symbol space: channel count, exponents, truncation."""

    d: int
    alpha: tuple
    truncation: int = 8

    def __post_init__(self):
        require_channels(self.d)
        if len(self.alpha) != self.d:
            raise ConfigError("alpha must list one exponent per channel")
        alpha = tuple(Fraction(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        for a in alpha:
            if not (0 < a < 1):
                raise ConfigError(f"alpha entries must lie in (0, 1), got {a}")
        if self.truncation < 1:
            raise ConfigError("truncation must be >= 1")
        # every memo table is keyed by spec; hash its fields once
        object.__setattr__(self, "_hash", hash((self.d, alpha, self.truncation)))
        object.__setattr__(self, "_noise_degrees", tuple(a - 1 for a in alpha))

    def __hash__(self):
        return self._hash

    def edge_degree(self, et):
        """``alpha_i - 1`` for a noise edge of channel i, +1 for an integration edge."""
        if et.is_noise:
            if et.index > self.d:
                raise DomainError(f"noise index {et.index} exceeds d={self.d}")
            return self._noise_degrees[et.index - 1]
        return _ONE

    def degree_tree(self, tree):
        """Exact degree of a tree, computed once per spec and tree."""
        key = (self, tree)
        total = _DEGREE_CACHE.get(key)
        if total is None:
            total = _ZERO
            for et, sub in tree.children:
                total += self.edge_degree(et) + self.degree_tree(sub)
            _DEGREE_CACHE[key] = total
        return total

    def degree(self, obj):
        """Exact degree of a Tree or Forest (sum over components)."""
        if isinstance(obj, Tree):
            return self.degree_tree(obj)
        total = Fraction(0)
        for t in obj.trees:
            total += self.degree_tree(t)
        return total


def generic_spec(d, nmax):
    """Spec with small distinct exponents keeping all noise monomials of
    power <= nmax at negative degree (used by the symbolic self-checks)."""
    if nmax < 0:
        raise ConfigError("nmax must be >= 0")
    denom = 8 * d * (nmax + 1)
    alpha = tuple(Fraction(2 * i + 1, denom) for i in range(d))
    return StructureSpec(d=d, alpha=alpha, truncation=max(nmax, 1))


def rough_vol_spec(H, kappa, truncation=None):
    """Two-channel spec for the rough-volatility setting.

    Channel 1 is the driving white noise (degree ``-1/2 - kappa``) and
    channel 2 the fractional volatility noise (integrated degree
    ``H - kappa``).  Requires ``0 < kappa < H < 1/2``.  The truncation
    defaults to the smallest power M with
    ``(M + 1) * (H - kappa) - 1/2 - kappa > 0``.
    """
    H = Fraction(H)
    kappa = Fraction(kappa)
    if not (0 < H < Fraction(1, 2)):
        raise ConfigError("H must lie in (0, 1/2)")
    if not (0 < kappa < H):
        raise ConfigError("kappa must lie in (0, H)")
    alpha = (Fraction(1, 2) - kappa, H - kappa)
    if truncation is None:
        truncation = required_power(H, kappa)
    return StructureSpec(d=2, alpha=alpha, truncation=truncation)


def required_power(H, kappa):
    """Smallest m >= 1 with (m + 1) * (H - kappa) - 1/2 - kappa > 0."""
    H = Fraction(H)
    kappa = Fraction(kappa)
    return max(1, math.floor((Fraction(1, 2) + kappa) / (H - kappa)))


# ---------------------------------------------------------------------------
# projections


def is_negative_forest(forest, spec):
    """Whether every component of ``forest`` has negative degree (so the
    empty forest, the unit, qualifies)."""
    return all(spec.degree_tree(t) < 0 for t in forest.trees)


def tree_survives_plus(tree, spec):
    """Whether a tree survives the positive-space projection.

    A tree is killed when it factors (over the tree product) as
    ``sigma * rest`` with ``sigma`` a non-unit factor of degree <= 0;
    for symbol-family trees this happens exactly when some root factor
    has degree <= 0 (noise factors in particular).
    """
    for et, sub in tree.children:
        if spec.edge_degree(et) + spec.degree_tree(sub) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# basis enumeration


def enumerate_basis(spec):
    """The canonical symbol list for ``spec``.

    Returns the unit, the noises ``Xi_i``, pure integration powers
    ``I^n``, mixed ``Xi_i * I^n``, integrated noises ``I(Xi_j)^n`` and
    ``Xi_i * I(Xi_j)^n``, for ``1 <= n <= truncation``.
    """
    out = [LEAF]
    xis = [branch(noise(i)) for i in range(1, spec.d + 1)]
    ixis = [branch(INTEGRATION, branch(noise(j))) for j in range(1, spec.d + 1)]
    out.extend(xis)
    for n in range(1, spec.truncation + 1):
        i_n = tree_product(*([branch(INTEGRATION)] * n))
        out.append(i_n)
        for xi in xis:
            out.append(tree_product(xi, i_n))
        for ixi in ixis:
            pw = tree_product(*([ixi] * n))
            out.append(pw)
            for xi in xis:
                out.append(tree_product(xi, pw))
    return out
