"""Degree bookkeeping, symbol-space projections, and parameter presets.

A :class:`StructureSpec` fixes the number of noise channels ``d``, the
exact rational Hoelder exponents ``alpha_i`` in (0, 1) of the integrated
noises, and a truncation bound on monomial powers.  Degrees are computed
edge-wise: an integration edge contributes ``+1`` and a noise edge of
channel ``i`` contributes ``alpha_i - 1``.  All degree arithmetic is done
with :class:`fractions.Fraction` so that sign tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import rational, read_config
from .errors import ConfigError, DomainError
from .trees import (
    FormalSum,
    INTEGRATION,
    LEAF,
    Tree,
    as_formal_sum,
    branch,
    noise,
    tree_product,
)

DEFAULT_TRUNCATION = 8


@dataclass(frozen=True)
class StructureSpec:
    """Parameters of the symbol space: channel count, exponents, truncation."""

    d: int
    alpha: tuple
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if len(self.alpha) != self.d:
            raise ConfigError("alpha must list one exponent per channel")
        alpha = tuple(Fraction(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        for a in alpha:
            if not (0 < a < 1):
                raise ConfigError(f"alpha entries must lie in (0, 1), got {a}")
        if self.truncation < 1:
            raise ConfigError("truncation must be >= 1")

    def edge_degree(self, et):
        if et.is_noise:
            if et.index > self.d:
                raise DomainError(f"noise index {et.index} exceeds d={self.d}")
            return self.alpha[et.index - 1] - 1
        return Fraction(1)

    def degree_tree(self, tree):
        total = Fraction(0)
        for et, sub in tree.children:
            total += self.edge_degree(et) + self.degree_tree(sub)
        return total

    def degree(self, obj):
        """Exact degree of a Tree or Forest (sum over components)."""
        if isinstance(obj, Tree):
            return self.degree_tree(obj)
        total = Fraction(0)
        for t in obj.trees:
            total += self.degree_tree(t)
        return total

    # -- serialization ----------------------------------------------------

    def to_text(self):
        lines = [f"d = {self.d}"]
        for i, a in enumerate(self.alpha, start=1):
            lines.append(f"alpha_{i} = {a}")
        lines.append(f"truncation = {self.truncation}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Read ``d``, ``alpha_1`` .. ``alpha_d`` and optional ``truncation``."""

        def converter(key):
            if key in ("d", "truncation"):
                return int
            return rational if key.startswith("alpha_") else None

        fields = read_config(text, converter)
        try:
            d = fields.pop("d")
            alpha = tuple(fields.pop(f"alpha_{i}") for i in range(1, d + 1))
        except KeyError as exc:
            raise ConfigError(f"missing field {exc}") from exc
        truncation = fields.pop("truncation", DEFAULT_TRUNCATION)
        if fields:
            raise ConfigError(f"unknown key {min(fields)!r} for d={d}")
        return cls(d=d, alpha=alpha, truncation=truncation)


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
    """Smallest m with (m + 1) * (H - kappa) - 1/2 - kappa > 0."""
    H = Fraction(H)
    kappa = Fraction(kappa)
    m = 1
    while (m + 1) * (H - kappa) - Fraction(1, 2) - kappa <= 0:
        m += 1
    return m


# ---------------------------------------------------------------------------
# projections


def project_minus(x, spec):
    """Kill forests having any component of non-negative degree.

    The empty forest (unit) survives.  Acts term-wise on forest-keyed
    formal sums; also accepts a single Tree or Forest.
    """
    out = FormalSum()
    for f, c in as_formal_sum(x):
        if all(spec.degree_tree(t) < 0 for t in f.trees):
            out += FormalSum.lift(f, c)
    return out


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


def project_plus(x, spec):
    """Projection onto the positive symbol space (term-wise on trees).

    Keys must be single-tree forests (or the empty forest); raises
    DomainError otherwise.
    """
    out = FormalSum()
    for f, c in as_formal_sum(x):
        if len(f.trees) > 1:
            raise DomainError("positive projection acts on trees, not proper forests")
        if f.is_empty or tree_survives_plus(f.trees[0], spec):
            out += FormalSum.lift(f, c)
    return out


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
    seen = set()
    uniq = []
    for t in out:
        if t.key not in seen:
            seen.add(t.key)
            uniq.append(t)
    return uniq


def positive_basis(spec):
    """Symbols spanning the positive space: unit, I^n, I(Xi_j)^n."""
    return [t for t in enumerate_basis(spec) if tree_survives_plus(t, spec)]
