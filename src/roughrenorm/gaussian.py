"""Gaussian moment bookkeeping: Wick/Isserlis moments, the centered
Gaussian character on symbols, and its antipode twist.

A symbol tree maps to a monomial in the jointly Gaussian variables
``D_i`` (derivative of the mollified channel-i path at the origin, from a
root noise edge) and ``X_j`` (the channel-j path value at the origin,
from an integrated noise branch ``I(Xi_j)``).  A bare integration branch
evaluates to the origin itself and annihilates the monomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .config import rational, read_config
from .errors import ConfigError, DomainError
from .poly import Poly
from .trees import Forest, Tree, as_formal_sum, forest_of, in_symbol_family
from .coalgebra import twisted_antipode

# A variable is ("D", i) or ("X", j) with a 1-based channel index.
_ENTRY = re.compile(r"([DX])([0-9]+),([DX])([0-9]+)")  # covariance key, e.g. D1,X2


def variable_order(d):
    return tuple([("D", i) for i in range(1, d + 1)] + [("X", j) for j in range(1, d + 1)])


class CovarianceSpec:
    """Exact symmetric covariance over the variables D_1..D_d, X_1..X_d."""

    def __init__(self, d, entries):
        self.d = d
        self._entries = {}
        for (u, v), value in entries.items():
            self._entries[self._norm(u, v)] = Fraction(value)
        self._moment_cache = {}

    @staticmethod
    def _norm(u, v):
        return (u, v) if u <= v else (v, u)

    @classmethod
    def from_matrix(cls, d, matrix):
        """Build from a (2d, 2d) array ordered [D_1..D_d, X_1..X_d]."""
        order = variable_order(d)
        n = 2 * d
        entries = {}
        for a in range(n):
            for b in range(a, n):
                if Fraction(matrix[a][b]) != Fraction(matrix[b][a]):
                    raise ConfigError("covariance matrix must be symmetric")
                entries[(order[a], order[b])] = Fraction(matrix[a][b])
        return cls(d, entries)

    def entry(self, u, v):
        return self._entries.get(self._norm(u, v), Fraction(0))

    def as_array(self):
        order = variable_order(self.d)
        n = 2 * self.d
        out = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                out[a, b] = float(self.entry(order[a], order[b]))
        return out

    @classmethod
    def from_text(cls, text):
        """Read ``d = <channels>`` and entry lines such as ``D1,X2 = 3/7``."""

        def converter(key):
            return int if key == "d" else rational if _ENTRY.fullmatch(key) else None

        fields = read_config(text, converter)
        d = fields.pop("d", None)
        if d is None:
            raise ConfigError("missing field 'd'")
        entries = {}
        for key, value in fields.items():
            a, i, b, j = _ENTRY.fullmatch(key).groups()
            if not (1 <= int(i) <= d and 1 <= int(j) <= d):
                raise ConfigError(f"covariance entry {key!r} outside channels 1..{d}")
            entries[((a, int(i)), (b, int(j)))] = value
        return cls(d, entries)


class SymbolicCovariance:
    """Covariance whose entries are free polynomial indeterminates."""

    def __init__(self, d):
        self.d = d
        self._moment_cache = {}

    def entry(self, u, v):
        u, v = (u, v) if u <= v else (v, u)
        return Poly.var(f"C[{u[0]}{u[1]}][{v[0]}{v[1]}]")


def isserlis_moment(monomial, cov):
    """Moment of a product of centered jointly Gaussian variables.

    ``monomial`` is a sequence of variables; pairings are expanded
    recursively on the first element's partner.  Exact (Fraction or Poly
    coefficients, depending on the covariance).
    """
    mono = tuple(sorted(monomial))
    cache = cov._moment_cache
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


def tree_monomial(tree):
    """Gaussian monomial of a symbol tree, or None when a bare
    integration branch makes the evaluation vanish."""
    if not in_symbol_family(tree):
        raise DomainError(f"tree {tree!r} lies outside the symbol family")
    variables = []
    for et, sub in tree.children:
        if et.is_noise:
            variables.append(("D", et.index))
        elif sub.is_leaf:
            return None  # the origin-pinned integration path vanishes at 0
        else:
            variables.append(("X", sub.children[0][0].index))
    return tuple(sorted(variables))


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


def compile_moments(x):
    """Aggregate a forest-keyed formal sum into a moment profile.

    Returns a dict mapping a sorted tuple of component monomials to the
    total coefficient.  Terms killed by a bare integration branch are
    dropped.  Evaluating the profile against a covariance gives the same
    value as ``g_minus`` but shares the combinatorial work across
    covariances.
    """
    profile = {}
    for f, c in as_formal_sum(x):
        monos = []
        dead = False
        for t in f.trees:
            mono = tree_monomial(t)
            if mono is None:
                dead = True
                break
            monos.append(mono)
        if dead:
            continue
        key = tuple(sorted(monos))
        profile[key] = profile.get(key, Fraction(0)) + c
    return profile


def eval_moments(profile, cov):
    """Evaluate a profile from ``compile_moments`` against a covariance."""
    acc = Fraction(0)
    for monos, c in profile.items():
        term = c
        for mono in monos:
            term = term * isserlis_moment(mono, cov)
        acc = acc + term
    return acc


_ANTIPODE_PROFILES = {}


def g_antipode(x, cov, spec):
    """The BPHZ character: the Gaussian character composed with the
    twisted negative antipode.

    The antipode expansion and its moment profile do not depend on the
    covariance, so they are cached keyed by the input symbol and spec.
    """
    x = as_formal_sum(x)
    key = (tuple((f.key, c) for f, c in x.sorted_terms()), spec)
    profile = _ANTIPODE_PROFILES.get(key)
    if profile is None:
        profile = compile_moments(twisted_antipode(x, spec))
        _ANTIPODE_PROFILES[key] = profile
    return eval_moments(profile, cov)


def mc_moment_oracle(monomial, cov, n_samples, seed):
    """Monte Carlo estimate of a Gaussian moment, for cross-checking
    ``isserlis_moment``.

    Returns ``(estimate, standard_error)``.  The covariance is factored
    symmetrically (eigendecomposition with tiny negative eigenvalues
    clipped); a genuinely non-PSD matrix raises ConfigError.
    """
    d = cov.d
    order = variable_order(d)
    sigma = cov.as_array()
    vals, vecs = np.linalg.eigh(sigma)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if np.min(vals) < -tol:
        raise ConfigError("covariance matrix is not positive semidefinite")
    factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 2 * d))
    samples = z @ factor.T
    idx = {v: k for k, v in enumerate(order)}
    prod = np.ones(n_samples)
    for v in monomial:
        prod = prod * samples[:, idx[v]]
    est = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / np.sqrt(n_samples))
    return est, se
