"""Gaussian moment bookkeeping: Wick/Isserlis moments, the centered
Gaussian character on symbols, and its antipode twist.

A symbol tree maps to a monomial in the jointly Gaussian variables
``D_i`` (derivative of the mollified channel-i path at the origin, from a
root noise edge) and ``X_j`` (the channel-j path value at the origin,
from an integrated noise branch ``I(Xi_j)``).  A bare integration branch
evaluates to the origin itself and annihilates the monomial.

Every Gaussian quantity is a polynomial in the covariance entries
``C[u][v]``, computed once; a numeric covariance is only substituted into
it (:func:`at_covariance`).  Moments sit in one table, ``_MOMENTS``.  g and
g∘A share one character rule, :func:`_character`: a tree's value is the
moment of its monomial for g and, for g∘A, the unit coefficient of its
cached :func:`renormalised_expansion`, which never expands an antipode.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import partial

import numpy as np

from .config import rational, read_config
from .errors import ConfigError
from .poly import Poly
from .trees import EMPTY_FOREST, FormalSum, as_formal_sum, forest_of, require_symbol
from .coalgebra import _record_size, delta_minus_ex_even, require_negative

# A variable is ("D", i) or ("X", j) with a 1-based channel index.
_ENTRY = re.compile(r"([DX])([0-9]+),([DX])([0-9]+)")  # covariance key, e.g. D1,X2


def _entry_name(u, v):
    """Name of the covariance entry of the variables u and v, e.g. ``C[D1][X2]``."""
    u, v = (u, v) if u <= v else (v, u)
    return f"C[{u[0]}{u[1]}][{v[0]}{v[1]}]"


def variable_order(d):
    return tuple([("D", i) for i in range(1, d + 1)] + [("X", j) for j in range(1, d + 1)])


class CovarianceSpec:
    """Exact symmetric covariance over the variables D_1..D_d, X_1..X_d."""

    def __init__(self, d, entries):
        self.d = d
        self._entries = {_entry_name(u, v): Fraction(e) for (u, v), e in entries.items()}

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
        return self._entries.get(_entry_name(u, v), Fraction(0))

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
            u, v = sorted([(a, int(i)), (b, int(j))])
            if (u, v) in entries:
                raise ConfigError(f"covariance entry {key!r} repeats an earlier entry")
            entries[(u, v)] = value
        return cls(d, entries)


class SymbolicCovariance:
    """Covariance whose entries are free polynomial indeterminates."""

    def __init__(self, d):
        self.d = d

    def entry(self, u, v):
        return Poly.var(_entry_name(u, v))


# The moment of each even sorted monomial, a Poly in the entries C[u][v]
_MOMENTS = {}


def _moment(mono):
    """Moment of a sorted monomial, by Isserlis' pairings on its first
    variable's partner, as a Poly in the entries ``C[u][v]``."""
    if len(mono) % 2:
        return Poly()
    if not mono:
        return Poly.const(1)
    hit = _MOMENTS.get(mono)
    if hit is None:
        first, rest = mono[0], mono[1:]
        hit = Poly()
        for k, v in enumerate(rest):
            hit = hit + Poly.var(_entry_name(first, v)) * _moment(rest[:k] + rest[k + 1 :])
        _MOMENTS[mono] = hit
    return hit


def at_covariance(value, cov):
    """A polynomial in the entries ``C[u][v]`` at ``cov``: itself for a
    ``SymbolicCovariance``, its value (a Fraction) for a ``CovarianceSpec``."""
    if isinstance(cov, SymbolicCovariance):
        return value
    return Fraction(value.substitute(defaultdict(Fraction, cov._entries)))


def isserlis_moment(monomial, cov):
    """Moment of a product of centered jointly Gaussian variables.

    ``monomial`` is a sequence of variables.  Exact: the symbolic moment
    :func:`at_covariance`, a Poly or a Fraction.
    """
    return at_covariance(_moment(tuple(sorted(monomial))), cov)


def tree_monomial(tree):
    """Gaussian monomial of a symbol tree, or None when a bare
    integration branch makes the evaluation vanish."""
    require_symbol(tree)
    variables = []
    for et, sub in tree.children:
        if et.is_noise:
            variables.append(("D", et.index))
        elif sub.is_leaf:
            return None  # the origin-pinned integration path vanishes at 0
        else:
            variables.append(("X", sub.children[0][0].index))
    return tuple(sorted(variables))


def _character(x, tree_value):
    """The character that is ``tree_value(t)`` (a Poly) on a tree t,
    multiplicative over forests and linear over sums, on a tree, forest
    or forest-keyed FormalSum."""
    total = Poly()
    for forest, c in as_formal_sum(x):
        value = c
        for t in forest.trees:
            value = value * tree_value(t)
        total = total + value
    return total


def _tree_moment(tree):
    mono = tree_monomial(tree)
    return Poly() if mono is None else _moment(mono)


def g_minus(x, cov):
    """Centered Gaussian character: expectation of the evaluated symbol
    at the origin, multiplicative over forest components."""
    return at_covariance(_character(x, _tree_moment), cov)


_G_ANTIPODE_CACHE = {}


def renormalised_expansion(tree, spec):
    """The renormalised expansion M(tree), keyed by remainder forests, with
    polynomial coefficients in the entries ``C[u][v]``: M(tau) = sum c *
    g∘A(a) * r over the terms ``((a, r), c)`` of ``delta_minus_ex_even(tau,
    spec)``, a closed form with no extraction DP, g∘A of a left-leg tree
    being the unit coefficient of its own expansion.  The own term ``tau
    (x) 1`` of a tree with edges is not recursed: the BPHZ condition
    g(M(tau)) = 0 fixes g∘A(tau) = -sum coeff_r * g(r) over the other
    terms.  Odd and non-negative trees have no own term.  Cached by
    ``(tree, spec)``; every read, cached or not, records the table's size
    (``coalgebra.coproduct_sizes``).
    """
    key = (tree, spec)
    hit = _G_ANTIPODE_CACHE.get(key)
    if hit is None:
        table = delta_minus_ex_even(tree, spec)
        own = (forest_of(tree), EMPTY_FOREST) if tree.children else None
        unit_coefficient = partial(_unit_coefficient, spec=spec)
        expansion = FormalSum()
        for (a, r), c in table:
            if (a, r) != own:
                expansion += FormalSum.lift(r, c * _character(a, unit_coefficient))
        if own in table.terms:
            expansion += FormalSum.lift(EMPTY_FOREST, -_character(expansion, _tree_moment))
        hit = _G_ANTIPODE_CACHE[key] = (expansion, len(table))
    _record_size(hit[1])
    return hit[0]


def _unit_coefficient(tree, spec):
    """g∘A of a tree, a polynomial: the unit coefficient of its expansion."""
    require_negative(tree, spec)
    return renormalised_expansion(tree, spec).terms.get(EMPTY_FOREST, Poly())


def g_antipode(x, cov, spec):
    """The BPHZ character g∘A: the Gaussian character g composed with the
    twisted negative antipode A, linear and multiplicative over forests;
    on a negative-degree tree, the unit coefficient of its
    :func:`renormalised_expansion`.  Returns it :func:`at_covariance`."""
    return at_covariance(_character(x, partial(_unit_coefficient, spec=spec)), cov)


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
