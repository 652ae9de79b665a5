"""The oracles that ``test_roughsim`` compares the simulation harness against.

The renormalised model's numeric route, kept verbatim from before that route
left out its exact identities: ``_evaluate`` multiplied by every coefficient
and power, 1.0, ``x**0`` and ``x**1`` included, and summed from ``0``;
``_model_route`` took f at every block base itself and added each order into
a zeros buffer.

The mollifier, its derivative and the kernel at one float, kept verbatim
from when the quadrature integrands called them once per point:
``_rho_eps_at``, ``_drho_eps_at`` and ``_khat_at``."""

import math

import numpy as np

from roughrenorm.roughsim import _BLOCK


def _evaluate(terms, w_dot, delta):
    """The renormalised model: ``c * w_dot**xi * delta**j`` summed over ``terms``."""
    return sum(c * delta**j * w_dot**xi for (xi, j), c in terms.items())


def _model_route(f, wh_sm, w_dot, pad, n, dt, terms):
    """Blockwise renormalized-expansion quadrature of the integral.

    The ``n`` grid points from ``pad`` on split into blocks of ``_BLOCK``
    points; on each block ``f`` is Taylor expanded about the block's first
    point, its order-m term paired with ``terms[m]`` of
    :func:`renormalised_terms` (m = 0, 1, ... ascending).
    All blocks are evaluated at once, in the arithmetic order of a
    block-by-block loop: ascending order, block sums, then a
    left-to-right sum.  The grid is the last axis: a path gives a float,
    a stack of paths an array of one value per path, each the float of
    its row alone.
    """
    lead = np.shape(wh_sm)[:-1]
    blocks = wh_sm[..., pad : pad + n].reshape(lead + (-1, _BLOCK))
    base = blocks[..., 0].copy()  # contiguous, as the loop's one-point arrays were
    delta = blocks - base[..., None]
    w_blocks = w_dot[..., pad : pad + n].reshape(lead + (-1, _BLOCK))
    acc = np.zeros_like(delta)
    for m, expansion in terms.items():
        fm = f(base, m) / math.factorial(m)
        acc += fm[..., None] * _evaluate(expansion, w_blocks, delta)
    # cumsum adds the block sums left to right, as a running total would
    total = np.cumsum(np.sum(acc, axis=-1) * dt, axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def _rho_eps_at(x, eps, norm):
    """:func:`_rho_eps` at one float; ``norm`` is :func:`_bump_norm`."""
    y = x / eps
    if abs(y) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - y * y)) / norm / eps


def _drho_eps_at(x, eps, norm):
    """:func:`_drho_eps` at one float."""
    y = x / eps
    if abs(y) >= 1.0:
        return 0.0
    denom = 1.0 - y * y
    return math.exp(-1.0 / denom) * (-2.0 * y / (denom * denom)) / norm / (eps * eps)


def _khat_at(kernel, u):
    """``kernel.khat`` at one float, as the quadrature integrand needs it.

    On (0, T] the cut-off is exactly 1.0, so this is the raw kernel alone.
    Its power stays the ``np.power`` ufunc: Python's ``**`` rounds
    differently from numpy's array power at some points (952 of 20,000
    uniform points in (0, 1) at H = 0.3, on an AVX-512 CPU), and a 0-d
    ufunc call runs the same loop as the one-element array of
    :meth:`KernelSpec.khat`.  Elsewhere it falls back to that method.
    """
    if 0.0 < u <= kernel.T:
        return math.sqrt(2.0 * kernel.H) * float(np.power(u, kernel.H - 0.5))
    return float(kernel.khat(np.array([u]))[0])
