"""The oracles that ``test_roughsim`` compares the renormalised model's
numeric route against, kept verbatim from before that route left out its
exact identities: ``_evaluate`` multiplied by every coefficient and power,
1.0, ``x**0`` and ``x**1`` included, and summed from ``0``; ``_model_route``
took f at every block base itself and added each order into a zeros buffer."""

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
