"""Stochastic simulation harness: fractional Brownian paths, mollified
noises, the renormalization constant, and the corrected Wong-Zakai
experiment.

Conventions
-----------
* All stochastic integrals are left-point Riemann-Ito sums.
* A path on ``n`` steps of size ``dt`` is stored at the ``n + 1`` grid
  points, starting from 0.
* Per-path randomness comes from a counter-based generator keyed by
  ``(seed, path index)``, so results do not depend on scheduling.
* The fractional kernel carries the ``sqrt(2 H)`` prefactor throughout,
  so the grid fractional path has variance ``t ** (2 H)`` at time t.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.fft  # noqa: F401  numpy loads these lazily; here, not in a run's first chunk
import numpy.random  # noqa: F401

from . import model
from . import quadpack as integrate
from .config import ints, read_config, real, reals
from .errors import ConfigError, DomainError
from .gaussian import CovarianceSpec
from .structure import MAX_TRUNCATION, rough_vol_spec
from .trees import INTEGRATION, branch, noise, tree_product


def __getattr__(name):
    # perfbench/worker.py's traced runs are the only reader of roughsim.signal
    # (to span its fftconvolve), so scipy.signal, ~0.4 s to import, loads lazily
    if name != "signal":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import signal

    return signal


# ---------------------------------------------------------------------------
# the mollifier: the bump exp(-1 / (1 - x^2)) on (-1, 1), scaled to unit
# integral, rescaled to (-eps, eps) as rho_eps(x) = rho(x / eps) / eps


def _bump_raw(x, exp=np.exp):
    """The bump at each point of ``x``, its exp taken by ``exp``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xs = x[inside]
    out[inside] = exp(-1.0 / (1.0 - xs * xs))
    return out


@functools.cache
def _bump_norm():
    """The integral of :func:`_bump_raw`, by quadrature on first use: at
    import it would add to the start-up of every command."""
    z, _ = integrate.quad(_bump_raw, -1.0, 1.0)
    return z


def _rho_eps(x, eps, exp=np.exp):
    """The mollifier at each point of ``x``, its exp taken by ``exp``."""
    return _bump_raw(np.asarray(x) / eps, exp) / _bump_norm() / eps


def _drho_eps(x, eps, exp=np.exp):
    """The mollifier's derivative at each point of ``x``: at y = x / eps, the
    bump times -2y / (1 - y^2)^2, its exp taken by ``exp``."""
    y = np.asarray(x) / eps
    out = _bump_raw(y, exp)
    inside = np.abs(y) < 1.0
    ys = y[inside]
    denom = 1.0 - ys * ys
    out[inside] *= -2.0 * ys / (denom * denom)
    return out / _bump_norm() / (eps * eps)


def _libm(f, x, *args):
    """``f(point, *args)`` at each point of the float array ``x``, in its
    shape, for ``f`` ``math.exp`` or ``pow``: libm's exp and pow, as Python's
    float arithmetic takes them; numpy's own exp and power round some points
    differently."""
    flat = np.ravel(x)
    points = map(f, memoryview(flat), *map(itertools.repeat, args))
    return np.fromiter(points, float, flat.size).reshape(np.shape(x))


# ---------------------------------------------------------------------------
# fractional kernel with smooth cutoff


def _fall(x):
    """Smooth transition: 1 for x <= 0, 0 for x >= 1."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)

    def b(y):
        r = np.zeros_like(y)
        pos = y > 0
        r[pos] = np.exp(-1.0 / y[pos])
        return r

    num = b(1.0 - x)
    den = b(x) + num
    mid = (x > 0) & (x < 1)
    out[x <= 0] = 1.0
    out[x >= 1] = 0.0
    out[mid] = num[mid] / den[mid]
    return out


@dataclass(frozen=True)
class KernelSpec:
    """Fractional kernel ``sqrt(2H) u^(H - 1/2)`` on (0, T], smoothly cut
    off to zero on [T, 2T]."""

    H: float
    T: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.H < 0.5):
            raise ConfigError("H must lie in (0, 1/2)")
        if not 0.0 < self.T < math.inf:
            raise ConfigError("T must be positive and finite")

    def raw(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = math.sqrt(2.0 * self.H) * u[pos] ** (self.H - 0.5)
        return out

    def cutoff(self, u):
        u = np.asarray(u, dtype=float)
        chi = _fall((u - self.T) / self.T)
        chi[u <= 0] = 0.0
        return chi

    def khat(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        pos = (u > 0) & (u < 2.0 * self.T)
        out[pos] = self.raw(u[pos]) * self.cutoff(u[pos])
        return out


# ---------------------------------------------------------------------------
# path generation


def brownian_increments(n_steps, dt, seed, path_index, out=None):
    """Brownian increments from a Philox stream keyed by (seed, path);
    written into ``out`` if given."""
    key = np.array([seed % 2**64, path_index % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return np.multiply(rng.standard_normal(n_steps, out=out), math.sqrt(dt), out=out)


def _smoother(n, weights):
    """Per ``(w, start)`` of ``weights``: entries ``start .. start + n - 1`` of
    the full convolution of a signal of ``n`` points (grid on the last axis)
    with ``w``, bit for bit as ``signal.fftconvolve`` gives them.

    Each weight's spectrum is taken here, once, at fftconvolve's FFT length
    :func:`_fast_len`.
    A call writes the signal into a zero-padded buffer and takes its ``rfft``
    once per distinct length, into one spectrum buffer per length; it returns
    an iterator over the outputs, output k computed when reached: weight k's
    spectrum times the signal's, in one product buffer, and its ``irfft``,
    in one output buffer.  The output buffer is the signal's, free once its
    spectra are taken, so a call zeroes the padding again.  The buffers are
    the calling thread's own, made on its first call and grown only for more
    rows, so threads may share the returned function; an output is a view
    of the output buffer, valid until that thread's next output."""
    sizes = [_fast_len(n + len(w) - 1) for w, _ in weights]
    parts = [(size, np.fft.rfft(w, size), start) for size, (w, start) in zip(sizes, weights)]
    top = max(sizes)
    local = threading.local()

    def buffers(rows):
        held = getattr(local, "held", None)
        if held is None or len(held[0]) < rows:
            real = np.zeros((rows, top))  # the signals, then the outputs
            spectra = {size: np.empty((rows, size // 2 + 1), complex) for size in set(sizes)}
            held = local.held = real, spectra, np.empty(rows * (top // 2 + 1), complex)
        return held

    def smooth(values):
        lead = np.shape(values)[:-1]  # the signals, of any batch shape, go as rows
        rows = math.prod(lead)
        real, spectra, product = buffers(rows)
        padded = real[:rows]
        padded[:, :n] = np.reshape(values, (rows, n))
        padded[:, n:] = 0.0
        for size, spectrum in spectra.items():
            np.fft.rfft(padded[:, :size], out=spectrum[:rows])
        flat = real.reshape(-1)

        def output(k):
            size, w_hat, start = parts[k]
            prod = product[: rows * (size // 2 + 1)].reshape(rows, -1)
            out = flat[: rows * size].reshape(rows, size)
            np.fft.irfft(np.multiply(spectra[size][:rows], w_hat, out=prod), size, out=out)
            return out[:, start : start + n].reshape(lead + (n,))

        return map(output, range(len(parts)))

    return smooth


def _fast_len(n):
    """The least 5-smooth integer from ``n`` on, as fftconvolve's FFT length
    ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()  # the least power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _causal(smooth, increments):
    """out[k] = sum_{j < k} kernel[k - j] * increments[j], out[0] = 0, for
    ``smooth`` a :func:`_smoother` of the kernel at offset 0."""
    (out,) = smooth(increments)
    return np.concatenate((np.zeros(out.shape[:-1] + (1,)), out), axis=-1)


def _fbm_smoother(n, H, dt):
    m = np.arange(1, n + 1, dtype=float)
    return _smoother(n, [(math.sqrt(2.0 * H) * (m * dt) ** (H - 0.5), 0)])


def _hat_smoother(n, kernel, dt, taps=None):
    """The :func:`_smoother` of ``n`` points by ``kernel.khat`` at lags 1 .. ``taps`` (or n)."""
    return _smoother(n, [(kernel.khat(np.arange(1, (taps or n) + 1, dtype=float) * dt), 0)])


def fbm_rl(increments, H, dt):
    """Riemann-Liouville fractional path driven by given Brownian
    increments (left-point kernel sampling), at n + 1 grid points."""
    return _causal(_fbm_smoother(np.shape(increments)[-1], H, dt), increments)


def stationary_hat_process(increments, kernel, dt):
    """Moving-average path driven by the cut-off fractional kernel.

    ``increments`` live on an extended grid; entries of the output with
    at least ``2 * kernel.T`` of driving history behind them are
    (discretely) stationary.  Feeding increments that vanish before some
    time origin reproduces the plain fractional path after that origin.
    """
    return _causal(_hat_smoother(np.shape(increments)[-1], kernel, dt), increments)


# ---------------------------------------------------------------------------
# mollification


def _steps(width, dt):
    """The number of whole grid steps of size ``dt`` in ``width``; 0 if that is not finite."""
    steps = width / dt + 1e-9
    return int(math.floor(steps)) if math.isfinite(steps) else 0


def mollification_weights(dt, eps):
    """Discrete mollifier and derivative-of-mollifier weights.

    Returns ``(w, dw, m)`` with offsets ``j = -m .. m``; ``w`` sums to 1
    exactly and ``dw`` annihilates constants and differentiates linear
    paths exactly (the two defining quadrature identities are enforced
    on the discrete weights).
    """
    m = _steps(eps, dt)
    if m < 4:
        raise ConfigError(
            f"mollification width eps={eps} must cover at least 4 grid steps (dt={dt})"
        )
    u = np.arange(-m, m + 1, dtype=float) * dt
    w = _rho_eps(u, eps) * dt
    w = w / w.sum()
    dw = _drho_eps(u, eps) * dt
    dw = dw - dw.mean()
    scale = -(dw * u).sum()
    dw = dw / scale
    return w, dw, m


def mollify(values, dt, eps):
    """Mollified path and its derivative.

    ``values`` is a path (or batch of paths, last axis = grid).  Returns
    ``(smooth, deriv, m)``; entries within ``m`` points of either end
    alias zero-padding and must be discarded by the caller.
    """
    w, dw, m = mollification_weights(dt, eps)
    outputs = _smoother(np.shape(values)[-1], [(w, m), (dw, m)])(values)
    return (*(out.copy() for out in outputs), m)  # each output overwrites the last


# ---------------------------------------------------------------------------
# the renormalization constant


def c_eps(eps, kernel):
    """Stationary renormalization constant and the quadrature's error
    estimate, as ``(value, error)``; for a sequence of widths ``eps``, a
    list of those pairs, one per width.

    Computed as the double quadrature of the derivative-of-mollifier
    against the mollified kernel cross-covariance, reduced to a single
    weakly singular integral of ``khat(u)`` against the mollifier
    autocorrelation and regularized by the substitution
    ``u = v ** (1 / (H + 1/2))``.  Both levels are :func:`quadpack.quad`,
    every width's integrals run in lockstep: the outer integrand takes a
    round's panels of every width at once, and the autocorrelations at all
    their nodes go to one inner call.  So a width's pair is the same alone
    or in a sequence.  Each integrand takes its round's whole node array,
    each point in the float operations of a point-at-a-time integrand, in
    their order: the exp and the substitution's powers are libm's
    (:func:`_libm`), and the kernel is :meth:`KernelSpec.khat`.  Every width
    is checked before any is computed; the quadrature's warnings are shown
    only if every value is finite.
    """
    widths = [eps] if np.ndim(eps) == 0 else list(eps)
    for e in widths:
        if not 0.0 < e < math.inf:
            raise ConfigError("eps must be positive and finite")
        _normal_width(e)
    H = kernel.H
    norm = _bump_norm()

    def pair(b, u, e):
        # the mollifier at b times the mollifier at b + u, at nodes b of lag u's
        # integral at width e, 0.0 with no exp where either point lies outside (-1, 1)
        y, z = b / e, (b + u) / e
        inside = (np.abs(y) < 1.0) & (np.abs(z) < 1.0)
        e = np.broadcast_to(e, b.shape)[inside]
        y = np.concatenate((y[inside], z[inside]))  # both points' scaled values
        at = _libm(math.exp, -1.0 / (1.0 - y * y))
        at = at / norm / np.concatenate((e, e))
        out = np.zeros(b.shape)
        out[inside] = at[: len(e)] * at[len(e) :]
        return out

    p = 1.0 / (H + 0.5)

    def integrand(v, e):
        e = np.broadcast_to(e, v.shape)
        u = _libm(pow, v, p)
        phi = np.zeros(v.shape)  # the autocorrelation at lag u, 0.0 from 2 eps on
        live = e - u > -e
        e, lag = e[live], u[live]
        phi[live], _ = integrate.quad(pair, -e, e - lag, args=(lag, e), limit=100)
        return kernel.khat(u) * phi * p * _libm(pow, v, p - 1.0)

    his = [min(2.0 * e, 2.0 * kernel.T) ** (1.0 / p) for e in widths]
    with warnings.catch_warnings(record=True) as caught:
        values, errors = integrate.quad(integrand, 0.0, his, args=(widths,), limit=200)
    pairs = list(zip(_finite(values.tolist(), widths, caught), errors.tolist()))
    return pairs[0] if np.ndim(eps) == 0 else pairs


def c_eps_timedep(t, eps, H):
    """Time-dependent correction E[dot(W^eps)(t) W^(H,eps)(t)] for the
    one-sided fractional path started at time 0 (no cutoff).  From t = eps
    on it is :func:`c_eps` under a kernel cut off beyond every float lag.
    Before, it is a double quadrature, the inner integrals at all the
    outer panel's nodes in one :func:`quadpack.quad` call.  The integrand
    takes an inner round's whole node array, each point in the float
    operations of a point-at-a-time integrand, its exps and powers libm's
    (:func:`_libm`), so the value is ``scipy.integrate.dblquad``'s of that
    integrand, bit for bit.  A width whose square underflows to 0 makes
    the integrand inf or nan, a DomainError."""
    KernelSpec(H)  # H is checked before eps and t
    if not (0.0 < eps < math.inf and 0.0 < t < math.inf):
        raise ConfigError("eps and t must be positive and finite")
    _normal_width(eps)
    if t >= eps:
        return c_eps(eps, KernelSpec(H, sys.float_info.max))[0]
    c = math.sqrt(2.0 * H) / (H + 0.5)
    exp = functools.partial(_libm, math.exp)

    def integrand(a, b):
        # at nodes a of the inner integral at each b: the mollifier's derivative
        # at a, times the mollifier at b, times the kernel's cross term, which
        # is 0.0 unless both t - a and t - b are positive
        v = np.broadcast_to(t - b, a.shape)
        mn = np.minimum(t - a, v)
        live = mn > 0.0
        cross = np.zeros(a.shape)
        cross[live] = c * (_libm(pow, v[live], H + 0.5) - _libm(pow, (v - mn)[live], H + 0.5))
        return _drho_eps(a, eps, exp) * _rho_eps(b, eps, exp) * cross

    def outer(b):
        return integrate.quad(integrand, -eps, eps, args=(b,), epsabs=1e-9, epsrel=1e-7)[0]

    with warnings.catch_warnings(record=True) as caught:
        val, _ = integrate.quad(outer, -eps, eps, epsabs=1e-9, epsrel=1e-7)
    return _finite([val], [eps], caught)[0]


def _normal_width(eps):
    """A DomainError if 1/eps^2, the mollifier's scale, is not a normal
    double (eps above 2^511, about 6.7e153): the quadratures then lose
    precision (1.7e-4 relative at eps = 1e160) and read 0 by eps = 1e200."""
    if eps * eps > 1.0 / sys.float_info.min:
        raise DomainError(f"c_eps at eps={eps:g}: 1/eps^2 is not a normal double")


def _finite(values, widths, caught):
    """Renormalisation constants, one per width, or a DomainError for the
    first that is inf or nan.

    ``caught`` holds the warnings recorded while the quadrature ran.  They
    are shown, unchanged, only with finite values: a non-finite one ends
    in the DomainError's one line alone.
    """
    for value, eps in zip(values, widths):
        if not math.isfinite(value):
            raise DomainError(f"c_eps at eps={eps:g} is {value}, not a finite double")
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return values


# ---------------------------------------------------------------------------
# named test functions


class TestFunction:
    """Named smooth test function with analytic derivatives of all orders."""

    _NAMES = ("constant", "linear", "quadratic", "sine")

    def __init__(self, name):
        if name not in self._NAMES:
            raise ConfigError(f"unknown test function {name!r}")
        self.name = name

    def __call__(self, x, order=0, out=None):
        """The ``order``-th derivative at ``x``; written into ``out`` if given."""
        x = np.asarray(x, dtype=float)
        if self.name == "sine":
            return np.sin(np.add(x, order * math.pi / 2.0, out=out) if order else x, out=out)
        value = self._polynomial(x, order)
        if out is None:
            return value
        out[...] = value
        return out

    def _polynomial(self, x, order):
        if self.name == "constant":
            return np.ones_like(x) if order == 0 else np.zeros_like(x)
        if self.name == "linear":
            if order == 0:
                return x
            return np.ones_like(x) if order == 1 else np.zeros_like(x)
        if order == 0:  # quadratic
            return x * x
        if order == 1:
            return 2.0 * x
        return np.full_like(x, 2.0) if order == 2 else np.zeros_like(x)


# ---------------------------------------------------------------------------
# configuration


MAX_GRID = 2**20  # a one-path wong-zakai run at this N takes about 2 s and 0.3 GB


def _bump_only(name):
    """The ``mollifier`` key's converter: the bump is the only mollifier."""
    if name != "bump":
        raise ValueError(f"unknown mollifier {name!r}")
    return name


# config key -> (SimConfig field, converter)
_SIM_KEYS = {
    "H": ("H", real),
    "kappa": ("kappa", real),
    "N": ("n_grid", int),
    "P": ("n_paths", int),
    "seed": ("seed", int),
    "eps": ("eps_list", reals),
    "f": ("f_name", str),
    "mollifier": (None, _bump_only),  # no field: the bump is the only mollifier
    "T": ("T", real),
    "threads": ("threads", int),
    "lambda": ("lambdas", reals),
    "powers": ("powers", ints),
}


@dataclass
class SimConfig:
    H: float
    kappa: float
    n_grid: int
    n_paths: int
    seed: int
    eps_list: tuple
    f_name: str = "sine"
    T: float = 1.0
    threads: int = 1
    lambdas: tuple = (0.25, 0.125, 0.0625)  # bounds only: test-function scales
    powers: tuple = (1,)  # bounds only: n in Xi * I(Xihat)^n

    def __post_init__(self):
        if not 8 <= self.n_grid <= MAX_GRID or self.n_grid & (self.n_grid - 1):
            raise ConfigError(f"N must be a power of two from 8 to {MAX_GRID}")
        if self.spec.truncation > MAX_TRUNCATION:  # rough_vol_spec checks H and kappa
            raise ConfigError(
                f"kappa={self.kappa} is too close to H={self.H}: the model would "
                f"need powers up to {self.spec.truncation}, above {MAX_TRUNCATION}"
            )
        if self.n_paths < 1:
            raise ConfigError("P must be >= 1")
        self.kernel  # checks T
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        eps_list = tuple(float(e) for e in self.eps_list)
        if not eps_list:
            raise ConfigError("eps ladder must be non-empty")
        dt = self.dt
        for e in eps_list:
            if not e <= self.T / 2:
                # c_eps integrates khat over u < 2*eps, and khat is cut off from T on
                raise ConfigError(f"eps={e} must be at most T/2 (T={self.T})")
            if _steps(e, dt) < 4:
                raise ConfigError(f"eps={e} must cover at least 4 grid steps (dt={dt})")
        object.__setattr__(self, "eps_list", eps_list)
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "powers", tuple(int(k) for k in self.powers))
        if not self.powers or not 1 <= min(self.powers) <= max(self.powers) <= MAX_TRUNCATION:
            raise ConfigError(f"powers must lie in 1..{MAX_TRUNCATION}")
        # a repeat would duplicate output rows or weight the exponent fits twice
        for key, values in (("eps", eps_list), ("lambda", self.lambdas), ("powers", self.powers)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} lists a value twice")
        TestFunction(self.f_name)

    @property
    def dt(self):
        return self.T / self.n_grid

    @property
    def spec(self):
        """``rough_vol_spec`` at the rationals nearest to the float H and kappa;
        a non-finite one goes in as 0, outside its domain."""
        H, kappa = (Fraction(x if math.isfinite(x) else 0).limit_denominator(10**9)
                    for x in (self.H, self.kappa))
        return rough_vol_spec(H, kappa)

    @property
    def kernel(self):
        return KernelSpec(self.H, self.T)

    @classmethod
    def from_text(cls, text, bounds=True):
        """The SimConfig of a config file's text.  ``lambda`` and ``powers``
        are read by :func:`model_bound_probe` alone, so with ``bounds=False``
        either key is a ConfigError."""
        fields = read_config(text, lambda key: _SIM_KEYS.get(key, (None, None))[1])
        for key in ("H", "kappa", "N", "P", "seed", "eps"):
            if key not in fields:
                raise ConfigError(f"missing config field {key!r}")
        if not bounds:
            for key in ("lambda", "powers"):
                if key in fields:
                    raise ConfigError(f"{key!r} is read by simulate bounds only")
        return cls(**{
            _SIM_KEYS[key][0]: value for key, value in fields.items() if _SIM_KEYS[key][0]
        })


def usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Bytes of one stacked (paths, points) float array of a chunk of paths: 4
# Wong-Zakai paths at N = 4096, 7 bounds paths at N = 1024, one path at
# N = 2^16.  Larger chunks save little time and add to the peak memory.
_CHUNK_BYTES = 192 * 2**10


def _path_chunks(n_paths, points):
    """The path indices ``0 .. n_paths - 1`` in runs of consecutive paths,
    each as many as fit one ``(paths, points)`` float array in
    ``_CHUNK_BYTES``, at least one."""
    size = max(1, _CHUNK_BYTES // (8 * points))
    return [range(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]


def _run_paths(worker, count, threads):
    """Deterministic map of ``worker`` over ``range(count)`` (the chunks of
    paths), optionally thread-parallel on at most one thread per CPU the
    process may run on and per chunk."""
    threads = min(threads, usable_cpus(), count)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(count)))
    return [worker(idx) for idx in range(count)]


def _over_chunks(config, n_ext, timings, body, sizes):
    """``body(inc, path, *scratch, seconds)`` on each chunk of
    :func:`_path_chunks` of ``config``'s paths on ``n_ext`` steps, mapped by
    :func:`_run_paths`; the body's results in chunk order.

    Per path of the chunk, one row each: ``inc`` holds its
    :func:`brownian_increments`, ``path`` their running sum from 0 at the
    ``n_ext + 1`` points, and ``scratch`` one array per length in ``sizes``.
    The arrays are the calling thread's own, made on its first chunk.
    Drawing and summing are timed as ``paths`` in ``seconds``, a dict the
    body times its own phases into, and each chunk's seconds are summed into
    ``timings``."""
    dt = config.dt
    chunks = _path_chunks(config.n_paths, n_ext + 1)
    local = threading.local()

    def one_chunk(i):
        if not hasattr(local, "arrays"):
            local.arrays = [np.empty((len(chunks[0]), size)) for size in (n_ext, n_ext + 1, *sizes)]
        inc, path, *scratch = (a[: len(chunks[i])] for a in local.arrays)
        seconds = {}
        with _timed(seconds, "paths"):
            for row, p in zip(inc, chunks[i]):
                brownian_increments(n_ext, dt, config.seed, p, out=row)
            path[:, 0] = 0.0
            np.cumsum(inc, axis=-1, out=path[:, 1:])
        return body(inc, path, *scratch, seconds), seconds

    per_chunk = _run_paths(one_chunk, len(chunks), config.threads)
    for _, seconds in per_chunk:
        for phase, value in seconds.items():
            timings[phase] = timings.get(phase, 0.0) + value
    return [result for result, _ in per_chunk]


@contextmanager
def _timed(timings, phase):
    """Add the seconds the ``with`` block takes to ``timings[phase]``."""
    start = time.perf_counter()
    yield
    timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - start


def _rms_se(d2, rms):
    """Delta-method standard error of ``rms = sqrt(mean(d2))`` over the
    samples ``d2``: nan for a single sample."""
    if len(d2) < 2:
        return math.nan
    return float(np.std(d2, ddof=1) / math.sqrt(len(d2)) / (2.0 * rms))


# ---------------------------------------------------------------------------
# the renormalised model, read from the symbolic expansion


def renormalised_terms(c, spec, powers):
    """Per k in ``powers``, :func:`model.bphz_expansion` of ``Xi_1 * I(Xi_2)^k``
    under the covariance ``C[D1][X2] = c``, as a dict from each remainder's
    (Xi_1 factors, I(Xi_2) factors) to its float coefficient.  For k >= 1
    and c != 0 this is ``{(1, k): 1.0, (0, k - 1): -k * c}``.
    """
    cov = CovarianceSpec(2, {(("D", 1), ("X", 2)): Fraction(c)})
    xi, ixi = branch(noise(1)), branch(INTEGRATION, branch(noise(2)))
    out = {k: {} for k in powers}
    for k, terms in out.items():
        for forest, coeff in model.bphz_expansion(tree_product(xi, *[ixi] * k), cov, spec):
            edges = [et for tree in forest.trees for et, _ in tree.children]
            noises = sum(et.is_noise for et in edges)
            terms[(noises, len(edges) - noises)] = float(coeff)
    return out


def _evaluate(terms, w_dot, delta, out=None, tmp=None):
    """The renormalised model: ``c * delta**j * w_dot**xi`` summed over ``terms``,
    less its exact identities: a coefficient 1.0, a power 0, ``x**1`` (read as
    ``x``) and the sum's ``0 +``.  That changes no bit but the sign of an exact
    zero; the value may be ``w_dot`` itself, never to be written into.

    ``out`` and ``tmp`` are the ufuncs' outputs: the value and the first term
    go into ``out``, each later term into ``tmp``; each None gives a new array."""
    total = None
    for (xi, j), c in terms.items():
        factors = [x if p == 1 else x**p for x, p in ((delta, j), (w_dot, xi)) if p]
        factors = factors if c == 1.0 and factors else [c, *factors]
        into = out if total is None else tmp
        term = functools.reduce(lambda x, y: np.multiply(x, y, out=into), factors)
        total = term if total is None else np.add(total, term, out=out)
    return 0 if total is None else total


# ---------------------------------------------------------------------------
# the eps ladder, set up once per run by both experiments


@dataclass
class _Ladder:
    c_eps: dict  # eps -> (correction constant, its quadrature error estimate)
    terms: dict  # eps -> renormalised_terms at c_eps
    smooth_w: object  # signal -> its smoothing by each eps's mollifier weights
    smooth_dw: object  # signal -> its smoothing by each eps's derivative weights
    timings: dict  # phase -> seconds

    def widths(self, w, x, seconds):
        """Per eps, one width at a time: ``(eps, w smoothed by its derivative
        weights, x smoothed by its weights)``, the two views valid until the
        next width; the smoothing is timed as ``paths`` in ``seconds``."""
        with _timed(seconds, "paths"):
            pairs = zip(self.smooth_dw(w), self.smooth_w(x))
        for e in self.c_eps:
            with _timed(seconds, "paths"):
                w_dot, x_sm = next(pairs)
            yield e, w_dot, x_sm


def _ladder(config, powers, n):
    """Per eps of ``config``: :func:`c_eps` and its error, :func:`renormalised_terms`
    at ``c_eps`` for ``powers``, both timed, and the :func:`_smoother` of
    signals of ``n`` points by the mollification weights and derivative
    weights, each aligned with its signal, read through :meth:`_Ladder.widths`."""
    timings = {}
    with _timed(timings, "c_eps"):
        corrections = dict(zip(config.eps_list, c_eps(config.eps_list, config.kernel)))
    spec = config.spec
    with _timed(timings, "expansion"):
        terms = {e: renormalised_terms(c, spec, powers) for e, (c, _) in corrections.items()}
    weights = [mollification_weights(config.dt, e) for e in config.eps_list]
    smooth_w = _smoother(n, [(w, m) for w, _, m in weights])
    smooth_dw = _smoother(n, [(dw, m) for _, dw, m in weights])
    return _Ladder(corrections, terms, smooth_w, smooth_dw, timings)


# ---------------------------------------------------------------------------
# the Wong-Zakai experiment


@dataclass
class WZResult:
    c_eps: dict  # eps -> (correction constant, its quadrature error estimate)
    rows: list
    summary: list
    timings: dict  # phase -> seconds, summed over paths


_WZ_COLUMNS = ("I_uncorr", "I_corr", "I_model", "I_ito")
_BLOCK = 8  # points per block of _model_route; divides every N


def wz_experiment(config):
    """Corrected Wong-Zakai experiment.

    Per path and mollification width, computes the uncorrected smooth
    integral of ``f`` of the mollified fractional path against the
    mollified driving path, its corrected version, a block-expansion
    route built from the renormalized symbol evaluations, and the
    left-point Ito reference on the unmollified pair.  Both corrections
    read their coefficients from :func:`renormalised_terms` at ``c_eps``,
    for powers up to the truncation of ``rough_vol_spec(H, kappa)``.
    Each RMS over paths comes with its delta-method standard error.
    The paths go through :func:`_over_chunks`, each chunk a stacked array
    with the grid on the last axis, and each chunk's eps ladder through
    :meth:`_Ladder.widths`; every result depends only on ``(seed, path)``,
    not on the chunk or the thread count.
    """
    dt = config.dt
    n = config.n_grid
    f = TestFunction(config.f_name)
    m_max = max(_steps(e, dt) for e in config.eps_list)
    pad = m_max + 2
    n_ext = n + 2 * pad
    ladder = _ladder(config, range(config.spec.truncation + 1), n_ext + 1)
    # I_corr's drift: the order-1 term at delta = 0, less the Xi part I_uncorr holds
    drifts = {e: _evaluate(ladder.terms[e][1], 0.0, 0.0) for e in config.eps_list}
    fbm = _fbm_smoother(n_ext - pad, config.H, dt)
    sl = slice(pad, pad + n)

    # scratch: the fractional path on the extended grid, f and f' on the grid, a
    # product, and the model route's four arrays on the grid
    def one_chunk(inc, w_ext, wh_ext, f_0, f_1, prod, r_0, r_1, r_2, r_3, seconds):
        with _timed(seconds, "paths"):
            w_ext -= w_ext[:, pad : pad + 1].copy()  # paths vanish at time 0
            (wh_pos,) = fbm(inc[:, pad:])  # fbm_rl from time 0 onward, less its first 0
            wh_ext[:, : pad + 1] = 0.0
            wh_ext[:, pad + 1 :] = wh_pos
        with _timed(seconds, "route"):
            np.subtract(w_ext[:, pad + 1 : pad + n + 1], w_ext[:, pad : pad + n], out=prod)
            i_ito = np.sum(np.multiply(f(wh_ext[:, sl], out=f_0), prod, out=prod), axis=-1)
        out = []
        for e, w_dot, wh_sm in ladder.widths(w_ext, wh_ext, seconds):
            with _timed(seconds, "route"):
                f_grid = f(wh_sm[:, sl], out=f_0), f(wh_sm[:, sl], 1, out=f_1)
                i_unc = np.sum(np.multiply(f_grid[0], w_dot[:, sl], out=prod), axis=-1) * dt
                i_corr = i_unc + drifts[e] * (np.sum(f_grid[1], axis=-1) * dt)
                i_model = _model_route(
                    f, wh_sm, w_dot, pad, n, dt, ladder.terms[e], f_grid, (r_0, r_1, r_2, r_3)
                )
                out.append((i_unc, i_corr, i_model, i_ito))
        return np.array(out)

    per_chunk = _over_chunks(config, n_ext, ladder.timings, one_chunk, (n_ext + 1,) + (n,) * 7)
    table = np.concatenate(per_chunk, axis=-1)  # (eps, _WZ_COLUMNS, path)
    listed = table.tolist()
    rows = [
        {"eps": e, "path": p, **{key: col[p] for key, col in zip(_WZ_COLUMNS, columns)}}
        for p in range(config.n_paths)
        for e, columns in zip(config.eps_list, listed)
    ]
    summary = []
    for e, arr in zip(config.eps_list, table):
        row = {"eps": e, "c_eps": ladder.c_eps[e][0]}
        for col, name in enumerate(("uncorr", "corr", "model")):
            d2 = (arr[col] - arr[3]) ** 2
            row["rms_" + name] = float(np.sqrt(np.mean(d2)))
            row["se_" + name] = _rms_se(d2, row["rms_" + name])
        summary.append(row)
    return WZResult(ladder.c_eps, rows, summary, ladder.timings)


def _model_route(f, wh_sm, w_dot, pad, n, dt, terms, f_grid=(), scratch=None):
    """Blockwise renormalized-expansion quadrature of the integral.

    The ``n`` grid points from ``pad`` on split into blocks of ``_BLOCK``
    points; on each block ``f`` is Taylor expanded about the block's first
    point, its order-m term paired with ``terms[m]`` of
    :func:`renormalised_terms` (m = 0, 1, ... ascending).
    All blocks are evaluated at once, in the arithmetic order of a
    block-by-block loop: ascending order, block sums, then a
    left-to-right sum.  The grid is the last axis: a path gives a float,
    a stack of paths an array of one value per path, each the float of
    its row alone.  ``f_grid`` may hold ``f(x, m)`` for m = 0, 1, ... on
    those ``n`` points; the route reads those orders at the block bases.
    ``scratch`` may hold four arrays of the shape of ``wh_sm``'s ``n``
    points: the block increments, the expansion's value, its later terms
    and the sum over orders then go there, by the same ufuncs in the same
    order, so a chunk of paths makes no temporary of its size.
    """
    lead = np.shape(wh_sm)[:-1]
    blocks = wh_sm[..., pad : pad + n].reshape(lead + (-1, _BLOCK))
    base = blocks[..., 0].copy()  # contiguous, as the loop's one-point arrays were
    delta, value, tmp, total = (
        (None,) * 4 if scratch is None else (a.reshape(blocks.shape) for a in scratch)
    )
    delta = np.subtract(blocks, base[..., None], out=delta)
    w_blocks = w_dot[..., pad : pad + n].reshape(lead + (-1, _BLOCK))
    acc = None
    for m, expansion in terms.items():
        fm = f_grid[m][..., ::_BLOCK] if m < len(f_grid) else f(base, m)
        if m > 1:
            fm = fm / math.factorial(m)
        out = value if acc is not None else total  # each None without scratch: a new array
        expanded = _evaluate(expansion, w_blocks, delta, out, tmp)
        term = np.multiply(fm[..., None], expanded, out=out)
        acc = term if acc is None else np.add(acc, term, out=acc)
    # cumsum adds the block sums left to right, as a running total would
    total = np.cumsum(np.sum(acc, axis=-1) * dt, axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# small-scale pairing probe


def model_bound_probe(config):
    """Pairing decay probe for the renormalized smooth model.

    For symbols ``Xi``, ``I(Xihat)`` and ``Xi * I(Xihat)^n`` with n in
    ``config.powers``, computes the root-mean-square pairing of the
    difference between the renormalized mollified evaluation and the
    rough (unmollified) evaluation against rescaled bump test functions
    centred at T/2, over the ladder of scales ``config.lambdas`` and
    widths ``config.eps_list``; the renormalized ``Xi * I(Xihat)^n`` is
    :func:`renormalised_terms` at ``c_eps``.  Returns the row table and,
    per symbol, joint log-log regression exponents in lambda and eps,
    ``c_eps`` with its quadrature error per eps, and the seconds per phase
    (``timings``, summed over paths).  The paths and each chunk's eps ladder
    go through :func:`_over_chunks` and :meth:`_Ladder.widths`, as in
    :func:`wz_experiment`.

    The pairings read the grid points within ``steps(max lambda)`` of T/2,
    so only the window within ``steps(max lambda) + steps(max eps)`` of T/2
    is smoothed (``steps(x)`` the whole grid steps in x): the extra
    ``steps(max eps)`` points on each side keep every entry read clear of the
    FFT's zero padding.  The fit needs at least two values of each of eps and
    lambda, every lambda must lie in [dt, T/2), and the window must end on the
    grid, ``steps(max lambda) + steps(max eps) <= N/2``; otherwise ConfigError.
    """
    dt = config.dt
    n_grid = config.n_grid
    eps_list, lambdas = config.eps_list, config.lambdas
    if len(eps_list) < 2 or len(lambdas) < 2:
        raise ConfigError("the fit needs two distinct eps and two distinct lambda values")
    halves = {lam: _steps(lam, dt) for lam in lambdas}
    if not all(1 <= half < n_grid // 2 for half in halves.values()):
        raise ConfigError(f"lambda values must lie in [dt, T/2) = [{dt:g}, {config.T / 2:g})")
    m_max = max(_steps(e, dt) for e in eps_list)
    reach = max(halves.values()) + m_max
    if reach > n_grid // 2:
        raise ConfigError(
            f"lambda={max(lambdas):g} plus eps={max(eps_list):g} must be at most "
            f"T/2 = {config.T / 2:g} in whole grid steps of dt={dt:g}"
        )
    pad = int(round(2 * config.T / dt)) + m_max + 2
    n_ext = n_grid + pad
    s_idx = pad + n_grid // 2
    lo, hi = s_idx - reach, s_idx + reach + 1  # the window; T/2 is its point reach
    ladder = _ladder(config, config.powers, hi - lo)
    # khat is 0 from lag 2T on, so hat[lo:hi] reads the increments from lo - taps on
    taps = _steps(2 * config.T, dt) + 1
    hat_smooth = _hat_smoother(hi - 1 - (lo - taps), config.kernel, dt, taps)
    names = {k: f"Xi*I(Xihat)^{k}" if k > 1 else "Xi*I(Xihat)" for k in config.powers}
    taus = ["Xi", "I(Xihat)", *names.values()]
    # per lambda: its points of the window (a slice: a fancy index would give
    # an F-ordered array, whose row sums round differently) and test function
    windows = {
        lam: (slice(reach - h, reach + h + 1), _rho_eps(np.arange(-h, h + 1) * dt, lam))
        for lam, h in halves.items()
    }
    centre = slice(reach, reach + 1)

    def one_chunk(inc, w_ext, seconds):
        with _timed(seconds, "paths"):
            # stationary_hat_process on the window, less its first taps points
            (hat,) = hat_smooth(inc[:, lo - taps : hi - 1])
            hat = hat[:, taps - 1 :]
            inc = inc[:, lo:hi]
        with _timed(seconds, "route"):
            # per lambda: the increments and the hat process's increments it pairs
            rough_at = {
                lam: (inc[:, ks], hat[:, ks] - hat[:, centre]) for lam, (ks, _) in windows.items()
            }
        vals = {}
        for e, w_dot, hat_sm in ladder.widths(w_ext[:, lo:hi], hat, seconds):
            with _timed(seconds, "route"):
                for lam, (ks, phi) in windows.items():
                    dw, dhat_rough = rough_at[lam]
                    dhat_sm = hat_sm[:, ks] - hat_sm[:, centre]
                    pair = {}
                    pair["Xi"] = np.sum(phi * (w_dot[:, ks] * dt - dw), axis=-1)
                    pair["I(Xihat)"] = np.sum(phi * (dhat_sm - dhat_rough), axis=-1) * dt
                    for k, name in names.items():
                        smooth = _evaluate(ladder.terms[e][k], w_dot[:, ks], dhat_sm) * dt
                        rough = dhat_rough**k * dw
                        pair[name] = np.sum(phi * (smooth - rough), axis=-1)
                    vals[(lam, e)] = pair
        return vals

    per_chunk = _over_chunks(config, n_ext, ladder.timings, one_chunk, ())
    rows = []
    fits = {}
    logs = {tau: ([], [], []) for tau in taus}
    for lam in lambdas:
        for e in eps_list:
            for tau in taus:
                samples = np.concatenate([chunk[(lam, e)][tau] for chunk in per_chunk])
                rms = float(np.sqrt(np.mean(samples**2)))
                rows.append({"tau": tau, "lambda": lam, "eps": e, "rms_pairing": rms})
                if rms > 0:
                    logs[tau][0].append(math.log(lam))
                    logs[tau][1].append(math.log(e))
                    logs[tau][2].append(math.log(rms))
    for tau in taus:
        ll, le, lr = logs[tau]
        a = np.column_stack([np.ones(len(ll)), ll, le])
        coef, *_ = np.linalg.lstsq(a, np.array(lr), rcond=None)
        fits[tau] = {"lambda_exponent": float(coef[1]), "eps_exponent": float(coef[2])}
    return {
        "rows": rows,
        "fits": fits,
        "c_eps": ladder.c_eps,
        "timings": ladder.timings,
    }
