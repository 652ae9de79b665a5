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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import integrate, signal

from .config import ints, read_config, real, reals
from .errors import ConfigError
from .structure import required_power


# ---------------------------------------------------------------------------
# mollifiers


def _bump_raw(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xs = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xs * xs))
    return out


def _bump_draw(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xs = x[inside]
    denom = 1.0 - xs * xs
    out[inside] = np.exp(-1.0 / denom) * (-2.0 * xs / (denom * denom))
    return out


_MOLLIFIER_NORMS = {}


@dataclass(frozen=True)
class MollifierSpec:
    """Named smooth symmetric mollifier supported on [-1, 1], with an
    analytic derivative.  Currently only the classical bump."""

    name: str = "bump"

    def __post_init__(self):
        if self.name != "bump":
            raise ConfigError(f"unknown mollifier {self.name!r}")

    @property
    def norm(self):
        z = _MOLLIFIER_NORMS.get(self.name)
        if z is None:
            z, _ = integrate.quad(lambda x: float(_bump_raw(x)), -1.0, 1.0)
            _MOLLIFIER_NORMS[self.name] = z
        return z

    def rho(self, x):
        return _bump_raw(x) / self.norm

    def drho(self, x):
        return _bump_draw(x) / self.norm

    def rho_eps(self, x, eps):
        return self.rho(np.asarray(x) / eps) / eps

    def drho_eps(self, x, eps):
        return self.drho(np.asarray(x) / eps) / (eps * eps)


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


def brownian_increments(n_steps, dt, seed, path_index):
    """Brownian increments from a Philox stream keyed by (seed, path)."""
    key = np.array([seed % 2**64, path_index % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.standard_normal(n_steps) * math.sqrt(dt)


def _causal_convolve(increments, kernel_values):
    """out[k] = sum_{j < k} kernel[k - j] * increments[j], out[0] = 0."""
    increments = np.asarray(increments, dtype=float)
    squeeze = increments.ndim == 1
    if squeeze:
        increments = increments[None, :]
    n = increments.shape[-1]
    full = signal.fftconvolve(increments, kernel_values[None, :], mode="full")
    out = np.concatenate(
        (np.zeros((increments.shape[0], 1)), full[:, :n]), axis=-1
    )
    return out[0] if squeeze else out


def fbm_rl(increments, H, dt):
    """Riemann-Liouville fractional path driven by given Brownian
    increments (left-point kernel sampling), at n + 1 grid points."""
    n = np.asarray(increments).shape[-1]
    m = np.arange(1, n + 1, dtype=float)
    kern = math.sqrt(2.0 * H) * (m * dt) ** (H - 0.5)
    return _causal_convolve(increments, kern)


def stationary_hat_process(increments, kernel, dt):
    """Moving-average path driven by the cut-off fractional kernel.

    ``increments`` live on an extended grid; entries of the output with
    at least ``2 * kernel.T`` of driving history behind them are
    (discretely) stationary.  Feeding increments that vanish before some
    time origin reproduces the plain fractional path after that origin.
    """
    n = np.asarray(increments).shape[-1]
    m = np.arange(1, n + 1, dtype=float)
    kern = kernel.khat(m * dt)
    return _causal_convolve(increments, kern)


# ---------------------------------------------------------------------------
# mollification


def mollification_weights(dt, eps, mollifier):
    """Discrete mollifier and derivative-of-mollifier weights.

    Returns ``(w, dw, m)`` with offsets ``j = -m .. m``; ``w`` sums to 1
    exactly and ``dw`` annihilates constants and differentiates linear
    paths exactly (the two defining quadrature identities are enforced
    on the discrete weights).
    """
    m = int(math.floor(eps / dt + 1e-9))
    if m < 4:
        raise ConfigError(
            f"mollification width eps={eps} must cover at least 4 grid steps (dt={dt})"
        )
    u = np.arange(-m, m + 1, dtype=float) * dt
    w = mollifier.rho_eps(u, eps) * dt
    w = w / w.sum()
    dw = mollifier.drho_eps(u, eps) * dt
    dw = dw - dw.mean()
    scale = -(dw * u).sum()
    dw = dw / scale
    return w, dw, m


def mollify(values, dt, eps, mollifier):
    """Mollified path and its derivative.

    ``values`` is a path (or batch of paths, last axis = grid).  Returns
    ``(smooth, deriv, m)``; entries within ``m`` points of either end
    alias zero-padding and must be discarded by the caller.
    """
    w, dw, m = mollification_weights(dt, eps, mollifier)
    values = np.asarray(values, dtype=float)
    squeeze = values.ndim == 1
    if squeeze:
        values = values[None, :]
    n = values.shape[-1]
    full = signal.fftconvolve(values, w[None, :], mode="full")
    smooth = full[:, m : m + n]
    fulld = signal.fftconvolve(values, dw[None, :], mode="full")
    deriv = fulld[:, m : m + n]
    if squeeze:
        return smooth[0], deriv[0], m
    return smooth, deriv, m


# ---------------------------------------------------------------------------
# the renormalization constant


def c_eps(eps, kernel, mollifier, with_error=False):
    """Stationary renormalization constant.

    Computed as the double quadrature of the derivative-of-mollifier
    against the mollified kernel cross-covariance, reduced to a single
    weakly singular integral of ``khat(u)`` against the mollifier
    autocorrelation and regularized by the substitution
    ``u = v ** (1 / (H + 1/2))``.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")
    H = kernel.H

    def phi(u):
        lo, hi = -eps, eps - u
        if hi <= lo:
            return 0.0
        val, _ = integrate.quad(
            lambda b: float(
                mollifier.rho_eps(np.array([b]), eps)[0]
                * mollifier.rho_eps(np.array([b + u]), eps)[0]
            ),
            lo,
            hi,
            limit=100,
        )
        return val

    p = 1.0 / (H + 0.5)
    upper = min(2.0 * eps, 2.0 * kernel.T)

    def integrand(v):
        u = v**p
        return float(kernel.khat(np.array([u]))[0]) * phi(u) * p * v ** (p - 1.0)

    hi = upper ** (1.0 / p)
    value, err = integrate.quad(integrand, 0.0, hi, limit=200)
    if with_error:
        return value, err
    return value


def c_eps_timedep(t, eps, H, mollifier):
    """Time-dependent correction E[dot(W^eps)(t) W^(H,eps)(t)] for the
    one-sided fractional path started at time 0 (no cutoff).  Reduces to
    the stationary constant once t exceeds the mollification width."""
    if not (0.0 < eps < math.inf and 0.0 < t < math.inf):
        raise ConfigError("eps and t must be positive and finite")
    c = math.sqrt(2.0 * H) / (H + 0.5)

    def cross(a, b):
        v = t - b
        if v <= 0:
            return 0.0
        u = t - a
        mn = min(u, v)
        if mn <= 0:
            return c * 0.0
        return c * (v ** (H + 0.5) - max(v - mn, 0.0) ** (H + 0.5))

    val, _ = integrate.dblquad(
        lambda a, b: float(mollifier.drho_eps(np.array([a]), eps)[0])
        * float(mollifier.rho_eps(np.array([b]), eps)[0])
        * cross(a, b),
        -eps,
        eps,
        -eps,
        eps,
        epsabs=1e-9,
        epsrel=1e-7,
    )
    return val


# ---------------------------------------------------------------------------
# named test functions


class TestFunction:
    """Named smooth test function with analytic derivatives of all orders."""

    _NAMES = ("constant", "linear", "quadratic", "sine")

    def __init__(self, name):
        if name not in self._NAMES:
            raise ConfigError(f"unknown test function {name!r}")
        self.name = name

    def __call__(self, x, order=0):
        x = np.asarray(x, dtype=float)
        if self.name == "constant":
            return np.ones_like(x) if order == 0 else np.zeros_like(x)
        if self.name == "linear":
            if order == 0:
                return x
            return np.ones_like(x) if order == 1 else np.zeros_like(x)
        if self.name == "quadratic":
            if order == 0:
                return x * x
            if order == 1:
                return 2.0 * x
            return np.full_like(x, 2.0) if order == 2 else np.zeros_like(x)
        return np.sin(x + order * math.pi / 2.0)


# ---------------------------------------------------------------------------
# configuration


# config key -> (SimConfig field, converter)
_SIM_KEYS = {
    "H": ("H", real),
    "kappa": ("kappa", real),
    "N": ("n_grid", int),
    "P": ("n_paths", int),
    "seed": ("seed", int),
    "eps": ("eps_list", reals),
    "f": ("f_name", str),
    "mollifier": ("mollifier", str),
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
    mollifier: str = "bump"
    T: float = 1.0
    threads: int = 1
    lambdas: tuple = (0.25, 0.125, 0.0625)  # bounds only: test-function scales
    powers: tuple = (1,)  # bounds only: n in Xi * I(Xihat)^n

    def __post_init__(self):
        if self.n_grid < 8 or self.n_grid & (self.n_grid - 1):
            raise ConfigError("N must be a power of two (and at least 8)")
        if not (0.0 < self.H < 0.5):
            raise ConfigError("H must lie in (0, 1/2)")
        if not (0.0 < self.kappa < self.H):
            raise ConfigError("kappa must lie in (0, H)")
        if self.n_paths < 1:
            raise ConfigError("P must be >= 1")
        if not 0.0 < self.T < math.inf:
            raise ConfigError("T must be positive and finite")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        eps_list = tuple(float(e) for e in self.eps_list)
        if not eps_list:
            raise ConfigError("eps ladder must be non-empty")
        dt = self.dt
        for e in eps_list:
            if e < 4 * dt:
                raise ConfigError(f"eps={e} must cover at least 4 grid steps (dt={dt})")
        object.__setattr__(self, "eps_list", eps_list)
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "powers", tuple(int(k) for k in self.powers))
        if not self.powers or min(self.powers) < 1:
            raise ConfigError("powers must be >= 1")
        TestFunction(self.f_name)
        MollifierSpec(self.mollifier)

    @property
    def dt(self):
        return self.T / self.n_grid

    def to_text(self):
        eps = ",".join(repr(e) for e in self.eps_list)
        lambdas = ",".join(repr(x) for x in self.lambdas)
        powers = ",".join(str(k) for k in self.powers)
        return (
            f"H = {self.H}\nkappa = {self.kappa}\nN = {self.n_grid}\n"
            f"P = {self.n_paths}\nseed = {self.seed}\neps = {eps}\n"
            f"f = {self.f_name}\nmollifier = {self.mollifier}\n"
            f"T = {self.T}\nthreads = {self.threads}\n"
            f"lambda = {lambdas}\npowers = {powers}\n"
        )

    @classmethod
    def from_text(cls, text):
        fields = read_config(text, lambda key: _SIM_KEYS.get(key, (None, None))[1])
        for key in ("H", "kappa", "N", "P", "seed", "eps"):
            if key not in fields:
                raise ConfigError(f"missing config field {key!r}")
        return cls(**{_SIM_KEYS[key][0]: value for key, value in fields.items()})


def _run_paths(worker, n_paths, threads):
    """Deterministic per-path map, optionally thread-parallel."""
    results = [None] * n_paths
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for idx, value in zip(range(n_paths), pool.map(worker, range(n_paths))):
                results[idx] = value
    else:
        for idx in range(n_paths):
            results[idx] = worker(idx)
    return results


# ---------------------------------------------------------------------------
# the Wong-Zakai experiment


@dataclass
class WZResult:
    config: SimConfig
    c_eps: dict  # eps -> correction constant
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)


def wz_experiment(config):
    """Corrected Wong-Zakai experiment.

    Per path and mollification width, computes the uncorrected smooth
    integral of ``f`` of the mollified fractional path against the
    mollified driving path, its corrected version (subtracting the
    renormalization-constant drift), a block-expansion route built from
    the renormalized symbol evaluations, and the left-point Ito
    reference on the unmollified pair.
    """
    dt = config.dt
    n = config.n_grid
    moll = MollifierSpec(config.mollifier)
    kernel = KernelSpec(H=config.H, T=config.T)
    f = TestFunction(config.f_name)
    m_max = max(int(math.floor(e / dt + 1e-9)) for e in config.eps_list)
    pad = m_max + 2
    n_ext = n + 2 * pad
    order_max = required_power(
        Fraction(config.H).limit_denominator(10**9),
        Fraction(config.kappa).limit_denominator(10**9),
    )
    corrections = {e: c_eps(e, kernel, moll) for e in config.eps_list}
    block = 8

    def one_path(p):
        inc = brownian_increments(n_ext, dt, config.seed, p)
        w_ext = np.concatenate(([0.0], np.cumsum(inc)))
        w_ext = w_ext - w_ext[pad]  # path vanishes at time 0
        wh_pos = fbm_rl(inc[pad:], config.H, dt)  # from time 0 onward
        wh_ext = np.concatenate((np.zeros(pad), wh_pos))
        i_ito = float(
            np.sum(f(wh_ext[pad : pad + n]) * np.diff(w_ext)[pad : pad + n])
        )
        out = []
        for e in config.eps_list:
            _, w_dot, _ = mollify(w_ext, dt, e, moll)
            wh_sm, _, _ = mollify(wh_ext, dt, e, moll)
            sl = slice(pad, pad + n)
            vals = wh_sm[sl]
            i_unc = float(np.sum(f(vals) * w_dot[sl]) * dt)
            i_corr = i_unc - corrections[e] * float(np.sum(f(vals, 1)) * dt)
            i_model = _model_route(
                f, wh_sm, w_dot, pad, n, dt, corrections[e], order_max, block
            )
            out.append((e, i_unc, i_corr, i_model, i_ito))
        return out

    result = WZResult(config=config, c_eps=dict(corrections))
    per_path = _run_paths(one_path, config.n_paths, config.threads)
    by_eps = {e: [] for e in config.eps_list}
    for p, rows in enumerate(per_path):
        for e, i_unc, i_corr, i_model, i_ito in rows:
            result.rows.append(
                {
                    "eps": e,
                    "path": p,
                    "I_uncorr": i_unc,
                    "I_corr": i_corr,
                    "I_model": i_model,
                    "I_ito": i_ito,
                }
            )
            by_eps[e].append((i_unc, i_corr, i_model, i_ito))
    for e in config.eps_list:
        arr = np.array(by_eps[e])
        rms = lambda col: float(np.sqrt(np.mean((arr[:, col] - arr[:, 3]) ** 2)))
        result.summary.append(
            {
                "eps": e,
                "rms_uncorr": rms(0),
                "rms_corr": rms(1),
                "rms_model": rms(2),
                "c_eps": corrections[e],
            }
        )
    return result


def _model_route(f, wh_sm, w_dot, pad, n, dt, correction, order_max, block):
    """Blockwise renormalized-expansion quadrature of the integral."""
    total = 0.0
    for start in range(pad, pad + n, block):
        stop = min(start + block, pad + n)
        base = wh_sm[start]
        delta = wh_sm[start:stop] - base
        acc = np.zeros(stop - start)
        for m in range(order_max + 1):
            fm = float(f(np.array([base]), m)[0]) / math.factorial(m)
            term = w_dot[start:stop] * delta**m
            if m >= 1:
                term = term - m * correction * delta ** (m - 1)
            acc += fm * term
        total += float(np.sum(acc) * dt)
    return total


# ---------------------------------------------------------------------------
# small-scale pairing probe


def model_bound_probe(
    H,
    kappa,
    n_grid,
    n_paths,
    seed,
    eps_list,
    lambdas,
    n_powers=(1,),
    mollifier="bump",
    T=1.0,
    threads=1,
):
    """Pairing decay probe for the renormalized smooth model.

    For symbols ``Xi``, ``I(Xihat)`` and ``Xi * I(Xihat)^n``, computes
    the root-mean-square pairing of the difference between the
    renormalized mollified evaluation and the rough (unmollified)
    evaluation against rescaled bump test functions centred at T/2, over
    a ladder of scales ``lambdas`` and widths ``eps_list``.  Returns the
    row table and, per symbol, joint log-log regression exponents in
    lambda and eps.  The fit needs at least two distinct values of each,
    and every lambda must lie in [dt, T/2); otherwise ConfigError.
    """
    dt = T / n_grid
    if len(set(eps_list)) < 2 or len(set(lambdas)) < 2:
        raise ConfigError("the fit needs two distinct eps and two distinct lambda values")
    halves = {lam: int(math.floor(lam / dt + 1e-9)) for lam in lambdas}
    if not all(1 <= half < n_grid // 2 for half in halves.values()):
        raise ConfigError(f"lambda values must lie in [dt, T/2) = [{dt:g}, {T / 2:g})")
    moll = MollifierSpec(mollifier)
    kernel = KernelSpec(H=H, T=T)
    m_max = max(int(math.floor(e / dt + 1e-9)) for e in eps_list)
    pad = int(round(2 * T / dt)) + m_max + 2
    n_ext = n_grid + pad
    s_idx = pad + n_grid // 2
    corrections = {e: c_eps(e, kernel, moll) for e in eps_list}
    taus = ["Xi", "I(Xihat)"] + [
        f"Xi*I(Xihat)^{k}" if k > 1 else "Xi*I(Xihat)" for k in n_powers
    ]

    def one_path(p):
        inc = brownian_increments(n_ext, dt, seed, p)
        hat = stationary_hat_process(inc, kernel, dt)
        per_eps = {}
        for e in eps_list:
            w_ext = np.concatenate(([0.0], np.cumsum(inc)))
            _, w_dot, _ = mollify(w_ext, dt, e, moll)
            hat_sm, _, _ = mollify(hat, dt, e, moll)
            per_eps[e] = (w_dot, hat_sm)
        vals = {}
        for lam, half in halves.items():
            ks = np.arange(s_idx - half, s_idx + half + 1)
            phi = moll.rho((ks - s_idx) * dt / lam) / lam
            dw = inc[ks]
            for e in eps_list:
                w_dot, hat_sm = per_eps[e]
                dhat_rough = hat[ks] - hat[s_idx]
                dhat_sm = hat_sm[ks] - hat_sm[s_idx]
                pair = {}
                pair["Xi"] = float(np.sum(phi * (w_dot[ks] * dt - dw)))
                pair["I(Xihat)"] = float(np.sum(phi * (dhat_sm - dhat_rough)) * dt)
                for k in n_powers:
                    name = f"Xi*I(Xihat)^{k}" if k > 1 else "Xi*I(Xihat)"
                    smooth = (
                        w_dot[ks] * dhat_sm**k
                        - k * corrections[e] * dhat_sm ** (k - 1)
                    ) * dt
                    rough = dhat_rough**k * dw
                    pair[name] = float(np.sum(phi * (smooth - rough)))
                vals[(lam, e)] = pair
        return vals

    per_path = _run_paths(one_path, n_paths, threads)
    rows = []
    fits = {}
    logs = {tau: ([], [], []) for tau in taus}
    for lam in lambdas:
        for e in eps_list:
            for tau in taus:
                samples = np.array([per_path[p][(lam, e)][tau] for p in range(n_paths)])
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
    return {"rows": rows, "fits": fits, "c_eps": corrections}
