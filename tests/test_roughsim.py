"""Simulation harness: fractional paths, mollification, correction
constant, experiment plumbing."""

import functools
import math
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_roughsim
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from roughrenorm import model, roughsim
from roughrenorm.errors import ConfigError, DomainError
from roughrenorm.roughsim import (  # noqa: F401
    KernelSpec,
    SimConfig,
    TestFunction as FunctionSpec,
    brownian_increments,
    c_eps,
    c_eps_timedep,
    fbm_rl,
    model_bound_probe,
    mollification_weights,
    mollify,
    renormalised_terms,
    stationary_hat_process,
    wz_experiment,
)
from roughrenorm.structure import rough_vol_spec
from roughrenorm.trees import FormalSum, forest_of

SPEC_H01 = rough_vol_spec(Fraction(1, 10), Fraction(1, 100))  # truncation 5


def test_brownian_increments_deterministic():
    a = brownian_increments(64, 1 / 64, seed=5, path_index=3)
    b = brownian_increments(64, 1 / 64, seed=5, path_index=3)
    c = brownian_increments(64, 1 / 64, seed=5, path_index=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64,)


def test_fbm_half_is_brownian():
    inc = brownian_increments(256, 1 / 256, seed=1, path_index=0)
    w = fbm_rl(inc, 0.5, 1 / 256)
    expected = np.concatenate(([0.0], np.cumsum(inc)))
    assert np.allclose(w, expected, atol=1e-12)


@pytest.mark.parametrize("H", [0.25, 0.4])
def test_fbm_terminal_variance(H):
    n, paths, dt = 512, 800, 1 / 512
    vals = np.array(
        [fbm_rl(brownian_increments(n, dt, 9, p), H, dt)[-1] for p in range(paths)]
    )
    second = vals**2
    se = second.std(ddof=1) / math.sqrt(paths)
    assert abs(second.mean() - 1.0) <= 5 * se


def test_hat_process_matches_plain_path_before_cutoff():
    n, dt = 512, 1 / 512
    kernel = KernelSpec(H=0.3, T=1.0)
    inc = brownian_increments(n, dt, seed=2, path_index=0)
    padded = np.concatenate([np.zeros(n), inc])
    hat = stationary_hat_process(padded, kernel, dt)
    plain = fbm_rl(inc, 0.3, dt)
    # with no history the two transforms agree while all lags are < T
    assert np.allclose(hat[n : 2 * n], plain[:n], atol=1e-12)


def test_hat_process_stationary_increments():
    n, dt = 2048, 1 / 512
    kernel = KernelSpec(H=0.3, T=1.0)
    paths = 400
    a, b = [], []
    for p in range(paths):
        inc = brownian_increments(n, dt, seed=31, path_index=p)
        hat = stationary_hat_process(inc, kernel, dt)
        a.append(hat[1536] - hat[1400])
        b.append(hat[2000] - hat[1864])
    va, vb = np.var(a), np.var(b)
    se = (va + vb) * math.sqrt(2.0 / paths)
    assert abs(va - vb) <= 5 * se


def test_kernel_cutoff_shape():
    kernel = KernelSpec(H=0.3, T=1.0)
    u = np.array([-0.5, 0.5, 1.0, 1.5, 2.5])
    k = kernel.khat(u)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(math.sqrt(0.6) * 0.5 ** (-0.2))
    assert k[4] == 0.0
    assert 0.0 < k[3] < kernel.raw(np.array([1.5]))[0]


def test_mollifier_weight_identities():
    dt, eps = 1 / 512, 1 / 16
    w, dw, m = mollification_weights(dt, eps)
    assert m >= 4
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert dw.sum() == pytest.approx(0.0, abs=1e-12)
    u = dt * np.arange(len(dw))
    assert -(dw * u).sum() == pytest.approx(1.0, abs=1e-12)


def test_mollify_preserves_constants_and_slopes():
    n, dt, eps = 512, 1 / 512, 1 / 16
    t = dt * np.arange(n + 1)
    const = np.full(n + 1, 2.5)
    sm, dv, m = mollify(const, dt, eps)
    assert np.allclose(sm[m:-m], 2.5, atol=1e-12)
    assert np.allclose(dv[m:-m], 0.0, atol=1e-10)
    lin = 3.0 * t + 1.0
    sm, dv, m = mollify(lin, dt, eps)
    assert np.allclose(dv[m:-m], 3.0, atol=1e-8)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 3000),
    batch=st.integers(0, 3),
    lengths=st.lists(st.integers(2, 400), min_size=1, max_size=4),
    repeat=st.booleans(),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_smoother_equals_fftconvolve(seed, n, batch, lengths, repeat, data):
    # scipy.signal.fftconvolve is the old smoothing route, kept as the
    # oracle; a weight of length 1 is left out, because fftconvolve then
    # multiplies instead of transforming
    from scipy import signal

    rng = np.random.default_rng(seed)
    values = rng.standard_normal((batch, n) if batch else n)
    if repeat:  # two weights of one length share the signal's transform
        lengths = lengths + lengths[:1]
    weights = [
        (rng.standard_normal(size), data.draw(st.integers(0, size - 1)))
        for size in lengths
    ]
    outs = roughsim._smoother(n, weights)(values)
    rows = values[None, :] if values.ndim == 1 else values
    for out, (w, start) in zip(outs, weights, strict=True):
        expected = signal.fftconvolve(rows, w[None, :], mode="full")[:, start : start + n]
        assert np.array_equal(out, expected[0] if values.ndim == 1 else expected)


def test_smoother_reuses_its_buffers_across_calls():
    # one smoother, called on 3 rows, then 1, then 2: every call equals
    # fftconvolve, though each writes into the buffers the last one used
    from scipy import signal

    rng = np.random.default_rng(11)
    n = 300
    weights = [(rng.standard_normal(size), start) for size, start in ((41, 20), (97, 48))]
    smooth = roughsim._smoother(n, weights)
    last = None
    for rows in (3, 1, 2):
        values = rng.standard_normal((rows, n))
        for out, (w, start) in zip(smooth(values), weights, strict=True):
            expected = signal.fftconvolve(values, w[None, :], mode="full")[:, start : start + n]
            assert np.array_equal(out, expected)
            if last is not None:
                assert np.shares_memory(out, last)
            last = out


def test_smoother_shared_by_8_threads_keeps_each_threads_outputs():
    # each thread reads its own buffers: every thread's call is done before any
    # thread reads its outputs, which must still be its own signal's
    rng = np.random.default_rng(12)
    n = 200
    weights = [(rng.standard_normal(size), size // 2) for size in (31, 63)]
    smooth = roughsim._smoother(n, weights)
    signals = [rng.standard_normal((1 + k % 3, n)) for k in range(8)]
    expected = [[out.copy() for out in smooth(values)] for values in signals]
    barrier = threading.Barrier(8, timeout=30)
    wrong = []

    def work(k):
        barrier.wait()
        for _ in range(40):
            outs = smooth(signals[k])
            barrier.wait()  # every thread's call, then the reads
            wrong.extend(k for out, want in zip(outs, expected[k]) if not np.array_equal(out, want))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_chunk_driver_arrays_are_each_threads_own(monkeypatch):
    # 8 chunks of one path on 4 threads, each chunk waiting at one barrier:
    # each round of 4 chunks takes one per thread, so every thread runs two
    # chunks, and the four threads' arrays are all in use at once
    n_ext = 64
    monkeypatch.setattr(roughsim, "usable_cpus", lambda: 4)
    monkeypatch.setattr(roughsim, "_CHUNK_BYTES", 8 * (n_ext + 1))
    config = SimConfig(
        H=0.3, kappa=0.01, n_grid=64, n_paths=8, seed=4, eps_list=(0.125,), threads=4
    )
    barrier = threading.Barrier(4, timeout=30)

    def body(inc, path, a, b, seconds):
        barrier.wait()
        return threading.get_ident(), (inc, path, a, b), inc[0].copy(), path[0].copy()

    timings = {}
    per_chunk = roughsim._over_chunks(config, n_ext, timings, body, (3, 5))
    for p, (_, arrays, inc, path) in enumerate(per_chunk):
        assert [a.shape for a in arrays] == [(1, n_ext), (1, n_ext + 1), (1, 3), (1, 5)]
        assert np.array_equal(inc, brownian_increments(n_ext, config.dt, config.seed, p))
        assert np.array_equal(path, np.concatenate(([0.0], np.cumsum(inc))))
    assert list(timings) == ["paths"]
    held = {}
    for ident, arrays, _, _ in per_chunk:
        held.setdefault(ident, []).append(arrays)
    assert sorted(map(len, held.values())) == [2, 2, 2, 2]
    for first, again in held.values():
        assert all(np.shares_memory(x, y) for x, y in zip(first, again))
    firsts = [(ident, x) for ident, (first, _) in held.items() for x in first]
    for ident, x in firsts:
        assert not any(np.shares_memory(x, y) for other, y in firsts if other != ident)


def test_import_leaves_scipy_signal_unloaded():
    src = Path(roughsim.__file__).resolve().parents[1]
    code = (
        "import sys, roughrenorm\n"
        "assert 'scipy.signal' not in sys.modules, 'imported scipy.signal'\n"
        "from roughrenorm import roughsim\n"
        "assert roughsim.signal is sys.modules['scipy.signal']\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    with pytest.raises(AttributeError):
        roughsim.no_such_name


def test_mollify_rejects_coarse_grid():
    with pytest.raises(ConfigError):
        mollification_weights(1 / 8, 1 / 8)


@pytest.mark.parametrize("width", [math.inf, -math.inf, math.nan])
def test_non_finite_widths_are_config_errors(width):
    with pytest.raises(ConfigError, match="mollification width .* 4 grid steps"):
        mollification_weights(1 / 256, width)
    probe = SimConfig(**{**_PROBE, "lambdas": (width, 0.25)})
    with pytest.raises(ConfigError, match=r"lambda values must lie in \[dt, T/2\)"):
        model_bound_probe(probe)


def test_c_eps_scaling_exponent():
    kernel = KernelSpec(H=0.3, T=1.0)
    eps = [2.0**-k for k in range(3, 8)]
    vals = [c_eps(e, kernel)[0] for e in eps]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert slope == pytest.approx(0.3 - 0.5, abs=0.01)


def test_c_eps_timedep_matches_constant_away_from_origin():
    kernel = KernelSpec(H=0.3, T=1.0)
    eps = 1 / 16
    const, _ = c_eps(eps, kernel)
    late = c_eps_timedep(0.5, eps, 0.3)
    assert late == pytest.approx(const, rel=1e-4)
    # at large t no term of size t ** (H + 1/2) may cancel the digits away
    assert c_eps_timedep(1e16, eps, 0.3) == pytest.approx(late, rel=1e-6)
    # pinned, so that a change to the quadrature cannot move c_eps unseen
    assert const == pytest.approx(0.8764189091348921, rel=1e-12)


@pytest.mark.parametrize("H, eps", [(0.3, 1 / 16), (0.3, 0.1), (0.1, 1 / 64)])
def test_c_eps_timedep_is_the_stationary_constant_from_eps_on(H, eps):
    # u < 2 eps in the stationary integral, where neither kernel is cut off
    for T in (2 * eps, 1.0):
        const, _ = c_eps(eps, KernelSpec(H, T))
        for t in (eps, 0.5, 1e16):
            assert c_eps_timedep(t, eps, H) == const


@pytest.mark.parametrize(
    "t, eps, H, message",
    [
        (0.5, 0.1, -1.0, "H must lie in (0, 1/2)"),
        (0.5, 0.1, 0.7, "H must lie in (0, 1/2)"),
        (0.05, 0.1, math.nan, "H must lie in (0, 1/2)"),
        (-1.0, 0.0, 0.7, "H must lie in (0, 1/2)"),  # H is checked before eps and t
        (-1.0, 0.1, 0.3, "eps and t must be positive and finite"),
        (0.5, math.inf, 0.3, "eps and t must be positive and finite"),
    ],
)
def test_c_eps_timedep_domain(t, eps, H, message):
    with pytest.raises(ConfigError) as exc:
        c_eps_timedep(t, eps, H)
    assert str(exc.value) == message


def test_c_eps_timedep_before_the_mollification_width():
    H, eps = 0.3, 1 / 16
    # continuous from below at t = eps: the t < eps integrand meets the t >= eps
    # one there, so the two agree to the quadrature's epsrel of 1e-7
    at = c_eps_timedep(eps, eps, H)
    assert c_eps_timedep(eps * (1 - 1e-6), eps, H) == pytest.approx(at, rel=1e-7)
    # at t = eps / 2, against the midpoint rule on an n x n grid over
    # (a, b) in [-eps, eps]^2.  Its error decays about as h^(H + 3/2), from the
    # kinks of the integrand where v = 0 and where u = v; at n = 800 it is
    # 1.4e-6 relative, so 1e-5 leaves room
    t, n = eps / 2, 800
    x = -eps + (np.arange(n) + 0.5) * (2 * eps / n)
    u, v = t - x[:, None], t - x[None, :]
    cross = np.where(
        (u > 0) & (v > 0),
        np.maximum(v, 0) ** (H + 0.5) - np.maximum(v - np.minimum(u, v), 0) ** (H + 0.5),
        0.0,
    )
    weights = roughsim._drho_eps(x, eps)[:, None] * roughsim._rho_eps(x, eps)[None, :]
    grid = math.sqrt(2 * H) / (H + 0.5) * np.sum(weights * cross) * (2 * eps / n) ** 2
    assert c_eps_timedep(t, eps, H) == pytest.approx(grid, rel=1e-5)


def test_c_eps_rejects_a_width_whose_scale_is_not_a_normal_double():
    # 1/eps^2 is a normal double up to eps = 2^511; beyond it the quadratures
    # lose digits (1.7e-4 relative at eps = 1e160) and read 0 by eps = 1e200
    widest = 2.0**511
    value, _ = c_eps(widest, KernelSpec(0.3, 1e160))
    assert value == pytest.approx(0.5034 * widest ** (0.3 - 0.5), rel=1e-3)
    for eps in (math.nextafter(widest, math.inf), 1e160, 1e200):
        with pytest.raises(DomainError, match=r"1/eps\^2 is not a normal double"):
            c_eps(eps, KernelSpec(0.3, 1e200))
        for t in (1e-3, 1e300):  # before the width and from it on
            with pytest.raises(DomainError, match=r"1/eps\^2 is not a normal double"):
                c_eps_timedep(t, eps, 0.3)


# float.hex of c_eps(eps, KernelSpec(0.3)) and of its error estimate, as the
# integrand with one-element arrays per point gave them (numpy 2.4, scipy
# 1.17, x86-64 with AVX-512); eps = 0.7 > T/2 reaches the kernel's cut-off
_C_EPS_BITS = {
    1 / 8: ("0x1.86a39b7b5ec7cp-1", "0x1.36a04f3d046a8p-27"),
    1 / 16: ("0x1.c0b9fab0a9249p-1", "0x1.64d0e9da87e78p-27"),
    1 / 32: ("0x1.01b9c6875b77cp+0", "0x1.99dfd408f6050p-27"),
    1 / 64: ("0x1.280c8feb74df9p+0", "0x1.d6d26cf429c30p-27"),
    1 / 128: ("0x1.5412325bab49cp+0", "0x1.0e6a8cd5c4ba8p-26"),
    0.7: ("0x1.14c8257d44e89p-1", "0x1.1356bb2a4f4c0p-27"),
}


def _avx512_power():
    """Whether numpy may take its AVX-512 power loop, as when the bits
    above were recorded: a CPU without it rounds some powers differently."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return False
    return bool(__cpu_features__.get("AVX512_SKX"))


@pytest.mark.skipif(not _avx512_power(), reason="bits recorded with numpy's AVX-512 power")
@pytest.mark.parametrize("eps", sorted(_C_EPS_BITS))
def test_c_eps_bits_are_pinned(eps):
    value, error = c_eps(eps, KernelSpec(0.3))
    assert (value.hex(), error.hex()) == _C_EPS_BITS[eps]


def _c_eps_by_arrays(eps, kernel):
    """c_eps with the integrand it had before :func:`roughsim._khat_at`:
    ``kernel.khat`` of a one-element array and two ``_rho_eps_at`` calls."""
    norm = roughsim._bump_norm()
    rho = functools.partial(roughsim._rho_eps_at, eps=eps, norm=norm)

    def phi(u):
        if eps - u <= -eps:
            return 0.0
        return integrate.quad(lambda b: rho(b) * rho(b + u), -eps, eps - u, limit=100)[0]

    p = 1.0 / (kernel.H + 0.5)

    def integrand(v):
        u = v**p
        return float(kernel.khat(np.array([u]))[0]) * phi(u) * p * v ** (p - 1.0)

    hi = min(2.0 * eps, 2.0 * kernel.T) ** (1.0 / p)
    return integrate.quad(integrand, 0.0, hi, limit=200)


@pytest.mark.parametrize(
    "H, T, eps", [(0.3, 1.0, 1 / 8), (0.1, 1.0, 1 / 64), (0.45, 0.5, 0.3), (0.2, 3.0, 1.3)]
)
def test_c_eps_equals_the_array_integrand(H, T, eps):
    kernel = KernelSpec(H, T)
    assert c_eps(eps, kernel) == _c_eps_by_arrays(eps, kernel)


@given(
    H=st.floats(0.01, 0.49),
    T=st.floats(1e-3, 1e3),
    frac=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
)
@example(H=0.3, T=1.0, frac=1.0)  # u = T, the last point without the cut-off
@example(H=0.3, T=1.0, frac=float(np.nextafter(1.0, 2.0)))
@settings(max_examples=200, deadline=None)
def test_khat_at_equals_array_khat(H, T, frac):
    kernel = KernelSpec(H, T)
    u = frac * T
    assert roughsim._khat_at(kernel, u) == float(kernel.khat(np.array([u]))[0])


@pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 0.3])
def test_scalar_mollifier_matches_array_mollifier(eps):
    norm = roughsim._bump_norm()
    edge = np.nextafter(1.0, 0.0)
    y = np.concatenate((np.linspace(-1.5, 1.5, 241), [-1.0, 1.0, -edge, edge, 0.0]))
    x = np.concatenate((y * eps, [-eps, eps]))
    rho, drho = roughsim._rho_eps(x, eps), roughsim._drho_eps(x, eps)
    for xi, r, d in zip(x, rho, drho):
        assert roughsim._rho_eps_at(xi, eps, norm) == pytest.approx(r, rel=1e-15, abs=0)
        assert roughsim._drho_eps_at(xi, eps, norm) == pytest.approx(d, rel=1e-15, abs=0)


def test_c_eps_monte_carlo_cross_check():
    # independent estimate of \int\int rho(a) rho(b) khat(a-b) da db
    kernel = KernelSpec(H=0.35, T=1.0)
    eps = 1 / 8
    exact, _ = c_eps(eps, kernel)
    rng = np.random.default_rng(12)
    n = 400_000
    a = rng.uniform(-eps, eps, n)
    b = rng.uniform(-eps, eps, n)
    weights = roughsim._rho_eps(a, eps) * roughsim._rho_eps(b, eps) * (2 * eps) ** 2
    vals = weights * kernel.khat(a - b)
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(est - exact) <= 5 * se


def test_testfunction_derivatives():
    f = FunctionSpec("sine")
    x = np.linspace(-1, 1, 11)
    assert np.allclose(f(x, order=0), np.sin(x))
    assert np.allclose(f(x, order=1), np.cos(x))
    assert np.allclose(f(x, order=4), np.sin(x))
    g = FunctionSpec("quadratic")
    assert np.allclose(g(x, order=2), g(x + 1, order=2))
    assert np.allclose(g(x, order=3), 0.0)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(H=0.3, kappa=0.01, n_grid=100, n_paths=2, seed=1, eps_list=(0.125,))
    with pytest.raises(ConfigError):
        SimConfig(H=0.6, kappa=0.01, n_grid=256, n_paths=2, seed=1, eps_list=(0.125,))
    with pytest.raises(ConfigError):
        SimConfig(H=0.3, kappa=0.4, n_grid=256, n_paths=2, seed=1, eps_list=(0.125,))
    with pytest.raises(ConfigError):
        SimConfig(
            H=0.3, kappa=0.01, n_grid=256, n_paths=2, seed=1, eps_list=(1 / 256,)
        )


_N_MESSAGE = "N must be a power of two from 8 to 1048576"
_H_MESSAGE = "H must lie in (0, 1/2)"
_KAPPA_MESSAGE = "kappa must lie in (0, H)"
_T_MESSAGE = "T must be positive and finite"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"H": 0.6}, _H_MESSAGE),
        ({"H": 0.0}, _H_MESSAGE),
        ({"H": math.nan}, _H_MESSAGE),
        ({"H": math.inf, "kappa": 0.7}, _H_MESSAGE),
        ({"kappa": 0.4}, _KAPPA_MESSAGE),
        ({"kappa": -0.01}, _KAPPA_MESSAGE),
        ({"kappa": math.nan}, _KAPPA_MESSAGE),
        ({"T": 0.0}, _T_MESSAGE),
        ({"T": math.inf}, _T_MESSAGE),
        ({"T": math.nan}, _T_MESSAGE),
        (
            {"eps_list": (1 / 256,)},
            "eps=0.00390625 must cover at least 4 grid steps (dt=0.00390625)",
        ),
        ({"eps_list": (0.75,)}, "eps=0.75 must be at most T/2 (T=1.0)"),
        ({"eps_list": (math.inf,)}, "eps=inf must be at most T/2 (T=1.0)"),
        # the first failing check wins: N, H, kappa, truncation, P, T, threads, eps
        ({"n_grid": 100, "H": 0.6}, _N_MESSAGE),
        ({"H": 0.6, "T": -1.0}, _H_MESSAGE),
        ({"kappa": 0.4, "n_paths": 0}, _KAPPA_MESSAGE),
        ({"n_paths": 0, "T": -1.0}, "P must be >= 1"),
        ({"T": -1.0, "threads": 0}, _T_MESSAGE),
    ],
)
def test_sim_config_messages(fields, message):
    base = dict(H=0.3, kappa=0.01, n_grid=256, n_paths=2, seed=1, eps_list=(0.125,))
    with pytest.raises(ConfigError) as exc:
        SimConfig(**{**base, **fields})
    assert str(exc.value) == message


@pytest.mark.parametrize("n_grid", [8, 256])
def test_sim_config_takes_the_widths_mollification_takes(n_grid):
    dt = 1.0 / n_grid
    base = dict(H=0.3, kappa=0.01, n_grid=n_grid, n_paths=1, seed=1)
    for eps in (4 * dt, float(np.nextafter(4 * dt, 0.0))):
        assert mollification_weights(dt, eps)[2] == 4
        assert SimConfig(**base, eps_list=(eps,)).eps_list == (eps,)
    with pytest.raises(ConfigError):
        mollification_weights(dt, 3.99 * dt)
    with pytest.raises(ConfigError, match="4 grid steps"):
        SimConfig(**base, eps_list=(3.99 * dt,))


def test_sim_config_caps_the_truncation():
    base = dict(n_grid=256, n_paths=2, seed=1, eps_list=(0.125,))
    assert SimConfig(H=0.05, kappa=0.04, **base).spec.truncation == 54
    assert SimConfig(H=0.3, kappa=0.2878, **base).spec.truncation == 64
    for kappa in (0.2879, 0.2999999999):  # truncation 65 and about 8e9
        with pytest.raises(ConfigError, match="too close to H"):
            SimConfig(H=0.3, kappa=kappa, **base)


def test_sim_config_text_round_trip():
    cfg = SimConfig(
        H=0.3,
        kappa=0.01,
        n_grid=256,
        n_paths=4,
        seed=7,
        eps_list=(0.125, 0.0625),
        f_name="quadratic",
        T=2.0,
        threads=2,
        lambdas=(0.25, 1 / 3),
        powers=(1, 3),
    )
    text = (
        "H = 0.3\nkappa = 1/100\nN = 256\nP = 4\nseed = 7\neps = 1/8, 0.0625\n"
        "f = quadratic\nmollifier = bump\nT = 2\nthreads = 2\n"
        "lambda = 0.25,1/3\npowers = 1,3\n"
    )
    assert SimConfig.from_text(text) == cfg
    assert SimConfig.from_text(text.replace("powers = 1,3\n", "")).powers == (1,)


def test_wz_experiment_small():
    cfg = SimConfig(
        H=0.3,
        kappa=0.01,
        n_grid=256,
        n_paths=6,
        seed=42,
        eps_list=(0.125, 0.0625),
    )
    res = wz_experiment(cfg)
    assert len(res.rows) == 2 * 6
    assert len(res.summary) == 2
    for row in res.summary:
        assert row["rms_corr"] < row["rms_uncorr"]
    # deterministic reruns
    res2 = wz_experiment(cfg)
    assert res.rows == res2.rows


def test_wz_summary_standard_errors():
    base = dict(H=0.3, kappa=0.01, n_grid=256, seed=42, eps_list=(0.125,))
    res = wz_experiment(SimConfig(**base, n_paths=5))
    (row,) = res.summary
    i_ito = np.array([r["I_ito"] for r in res.rows])
    for name, key in (("uncorr", "I_uncorr"), ("corr", "I_corr"), ("model", "I_model")):
        d2 = (np.array([r[key] for r in res.rows]) - i_ito) ** 2
        assert row["rms_" + name] == float(np.sqrt(np.mean(d2)))
        expected = np.std(d2, ddof=1) / math.sqrt(5) / (2 * row["rms_" + name])
        assert row["se_" + name] == pytest.approx(expected, rel=1e-12)
    assert set(res.timings) == {"c_eps", "expansion", "paths", "route"}
    (single,) = wz_experiment(SimConfig(**base, n_paths=1)).summary
    assert all(math.isnan(single["se_" + name]) for name in ("uncorr", "corr", "model"))


def test_wz_experiment_threaded_matches_serial():
    base = dict(H=0.3, kappa=0.01, n_grid=256, n_paths=6, seed=42, eps_list=(0.125,))
    serial = wz_experiment(SimConfig(**base, threads=1))
    threaded = wz_experiment(SimConfig(**base, threads=4))
    assert serial.rows == threaded.rows


def _loop_model_route(f, wh_sm, w_dot, pad, n, dt, correction, order_max, block):
    """Reference for ``roughsim._model_route``: one block at a time."""
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


@given(
    seed=st.integers(0, 2**32 - 1),
    log_n=st.integers(3, 10),
    pad=st.integers(0, 40),
    order=st.integers(0, 5),
    name=st.sampled_from(["sine", "quadratic", "constant", "linear"]),
    correction=st.floats(-5.0, 5.0),
    scale=st.floats(1e-3, 3.0),
    T=st.floats(0.1, 10.0),
    rows=st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_model_route_equals_block_loop(seed, log_n, pad, order, name, correction, scale, T, rows):
    n = 2**log_n
    rng = np.random.default_rng(seed)
    wh_sm = scale * np.cumsum(rng.standard_normal((rows, n + 2 * pad + 1)), axis=-1)
    w_dot = rng.standard_normal((rows, n + 2 * pad + 1)) / scale
    f = FunctionSpec(name)
    terms = renormalised_terms(correction, SPEC_H01, range(order + 1))
    singles = []
    for wh_row, w_row in zip(wh_sm, w_dot):
        args = (f, wh_row, w_row, pad, n, T / n)
        single = roughsim._model_route(*args, terms)
        assert type(single) is float
        assert single == _loop_model_route(*args, correction, order, 8)
        singles.append(single)
    # a stack of paths gives each row's float, as its own 1-D call does
    stacked = roughsim._model_route(f, wh_sm, w_dot, pad, n, T / n, terms)
    assert stacked.shape == (rows,)
    assert stacked.tolist() == singles


_COEFFICIENTS = st.sampled_from([1.0, -1.0, 0.0]) | st.floats(allow_nan=False, allow_infinity=False)


@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), _COEFFICIENTS, min_size=1, max_size=8
    ),
    kind=st.sampled_from(["float", "0-d", "rows"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_evaluate_equals_the_plain_sum(terms, kind, seed, scale):
    # the plain sum multiplies by every 1.0, x**0 and x**1 and starts from 0;
    # leaving those out changes no bit but the sign of an exact zero, which
    # np.array_equal does not see.  A lone (0, 0) term gives its coefficient
    # as a float where the plain sum gives an array of it: both broadcast alike.
    rng = np.random.default_rng(seed)
    w_dot, delta = scale * rng.standard_normal((2, 3, 16))
    if kind == "float":
        w_dot, delta = float(w_dot[0, 0]), float(delta[0, 0])
    elif kind == "0-d":
        w_dot, delta = np.array(w_dot[0, 0]), np.array(delta[0, 0])
    before = np.copy(w_dot), np.copy(delta)
    with np.errstate(over="ignore", invalid="ignore"):  # coefficients up to 1.8e308
        want = reference_roughsim._evaluate(terms, w_dot, delta)
        got = roughsim._evaluate(terms, w_dot, delta)
    assert np.array_equal(np.broadcast_to(got, np.shape(want)), want, equal_nan=True)
    assert np.array_equal(w_dot, before[0]) and np.array_equal(delta, before[1])


@pytest.mark.parametrize("name", ["constant", "linear", "quadratic", "sine"])
@pytest.mark.parametrize("correction", [0.0, 0.37])
def test_model_route_reads_f_off_the_full_grid(name, correction):
    # wz_experiment hands the route f and f' on the whole grid; read at the
    # block bases they must give the route's bits, as taking f there does
    rng = np.random.default_rng(17)
    pad, n, rows, dt = 5, 256, 3, 1 / 256
    wh_sm = 0.4 * np.cumsum(rng.standard_normal((rows, n + 2 * pad + 1)), axis=-1)
    w_dot = rng.standard_normal((rows, n + 2 * pad + 1))
    f = FunctionSpec(name)
    terms = renormalised_terms(correction, SPEC_H01, range(6))
    args = (f, wh_sm, w_dot, pad, n, dt, terms)
    f_grid = (f(wh_sm[:, pad : pad + n]), f(wh_sm[:, pad : pad + n], 1))
    want = reference_roughsim._model_route(*args).tolist()
    assert roughsim._model_route(*args).tolist() == want
    assert roughsim._model_route(*args, f_grid).tolist() == want


@given(
    c=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    k=st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_renormalised_terms_are_the_closed_form(c, k):
    # the closed form of the renormalised Xi*I(Xihat)^k, kept here only as
    # the oracle for what roughsim reads off the symbolic expansion
    closed = {(1, k): 1.0, (0, k - 1): float(-k * Fraction(c))}
    expected = {key: value for key, value in closed.items() if value != 0}
    assert renormalised_terms(c, SPEC_H01, [k]) == {k: expected}
    assert renormalised_terms(c, SPEC_H01, [0]) == {0: {(1, 0): 1.0}}


_PROBE = dict(
    H=0.3, kappa=0.01, n_grid=256, n_paths=6, seed=3,
    eps_list=(0.125, 0.0625), lambdas=(0.25, 0.125), powers=(1, 2),
)


def test_doubled_remainder_coefficient_moves_only_renormalised_outputs(monkeypatch):
    config = SimConfig(H=0.3, kappa=0.01, n_grid=256, n_paths=3, seed=5, eps_list=(0.125,))
    wz, probe = wz_experiment(config), model_bound_probe(SimConfig(**_PROBE))
    expansion = model.bphz_expansion

    def doubled(tree, cov, spec):
        tau = forest_of(tree)
        return FormalSum([(r, c if r == tau else 2 * c) for r, c in expansion(tree, cov, spec)])

    monkeypatch.setattr(roughsim.model, "bphz_expansion", doubled)
    wz2, probe2 = wz_experiment(config), model_bound_probe(SimConfig(**_PROBE))
    for key in ("I_corr", "I_model"):
        assert all(a[key] != b[key] for a, b in zip(wz.rows, wz2.rows))
    for key in ("I_uncorr", "I_ito"):
        assert [row[key] for row in wz.rows] == [row[key] for row in wz2.rows]
    for a, b in zip(probe["rows"], probe2["rows"]):
        assert a["tau"] == b["tau"]
        moved = a["tau"].startswith("Xi*I(Xihat)")
        assert (a["rms_pairing"] != b["rms_pairing"]) == moved, a["tau"]


def test_model_bound_probe_threaded_matches_serial():
    serial = model_bound_probe(SimConfig(**_PROBE, threads=1))
    threaded = model_bound_probe(SimConfig(**_PROBE, threads=4))
    assert serial["rows"] == threaded["rows"]
    assert serial["fits"] == threaded["fits"]


def _full_length_pairings(config):
    """The pairings of path 0 of ``model_bound_probe(config)``, keyed by
    ``(tau, lambda, eps)``, rebuilt from the public full-length functions:
    the increments, the stationary hat process and ``mollify`` of the whole
    extended signal, on the probe's grid (2T of history, then the N steps)."""
    dt, n = config.dt, config.n_grid
    m_max = max(mollification_weights(dt, e)[2] for e in config.eps_list)
    pad = round(2 * config.T / dt) + m_max + 2
    s = pad + n // 2  # T/2
    inc = brownian_increments(n + pad, dt, config.seed, 0)
    hat = stationary_hat_process(inc, config.kernel, dt)
    w = np.concatenate(([0.0], np.cumsum(inc)))
    out = {}
    for e in config.eps_list:
        w_dot, hat_sm = mollify(w, dt, e)[1], mollify(hat, dt, e)[0]
        terms = renormalised_terms(c_eps(e, config.kernel)[0], config.spec, config.powers)
        for lam in config.lambdas:
            h = roughsim._steps(lam, dt)
            ks = slice(s - h, s + h + 1)
            phi = roughsim._rho_eps(np.arange(-h, h + 1) * dt, lam)
            dw, dhat, dhat_sm = inc[ks], hat[ks] - hat[s], hat_sm[ks] - hat_sm[s]
            out["Xi", lam, e] = np.sum(phi * (w_dot[ks] * dt - dw))
            out["I(Xihat)", lam, e] = np.sum(phi * (dhat_sm - dhat)) * dt
            for k in config.powers:
                smooth = sum(c * w_dot[ks] ** xi * dhat_sm**j for (xi, j), c in terms[k].items())
                name = f"Xi*I(Xihat)^{k}" if k > 1 else "Xi*I(Xihat)"
                out[name, lam, e] = np.sum(phi * (smooth * dt - dhat**k * dw))
    return out


@pytest.mark.parametrize(
    "widths",
    [
        {},
        # 64 + 64 steps = N/2: the smoothed window ends at the grid's end
        {"eps_list": (0.25, 0.125), "lambdas": (0.25, 0.125)},
        # widths off the grid: the outermost mollifier weights and test-function
        # values are not 0, so a window one point too short changes the pairings
        {"eps_list": (0.05, 0.03), "lambdas": (0.03, 0.02)},
        # T off a power of two: 2T is 512 steps of 0.7/256, and 54 + 45 window
        # steps stay within N/2
        {"T": 0.7, "lambdas": (0.15, 0.1)},
        # a rougher kernel, whose history weighs more against the window
        {"H": 0.1},
        {"powers": (1, 2, 3)},
    ],
)
def test_windowed_probe_equals_full_length_smoothing(widths):
    config = SimConfig(**{**_PROBE, "n_paths": 1, **widths})
    want = _full_length_pairings(config)
    rows = model_bound_probe(config)["rows"]
    assert len(rows) == len(want)
    for row in rows:
        expected = abs(want[row["tau"], row["lambda"], row["eps"]])
        assert row["rms_pairing"] == pytest.approx(expected, rel=1e-12, abs=0), row


# N = 256: 0.45 is 115 steps and 97/256 is 97, each with 32 for eps = 1/8 above N/2 = 128
@pytest.mark.parametrize("lam", [0.45, 97 / 256])
def test_window_past_the_grid_end_is_a_config_error(lam):
    probe = SimConfig(**{**_PROBE, "lambdas": (lam, 0.125)})
    with pytest.raises(ConfigError, match=r"lambda=.* plus eps=0.125 must be at most T/2 = 0.5"):
        model_bound_probe(probe)


def _run_in_chunks(monkeypatch, experiment, config, paths):
    """``experiment(config)`` with the byte budget set to give chunks of
    ``paths`` paths, and the chunk sizes it used."""
    sizes = []
    chunks = roughsim._path_chunks

    def budgeted(n_paths, points):
        monkeypatch.setattr(roughsim, "_CHUNK_BYTES", 8 * points * paths)
        out = chunks(n_paths, points)
        sizes.append([len(chunk) for chunk in out])
        return out

    monkeypatch.setattr(roughsim, "_path_chunks", budgeted)
    result = experiment(config)
    monkeypatch.setattr(roughsim, "_path_chunks", chunks)
    return result, sizes


def test_path_chunks_cover_the_paths_in_order(monkeypatch):
    monkeypatch.setattr(roughsim, "_CHUNK_BYTES", 8 * 100 * 3)
    assert roughsim._path_chunks(7, 100) == [range(0, 3), range(3, 6), range(6, 7)]
    assert roughsim._path_chunks(7, 301) == [range(p, p + 1) for p in range(7)]  # at least one
    assert roughsim._path_chunks(2, 1) == [range(0, 2)]


@pytest.mark.parametrize("threads", [1, 2])
def test_chunks_change_no_result(monkeypatch, threads):
    # 7 paths in chunks of 1, of 3 (3, 3, 1) and of all 7: every result is
    # bit for bit the one-path-at-a-time result, with one thread or two
    base = dict(H=0.3, kappa=0.01, n_grid=256, n_paths=7, seed=11, eps_list=(0.125, 0.0625))
    probe = SimConfig(**{**_PROBE, "n_paths": 7, "threads": threads})
    wz_serial, _ = _run_in_chunks(monkeypatch, wz_experiment, SimConfig(**base), 1)
    probe_serial, _ = _run_in_chunks(
        monkeypatch, model_bound_probe, SimConfig(**{**_PROBE, "n_paths": 7}), 1
    )
    for paths, sizes in ((1, [1] * 7), (3, [3, 3, 1]), (7, [7])):
        wz, used = _run_in_chunks(
            monkeypatch, wz_experiment, SimConfig(**base, threads=threads), paths
        )
        assert used == [sizes]
        assert wz.rows == wz_serial.rows
        assert wz.summary == wz_serial.summary
        bounds, used = _run_in_chunks(monkeypatch, model_bound_probe, probe, paths)
        assert used == [sizes]
        assert bounds["rows"] == probe_serial["rows"]
        assert bounds["fits"] == probe_serial["fits"]


def test_run_paths_caps_threads_at_cpu_count(monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(roughsim, "ThreadPoolExecutor", SerialPool)
    # the CPUs the process may run on come first: one CPU, no pool
    monkeypatch.setattr(roughsim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(roughsim.os, "cpu_count", lambda: 3)
    assert roughsim._run_paths(lambda p: p + 1, 3, 4) == [1, 2, 3]
    assert pools == []
    # without an affinity call, the CPU count caps the pool
    monkeypatch.delattr(roughsim.os, "sched_getaffinity")
    assert roughsim._run_paths(lambda p: p * p, 5, 1000) == [0, 1, 4, 9, 16]
    assert pools == [3]
    # a single chunk of paths starts no pool either
    assert roughsim._run_paths(lambda p: p - 1, 1, 1000) == [-1]
    assert pools == [3]
    monkeypatch.setattr(roughsim.os, "cpu_count", lambda: None)
    assert roughsim._run_paths(lambda p: -p, 3, 1000) == [0, -1, -2]
    assert pools == [3]  # one usable CPU: no pool


def test_model_bound_probe_shapes():
    rep = model_bound_probe(
        SimConfig(
            H=0.3,
            kappa=0.01,
            n_grid=256,
            n_paths=8,
            seed=3,
            eps_list=(0.125, 0.0625),
            lambdas=(0.25, 0.125),
            powers=(1,),
        )
    )
    taus = {row["tau"] for row in rep["rows"]}
    assert taus == {"Xi", "I(Xihat)", "Xi*I(Xihat)"}
    assert list(rep["timings"]) == ["c_eps", "expansion", "paths", "route"]
    assert all(seconds > 0.0 for seconds in rep["timings"].values())
    assert set(rep["fits"]) == taus
    for fit in rep["fits"].values():
        assert set(fit) == {"lambda_exponent", "eps_exponent"}
