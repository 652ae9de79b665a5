"""Simulation harness: fractional paths, mollification, correction
constant, experiment plumbing."""

import math

import numpy as np
import pytest

from roughrenorm.errors import ConfigError
from roughrenorm.roughsim import (  # noqa: F401
    KernelSpec,
    MollifierSpec,
    SimConfig,
    TestFunction as FunctionSpec,
    brownian_increments,
    c_eps,
    c_eps_timedep,
    fbm_rl,
    model_bound_probe,
    mollification_weights,
    mollify,
    stationary_hat_process,
    wz_experiment,
)


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
    moll = MollifierSpec("bump")
    w, dw, m = mollification_weights(dt, eps, moll)
    assert m >= 4
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert dw.sum() == pytest.approx(0.0, abs=1e-12)
    u = dt * np.arange(len(dw))
    assert -(dw * u).sum() == pytest.approx(1.0, abs=1e-12)


def test_mollify_preserves_constants_and_slopes():
    n, dt, eps = 512, 1 / 512, 1 / 16
    moll = MollifierSpec("bump")
    t = dt * np.arange(n + 1)
    const = np.full(n + 1, 2.5)
    sm, dv, m = mollify(const, dt, eps, moll)
    assert np.allclose(sm[m:-m], 2.5, atol=1e-12)
    assert np.allclose(dv[m:-m], 0.0, atol=1e-10)
    lin = 3.0 * t + 1.0
    sm, dv, m = mollify(lin, dt, eps, moll)
    assert np.allclose(dv[m:-m], 3.0, atol=1e-8)


def test_mollify_rejects_coarse_grid():
    with pytest.raises(ConfigError):
        mollification_weights(1 / 8, 1 / 8, MollifierSpec("bump"))


def test_c_eps_scaling_exponent():
    kernel = KernelSpec(H=0.3, T=1.0)
    moll = MollifierSpec("bump")
    eps = [2.0**-k for k in range(3, 8)]
    vals = [c_eps(e, kernel, moll) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert slope == pytest.approx(0.3 - 0.5, abs=0.01)


def test_c_eps_timedep_matches_constant_away_from_origin():
    moll = MollifierSpec("bump")
    kernel = KernelSpec(H=0.3, T=1.0)
    eps = 1 / 16
    const = c_eps(eps, kernel, moll)
    late = c_eps_timedep(0.5, eps, 0.3, moll)
    assert late == pytest.approx(const, rel=1e-4)


def test_c_eps_monte_carlo_cross_check():
    # independent estimate of \int\int rho(a) rho(b) khat(a-b) da db
    moll = MollifierSpec("bump")
    kernel = KernelSpec(H=0.35, T=1.0)
    eps = 1 / 8
    exact = c_eps(eps, kernel, moll)
    rng = np.random.default_rng(12)
    n = 400_000
    a = rng.uniform(-eps, eps, n)
    b = rng.uniform(-eps, eps, n)
    weights = moll.rho_eps(a, eps) * moll.rho_eps(b, eps) * (2 * eps) ** 2
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


def test_sim_config_text_round_trip():
    cfg = SimConfig(
        H=0.3,
        kappa=0.01,
        n_grid=256,
        n_paths=4,
        seed=7,
        eps_list=(0.125, 0.0625),
        lambdas=(0.25, 1 / 3),
        powers=(1, 3),
    )
    text = cfg.to_text()
    assert "lambda = 0.25,0.3333333333333333" in text and "powers = 1,3" in text
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


def test_wz_experiment_threaded_matches_serial():
    base = dict(H=0.3, kappa=0.01, n_grid=256, n_paths=6, seed=42, eps_list=(0.125,))
    serial = wz_experiment(SimConfig(**base, threads=1))
    threaded = wz_experiment(SimConfig(**base, threads=4))
    assert serial.rows == threaded.rows


def test_model_bound_probe_shapes():
    rep = model_bound_probe(
        H=0.3,
        kappa=0.01,
        n_grid=256,
        n_paths=8,
        seed=3,
        eps_list=(0.125, 0.0625),
        lambdas=(0.25, 0.125),
        n_powers=(1,),
    )
    taus = {row["tau"] for row in rep["rows"]}
    assert taus == {"Xi", "I(Xihat)", "Xi*I(Xihat)"}
    assert set(rep["fits"]) == taus
    for fit in rep["fits"].values():
        assert set(fit) == {"lambda_exponent", "eps_exponent"}
