"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints a single pass line with its headline numbers so a full
run doubles as a report.  Budgets are wall-clock upper bounds asserted
alongside the numeric tolerance.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from roughrenorm.coalgebra import delta_minus
from roughrenorm.gaussian import (
    CovarianceSpec,
    SymbolicCovariance,
    g_antipode,
    isserlis_moment,
    mc_moment_oracle,
)
from roughrenorm.model import (
    SamplePath,
    check_bphz_plain,
    check_gamma_bphz,
    check_model_axioms,
    eval_pi,
    eval_pi_bphz,
)
from roughrenorm.poly import Poly
from roughrenorm.roughsim import (
    KernelSpec,
    SimConfig,
    brownian_increments,
    c_eps,
    fbm_rl,
    model_bound_probe,
    mollify,
    stationary_hat_process,
    wz_experiment,
)
from roughrenorm.structure import generic_spec, rough_vol_spec
from roughrenorm.trees import parse_symbol

D1 = ("D", 1)
D2 = ("D", 2)
X1 = ("X", 1)
X2 = ("X", 2)
VARS = (D1, D2, X1, X2)


def _forest(text):
    ((f, _),) = list(parse_symbol(text, d=2))
    return f


def _tree(text):
    return _forest(text).trees[0]


def test_01_coproduct_examples_exact():
    t0 = time.time()
    cases = {
        "Xi_1": [("1", "Xi_1", 1), ("Xi_1", "1", 1)],
        "I(Xi_1)": [
            ("1", "I(Xi_1)", 1),
            ("I", "Xi_1", 1),
            ("Xi_1", "I", 1),
            ("I(Xi_1)", "1", 1),
        ],
        "Xi_1*I(Xi_1)": [
            ("1", "Xi_1*I(Xi_1)", 1),
            ("Xi_1", "I(Xi_1)", 1),
            ("I(Xi_1)", "Xi_1", 2),
            ("Xi_1", "Xi_1*I", 1),
            ("I*Xi_1", "Xi_1", 1),
            ("Xi_1 . Xi_1", "I", 1),
            ("Xi_1*I(Xi_1)", "1", 1),
        ],
    }
    for text, pairs in cases.items():
        got = {k: c for k, c in delta_minus(parse_symbol(text, d=2))}
        expected = {(_forest(a), _forest(b)): m for a, b, m in pairs}
        assert got == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\n[1] coproduct examples exact ({elapsed:.3f}s) PASS")


def test_02_character_vanishes_on_higher_powers():
    t0 = time.time()
    spec = generic_spec(2, 8)
    rng = np.random.default_rng(100)

    def random_cov():
        entries = {}
        for a in range(4):
            for b in range(a, 4):
                entries[(VARS[a], VARS[b])] = Fraction(
                    int(rng.integers(-8, 9)), int(rng.integers(1, 9))
                )
        return CovarianceSpec(2, entries)

    covs = [random_cov() for _ in range(100)]
    checked = 0
    for n in range(2, 9):
        for text in (f"Xi_1*I(Xi_2)^{n}", f"Xi_1*I(Xi_1)^{n}"):
            x = parse_symbol(text, d=2)
            for cov in covs:
                assert g_antipode(x, cov, spec) == 0
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[2] character zero on {checked} cases ({elapsed:.2f}s) PASS")


def test_03_renormalized_closed_form_symbolic():
    t0 = time.time()
    spec = generic_spec(2, 6)
    report = check_bphz_plain(spec, 6, SymbolicCovariance(2))
    elapsed = time.time() - t0
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert elapsed < 10.0
    print(f"\n[3] closed form, {report['cases']} cases ({elapsed:.2f}s) PASS")


def test_04_transport_routes_agree():
    t0 = time.time()
    spec = generic_spec(2, 6)
    report = check_gamma_bphz(spec, 6, SymbolicCovariance(2))
    elapsed = time.time() - t0
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert elapsed < 5.0
    print(f"\n[4] transport routes, {report['cases']} cases ({elapsed:.2f}s) PASS")


def test_05_moments_vs_monte_carlo():
    t0 = time.time()
    # rational PSD covariance: A A^T with rational A
    a = np.array(
        [
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(1, 3), Fraction(-1, 2), Fraction(1), Fraction(0)],
            [Fraction(-1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
        ],
        dtype=object,
    )
    sigma = a @ a.T
    cov = CovarianceSpec.from_matrix(2, [[sigma[i, j] for j in range(4)] for i in range(4)])
    rng = np.random.default_rng(55)
    worst = 0.0
    for k in range(50):
        size = int(rng.integers(1, 7))
        mono = tuple(VARS[i] for i in rng.integers(0, 4, size))
        exact = float(isserlis_moment(mono, cov))
        est, se = mc_moment_oracle(mono, cov, n_samples=1_000_000, seed=1000 + k)
        dev = abs(est - exact) / se if se > 0 else abs(est - exact)
        worst = max(worst, dev)
        assert abs(est - exact) <= 5 * se, (mono, exact, est, se)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\n[5] 50 moments vs MC, worst {worst:.2f} SE ({elapsed:.1f}s) PASS")


def test_06_double_factorial():
    t0 = time.time()
    cov = CovarianceSpec(2, {(D1, D1): Fraction(1)})
    for k in range(1, 6):
        expected = 1
        for j in range(1, 2 * k, 2):
            expected *= j
        assert isserlis_moment((D1,) * (2 * k), cov) == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\n[6] double factorial k<=5 ({elapsed:.3f}s) PASS")


@pytest.mark.parametrize("H", [0.25, 0.4])
def test_07_fbm_terminal_variance(H):
    t0 = time.time()
    n, paths, T = 2**12, 2000, 1.0
    dt = T / n
    vals = np.array(
        [fbm_rl(brownian_increments(n, dt, 70, p), H, dt)[-1] for p in range(paths)]
    )
    second = vals**2
    se = second.std(ddof=1) / math.sqrt(paths)
    target = T ** (2 * H)
    elapsed = time.time() - t0
    assert abs(second.mean() - target) <= 5 * se
    assert elapsed < 120.0
    print(
        f"\n[7] H={H}: E[W_T^2]={second.mean():.4f} target {target} "
        f"(5SE={5 * se:.4f}, {elapsed:.1f}s) PASS"
    )


def test_08_correction_constant_scaling():
    t0 = time.time()
    H = 0.3
    kernel = KernelSpec(H=H, T=1.0)
    eps = [2.0**-k for k in range(3, 8)]
    vals = [c_eps(e, kernel)[0] for e in eps]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    elapsed = time.time() - t0
    assert abs(slope - (H - 0.5)) <= 0.05
    assert elapsed < 60.0
    print(f"\n[8] c_eps slope {slope:.4f} vs {H - 0.5} ({elapsed:.1f}s) PASS")


def test_09_wong_zakai_correction():
    t0 = time.time()
    cfg = SimConfig(
        H=0.3,
        kappa=0.01,
        n_grid=2**12,
        n_paths=200,
        seed=2024,
        eps_list=tuple(2.0**-k for k in range(3, 8)),
        f_name="sine",
        threads=4,
    )
    res = wz_experiment(cfg)
    rms_corr = [row["rms_corr"] for row in res.summary]
    rms_unc = [row["rms_uncorr"] for row in res.summary]
    violations = sum(
        1 for i in range(len(rms_corr) - 1) if rms_corr[i + 1] >= rms_corr[i]
    )
    elapsed = time.time() - t0
    assert violations <= 1, rms_corr
    assert rms_corr[-1] * 3.0 <= rms_unc[-1], (rms_corr[-1], rms_unc[-1])
    assert elapsed < 600.0
    print(
        f"\n[9] corrected rms {['%.4f' % v for v in rms_corr]} vs "
        f"uncorrected {rms_unc[-1]:.4f} ({elapsed:.1f}s) PASS"
    )


def test_10_renormalized_difference_exact_arrays():
    t0 = time.time()
    H, kappa = Fraction(1, 10), Fraction(1, 100)
    spec = rough_vol_spec(H, kappa)
    M = spec.truncation
    assert M == 5
    # mollified sample path: channel 1 white noise, channel 2 hat process
    n, T = 2**10, 1.0
    dt = T / n
    kernel = KernelSpec(H=float(H), T=T)
    eps = 1 / 16
    m = int(eps / dt)
    pad = int(round(2 * T / dt)) + m + 2
    inc = brownian_increments(n + pad, dt, 7, 0)
    w = np.concatenate(([0.0], np.cumsum(inc)))
    hat = stationary_hat_process(inc, kernel, dt)
    _, w_dot, _ = mollify(w, dt, eps)
    hat_sm, hat_dot, _ = mollify(hat, dt, eps)
    sl = slice(pad, pad + n + 1)
    path = SamplePath(
        t=dt * np.arange(n + 1),
        xi={1: w[sl], 2: hat_sm[sl]},
        xid={1: w_dot[sl], 2: hat_dot[sl]},
    )
    correction, _ = c_eps(eps, kernel)
    cov = CovarianceSpec(2, {(D1, X2): Fraction(correction)})
    s_idx = n // 2
    for nn in range(1, M + 1):
        tau = _tree(f"Xi_1*I(Xi_2)^{nn}")
        lhs = eval_pi_bphz(tau, s_idx, path, cov, spec)
        coeff = float(-nn * Fraction(correction))
        base = parse_symbol(f"I(Xi_2)^{nn - 1}" if nn > 1 else "1", d=2)
        rhs = eval_pi(parse_symbol(f"Xi_1*I(Xi_2)^{nn}", d=2), s_idx, path) + (
            coeff * eval_pi(base, s_idx, path)
        )
        assert np.array_equal(lhs, rhs), nn
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[10] renormalized difference exact, n<=M={M} ({elapsed:.1f}s) PASS")


def test_11_model_axioms():
    t0 = time.time()
    spec = generic_spec(2, 6)
    n = 256
    rng = np.random.default_rng(8)
    path = SamplePath(
        t=np.linspace(0.0, 1.0, n + 1),
        xi={
            1: 0.3 * np.cumsum(rng.normal(size=n + 1)),
            2: 0.3 * np.cumsum(rng.normal(size=n + 1)),
        },
        xid={1: rng.normal(size=n + 1), 2: rng.normal(size=n + 1)},
    )
    report = check_model_axioms(path, spec, n_triples=100, seed=77)
    elapsed = time.time() - t0
    assert report["status"] == "pass"
    assert report["worst_rel_err"] <= 1e-10
    assert elapsed < 60.0
    print(
        f"\n[11] model axioms, worst rel err {report['worst_rel_err']:.2e} "
        f"({elapsed:.1f}s) PASS"
    )


def test_12_model_bound_probe():
    t0 = time.time()
    report = model_bound_probe(
        SimConfig(
            H=0.3,
            kappa=0.01,
            n_grid=2**10,
            n_paths=100,
            seed=33,
            eps_list=tuple(2.0**-k for k in range(3, 7)),
            lambdas=(0.25, 0.125, 0.0625),
            powers=(1,),
            threads=4,
        )
    )
    elapsed = time.time() - t0
    for tau in ("Xi", "I(Xihat)", "Xi*I(Xihat)"):
        assert report["fits"][tau]["eps_exponent"] > 0, (tau, report["fits"][tau])
    assert elapsed < 600.0
    exps = {t: round(f["eps_exponent"], 3) for t, f in report["fits"].items()}
    print(f"\n[12] probe eps exponents {exps} ({elapsed:.1f}s) PASS")
