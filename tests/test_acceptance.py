"""Acceptance suite: every contract criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The full suite takes a couple of minutes; the long
items are the error-scaling sweeps (criteria 3-5) and the long-horizon
conservation run (criterion 6).

Criterion 8a checks that at eps = 1e-4 the exact smallness threshold
rho_star = 1/(96 (1+e) C_star) lies within 5% of its small-coupling limit
Omega / (64 C_h1 (1+e)).
"""

import time

import numpy as np
import pytest

from dklab.approximation import (
    JustificationConfig,
    envelope_model,
    fit_scaling_exponent,
    residual_direct,
    residual_expanded,
    run_justification,
    window_top,
)
from dklab.dnls_models import (
    GeneralizedDnls,
    NormalFormDnls,
    StandardDnls,
    rhs,
    second_derivative,
)
from dklab.integrators import IntegratorConfig, _rk4_step, integrate
from dklab.lattice_core import ModelParams, energy_dkg
from dklab.normal_form import (
    decay_certificate,
    h_omega,
    keff_energy,
    sqrt_circulant,
    sqrt_circulant_series,
    thresholds,
)
from dklab.solitons import (
    breather_return_error,
    build_breather_initial,
    solve_soliton,
    tail_decay_ratios,
)

EPS_SWEEP = (0.1, 0.05, 0.025)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def soliton64():
    return solve_soliton(1.5, 1.0, 64)


@pytest.fixture(scope="module")
def soliton32():
    return solve_soliton(1.5, 1.0, 32)


@pytest.fixture(scope="module")
def standard_sweep(soliton64):
    """Standard-regime error-scaling sweep, shared by criteria 3 and 5."""
    a0 = soliton64.A.astype(complex)
    out = {}
    for eps in EPS_SWEEP:
        out[eps] = run_justification(
            JustificationConfig(epsilon=eps, rho=eps, a0=a0, regime="standard", tau0=1.0)
        )
    return out


def test_01_residual_transcription_identity(soliton32):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    eps = 0.1
    worst = 0.0
    for _ in range(20):
        a = 0.5 * (rng.standard_normal(65) + 1j * rng.standard_normal(65))
        for regime in ("standard", "generalized"):
            rho = window_top(regime, eps)
            for t in (0.0, 1.3):
                d = residual_direct(a, regime, eps, rho, t)
                e = residual_expanded(a, regime, eps, rho, t)
                worst = max(worst, float(np.max(np.abs(d - e))))
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    report(1, ok, f"max |direct-expanded| = {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_02_residual_scaling(soliton32):
    t0 = time.time()
    a0 = soliton32.A.astype(complex)
    lines = []
    ok = True
    for regime, p in (("standard", 2), ("generalized", 3)):
        sups = {}
        for eps in EPS_SWEEP:
            rho = window_top(regime, eps)
            model = envelope_model(regime, eps, rho)
            fun = lambda z: rhs(model, z)  # noqa: E731
            a = a0.copy()
            dtau = 1e-3
            sup = 0.0
            for i in range(10000):  # tau in (0, 10]  <=>  t in (0, 10/eps]
                a = _rk4_step(a, fun, dtau)
                if (i + 1) % 10 == 0:
                    t = (i + 1) * dtau / eps
                    sup = max(sup, float(np.linalg.norm(residual_direct(a, regime, eps, rho, t))))
            sups[eps] = sup / eps**p
        spread = max(sups.values()) / min(sups.values())
        ok = ok and spread <= 2.0
        lines.append(f"{regime}: sup||Res||/eps^{p} in "
                     f"[{min(sups.values()):.3f}, {max(sups.values()):.3f}] spread {spread:.2f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(2, ok, "; ".join(lines) + f" ({elapsed:.1f}s)")
    assert ok


def test_03_error_scaling_standard(standard_sweep):
    pairs = [(eps, rep.sup_error) for eps, rep in standard_sweep.items()]
    slope, r2 = fit_scaling_exponent(pairs)
    ratios = {eps: rep.ratio for eps, rep in standard_sweep.items()}
    ok = 0.8 <= slope <= 1.2
    report(3, ok, f"slope {slope:.3f} (r2={r2:.4f}), sup/scale ratios "
                  + ", ".join(f"{e}:{r:.2f}" for e, r in ratios.items()))
    assert 0.8 <= slope <= 1.2


def test_04_error_scaling_generalized(soliton64):
    # Half the soliton amplitude: the criterion pins regime, sweep and
    # horizon but not the envelope size, and the asymptotic window at these
    # eps needs the cubic-in-amplitude corrections reduced.
    t0 = time.time()
    a0 = 0.5 * soliton64.A.astype(complex)
    pairs = []
    for eps in EPS_SWEEP:
        rep = run_justification(
            JustificationConfig(
                epsilon=eps, rho=eps**2, a0=a0, regime="generalized", tau0=1.0
            )
        )
        pairs.append((eps, rep.sup_error))
    slope, r2 = fit_scaling_exponent(pairs)
    elapsed = time.time() - t0
    ok = 0.8 <= slope <= 1.2 and elapsed < 900.0
    report(4, ok, f"slope {slope:.3f} (r2={r2:.4f}) in {elapsed:.0f}s")
    assert 0.8 <= slope <= 1.2
    assert elapsed < 900.0


def test_05_extended_horizon(standard_sweep, soliton64):
    t0 = time.time()
    eps = rho = 0.05
    c_meas = standard_sweep[eps].ratio  # sup_error / (rho^-1 eps^2) on T0
    rep = run_justification(
        JustificationConfig(
            epsilon=eps,
            rho=rho,
            a0=soliton64.A.astype(complex),
            regime="standard",
            horizon="T0star",
            big_a=0.5,
            alpha=0.5,
        )
    )
    bound = c_meas * rep.bound_scale  # C * rho^(-1-alpha) eps^2
    ok = rep.sup_error <= bound
    elapsed = time.time() - t0
    report(
        5,
        ok and elapsed < 600.0,
        f"sup {rep.sup_error:.4f} <= {bound:.4f} over [0, {rep.times[-1]:.1f}] "
        f"(A=0.5, alpha=0.5, C={c_meas:.2f}) in {elapsed:.0f}s",
    )
    assert ok
    assert elapsed < 600.0


def test_06_conservation_suite(soliton64):
    t0 = time.time()
    eps = rho = 0.05
    params = ModelParams(eps, rho, 64)
    state0 = build_breather_initial(soliton64, eps, rho)
    e0 = energy_dkg(state0, eps, rho)
    cfg = IntegratorConfig(1e-3, 1000.0, observer_stride=1000)
    traj = integrate(
        state0,
        params,
        cfg,
        observers=[lambda t, s: {"e": energy_dkg(s, eps, rho)}],
    )
    verlet_drift = float(np.max(np.abs(traj.diagnostics["e"] - e0)) / abs(e0))

    # envelope norm drift over tau = 10
    a = soliton64.A.astype(complex)
    model = StandardDnls(1.0)
    fun = lambda z: rhs(model, z)  # noqa: E731
    n0 = float(np.sum(np.abs(a) ** 2))
    dnls_drift = 0.0
    for i in range(10000):
        a = _rk4_step(a, fun, 1e-3)
        if (i + 1) % 100 == 0:
            dnls_drift = max(dnls_drift, abs(float(np.sum(np.abs(a) ** 2)) - n0) / n0)

    # truncated normal-form energies over t = 10
    coeffs = sqrt_circulant(16, 0.2)
    nf = NormalFormDnls(coeffs.Omega, float(coeffs.b[0]), float(coeffs.b[1]))
    rng = np.random.default_rng(11)
    psi = 0.3 * (rng.standard_normal(33) + 1j * rng.standard_normal(33))
    k0 = keff_energy(psi, coeffs, order=2)
    h0 = h_omega(psi, coeffs.Omega)
    fun_nf = lambda z: rhs(nf, z)  # noqa: E731
    keff_drift = homega_drift = 0.0
    for i in range(10000):
        psi = _rk4_step(psi, fun_nf, 1e-3)
        if (i + 1) % 100 == 0:
            keff_drift = max(keff_drift, abs(keff_energy(psi, coeffs, order=2) - k0) / abs(k0))
            homega_drift = max(homega_drift, abs(h_omega(psi, coeffs.Omega) - h0) / abs(h0))

    elapsed = time.time() - t0
    ok = (
        verlet_drift <= 1e-6
        and dnls_drift <= 1e-8
        and keff_drift <= 1e-9
        and homega_drift <= 1e-9
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"verlet {verlet_drift:.2e} (<=1e-6), envelope norm {dnls_drift:.2e} "
        f"(<=1e-8), K_eff {keff_drift:.2e} / H_Omega {homega_drift:.2e} "
        f"(<=1e-9) in {elapsed:.0f}s",
    )
    assert verlet_drift <= 1e-6
    assert dnls_drift <= 1e-8
    assert keff_drift <= 1e-9
    assert homega_drift <= 1e-9
    assert elapsed < 120.0


def test_07_normal_form_algebra():
    t0 = time.time()
    worst_recon = 0.0
    worst_dense = 0.0
    certs_ok = True
    for N in (8, 32):
        for eps in (0.1, 0.3, 0.45):
            c = sqrt_circulant(N, eps)
            n = 2 * N + 1
            row = np.concatenate(([c.Omega], c.b, c.b[::-1]))
            lam = np.fft.fft(row).real
            a_row = np.fft.ifft(lam**2).real
            target = np.zeros(n)
            target[0], target[1], target[-1] = 1.0, -eps, -eps
            worst_recon = max(worst_recon, float(np.max(np.abs(a_row - target))))
            certs_ok = certs_ok and decay_certificate(c, tolerance=0.1).holds
    for N in (8, 16):
        for eps in (0.1, 0.3, 0.45):
            c = sqrt_circulant(N, eps)
            n = 2 * N + 1
            A = np.zeros((n, n))
            for i in range(n):
                A[i, i] = 1.0
                A[i, (i + 1) % n] -= eps
                A[i, (i - 1) % n] -= eps
            w, V = np.linalg.eigh(A)
            dense_row = (V @ np.diag(np.sqrt(w)) @ V.T)[0]
            worst_dense = max(
                worst_dense,
                float(np.max(np.abs(dense_row[1 : N + 1] - c.b))),
                abs(dense_row[0] - c.Omega),
            )
    # limits and the series oracle for b1
    limits_ok = True
    prev = np.inf
    for eps in (1e-2, 1e-3, 1e-4):
        c = sqrt_circulant(16, eps)
        gap = abs(c.Omega - 1.0) + float(np.max(np.abs(c.b)))
        limits_ok = limits_ok and gap < prev and abs(c.b[0] + eps / 2) <= eps**2
        series_b1 = sqrt_circulant_series(16, eps, order=6)[1]
        limits_ok = limits_ok and abs(c.b[0] - series_b1) <= max((2 * eps) ** 7, 1e-15)
        prev = gap
    elapsed = time.time() - t0
    ok = worst_recon <= 1e-12 and worst_dense <= 1e-12 and certs_ok and limits_ok
    ok = ok and elapsed < 5.0
    report(
        7,
        ok,
        f"recon {worst_recon:.1e} (<=1e-12), dense match {worst_dense:.1e} "
        f"(<=1e-12), decay certs {certs_ok}, small-eps limits {limits_ok} "
        f"in {elapsed:.1f}s",
    )
    assert ok


def test_08a_threshold_matches_closed_form_approximation():
    # As eps -> 0, gamma -> 2 Omega and the shape factor -> 1, so the exact
    # rho_star tends to Omega/(64 C_h1 (1+e)); at eps = 1e-4 it must already
    # lie within 5% of that limit.
    eps = 1e-4
    coeffs = sqrt_circulant(32, eps)
    cert = decay_certificate(coeffs)
    tc = thresholds(cert.C_fit, 1.0, eps, coeffs.Omega)
    rel = abs(tc.rho_star - tc.rho_star_approx) / tc.rho_star_approx
    ok = rel <= 0.05
    report(
        "8a",
        ok,
        f"rho_star {tc.rho_star:.5f} vs approx {tc.rho_star_approx:.5f} "
        f"(rel dev {rel:.2%}, ratio {tc.rho_star / tc.rho_star_approx:.4f})",
    )
    assert rel <= 0.05


def test_08b_gamma_window():
    eps = 1e-4
    coeffs = sqrt_circulant(32, eps)
    cert = decay_certificate(coeffs)
    tc = thresholds(cert.C_fit, 1.0, eps, coeffs.Omega)
    ok = tc.f_eps > 1.0 and coeffs.Omega < tc.gamma < 2.0 * coeffs.Omega
    report("8b", ok, f"f(eps)={tc.f_eps:.2f} > 1, gamma={tc.gamma:.4f} in "
                     f"({coeffs.Omega:.4f}, {2 * coeffs.Omega:.4f})")
    assert ok


def test_09_soliton_solver():
    t0 = time.time()
    prof = solve_soliton(1.5, 1.0, 16)
    ratios = tail_decay_ratios(prof)
    even = float(np.max(np.abs(prof.A - prof.A[::-1])))
    prof4 = solve_soliton(1.5, 4.0, 16)
    scaling_err = float(np.max(np.abs(prof4.A - prof.A / 2.0)))
    elapsed = time.time() - t0
    ok = (
        prof.iterations <= 10
        and prof.newton_residual <= 1e-10
        and even <= 1e-12
        and np.all((ratios > 0.0) & (ratios < 1.0))
        and abs(ratios[-1] - ratios[-2]) < 0.01  # approaches a constant
        and scaling_err <= 1e-10
        and elapsed < 1.0
    )
    report(
        9,
        ok,
        f"{prof.iterations} iterations, defect {prof.newton_residual:.1e}, "
        f"|tail ratio| -> {ratios[-1]:.4f}, nu-scaling err {scaling_err:.1e} "
        f"in {elapsed:.2f}s",
    )
    assert ok


def test_10_breather_return_error(soliton64):
    t0 = time.time()
    eps = rho = 0.05
    period_budget = 1.0 / eps
    # largest k with k*T <= 1/eps
    rep1 = breather_return_error(soliton64, eps, rho, 1)
    k_max = int(np.floor(period_budget / rep1.period))
    rep = breather_return_error(soliton64, eps, rho, k_max)
    elapsed = time.time() - t0
    # no secular blow-up on the horizon: growth in k stays essentially linear
    k = np.arange(1, k_max + 1)
    no_blowup = bool(np.all(rep.errors <= 1.15 * k * rep.errors[0]))
    ok = bool(np.all(rep.errors <= 10.0 * eps)) and no_blowup and elapsed < 300.0
    report(
        10,
        ok,
        f"T={rep.period:.3f}, k=1..{k_max}, errors "
        + ", ".join(f"{e:.4f}" for e in rep.errors)
        + f" (<= {10 * eps}, sub-linear growth {no_blowup}) in {elapsed:.0f}s",
    )
    assert np.all(rep.errors <= 10.0 * eps)
    assert no_blowup
    assert elapsed < 300.0


def test_11_gradient_consistency():
    t0 = time.time()
    rng = np.random.default_rng(7)
    coeffs = sqrt_circulant(8, 0.2)
    psi = 0.4 * (rng.standard_normal(17) + 1j * rng.standard_normal(17))
    h = 1e-6
    worst_grad = 0.0
    for order, b2 in ((1, None), (2, float(coeffs.b[1]))):
        grad = np.zeros(17, dtype=complex)
        for j in range(17):
            e = np.zeros(17)
            e[j] = h
            dre = (keff_energy(psi + e, coeffs, order) - keff_energy(psi - e, coeffs, order)) / (2 * h)
            dim = (keff_energy(psi + 1j * e, coeffs, order) - keff_energy(psi - 1j * e, coeffs, order)) / (2 * h)
            grad[j] = 0.5 * (dre + 1j * dim)
        fd = -1j * grad
        an = rhs(NormalFormDnls(coeffs.Omega, float(coeffs.b[0]), b2), psi)
        worst_grad = max(worst_grad, float(np.max(np.abs(fd - an)) / np.max(np.abs(an))))

    worst_second = 0.0
    saved = np.random.default_rng(13)
    for model in (StandardDnls(1.0), GeneralizedDnls(1.0, 0.1),
                  NormalFormDnls(coeffs.Omega, float(coeffs.b[0]))):
        a = 0.5 * (saved.standard_normal(33) + 1j * saved.standard_normal(33))
        fun = lambda z: rhs(model, z)  # noqa: E731
        hh = 1e-5
        fd2 = (rhs(model, _rk4_step(a.copy(), fun, hh)) - rhs(model, _rk4_step(a.copy(), fun, -hh))) / (2 * hh)
        exact = second_derivative(a, model)
        worst_second = max(
            worst_second, float(np.max(np.abs(fd2 - exact)) / max(1.0, np.max(np.abs(exact))))
        )
    elapsed = time.time() - t0
    ok = worst_grad <= 1e-8 and worst_second <= 1e-7 and elapsed < 5.0
    report(
        11,
        ok,
        f"gradient rel err {worst_grad:.2e} (<=1e-8), second-derivative rel "
        f"err {worst_second:.2e} (<=1e-7) in {elapsed:.1f}s",
    )
    assert ok
