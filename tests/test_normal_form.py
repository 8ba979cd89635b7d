"""Spectral square root of the coupling circulant, canonical transform,
truncated normal-form energies, smallness thresholds."""

import math

import numpy as np
import pytest

from dklab.errors import ThresholdError
from dklab.lattice_core import LatticeState
from dklab.normal_form import (
    decay_certificate,
    h0_energy_normal_coords,
    h_omega,
    keff_energy,
    linear_transform,
    mode_frequencies,
    sqrt_circulant,
    sqrt_circulant_series,
    thresholds,
)


def dense_coupling_matrix(N, eps):
    n = 2 * N + 1
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = 1.0
        A[i, (i + 1) % n] -= eps
        A[i, (i - 1) % n] -= eps
    return A


def dense_sqrt_first_row(N, eps):
    """Independent oracle: eigendecomposition of the explicit matrix."""
    A = dense_coupling_matrix(N, eps)
    w, V = np.linalg.eigh(A)
    root = V @ np.diag(np.sqrt(w)) @ V.T
    return root[0, :]


class TestModeFrequencies:
    def test_uncoupled(self):
        assert np.all(mode_frequencies(8, 0.0) == 1.0)

    def test_three_site_chain_vs_dense_eigenvalues(self):
        om = np.sort(mode_frequencies(1, 0.1))
        w = np.linalg.eigvalsh(dense_coupling_matrix(1, 0.1))
        assert np.allclose(om, np.sqrt(np.sort(w)), atol=1e-14)
        assert np.allclose(
            np.sort(om), np.sort([np.sqrt(0.8), np.sqrt(1.1), np.sqrt(1.1)]), atol=1e-14
        )

    def test_spectral_bounds(self):
        for eps in (0.1, 0.3, 0.49):
            om = mode_frequencies(16, eps)
            assert np.all(om >= np.sqrt(1 - 2 * eps) - 1e-15)
            assert np.all(om <= np.sqrt(1 + 2 * eps) + 1e-15)
            assert np.all(om > 0.0)


class TestSqrtCirculant:
    def test_uncoupled_identity(self):
        c = sqrt_circulant(8, 0.0)
        assert c.Omega == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(c.b)) < 1e-15

    @pytest.mark.parametrize("N", (8, 32))
    @pytest.mark.parametrize("eps", (0.1, 0.3, 0.45))
    def test_square_recovers_coupling_matrix(self, N, eps):
        c = sqrt_circulant(N, eps)
        n = 2 * N + 1
        row = np.concatenate(([c.Omega], c.b, c.b[::-1]))
        lam = np.fft.fft(row).real
        a_row = np.fft.ifft(lam**2).real
        target = np.zeros(n)
        target[0] = 1.0
        target[1] = target[-1] = -eps
        assert np.max(np.abs(a_row - target)) <= 1e-12

    @pytest.mark.parametrize("N", (4, 8, 16))
    def test_matches_dense_eigendecomposition(self, N):
        for eps in (0.1, 0.3, 0.45):
            c = sqrt_circulant(N, eps)
            row = dense_sqrt_first_row(N, eps)
            assert abs(c.Omega - row[0]) <= 1e-12
            assert np.max(np.abs(c.b - row[1 : N + 1])) <= 1e-12

    def test_omega_is_mean_mode_frequency(self):
        c = sqrt_circulant(24, 0.2)
        assert c.Omega == pytest.approx(np.mean(c.omega_modes), rel=1e-14)

    def test_b1_leading_order(self):
        # b1 = -eps/2 + O(eps^2), against the truncated binomial series
        for eps in (1e-2, 1e-3):
            c = sqrt_circulant(16, eps)
            assert abs(c.b[0] + 0.5 * eps) <= eps**2
            series = sqrt_circulant_series(16, eps, order=6)
            # truncation error O((2 eps)^7), but never below the FFT
            # rounding floor of the spectral route
            assert abs(c.b[0] - series[1]) <= max((2 * eps) ** 7, 1e-16)

    def test_series_truncation_error_scale(self):
        # |spectral - series(L)| = O((2 eps)^(L+1))
        N, eps = 16, 0.15
        c = sqrt_circulant(N, eps)
        full = np.concatenate(([c.Omega], c.b, c.b[::-1]))
        for order in (3, 5, 7):
            series = sqrt_circulant_series(N, eps, order=order)
            err = np.max(np.abs(series - full))
            assert err <= (2 * eps) ** (order + 1)

    def test_limits_small_coupling(self):
        # Omega -> 1 and b_m -> 0 as eps -> 0, monotonically in eps
        prev_omega_gap, prev_bmax = None, None
        for eps in (1e-2, 1e-3, 1e-4):
            c = sqrt_circulant(8, eps)
            gap, bmax = abs(c.Omega - 1.0), np.max(np.abs(c.b))
            assert gap <= eps and bmax <= eps
            if prev_omega_gap is not None:
                assert gap < prev_omega_gap and bmax < prev_bmax
            prev_omega_gap, prev_bmax = gap, bmax

    def test_json_and_decay_table(self):
        c = sqrt_circulant(8, 0.2)
        d = c.to_json_dict()
        assert d["N"] == 8 and len(d["b"]) == 8
        table = c.decay_table()
        assert table[0][0] == 1
        assert table[0][2] == pytest.approx(0.4)


class TestDecayCertificate:
    def test_uncoupled(self):
        cert = decay_certificate(sqrt_circulant(8, 0.0))
        assert cert.C_fit == 0.0
        assert cert.holds

    @pytest.mark.parametrize("eps", (0.1, 0.2, 0.3, 0.45))
    def test_holds_at_default_tolerance(self, eps):
        cert = decay_certificate(sqrt_circulant(32, eps))
        assert cert.holds
        assert cert.max_at <= 3
        assert cert.C_fit > 0.0

    def test_near_half_coupling_records_growth(self):
        c_mid = decay_certificate(sqrt_circulant(32, 0.2))
        c_hot = decay_certificate(sqrt_circulant(32, 0.45))
        assert c_hot.holds
        assert c_hot.C_fit > c_mid.C_fit  # grows toward the coupling limit


class TestLinearTransform:
    def test_zero(self):
        s = LatticeState(np.zeros(9), np.zeros(9))
        out = linear_transform(s, sqrt_circulant(4, 0.2))
        assert np.all(out.x == 0.0) and np.all(out.y == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        s = LatticeState(rng.standard_normal(17), rng.standard_normal(17))
        c = sqrt_circulant(8, 0.3)
        back = linear_transform(linear_transform(s, c, "forward"), c, "inverse")
        assert np.max(np.abs(back.x - s.x)) < 1e-13
        assert np.max(np.abs(back.y - s.y)) < 1e-13

    def test_quadratic_energy_preserved(self):
        # (1/2)(y.y + x.Ax) in original coordinates equals
        # (1/2)(p.A^(1/2)p + q.A^(1/2)q) in canonical ones
        rng = np.random.default_rng(9)
        N, eps = 8, 0.25
        x = rng.standard_normal(17)
        y = rng.standard_normal(17)
        A = dense_coupling_matrix(N, eps)
        ref = 0.5 * (y @ y + x @ (A @ x))
        c = sqrt_circulant(N, eps)
        qp = linear_transform(LatticeState(x, y), c, "forward")
        val = h0_energy_normal_coords(qp, c)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_direction_validation(self):
        s = LatticeState(np.zeros(9), np.zeros(9))
        with pytest.raises(ValueError):
            linear_transform(s, sqrt_circulant(4, 0.2), "sideways")
        with pytest.raises(ValueError):
            linear_transform(s, sqrt_circulant(5, 0.2))


class TestKeffAndHOmega:
    def test_zero(self):
        c = sqrt_circulant(8, 0.2)
        z = np.zeros(17, dtype=complex)
        assert keff_energy(z, c) == 0.0
        assert h_omega(z, c.Omega) == 0.0

    def test_constant_envelope_order1(self):
        c = sqrt_circulant(8, 0.2)
        val = keff_energy(np.full(17, 0.5 + 0.5j), c, order=1)
        mag2 = 0.5
        expected = (c.Omega + 2 * c.b[0]) * 17 * mag2 + 0.375 * 17 * mag2**2
        assert val == pytest.approx(expected, rel=1e-13)

    def test_one_hot_h_omega(self):
        z = np.zeros(9, dtype=complex)
        z[3] = 1.5j
        assert h_omega(z, 0.97) == pytest.approx(0.97 * 2.25)

    @pytest.mark.parametrize("order", (1, 2))
    def test_invariance_shift_and_phase(self, order):
        rng = np.random.default_rng(10)
        c = sqrt_circulant(8, 0.2)
        psi = 0.4 * (rng.standard_normal(17) + 1j * rng.standard_normal(17))
        base = keff_energy(psi, c, order)
        assert keff_energy(np.roll(psi, 5), c, order) == pytest.approx(base, rel=1e-13)
        assert keff_energy(psi * np.exp(1.3j), c, order) == pytest.approx(base, rel=1e-13)
        assert h_omega(np.roll(psi, 2) * np.exp(0.2j), c.Omega) == pytest.approx(
            h_omega(psi, c.Omega), rel=1e-13
        )

    def test_order2_needs_two_neighbours(self):
        with pytest.raises(ValueError):
            keff_energy(np.zeros(3, dtype=complex), sqrt_circulant(1, 0.1), order=2)

    def test_conserved_along_normalform_flow_short(self):
        # t = 1 slice of the conservation contract (t = 10 in acceptance)
        from dklab.dnls_models import NormalFormDnls
        from dklab.integrators import _rk4_step

        rng = np.random.default_rng(11)
        c = sqrt_circulant(8, 0.2)
        model = NormalFormDnls(c.Omega, float(c.b[0]), float(c.b[1]))
        psi = 0.3 * (rng.standard_normal(17) + 1j * rng.standard_normal(17))
        k0 = keff_energy(psi, c, order=2)
        h0 = h_omega(psi, c.Omega)
        for _ in range(1000):
            psi = _rk4_step(psi, model, 1e-3)
        assert abs(keff_energy(psi, c, order=2) - k0) <= 1e-10 * abs(k0)
        assert abs(h_omega(psi, c.Omega) - h0) <= 1e-10 * abs(h0)


class TestThresholds:
    def test_gamma_window(self):
        c = sqrt_circulant(16, 1e-3)
        tc = thresholds(0.25, 1.0, 1e-3, c.Omega)
        assert tc.f_eps > 1.0
        assert c.Omega < tc.gamma < 2.0 * c.Omega

    def test_threshold_error_for_large_coupling(self):
        with pytest.raises(ThresholdError):
            thresholds(1.0, 1.0, 0.49, 1.0)

    def test_displayed_formula_identities(self):
        eps, om = 1e-3, 1.0
        tc = thresholds(0.5, 2.0, eps, om)
        twoe = 2 * eps
        shape = (1 - twoe) * (1 - twoe**0.75)
        f = (3 * om / (64 * 0.5)) * shape / math.sqrt(twoe)
        assert tc.f_eps == pytest.approx(f, rel=1e-14)
        assert tc.gamma == pytest.approx(2 * om * (1 - 1 / (2 * f)), rel=1e-14)
        assert tc.C_star == pytest.approx(4 * 2.0 / (3 * tc.gamma * shape), rel=1e-14)
        assert tc.rho_star == pytest.approx(
            1.0 / (96 * (1 + math.e) * tc.C_star), rel=1e-14
        )
        # eps -> 0 in the chain above: f -> inf, gamma -> 2 om, shape -> 1,
        # C_star -> 2 C_h1 / (3 om), so rho_star -> om / (64 C_h1 (1+e))
        assert tc.rho_star_approx == pytest.approx(
            om / (64 * 2.0 * (1 + math.e)), rel=1e-14
        )
        # the closed form is the eps -> 0 limit of the exact threshold
        tiny = thresholds(0.5, 2.0, 1e-10, om)
        assert abs(tiny.rho_star / tiny.rho_star_approx - 1.0) <= 1e-3

    def test_f_grows_as_coupling_shrinks(self):
        f_vals = [thresholds(1.0, 1.0, e, 1.0).f_eps for e in (1e-3, 1e-5, 1e-7)]
        assert f_vals[0] < f_vals[1] < f_vals[2]

    def test_pipeline_from_decay_fit(self):
        # fitted decay constant feeds the threshold formulas end to end
        eps = 1e-3
        c = sqrt_circulant(16, eps)
        cert = decay_certificate(c)
        tc = thresholds(cert.C_fit, 1.0, eps, c.Omega)
        assert tc.rho_star > 0.0 and np.isfinite(tc.rho_star)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            thresholds(0.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            thresholds(1.0, 1.0, 0.7, 1.0)
