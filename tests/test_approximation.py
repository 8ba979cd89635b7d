"""Two-harmonic ansatz, residual transcriptions, error energy, harness."""

import numpy as np
import pytest

from dklab.approximation import (
    JustificationConfig,
    error_energy,
    error_energy_rate,
    fit_scaling_exponent,
    leading_order,
    residual_direct,
    residual_expanded,
    run_justification,
    window_top,
)
from dklab.dnls_models import StandardDnls, rhs
from dklab.errors import BlowUpError, RegimeError
from dklab.solitons import solve_soliton


def rk4_oracle(a, fun, h, steps=1):
    for _ in range(steps):
        k1 = fun(a)
        k2 = fun(a + 0.5 * h * k1)
        k3 = fun(a + 0.5 * h * k2)
        k4 = fun(a + h * k3)
        a = a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def random_envelope(rng, n=33, scale=0.5):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestLeadingOrder:
    def test_zero(self):
        a = np.zeros(9, dtype=complex)
        ans = leading_order(a, a, 0.1, 0.1, 0.0)
        assert np.all(ans.X == 0.0)
        assert np.all(ans.Xdot == 0.0)

    def test_first_harmonic_only_at_t0(self):
        a = np.zeros(9, dtype=complex)
        a[4] = 0.5
        ans = leading_order(a, rhs(StandardDnls(1.0), a), 0.0, 0.05, 0.0)
        assert ans.X[4] == pytest.approx(1.0)  # a e^0 + conj = 2 Re a
        assert np.all(ans.X[np.arange(9) != 4] == 0.0)

    def test_real_valued_by_construction(self):
        rng = np.random.default_rng(1)
        a = random_envelope(rng)
        ans = leading_order(a, rhs(StandardDnls(0.7), a), 0.07, 0.1, 3.3)
        assert ans.X.dtype == np.float64
        assert ans.Xdot.dtype == np.float64
        assert np.all(np.isfinite(ans.X))

    def test_xdot_matches_finite_difference_along_flow(self):
        # advance the envelope by +-eps*h and difference X(t +- h)
        rng = np.random.default_rng(2)
        eps, rho = 0.1, 0.08
        model = StandardDnls(rho / eps)
        a = random_envelope(rng)
        fun = lambda z: rhs(model, z)  # noqa: E731
        t, h = 1.7, 1e-5
        x_p = leading_order(
            rk4_oracle(a.copy(), fun, eps * h), fun(rk4_oracle(a.copy(), fun, eps * h)),
            rho, eps, t + h,
        ).X
        x_m = leading_order(
            rk4_oracle(a.copy(), fun, -eps * h), fun(rk4_oracle(a.copy(), fun, -eps * h)),
            rho, eps, t - h,
        ).X
        fd = (x_p - x_m) / (2.0 * h)
        exact = leading_order(a, fun(a), rho, eps, t).Xdot
        assert np.max(np.abs(fd - exact)) < 1e-7


class TestResidualIdentity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("regime", ("standard", "generalized"))
    def test_expanded_equals_direct(self, regime, seed):
        rng = np.random.default_rng(seed)
        a = random_envelope(rng)
        eps = 0.1
        rho = window_top(regime, eps)
        scale = max(1.0, np.max(np.abs(a)) ** 3)
        for t in (0.0, 0.9, 17.3):
            d = residual_direct(a, regime, eps, rho, t)
            e = residual_expanded(a, regime, eps, rho, t)
            assert np.max(np.abs(d - e)) <= 1e-11 * scale

    def test_zero_envelope(self):
        a = np.zeros(9, dtype=complex)
        assert np.all(residual_direct(a, "standard", 0.1, 0.1, 0.3) == 0.0)
        assert np.all(residual_expanded(a, "standard", 0.1, 0.1, 0.3) == 0.0)

    def test_mismatched_model_rejected(self):
        # residuals are defined for the two slow-clock regimes only
        a = np.zeros(9, dtype=complex)
        for residual in (residual_direct, residual_expanded):
            with pytest.raises(RegimeError, match="unknown regime 'normalform'"):
                residual(a, "normalform", 0.1, 0.1, 0.0)

    def test_residual_scaling_single_eps(self):
        # ||Res|| = O(eps^2) at rho = eps (full sweep in the acceptance suite)
        profile = solve_soliton(1.5, 1.0, 32)
        a = profile.A.astype(complex)
        for eps, bound in ((0.1, 10.0), (0.05, 10.0)):
            r = residual_direct(a, "standard", eps, eps, 0.4)
            assert np.linalg.norm(r) <= bound * eps**2


class TestErrorEnergy:
    def test_zero(self):
        z = np.zeros(9)
        assert error_energy(z, z, z, 0.1, 0.1) == (0.0, 0.0)

    def test_decoupled_quadratic(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(11)
        yd = rng.standard_normal(11)
        e, q = error_energy(y, yd, np.zeros(11), 0.0, 0.0)
        ref = 0.5 * (np.sum(yd**2) + np.sum(y**2))
        assert e == pytest.approx(ref, rel=1e-14)
        assert q == pytest.approx(np.sqrt(ref), rel=1e-14)

    def test_coercivity_constant_four(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            y = rng.standard_normal(21)
            yd = rng.standard_normal(21)
            X = rng.standard_normal(21)
            e, _ = error_energy(y, yd, X, 0.2, 0.5)
            assert np.sum(yd**2) + np.sum(y**2) <= 4.0 * e + 1e-12

    def test_coercivity_domain(self):
        z = np.zeros(5)
        with pytest.raises(ValueError):
            error_energy(z, z, z, 0.25, 0.1)

    def test_rate_zero_cases(self):
        z = np.zeros(7)
        assert error_energy_rate(z, z, z, z, z, 0.3) == 0.0
        rng = np.random.default_rng(5)
        y = rng.standard_normal(7)
        yd = rng.standard_normal(7)
        X = rng.standard_normal(7)
        Xd = rng.standard_normal(7)
        # Res = 0 and rho = 0: linear homogeneous error flow conserves E
        assert error_energy_rate(y, yd, X, Xd, np.zeros(7), 0.0) == 0.0

    def test_rate_matches_finite_difference_along_error_flow(self):
        # integrate the true error equation for the coupled system and
        # difference E(t) numerically around a sample
        from dklab.integrators import _advance_verlet, _dkg_force, _rk4_step

        eps = rho = 0.08
        profile = solve_soliton(1.5, 1.0, 32)
        a = profile.A.astype(complex)
        model = StandardDnls(1.0)
        fun = lambda z: rhs(model, z)  # noqa: E731
        ans0 = leading_order(a, fun(a), rho, eps, 0.0)
        x = ans0.X.copy()
        yv = x * 0.0
        # perturb the chain so the error is nonzero from the start
        rng = np.random.default_rng(6)
        x = x + 1e-3 * rng.standard_normal(len(x))
        ydot = ans0.Xdot + 1e-3 * rng.standard_normal(len(x))
        dt = 1e-4
        f = _dkg_force(x, eps, rho)
        energies = []
        rate_mid = None
        for step in range(3):
            # sample at t = step*dt
            t = step * dt
            ans = leading_order(a, fun(a), rho, eps, t)
            yerr = x - ans.X
            yderr = ydot - ans.Xdot
            e, _ = error_energy(yerr, yderr, ans.X, eps, rho)
            energies.append(e)
            if step == 1:
                res = residual_direct(a, "standard", eps, rho, t)
                rate_mid = error_energy_rate(yerr, yderr, ans.X, ans.Xdot, res, rho)
            _advance_verlet(x, ydot, f, eps, rho, dt, 1)
            a = _rk4_step(a, fun, eps * dt)
        fd = (energies[2] - energies[0]) / (2.0 * dt)
        assert rate_mid == pytest.approx(fd, rel=5e-4)

    def test_q_differential_inequality_along_flow(self):
        # |dQ/dt| <= ||Res|| + 6 rho Q ||X|| ||X'|| + 12 rho Q^2 ||X||
        #            + 8 rho Q^3,
        # the input to the Gronwall argument, checked by finite-differencing
        # Q along an actual coupled trajectory with nonzero error
        from dklab.integrators import _advance_verlet, _dkg_force, _rk4_step
        from dklab.lattice_core import l2_norm

        eps = rho = 0.08
        profile = solve_soliton(1.5, 1.0, 32)
        a = profile.A.astype(complex)
        model = StandardDnls(1.0)
        fun = lambda z: rhs(model, z)  # noqa: E731
        ans0 = leading_order(a, fun(a), rho, eps, 0.0)
        rng = np.random.default_rng(9)
        x = ans0.X + 5e-3 * rng.standard_normal(len(ans0.X))
        ydot = ans0.Xdot + 5e-3 * rng.standard_normal(len(ans0.X))
        dt = 1e-4
        f = _dkg_force(x, eps, rho)
        qs = []
        mid = None
        for step in range(3):
            t = step * dt
            ans = leading_order(a, fun(a), rho, eps, t)
            yerr = x - ans.X
            yderr = ydot - ans.Xdot
            _, q = error_energy(yerr, yderr, ans.X, eps, rho)
            qs.append(q)
            if step == 1:
                res_norm = float(
                    np.linalg.norm(residual_direct(a, "standard", eps, rho, t))
                )
                nx, nxd = l2_norm(ans.X), l2_norm(ans.Xdot)
                mid = res_norm + 6 * rho * q * nx * nxd + 12 * rho * q**2 * nx + 8 * rho * q**3
            _advance_verlet(x, ydot, f, eps, rho, dt, 1)
            a = _rk4_step(a, fun, eps * dt)
        dq_fd = abs(qs[2] - qs[0]) / (2.0 * dt)
        assert dq_fd <= mid * (1.0 + 1e-3) + 1e-12


class TestFitScalingExponent:
    def test_exact_square(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        slope, r2 = fit_scaling_exponent([(e, e**2) for e in eps])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_any_constant(self):
        eps = [0.2, 0.1, 0.05]
        slope, _ = fit_scaling_exponent([(e, 7.3 * e) for e in eps])
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_square(self):
        eps = np.geomspace(0.01, 0.1, 9)
        vals = eps**2 * (1.0 + 0.1 * np.sin(1.0 / eps))
        slope, _ = fit_scaling_exponent(list(zip(eps, vals)))
        assert abs(slope - 2.0) < 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            fit_scaling_exponent([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)])


class TestJustificationHarness:
    def test_zero_envelope_zero_error(self):
        cfg = JustificationConfig(
            epsilon=0.1, rho=0.1, a0=np.zeros(17, dtype=complex), tau0=0.05
        )
        rep = run_justification(cfg)
        assert rep.sup_error == 0.0
        assert np.all(rep.Q == 0.0)

    def test_regime_rejections(self):
        a0 = np.zeros(17, dtype=complex)
        with pytest.raises(RegimeError):
            run_justification(
                JustificationConfig(epsilon=0.1, rho=0.1**3, a0=a0, regime="standard")
            )
        with pytest.raises(RegimeError):
            run_justification(
                JustificationConfig(epsilon=0.1, rho=0.2, a0=a0, regime="standard")
            )
        with pytest.raises(RegimeError):
            run_justification(
                JustificationConfig(epsilon=0.1, rho=0.1, a0=a0, regime="generalized")
            )
        with pytest.raises(RegimeError):
            JustificationConfig(
                epsilon=0.1, rho=0.1, a0=a0, horizon="T0star", alpha=1.5
            ).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_stride", 0),
            ("sample_stride", -1),
            ("dt", 0.0),
            ("dt", 0.2),
            ("dt", float("nan")),
        ],
    )
    def test_step_and_stride_rejections(self, field, value):
        cfg = JustificationConfig(
            epsilon=0.1, rho=0.1, a0=np.zeros(17, dtype=complex), **{field: value}
        )
        with pytest.raises(RegimeError):
            cfg.validate()

    @pytest.mark.parametrize("amplitude", [1e3, 50.0])
    def test_overflowing_envelope_raises_blowup(self, amplitude):
        # 1e3 is the CLI's `justify --a0 onehot --amplitude-scale 1e3` input;
        # at 50 the chain stays bounded while the envelope RK4 step is
        # unstable, so only the envelope check can catch it
        a0 = np.zeros(129, dtype=complex)
        a0[64] = amplitude
        cfg = JustificationConfig(epsilon=0.05, rho=0.05, a0=a0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as info:
                run_justification(cfg)
        assert info.value.last_good_time == 0.0

    def test_report_consistency(self, small_justify_report):
        rep = small_justify_report
        # error_norm <= 2 sqrt(4 E) = 4 Q sample-wise (coercivity)
        assert np.all(rep.error_norm <= 4.0 * rep.Q + 1e-12)
        assert rep.sup_error == pytest.approx(np.max(rep.error_norm))
        assert rep.ratio == pytest.approx(rep.sup_error / rep.bound_scale)
        assert np.all(np.diff(rep.times) > 0.0)

    def test_initial_error_zero_without_perturbation(self, small_justify_report):
        assert small_justify_report.error_norm[0] == 0.0

    def test_c0_knob_sets_initial_error_scale(self):
        prof = solve_soliton(1.5, 1.0, 32)
        cfg = JustificationConfig(
            epsilon=0.1,
            rho=0.1,
            a0=prof.A.astype(complex),
            tau0=0.02,
            c0_scale=0.5,
            seed=7,
        )
        rep = run_justification(cfg)
        scale = cfg.bound_scale
        assert rep.error_norm[0] == pytest.approx(0.5 * scale, rel=1e-6)

    def test_sup_error_monotone_in_horizon(self):
        prof = solve_soliton(1.5, 1.0, 32)
        a0 = prof.A.astype(complex)
        sups = [
            run_justification(
                JustificationConfig(epsilon=0.1, rho=0.1, a0=a0, tau0=tau0)
            ).sup_error
            for tau0 in (0.25, 0.5, 1.0)
        ]
        assert sups[0] <= sups[1] <= sups[2]

    def test_extended_horizon_smoke(self):
        prof = solve_soliton(1.5, 1.0, 32)
        cfg = JustificationConfig(
            epsilon=0.1,
            rho=0.1,
            a0=prof.A.astype(complex),
            horizon="T0star",
            big_a=0.05,
            alpha=0.5,
        )
        rep = run_justification(cfg)
        assert rep.config.horizon == "T0star"
        assert rep.bound_scale == pytest.approx(0.1**2 * 0.1 ** (-1.5))
        assert rep.times[-1] == pytest.approx(0.05 * abs(np.log(0.1)) / 0.1, rel=1e-2)

    def test_report_csv(self, tmp_path, small_justify_report):
        path = tmp_path / "rep.csv"
        small_justify_report.write_csv(path, config_hash="cafe")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=cafe"
        assert lines[1] == "t,error_norm,Q,bound_scale"
        assert len(lines) == 2 + len(small_justify_report.times)

    def test_boundary_decay_warning_for_small_chain(self):
        prof = solve_soliton(1.5, 1.0, 12)
        cfg = JustificationConfig(
            epsilon=0.1, rho=0.1, a0=prof.A.astype(complex), tau0=0.02
        )
        with pytest.warns(UserWarning, match="boundary"):
            run_justification(cfg)


@pytest.fixture(scope="module")
def small_justify_report():
    prof = solve_soliton(1.5, 1.0, 32)
    cfg = JustificationConfig(
        epsilon=0.1, rho=0.1, a0=prof.A.astype(complex), tau0=0.2, sample_stride=50
    )
    return run_justification(cfg)
