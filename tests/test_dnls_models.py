"""Envelope right-hand sides, exact second derivatives, conserved norm."""

import warnings

import numpy as np
import pytest

from dklab.dnls_models import (
    EnvelopeState,
    GeneralizedDnls,
    NormalFormDnls,
    StandardDnls,
    l2_conserved,
    rhs,
    rhs_generalized,
    rhs_normalform,
    rhs_standard,
    second_derivative,
    warn_outside_asymptotic_range,
)
from dklab.normal_form import keff_energy, sqrt_circulant


def rk4_oracle(a, fun, h, steps=1):
    """Independent classical RK4 used only as a test oracle."""
    for _ in range(steps):
        k1 = fun(a)
        k2 = fun(a + 0.5 * h * k1)
        k3 = fun(a + 0.5 * h * k2)
        k4 = fun(a + h * k3)
        a = a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def random_envelope(rng, n=33, scale=0.5):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


ALL_MODELS = [
    StandardDnls(0.8),
    GeneralizedDnls(0.9, 0.1),
    NormalFormDnls(1.0, -0.05, -0.002),
    NormalFormDnls(1.0, -0.05),
]


class TestStandardRhs:
    def test_zero(self):
        assert np.all(rhs_standard(np.zeros(9, dtype=complex), 1.0) == 0.0)

    def test_one_hot(self):
        a = np.zeros(9, dtype=complex)
        a[4] = 1.0
        out = rhs_standard(a, 0.7)
        assert out[4] == pytest.approx(1.5j * 0.7)  # -(i/2)(-3 nu)
        assert out[3] == pytest.approx(-0.5j)
        assert out[5] == pytest.approx(-0.5j)
        assert np.all(out[:3] == 0.0)

    def test_constant_sequence_matches_plane_wave_rate(self):
        # constant envelope c: a' = -i (1 - 3 nu |c|^2 / 2) c
        c = 0.4 - 0.3j
        nu = 0.9
        a = np.full(7, c)
        expected = -1j * (1.0 - 1.5 * nu * abs(c) ** 2) * c
        assert np.allclose(rhs_standard(a, nu), expected, atol=1e-15)


class TestGeneralizedRhs:
    def test_zero(self):
        assert np.all(rhs_generalized(np.zeros(9, dtype=complex), 1.0, 0.1) == 0.0)

    def test_small_eps_limit_is_linear_nearest_neighbour(self):
        rng = np.random.default_rng(2)
        a = random_envelope(rng)
        lin = -0.5j * (np.roll(a, -1) + np.roll(a, 1))
        diffs = []
        for eps in (1e-2, 1e-3, 1e-4):
            diffs.append(np.max(np.abs(rhs_generalized(a, 1.0, eps) - lin)))
        diffs = np.array(diffs)
        # deviation vanishes linearly with eps
        assert np.all(diffs[1:] / diffs[:-1] == pytest.approx(0.1, rel=0.05))

    def test_constant_sequence_rate(self):
        c = 0.2 + 0.5j
        delta, eps = 0.8, 0.1
        a = np.full(9, c)
        expected = -0.5j * c * (2.0 + eps - 3.0 * eps * delta * abs(c) ** 2)
        assert np.allclose(rhs_generalized(a, delta, eps), expected, atol=1e-15)

    def test_converges_to_standard_at_rate_eps(self):
        # with delta = nu/eps the cubic terms match and the remaining
        # next-nearest linear block is O(eps)
        rng = np.random.default_rng(3)
        a = random_envelope(rng)
        nu = 0.6
        ref = rhs_standard(a, nu)
        errs = []
        for eps in (1e-2, 1e-3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # delta = nu/eps > 1 warns
                out = rhs_generalized(a, nu / eps, eps)
            errs.append(np.max(np.abs(out - ref)))
        assert errs[1] == pytest.approx(errs[0] * 0.1, rel=0.05)


class TestNormalFormRhs:
    def test_zero(self):
        assert np.all(rhs_normalform(np.zeros(9, dtype=complex), 1.0, -0.1) == 0.0)

    def test_decoupled_single_site_circular_orbit(self):
        r = 0.7
        psi = np.zeros(9, dtype=complex)
        psi[4] = r
        out = rhs_normalform(psi, 1.2, 0.0, 0.0)
        assert out[4] == pytest.approx(-1j * (1.2 + 0.75 * r**2) * r)
        assert np.all(out[np.arange(9) != 4] == 0.0)

    def test_matches_gradient_of_keff(self):
        # psi' must equal -i d K_eff / d conj(psi), checked by central
        # finite differences in the real and imaginary parts
        rng = np.random.default_rng(5)
        coeffs = sqrt_circulant(8, 0.2)
        psi = random_envelope(rng, n=17, scale=0.4)
        h = 1e-6
        for order, b2 in ((1, None), (2, float(coeffs.b[1]))):
            grad = np.zeros(17, dtype=complex)
            for j in range(17):
                e = np.zeros(17)
                e[j] = h
                dre = (
                    keff_energy(psi + e, coeffs, order)
                    - keff_energy(psi - e, coeffs, order)
                ) / (2 * h)
                dim = (
                    keff_energy(psi + 1j * e, coeffs, order)
                    - keff_energy(psi - 1j * e, coeffs, order)
                ) / (2 * h)
                grad[j] = 0.5 * (dre + 1j * dim)
            fd = -1j * grad
            an = rhs_normalform(psi, coeffs.Omega, float(coeffs.b[0]), b2)
            assert np.max(np.abs(fd - an)) <= 1e-8 * np.max(np.abs(an))


class TestSecondDerivative:
    def test_zero(self):
        for model in ALL_MODELS:
            n = np.zeros(9, dtype=complex)
            assert np.all(second_derivative(n, model) == 0.0)

    def test_plane_wave_closed_form(self):
        # c(tau) = c0 exp(i w tau), w = -(1 - 3 nu |c0|^2/2): a'' = -w^2 c
        c0 = 0.5 + 0.2j
        nu = 0.8
        w = -(1.0 - 1.5 * nu * abs(c0) ** 2)
        a = np.full(9, c0)
        add = second_derivative(a, StandardDnls(nu))
        assert np.allclose(add, -(w**2) * c0, atol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_matches_finite_difference_along_flow(self, model):
        rng = np.random.default_rng(7)
        a = random_envelope(rng)
        h = 1e-5
        fun = lambda z: rhs(model, z)  # noqa: E731
        forward = rhs(model, rk4_oracle(a.copy(), fun, h))
        backward = rhs(model, rk4_oracle(a.copy(), fun, -h))
        fd = (forward - backward) / (2 * h)
        exact = second_derivative(a, model)
        assert np.max(np.abs(fd - exact)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


class TestSharedProperties:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_norm_conservation_identity(self, model):
        # d/dt ||a||^2 = 2 sum Re(conj(a) a') = 0 analytically
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = random_envelope(rng)
            ad = rhs(model, a)
            rate = 2.0 * float(np.sum(np.real(np.conj(a) * ad)))
            assert abs(rate) <= 1e-13 * l2_conserved(a)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_shift_equivariance(self, model):
        rng = np.random.default_rng(17)
        a = random_envelope(rng)
        shifted = np.roll(a, -3)
        assert np.allclose(rhs(model, shifted), np.roll(rhs(model, a), -3), atol=1e-15)

    def test_phase_invariance_of_norm(self):
        rng = np.random.default_rng(19)
        a = random_envelope(rng)
        assert l2_conserved(a * np.exp(0.7j)) == pytest.approx(l2_conserved(a), rel=1e-14)

    def test_l2_conserved_one_hot(self):
        a = np.zeros(9, dtype=complex)
        a[2] = 1.5j
        assert l2_conserved(a) == pytest.approx(2.25)
        assert l2_conserved(np.zeros(5, dtype=complex)) == 0.0


class TestValidationAndWarnings:
    def test_standard_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            StandardDnls(0.0)

    # each warning names the code that built the model, not the
    # dataclass-generated __init__ ("<string>")
    def test_standard_warns_above_one(self):
        with pytest.warns(UserWarning) as record:
            StandardDnls(1.5)
        assert [w.filename for w in record] == [__file__]

    def test_generalized_warns_above_one(self):
        with pytest.warns(UserWarning) as record:
            GeneralizedDnls(2.0, 0.1)
        assert [w.filename for w in record] == [__file__]

    def test_normalform_sign_constraints(self):
        with pytest.raises(ValueError):
            NormalFormDnls(1.0, 0.1)
        with pytest.raises(ValueError):
            NormalFormDnls(1.0, -0.1, 0.5)
        NormalFormDnls(1.0, 0.0, 0.0)  # degenerate uncoupled case is fine

    def test_degeneracy_warning(self):
        with pytest.warns(UserWarning, match="nu=0.05"):
            warn_outside_asymptotic_range(StandardDnls(0.05), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_outside_asymptotic_range(StandardDnls(0.5), 0.1)


class TestEnvelopeState:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        env = EnvelopeState(random_envelope(rng, n=9), tau=2.5)
        path = tmp_path / "env.csv"
        env.write_csv(path)
        back = EnvelopeState.read_csv(path)
        assert np.array_equal(back.a, env.a)
        assert back.tau == env.tau

    def test_json_round_trip(self):
        rng = np.random.default_rng(29)
        env = EnvelopeState(random_envelope(rng, n=7), tau=0.25)
        back = EnvelopeState.from_json_dict(env.to_json_dict())
        assert np.array_equal(back.a, env.a)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeState(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            EnvelopeState(np.array([1.0, np.nan + 0j, 0.0]))
