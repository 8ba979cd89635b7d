"""Chain state types, norms, energy, rescaling."""

import json

import numpy as np
import pytest

from dklab.lattice_core import (
    LatticeState,
    ModelParams,
    cyclic_shift,
    energy_dkg,
    l2_norm,
    rescale_to_standard,
)


def brute_force_energy(x, y, epsilon, rho):
    """Independent oracle: naive double loop with explicit periodic wrap."""
    n = len(x)
    total = 0.0
    for j in range(n):
        total += 0.5 * (y[j] ** 2 + x[j] ** 2)
        total -= epsilon * x[(j + 1) % n] * x[j]
        total += 0.25 * rho * x[j] ** 4
    return total


class TestL2Norm:
    def test_zero(self):
        assert l2_norm(np.zeros(9)) == 0.0

    def test_one_hot(self):
        s = np.zeros(11)
        s[4] = 3.0
        assert l2_norm(s) == 3.0

    def test_constant_ones_length_nine(self):
        assert l2_norm(np.ones(9)) == pytest.approx(3.0, abs=1e-15)

    def test_complex(self):
        assert l2_norm(np.array([3.0 + 4.0j])) == pytest.approx(5.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            l2_norm(np.array([1.0, np.inf]))

    def test_triangle_inequality_and_sup_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(17)
            v = rng.standard_normal(17)
            assert l2_norm(u + v) <= l2_norm(u) + l2_norm(v) + 1e-12
            assert np.max(np.abs(u)) <= l2_norm(u) + 1e-15


class TestLatticeState:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeState(np.zeros(4), np.zeros(4))  # even length
        with pytest.raises(ValueError):
            LatticeState(np.zeros(5), np.zeros(7))
        with pytest.raises(ValueError):
            LatticeState(np.array([1.0, np.nan, 0.0]), np.zeros(3))

    def test_immutability(self):
        s = LatticeState(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            s.x[0] = 1.0

    def test_site_indexing_periodic(self):
        x = np.arange(5.0)
        s = LatticeState(x, np.zeros(5))
        assert s.site(0)[0] == 2.0  # center of storage
        assert s.site(-2)[0] == 0.0
        assert s.site(3)[0] == s.site(3 - 5)[0]  # wrap

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        s = LatticeState(rng.standard_normal(9), rng.standard_normal(9), t=1.75)
        path = tmp_path / "state.csv"
        s.write_csv(path)
        back = LatticeState.read_csv(path)
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)
        assert back.t == s.t

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(1)
        s = LatticeState(rng.standard_normal(7), rng.standard_normal(7), t=0.3)
        blob = json.dumps(s.to_json_dict())
        back = LatticeState.from_json_dict(json.loads(blob))
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)


class TestEnergy:
    def test_vacuum(self):
        s = LatticeState(np.zeros(9), np.zeros(9))
        assert energy_dkg(s, 0.1, 0.5) == 0.0

    def test_single_site_uncoupled(self):
        x = np.zeros(9)
        x[4] = 1.0
        s = LatticeState(x, np.zeros(9))
        assert energy_dkg(s, 0.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(17)
        y = rng.standard_normal(17)
        s = LatticeState(x, y)
        val = energy_dkg(s, 0.1, 0.3)
        ref = brute_force_energy(x, y, 0.1, 0.3)
        assert val == pytest.approx(ref, rel=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(11)
        y = rng.standard_normal(11)
        s = LatticeState(x, y)
        e0 = energy_dkg(s, 0.2, 0.7)
        for k in (1, 3, 10):
            assert energy_dkg(s.shifted(k), 0.2, 0.7) == pytest.approx(e0, rel=1e-14)


class TestModelParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            ModelParams(0.6, 0.1, 8)
        with pytest.raises(ValueError):
            ModelParams(0.1, 0.0, 8)
        with pytest.raises(ValueError):
            ModelParams(0.1, 1.5, 8)
        with pytest.raises(ValueError):
            ModelParams(0.1, 0.1, 0)


class TestRescale:
    def test_direct_value(self):
        r = rescale_to_standard(0.25)
        assert r.epsilon == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert r.time_factor == pytest.approx(np.sqrt(1.5), rel=1e-15)
        assert r.amplitude_factor == pytest.approx(1.0 / np.sqrt(1.5), rel=1e-15)

    def test_monotone_bounded_injective(self):
        raws = np.linspace(1e-4, 50.0, 300)
        vals = np.array([rescale_to_standard(r).epsilon for r in raws])
        assert np.all(np.diff(vals) > 0.0)  # strictly increasing => injective
        assert np.all(vals < 0.5)
        assert np.all(vals > 0.0)

    def test_asymptote(self):
        assert rescale_to_standard(1e12).epsilon == pytest.approx(0.5, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rescale_to_standard(0.0)
        with pytest.raises(ValueError):
            rescale_to_standard(-1.0)


def test_cyclic_shift_convention():
    a = np.array([0.0, 1.0, 2.0])
    # one application moves each entry one site to the left: (a_{j+1})
    assert np.array_equal(cyclic_shift(a, 1), np.array([1.0, 2.0, 0.0]))


def test_rescaling_maps_raw_dynamics_onto_normalized_dynamics():
    """Dynamical oracle for the coupling rescaling.

    Integrate the raw chain x'' + x + x^3 = eps_raw (x_+ - 2x + x_-) and,
    separately, the diagonal-free chain with the mapped coupling from
    rescaled initial data.  The two trajectories must coincide under
    x~ = amp * x, t~ = tf * t, dx~/dt~ = amp/tf * dx/dt.
    """
    rng = np.random.default_rng(42)
    n = 11
    eps_raw = 0.25
    r = rescale_to_standard(eps_raw)
    x0 = 0.4 * rng.standard_normal(n)
    y0 = 0.4 * rng.standard_normal(n)

    def verlet(x, y, force, dt, steps):
        x, y = x.copy(), y.copy()
        f = force(x)
        for _ in range(steps):
            y += 0.5 * dt * f
            x += dt * y
            f = force(x)
            y += 0.5 * dt * f
        return x, y

    def force_raw(x):
        lap = np.roll(x, -1) - 2.0 * x + np.roll(x, 1)
        return -x - x**3 + eps_raw * lap

    def force_std(x):
        return -x - x**3 + r.epsilon * (np.roll(x, -1) + np.roll(x, 1))

    t_end = 2.0
    steps = 20000
    x_raw, y_raw = verlet(x0, y0, force_raw, t_end / steps, steps)
    # rescaled run: same physical span means t~ runs to tf * t_end
    x_std, y_std = verlet(
        r.amplitude_factor * x0,
        (r.amplitude_factor / r.time_factor) * y0,
        force_std,
        r.time_factor * t_end / steps,
        steps,
    )
    assert np.max(np.abs(x_std - r.amplitude_factor * x_raw)) < 1e-6
    assert np.max(np.abs(y_std - (r.amplitude_factor / r.time_factor) * y_raw)) < 1e-6
