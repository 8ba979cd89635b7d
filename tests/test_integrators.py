"""Verlet and RK4 steppers, trajectory driver, blow-up guard."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from dklab import integrators
from dklab.dnls_models import EnvelopeState, StandardDnls, l2_conserved
from dklab.errors import BlowUpError
from dklab.integrators import (
    IntegratorConfig,
    integrate,
    step_dkg_verlet,
    step_envelope_rk4,
)
from dklab.lattice_core import LatticeState, ModelParams, energy_dkg


def single_site_state(n_sites, x0, y0=0.0):
    x = np.zeros(n_sites)
    y = np.zeros(n_sites)
    x[n_sites // 2] = x0
    y[n_sites // 2] = y0
    return LatticeState(x, y)


def duffing_reference(x0, v0, rho, t_end, dt=1e-6):
    """Independent scalar oracle: classical RK4 at a tiny fixed step on
    x'' = -x - rho x^3 (an uncoupled site of the chain)."""
    steps = int(round(t_end / dt))

    def f(state):
        x, v = state
        return np.array([v, -x - rho * x**3])

    s = np.array([x0, v0])
    for _ in range(steps):
        k1 = f(s)
        k2 = f(s + 0.5 * dt * k1)
        k3 = f(s + 0.5 * dt * k2)
        k4 = f(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


class TestIntegratorConfig:
    def test_dt_cap(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.2, 1.0)

    def test_t_end_before_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.01, 0.001)

    def test_scheme_tag(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.01, 1.0, scheme="leapfrog")


class TestVerletStep:
    def test_zero_fixed_point(self):
        s = LatticeState(np.zeros(9), np.zeros(9))
        out = step_dkg_verlet(s, ModelParams(0.1, 0.5, 4), 1e-2)
        assert np.all(out.x == 0.0)
        assert np.all(out.y == 0.0)
        assert out.t == pytest.approx(1e-2)

    def test_harmonic_period(self):
        # eps -> 0, rho -> 0 limit: each site is a unit oscillator of
        # period 2 pi; tiny but nonzero parameters keep ModelParams happy
        # while contributing nothing at a single excited site of a chain
        # whose neighbours stay zero.
        params = ModelParams(1e-12, 1e-12, 2)
        state = single_site_state(5, 1.0)
        n = 6300
        dt = 2 * np.pi / n  # one exact period in n steps
        for _ in range(n):
            state = step_dkg_verlet(state, params, dt)
        x, y = state.site(0)
        assert abs(x - 1.0) < 1e-5
        assert abs(y) < 1e-5

    def test_duffing_vs_reference(self):
        rho = 1.0
        params = ModelParams(1e-14, rho, 2)
        state = single_site_state(5, 1.0)
        dt = 1e-5  # fine step so the comparison error is the stepper's own
        for _ in range(int(round(1.0 / dt))):
            state = step_dkg_verlet(state, params, dt)
        ref = duffing_reference(1.0, 0.0, rho, 1.0)
        x, y = state.site(0)
        assert abs(x - ref[0]) < 1e-8
        assert abs(y - ref[1]) < 1e-8

    def test_time_reversibility(self):
        rng = np.random.default_rng(4)
        params = ModelParams(0.2, 0.8, 5)
        s0 = LatticeState(rng.standard_normal(11), rng.standard_normal(11))
        dt = 5e-2
        back = step_dkg_verlet(step_dkg_verlet(s0, params, dt), params, -dt)
        assert np.max(np.abs(back.x - s0.x)) < 1e-13
        assert np.max(np.abs(back.y - s0.y)) < 1e-13

    def test_shift_equivariance(self):
        rng = np.random.default_rng(6)
        params = ModelParams(0.15, 0.4, 5)
        s0 = LatticeState(rng.standard_normal(11), rng.standard_normal(11))
        a = step_dkg_verlet(s0.shifted(3), params, 1e-2)
        b = step_dkg_verlet(s0, params, 1e-2).shifted(3)
        assert np.max(np.abs(a.x - b.x)) < 1e-14
        assert np.max(np.abs(a.y - b.y)) < 1e-14

    def test_energy_error_second_order(self):
        # halving dt quarters the max energy drift over a fixed horizon
        rng = np.random.default_rng(12)
        params = ModelParams(0.1, 0.3, 8)
        x = 0.5 * rng.standard_normal(17)
        y = 0.5 * rng.standard_normal(17)

        def max_drift(dt):
            state = LatticeState(x, y)
            e0 = energy_dkg(state, params.epsilon, params.rho)
            cfg = IntegratorConfig(dt, 10.0, observer_stride=10, scheme="verlet")
            traj = integrate(
                state,
                params,
                cfg,
                observers=[
                    lambda t, s: {"e": energy_dkg(s, params.epsilon, params.rho)}
                ],
                keep_snapshots=False,
            )
            return np.max(np.abs(traj.diagnostics["e"] - e0))

        ratio = max_drift(2e-3) / max_drift(1e-3)
        assert 3.2 <= ratio <= 4.8


class TestVerletKernel:
    @pytest.mark.parametrize("layout", ["strided", "big-endian"])
    def test_unsuitable_arrays_take_numpy_path(self, layout, monkeypatch):
        # the C kernel takes only contiguous native float64 vectors
        rng = np.random.default_rng(9)
        x0 = 0.5 * rng.standard_normal(33)
        y0 = 0.5 * rng.standard_normal(33)
        if layout == "strided":
            def prepare(v):
                out = np.zeros(2 * len(v))[::2]
                out[:] = v
                return out
        else:
            def prepare(v):
                return v.astype(">f8")
        x, y = prepare(x0), prepare(y0)
        f = integrators._dkg_force(x, 0.1, 0.4)
        xr, yr, fr = (v.copy() for v in (x, y, f))
        integrators._advance_verlet_numpy(xr, yr, fr, 0.1, 0.4, 1e-2, 50)

        calls = []
        numpy_loop = integrators._advance_verlet_numpy
        monkeypatch.setattr(
            integrators,
            "_advance_verlet_numpy",
            lambda *args: calls.append(1) or numpy_loop(*args),
        )
        integrators._advance_verlet(x, y, f, 0.1, 0.4, 1e-2, 50)
        assert calls == [1]
        for got, want in ((x, xr), (y, yr), (f, fr)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_loader_builds_with_cc_and_gives_none_on_unusable_cache(self, tmp_path, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        load = integrators._compiled_kernel.__wrapped__  # bypass the per-process cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "built"))
        assert load() is not None
        (name,) = (p.name for p in (tmp_path / "built" / "dklab").iterdir())

        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert load() is None

        corrupt = tmp_path / "corrupt" / "dklab"
        corrupt.mkdir(parents=True)
        (corrupt / name).write_bytes(b"not a shared library")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "corrupt"))
        assert load() is None

    def test_source_ships_next_to_module(self):
        # an installed package builds the kernel from its own copy of the source
        source = integrators._KERNEL_SOURCE
        assert source == Path(integrators.__file__).with_name("_verlet.c")
        assert "dklab_advance_verlet" in source.read_text()


class TestRk4Step:
    def test_zero(self):
        env = EnvelopeState(np.zeros(9, dtype=complex))
        out = step_envelope_rk4(env, StandardDnls(1.0), 1e-2)
        assert np.all(out.a == 0.0)

    def test_constant_envelope_matches_closed_form(self):
        c0 = 0.6 + 0.1j
        nu = 1.0
        env = EnvelopeState(np.full(9, c0))
        model = StandardDnls(nu)
        dt = 1e-3
        for _ in range(1000):
            env = step_envelope_rk4(env, model, dt)
        w = -(1.0 - 1.5 * nu * abs(c0) ** 2)
        expected = c0 * np.exp(1j * w * 1.0)
        assert np.max(np.abs(env.a - expected)) < 1e-10

    def test_fourth_order_convergence(self):
        # Richardson self-convergence on a spatially structured envelope
        # (a plane wave is too benign: its endpoint error is already at the
        # rounding floor for any reasonable step)
        rng = np.random.default_rng(21)
        a0 = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        model = StandardDnls(1.0)

        def endpoint(dt):
            env = EnvelopeState(a0)
            for _ in range(int(round(1.0 / dt))):
                env = step_envelope_rk4(env, model, dt)
            return env.a

        reference = endpoint(5e-5)
        e1 = np.max(np.abs(endpoint(4e-3) - reference))
        e2 = np.max(np.abs(endpoint(2e-3) - reference))
        assert e2 <= e1 / 8.0  # ~16 for a clean fourth-order scheme


class TestIntegrateDriver:
    def test_two_snapshots_for_single_step(self):
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 1e-2, observer_stride=1, scheme="verlet")
        traj = integrate(s, ModelParams(0.1, 0.5, 2), cfg)
        assert len(traj.times) == 2
        assert len(traj.snapshots) == 2
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1e-2)

    def test_scheme_state_mismatch(self):
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 1.0, scheme="rk4")
        with pytest.raises(ValueError):
            integrate(s, ModelParams(0.1, 0.5, 2), cfg)

    def test_dkg_energy_drift_short(self):
        # short version of the conservation contract (full horizon in the
        # acceptance suite)
        params = ModelParams(0.05, 0.05, 16)
        rng = np.random.default_rng(3)
        state = LatticeState(
            0.3 * rng.standard_normal(33), 0.3 * rng.standard_normal(33)
        )
        e0 = energy_dkg(state, params.epsilon, params.rho)
        cfg = IntegratorConfig(1e-3, 50.0, observer_stride=100, scheme="verlet")
        traj = integrate(
            state,
            params,
            cfg,
            observers=[lambda t, s: {"e": energy_dkg(s, params.epsilon, params.rho)}],
            keep_snapshots=False,
        )
        drift = np.max(np.abs(traj.diagnostics["e"] - e0)) / abs(e0)
        assert drift < 1e-6

    def test_dnls_norm_drift_short(self):
        rng = np.random.default_rng(5)
        a0 = 0.5 * (rng.standard_normal(33) + 1j * rng.standard_normal(33))
        env = EnvelopeState(a0)
        n0 = l2_conserved(a0)
        cfg = IntegratorConfig(1e-3, 5.0, observer_stride=50, scheme="rk4")
        traj = integrate(
            env,
            StandardDnls(1.0),
            cfg,
            observers=[lambda t, s: {"n": l2_conserved(s.a)}],
            keep_snapshots=False,
        )
        drift = np.max(np.abs(traj.diagnostics["n"] - n0)) / n0
        assert drift < 1e-8

    def test_blow_up_detection(self):
        # a huge displacement with the cap step makes the cubic force
        # overflow within a few steps; the driver must abort cleanly
        x = np.zeros(5)
        x[2] = 9.9e5  # inside the guard, but the first step explodes
        s = LatticeState(x, np.zeros(5))
        cfg = IntegratorConfig(0.1, 10.0, observer_stride=1, scheme="verlet")
        with pytest.raises(BlowUpError) as exc_info:
            with np.errstate(over="ignore", invalid="ignore"):
                integrate(s, ModelParams(0.01, 1.0, 2), cfg)
        assert exc_info.value.last_good_time >= 0.0

    def test_out_of_range_initial_state(self):
        # 2e6 lies beyond BLOWUP_LIMIT already at t = 0: the guard fires
        # before the first step and before any observer sees the state
        x = np.zeros(5)
        x[2] = 2e6
        seen = []
        cfg = IntegratorConfig(0.1, 1.0, observer_stride=1, scheme="verlet")
        with pytest.raises(BlowUpError, match="initial state out of range") as exc_info:
            integrate(
                LatticeState(x, np.zeros(5)),
                ModelParams(0.01, 1.0, 2),
                cfg,
                observers=[lambda t, s: seen.append(t) or {}],
            )
        assert seen == []
        assert exc_info.value.last_good_time == 0.0

    def test_clock_tags(self):
        env = EnvelopeState(np.zeros(5, dtype=complex))
        cfg = IntegratorConfig(1e-2, 1e-1, scheme="rk4")
        assert integrate(env, StandardDnls(1.0), cfg).clock == "slow"
        from dklab.dnls_models import NormalFormDnls

        assert integrate(env, NormalFormDnls(1.0, -0.1), cfg).clock == "fast"
        s = single_site_state(5, 0.1)
        cfg_v = IntegratorConfig(1e-2, 1e-1, scheme="verlet")
        assert integrate(s, ModelParams(0.1, 0.5, 2), cfg_v).clock == "fast"

    def test_trajectory_csv(self, tmp_path):
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 0.1, observer_stride=2, scheme="verlet")
        traj = integrate(
            s,
            ModelParams(0.1, 0.5, 2),
            cfg,
            observers=[lambda t, st: {"energy": energy_dkg(st, 0.1, 0.5)}],
        )
        path = tmp_path / "traj.csv"
        traj.write_csv(path, config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1] == "t,energy"
        assert len(lines) == 2 + len(traj.times)

    def test_sample_sink_streaming(self):
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 0.1, observer_stride=5, scheme="verlet")
        seen = []
        traj = integrate(
            s,
            ModelParams(0.1, 0.5, 2),
            cfg,
            keep_snapshots=False,
            sample_sink=lambda t, st, d: seen.append(t),
        )
        assert traj.snapshots == []
        assert seen == list(traj.times)
