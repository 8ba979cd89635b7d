"""Stationary envelope profiles and breather construction."""

import json

import numpy as np
import pytest

from dklab import solitons
from dklab.dnls_models import EnvelopeState, StandardDnls, rhs
from dklab.errors import NewtonDivergenceError, RegimeError
from dklab.integrators import IntegratorConfig, integrate
from dklab.lattice_core import energy_dkg, l2_norm
from dklab.solitons import (
    SolitonProfile,
    breather_return_error,
    build_breather_initial,
    solve_soliton,
    stationary_defect,
    tail_decay_ratios,
)


def linear_tail_rate(omega_s):
    """Magnitude of the decaying root of the linearized tail recursion
    r^2 + 2 omega_s r + 1 = 0 (independent closed-form oracle)."""
    return abs(omega_s) - np.sqrt(omega_s**2 - 1.0)


class TestStationaryDefect:
    def test_zero_profile(self):
        assert np.all(stationary_defect(np.zeros(9), 1.5, 1.0) == 0.0)

    def test_linear_case_one_hot(self):
        # nu = 0: only the zero profile solves; the defect of a one-hot
        # profile is explicit
        A = np.zeros(9)
        A[4] = 1.0
        d = stationary_defect(A, 1.5, 0.0)
        assert d[4] == pytest.approx(-3.0)
        assert d[3] == pytest.approx(-1.0)
        assert d[5] == pytest.approx(-1.0)
        assert np.any(d != 0.0)

    def test_uncoupled_caricature_root(self):
        A = np.zeros(9)
        A[4] = np.sqrt(2.0 * 1.5 / 3.0)
        d = stationary_defect(A, 1.5, 1.0)
        assert d[4] == pytest.approx(0.0, abs=1e-15)  # neighbours are zero


class TestSolveSoliton:
    def test_single_site_converges_fast(self):
        prof = solve_soliton(1.5, 1.0, 16)
        assert prof.iterations <= 10
        assert prof.newton_residual <= 1e-10
        assert np.max(np.abs(stationary_defect(prof.A, 1.5, 1.0))) <= 1e-10

    def test_profile_even_and_single_humped(self):
        prof = solve_soliton(1.5, 1.0, 16)
        assert np.max(np.abs(prof.A - prof.A[::-1])) < 1e-12
        mags = np.abs(prof.A)
        assert np.argmax(mags) == 16  # centred
        flank = mags[16:]
        assert np.all(np.diff(flank) < 0.0)

    def test_tail_ratio_matches_linear_theory(self):
        prof = solve_soliton(1.5, 1.0, 16)
        ratios = tail_decay_ratios(prof)
        rate = linear_tail_rate(1.5)
        assert 0.0 < rate < 1.0
        assert ratios[-1] == pytest.approx(rate, rel=0.02)
        # the signed neighbour ratio alternates on this side of the band
        signed = prof.A[17:22] / prof.A[16:21]
        assert np.all(signed < 0.0)

    def test_quadratic_convergence_window(self):
        # one Newton step takes the defect from ~1e-4 scale to <= 1e-8:
        # perturb the solved profile and iterate once by hand
        prof = solve_soliton(1.5, 1.0, 16)
        n = len(prof.A)
        rng = np.random.default_rng(0)
        A = prof.A + 1e-5 * rng.standard_normal(n)
        d0 = np.max(np.abs(stationary_defect(A, 1.5, 1.0)))
        assert 1e-6 < d0 < 1e-3
        off = np.zeros((n, n))
        idx = np.arange(n)
        off[idx, (idx + 1) % n] = off[idx, (idx - 1) % n] = 1.0
        jac = np.diag(-3.0 + 9.0 * A**2) - off
        A = A - np.linalg.solve(jac, stationary_defect(A, 1.5, 1.0))
        assert np.max(np.abs(stationary_defect(A, 1.5, 1.0))) <= 1e-8

    def test_cubic_scaling_symmetry(self):
        a1 = solve_soliton(1.5, 1.0, 16).A
        a4 = solve_soliton(1.5, 4.0, 16).A
        assert np.max(np.abs(a4 - a1 / 2.0)) <= 1e-10

    def test_empty_seed_returns_zero(self):
        prof = solve_soliton(1.5, 1.0, 8, seed_sites=())
        assert np.all(prof.A == 0.0)
        assert prof.newton_residual == 0.0

    def test_multi_site_sign_patterns_distinct(self):
        # the in-phase pair only exists away from the band edge (it is not
        # Newton-reachable at Omega_s = 1.5), hence Omega_s = 2
        up_up = solve_soliton(2.0, 1.0, 16, seed_sites={0: 1, 1: 1})
        up_dn = solve_soliton(2.0, 1.0, 16, seed_sites={0: 1, 1: -1})
        assert np.sign(up_up.A[16]) == np.sign(up_up.A[17]) == 1.0
        assert np.sign(up_dn.A[16]) == 1.0 and np.sign(up_dn.A[17]) == -1.0
        assert np.max(np.abs(up_up.A - up_dn.A)) > 0.1

    def test_in_phase_pair_not_reachable_at_band_edge(self):
        with pytest.raises(NewtonDivergenceError):
            solve_soliton(1.5, 1.0, 16, seed_sites={0: 1, 1: 1})

    def test_band_interior_rejected(self):
        with pytest.raises(ValueError):
            solve_soliton(0.5, 1.0, 8)

    def test_negative_side_of_band(self):
        # for nu > 0 only the zero profile solves the system below the band
        # (Newton used to collapse onto it and report success)
        for omega_s in (-1.2, -1.5, -2.0, -3.0):
            with pytest.raises(ValueError, match="below -1 only the zero profile"):
                solve_soliton(omega_s, 1.0, 16)
        with pytest.raises(ValueError, match="band"):
            SolitonProfile(np.zeros(5), -1.5, 1.0, 0.0, 0)

    def test_divergence_carries_last_iterate(self, monkeypatch):
        # a hopeless seed far outside any basin: huge frequency with a tiny
        # iteration budget
        monkeypatch.setattr(solitons, "MAX_NEWTON_ITERATIONS", 1)
        with pytest.raises(NewtonDivergenceError, match="no convergence in 1 iterations") as ei:
            solve_soliton(1.5, 1.0, 16, seed_sites={0: 1, 2: -1, 5: 1})
        assert ei.value.last_iterate.shape == (33,)

    def test_serialization(self, tmp_path):
        prof = solve_soliton(1.5, 1.0, 8)
        d = prof.to_json_dict()
        assert json.dumps(d)  # JSON-able
        path = tmp_path / "prof.csv"
        prof.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,A"
        assert len(lines) == 1 + 17


class TestBreatherConstruction:
    def test_zero_profile_zero_state(self):
        prof = solve_soliton(1.5, 1.0, 8, seed_sites=())
        state = build_breather_initial(prof, 0.05, 0.05)
        assert np.all(state.x == 0.0) and np.all(state.y == 0.0)

    def test_single_site_structure(self):
        prof = solve_soliton(1.5, 1.0, 32)
        eps = rho = 0.05
        state = build_breather_initial(prof, eps, rho)
        # even about the centre, zero initial velocity (real envelope)
        assert np.max(np.abs(state.x - state.x[::-1])) < 1e-12
        assert np.all(state.y == 0.0)
        # ||x|| ~ 2 ||A|| up to the O(rho) third-harmonic correction
        assert abs(l2_norm(state.x) - 2.0 * l2_norm(prof.A)) <= 2.0 * rho

    def test_rho_nu_consistency_enforced(self):
        prof = solve_soliton(1.5, 1.0, 8)
        with pytest.raises(ValueError):
            build_breather_initial(prof, 0.05, 0.01)

    def test_profile_is_stationary_under_rhs(self):
        # a = A e^{i Omega_s tau} solves the envelope equation exactly
        prof = solve_soliton(1.5, 1.0, 32)
        a = prof.A.astype(complex)
        deviation = rhs(StandardDnls(prof.nu), a) - 1j * prof.Omega_s * a
        assert np.max(np.abs(deviation)) <= 1e-10

    def test_envelope_run_rotates_at_omega_s(self):
        prof = solve_soliton(1.5, 1.0, 32)
        traj = integrate(
            EnvelopeState(prof.A, 0.0), StandardDnls(prof.nu), IntegratorConfig(1e-3, 1.0, 1000)
        )
        assert traj.final.tau == pytest.approx(1.0)
        assert np.max(np.abs(traj.final.a - prof.A * np.exp(1.5j))) <= 1e-9


class TestBreatherReturn:
    def test_zero_profile_zero_errors(self):
        prof = solve_soliton(1.5, 1.0, 8, seed_sites=())
        rep = breather_return_error(prof, 0.1, 0.1, 1)
        assert np.all(rep.errors == 0.0)

    def test_horizon_refusal(self):
        prof = solve_soliton(1.5, 1.0, 16)
        with pytest.raises(RegimeError):
            breather_return_error(prof, 0.05, 0.05, 100)

    def test_regime_gate(self):
        # eps * Omega_s = 0.6 shifts the carrier frequency out of the
        # small-amplitude regime; the refusal comes before any chain step
        prof = solve_soliton(3.0, 1.0, 8)
        with pytest.raises(RegimeError, match=r"eps=0\.2, Omega_s=3\.0\) exceeds .* 0\.5"):
            breather_return_error(prof, 0.2, 0.2, 1)

    def test_coarse_dt_stays_under_step_cap(self):
        # dt = 0.1 rounds the period 5.84 to 58 steps of 0.1008, above the
        # largest step IntegratorConfig accepts; the run takes 59 instead
        prof = solve_soliton(1.5, 1.0, 16)
        rep = breather_return_error(prof, 0.05, 0.05, 1, dt=0.1)
        assert rep.errors[0] < 0.1

    def test_return_errors_small_and_no_blowup(self):
        prof = solve_soliton(1.5, 1.0, 32)
        eps = rho = 0.1
        rep = breather_return_error(prof, eps, rho, 1)
        # one period of an approximate breather: error well below the
        # amplitude scale (full multi-period check in the acceptance suite)
        assert rep.errors[0] < 10.0 * eps
        assert rep.period == pytest.approx(2 * np.pi / (1 + eps * 1.5), rel=1e-4)

    def test_energy_conserved_along_breather_run(self):
        prof = solve_soliton(1.5, 1.0, 32)
        eps = rho = 0.1
        state = build_breather_initial(prof, eps, rho)
        e0 = energy_dkg(state, eps, rho)
        assert e0 > 0.0
