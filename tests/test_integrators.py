"""Verlet and RK4 steppers, trajectory driver, blow-up guard."""

import ast
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dklab import _native, dnls_models, integrators
from dklab.dnls_models import EnvelopeState, GeneralizedDnls, StandardDnls, l2_conserved
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


def needs_cc_and_headers():
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    if not Path(sysconfig.get_paths()["include"], "Python.h").exists():
        pytest.skip("no Python.h for this interpreter")


def prepare(layout, v):
    """v in a layout the compiled kernels decline: a strided view, the
    big-endian dtype, or single precision."""
    if layout == "strided":
        out = np.zeros(2 * len(v), v.dtype)[::2]
        out[:] = v
        return out
    if layout == "big-endian":
        return v.astype(v.dtype.newbyteorder(">"))
    return v.astype(np.complex64 if v.dtype.kind == "c" else np.float32)


def kernel_constant(name):
    """The value of ``#define name`` in the kernels' C source."""
    (value,) = re.findall(rf"^#define {name} (\d+)$", _native.SOURCE.read_text(), re.M)
    return int(value)


def cpu_flags():
    """The CPU's feature flags as Linux lists them; empty elsewhere."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def build_source(tmp_path, monkeypatch, text):
    """The kernels built from ``text`` in place of ``_kernels.c``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    source = tmp_path / "_kernels.c"
    source.write_text(text)
    monkeypatch.setattr(_native, "SOURCE", source)
    module = _native.load(tmp_path / "cache", sysconfig.get_paths()["include"])
    assert module is not None
    return module


def build_plain(tmp_path, monkeypatch):
    """The kernels built without their target_clones line: the plain loops."""
    lines = _native.SOURCE.read_text().splitlines(keepends=True)
    plain = [line for line in lines if "__attribute__((target_clones" not in line]
    assert len(plain) == len(lines) - 1
    return build_source(tmp_path, monkeypatch, "".join(plain))


def threaded_from(steps):
    """The smallest ring whose calls of ``steps`` steps run on two threads."""
    return -(-kernel_constant("THREADED_WORK") // steps)


# Run as a script: advance a ring of argv[1] sites by argv[2] steps, on the
# CPUs of this process ("all") or on the first of them ("one"), while a
# Python thread counts the process's threads; print the count before the
# poller starts, the most it saw, the count once the poller has stopped (a
# joined thread may linger until the kernel reaps it), the blocked-signal
# masks of any thread that appeared during a call and the hashes of the
# states.  The call runs from the same state up to three times, until the
# poller has seen a helper, in case a busy host kept the poller off the CPUs
# for a whole call.
COUNT_THREADS = """\
import hashlib, json, os, sys, threading, time
import numpy as np
from dklab import _native, integrators

n, steps, limit = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
if limit == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
kernels = _native.kernels()
x, y = np.random.default_rng(18).uniform(-0.5, 0.5, (2, n))
start = [x, y, integrators._dkg_force(x, 0.1, 0.3)]


def threads():
    return len(os.listdir("/proc/self/task"))


def poll():
    known.add(str(threading.get_native_id()))
    while not stop.is_set():
        tasks = set(os.listdir("/proc/self/task"))
        seen.append(len(tasks))
        for tid in tasks - known:  # the helper: its blocked signals
            try:
                with open(f"/proc/self/task/{tid}/status") as file:
                    status = file.read()
            except OSError:  # gone since the listing
                continue
            masks.add(int(status.split("SigBlk:")[1].split()[0], 16))


def settle(count):
    deadline = time.monotonic() + 5.0
    while threads() != count and time.monotonic() < deadline:
        time.sleep(0.001)


base, seen, masks, digests, stop = threads(), [], set(), set(), threading.Event()
poller = threading.Thread(target=poll)
known = set(os.listdir("/proc/self/task"))
poller.start()
while not seen:
    time.sleep(0.001)
for _ in range(3):
    state = [v.copy() for v in start]
    assert kernels.advance_verlet(*state, 0.1, 0.3, 0.05, steps)
    digests.add(hashlib.sha256(b"".join(v.tobytes() for v in state)).hexdigest())
    settle(base + 1)
    if masks:
        break
stop.set()
poller.join()
settle(base)
print(json.dumps({"base": base, "most": max(seen), "after": threads(),
                  "masks": sorted(masks), "digests": sorted(digests)}))
"""


def assert_same_verlet(first, second):
    """``advance_verlet`` of two builds gives the same bits, signs of zeros
    included, on rings in two passes and in time tiles (2311 sites: a last
    block of 263, 7 mod 8), on one thread and on two (from the threshold
    ring up), in calls of two tiles of HALO steps, whose centres take in
    every site of the tiles' cones."""
    rng = np.random.default_rng(12)
    steps = 2 * kernel_constant("HALO")
    for n in (1, 2, 3, 511, 514, 1025, kernel_constant("WIDE_FROM"), 2311, 4099,
              threaded_from(steps), 16385):
        x, y = rng.uniform(-1.0, 1.0, (2, n))
        x[rng.random(n) < 0.05] = -0.0
        y[rng.random(n) < 0.05] = -0.0
        f = integrators._dkg_force(x, 0.1, 0.3)
        runs = [[x.copy(), y.copy(), f.copy()] for _ in range(2)]
        ran = n >= 3  # both builds decline rings under 3 sites, untouched
        assert first.advance_verlet(*runs[0], 0.1, 0.3, 0.05, steps) is ran
        assert second.advance_verlet(*runs[1], 0.1, 0.3, 0.05, steps) is ran
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        if not ran:
            for a, b in zip(runs[0], (x, y, f)):
                assert np.array_equal(a, b)


def assert_tiles_match_numpy(kernels, sizes, step_counts, seed):
    """``advance_verlet`` gives ``_advance_verlet_numpy``'s bits, signs of
    zeros included, on rings of each size in calls of each step count."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for steps in step_counts:
            x, y = rng.uniform(-1.0, 1.0, (2, n))
            x[rng.random(n) < 0.05] = -0.0
            y[rng.random(n) < 0.05] = -0.0
            f = integrators._dkg_force(x, 0.1, 0.3)
            runs = [[x.copy(), y.copy(), f.copy()] for _ in range(2)]
            assert kernels.advance_verlet(*runs[0], 0.1, 0.3, 0.05, steps)
            integrators._advance_verlet_numpy(*runs[1], 0.1, 0.3, 0.05, steps)
            for got, want in zip(*runs):
                assert np.array_equal(got, want), (n, steps)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (n, steps)


def assert_same_complex(first, second):
    """The complex kernels of two builds, and the float ``sup_abs``, give
    the same bits, signs of zeros included: |a| of single entries from
    1e-100 to 1e100, ``ansatz``, ``flow`` and ``rk4`` with each of c0 and c2
    zero or not, and the guard's maxima."""
    rng = np.random.default_rng(13)
    e1, e3 = complex(np.exp(0.7j)), complex(np.exp(2.1j))
    for n in (3, 33, 129):
        a = np.empty(n, complex)
        a.real, a.imag = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-100, 100, (2, n))
        a.real[rng.random(n) < 0.1] = -0.0
        adot = a[::-1].copy()
        # an envelope whose RK4 stages stay finite, down to subnormals
        b = np.empty(n, complex)
        b.real, b.imag = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-320, 1, (2, n))
        b.imag[rng.random(n) < 0.1] = -0.0
        runs = []
        for kernels in (first, second):
            x, xdot = np.empty((2, n))
            out, step = np.empty((2, 4, n), complex)
            # sup_abs of one entry between two zeros is the entry's |a|
            m = [kernels.sup_abs(np.array([0j, v, 0j]), True) for v in a]
            assert kernels.ansatz(a, adot, x, xdot, e1, e3, 0.3, 0.07)
            for i, (c0, c2) in enumerate([(0.025, 0.0125), (0.0, 0.0), (0.025, 0.0),
                                          (0.0, 0.0125)]):
                assert kernels.flow(a, out[i], c0, 0.5, c2, -0.15)
                assert kernels.rk4(b, step[i], -0.05, c0, 0.5, c2, -0.15)
            sups = [kernels.sup_abs(a, True), kernels.sup_abs(a.real.copy(), False)]
            runs.append((np.array(m), x, xdot, out, step, np.array(sups)))
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()


def duffing_reference(x0, v0, rho, t_end, dt=1e-6):
    """Independent scalar oracle: classical RK4 at a tiny fixed step on
    x'' = -x - rho x^3 (an uncoupled site of the chain), on Python floats."""
    steps = int(round(t_end / dt))

    def f(x, v):
        return v, -x - rho * x**3

    x, v = x0, v0
    for _ in range(steps):
        k1x, k1v = f(x, v)
        k2x, k2v = f(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = f(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = f(x + dt * k3x, v + dt * k3v)
        x = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return x, v


class TestIntegratorConfig:
    def test_dt_cap(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.2, 1.0)

    def test_t_end_before_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.01, 0.001)


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
            cfg = IntegratorConfig(dt, 10.0, observer_stride=10)
            traj = integrate(
                state,
                params,
                cfg,
                observers=[
                    lambda t, s: {"e": energy_dkg(s, params.epsilon, params.rho)}
                ],
            )
            return np.max(np.abs(traj.diagnostics["e"] - e0))

        ratio = max_drift(2e-3) / max_drift(1e-3)
        assert 3.2 <= ratio <= 4.8


class TestVerletKernel:
    @pytest.mark.parametrize("layout", ["strided", "big-endian"])
    def test_unsuitable_arrays_take_numpy_path(self, layout, monkeypatch):
        # the C kernel takes only contiguous native float64 vectors
        rng = np.random.default_rng(9)
        x = prepare(layout, 0.5 * rng.standard_normal(33))
        y = prepare(layout, 0.5 * rng.standard_normal(33))
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

    @pytest.mark.parametrize("layout", ["strided", "big-endian", "complex64"])
    def test_unsuitable_envelopes_take_numpy_path(self, layout, monkeypatch):
        # rhs and the RK4 step take only contiguous native complex128 vectors
        rng = np.random.default_rng(10)
        a = prepare(layout, 0.5 * (rng.standard_normal(33) + 1j * rng.standard_normal(33)))
        model = GeneralizedDnls(0.7, 0.1)
        c = model.coefficients
        want_rhs = dnls_models._flow(c, a, c[3] * np.abs(a) ** 2 * a)
        want_step = integrators._rk4_step_numpy(a, model, 1e-2)

        calls = []
        numpy_flow = dnls_models._flow
        monkeypatch.setattr(
            dnls_models, "_flow", lambda *args: calls.append(1) or numpy_flow(*args)
        )
        got_rhs = dnls_models.rhs(model, a)
        assert calls == [1]
        got_step = integrators._rk4_step(a, model, 1e-2)
        for got, want in ((got_rhs, want_rhs), (got_step, want_step)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_rings_defer_to_numpy(self, n):
        # below 3 sites the stencil's periodic neighbours repeat; the kernels
        # leave such rings to numpy, which raises where it always raised
        a = np.arange(1, n + 1) * (0.3 + 0.2j)
        model = StandardDnls(0.5)
        c = model.coefficients
        want = dnls_models._flow(c, a, c[3] * np.abs(a) ** 2 * a)
        assert np.array_equal(dnls_models.rhs(model, a), want)
        if n == 1:
            with pytest.raises(ValueError):
                dnls_models.rhs(GeneralizedDnls(0.5, 0.1), a)

        x = np.array([0.7, -0.0][:n])
        y = np.array([-0.2, 0.4][:n])
        runs = [[x.copy(), y.copy(), integrators._dkg_force(x, 0.1, 0.3)] for _ in range(2)]
        integrators._advance_verlet(*runs[0], 0.1, 0.3, 0.05, 40)
        integrators._advance_verlet_numpy(*runs[1], 0.1, 0.3, 0.05, 40)
        for got, want in zip(*runs):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_tiled_rings_match_numpy(self):
        # calls of TILED_STEPS steps or more on rings of TILED_FROM sites or
        # more, and of WIDE_STEPS or more on rings of WIDE_FROM or more,
        # advance in time tiles of up to HALO steps over blocks of BLOCK
        # sites, whose steps run over vectors of up to 8 sites; every ring
        # size and step count must give numpy's bits, signs of zeros included:
        # last blocks of every length mod 8, and calls of 1 to HALO + 1 steps
        # (one tile of every length up to HALO, then two)
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("the extension does not build here")
        tiled_from, wide_from, block, halo = map(
            kernel_constant, ("TILED_FROM", "WIDE_FROM", "BLOCK", "HALO"))
        sizes = (
            tiled_from - 1, tiled_from, tiled_from + 1,
            wide_from - 1, wide_from, wide_from + 1,
            3 * block - 1, 3 * block + 1,
            3 * block + halo // 2,  # a last block shorter than the halo
            *(2 * block + 256 + r for r in range(1, 9)),  # last blocks of 257..264
        )
        assert_tiles_match_numpy(kernels, sizes, (0, *range(1, halo + 2), 3 * halo + 5), 14)

    def test_threaded_rings_match_numpy(self):
        # calls of THREADED_WORK site-steps or more split each tile's blocks
        # into two ranges, the second advanced by a helper thread; the rings
        # either side of the threshold at 3 HALO + 5 steps, 16385 sites in
        # calls either side of it (32 steps and up run on two threads), and
        # rings whose ranges end in a block shorter than the halo
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("the extension does not build here")
        block, halo = kernel_constant("BLOCK"), kernel_constant("HALO")
        steps = 3 * halo + 5
        edge = threaded_from(steps)
        # the rule is on sites x steps, so at 16385 sites it falls among 2 to
        # HALO + 1 steps
        assert 1 < threaded_from(16385) <= halo + 1
        assert_tiles_match_numpy(kernels, (edge - 1, edge, edge + 1), (steps,), 15)
        assert_tiles_match_numpy(kernels, (16385,), (*range(1, halo + 2), steps), 16)
        short = 8 * block + halo // 2  # range length: 8 blocks and 16 sites
        assert_tiles_match_numpy(kernels, (2 * short, 2 * short + 1), (halo, steps), 17)

    @pytest.mark.parametrize("n", [129, 2311, 16385])
    def test_rings_with_special_values_match_numpy(self, n):
        # +-inf, NaN, subnormals and 1e150 (whose cube overflows) at block
        # edges, in halos, at the halo sites of the two ranges of a threaded
        # call and at random sites, in calls that run two passes and tiles,
        # on one thread and on two (16385 sites from 32 steps): the same
        # values as numpy, NaNs at the same sites
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("the extension does not build here")
        block, halo = kernel_constant("BLOCK"), kernel_constant("HALO")
        rng = np.random.default_rng(n)
        specials = (np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e150, -1e150)
        mid = n // 2
        for steps in (1, 2, halo + 1, 100):
            x, y = rng.uniform(-1.0, 1.0, (2, n))
            edges = [0, 1, halo, block - 1, block, 2 * block + 7, n - halo, n - 1,
                     mid - halo, mid - 1, mid, mid + halo - 1]
            for sites, v in zip(np.array_split(rng.permutation(edges), len(specials)),
                                specials):
                x[sites % n] = v
            for v in specials:
                x[rng.integers(0, n, 2)] = v
                y[rng.integers(0, n, 2)] = v
            with np.errstate(all="ignore"):
                f = integrators._dkg_force(x, 0.1, 0.3)
                runs = [[x.copy(), y.copy(), f.copy()] for _ in range(2)]
                assert kernels.advance_verlet(*runs[0], 0.1, 0.3, 0.05, steps)
                integrators._advance_verlet_numpy(*runs[1], 0.1, 0.3, 0.05, steps)
            for got, want in zip(*runs):
                nan = np.isnan(want)
                assert nan.any() and not np.isfinite(want).all()
                assert np.array_equal(np.isnan(got), nan), steps
                assert got[~nan].tobytes() == want[~nan].tobytes(), steps

    def test_concurrent_threaded_calls_match_numpy(self):
        # threaded calls release the GIL, so four Python threads run them at
        # once: eight threads on the host's CPUs, each call's ranges waiting
        # for each other through preemption; every call keeps its own state
        # and gives numpy's bits
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("the extension does not build here")
        n, steps = 16385, 2 * kernel_constant("HALO") + 1
        assert n * steps >= kernel_constant("THREADED_WORK")
        rng = np.random.default_rng(19)
        starts, wants = [], []
        for _ in range(4):
            x, y = rng.uniform(-1.0, 1.0, (2, n))
            starts.append([x, y, integrators._dkg_force(x, 0.1, 0.3)])
            wants.append([v.copy() for v in starts[-1]])
            for _ in range(3):
                integrators._advance_verlet_numpy(*wants[-1], 0.1, 0.3, 0.05, steps)
        ok = []

        def run(state):
            for _ in range(3):
                ok.append(kernels.advance_verlet(*state, 0.1, 0.3, 0.05, steps))

        callers = [threading.Thread(target=run, args=(state,)) for state in starts]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert ok == [True] * 12
        for got, want in zip(starts, wants):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_helper_thread_lives_only_during_a_call(self, tmp_path):
        # a Python thread counts the process's threads while a threaded call
        # (about 40 ms on two CPUs, 80 ms on one) runs with the GIL
        # released: the helper appears during the call, which the poller
        # can see only if the GIL is released, and is gone after it; a
        # process limited to one CPU never starts it; both give numpy's bits
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("the extension does not build here")
        if not Path("/proc/self/task").is_dir() or not hasattr(os, "sched_setaffinity"):
            pytest.skip("no /proc/self/task or sched_setaffinity here")
        n, steps = 16385, 10000
        assert n * steps >= kernel_constant("THREADED_WORK")
        x, y = np.random.default_rng(18).uniform(-0.5, 0.5, (2, n))
        f = integrators._dkg_force(x, 0.1, 0.3)
        integrators._advance_verlet_numpy(x, y, f, 0.1, 0.3, 0.05, steps)
        want = hashlib.sha256(b"".join(v.tobytes() for v in (x, y, f))).hexdigest()
        script = tmp_path / "count_threads.py"
        script.write_text(COUNT_THREADS)
        src = str(Path(integrators.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        limits = ("one", "all") if len(os.sched_getaffinity(0)) >= 2 else ("one",)
        for limit in limits:
            proc = subprocess.run([sys.executable, str(script), str(n), str(steps), limit],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            counts = json.loads(proc.stdout)
            assert counts["digests"] == [want], limit
            # the poller, and the helper on two CPUs
            assert counts["most"] == counts["base"] + 1 + (limit == "all"), (limit, counts)
            assert counts["after"] == counts["base"], (limit, counts)
            # the helper blocks SIGINT and SIGALRM, so they reach the caller
            blocked = 1 << (signal.SIGINT - 1) | 1 << (signal.SIGALRM - 1)
            assert bool(counts["masks"]) == (limit == "all"), (limit, counts)
            assert all(mask & blocked == blocked for mask in counts["masks"]), counts

    def test_loader_builds_with_cc_and_gives_none_on_unusable_cache(self, tmp_path, monkeypatch):
        needs_cc_and_headers()
        include = sysconfig.get_paths()["include"]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "built"))
        built = _native.kernels.__wrapped__()  # bypass the per-process cache
        assert built is not None
        assert {"advance_verlet", "flow", "rk4"} <= set(vars(built))
        (name,) = (p.name for p in (tmp_path / "built" / "dklab").iterdir())
        assert name.startswith("_kernels-")
        assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))

        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _native.load(blocker / "dklab", include) is None

        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / name).write_bytes(b"not a shared library")
        assert _native.load(corrupt, include) is None

        # the include path enters the library's name, so hidden headers
        # mean a fresh build, which fails without Python.h
        empty = tmp_path / "no-headers"
        empty.mkdir()
        assert _native.load(tmp_path / "hidden", str(empty)) is None

    def test_loader_marks_its_library_and_prunes_stale_ones(self, tmp_path, monkeypatch):
        # a load marks its library as used and removes the cache's libraries
        # unused for STALE_DAYS days: the library of an edited source, but
        # not that of another tree loaded since (a parent and a changed tree
        # timed in turn), nor a file that is not a library; a stale entry
        # that cannot be removed is left, silently
        needs_cc_and_headers()
        text = _native.SOURCE.read_text()
        cache = tmp_path / "cache"
        build_source(tmp_path, monkeypatch, text)
        (parent,) = cache.iterdir()
        edited = text + "/* edited */\n"
        build_source(tmp_path, monkeypatch, edited)
        (child,) = set(cache.iterdir()) - {parent}

        now, day = time.time(), 86400
        ages = {parent: _native.STALE_DAYS - 1, child: _native.STALE_DAYS + 1,
                cache / "_kernels-gone.so": _native.STALE_DAYS,
                cache / "notes.txt": 10 * _native.STALE_DAYS,
                cache / "_kernels-dir": 10 * _native.STALE_DAYS}
        (cache / "_kernels-gone.so").write_bytes(b"")
        (cache / "notes.txt").write_bytes(b"")
        (cache / "_kernels-dir").mkdir()
        for path, days in ages.items():
            os.utime(path, (now - days * day,) * 2)
        kept = {parent, child, cache / "notes.txt", cache / "_kernels-dir"}
        assert build_source(tmp_path, monkeypatch, edited) is not None
        assert set(cache.iterdir()) == kept
        assert child.stat().st_mtime > now - 60  # marked as used now
        # the parent's library, unused for STALE_DAYS days, goes at the next load
        os.utime(parent, (now - _native.STALE_DAYS * day,) * 2)
        assert build_source(tmp_path, monkeypatch, edited) is not None
        assert set(cache.iterdir()) == kept - {parent}

    def test_first_build_prints_nothing(self, tmp_path):
        # the build must leave stdout to the caller: a benchmark or a script
        # that reads this process's last line must see only its own output
        needs_cc_and_headers()
        src = str(Path(integrators.__file__).resolve().parent.parent)
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path / "cache"),
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "from dklab import integrators; print(integrators.verlet_backend())"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"compiled\n"
        (lib,) = (tmp_path / "cache" / "dklab").iterdir()  # no temporary file left
        assert lib.name.startswith("_kernels-")

    def test_source_compiles_without_warnings(self, tmp_path):
        needs_cc_and_headers()
        include = sysconfig.get_paths()["include"]
        proc = subprocess.run(
            ["cc", *_native.FLAGS, "-Wall", "-Wextra", "-Werror", f"-I{include}",
             "-o", str(tmp_path / "kernels.so"), str(_native.SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_default_clone_matches_dispatched(self, tmp_path, monkeypatch):
        # on an AVX-512 or AVX2 CPU the loader picks the Verlet loops' clone
        # for it; a build of the source without the target_clones line runs
        # the plain loops, which must give the same bits, signs of zeros
        # included, in two passes and in time tiles alike
        needs_cc_and_headers()
        dispatched = _native.kernels()
        if dispatched is None:
            pytest.skip("the extension does not build here")
        assert_same_verlet(dispatched, build_plain(tmp_path, monkeypatch))

    def test_avx2_clone_matches_plain(self, tmp_path, monkeypatch):
        # an AVX-512 CPU runs the Verlet loop's and the complex loops'
        # AVX-512 clones and the 8-wide tile step, so their AVX2 and FMA
        # clones and the 4-wide step would run only on other CPUs; a build
        # whose clone lists name only "avx2" and "fma" (and "default"), and
        # whose module never picks the 8-wide step, runs those here
        needs_cc_and_headers()
        if platform.machine() != "x86_64" or not {"avx2", "fma"} <= cpu_flags():
            pytest.skip("no AVX2 and FMA on this CPU")
        source = _native.SOURCE.read_text()
        clones = 'static CLONES("avx512f", "avx2") void'
        assert source.count(clones) == 1  # verlet
        complex_clones = 'CLONES("avx512f", "fma")'
        assert source.count(complex_clones) == 3  # stencil, rk4_step, largest_magnitude
        # the tile step the module picks when it loads: the 4-wide one here
        wide_tiles = '__builtin_cpu_supports("avx512f")'
        assert source.count(wide_tiles) == 1
        plain = build_plain(tmp_path / "plain", monkeypatch)
        avx2 = build_source(tmp_path / "avx2", monkeypatch,
                            source.replace(clones, 'static CLONES("avx2") void')
                            .replace(complex_clones, 'CLONES("fma")')
                            .replace(wide_tiles, "0"))
        assert_same_verlet(avx2, plain)
        assert_same_complex(avx2, plain)

    def test_plain_complex_loops_match_dispatched(self, tmp_path, monkeypatch):
        # with FMA the loader picks the complex loops' AVX-512 or FMA clones,
        # which compute fma() in one instruction; a build without the clones
        # calls libm's fma, which must round the same, signs of zeros included
        # (and the float guard's AVX2 clone must find the same maximum)
        needs_cc_and_headers()
        dispatched = _native.kernels()
        if dispatched is None:
            pytest.skip("the extension does not build here")
        assert_same_complex(dispatched, build_plain(tmp_path, monkeypatch))

    def test_every_entry_point_has_a_caller(self):
        # an entry point that only the probe and the tests call is code no run
        # needs; each one must be called from a module other than _native
        names = re.findall(r'\{"(\w+)", \(PyCFunction\)', _native.SOURCE.read_text())
        called = set()
        for path in _native.SOURCE.parent.glob("*.py"):
            if path.name != "_native.py":
                called.update(node.func.attr for node in ast.walk(ast.parse(path.read_text()))
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))
        assert names
        assert [name for name in names if name not in called] == []

    def test_source_ships_next_to_module(self):
        # an installed package builds the kernels from its own copy of the source
        source = _native.SOURCE
        assert source == Path(integrators.__file__).with_name("_kernels.c")
        assert "PyInit__kernels" in source.read_text()


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
        cfg = IntegratorConfig(1e-2, 1e-2, observer_stride=1)
        traj = integrate(s, ModelParams(0.1, 0.5, 2), cfg)
        assert len(traj.times) == 2
        assert traj.final.t == pytest.approx(1e-2)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1e-2)

    def test_dkg_energy_drift_short(self):
        # short version of the conservation contract (full horizon in the
        # acceptance suite)
        params = ModelParams(0.05, 0.05, 16)
        rng = np.random.default_rng(3)
        state = LatticeState(
            0.3 * rng.standard_normal(33), 0.3 * rng.standard_normal(33)
        )
        e0 = energy_dkg(state, params.epsilon, params.rho)
        cfg = IntegratorConfig(1e-3, 50.0, observer_stride=100)
        traj = integrate(
            state,
            params,
            cfg,
            observers=[lambda t, s: {"e": energy_dkg(s, params.epsilon, params.rho)}],
        )
        drift = np.max(np.abs(traj.diagnostics["e"] - e0)) / abs(e0)
        assert drift < 1e-6

    def test_dnls_norm_drift_short(self):
        rng = np.random.default_rng(5)
        a0 = 0.5 * (rng.standard_normal(33) + 1j * rng.standard_normal(33))
        env = EnvelopeState(a0)
        n0 = l2_conserved(a0)
        cfg = IntegratorConfig(1e-3, 5.0, observer_stride=50)
        traj = integrate(
            env,
            StandardDnls(1.0),
            cfg,
            observers=[lambda t, s: {"n": l2_conserved(s.a)}],
        )
        drift = np.max(np.abs(traj.diagnostics["n"] - n0)) / n0
        assert drift < 1e-8

    def test_blow_up_detection(self):
        # a huge displacement with the cap step makes the cubic force
        # overflow within a few steps; the driver must abort cleanly
        x = np.zeros(5)
        x[2] = 9.9e5  # inside the guard, but the first step explodes
        s = LatticeState(x, np.zeros(5))
        cfg = IntegratorConfig(0.1, 10.0, observer_stride=1)
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
        cfg = IntegratorConfig(0.1, 1.0, observer_stride=1)
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
        cfg = IntegratorConfig(1e-2, 1e-1)
        assert integrate(env, StandardDnls(1.0), cfg).clock == "slow"
        from dklab.dnls_models import NormalFormDnls

        assert integrate(env, NormalFormDnls(1.0, -0.1), cfg).clock == "fast"
        s = single_site_state(5, 0.1)
        cfg_v = IntegratorConfig(1e-2, 1e-1)
        assert integrate(s, ModelParams(0.1, 0.5, 2), cfg_v).clock == "fast"

    def test_trajectory_csv(self, tmp_path):
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 0.1, observer_stride=2)
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
        # an observer sees every recorded sample, the last of them as ``final``
        s = single_site_state(5, 0.3)
        cfg = IntegratorConfig(1e-2, 0.1, observer_stride=5)
        seen = []
        traj = integrate(
            s,
            ModelParams(0.1, 0.5, 2),
            cfg,
            observers=[lambda t, st: seen.append(st) or {}],
        )
        assert [st.t for st in seen] == list(traj.times)
        assert traj.final is seen[-1]
        assert traj.diagnostics == {}
