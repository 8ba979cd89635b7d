"""Property tests over random chain lengths, envelopes and model parameters.

They complement the hand-picked cases in test_dnls_models.py and
test_lattice_core.py: the periodic pair sum against its np.roll
definition, the shift equivariance, phase equivariance and norm
conservation of every envelope right-hand side, the CSV and JSON
round trips of the chain and envelope states, the identity of the direct
and expanded residuals, and the compiled kernels: the chain's Verlet loop,
the envelope stencil and the RK4 step, each bit-identical to its numpy
reference, and the Verlet loop time-reversible.
"""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dklab import _native
from dklab.approximation import residual_direct, residual_expanded
from dklab.dnls_models import (
    EnvelopeState,
    GeneralizedDnls,
    NormalFormDnls,
    StandardDnls,
    _flow,
    rhs,
)
from dklab.integrators import (
    _advance_verlet,
    _advance_verlet_numpy,
    _dkg_force,
    _rk4_step,
    _rk4_step_numpy,
    verlet_backend,
)
from dklab.lattice_core import LatticeState, neighbor_sum, read_csv

odd_lengths = st.integers(min_value=1, max_value=40).map(lambda m: 2 * m + 1)
unit = st.floats(min_value=1e-3, max_value=1.0)
components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
real_vectors = odd_lengths.flatmap(lambda n: hnp.arrays(np.float64, n, elements=components))


@st.composite
def envelopes(draw):
    n = draw(odd_lengths)
    re = draw(hnp.arrays(np.float64, n, elements=components))
    im = draw(hnp.arrays(np.float64, n, elements=components))
    return re + 1j * im


models = st.one_of(
    st.builds(StandardDnls, nu=unit),
    st.builds(
        GeneralizedDnls,
        delta=unit,
        epsilon=st.floats(min_value=1e-3, max_value=0.49),
    ),
    st.builds(
        NormalFormDnls,
        Omega=st.floats(min_value=0.5, max_value=2.0),
        b1=st.floats(min_value=-0.5, max_value=0.0),
        b2=st.none() | st.floats(min_value=-0.1, max_value=0.0),
    ),
)


def _scale(model, a):
    # bound on |stencil(a)| + |g| |a|^3, the size rounding errors scale with
    c0, c1, c2, g = model.coefficients
    amax = float(np.max(np.abs(a)))
    return (abs(c0) + 2 * abs(c1) + 2 * abs(c2)) * amax + abs(g) * amax**3 + 1e-300


@st.composite
def raw_envelopes(draw):
    """Envelopes of 3..81 sites at a magnitude from 1e-15 to 1e2, with
    entries of -0.0 and of zero imaginary part."""
    n = draw(odd_lengths.filter(lambda m: m >= 3))
    signed = components | st.sampled_from([0.0, -0.0])
    scale = draw(st.sampled_from([1e-15, 1e-8, 1e-3, 1.0, 10.0, 1e2]))
    a = np.empty(n, complex)  # set part by part: complex arithmetic would flip -0.0
    a.real = scale * draw(hnp.arrays(np.float64, n, elements=signed))
    a.imag = scale * draw(hnp.arrays(np.float64, n, elements=signed) | st.just(np.zeros(n)))
    return a


def _same_bits(u, v):
    return (
        u.dtype == v.dtype
        and np.array_equal(u.view(float), v.view(float))
        and np.array_equal(np.signbit(u.view(float)), np.signbit(v.view(float)))
    )


@given(v=real_vectors | envelopes(), k=st.sampled_from([1, 2]))
def test_neighbor_sum_matches_roll(v, k):
    assert np.array_equal(neighbor_sum(v, k), np.roll(v, -k) + np.roll(v, k))


@given(model=models, a=envelopes(), shift=st.integers(min_value=-50, max_value=50))
def test_rhs_shift_equivariant(model, a, shift):
    out = rhs(model, np.roll(a, shift))
    expected = np.roll(rhs(model, a), shift)
    assert np.max(np.abs(out - expected)) <= 1e-14 * _scale(model, a)


@given(model=models, a=envelopes(), theta=st.floats(min_value=-np.pi, max_value=np.pi))
def test_rhs_phase_equivariant(model, a, theta):
    rot = np.exp(1j * theta)
    out = rhs(model, rot * a)
    assert np.max(np.abs(out - rot * rhs(model, a))) <= 1e-13 * _scale(model, a)


@given(model=models, a=envelopes())
def test_rhs_conserves_norm(model, a):
    # d/dt ||a||^2 = 2 Re <a, a'> vanishes for every model
    rate = float(np.sum(np.real(np.conj(a) * rhs(model, a))))
    assert abs(rate) <= 1e-13 * len(a) * float(np.max(np.abs(a))) * _scale(model, a)


@given(a=envelopes(), regime=st.sampled_from(["standard", "generalized"]),
       epsilon=st.floats(min_value=1e-3, max_value=0.49), ratio=unit,
       t=st.floats(min_value=0.0, max_value=20.0))
def test_residual_direct_equals_expanded(a, regime, epsilon, ratio, t):
    # rho = nu eps (standard) or delta eps^2 (generalized), with nu, delta
    # in (0, 1]; the tolerance is test_approximation's TestResidualIdentity's
    if regime == "standard":
        rho = ratio * epsilon
        model = StandardDnls(rho / epsilon)
    else:
        rho = ratio * epsilon**2
        model = GeneralizedDnls(rho / epsilon**2, epsilon)
    d = residual_direct(a, model, epsilon, rho, t)
    e = residual_expanded(a, model, epsilon, rho, t)
    assert np.max(np.abs(d - e)) <= 1e-11 * max(1.0, np.max(np.abs(a)) ** 3)


# every finite float, with signed zero, subnormals and +-1e308 always drawn
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]
)
hashes = st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)


@st.composite
def lattice_states(draw):
    n = draw(odd_lengths)
    x = draw(hnp.arrays(np.float64, n, elements=finite))
    y = draw(hnp.arrays(np.float64, n, elements=finite))
    return LatticeState(x, y, draw(finite))


@st.composite
def envelope_states(draw):
    n = draw(odd_lengths)
    re = draw(hnp.arrays(np.float64, n, elements=finite))
    im = draw(hnp.arrays(np.float64, n, elements=finite))
    return EnvelopeState(re + 1j * im, draw(finite))


def _round_trips(state, config_hash):
    """The state back from its CSV file and from its JSON text, and the
    CSV file's comment metadata."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.csv")
        state.write_csv(path, f"config_hash={config_hash}")
        from_csv = type(state).read_csv(path)
        meta, _ = read_csv(path)
    from_json = type(state).from_json_dict(json.loads(json.dumps(state.to_json_dict())))
    return (from_csv, from_json), meta


@given(state=lattice_states(), config_hash=hashes)
def test_lattice_state_round_trips(state, config_hash):
    backs, meta = _round_trips(state, config_hash)
    for back in backs:
        assert np.array_equal(back.x, state.x)
        assert np.array_equal(back.y, state.y)
        assert back.t == state.t
    assert meta["config_hash"] == config_hash


@given(state=envelope_states(), config_hash=hashes)
def test_envelope_state_round_trips(state, config_hash):
    backs, meta = _round_trips(state, config_hash)
    for back in backs:
        assert np.array_equal(back.a, state.a)
        assert back.tau == state.tau
    assert meta["config_hash"] == config_hash


@st.composite
def chains(draw):
    """A chain state of 1..81 sites with its force, and one Verlet run:
    (x, y, f, epsilon, rho, dt, n_steps); dt takes either sign."""
    n = draw(st.integers(min_value=1, max_value=81))
    x = draw(hnp.arrays(np.float64, n, elements=st.floats(min_value=-1.0, max_value=1.0)))
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(min_value=-1.0, max_value=1.0)))
    return _verlet_run(draw, x, y)


def _verlet_run(draw, x, y):
    epsilon = draw(st.floats(min_value=1e-3, max_value=0.49))
    rho = draw(unit)
    dt = draw(st.floats(min_value=1e-3, max_value=0.1)) * draw(st.sampled_from([1.0, -1.0]))
    n_steps = draw(st.integers(min_value=0, max_value=200))
    return x, y, _dkg_force(x, epsilon, rho), epsilon, rho, dt, n_steps


# sites per strip of the compiled Verlet loop
STRIP = int(re.search(r"^#define STRIP (\d+)$", _native.SOURCE.read_text(), re.M).group(1))


@st.composite
def strip_chains(draw):
    """Like chains(), at the lengths where the compiled Verlet loop's strips
    end: STRIP - 1 .. STRIP + 3 and 2 STRIP + 1 sites (the interior sites
    1..n-2 fill whole strips or spill into the next), with entries of -0.0.
    The entries come from a drawn seed: hypothesis cannot draw a thousand
    floats per example."""
    n = draw(st.sampled_from([STRIP - 1, STRIP, STRIP + 1, STRIP + 2, STRIP + 3, 2 * STRIP + 1]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x, y = rng.uniform(-1.0, 1.0, (2, n))
    x[rng.random(n) < 0.05] = -0.0
    y[rng.random(n) < 0.05] = -0.0
    return _verlet_run(draw, x, y)


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled Verlet kernel here")
@given(run=chains() | strip_chains())
def test_compiled_verlet_matches_numpy(run):
    x, y, f, *params = run
    compiled = [x.copy(), y.copy(), f.copy()]
    reference = [x.copy(), y.copy(), f.copy()]
    _advance_verlet(*compiled, *params)
    _advance_verlet_numpy(*reference, *params)
    for a, b in zip(compiled, reference):
        assert _same_bits(a, b)


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled kernels here")
@given(model=models, a=raw_envelopes())
def test_compiled_rhs_matches_numpy(model, a):
    c = model.coefficients
    assert _same_bits(rhs(model, a), _flow(c, a, c[3] * np.abs(a) ** 2 * a))


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled kernels here")
@given(model=models, a=raw_envelopes(),
       h=st.floats(min_value=1e-4, max_value=0.1) | st.floats(min_value=-0.1, max_value=-1e-4))
def test_compiled_rk4_step_matches_numpy(model, a, h):
    fun = lambda z: rhs(model, z)  # noqa: E731
    assert _same_bits(_rk4_step(a, fun, h), _rk4_step_numpy(a, fun, h))


@given(run=chains())
def test_verlet_time_reversible(run):
    # velocity Verlet with -dt inverts the step with dt exactly, so only
    # rounding separates the start from the round trip
    x0, y0, f0, epsilon, rho, dt, n_steps = run
    x, y, f = x0.copy(), y0.copy(), f0.copy()
    _advance_verlet(x, y, f, epsilon, rho, dt, n_steps)
    _advance_verlet(x, y, f, epsilon, rho, -dt, n_steps)
    assert np.max(np.abs(x - x0)) <= 1e-12
    assert np.max(np.abs(y - y0)) <= 1e-12
