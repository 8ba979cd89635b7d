"""Property tests over random chain lengths, envelopes and model parameters.

They complement the hand-picked cases in test_dnls_models.py and
test_lattice_core.py: the periodic pair sum against its np.roll
definition, the shift equivariance, phase equivariance and norm
conservation of every envelope right-hand side, the CSV and JSON
round trips of the chain and envelope states, the identity of the direct
and expanded residuals, the justify family's rho windows, and the compiled
kernels: the chain's Verlet loop, the envelope stencil, the RK4 step, the
complex max |entry|, the ansatz and the error energy, each bit-identical to
its numpy reference (the middle three on inf and NaN parts too), the
blow-up guard deciding as numpy does, the co-integration and the envelope
integration giving the same bits when the probe of the complex kernels
fails, and the Verlet loop time-reversible.
"""

import json
import math
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dklab import _native
from dklab.approximation import (
    REGIME_EXPONENTS,
    JustificationConfig,
    error_energy,
    leading_order,
    residual_direct,
    residual_expanded,
    run_justification,
    window_top,
)
from dklab.cli import parse_and_validate
from dklab.dnls_models import (
    EnvelopeState,
    GeneralizedDnls,
    NormalFormDnls,
    StandardDnls,
    _flow,
    _rhs_numpy,
    l2_conserved,
    rhs,
)
from dklab.errors import BlowUpError, RegimeError
from dklab.integrators import (
    BLOWUP_LIMIT,
    IntegratorConfig,
    _advance_verlet,
    _advance_verlet_numpy,
    _check_sane,
    _dkg_force,
    _rk4_step,
    _rk4_step_numpy,
    integrate,
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
    """Envelopes of 3..81 sites at a magnitude from subnormal to 1e2, with
    entries of -0.0 and of zero imaginary part."""
    n = draw(odd_lengths.filter(lambda m: m >= 3))
    signed = components | st.sampled_from([0.0, -0.0])
    scale = draw(st.sampled_from([5e-324, 1e-310, 1e-15, 1e-8, 1e-3, 1.0, 10.0, 1e2]))
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


def _same_bits_or_nan(u, v):
    """_same_bits, except that a NaN matches a NaN of any sign or payload."""
    u, v = u.view(float), v.view(float)
    nan = np.isnan(u)
    return np.array_equal(nan, np.isnan(v)) and _same_bits(u[~nan], v[~nan])


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
    # rho = ratio eps^(p-1), so nu or delta = ratio lies in (0, 1]; the
    # tolerance is test_approximation's TestResidualIdentity's
    rho = ratio * window_top(regime, epsilon)
    d = residual_direct(a, regime, epsilon, rho, t)
    e = residual_expanded(a, regime, epsilon, rho, t)
    assert np.max(np.abs(d - e)) <= 1e-11 * max(1.0, np.max(np.abs(a)) ** 3)


@given(epsilon=st.floats(min_value=1e-4, max_value=0.25, exclude_min=True, exclude_max=True),
       regime=st.sampled_from(["standard", "generalized"]),
       extended=st.booleans(), alpha_share=st.floats(min_value=0.01, max_value=0.99))
@example(epsilon=0.06395319443893904, regime="generalized", extended=False, alpha_share=0.5)
@example(epsilon=0.06395319443893904, regime="standard", extended=False, alpha_share=0.5)
def test_only_the_default_rho_rule_lies_in_the_window(epsilon, regime, extended, alpha_share):
    # eps * eps and eps**2 differ by one ulp at some eps (0.0639... is one):
    # the default rho must be the window's top and the standard eps2 rule
    # its open lower end, on both horizons, with alpha inside (0, 1/(p-1))
    p = REGIME_EXPONENTS[regime]
    top = epsilon ** (p - 1)  # about rho: holds either horizon near t = 1
    argv = ["--regime", regime, "--epsilon", repr(epsilon), "--tau0", repr(top)]
    if extended:
        argv = ["justify-extended", *argv, "--alpha", repr(alpha_share / (p - 1)),
                "--big-a", repr(top / abs(math.log(top)))]
    else:
        argv = ["justify", *argv]
    parse_and_validate(argv)
    other = "eps2" if regime == "standard" else "eps"
    with pytest.raises(RegimeError, match="violates the"):
        parse_and_validate([*argv, "--rho-rule", other])


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


@st.composite
def wide_chains(draw):
    """Like chains(), on rings wider than chains() draws, up to the widest
    the compiled two-pass Verlet loop takes in calls of any length: 511..515,
    1025, 2047 and 2303 sites, with entries of -0.0.
    The entries come from a drawn seed: hypothesis cannot draw a thousand
    floats per example."""
    n = draw(st.sampled_from([511, 512, 513, 514, 515, 1025, 2047, 2303]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x, y = rng.uniform(-1.0, 1.0, (2, n))
    x[rng.random(n) < 0.05] = -0.0
    y[rng.random(n) < 0.05] = -0.0
    return _verlet_run(draw, x, y)


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled Verlet kernel here")
@given(run=chains() | wide_chains())
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


@pytest.mark.skipif(not _native.complex_exact(), reason="no compiled rk4 here")
@given(model=models, a=raw_envelopes(),
       h=st.floats(min_value=1e-4, max_value=0.1) | st.floats(min_value=-0.1, max_value=-1e-4))
def test_compiled_rk4_step_matches_numpy(model, a, h):
    assert _same_bits(_rk4_step(a, model, h), _rk4_step_numpy(a, model, h))


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


no_complex_kernels = pytest.mark.skipif(
    not _native.complex_exact(), reason="no kernels with numpy's complex arithmetic here"
)


# parts that the complex kernels must treat as numpy does
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                 np.inf, -np.inf, np.nan]


@st.composite
def kernel_envelopes(draw):
    """Envelopes of 3..300 sites at a magnitude from subnormal to 1e160, a
    few of whose parts are +-0.0, subnormals, huge, +-inf or NaN, and some
    with a zero imaginary part.  The bulk comes from a drawn seed, as in
    wide_chains()."""
    n = draw(st.integers(min_value=3, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([5e-324, 1e-310, 1e-15, 1e-3, 1.0, 1e2, 1e160]))
    a = np.empty(n, complex)  # set part by part: complex arithmetic would flip -0.0
    a.real = scale * rng.uniform(-2.0, 2.0, n)
    a.imag = draw(st.sampled_from([0.0, -0.0])) if draw(st.booleans()) else (
        scale * rng.uniform(-2.0, 2.0, n))
    parts = (a.real, a.imag)
    for j, imag, value in draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=n - 1), st.booleans(),
            st.sampled_from(SPECIAL_PARTS)), max_size=6)):
        parts[imag][j] = value
    return a


@st.composite
def stencil_coefficients(draw):
    """(c0, c1, c2, g), with c0 and c2 each zero (of either sign) or not."""
    zero = st.sampled_from([0.0, -0.0])
    c0 = draw(zero if draw(st.booleans()) else st.floats(min_value=-2.0, max_value=2.0))
    c1 = draw(st.floats(min_value=-1.0, max_value=1.0))
    c2 = draw(zero if draw(st.booleans()) else st.floats(min_value=-0.5, max_value=0.5))
    return c0, c1, c2, draw(st.floats(min_value=-2.0, max_value=2.0))


@no_complex_kernels
@given(c=stencil_coefficients(), a=kernel_envelopes(),
       h=st.floats(min_value=1e-4, max_value=0.1) | st.floats(min_value=-0.1, max_value=-1e-4))
# a zero c0 term, were it added, would turn the signs of these zeros
@example(c=(0.0, -0.0, -0.5, -0.0), h=0.0625,
         a=np.array([complex(5e-324, -1e-323), complex(-5e-324, 5e-324),
                     complex(-1e-323, 1e-323)]))
# |inf + inf i| is inf, where hi sqrt(1 + (lo/hi)^2) would be NaN
@example(c=(0.0, 0.5, 0.0, -1.5), h=0.0625,
         a=np.array([complex(np.inf, np.inf), complex(-5e-324, 5e-324),
                     complex(-1e-323, 1e-323)]))
def test_complex_kernels_match_numpy(c, a, h):
    # flow, rk4 and the complex sup_abs against the numpy forms they stand
    # for, bit for bit, on any ring length, for each case of the stencil's
    # skipped terms; a NaN matches a NaN of either sign, since an operation
    # on two NaNs returns one of them by its operand order
    kernels = _native.kernels()
    model = SimpleNamespace(coefficients=c)  # all the numpy forms read
    out, step = np.empty((2, len(a)), complex)
    assert kernels.flow(a, out, *c)
    assert kernels.rk4(a, step, h, *c)
    with np.errstate(all="ignore"):
        assert _same_bits_or_nan(out, _rhs_numpy(model, a))
        assert _same_bits_or_nan(step, _rk4_step_numpy(a, model, h))
        sup = np.array([kernels.sup_abs(a, True)])
        assert _same_bits_or_nan(sup, np.array([np.max(np.abs(a))]))


@st.composite
def ansatz_inputs(draw):
    """An envelope and a right-hand side of 3..81 sites with -0.0 entries,
    and (rho, eps, t)."""
    a = draw(raw_envelopes())
    adot = np.empty_like(a)
    signed = components | st.sampled_from([0.0, -0.0])
    adot.real = draw(hnp.arrays(np.float64, len(a), elements=signed))
    adot.imag = draw(hnp.arrays(np.float64, len(a), elements=signed))
    rho = draw(st.floats(min_value=0.0, max_value=1.0))
    eps = draw(st.floats(min_value=0.0, max_value=0.25, exclude_max=True))
    t = draw(st.floats(min_value=-1e3, max_value=1e3))
    return a, adot, rho, eps, t


@no_complex_kernels
@given(inputs=ansatz_inputs())
def test_compiled_leading_order_matches_numpy(inputs):
    compiled = leading_order(*inputs)
    with mock.patch.object(_native, "complex_exact", lambda: False):
        reference = leading_order(*inputs)
    assert _same_bits(compiled.X, reference.X)
    assert _same_bits(compiled.Xdot, reference.Xdot)


@st.composite
def error_inputs(draw):
    """y, ydot and X of 3..81 sites with -0.0 entries, and (eps, rho)."""
    n = draw(odd_lengths.filter(lambda m: m >= 3))
    signed = components | st.sampled_from([0.0, -0.0])
    y, ydot, X = (draw(hnp.arrays(np.float64, n, elements=signed)) for _ in range(3))
    eps = draw(st.floats(min_value=0.0, max_value=0.25, exclude_max=True))
    return y, ydot, X, eps, draw(st.floats(min_value=0.0, max_value=1.0))


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled kernels here")
@given(inputs=error_inputs())
def test_compiled_error_energy_matches_numpy(inputs):
    compiled = error_energy(*inputs)
    with mock.patch.object(_native, "kernels", lambda: None):
        reference = error_energy(*inputs)
    assert np.array(compiled).tobytes() == np.array(reference).tobytes()


_above = np.nextafter(BLOWUP_LIMIT, np.inf)
_below = np.nextafter(BLOWUP_LIMIT, 0.0)
GUARD_CASES = [
    [0.0, BLOWUP_LIMIT, -0.0],
    [0.0, -BLOWUP_LIMIT, 1.0],
    [0.0, _above, 1.0],
    [-_above, 0.0, 1.0],
    [_below, 0.0, -1.0],
    [np.nan, 0.0, 1.0],
    [0.0, 1.0, np.nan],
    [np.inf, 0.0, 1.0],
    [0.0, -np.inf, np.nan],
    [complex(BLOWUP_LIMIT, 0.0), 0j, 1j],
    [complex(0.0, -_above), 0j, 1j],
    [complex(6e5, 8e5), 0j, 1j],  # |.| is 1e6 exactly
    [complex(_below, 1.0), 0j, 1j],
    [complex(_below, 1e-3), 0j, 1j],
    [complex(np.nan, 0.0), 0j, 1j],
    [complex(0.0, np.inf), 0j, complex(np.nan, 1.0)],
    *([1e6 * np.exp(1j * theta), 0j, 0.5j] for theta in np.linspace(0.0, np.pi, 11)),
]


@pytest.mark.parametrize("values", GUARD_CASES)
@pytest.mark.parametrize("length", [2, 3, 9])
def test_blowup_guard_decides_as_numpy(values, length):
    # _check_sane must refuse exactly what np.max(np.abs(.)) puts beyond
    # BLOWUP_LIMIT or off the finite range, for float and complex arrays and
    # on either side of the 3-site minimum of the kernels
    arr = np.array((values * 3)[:length])
    m = np.max(np.abs(arr))
    expected = not np.isfinite(m) or m > BLOWUP_LIMIT
    try:
        _check_sane((np.zeros(5), arr), 0.0)
    except BlowUpError:
        refused = True
    else:
        refused = False
    assert refused == expected


def _gaussian_envelope(n_half=16, amplitude=0.5):
    j = np.arange(-n_half, n_half + 1)
    return amplitude * np.exp(-((j / 3.0) ** 2)) * np.exp(0.3j * j)


@pytest.mark.parametrize("regime, rho", [("standard", 0.1), ("generalized", 0.01)])
def test_run_justification_same_bits_when_probe_fails(regime, rho, monkeypatch):
    # with the probe failing, rhs takes numpy's |a| and the ansatz and the
    # complex guard run in numpy: the co-integration must not change a bit
    config = JustificationConfig(epsilon=0.1, rho=rho, regime=regime, tau0=0.05, dt=5e-3,
                                 sample_stride=10, c0_scale=0.5, seed=4)
    a0 = _gaussian_envelope()
    compiled = run_justification(config, a0)
    monkeypatch.setattr(_native, "complex_exact", lambda: False)
    reference = run_justification(config, a0)
    for name in ("times", "error_norm", "Q"):
        assert _same_bits(getattr(compiled, name), getattr(reference, name))


@pytest.mark.parametrize("model", [StandardDnls(0.5), GeneralizedDnls(0.7, 0.1),
                                   NormalFormDnls(1.2, -0.3, -0.05)], ids=type)
def test_integrate_envelope_same_bits_when_probe_fails(model, monkeypatch):
    # with the probe failing, rhs and the RK4 step run in numpy: the
    # trajectory must not change a bit
    config = IntegratorConfig(dt=1e-2, t_end=0.5, observer_stride=10)
    state = EnvelopeState(_gaussian_envelope(), 0.25)
    observers = [lambda t, s: {"norm2": l2_conserved(s.a)}]
    compiled = integrate(state, model, config, observers)
    monkeypatch.setattr(_native, "complex_exact", lambda: False)
    reference = integrate(state, model, config, observers)
    assert _same_bits(compiled.times, reference.times)
    assert _same_bits(compiled.final.a, reference.final.a)
    assert _same_bits(compiled.diagnostics["norm2"], reference.diagnostics["norm2"])


class _OffByOneUlp:
    """The kernels, with one entry's output moved by one ulp."""

    def __init__(self, kernels, name):
        self.kernels, self.name = kernels, name

    def __getattr__(self, attr):
        entry = getattr(self.kernels, attr)
        if attr != self.name:
            return entry
        if attr == "sup_abs":
            return lambda v, ok: np.nextafter(entry(v, ok), np.inf)

        def nudged(*args):
            done = entry(*args)
            out = args[{"ansatz": 3, "flow": 1, "rk4": 1}[attr]].view(float)
            out[-1] = np.nextafter(out[-1], np.inf)
            return done

        return nudged


@pytest.mark.skipif(verlet_backend() == "numpy", reason="no compiled kernels here")
def test_probe_passes_where_numpy_fuses_complex_products():
    # the kernels fuse complex products as numpy's FMA loops do; where numpy
    # fuses them, a probe that fails would silently turn the compiled
    # complex paths off, and every test above that needs them would skip
    u = np.full(3, complex(1.0 + 2.0**-30, 1.0))
    v = np.full(3, complex(1.0 - 2.0**-30, 1.0))
    if (u * v).real[0] != -(2.0**-60):  # 0.0 when the product is not fused
        pytest.skip("numpy does not fuse complex products here")
    assert _native.complex_exact()


@no_complex_kernels
@pytest.mark.parametrize("name", ["ansatz", "sup_abs", "flow", "rk4"])
def test_probe_catches_one_ulp(name):
    kernels = _native.kernels()
    assert _native.probe(kernels)
    assert not _native.probe(_OffByOneUlp(kernels, name))
