"""Property tests over random chain lengths, envelopes and model parameters.

They complement the hand-picked cases in test_dnls_models.py and
test_lattice_core.py: the periodic pair sum against its np.roll
definition, the shift equivariance, phase equivariance and norm
conservation of every envelope right-hand side, and the CSV and JSON
round trips of the chain and envelope states.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dklab.dnls_models import EnvelopeState, GeneralizedDnls, NormalFormDnls, StandardDnls, rhs
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
