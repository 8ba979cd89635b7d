"""The compiled ``float_text`` against ``float.__repr__``, byte for byte.

``_kernels.float_text(values, sep)`` must return
``sep.join(map(float.__repr__, values.tolist()))``: the shortest round-trip
digits (Ryu, in 128-bit integer arithmetic) laid out as Python's ``repr``.
The corpus covers random bit patterns, every binary exponent (each picks
one entry of the power-of-five tables) with both neighbours, the integers
around 2^53 and the values where ``repr`` changes notation.  The tables,
which the module computes when it loads, are compared with Python integers
through a build that exposes them.
"""

import math
import re
import shutil
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dklab import _native
from dklab.lattice_core import WRITE_CHUNK


@pytest.fixture(scope="module")
def float_text():
    module = _native.kernels()
    if module is None or module.float_text(np.zeros(1), "") is None:
        pytest.skip("no compiled float_text here")
    return module.float_text


def assert_repr(float_text, values, sep="\n"):
    values = np.asarray(values, dtype=float)
    expected = sep.join(map(float.__repr__, values.tolist()))
    got = float_text(values, sep)
    if got != expected and sep:  # name the first value that differs, not the whole text
        for value, a, b in zip(values.tolist(), got.split(sep), expected.split(sep)):
            assert a == b, value.hex()
    assert got == expected


def test_random_bit_patterns(float_text):
    # a million doubles of every exponent, NaNs and infinities included
    bits = np.random.default_rng(20261021).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_repr(float_text, bits.view(np.float64))


def test_powers_of_two_and_neighbours(float_text):
    # every binary exponent, subnormal to the largest, and the asymmetric
    # interval below each power of two
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_repr(float_text, np.concatenate([values, -values]))


def test_integers_around_2_to_53(float_text):
    # from 2^53 up, consecutive doubles are 2 apart, and 2^54 up 4 apart
    for centre in (2**53, 2**54):
        assert_repr(float_text, np.arange(centre - 3000, centre + 3000, dtype=np.int64))


@pytest.mark.parametrize("value", [1e-5, 1e-4, 1e15, 1e16, 1e17])
def test_notation_switches(float_text, value):
    # repr writes an exponent from 4 zeros after the point and from 17
    # digits before it; 64 neighbours on either side of each switch
    below, above = [value], [value]
    for _ in range(64):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    values = np.array(below[::-1] + above[1:])
    assert_repr(float_text, np.concatenate([values, -values, 3.0 * values]))


def test_special_values(float_text):
    specials = [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                sys.float_info.min, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    assert_repr(float_text, specials)
    assert float_text(np.array(specials), ",") == (
        "5e-324,-5e-324,1.7976931348623157e+308,-1.7976931348623157e+308,"
        "2.2250738585072014e-308,0.0,-0.0,nan,nan,inf,-inf")


@pytest.mark.parametrize("n", [0, 1, WRITE_CHUNK, WRITE_CHUNK + 1])
@pytest.mark.parametrize("sep", ["\n", ", ", ",\n    ", "", "  <-- nine"])
def test_lengths_and_separators(float_text, n, sep):
    values = np.random.default_rng(n).standard_normal(n) * 10.0 ** (np.arange(n) % 40 - 20)
    assert_repr(float_text, values, sep)


def test_views_and_declines(float_text):
    values = np.random.default_rng(0).standard_normal(9)
    # strided and read-only views of float64 take the kernel
    assert_repr(float_text, values[::3])
    assert_repr(float_text, (values + 1j * values).imag)
    frozen = values.copy()
    frozen.flags.writeable = False
    assert float_text(frozen, "\n") == "\n".join(map(repr, values.tolist()))
    # other layouts and non-ASCII separators are declined; the caller
    # formats those with repr
    for other in (values.astype(np.float32), values.astype(">f8"), values.reshape(3, 3),
                  values.tolist()):
        assert float_text(other, "\n") is None
    assert float_text(values, " · ") is None
    with pytest.raises(TypeError):
        float_text(values, b"\n")


@given(st.lists(st.floats(), max_size=40), st.sampled_from(["\n", ", ", ",\n    "]))
@example(values=[1e16, 1e-05, 0.0001, 1000000000000000.0, 1.2345678901234568e+17], sep="\n")
def test_matches_repr_on_any_floats(float_text, values, sep):
    assert float_text(np.array(values, dtype=float), sep) == sep.join(map(repr, values))


# -- the tables -------------------------------------------------------------------

ACCESSOR = """
static PyObject *
tables(PyObject *Py_UNUSED(module), PyObject *const *Py_UNUSED(args),
       Py_ssize_t Py_UNUSED(nargs))
{
    return Py_BuildValue("y#y#", (const char *)pow5, (Py_ssize_t)sizeof pow5,
                         (const char *)pow5_inv, (Py_ssize_t)sizeof pow5_inv);
}

"""


def kernel_source():
    return _native.SOURCE.read_text()


def kernel_constant(name):
    (value,) = re.findall(rf"^#define {name} (\d+)$", kernel_source(), re.M)
    return int(value)


def kernel_log(name):
    """multiplier and shift of the C approximation ``name(e)``,
    ``((uint32_t)e * multiplier) >> shift``"""
    body = kernel_source().split(f"\n{name}(int e)\n", 1)[1].split("}", 1)[0]
    ((multiplier, shift),) = re.findall(r"\(\(uint32_t\)e \* (\d+)\) >> (\d+)", body)
    return int(multiplier), int(shift)


def double_exponents():
    """e2 of each binary exponent of a positive double, with Ryu's two spare
    bits: the subnormals share the smallest normal's."""
    return range(1 - 1023 - 52 - 2, 2046 - 1023 - 52 - 2 + 1)


def test_log_approximations_are_exact_where_doubles_use_them():
    def approx(name, e):
        multiplier, shift = kernel_log(name)
        return (e * multiplier) >> shift

    top = max(double_exponents())
    bottom = -min(double_exponents())
    for e in range(top + 1):
        assert approx("log10_pow2", e) == len(str(2**e)) - 1
    for e in range(bottom + 1):
        assert approx("log10_pow5", e) == len(str(5**e)) - 1
        assert approx("pow5_bits", e) + 1 == (5**e).bit_length()


def test_table_sizes_cover_every_double():
    # the largest index the kernel takes into either table, over every
    # double's exponent, is the last entry of that table
    multiplier2, shift2 = kernel_log("log10_pow2")
    multiplier5, shift5 = kernel_log("log10_pow5")
    inv, pow5 = [], []
    for e2 in double_exponents():
        if e2 >= 0:
            inv.append(((e2 * multiplier2) >> shift2) - (e2 > 3))
        else:
            q = ((-e2 * multiplier5) >> shift5) - (-e2 > 1)
            pow5.append(-e2 - q)
    assert max(inv) + 1 == kernel_constant("POW5_INV_COUNT")
    assert max(pow5) + 1 == kernel_constant("POW5_COUNT")


def test_tables_match_python_integers(float_text, tmp_path, monkeypatch):
    # a build of the source with one more entry point, which returns the
    # tables' bytes
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    source = kernel_source()
    methods = "static PyMethodDef methods[] = {\n"
    assert source.count(methods) == 1
    (tmp_path / "_kernels.c").write_text(source.replace(
        methods, ACCESSOR + methods
        + '    {"tables", (PyCFunction)(void (*)(void))tables, METH_FASTCALL, ""},\n'))
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "_kernels.c")
    module = _native.load(tmp_path / "cache", sysconfig.get_paths()["include"])
    assert module is not None
    pow5_bytes, inv_bytes = module.tables()

    bits = kernel_constant("POW5_BITS")

    def entries(raw):
        return [int.from_bytes(raw[k:k + 16], sys.byteorder) for k in range(0, len(raw), 16)]

    def scaled(i):  # 5^i scaled to its top `bits` bits
        p = 5**i
        n = p.bit_length()
        return p >> (n - bits) if n > bits else p << (bits - n)

    def inverse(q):  # floor(2^(bits(5^q) - 1 + bits) / 5^q) + 1
        p = 5**q
        return (1 << (p.bit_length() - 1 + bits)) // p + 1

    assert entries(pow5_bytes) == [scaled(i) for i in range(kernel_constant("POW5_COUNT"))]
    assert entries(inv_bytes) == [inverse(q) for q in range(kernel_constant("POW5_INV_COUNT"))]
