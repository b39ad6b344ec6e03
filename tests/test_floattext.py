"""The float-to-text kernel against ``repr``, value by value."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remitsim import floattext
from remitsim.floattext import repr_bytes

# a numpy scalar that overflows warns, and numpy 1.x warns of conversions that NEP 50
# changes: the kernel must raise neither. (Hypothesis imports libcst to report a failure.)
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")


def _texts(values) -> list[str]:
    rows = repr_bytes(np.asarray(values, dtype=float))
    assert rows.dtype == np.uint8 and rows.ndim == 2 and len(rows) == len(values)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _mismatches(values) -> list[tuple[str, str]]:
    values = np.asarray(values, dtype=float)
    return [(repr(v), got) for v, got in zip(values.tolist(), _texts(values)) if repr(v) != got]


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=50))
def test_drawn_floats(values):
    """NaN, the infinities, subnormals and both zeros included."""
    assert _mismatches(values) == []


def test_random_bit_patterns():
    rng = np.random.default_rng(20200319)
    for _ in range(10):
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        assert _mismatches(bits.view(np.float64)) == []


def test_powers_of_two_and_ten_with_neighbours():
    twos = [2.0**e for e in range(-1074, 1024)]
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    values = _with_neighbours(twos + tens)
    assert _mismatches(np.concatenate([values, -values])) == []


def test_mantissa_zero_values():
    """The interval below a power of two is half as wide as the one above."""
    biased = np.arange(1, 2047, dtype=np.uint64)
    values = (biased << np.uint64(52)).view(np.float64)
    assert np.all(np.frexp(values)[0] == 0.5)
    assert _mismatches(np.concatenate([values, -values])) == []


def test_integers_near_two_to_the_53():
    ints = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.float64)
    assert _mismatches(_with_neighbours(np.concatenate([ints, -ints]))) == []


def test_notation_edges():
    """repr switches to an exponent below 1e-4 and from 1e16, of two digits or more."""
    edges = [0.0001, 1e-05, 1e15, 1e16, 0.00012345, 9.999e-05, 1234567890123456.7,
             12345678901234567.0, 1e100, 1e-100, 1.5e300, 5e-324, 2.2250738585072014e-308]
    values = _with_neighbours(edges)
    assert _mismatches(np.concatenate([values, -values])) == []
    assert _texts([1e16, 1e-05, 1e15, 0.0001, 100.0, -0.0, 0.0]) == [
        "1e+16", "1e-05", "1000000000000000.0", "0.0001", "100.0", "-0.0", "0.0"]


def test_grid_like_values():
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.lognormal(10, 4, 20_000), rng.random(20_000) ** 4,
                             -rng.random(5_000), rng.integers(0, 10**7, 5_000).astype(float)])
    assert _mismatches(values) == []


def test_empty_and_single():
    assert repr_bytes(np.array([])).shape[0] == 0
    assert _texts([0.1]) == ["0.1"]


# ---------------------------------------------------------------------------
# The limb arithmetic, against Python integers

_LIMB = 2**64
# limbs where carries and borrows start or stop: 0, 1, the top bit, all ones
_EDGE_LIMBS = [0, 1, 2, 2**32 - 1, 2**32, 2**63 - 1, 2**63, _LIMB - 2, _LIMB - 1]
_limbs = st.one_of(st.sampled_from(_EDGE_LIMBS), st.integers(0, _LIMB - 1))


def _value(*limbs) -> int:
    return sum(int(limb) << 64 * i for i, limb in enumerate(reversed(limbs)))


def _arrays(*limbs) -> list[np.ndarray]:
    return [np.array([limb], dtype=np.uint64) for limb in limbs]


def _high_limbs(a, b, op) -> tuple[int, int]:
    """The two high limbs of ``op(a, b)`` for three-limb ``a`` and ``b``, modulo 2**192."""
    r = op(_value(*a), _value(*b)) % _LIMB**3
    return r >> 128, (r >> 64) % _LIMB


# a1 == b1 with a0 < b0 borrows through a middle limb of 0; r1 == 2**64 - 1
# with a carry out of the low limb carries through to the high limb
_CRAFTED = [((5, 7, 1), (2, 7, 2)), ((5, 0, 0), (2, 0, 1)), ((1, _LIMB - 1, _LIMB - 1), (0, 0, 1)),
            ((0, _LIMB - 2, _LIMB - 1), (0, 1, 1)), ((0, _LIMB - 1, 0), (0, 0, _LIMB - 1)),
            ((3, 2**63, 2**63), (4, 2**63, 2**63)), ((0, 0, 0), (0, 0, 1))]


def _assert_add_and_sub(a, b):
    got_add = floattext._add(*_arrays(*a), *_arrays(*b))
    got_sub = floattext._sub(*_arrays(*a), *_arrays(*b))
    assert tuple(int(limb[0]) for limb in got_add) == _high_limbs(a, b, int.__add__)
    assert tuple(int(limb[0]) for limb in got_sub) == _high_limbs(a, b, int.__sub__)


@pytest.mark.parametrize("a, b", _CRAFTED + [(b, a) for a, b in _CRAFTED])
def test_add_and_sub_carry_and_borrow(a, b):
    _assert_add_and_sub(a, b)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_limbs, _limbs, _limbs), st.tuples(_limbs, _limbs, _limbs))
def test_drawn_add_and_sub(a, b):
    _assert_add_and_sub(a, b)


@settings(max_examples=300, deadline=None)
@given(_limbs, st.integers(0, 2**59 - 1) | st.sampled_from([0, 2**59 - 1, 2**32 - 1, 2**32]))
def test_mul_gives_the_128_bit_product(a, b):
    """``_mul`` takes b as 32-bit limbs, the high one below 2**27."""
    high, low = floattext._mul(*_arrays(a, b >> 32, b % 2**32))
    assert (int(high[0]), int(low[0])) == divmod(a * b, _LIMB)


def test_g_is_floor_plus_one_over_every_exponent():
    """g = floor(10**-k * 2**-r) + 1 with r = floor(log2 10**-k) - 125, for
    every k of the table, also where 10**-k * 2**-r is an integer, so that
    floor + 1 is not its ceiling."""
    for k in range(floattext._K_MIN, floattext._K_MIN + floattext._K_COUNT):
        scale = Fraction(10)**-k
        log2 = scale.numerator.bit_length() - scale.denominator.bit_length()
        log2 -= Fraction(2)**log2 > scale
        r = log2 - 125
        exact = scale / Fraction(2)**r
        want = exact.numerator // exact.denominator + 1
        high, low = floattext._g(k)
        assert 2**125 < want <= 2**126, k
        assert high * _LIMB + low == want, k
