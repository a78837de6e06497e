"""Tests for the float-or-array helpers of the bound layer."""

import contextlib
import math

import numpy as np
import pytest

from quadcert import arrays
from quadcert.arrays import every, power, select


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _python_power(x, e):
    """The element-by-element ``**`` that power's array branch must match."""
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


# 10**5 seeded bases on [0, 3] and the edge cases: signed zeros,
# subnormals, values within 1e-12 of 1; BIG is added where e <= 1
BIG = 1e300
BASES = np.concatenate([
    np.random.default_rng(20).uniform(0.0, 3.0, 100_000),
    [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308],
    1.0 + np.random.default_rng(21).uniform(-1e-12, 1e-12, 1_000)])

# the exponents of the bound layer: 1/q and 1 - 1/q, s + 1 and s + 2,
# p + 1 for the conjugate p = q/(q - 1), and 2, 3 and 1/2
EXPONENTS = sorted({e for q in (1.5, 2.0, 3.7)
                    for e in (1.0 / q, 1.0 - 1.0 / q, q / (q - 1.0) + 1.0)}
                   | {e for s in (0.3, 1.0) for e in (s + 1.0, s + 2.0)}
                   | {2.0, 3.0, 0.5})


class TestPowerParity:
    """power's array branch is Python's ``**`` bit for bit."""

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_array_bits_are_python_power(self, e):
        x = np.append(BASES, BIG) if e <= 1.0 else BASES
        got = power(x, e)
        assert type(got) is np.ndarray and got.dtype == np.float64
        want = _python_power(x, e)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (bad.size, x[bad[:5]].tolist())

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            power(np.array([2.0, BIG, 3.0]), 1.3)

    def test_negative_overflow_raises(self):
        # float_power gives -inf, which only the min(x) >= 0 test sends to
        # the fallback, where (-1e300) ** 3.0 raises
        with pytest.raises(OverflowError):
            power(np.array([-1e300, 2.0]), 3.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.filterwarnings("error")
    def test_empty_stays_empty(self, shape):
        got = power(np.empty(shape), 1.3)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == shape

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_to_negative_power_raises(self, zero):
        with pytest.raises(ZeroDivisionError):
            power(np.array([[1.5, zero]]), -0.5)

    @pytest.mark.parametrize("e", [1.0 / 3.0, 3.0, 2.0])
    def test_negative_base_is_python_power(self, e):
        # a complex result at a fractional e, a float one at an integral e
        x = np.array([-8.0, 2.0, -0.5])
        got, want = power(x, e), _python_power(x, e)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [0.5, 3.0, -0.5])
    def test_nan_and_inf_propagate(self, e):
        x = np.array([math.nan, math.inf, -math.inf, 0.5])
        assert _bits(power(x, e)) == _bits(_python_power(x, e))

    @pytest.mark.parametrize("x0, e", [(2.0, 0.5), (-8.0, 1.0 / 3.0)])
    def test_zero_dim_stays_zero_dim(self, x0, e):
        got = power(np.array(x0), e)
        assert type(got) is np.ndarray and got.shape == ()
        assert got.tobytes() == np.array(x0 ** e).tobytes()

    def test_zero_dim_raises(self):
        with pytest.raises(ZeroDivisionError):
            power(np.array(0.0), -1.0)


class TestPowerFastPath:
    """Arrays that no floating-point flag can rise on skip np.errstate."""

    @pytest.fixture
    def errstates(self, monkeypatch):
        """The number of np.errstate blocks power enters."""
        entered = []
        errstate = np.errstate

        def counting(**kw):
            entered.append(kw)
            return errstate(**kw)

        monkeypatch.setattr(arrays.np, "errstate", counting)
        return entered

    @pytest.mark.parametrize("e", [0.4, 2.3])
    def test_in_range_skips_errstate(self, errstates, e):
        x = np.random.default_rng(5).uniform(0.05, 3.0, (5, 5))
        got = power(x, e)
        assert errstates == []
        assert type(got) is np.ndarray and got.shape == (5, 5)
        assert _bits(got) == _bits(_python_power(x, e))

    # 0 ** e for e > 0 is an exact 0, +0 or -0 as ** gives it, and raises
    # no flag: a lambda = 0 column or an alpha in {0, 1} row keeps the
    # unguarded path, with the bits of **
    @pytest.mark.parametrize("x, e", [
        ([0.5, 0.0], 0.4), ([0.5, -0.0], 2.3),
        ([[0.0, 0.3], [-0.0, 2.0]], 3.0),
    ], ids=["zero", "negative-zero", "signed-zeros-odd-e"])
    def test_zero_bases_skip_errstate(self, errstates, x, e):
        x = np.array(x)
        with np.errstate(all="raise"):
            got = power(x, e)
        assert errstates == [{"all": "raise"}]
        assert type(got) is np.ndarray and got.shape == x.shape
        assert _bits(got) == _bits(_python_power(x, e))

    @pytest.mark.parametrize("x, e", [
        ([0.5, -0.25], 2.0),
        ([0.5, math.nan], 0.4), ([0.5, math.inf], 0.4),
        ([0.5, 1e-300], 1.1),     # 1e-330 is subnormal
        ([0.5, 1e-150], 2.3),     # so is 1e-345
        ([0.5, 1e200], 2.3),      # 1e460 overflows
        ([0.5, 1e-200], -2.0),    # so does 1e400
        ([0.5, 1e300], -1.1),     # and this underflows
        ([0.0, 0.5], -0.4),       # 0 to a negative power
        ([0.0, 1e-300, 0.5], 1.1),  # a zero, and a subnormal result
        ([0.0, -0.0], 0.4),       # no positive base
    ], ids=["negative", "nan", "inf",
            "subnormal", "subnormal-square", "overflow", "negative-e",
            "negative-e-underflow", "zero-negative-e", "zero-subnormal",
            "zeros-only"])
    def test_guarded_path_otherwise(self, errstates, x, e):
        x = np.array(x)
        with contextlib.suppress(ArithmeticError):
            power(x, e)
        assert len(errstates) == 1

    def test_subnormal_bases_with_normal_results(self, errstates):
        x = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 1.0])
        with np.errstate(all="raise"):
            got = power(x, 0.4)
        assert errstates == [{"all": "raise"}]
        assert _bits(got) == _bits(_python_power(x, 0.4))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_no_flag_raised(self, e):
        # the parity sample in blocks of about 25, the size of a 5x5 grid;
        # ** raises on none of these, so power must not either
        x = np.append(BASES, BIG) if e <= 1.0 else BASES
        with np.errstate(all="raise"):
            got = [power(block, e) for block in np.array_split(x, x.size // 25)]
        assert _bits(np.concatenate(got)) == _bits(_python_power(x, e))


class TestPower:
    @pytest.mark.parametrize("e", [1.4, 1.0 / 3.0])
    def test_array_matches_python_power(self, e):
        x = np.random.default_rng(11).uniform(0.0, 3.0, (7, 5))
        got = power(x, e)
        assert got.shape == x.shape
        want = [v ** e for v in x.ravel().tolist()]
        assert _bits(got.ravel()) == _bits(want)

    @pytest.mark.parametrize("x, e", [(0.3, 1.4), (2.5, 1.0 / 3.0),
                                      (0.0, 2.0), (7.0, 3.0)])
    def test_float_is_python_power(self, x, e):
        got = power(x, e)
        assert type(got) is float
        assert _bits(got) == _bits(x ** e)

    @pytest.mark.parametrize("x", [np.array([0.0, math.nan, 0.5, math.inf]),
                                   0.0, math.nan, 2.0])
    def test_zero_exponent_is_one(self, x):
        # one float at every point, as Python's 0.0 ** 0.0 and nan ** 0.0
        assert power(x, 0.0) == 1.0
        assert type(power(x, 0.0)) is float


class TestSelectEvery:
    def test_select_on_bools(self):
        assert select(True, 1.0, 2.0) == 1.0
        assert select(False, 1.0, 2.0) == 2.0

    def test_select_on_bool_arrays(self):
        cond = np.array([True, False, True])
        got = select(cond, np.array([1.0, 2.0, 3.0]), 0.0)
        assert got.tolist() == [1.0, 0.0, 3.0]

    def test_every_on_bools(self):
        assert every(True) is True
        assert every(False) is False

    def test_every_on_bool_arrays(self):
        assert every(np.array([True, True]))
        assert not every(np.array([[True], [False]]))
