"""Tests for the float-or-array helpers of the bound layer."""

import math

import numpy as np
import pytest

from quadcert.arrays import every, power, select


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


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
