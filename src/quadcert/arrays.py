"""Helpers that let one code path take a float or a numpy array.

numpy's +, -, *, /, abs and comparisons round as Python floats do, and
np.float_power is the C ``pow`` that Python's ``**`` calls.  np.power is not
used: numpy may run it as SIMD code that moves the last ulp.  Every power
goes through :func:`power`.  A zero exponent gives the float 1.0 at every
point, 0 and NaN included, as Python's ``**`` does; the q = 1 bounds take
their gamma**0 factors so.
"""

import numpy as np


def power(x, e):
    """x ** e; on an array, np.float_power; ``**`` per element if a base is
    < 0 or NaN or a result not finite: Python's errors and complexes hold."""
    if e == 0.0:
        return 1.0
    if not isinstance(x, np.ndarray):
        return x ** e
    with np.errstate(all="ignore"):
        y = np.float_power(x, e, out=np.empty(x.shape))
        if (x >= 0.0).all() and np.isfinite(y).all():
            return y
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def map_scalar(fn, x):
    """fn(x); on an array, one call per element, each on a Python float."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def select(cond, if_true, if_false):
    """``if_true if cond else if_false`` at every point."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def every(cond):
    return cond.all() if isinstance(cond, np.ndarray) else cond
