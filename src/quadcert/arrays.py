"""Helpers that let one code path take a float or a numpy array.

numpy's +, -, *, /, abs and comparisons round as Python floats do; its
vectorised power can differ from Python's ``**`` in the last ulp, so every
power of an array goes through :func:`power`.
"""

import numpy as np


def power(x, e):
    """x ** e; on an array, Python's float power element by element."""
    if not isinstance(x, np.ndarray):
        return x ** e
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
