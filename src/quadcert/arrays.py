"""Helpers that let one code path take a float or a numpy array.

numpy's +, -, *, /, abs and comparisons round as Python floats do, and
np.float_power is the C ``pow`` that Python's ``**`` calls.  np.power is not
used: numpy may run it as SIMD code that moves the last ulp.  Every power
goes through :func:`power` but one: the ``d ** q`` of
:func:`quadcert.classes.certify_membership` on its sampled draw is numpy's
``**``, because only the sampled verdict reads the result.  A zero
exponent gives the float 1.0 at every point, 0 and NaN included, as
Python's ``**`` does; the q = 1 bounds take their gamma**0 factors so.

A float takes each helper's first test and nothing else: a single rule
costs the arithmetic of ``**`` and ``if``, and only a grid pays numpy's
per-call overhead, which :func:`powers` pays once for several arrays.
"""

import math

import numpy as np

# |ln| of every result of power's unguarded path stays below this: e**-700
# and e**700 lie well inside the normal doubles, whose ln spans about
# [-708.4, 709.8], so no such power underflows or overflows
_LOG_RESULT_LIMIT = 700.0


def power(x, e):
    """x ** e; on an array, np.float_power; ``**`` per element if a base is
    < 0 or NaN or a result not finite: Python's errors and complexes hold.

    On an array whose bases are finite and >= 0 and whose results are 0
    (a base 0, e > 0) or, bounded by the powers of its least positive and
    largest base, normal, no floating-point flag can rise, so
    np.float_power runs with no np.errstate and no check of its result.
    Any other array takes the guarded path: with no base < 0 or NaN, every
    result lies in [0, inf], so min(x) and max(y) decide; max alone would
    pass (-1e300) ** 3.0 = -inf.  Both paths give the same bits."""
    if x.__class__ is float:  # x ** 0.0 is 1.0 at every float
        return x ** e
    if e == 0.0:
        return 1.0
    if not isinstance(x, np.ndarray):
        return x ** e
    lo = x.min(initial=math.inf)
    if x.ndim and 0.0 <= lo < math.inf:  # a 0-d result is no ndarray
        hi = x.max()
        if lo == 0.0 < e:  # 0 ** e is an exact 0: bound the positive bases
            lo = x.min(initial=hi, where=x > 0.0)
        if (0.0 < lo and hi < math.inf
                and abs(e * math.log(lo)) < _LOG_RESULT_LIMIT
                and abs(e * math.log(hi)) < _LOG_RESULT_LIMIT):
            return np.float_power(x, e)
    with np.errstate(all="ignore"):
        y = np.float_power(x, e, out=np.empty(x.shape))
        if lo >= 0.0 and y.max(initial=0.0) < np.inf:
            return y
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def powers(xs, e):
    """[power(x, e) for x in xs]; arrays of one shape take one
    :func:`power` call on their stack, which gives each element its bits
    and raises where the first failing x would.  A complex result, which
    one negative base makes of the whole stack, is taken x by x."""
    first = xs[0]
    if (e != 0.0 and isinstance(first, np.ndarray)
            and all(isinstance(x, np.ndarray) and x.shape == first.shape
                    for x in xs)):
        y = power(np.array(xs), e)
        if y.dtype.kind != "c":
            return list(y)
    return [power(x, e) for x in xs]


def map_scalar(fn, x):
    """fn on an array x: one call per element, each on a Python float."""
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def select(cond, if_true, if_false):
    """``if_true if cond else if_false`` at every point."""
    if cond.__class__ is bool:
        return if_true if cond else if_false
    if isinstance(cond, np.ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def every(cond):
    return cond.all() if isinstance(cond, np.ndarray) else cond


def extent(x):
    """(least, greatest) value of x at every point; NaN if x holds one,
    (inf, -inf) on an empty array."""
    if isinstance(x, np.ndarray):
        return x.min(initial=math.inf), x.max(initial=-math.inf)
    return x, x
