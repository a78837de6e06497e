"""Function specs: the poly:, pow: and exp: families of f, their text form,
and what is decided exactly from their parameters.

The text form, which the command line's --function takes:

  poly:c0,c1,...   f(x) = sum c_k x^k
  pow:beta,r       f(x) = beta * x^r          (r > 0, domain x >= 0)
  exp:k            f(x) = exp(k x)

Every parameter must be a finite float.  :func:`parse_spec` reads the text
into a :class:`FunctionSpec`, which builds the (f, f') pair that is
evaluated and decides, exactly for that f', whether |f'|^q is convex or
concave on [a, b], whether f' is 0 and whether |f'|^q is a P-function;
:func:`classes.certify_membership` reads these decisions.  A decision on a
poly: spec imports :mod:`sturm` when it is first made, so importing
quadcert does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class FunctionSpec:
    """An f of one of three families, by its finite float parameters:
    ``poly`` (c0, c1, ...) for sum c_k x^k, ``pow`` (beta, r) with r > 0
    for beta x^r, and ``exp`` (k,) for exp(k x).

    :meth:`functions` builds the (f, f') pair that is evaluated, and
    :meth:`shape_failure` decides exactly whether that f' makes |f'|^q
    convex or concave.  Each parameter is a real number, numpy's included,
    kept as a float; DomainError for any other family or parameters.
    """

    family: str
    params: Tuple[float, ...]

    def __post_init__(self):
        try:  # float alone would read the str "1" and np.complex128(1)
            given = tuple(self.params)
            params = tuple(map(float, given)) if all(
                isinstance(c, Real) for c in given) else ()
        except (TypeError, OverflowError):  # not iterable, or past floats
            params = ()
        object.__setattr__(self, "params", params or self.params)
        arity = {"poly": len(params), "pow": 2, "exp": 1}
        if not (params and isinstance(self.family, str)
                and len(params) == arity.get(self.family)
                and all(map(math.isfinite, params))
                and (self.family != "pow" or params[1] > 0.0)):
            raise DomainError(f"not a function spec: {self!r}")

    @cached_property
    def derivative_coeffs(self) -> Tuple[float, ...]:
        """The float coefficients of f' for poly, lowest degree first."""
        return tuple([k * c for k, c in enumerate(self.params)][1:] or [0.0])

    def functions(self):
        """(f, f'), each taking a float or an array."""
        if self.family == "poly":
            return _poly(self.params), _poly(self.derivative_coeffs)
        if self.family == "pow":
            beta, r = self.params
            return (lambda x: beta * x ** r,
                    lambda x: beta * r * x ** (r - 1.0))
        (k,) = self.params
        return lambda x: np.exp(k * x), lambda x: k * np.exp(k * x)

    def shape_failure(self, q: float, a: float, b: float,
                      concave: bool = False) -> Optional[float]:
        """None when g = |f'|^q is convex on [a, b], or concave if concave;
        else a point of [a, b] where g fails that second-order test.

        Exact for the f' that :meth:`functions` evaluates, its float
        parameters and q read as the dyadic rationals they are, wherever
        :meth:`decides_from` holds at a.
        """
        q, a, b = float(q), float(a), float(b)
        middle = a + 0.5 * (b - a)
        if self.family == "exp":  # g = |k|^q exp(q k x)
            return middle if concave and self.params[0] != 0.0 else None
        if self.family == "pow":
            # g = |beta r|^q x^e with e = q (r - 1) is convex on x > 0 iff
            # e (e - 1) >= 0; the signs of e and e - 1 in integers
            beta, r = self.params
            (qn, qd), (dn, dd) = (q.as_integer_ratio(),
                                  (r - 1.0).as_integer_ratio())
            above_one = qn * dn - qd * dd
            fits = (dn >= 0 and above_one <= 0 if concave
                    else dn <= 0 or above_one >= 0)
            return None if fits or beta * r == 0.0 else middle
        point = _poly_shape_failure(self.derivative_coeffs, q, a, b, concave)
        return None if point is None else point[0] / point[1]

    def decides_from(self, a: float) -> bool:
        """Whether the exact decisions hold on an interval that starts at a:
        pow reads x^(r - 1) as real, which it is for x >= 0 only."""
        return self.family != "pow" or a >= 0.0

    @property
    def zero_derivative(self) -> bool:
        """Whether the f' that :meth:`functions` evaluates is 0."""
        if self.family == "poly":
            return not any(self.derivative_coeffs)
        if self.family == "pow":
            return self.params[0] * self.params[1] == 0.0
        return self.params[0] == 0.0

    def p_test(self, q: float, a: float, b: float):
        """Whether g = |f'|^q is a P-function on [a, b]: True if it is, a
        point of [a, b] where it fails, or None where the bounds below
        cannot tell, as at an exact tie or past the float range.

        A monotone g >= 0 is one, so exp, and pow for a >= 0, are.  For
        poly, g >= 0 is one iff g(z) - min g on [a, z] - min g on [z, b]
        <= 0 for every z.  Where |f'| is monotone that excess peaks at an
        end of the stretch, so it is tested at the roots of p' that are not
        roots of p = f'.  Each root lies in a dyadic interval on which the
        Sturm chain bounds p exactly and the q-th power is rounded outward;
        the intervals are halved until the bounds of some excess lie above
        0, or those of every excess at or below it, or |p| at the root lies
        at or below |p| on a whole side, compared in integers: that settles
        a monotone |f'| where the floats tie.
        """
        if self.family != "poly":
            return True
        try:
            verdict = _poly_p_test(self.derivative_coeffs, float(q),
                                   float(a), float(b))
        except OverflowError:  # a bound past the float range
            return None
        if verdict is True or verdict is None:
            return verdict
        return verdict[0] / verdict[1]


def _poly(c):
    """sum c_k x^k, added left to right from the integer 0, as sum() added
    before Python 3.12, whose compensated sum moves the last bit."""
    def evaluate(x):
        total = 0
        for k, ck in enumerate(c):
            total = total + ck * x ** k
        return total
    return evaluate


def _poly_shape_failure(coeffs, q, a, b, concave):
    """:meth:`FunctionSpec.shape_failure` for the f' of these coefficients,
    as a dyadic point.

    Away from the zeros of p = f', g'' = q |p|^(q - 2) r with
    r = (q - 1) p'^2 + p p'', so g is convex iff r >= 0 on [a, b]: at a zero
    of p, g has a convex corner or a flat point.  g is concave iff r <= 0 on
    [a, b] and p keeps one sign: a corner, where p changes sign, is convex.
    """
    # local: only this check needs it, so importing quadcert skips it
    from .sturm import (add, derivative, integer_poly, mul, negative_point,
                        sign_change, times)
    p = integer_poly(coeffs)
    if not p:
        return None  # g = 0
    dp = derivative(p)
    qn, qd = q.as_integer_ratio()
    r = add(times(qn - qd, mul(dp, dp)), times(qd, mul(p, derivative(dp))))
    lo, hi = a.as_integer_ratio(), b.as_integer_ratio()
    if not concave:
        return negative_point(r, lo, hi)
    point = negative_point(times(-1, r), lo, hi)
    return sign_change(p, lo, hi) if point is None else point


# P-test: halvings of the roots' intervals before the bounds count as a tie
_P_TEST_HALVINGS = 200


def _power_outward(x, q, to):
    """x ** q, x a correctly rounded quotient, moved toward ``to`` past
    every rounding: a step for x's, two for that of **, within an ulp."""
    step = math.nextafter
    return step(step(step(x, to) ** q, to), to)


def _poly_p_test(coeffs, q, a, b):
    """:meth:`FunctionSpec.p_test` for the f' of these coefficients, with a
    dyadic point; OverflowError where a bound leaves the float range."""
    from .sturm import (derivative, halve, has_root, integer_poly, midpoint,
                        roots, strip_common, value_range)
    p = integer_poly(coeffs)
    dp = derivative(p)
    if not dp:
        return True  # g is constant
    lo, hi = a.as_integer_ratio(), b.as_integer_ratio()
    unit = max(c.as_integer_ratio()[1] for c in coeffs)  # p's scale

    def g_range(x, y):
        """(g_lo, g_hi, m, n, d), g_lo <= g <= g_hi and m/d <= |p| <= n/d
        on [x, y], or None if p may vanish there."""
        m, n, d = value_range(p, x, y)
        if m < 0 < n:
            return None
        m, n = sorted((abs(m), abs(n)))
        high = _power_outward(n / (d * unit), q, math.inf)
        if high == math.inf:
            raise OverflowError("|f'|^q is not finite")
        return _power_outward(m / (d * unit), q, 0.0), high, m, n, d

    ends = g_range(lo, lo), g_range(hi, hi)
    zero = (0.0, 0.0, 0, 0, 1)  # the range of g at a root of p
    free, peaks = roots(strip_common(dp, p), lo, hi)
    zeros = None  # whether p has a root left, and right, of each peak
    for _ in range(_P_TEST_HALVINGS):
        ranges = [g_range(*iv) for iv in peaks]
        if None not in ranges:
            if zeros is None:  # once p keeps one sign on every interval
                zeros = [(has_root(p, lo, l), has_root(p, u, hi))
                         for l, u in peaks]
            tie = False
            for j, (g_lo, g_hi, _, n, d) in enumerate(ranges):
                # bounds of g's least value on [a, z] and on [z, b]
                left_zero, right_zero = zeros[j]
                left = [ends[0], *ranges[:j]] + [zero] * left_zero
                right = [ends[1], *ranges[j + 1:]] + [zero] * right_zero
                l_lo, l_hi, *_ = map(min, zip(*left))
                r_lo, r_hi, *_ = map(min, zip(*right))
                if math.fsum((g_lo, -l_hi, -r_hi)) > 0.0:
                    return midpoint(*peaks[j])
                if math.fsum((g_hi, -l_lo, -r_lo)) > 0.0:
                    tie = tie or not any(
                        all(n * e <= m * d for _, _, m, _, e in side)
                        for side in (left, right))
            if not tie:
                return True
        halved = [halve(free, iv) for iv in peaks]
        if halved == peaks:  # every root exact, and still a tie
            return None
        peaks = halved
    return None


def parse_spec(spec: str) -> FunctionSpec:
    """The FunctionSpec of a spec's text form (see the module docstring);
    ConfigError if the text is not one."""
    try:
        name, _, rest = spec.partition(":")
        return FunctionSpec(name, tuple(float(c) for c in rest.split(",")))
    except (ValueError, TypeError):
        raise ConfigError(f"cannot parse function spec {spec!r}") from None
