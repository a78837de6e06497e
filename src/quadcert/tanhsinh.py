"""Tanh-sinh quadrature for custom moduli: their moments and integral.

The double-exponential rule of Takahasi & Mori (1974), with the level
scheme of Bailey, Jeyabalan & Li (2005): x = tanh(pi/2 sinh t) maps the
trapezoid nodes t = j 2^-k, |t| <= 4.5, onto (-1, 1), crowding them doubly
exponentially toward both ends.  Integrable endpoint singularities such as
sqrt(t), t^-1/2 or log t therefore settle in a few levels, where adaptive
Gauss-Kronrod needs thousands of samples.  An interior kink or other
feature away from the ends does not settle; such a piece falls back to the
oracle's adaptive integrator.  Where the steps between levels shrink
geometrically, the last level is skipped once their extrapolated tail is
within tolerance.  A named modulus, 1/t too, never reaches this rule.  Its
integrands come from :mod:`quadcert.classes`, which alone calls a custom
modulus's fn and checks its values: HModulus.evaluator for the integral of
h and HModulus.moment_integrand for the moments.  Each level's (offset,
weight) pairs are tabled once, at import, and a level is one loop over
them: per pair the node offset*(b-a)/2 above a and then the one below b,
each sample tested as it arrives and its product w g(x) appended to
math.fsum's terms, with no separate finiteness scan and no weight table in
node order.
"""

from __future__ import annotations

import math
from typing import Callable

from . import oracle
from .errors import NonFiniteSample

# Levels 0..MAX_LEVEL; level k has step 2^-k, at most 145 nodes in all.
MAX_LEVEL = 4
_T_MAX = 4.5


def _level(k: int):
    """(offset, weight) of each t > 0 that level k adds to the rule: its two
    nodes lie offset*(b-a)/2 inside either end, the offset 1 - tanh(u)
    formed as exp(-u)/cosh(u) so it keeps its digits."""
    step = 2.0 ** -k
    # level 0 takes every integer t, each later level the odd multiples
    for j in range(1, int(_T_MAX / step) + 1, 1 if k == 0 else 2):
        u = 0.5 * math.pi * math.sinh(j * step)
        yield (math.exp(-u) / math.cosh(u),
               0.5 * math.pi * math.cosh(j * step) / math.cosh(u) ** 2)


_LEVELS = tuple(tuple(_level(k)) for k in range(MAX_LEVEL + 1))


def integrate(g: Callable[[float], float], a: float, b: float) -> float:
    """Integral of g over [a, b] to the oracle's tolerance TOL.

    Levels are refined until two successive ones differ by at most
    tol = max(TOL, 1e-14 |value|), from level 2 on.  Level 3 also ends the
    walk when its step d3 from level 2 is below level 2's step d2 and the
    geometric tail of the steps to come, d3 r / (1 - r) with r = d3 / d2,
    is within tol, that is d3^2 <= tol (d2 - d3); that spares the 72 nodes
    of level 4 where the steps shrink that fast.  A node that rounds onto
    a or b is skipped, so g is never called at an end.  Each level's nodes
    are evaluated in the order of the node table, by one call of g per
    node on a Python float; a non-finite sample raises NonFiniteSample
    naming its node, and g is not called past it.  If level MAX_LEVEL has
    not settled, ``oracle.integrate_adaptive`` integrates the piece
    instead.
    """
    isfinite = math.isfinite
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    # a skipped node counts +0.0, which leaves math.fsum's sum as it is
    fx = g(mid) if a != mid != b else 0.0
    if not isfinite(fx):
        _non_finite(fx, mid, a, b)
    terms = [0.5 * math.pi * fx]
    append = terms.append
    prev = step = math.inf
    for k, level in enumerate(_LEVELS):
        # the pair's node above a, then its node below b, written out: a
        # loop over (a + d, b - d) would build a tuple per pair
        for offset, w in level:
            d = half * offset
            x = a + d
            fx = g(x) if a != x != b else 0.0
            if not isfinite(fx):
                _non_finite(fx, x, a, b)
            append(w * fx)
            x = b - d
            fx = g(x) if a != x != b else 0.0
            if not isfinite(fx):
                _non_finite(fx, x, a, b)
            append(w * fx)
        value = half * 2.0 ** -k * math.fsum(terms)
        last, step = step, abs(value - prev)
        tol = max(oracle.TOL, 1e-14 * abs(value))
        if k >= 2 and step <= tol:
            return value
        if k == MAX_LEVEL - 1:
            # level 2 did not stop, so last > 0; d3^2 <= tol (d2 - d3) in a
            # form in which neither side overflows
            r = step / last
            if step * r <= tol * (1.0 - r):
                return value
        prev = value
    return oracle.integrate_adaptive(g, a, b, oracle.TOL).value


def _non_finite(fx, x, a, b):
    """Raise NonFiniteSample for the sample fx at the node x of [a, b]."""
    raise NonFiniteSample(f"integrand is {float(fx)!r} at the tanh-sinh "
                          f"node {x!r} of [{a!r}, {b!r}]")
