"""Tanh-sinh quadrature for the bound path's numeric moments.

The double-exponential rule of Takahasi & Mori (1974), with the level
scheme of Bailey, Jeyabalan & Li (2005): x = tanh(pi/2 sinh t) maps the
trapezoid nodes t = j 2^-k, |t| <= 4.5, onto (-1, 1), crowding them doubly
exponentially toward both ends.  Integrable endpoint singularities such as
sqrt(t), t^-1/2 or log t therefore settle in a few levels, where adaptive
Gauss-Kronrod needs thousands of samples.  An interior kink or other
feature away from the ends does not settle; such a piece falls back to the
oracle's adaptive integrator.
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
    """(offset, weight) of each t > 0 that level k adds to the rule.

    The two nodes of t lie offset*(b-a)/2 inside either end; the offset
    1 - tanh(u) is formed as exp(-u)/cosh(u) so it keeps its digits.
    """
    step = 2.0 ** -k
    out = []
    # level 0 takes every integer t, each later level the odd multiples
    for j in range(1, int(_T_MAX / step) + 1, 1 if k == 0 else 2):
        t = j * step
        u = 0.5 * math.pi * math.sinh(t)
        out.append((math.exp(-u) / math.cosh(u),
                    0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2))
    return tuple(out)


_LEVELS = tuple(_level(k) for k in range(MAX_LEVEL + 1))


def integrate(g: Callable[[float], float], a: float, b: float) -> float:
    """Integral of g over [a, b] to the oracle's tolerance TOL.

    Levels are refined until two successive ones differ by at most
    max(TOL, 1e-14 |value|), from level 2 on.  A node that rounds onto a
    or b is skipped, so g is never called at an end.  Each level's nodes
    are evaluated together, in the order of the node table, by one call
    of g per node on a Python float; a non-finite sample raises
    NonFiniteSample naming the first such node.  If level MAX_LEVEL has
    not settled, the piece is integrated by ``oracle.integrate_adaptive``
    instead.
    """
    half = 0.5 * (b - a)
    terms = _terms(g, [(0.5 * (a + b), 0.5 * math.pi)], a, b)
    prev = None
    for k, level in enumerate(_LEVELS):
        terms += _terms(g, [(x, w) for offset, w in level
                            for x in (a + half * offset, b - half * offset)],
                        a, b)
        value = half * 2.0 ** -k * math.fsum(terms)
        if k >= 2 and abs(value - prev) <= max(oracle.TOL,
                                               1e-14 * abs(value)):
            return value
        prev = value
    return oracle.integrate_adaptive(g, a, b, oracle.TOL).value


def _terms(g, nodes, a, b):
    """w * g(x) for each (x, w) of nodes, in order, g called one float at a
    time; a node that rounds onto a or b is skipped."""
    nodes = [(x, w) for x, w in nodes if a != x != b]
    fx = [float(g(x)) for x, _ in nodes]
    if not all(map(math.isfinite, fx)):
        x, v = next((x, v) for (x, _), v in zip(nodes, fx)
                    if not math.isfinite(v))
        raise NonFiniteSample(f"integrand is {v!r} at the tanh-sinh node "
                              f"{x!r} of [{a!r}, {b!r}]")
    return [w * v for (_, w), v in zip(nodes, fx)]
