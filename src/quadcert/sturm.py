"""Exact sign tests of polynomials on an interval, by Sturm chains.

A polynomial is a list of Python ints, lowest degree first, with no
trailing zero (0 is the empty list); :func:`integer_poly` makes one of a
list of floats by a common power-of-two scale, which leaves every sign as
it is.  A point is a dyadic rational (n, d), d a power of 2, as
``float.as_integer_ratio`` gives it, and every point made here is one too.
Nothing is rounded, so :func:`negative_point` and :func:`sign_change`
decide exactly.
"""

from __future__ import annotations

import math


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def integer_poly(coeffs):
    """The float coefficients coeffs, times a power of 2, as ints."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)
    return _trim([n * (den // d) for n, d in ratios])


def times(k, c):
    return _trim([k * x for x in c])


def add(f, g):
    if len(f) < len(g):
        f, g = g, f
    return _trim([x + (g[i] if i < len(g) else 0) for i, x in enumerate(f)])


def mul(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def derivative(c):
    return [k * c[k] for k in range(1, len(c))]


def _primitive(c):
    """c divided by the positive gcd of its coefficients."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _pdiv(f, g):
    """(quotient, remainder) of f by g, each up to a positive factor:
    c f = quotient g + remainder for some c > 0, deg remainder < deg g."""
    sign = 1 if g[-1] > 0 else -1
    lead, n = abs(g[-1]), len(g) - 1
    rem, quo = list(f), [0] * max(len(f) - n, 0)
    while len(rem) > n:
        c, k = rem[-1], len(rem) - 1 - n
        rem = [lead * x for x in rem]
        quo = [lead * x for x in quo]
        quo[k] += sign * c
        for i, y in enumerate(g):
            rem[k + i] -= sign * c * y
        _trim(rem)
    return _primitive(quo), _primitive(rem)


def _sturm_chain(r):
    """The Sturm chain of r's square-free part, r not 0."""
    chain, d = [r], derivative(r)
    while d:
        chain.append(d)
        d = [-x for x in _pdiv(chain[-2], d)[1]]
    if len(chain[-1]) > 1:  # gcd(r, r') has a root: so r has a double one
        return _sturm_chain(_pdiv(r, chain[-1])[0])
    return chain


def _value(c, x):
    """c(n/d) * d^deg(c), which has the sign of c at x = (n, d)."""
    n, d = x
    v, scale = 0, 1
    for ck in reversed(c):
        v = v * n + ck * scale
        scale *= d
    return v


def _variations(chain, x):
    count, prev = 0, 0
    for c in chain:
        v = _value(c, x)
        if v:
            count += prev != 0 and (v < 0) != (prev < 0)
            prev = v
    return count


def _mid(x, y):
    (n1, d1), (n2, d2) = x, y
    d = max(d1, d2)
    return n1 * (d // d1) + n2 * (d // d2), 2 * d


def negative_point(r, lo, hi):
    """A point of [lo, hi] where r < 0, or None if r >= 0 there.

    Bisects until each piece holds no root of r, or one root with r > 0 at
    both ends: r keeps one sign between its distinct roots, and Sturm's
    theorem counts those in a piece.
    """
    if not r:
        return None
    chain = _sturm_chain(r)
    ends = []
    for x in (lo, hi):
        v = _value(r, x)
        if v < 0:
            return x
        ends += [x, v, _variations(chain, x)]
    pieces = [tuple(ends)]
    while pieces:
        lo, r_lo, v_lo, hi, r_hi, v_hi = pieces.pop()
        # the variations count the roots in (lo, hi]
        roots = v_lo - v_hi - (r_hi == 0)
        if roots == 0 and (r_lo or r_hi) or roots == 1 and r_lo and r_hi:
            continue
        mid = _mid(lo, hi)
        r_mid = _value(r, mid)
        if r_mid < 0:
            return mid
        v_mid = _variations(chain, mid)
        pieces += [(mid, r_mid, v_mid, hi, r_hi, v_hi),
                   (lo, r_lo, v_lo, mid, r_mid, v_mid)]
    return None


def sign_change(p, lo, hi):
    """A point within about an ulp of a root of (lo, hi) where p changes
    sign, or None if p keeps one sign on [lo, hi]."""
    neg, pos = negative_point(p, lo, hi), negative_point(times(-1, p), lo, hi)
    if neg is None or pos is None:
        return None
    # bisect until the midpoint rounds to the float of an end
    while True:
        mid = _mid(neg, pos)
        x = mid[0] / mid[1]
        v = _value(p, mid)
        if v == 0 or x in (neg[0] / neg[1], pos[0] / pos[1]):
            return mid
        if v < 0:
            neg = mid
        else:
            pos = mid
