"""Exact sign tests of polynomials on an interval, by Sturm chains.

A polynomial is a list of Python ints, lowest degree first, with no
trailing zero (0 is the empty list); :func:`integer_poly` makes one of a
list of floats by a common power-of-two scale, which leaves every sign as
it is.  A point is a dyadic rational (n, d), d a power of 2, as
``float.as_integer_ratio`` gives it, and every point made here is one too.
Nothing is rounded, so :func:`negative_point`, :func:`sign_change`,
:func:`has_root` and :func:`roots` decide exactly, and :func:`value_range`
bounds a polynomial in integers.
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


def _gcd(f, g):
    """A greatest common divisor of f and g, g not 0, up to a factor."""
    while g:
        f, g = g, _pdiv(f, g)[1]
    return f


def strip_common(f, g):
    """f divided by its gcd with g, up to a positive factor, g not 0: a
    root that f has m times and g has k times is left max(m - k, 0) times,
    so p' stripped of p keeps just the roots of p' that p lacks."""
    return _pdiv(f, _gcd(g, f))[0] if f else f


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


def midpoint(x, y):
    """(x + y) / 2."""
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
        mid = midpoint(lo, hi)
        r_mid = _value(r, mid)
        if r_mid < 0:
            return mid
        v_mid = _variations(chain, mid)
        pieces += [(mid, r_mid, v_mid, hi, r_hi, v_hi),
                   (lo, r_lo, v_lo, mid, r_mid, v_mid)]
    return None


def has_root(r, lo, hi):
    """Whether r, not 0, has a root in [lo, hi]."""
    chain = _sturm_chain(r)
    return (_value(r, lo) == 0
            or _variations(chain, lo) > _variations(chain, hi))


def roots(r, lo, hi):
    """The distinct roots of r, not 0, in the open (lo, hi), in order: each
    an interval (l, u) that holds it alone, where the square-free part of r
    has opposite signs at l and u, or (x, x) on a root x.

    Returns the square-free part too, which :func:`halve` reads.
    """
    chain = _sturm_chain(r)
    free, found = chain[0], []
    pieces = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    while pieces:  # the last piece pushed is the leftmost
        l, v_l, u, v_u = pieces.pop()
        count = v_l - v_u  # the roots in (l, u]
        on_u = _value(free, u) == 0
        if count == on_u:  # none in (l, u)
            if on_u and u != hi:
                found.append((u, u))
            continue
        if count == 1 and _value(free, l) != 0:
            found.append((l, u))
            continue
        mid = midpoint(l, u)
        v_mid = _variations(chain, mid)
        pieces += [(mid, v_mid, u, v_u), (l, v_l, mid, v_mid)]
    return free, found


def halve(free, interval):
    """The half of a root's interval from :func:`roots` that holds it."""
    lo, hi = interval
    if lo == hi:
        return interval
    mid = midpoint(lo, hi)
    v = _value(free, mid)
    if v == 0:
        return mid, mid
    return (mid, hi) if (v < 0) == (_value(free, lo) < 0) else (lo, mid)


def value_range(c, lo, hi):
    """Integers (m, n, d) with m/d <= c(x) <= n/d on [lo, hi], by interval
    Horner steps; exact where lo = hi."""
    (n1, d1), (n2, d2) = lo, hi
    d = max(d1, d2)
    x1, x2 = n1 * (d // d1), n2 * (d // d2)
    m = n = c[-1] if c else 0
    scale = 1
    for ck in reversed(c[:-1]):
        ends = (m * x1, m * x2, n * x1, n * x2)
        scale *= d
        m, n = min(ends) + ck * scale, max(ends) + ck * scale
    return m, n, scale


def sign_change(p, lo, hi):
    """A point within about an ulp of a root of (lo, hi) where p changes
    sign, or None if p keeps one sign on [lo, hi]."""
    neg, pos = negative_point(p, lo, hi), negative_point(times(-1, p), lo, hi)
    if neg is None or pos is None:
        return None
    # bisect until the midpoint rounds to the float of an end
    while True:
        mid = midpoint(neg, pos)
        x = mid[0] / mid[1]
        v = _value(p, mid)
        if v == 0 or x in (neg[0] / neg[1], pos[0] / pos[1]):
            return mid
        if v < 0:
            neg = mid
        else:
            pos = mid
