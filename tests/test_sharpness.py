"""Sharpness witnesses: at q = 1 the power-mean bound is attained, and
at q > 1 with h = t it is sound where it is attained or nearly so.

The rule's error is (1/w) int K f' over [a, b], w = b - a, with the kernel
K(x) = x - a - lam*alpha*w left of the node c = alpha*a + (1-alpha)*b and
x - b + lam*(1-alpha)*w right of it.  Writing x = (1-t)a + tb, the bound's
proof uses two inequalities:

- |int K f'| <= int |K| |f'|;
- |f'(x)| <= h(t)|f'(b)| + h(1-t)|f'(a)|, the h-convexity of |f'| at q = 1.

The witness f' = sgn(K) * (h(t) D_b + h(1-t) D_a) makes both equalities, so
its exact error is the bound at |f'(a)| = D_a, |f'(b)| = D_b.  For h = t
that envelope is |f'| itself, an affine function and so convex, with
|f'(a)| = D_a and |f'(b)| = D_b.  For h = 1 the envelope is D_a + D_b inside
the interval; |f'| set to D_a and D_b at the two ends themselves is a
P-function, and changes no integral.

The witness has corners where K changes sign (and, for h = 1, jumps at
the ends), so it is not a differentiable f as the paper assumes; smoothed
witnesses approach the same error from below.  It is evaluated here in
exact rational arithmetic (for h = t^s, in 60-digit decimal), from the rule
and the mean of the witness f itself, sharing nothing with the closed-form
moments.
"""

import functools
import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from quadcert import HModulus, RuleParams, bounds, moments
from quadcert.bounds import (rhs_general_convex, rhs_midpoint_power_mean,
                             rhs_power_mean)
from quadcert.moments import Side

# the envelope h(t) D_b + h(1-t) D_a as (constant, slope) in t
ENVELOPES = {
    "t": lambda d_a, d_b: (d_a, d_b - d_a),
    "1": lambda d_a, d_b: (d_a + d_b, Fraction(0)),
}
MODULI = {"t": HModulus.identity(), "1": HModulus.constant()}


def witness_error(alpha, lam, a, b, d_a, d_b, h):
    """|rule - mean| of the witness f, f(a) = 0, exactly."""
    alpha, lam, a, b, d_a, d_b = map(Fraction, (alpha, lam, a, b, d_a, d_b))
    c0, c1 = ENVELOPES[h](d_a, d_b)
    return _rule_error(alpha, lam, b - a,
                       lambda t: c0 * t + c1 * t * t / 2,   # int_0^t envelope
                       lambda t: c0 * t * t / 2 + c1 * t ** 3 / 6)  # int g


def _rule_error(alpha, lam, w, g, g2):
    """|rule - mean| of the f with f(a) = 0 and f' = sgn(K) * g'(t), where
    x = a + t*w and g2' = g; alpha, lam, w and the values of g and g2 are
    numbers of one exact (or high-precision) type."""
    one = type(alpha)(1)
    u = one - alpha
    # pieces of [0, 1] in t on which K keeps its sign: (end, kink of K)
    ends = [(t, alpha * lam) for t in (alpha * lam, u) if 0 < t <= u]
    ends += [(t, one - lam * u) for t in (one - lam * u, one) if u < t <= 1]
    values = {0: 0 * one}  # F(t) = f(x(t)) at the piece ends
    t0, f0, mean = 0 * one, 0 * one, 0 * one
    for t1, kink in ends:
        # on (t0, t1), F(t) = f0 + sign * w * (g(t) - g(t0))
        sign = 1 if (t0 + t1) / 2 > kink else -1
        mean += (t1 - t0) * (f0 - sign * w * g(t0)) \
            + sign * w * (g2(t1) - g2(t0))
        f0 += sign * w * (g(t1) - g(t0))
        values[t1], t0 = f0, t1
    rule = lam * (alpha * values[0] + u * values[one]) + (1 - lam) * values[u]
    return abs(rule - mean)


def _rows(seed, n):
    """(alpha, lam, a, b, |f'(a)|, |f'(b)|): seeded, with the rule ends."""
    rng = np.random.default_rng(seed)
    rows = [(alpha, lam, -0.5, 1.5, 0.7, 2.0)
            for alpha in (0.0, 0.5, 1.0) for lam in (0.0, 1.0 / 3.0, 1.0)]
    for _ in range(n):
        alpha, lam = rng.uniform(0.0, 1.0, 2)
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 3.0)
        d_a, d_b = rng.uniform(0.0, 3.0, 2)
        rows.append(tuple(map(float, (alpha, lam, a, b, d_a, d_b))))
    return rows


ROWS = _rows(20121, 1000)
# largest |rhs / exact - 1| measured on ROWS: 2.28e-15 for power-mean with
# h = t, 1.25e-15 with h = 1 and 2.12e-15 for general-convex, each at a row
# where b - a rounds.  Any one of rhs_power_mean's four moments scaled by
# 1 + 1e-12 fails both power-mean tests, and any one of rhs_general_convex's
# eight mu and eta its test; its gamma and upsilon enter at q = 1 only as
# the power 0, so no q = 1 test can see them
REL_TOL = 3e-15


def _worst(rhs, h):
    worst = 0.0
    for alpha, lam, a, b, d_a, d_b in ROWS:
        exact = witness_error(alpha, lam, a, b, d_a, d_b, h)
        value = rhs(RuleParams(alpha, lam, 1.0), b - a, d_a, d_b).value
        worst = max(worst, abs(float(Fraction(value) / exact - 1)))
    return worst


# the named moduli, and the same as custom ones, whose moments come from the
# tanh-sinh rule, each side's plain and reflected moment in one pass
# (moments.weighted_pair): largest |rhs / exact - 1| on ROWS 1.11e-15 for
# custom h = t and 1.08e-15 for custom h = 1.  Either coefficient of the
# pair scaled by 1 + 1e-12 fails the custom h = t test
ATTAINED = {h: (MODULI[h], h) for h in MODULI}
ATTAINED.update({"custom-t": (HModulus.custom(lambda t: t), "t"),
                 "custom-1": (HModulus.custom(lambda t: 1.0), "1")})


@pytest.mark.parametrize("case", ATTAINED)
def test_power_mean_attained(case):
    modulus, h = ATTAINED[case]
    worst = _worst(lambda rp, *args: rhs_power_mean(modulus, rp, *args), h)
    assert worst <= REL_TOL, worst


def test_general_convex_attained():
    # the prior convex bound is the power-mean route at h = t
    assert _worst(rhs_general_convex, "t") <= REL_TOL


def test_midpoint_power_mean_attained():
    # the published midpoint bound at s = 1 is the power-mean route at
    # (1/2, 0) with h = t, so the h = t witness of the midpoint rule attains
    # it.  Largest |rhs / exact - 1| measured on ROWS: 3.2e-16; c_hi scaled
    # by 1 + 1e-12 fails this test
    worst = 0.0
    for _, _, a, b, d_a, d_b in ROWS:
        exact = witness_error(0.5, 0.0, a, b, d_a, d_b, "t")
        value = rhs_midpoint_power_mean(1.0, RuleParams(0.5, 0.0, 1.0),
                                        b - a, d_a, d_b).value
        worst = max(worst, abs(float(Fraction(value) / exact - 1)))
    assert worst <= REL_TOL, worst


# h = t^s, q = 1: the envelope D_b t^s + D_a (1-t)^s is not polynomial, so
# its error comes from closed-form antiderivatives in 60-digit decimal
# arithmetic, on a seeded subset of ROWS (all 1,009 rows take about 6 s
# per s).  Largest |rhs / exact - 1| measured on TS_ROWS: 2.79e-15 at
# s = 0.3 and 2.39e-15 at s = 0.7 (on all of ROWS: 2.79e-15 and 2.62e-15).

def witness_error_ts(alpha, lam, a, b, d_a, d_b, s):
    """|rule - mean| of the q = 1 witness for h = t^s, f(a) = 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        alpha, lam, a, b, d_a, d_b, s = map(
            Decimal, (alpha, lam, a, b, d_a, d_b, s))
        s1, s2 = s + 1, s + 2

        def g(t):  # int_0^t of the envelope
            return (d_b * t ** s1 + d_a * (1 - (1 - t) ** s1)) / s1

        def g2(t):  # int_0^t g
            return (d_b * t ** s2 / s2
                    + d_a * (t - (1 - (1 - t) ** s2) / s2)) / s1
        return _rule_error(alpha, lam, b - a, g, g2)


TS_ROWS = ROWS[:9] + [ROWS[i] for i in sorted(np.random.default_rng(
    20123).choice(np.arange(9, len(ROWS)), 150, replace=False))]


@functools.cache
def _exact_ts(s):
    return [witness_error_ts(*row, s) for row in TS_ROWS]


def _worst_ts(s):
    h, worst = HModulus.power(s), 0.0
    for (alpha, lam, a, b, d_a, d_b), exact in zip(TS_ROWS, _exact_ts(s)):
        value = rhs_power_mean(h, RuleParams(alpha, lam, 1.0), b - a,
                               d_a, d_b).value
        worst = max(worst, abs(float(Decimal(value) / exact - 1)))
    return worst


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_power_mean_attained_ts(s):
    assert _worst_ts(s) <= REL_TOL


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("side, mirrored",
                         itertools.product(Side, (False, True)))
def test_ts_scaled_moment_fails(monkeypatch, s, side, mirrored):
    # a mutation check: one t^s moment 1 + 1e-12 too large is seen
    moment = moments.weighted_moment

    def scaled(h, rp, at, reflected):
        m = moment(h, rp, at, reflected=reflected)
        return m * (1.0 + 1e-12) if (at, reflected) == (side, mirrored) else m

    monkeypatch.setattr(moments, "weighted_moment", scaled)
    assert _worst_ts(s) > REL_TOL


@pytest.mark.parametrize("reflected", [False, True])
def test_custom_scaled_pair_fails(monkeypatch, reflected):
    # a mutation check: one coefficient of a custom modulus's moment pair
    # 1 + 1e-12 too large is seen
    pair = bounds.weighted_pair

    def scaled(h, rp, side, c_plain, c_reflected):
        if reflected:
            c_reflected = c_reflected * (1.0 + 1e-12)
        else:
            c_plain = c_plain * (1.0 + 1e-12)
        return pair(h, rp, side, c_plain, c_reflected)

    monkeypatch.setattr(bounds, "weighted_pair", scaled)
    modulus, h = ATTAINED["custom-t"]
    worst = _worst(lambda rp, *args: rhs_power_mean(modulus, rp, *args), h)
    assert worst > REL_TOL


@pytest.mark.parametrize("rule, h, ends", [
    # midpoint rule, f' = 2x: f = x^2, then 1/2 - x^2 past x = 1/2, whose
    # mean is 0 and value at 1/2 is 1/4
    ((0.5, 0.0), "t", (0.0, 2.0)),
    # trapezoid rule, f' = -1, then 1 past x = 1/2: f = -x, then x - 1,
    # whose mean is -1/4 and end values are 0
    ((0.5, 1.0), "1", (0.5, 0.5)),
], ids=["midpoint", "trapezoid"])
def test_witness_by_hand(rule, h, ends):
    assert witness_error(*rule, 0.0, 1.0, *ends, h) == Fraction(1, 4)


# q > 1, h = t.  The witness f' = sgn(K) * E^(1/q), with the envelope
# E(t) = (1-t)|f'(a)|^q + t|f'(b)|^q, has a linear |f'|^q, so it is in the
# class; the Hoelder step of the power-mean bound is an equality only where
# |f'| is constant, so the bound is attained at |f'(a)| = |f'(b)| and
# nearly so close to it.  These rows test soundness where it is in doubt.

def witness_error_q(alpha, lam, a, b, d_a, d_b, q):
    """|rule - mean| of the q > 1 witness, f(a) = 0, from the closed-form
    antiderivatives of E^(1/q), in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        alpha, lam, a, b, d_a, d_b, q = map(
            Decimal, (alpha, lam, a, b, d_a, d_b, q))
        c0, c1, r = d_a ** q, d_b ** q - d_a ** q, 1 / q
        if c1 == 0:  # E is the constant c0

            def g(t):
                return c0 ** r * t

            def g2(t):
                return c0 ** r * t * t / 2
        else:

            def g(t):
                return (c0 + c1 * t) ** (r + 1) / ((r + 1) * c1)

            def g2(t):
                return (c0 + c1 * t) ** (r + 2) / ((r + 1) * (r + 2) * c1 ** 2)
        return _rule_error(alpha, lam, b - a, g, g2)


def _near_rows(seed, n):
    """Seeded rows with |f'(b)| = |f'(a)| (every other one, and the rule
    ends) or within 1% of it."""
    rng = np.random.default_rng(seed)
    rows = [(alpha, lam, -0.5, 1.5, 1.3, 1.3)
            for alpha in (0.0, 0.5, 1.0) for lam in (0.0, 1.0 / 3.0, 1.0)]
    for i in range(n):
        alpha, lam = rng.uniform(0.0, 1.0, 2)
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 3.0)
        d_a = rng.uniform(0.1, 3.0)
        d_b = d_a * (1.0 + (i % 2) * rng.uniform(-0.01, 0.01))
        rows.append(tuple(map(float, (alpha, lam, a, b, d_a, d_b))))
    return rows


NEAR_ROWS = _near_rows(20122, 200)
# lhs / rhs - 1 measured on NEAR_ROWS: at most 8.8e-16 (q = 1.5, equal
# ends), at least -6.5e-6 (q = 4); float rounding of rhs is the whole
# excess.  Any one of rhs_power_mean's four moments, gamma or upsilon
# scaled by 1 - 1e-12 fails the test at every q
Q_TOL = 2e-15


@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
def test_power_mean_sound_at_boundary(q):
    h = HModulus.identity()
    excess = []
    for alpha, lam, a, b, d_a, d_b in NEAR_ROWS:
        lhs = witness_error_q(alpha, lam, a, b, d_a, d_b, q)
        rhs = rhs_power_mean(h, RuleParams(alpha, lam, q), b - a, d_a, d_b)
        excess.append(float(lhs / Decimal(rhs.value) - 1))
    assert max(excess) <= Q_TOL
    assert min(excess) >= -1e-5  # every row lies on or near the boundary


def simpson_error_x4(a, b):
    """|Simpson's rule - mean| of x^4 on [a, b], exactly."""
    a, b = Fraction(a), Fraction(b)
    alpha, lam = Fraction(1, 2), Fraction(1, 3)
    rule = lam * (alpha * a ** 4 + (1 - alpha) * b ** 4) \
        + (1 - lam) * (alpha * a + (1 - alpha) * b) ** 4
    return abs(rule - (b ** 5 - a ** 5) / (5 * (b - a)))


SIMPSON = RuleParams(0.5, 1.0 / 3.0, 1.0)  # classical-simpson's rule


def test_simpson_x4_attains_the_textbook_constant():
    # f'''' = 24: the mean-form error (b-a)^4 sup|f''''|/2880 is attained
    # exactly; on [0, 3] the mean is 81/5 and the rule gives 135/8
    for a, b in [(0, 3), (-1, 2)]:
        assert simpson_error_x4(a, b) == Fraction(27, 40) \
            == Fraction(3) ** 4 * 24 / 2880
    # the printed (b-a)^2 constant: 0.075 on [0, 3], below the error
    assert bounds.rhs_classical_simpson(24.0, SIMPSON, 3.0).value == 0.075
    for width in (Fraction(1, 2), Fraction(3, 4), 2, 3, 5):
        error = simpson_error_x4(0, width)
        assert error == Fraction(width) ** 4 * 24 / 2880
        printed = Fraction(
            bounds.rhs_classical_simpson(24.0, SIMPSON, float(width)).value)
        assert (printed < error) == (width > 1), width
