"""An exact rational referee for the closed forms.

Every float is a rational number, so ``fractions.Fraction`` recomputes,
from the exact values of the float inputs and with no rounding at all:

- the plain moments gamma and upsilon (h = 1), the t-weighted moments
  mu/eta (h = t, s = 1, both reflections) and the p-power numerators
  epsilon at p = 2, which are integrals of |t - kink| times a polynomial;
- for cubics f, the error of the (alpha, lambda) rule against the mean
  integral and the power-mean bound at q = 1, whose moments are those
  same integrals.  The exact error referees the oracle's rule and mean
  values and the lhs column that ``verify`` prints.

The moments of h = 1/t take logarithms, so stdlib ``decimal`` at 50 digits
referees their closed forms instead, and so it does the Hoelder bounds as
q -> 1+, whose epsilons lie below the doubles' range.

This referee shares nothing with the float closed forms or with the
Gauss-Kronrod oracle.  Each tolerance below is the largest error measured
on these inputs, rounded up, and says where it was measured.
"""

import csv
import io
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from quadcert import (ClassCertificate, ClassKind, HModulus, RuleParams,
                      Side, TestFunction, bound_power_mean, bounds, oracle,
                      weighted_moment)
from quadcert.cli import main, parse_function
from quadcert.specs import parse_spec
from quadcert.moments import active_epsilons, active_gamma_upsilon

# weights as polynomial coefficients in t, lowest degree first
ONE = [Fraction(1)]                        # h = 1
T = [Fraction(0), Fraction(1)]             # h(t) = t
ONE_MINUS_T = [Fraction(1), Fraction(-1)]  # h(1 - t) for h = t

# 33 x 33 dyadic grid: every alpha*lam, 1 - alpha and lam*(1 - alpha) is
# exact in floating point, so only the closed forms themselves can round
DYADIC = np.arange(33) / 32.0
# seeded non-dyadic floats, with the ends and the midpoint
_RNG = np.random.default_rng(20121)
OTHER = np.concatenate([[0.0, 0.5, 1.0], _RNG.uniform(0.0, 1.0, 17)])


def _abs_moment(lo, hi, kink, weight):
    """int_lo^hi |t - kink| * weight(t) dt; weight lists the coefficients
    of a polynomial in t, lowest degree first."""
    prod = [Fraction(0)] * (len(weight) + 1)  # (t - kink) * weight(t)
    for i, c in enumerate(weight):
        prod[i + 1] += c
        prod[i] -= kink * c
    coeffs = [c / (i + 1) for i, c in enumerate(prod)][::-1]

    def anti(x):  # int_0^x (t - kink) * weight(t) dt, by Horner's rule
        value = Fraction(0)
        for c in coeffs:
            value = (value + c) * x
        return value
    cut = min(max(kink, lo), hi)  # the sign of t - kink changes here
    return anti(lo) + anti(hi) - 2 * anti(cut)


def _side(alpha, lam, side):
    """(lo, hi, kink) of one kernel side, exactly."""
    a, lm = Fraction(alpha), Fraction(lam)
    u = 1 - a
    return (Fraction(0), u, a * lm) if side is Side.LEFT \
        else (u, Fraction(1), 1 - lm * u)


def _exact_moment(alpha, lam, side, weight):
    return _abs_moment(*_side(alpha, lam, side), weight)


def _exact_epsilon(alpha, lam, side):
    """(p + 1) * int |t - kink|^p dt over one side, at p = 2."""
    lo, hi, kink = _side(alpha, lam, side)
    return (hi - kink) ** 3 - (lo - kink) ** 3


def _worst_error(grid, computed, exact):
    """Largest |float - exact| over the grid, as a float."""
    alphas, lams = grid
    return max(abs(Fraction(float(computed[i, j]))
                   - exact(float(alphas[i, 0]), float(lams[j])))
               for i in range(alphas.shape[0]) for j in range(lams.size))


def _grid(axis):
    return axis[:, None], axis


@pytest.mark.parametrize("axis, tol", [
    # exact on the dyadic grid; 2.0e-16 measured on the other floats
    (DYADIC, 0.0), (OTHER, 2.5e-16),
], ids=["dyadic", "other"])
def test_gamma_upsilon(axis, tol):
    alphas, lams = _grid(axis)
    rp = RuleParams(alphas, lams, 1.0)
    gamma, upsilon = active_gamma_upsilon(rp)
    for side, plain in ((Side.LEFT, gamma), (Side.RIGHT, upsilon)):
        for reflected in (False, True):
            # h = 1 reads the same gamma and upsilon, to the bit
            via_h = weighted_moment(HModulus.constant(), rp, side, reflected)
            assert np.array_equal(via_h, plain)
        worst = _worst_error((alphas, lams), plain, lambda a, lm:
                             _exact_moment(a, lm, side, ONE))
        assert worst <= tol, (side, float(worst))


@pytest.mark.parametrize("axis, tol", [
    # 1.1e-16 measured on the dyadic grid, 1.5e-16 on the other floats
    (DYADIC, 1.5e-16), (OTHER, 2e-16),
], ids=["dyadic", "other"])
def test_mu_eta_at_s1(axis, tol):
    alphas, lams = _grid(axis)
    rp = RuleParams(alphas, lams, 1.0)
    for side in Side:
        for reflected, weight in ((False, T), (True, ONE_MINUS_T)):
            got = weighted_moment(HModulus.identity(), rp, side, reflected)
            worst = _worst_error((alphas, lams), got, lambda a, lm:
                                 _exact_moment(a, lm, side, weight))
            assert worst <= tol, (side, reflected, float(worst))


@pytest.mark.parametrize("axis, tol", [
    # exact on the dyadic grid; 2.2e-16 measured on the other floats
    (DYADIC, 0.0), (OTHER, 3e-16),
], ids=["dyadic", "other"])
def test_epsilon_at_p2(axis, tol):
    alphas, lams = _grid(axis)
    rp = RuleParams(alphas, lams, 2.0)
    assert rp.p == 2.0
    for side, got in zip(Side, active_epsilons(rp)):
        worst = _worst_error((alphas, lams), got, lambda a, lm:
                             _exact_epsilon(a, lm, side))
        assert worst <= tol, (side, float(worst))


# cubics c0 + c1 x + c2 x^2 + c3 x^3 on [a, b] whose |f'| is convex: f' is
# a quadratic of one sign, so |f'| is convex, hence h-convex for h = t and
# for h = 1 (a nonnegative convex function is a P-function)
CUBICS = [
    ((0.0, 0.0, 0.0, 1.0), 0.5, 2.0),
    ((0.0, 2.0, -1.0, 1.0 / 3.0), -1.0, 2.5),         # f' = (x-1)^2 + 1
    ((0.1, 1.0, 0.5, 0.25), -0.7, 1.3),
    ((1.0, 0.0, 0.0, -1.0), 0.2, 1.7),                # f' = -3x^2 < 0
]


def _poly(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def _exact_rule_mean(coeffs, a, b, alpha, lam):
    """(rule, mean) of the cubic with these coefficients, exactly; the node
    alpha*a + (1-alpha)*b too."""
    c = [Fraction(x) for x in coeffs]
    anti = [Fraction(0)] + [ck / (k + 1) for k, ck in enumerate(c)]
    fa, fb = Fraction(a), Fraction(b)
    al, lm = Fraction(alpha), Fraction(lam)
    node = al * fa + (1 - al) * fb
    rule = lm * (al * _poly(c, fa) + (1 - al) * _poly(c, fb)) \
        + (1 - lm) * _poly(c, node)
    return rule, (_poly(anti, fb) - _poly(anti, fa)) / (fb - fa)


def _exact_lhs(coeffs, a, b, alpha, lam):
    """|rule - mean| of the cubic with these coefficients, exactly."""
    rule, mean = _exact_rule_mean(coeffs, a, b, alpha, lam)
    return abs(rule - mean)


@pytest.mark.parametrize("h, weights", [
    (HModulus.identity(), (T, ONE_MINUS_T)),
    (HModulus.constant(), (ONE, ONE)),
], ids=["t", "1"])
def test_power_mean_rows(h, weights):
    """At q = 1 the bound is (b - a) * (|f'(b)| * M + |f'(a)| * M_r), where
    M and M_r sum the moments of h(t) and of h(1 - t) over both sides:
    t -> t*b + (1-t)*a puts h(t) on f'(b) and h(1-t) on f'(a)."""
    axis = np.concatenate([np.arange(9) / 8.0, OTHER[3:6]]).tolist()
    moments = {(alpha, lam): [sum(_exact_moment(alpha, lam, side, w)
                                  for side in Side) for w in weights]
               for alpha in axis for lam in axis}
    rp = RuleParams(np.array(axis)[:, None], np.array(axis), 1.0)
    cert = ClassCertificate(ClassKind.H_CONVEX, h, 1.0)
    worst_rel = 0.0
    for coeffs, a, b in CUBICS:
        dcoeffs = [k * ck for k, ck in enumerate(coeffs)][1:]
        tf = TestFunction(lambda x, c=coeffs: _poly(c, x),
                          lambda x, c=dcoeffs: _poly(c, x), a, b, cert)
        rhs = bound_power_mean(tf, rp).value
        dc = [Fraction(x) for x in dcoeffs]
        d_a, d_b = abs(_poly(dc, Fraction(a))), abs(_poly(dc, Fraction(b)))
        for i, alpha in enumerate(axis):
            for j, lam in enumerate(axis):
                m, m_r = moments[alpha, lam]
                rhs_x = (Fraction(b) - Fraction(a)) * (d_b * m + d_a * m_r)
                assert _exact_lhs(coeffs, a, b, alpha, lam) <= rhs_x, \
                    (coeffs, alpha, lam)
                worst_rel = max(worst_rel, float(
                    abs(Fraction(float(rhs[i, j])) - rhs_x) / rhs_x))
    # relative error of the float bound: 1.4e-15 measured
    assert worst_rel <= 2e-15


# the lhs column: seeded cubics on seeded intervals, a 21 x 21 grid of
# seeded (alpha, lambda); the rule and the mean need no class of f
_LHS_RNG = np.random.default_rng(20123)
LHS_CUBICS = [(tuple(_LHS_RNG.uniform(-3.0, 3.0, 4).tolist()), a,
               a + float(_LHS_RNG.uniform(0.5, 3.0)))
              for a in _LHS_RNG.uniform(-2.0, 1.0, 12).tolist()]
LHS_ALPHAS, LHS_LAMS = _LHS_RNG.uniform(0.0, 1.0, (2, 21)).tolist()
# |lhs - exact lhs| over the exact max(|rule|, |mean|): 1.76e-15 measured
# on the rows of test_lhs_rows, on a cubic whose terms cancel, and 4.0e-16
# on those of test_verify_lhs_column
LHS_TOL = 1.8e-15


def _lhs_error(coeffs, a, b, lhs):
    """Worst |lhs - exact lhs| / max(|rule|, |mean|) over the grid rows, in
    row order (alpha outer, lambda inner)."""
    worst = 0.0
    rows = ((al, lm) for al in LHS_ALPHAS for lm in LHS_LAMS)
    for (alpha, lam), got in zip(rows, lhs, strict=True):
        rule, mean = _exact_rule_mean(coeffs, a, b, alpha, lam)
        worst = max(worst, float(abs(Fraction(got) - abs(rule - mean))
                                 / max(abs(rule), abs(mean))))
    return worst


def _spec(coeffs):
    return "poly:" + ",".join(map(repr, coeffs))


def test_lhs_rows():
    """oracle.rule_value and oracle.mean_value, as the CLI combines them."""
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
    worst = 0.0
    for coeffs, a, b in LHS_CUBICS:
        f, fp = parse_function(parse_spec(_spec(coeffs)))
        tf = TestFunction(f, fp, a, b, cert)
        rule = oracle.rule_value(tf, np.array(LHS_ALPHAS)[:, None],
                                 np.array(LHS_LAMS))
        lhs = abs(rule - oracle.mean_value(tf))
        worst = max(worst, _lhs_error(coeffs, a, b, lhs.ravel().tolist()))
    assert worst <= LHS_TOL, worst


def test_verify_lhs_column(capsys):
    coeffs, a, b = CUBICS[2]  # |f'| convex: the certificate holds
    code = main(["verify", "--function", _spec(coeffs), "--interval",
                 repr(a), repr(b),
                 "--alpha-grid", *map(repr, LHS_ALPHAS),
                 "--lambda-grid", *map(repr, LHS_LAMS)])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0 and len(rows) == 21 * 21
    assert [(float(r["alpha"]), float(r["lambda"])) for r in rows] == \
        [(al, lm) for al in LHS_ALPHAS for lm in LHS_LAMS]
    worst = _lhs_error(coeffs, a, b, [float(r["lhs"]) for r in rows])
    assert worst <= LHS_TOL, worst


# ---------------------------------------------------------------------------
# h = 1/t: its moments take logarithms, which no Fraction holds, so their
# referee is stdlib decimal at 50 digits.  It reads the rule's floats u, w
# and hi exactly, as the closed forms read them.

# alpha near both ends, where a moment ends within 1e-15 of the pole, then
# seeded: uniform, and 10^-x from either end
_RNG_RECIPROCAL = np.random.default_rng(2027)
RECIPROCAL_ALPHAS = [1e-15, 1e-12, 1e-9, 0.3, 0.5, 1.0 - 1e-9,
                     1.0 - 1e-12, 1.0 - 1e-15] + [
    float(a) for a in np.concatenate([
        _RNG_RECIPROCAL.uniform(0.0, 1.0, 40),
        10.0 ** -_RNG_RECIPROCAL.uniform(0.0, 15.0, 20),
        1.0 - 10.0 ** -_RNG_RECIPROCAL.uniform(0.0, 15.0, 20)])]
RECIPROCAL_RULES = [(a, float(lam)) for a, lam in zip(
    RECIPROCAL_ALPHAS, _RNG_RECIPROCAL.uniform(0.0, 1.0, 88))] + [
    (float(a), float(10.0 ** -x)) for a, x in zip(
        _RNG_RECIPROCAL.uniform(0.0, 1.0, 20),
        _RNG_RECIPROCAL.uniform(0.0, 15.0, 20))]


def _reciprocal_referee(rp, side, reflected):
    """The 1/t moment of one side of rp, at 50 digits.

    Where the kink sits on the pole the integrand is 1, and the moment u or
    1 - u.  The others are int_0^x |t - k|/(1 - t) dt, after t -> 1 - t for
    the right plain one: g(x) - 2 g(min(k, x)), with the antiderivative
    g(y) = -y - (1 - k) ln(1 - y) of (t - k)/(1 - t).
    """
    u = Decimal(rp.u)
    if (side is Side.RIGHT) == reflected:
        return +(1 - u) if reflected else +u
    x, k = ((1 - u, 1 - Decimal(rp.hi)) if side is Side.RIGHT
            else (u, Decimal(rp.w)))

    def g(y):
        return -y - (1 - k) * (1 - y).ln()

    return g(x) - 2 * g(min(k, x))


def _reciprocal_worst(rules, moments):
    """Largest |float / referee - 1| of the (side, reflected) moments."""
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        for alpha, lam in rules:
            rp = RuleParams(alpha, lam, 1.0)
            for side, reflected in moments:
                got = weighted_moment(HModulus.reciprocal(), rp, side,
                                      reflected)
                want = _reciprocal_referee(rp, side, reflected)
                worst = max(worst, abs(Decimal(got) / want - 1))
    return float(worst)


def test_reciprocal_moments_at_lam0():
    # all four exist: u and 1 - u agree to the referee's 50 digits, and the
    # worst relative error measured 4.0e-16 (left reflected) and 5.0e-16
    # (right plain)
    moments = [(side, reflected) for side in Side
               for reflected in (False, True)]
    assert _reciprocal_worst([(a, 0.0) for a in RECIPROCAL_ALPHAS],
                             moments) <= 1e-15


@pytest.mark.parametrize("side, reflected", [
    (Side.LEFT, True), (Side.RIGHT, False),
], ids=["left-reflected", "right-plain"])
def test_reciprocal_moments_at_any_lam(side, reflected):
    # the two moments that exist at any lambda, with the kink inside or
    # outside; worst relative error measured 9.3e-16 (left reflected) and
    # 7.5e-16 (right plain)
    assert _reciprocal_worst(RECIPROCAL_RULES, [(side, reflected)]) <= 1e-15


# Hoelder bounds as q -> 1+: p = q/(q - 1) is in the thousands, so the
# epsilons x^(p+1) +- y^(p+1) underflow the doubles; decimal's exponent
# range holds them.  q = 1.01 keeps both epsilons normal, 1.0014 leaves
# some subnormal, and below it they are 0.
HOELDER_QS = [1.0001, 1.0005, 1.001, 1.0014, 1.003, 1.01]
HOELDER_RULES = [(0.3, 0.5), (0.7, 0.2), (0.5, 1.0 / 3.0), (0.1, 0.9),
                 (0.9, 0.0)]


def _epsilon_roots_referee(rp):
    """(eps_left^(1/p), eps_right^(1/p)) of rp at 50 digits, from the
    exact kinks of its alpha and lambda and the p it derives."""
    a, lm, p = Fraction(rp.alpha), Fraction(rp.lam), Decimal(rp.p)
    u = 1 - a
    roots = []
    for x, y, inside in [(a * lm, abs(u - a * lm), a * lm <= u),
                         (lm * u, abs(a - lm * u), u <= 1 - lm * u)]:
        x, y = (Decimal(v.numerator) / Decimal(v.denominator) for v in (x, y))
        eps = x ** (p + 1) + (y ** (p + 1) if inside else -y ** (p + 1))
        roots.append(eps ** (1 / p) if eps > 0 else Decimal(0))
    return roots


def _hoelder_referee(name, tf, rp):
    """The Hoelder bound called name, convex or concave, at 50 digits."""
    p, q = Decimal(rp.p), Decimal(rp.q)
    a, b, al = tf.a, tf.b, rp.alpha
    fp = [Decimal(abs(tf.f_prime(x))) for x in
          ((a, b, (1.0 - al) * b + al * a) if name == "holder" else
           (((1.0 - al) * b + (1.0 + al) * a) / 2.0,
            ((2.0 - al) * b + al * a) / 2.0))]
    al = Decimal(al)
    if name == "holder":  # h = t: its integral is 1/2
        d_a, d_b, d_node = fp
        big = [(1 - al) * (d_node ** q + d_a ** q),
               al * (d_node ** q + d_b ** q)]
        pref = Decimal("0.5") ** (1 / q)
    else:  # h = t: h(1/2) = 1/2, so 1/(2 h(1/2)) = 1
        big = [(1 - al) * fp[0] ** q, al * fp[1] ** q]
        pref = Decimal(1)
    pref *= Decimal(tf.width) * (1 / (p + 1)) ** (1 / p)
    return pref * sum(r * c ** (1 / q) for r, c in
                      zip(_epsilon_roots_referee(rp), big))


@pytest.mark.parametrize("name, spec, a, b", [
    ("holder", "poly:0,0,1", 0.0, 1.0),
    ("holder-concave", "pow:1,1.5", 0.1, 1.6),
], ids=["holder", "holder-concave"])
def test_hoelder_bounds_as_q_nears_1(name, spec, a, b):
    # worst relative error measured 3.2e-16 (holder) and 4.8e-16 (concave).
    # An epsilon that underflowed to 0 made the bound 0 (at (0.3, 0.5) for
    # every q below about 1.0014), so verify called a sound rule violated;
    # a subnormal one left it inexact (concave, (0.9, 0), q = 1.003: 0.53%
    # low)
    f, fp = parse_function(parse_spec(spec))
    kind = bounds.BOUNDS[name].class_kind
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        for q in HOELDER_QS:
            cert = ClassCertificate(kind, HModulus.identity(), q)
            tf = TestFunction(f, fp, a, b, cert)
            for alpha, lam in HOELDER_RULES:
                rp = RuleParams(alpha, lam, q)
                got = bounds.evaluate_bound(name, tf, rp).value
                want = _hoelder_referee(name, tf, rp)
                worst = max(worst, abs(Decimal(got) / want - 1))
    assert float(worst) <= 1e-15


def test_hoelder_argv_near_q1_is_sound(capsys):
    # the rhs at 50 digits is 0.44760279577936225...; it printed 0
    code = main(["verify", "--function", "poly:0,0,1", "--bound", "holder",
                 "--q-grid", "1.0001", "--alpha-grid", "0.3",
                 "--lambda-grid", "0.5"])
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0 and row["sound"] == "true"
    assert abs(float(row["rhs"]) / 0.44760279577936225 - 1) <= 1e-15


def test_simpson_holder_as_q_nears_1():
    # 2^(p+1) overflowed a float past p = 1023 (q = 1.0001 exited 2); the
    # referee takes ((1 + 2^(p+1))/(3(p+1)))^(1/p) at 50 digits
    f, fp = parse_function(parse_spec("poly:0,0,1"))
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(0.5), 1.0001)
    tf = TestFunction(f, fp, 0.0, 1.0, cert)
    rp = RuleParams(0.5, 1.0 / 3.0, 1.0001)
    got = bounds.evaluate_bound("simpson-holder", tf, rp).value
    with localcontext() as ctx:
        ctx.prec = 50
        p, q, s = Decimal(rp.p), Decimal(rp.q), Decimal("0.5")
        d_a, d_b, d_mid = Decimal(0), Decimal(2), Decimal(1)
        want = (Decimal(1) / 12 * ((1 + 2 ** (p + 1)) / (3 * (p + 1)))
                ** (1 / p) * (((d_mid ** q + d_a ** q) / (s + 1)) ** (1 / q)
                              + ((d_mid ** q + d_b ** q) / (s + 1))
                              ** (1 / q)))
        assert abs(Decimal(got) / want - 1) <= Decimal("1e-15")
