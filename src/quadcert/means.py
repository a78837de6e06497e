"""Special means and the two bound applications to f(t) = t^(s+1).

For 0 < a < b the rule error of f(t) = t^(s+1) is expressible entirely in
weighted arithmetic means and the p-logarithmic mean, which gives two
closed-form inequalities between means; ``proposition1_check`` and
``proposition2_check`` evaluate both sides numerically.  A grid of checks
at one (a, b, q, s) moves only alpha and lambda, so what neither moves, the
domain check, a^(s+1), b^(s+1), the mean of t^(s+1) over [a, b], a^s, b^s
and the t^(qs) and t^s moduli, is computed once by
:func:`_proposition_constants`, whose cache holds one entry: consecutive
checks of one (a, b, q, s) share it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .bounds import is_sound, rhs_holder_hconvex, rhs_power_mean
from .classes import HModulus
from .errors import DomainError
from .moments import RuleParams


def weighted_arith_mean(a: float, b: float, alpha: float) -> float:
    """alpha*a + (1-alpha)*b, for finite a and b."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("weighted arithmetic mean needs finite a and b")
    return alpha * a + (1.0 - alpha) * b


def arith_mean(a: float, b: float) -> float:
    return weighted_arith_mean(a, b, 0.5)


def log_mean(a: float, b: float) -> float:
    """(b - a) / (ln|b| - ln|a|)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("log mean needs finite a and b")
    if a * b == 0.0 or abs(a) == abs(b):
        raise DomainError("log mean needs ab != 0 and |a| != |b|")
    return (b - a) / (math.log(abs(b)) - math.log(abs(a)))


def _log_ratio(c: float, d: float):
    """(x, L) for ends c, d > 0, c != d: x = (d - c)/c and L = ln(d/c),
    log1p(x) where |x| <= 1/2, so that d - c is exact, log(d/c) beyond,
    and log(d) - log(c) where d/c is not a normal float."""
    x = (d - c) / c
    if abs(x) <= 0.5:
        log_ratio = math.log1p(x)
    elif sys.float_info.min <= d / c <= sys.float_info.max:
        log_ratio = math.log(d / c)
    else:  # d/c underflows or overflows, or is subnormal and inexact
        log_ratio = math.log(d) - math.log(c)
    return x, log_ratio


def _power_mean_value(a: float, b: float, p: float) -> float:
    """The mean of t^p over [a, b], (b^(p+1) - a^(p+1))/((p+1)(b-a)), for
    0 < a != b and p != -1, in a form that does not cancel: c^p
    expm1((p+1) L)/((p+1) x), with x and L of :func:`_log_ratio` and c the
    end whose power dominates, the larger for p > -1 and the smaller below.
    The argument of expm1 is <= 0.
    """
    c, d = (max(a, b), min(a, b)) if p > -1.0 else (min(a, b), max(a, b))
    x, log_ratio = _log_ratio(c, d)
    ratio = math.expm1((p + 1.0) * log_ratio) / (p + 1.0)
    if p > -1.0:  # ratio/x lies between 1 and 1/(p+1)
        return c ** p * (ratio / x)
    # x is unbounded, and c^p can overflow where the mean does not: c^p/x
    # is c^(p+1)/(d - c), and c^(p+1) is below c^p
    return c ** (p + 1.0) * (ratio / (d - c))


def p_log_mean(a: float, b: float, p: float) -> float:
    """((b^(p+1) - a^(p+1)) / ((p+1)(b-a)))^(1/p).

    Taken as c exp(ln(R)/p), c = max(a, b) and R the mean over c^p, with
    x and L of :func:`_log_ratio`, not as the 1/p-th root of the mean,
    which multiplies its error by 1/|p| and fails where c^p is no float.
    For p >= -1/2, R = (1 + y)/(1 + p), y = e^L expm1(pL)/expm1(L); e^L
    expm1(pL) is written -e^((1+p)L) expm1(-pL) for p < 0, where expm1(pL)
    can overflow; neither form cancels.  Below -1/2, R = expm1(u)/((p+1)x),
    u = (p+1)L, and ln R = u + ln(-expm1(-u)/((p+1)x)) below -1, where e^u
    can overflow.  The error, about 2^-53 |ln(c/L_p)|, is small near -1.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError("p-logarithmic mean needs finite a, b > 0")
    if a == b:
        raise DomainError("p-logarithmic mean needs a != b")
    if p in (-1.0, 0.0) or not math.isfinite(p):
        raise DomainError("p must be finite and avoid {-1, 0}")
    c = max(a, b)
    x, log_ratio = _log_ratio(c, min(a, b))
    if p < -0.5:
        u, k = (p + 1.0) * log_ratio, (p + 1.0) * x
        log_r = (math.log(math.expm1(u) / k) if p > -1.0
                 else u + math.log(-math.expm1(-u) / k))
        t = log_r / p  # ln(L_p/c), past -745 where b/a is past 1e308
        return c * math.exp(t) if t > -700.0 else math.exp(math.log(c) + t)
    if p > 0.0:
        y = math.exp(log_ratio) * math.expm1(p * log_ratio)
    else:
        y = -math.exp((1.0 + p) * log_ratio) * math.expm1(-p * log_ratio)
    y /= math.expm1(log_ratio)
    return c * math.exp((math.log1p(y) - math.log1p(p)) / p)


@dataclass(frozen=True)
class PropositionResult:
    lhs: float
    rhs: float
    holds: bool


def _mean_rule_error(a: float, b: float, alpha: float, lam: float,
                     s: float, a_s1: float, b_s1: float,
                     mean: float) -> float:
    """|rule - mean integral| of t^(s+1), all in closed means, given
    a^(s+1), b^(s+1) and the mean of t^(s+1) over [a, b]."""
    rule = (lam * weighted_arith_mean(a_s1, b_s1, alpha)
            + (1.0 - lam) * weighted_arith_mean(a, b, alpha) ** (s + 1.0))
    return abs(rule - mean)


def _check_prop_domain(a, b, q, s):
    """Finite 0 < a < b and s in (0, 1/q); RuleParams checks alpha, lambda,
    q."""
    if not 0.0 < a < b < math.inf:
        raise DomainError("need finite 0 < a < b")
    if not 0.0 < s < 1.0 / q:
        raise DomainError("need s in (0, 1/q)")


def _end_power(name: str, x: float, s: float) -> float:
    """x^(s+1) of the end called name, or a DomainError naming it where
    the power leaves the float range."""
    try:
        return x ** (s + 1.0)
    except OverflowError:
        raise DomainError(
            f"{name}^(s+1) leaves the float range at {name}={x!r}") from None


@lru_cache(maxsize=1, typed=True)
def _proposition_constants(a, b, q, s):
    """What no (alpha, lambda) of a check at (a, b, q, s) moves, after the
    domain check: a^(s+1), b^(s+1), the mean of t^(s+1) over [a, b], a^s,
    b^s and the t^(qs) and t^s moduli.  The cache holds one (a, b, q, s),
    so consecutive checks of one grid reuse it; it is typed, so an int or
    an np.float64 end never reads the constants a float end computed.  A
    DomainError is raised, not kept, so a key that fails fails again."""
    _check_prop_domain(a, b, q, s)
    # a < b, so a^(s+1) overflows only where b^(s+1) does, and a^s, b^s
    # and the mean do not overflow where b^(s+1) does not
    a_s1, b_s1 = _end_power("a", a, s), _end_power("b", b, s)
    return (a_s1, b_s1, _power_mean_value(a, b, s + 1.0), a ** s, b ** s,
            HModulus.power(q * s), HModulus.power(s))


def proposition1_check(a: float, b: float, alpha: float, lam: float,
                       q: float, s: float) -> PropositionResult:
    """Power-mean route applied to f(t) = t^(s+1), q >= 1.

    |f'|^q = (s+1)^q t^(qs) is s-convex in the second sense with parameter
    q*s, so the RHS is the power-modulus bound at exponent q*s, scaled by
    (s+1).
    """
    rp = RuleParams(alpha, lam, q)
    a_s1, b_s1, mean, d_a, d_b, h_qs, _ = _proposition_constants(a, b, q, s)
    lhs = _mean_rule_error(a, b, alpha, lam, s, a_s1, b_s1, mean)
    inner = rhs_power_mean(h_qs, rp, b - a, d_a=d_a, d_b=d_b)
    rhs = (s + 1.0) * inner.value
    return PropositionResult(lhs, rhs, is_sound(lhs, rhs))


def proposition2_check(a: float, b: float, alpha: float, lam: float,
                       p: float, q: float, s: float) -> PropositionResult:
    """Hoelder route applied to f(t) = t^(s+1), conjugate p, q > 1.

    |f'|^q = (s+1)^q t^(qs) is qs-convex in the second sense, hence s-convex
    (s <= qs), so the RHS is the h-convex Hoelder bound for the t^s modulus
    with |f'|/(s+1) at the node A_alpha(a,b) and at a and b, scaled by
    (s+1).  p must be the conjugate of q; the bound derives it from q.
    """
    rp = RuleParams(alpha, lam, q)
    # written so that a NaN p fails it
    if q <= 1.0 or p <= 1.0 or not abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12:
        raise DomainError("need conjugate p, q > 1")
    a_s1, b_s1, mean, d_a, d_b, _, h_s = _proposition_constants(a, b, q, s)
    lhs = _mean_rule_error(a, b, alpha, lam, s, a_s1, b_s1, mean)
    inner = rhs_holder_hconvex(h_s, rp, b - a,
                               weighted_arith_mean(a, b, alpha) ** s,
                               d_a, d_b)
    rhs = (s + 1.0) * inner.value
    return PropositionResult(lhs, rhs, is_sound(lhs, rhs))
