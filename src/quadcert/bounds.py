"""Right-hand sides of every certified error bound.

Three general bounds (power-mean and Hoelder routes for h-convex weights,
Hoelder route for h-concave weights) and the previously published
fixed-parameter bounds used for comparison.  Each general bound covers every
modulus; the s-convex forms are the t^s modulus of the same evaluators.

Low-level ``rhs_*`` evaluators take the interval width and the needed
|f'| magnitudes directly so parameter grids can be swept without building
function objects; the ``bound_*`` wrappers consume a TestFunction and check
its certificate.  ``evaluate_bound`` evaluates any bound on a TestFunction
by name, a key of ``GENERAL_BOUNDS`` or one of ``PRIOR_BOUNDS``; these are
the names the command line accepts.  On a grid of rules (``RuleParams``
with arrays) a bound gives the same bits as point by point, as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from .arrays import every, map_scalar, power
from .classes import ClassKind, HModulus, TestFunction, h_eval, h_integral_01
from .errors import ClassMismatch, DegenerateModulus, DomainError, ParamMismatch
from .moments import (CaseBranch, RuleParams, Side, active_epsilons,
                      active_gamma_upsilon, at_points, branch_select,
                      weighted_moment)


@dataclass(frozen=True)
class BoundResult:
    """RHS value, governing branch and diagnostics; on a grid, arrays."""

    value: Any
    branch: Optional[Any]
    components: Dict[str, Any]


def _pow(x, e: float):
    # x**0 := 1 even at x = 0, so q = 1 degrades to the q=1 corollary.
    if e == 0.0:
        return 1.0
    return power(x, e)


def rhs_power_mean(h: HModulus, rp: RuleParams, width: float,
                   d_a: float, d_b: float) -> BoundResult:
    """Power-mean route RHS from the endpoint derivative magnitudes."""
    q = rp.q
    mo_l = weighted_moment(h, rp, Side.LEFT, reflected=False)
    mo_lr = weighted_moment(h, rp, Side.LEFT, reflected=True)
    mo_r = weighted_moment(h, rp, Side.RIGHT, reflected=False)
    mo_rr = weighted_moment(h, rp, Side.RIGHT, reflected=True)
    db_q, da_q = d_b ** q, d_a ** q
    big_a = db_q * mo_l + da_q * mo_lr
    big_b = db_q * mo_r + da_q * mo_rr
    gc, uc = active_gamma_upsilon(rp)
    value = width * (_pow(gc, 1.0 - 1.0 / q) * power(big_a, 1.0 / q)
                     + _pow(uc, 1.0 - 1.0 / q) * power(big_b, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "A": big_a, "B": big_b, "gamma": gc, "upsilon": uc})


def _certified_h(tf: TestFunction, rp: RuleParams, kind: ClassKind,
                 what: str) -> HModulus:
    """The certificate's modulus, once its class and exponent fit the rule."""
    cert = tf.certificate
    if cert.class_kind is not kind:
        raise ClassMismatch(
            f"{what} needs an {kind.value.replace('_', '-')} certificate")
    if abs(cert.exponent_q - rp.q) > 1e-12:
        raise ParamMismatch("rule q disagrees with the certificate exponent")
    return cert.h


def bound_power_mean(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, ClassKind.H_CONVEX, "power-mean bound")
    d_a = abs(tf.f_prime(tf.a))
    d_b = abs(tf.f_prime(tf.b))
    return rhs_power_mean(h, rp, tf.width, d_a, d_b)


def rhs_holder_hconvex(h: HModulus, rp: RuleParams, width: float,
                       d_node: float, d_a: float, d_b: float) -> BoundResult:
    """Hoelder route RHS; d_node is |f'| at the interior node (1-a)b+aa."""
    p = rp.require_p()
    q = rp.q
    h_int = h_integral_01(h)  # raises NotIntegrable for 1/t moduli
    alpha = rp.alpha
    big_c = (1.0 - alpha) * (power(d_node, q) + d_a ** q)
    big_d = alpha * (power(d_node, q) + d_b ** q)
    eps_c, eps_d = active_epsilons(rp)
    pref = width * (1.0 / (p + 1.0)) ** (1.0 / p) * h_int ** (1.0 / q)
    value = pref * (power(eps_c, 1.0 / p) * power(big_c, 1.0 / q)
                    + power(eps_d, 1.0 / p) * power(big_d, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "C": big_c, "D": big_d, "eps_C": eps_c, "eps_D": eps_d,
        "h_integral": h_int})


def bound_holder_hconvex(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, ClassKind.H_CONVEX, "Hoelder bound")
    node = (1.0 - rp.alpha) * tf.b + rp.alpha * tf.a
    return rhs_holder_hconvex(h, rp, tf.width,
                              abs(map_scalar(tf.f_prime, node)),
                              abs(tf.f_prime(tf.a)), abs(tf.f_prime(tf.b)))


def rhs_holder_hconcave(h: HModulus, rp: RuleParams, width: float,
                        d_mid_left: float, d_mid_right: float) -> BoundResult:
    """Concave-route RHS; the d's are |f'| at the two subinterval midpoints."""
    p = rp.require_p()
    q = rp.q
    h_half = h_eval(h, 0.5)
    if h_half == 0.0:
        raise DegenerateModulus("h(1/2) = 0")
    alpha = rp.alpha
    big_e = (1.0 - alpha) * power(d_mid_left, q)
    big_f = alpha * power(d_mid_right, q)
    eps_e, eps_f = active_epsilons(rp)
    pref = width * (1.0 / (2.0 * h_half)) ** (1.0 / q) \
        * (1.0 / (p + 1.0)) ** (1.0 / p)
    value = pref * (power(eps_e, 1.0 / p) * power(big_e, 1.0 / q)
                    + power(eps_f, 1.0 / p) * power(big_f, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "E": big_e, "F": big_f, "eps_E": eps_e, "eps_F": eps_f,
        "h_half": h_half})


def bound_holder_hconcave(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, ClassKind.H_CONCAVE, "this route")
    alpha = rp.alpha
    m_left = ((1.0 - alpha) * tf.b + (1.0 + alpha) * tf.a) / 2.0
    m_right = ((2.0 - alpha) * tf.b + alpha * tf.a) / 2.0
    return rhs_holder_hconcave(h, rp, tf.width,
                               abs(map_scalar(tf.f_prime, m_left)),
                               abs(map_scalar(tf.f_prime, m_right)))


# ---------------------------------------------------------------------------
# Prior published bounds, as printed.

def rhs_general_convex(rp: RuleParams, width: float,
                       d_a: float, d_b: float) -> BoundResult:
    """Earlier general (alpha, lambda) bound for |f'|^q plain convex.

    Independent coding of the published cubic coefficient table and case
    ladder; the power-mean route with the identity modulus must reproduce it.
    Scalar rules only: ``evaluate_bound`` calls it point by point on a grid.
    """
    alpha, lam, q = rp.alpha, rp.lam, rp.q
    w = alpha * lam
    u = 1.0 - alpha
    lu = lam * u
    hi = 1.0 - lu
    g1 = u * (w - u / 2.0)
    g2 = w * w - g1
    v1 = alpha * ((1.0 + u) / 2.0 - hi)
    v2 = (1.0 + u * u) / 2.0 - (lam + 1.0) * u * hi
    mu1 = (w ** 3 + u ** 3) / 3.0 - w * u * u / 2.0
    mu2 = (1.0 + alpha ** 3 + (1.0 - w) ** 3) / 3.0 \
        - (1.0 - w) * (1.0 + alpha * alpha) / 2.0
    mu3 = w * u * u / 2.0 - u ** 3 / 3.0
    mu4 = (w - 1.0) * (1.0 - alpha * alpha) / 2.0 + (1.0 - alpha ** 3) / 3.0
    eta1 = (1.0 - u ** 3) / 3.0 - hi / 2.0 * alpha * (2.0 - alpha)
    eta2 = lu * alpha * alpha / 2.0 - alpha ** 3 / 3.0
    eta3 = hi ** 3 / 3.0 - hi / 2.0 * (1.0 + u * u) + (1.0 + u ** 3) / 3.0
    eta4 = lu ** 3 / 3.0 - lu * alpha * alpha / 2.0 + alpha ** 3 / 3.0
    if w <= u and u <= hi:
        branch = CaseBranch.MID_ORDER
        gc, ma, mb, uc, ea, eb = g2, mu1, mu2, v2, eta3, eta4
    elif u <= hi:
        branch = CaseBranch.LEFT_OF_LOWER
        gc, ma, mb, uc, ea, eb = g1, mu3, mu4, v2, eta3, eta4
    else:
        branch = CaseBranch.RIGHT_OF_UPPER
        gc, ma, mb, uc, ea, eb = g2, mu1, mu2, v1, eta1, eta2
    big_a = max(ma * d_b ** q + mb * d_a ** q, 0.0)
    big_b = max(ea * d_b ** q + eb * d_a ** q, 0.0)
    value = width * (_pow(gc, 1.0 - 1.0 / q) * big_a ** (1.0 / q)
                     + _pow(uc, 1.0 - 1.0 / q) * big_b ** (1.0 / q))
    return BoundResult(value, branch, {"A": big_a, "B": big_b})


def rhs_midpoint_power_mean(s: float, q: float, width: float,
                            d_a: float, d_b: float) -> BoundResult:
    """Published midpoint bound for s-convex |f'|^q, q >= 1."""
    c_hi = 2.0 ** (1.0 - s) + 1.0
    c_lo = 2.0 ** (1.0 - s)
    pref = width / 8.0 * (2.0 / ((s + 1.0) * (s + 2.0))) ** (1.0 / q)
    value = pref * ((c_hi * d_b ** q + c_lo * d_a ** q) ** (1.0 / q)
                    + (c_hi * d_a ** q + c_lo * d_b ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_midpoint_holder(s: float, p: float, q: float, width: float,
                        d_a: float, d_b: float) -> BoundResult:
    """Published midpoint bound for s-convex |f'|^q via conjugate exponents."""
    c_hi = 2.0 ** (1.0 - s) + s + 1.0
    c_lo = 2.0 ** (1.0 - s)
    pref = (width / 4.0) * (1.0 / (p + 1.0)) ** (1.0 / p) \
        * (1.0 / (s + 1.0)) ** (2.0 / q)
    value = pref * ((c_hi * d_a ** q + c_lo * d_b ** q) ** (1.0 / q)
                    + (c_hi * d_b ** q + c_lo * d_a ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_simpson_holder(s: float, p: float, q: float, width: float,
                       d_mid: float, d_a: float, d_b: float) -> BoundResult:
    """Published Simpson bound for s-convex |f'|^q via conjugate exponents."""
    pref = width / 12.0 * ((1.0 + 2.0 ** (p + 1.0)) / (3.0 * (p + 1.0))) ** (1.0 / p)
    value = pref * (((d_mid ** q + d_a ** q) / (s + 1.0)) ** (1.0 / q)
                    + ((d_mid ** q + d_b ** q) / (s + 1.0)) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_trapezoid_holder(s: float, q: float, width: float,
                         d_mid: float, d_a: float, d_b: float) -> BoundResult:
    """Published trapezoid bound for s-convex |f'|^q, q > 1.

    Stated for s in (0, 1); s = 1 is allowed here since the formula is
    continuous in s.
    """
    if q <= 1.0:
        raise DomainError("this bound needs q > 1")
    pref = width / 2.0 * ((q - 1.0) / (2.0 * (2.0 * q - 1.0))) ** ((q - 1.0) / q) \
        * (1.0 / (s + 1.0)) ** (1.0 / q)
    value = pref * ((d_mid ** q + d_a ** q) ** (1.0 / q)
                    + (d_mid ** q + d_b ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_classical_simpson(sup_f4: float, width: float) -> BoundResult:
    """Classical fourth-derivative Simpson estimate, as printed.

    Note: the printed factor is (b-a)^2; the textbook mean-form constant is
    (b-a)^4/2880.  On unit-width intervals the two agree.
    """
    if sup_f4 < 0.0:
        raise DomainError("sup |f''''| must be nonnegative")
    return BoundResult(sup_f4 * width ** 2 / 2880.0, None, {})


# ---------------------------------------------------------------------------
# Every bound by name.

GENERAL_BOUNDS = {
    "power-mean": bound_power_mean,
    "holder": bound_holder_hconvex,
    "holder-concave": bound_holder_hconcave,
}
# the (alpha, lambda) each prior bound is fixed at; general-convex takes any
_FIXED_PARAMS = {"midpoint-power-mean": (0.5, 0.0),
                 "midpoint-holder": (0.5, 0.0),
                 "simpson-holder": (0.5, 1.0 / 3.0),
                 "trapezoid-holder": (0.5, 1.0),
                 "classical-simpson": (0.5, 1.0 / 3.0)}
PRIOR_BOUNDS = ("general-convex", *_FIXED_PARAMS)


def evaluate_bound(name: str, tf: TestFunction, rp: RuleParams,
                   s: Optional[float] = None,
                   sup_f4: Optional[float] = None) -> BoundResult:
    """Evaluate the bound called ``name`` on this function.

    A general bound checks the certificate and ignores s and sup_f4.  The
    prior bounds are evaluated as printed: all but general-convex hold only
    at their fixed (alpha, lambda), the s-convex ones need the class
    parameter s, and classical-simpson needs sup |f''''|.
    """
    general = GENERAL_BOUNDS.get(name)
    if general is not None:
        return general(tf, rp)
    if name not in PRIOR_BOUNDS:
        raise ParamMismatch(f"unknown bound {name!r}")
    width = tf.width
    d_a = abs(tf.f_prime(tf.a))
    d_b = abs(tf.f_prime(tf.b))
    d_mid = abs(tf.f_prime(0.5 * (tf.a + tf.b)))
    if name == "general-convex":  # a scalar cross-check: point by point
        res = at_points(lambda pt: rhs_general_convex(pt, width, d_a, d_b),
                        rp, object)
        if not isinstance(res, np.ndarray):
            return res
        field = np.frompyfunc(getattr, 2, 1)
        return BoundResult(field(res, "value").astype(float),
                           field(res, "branch"),
                           {k: np.frompyfunc(lambda r: r.components[k], 1, 1)(
                               res).astype(float) for k in ("A", "B")})
    alpha, lam = _FIXED_PARAMS[name]
    if not every((abs(rp.alpha - alpha) <= 1e-12)
                 & (abs(rp.lam - lam) <= 1e-12)):
        raise ParamMismatch(f"{name} is fixed at alpha={alpha}, lambda={lam}")
    if name == "classical-simpson":
        if sup_f4 is None:
            raise ParamMismatch("classical Simpson needs sup |f''''|")
        return rhs_classical_simpson(sup_f4, width)
    if s is None:
        raise ParamMismatch("this bound needs the class parameter s")
    if not 0.0 < s <= 1.0:
        raise DomainError("s must lie in (0, 1]")
    if name == "midpoint-power-mean":
        return rhs_midpoint_power_mean(s, rp.q, width, d_a, d_b)
    if name == "midpoint-holder":
        return rhs_midpoint_holder(s, rp.require_p(), rp.q, width, d_a, d_b)
    if name == "simpson-holder":
        return rhs_simpson_holder(s, rp.require_p(), rp.q,
                                  width, d_mid, d_a, d_b)
    return rhs_trapezoid_holder(s, rp.q, width, d_mid, d_a, d_b)
