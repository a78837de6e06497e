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

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .arrays import every, power, select
from .classes import (ClassKind, HKind, HModulus, TestFunction, h_half,
                      h_integral_01)
from .errors import ClassMismatch, DomainError, ParamMismatch
from .moments import (RuleParams, Side, active_epsilons, active_gamma_upsilon,
                      branch_select, weighted_moment, weighted_pair)


@dataclass(frozen=True)
class BoundResult:
    """RHS value, governing branch and diagnostics; on a grid, arrays."""

    value: Any
    branch: Optional[Any]
    components: Dict[str, Any]


def is_sound(lhs, rhs):
    """lhs <= rhs up to 1e-9*(1 + rhs): when a row or a proposition holds."""
    return lhs <= rhs + 1e-9 * (1.0 + rhs)


def rhs_power_mean(h: HModulus, rp: RuleParams, width: float,
                   d_a: float, d_b: float) -> BoundResult:
    """Power-mean route RHS from the endpoint derivative magnitudes."""
    q = rp.q
    if h.kind is HKind.CUSTOM:
        # each side's two moments in one quadrature pass
        db_q, da_q = d_b ** q, d_a ** q
        big_a = weighted_pair(h, rp, Side.LEFT, db_q, da_q)
        big_b = weighted_pair(h, rp, Side.RIGHT, db_q, da_q)
    else:
        mo_l = weighted_moment(h, rp, Side.LEFT, reflected=False)
        mo_lr = weighted_moment(h, rp, Side.LEFT, reflected=True)
        mo_r = weighted_moment(h, rp, Side.RIGHT, reflected=False)
        mo_rr = weighted_moment(h, rp, Side.RIGHT, reflected=True)
        db_q, da_q = d_b ** q, d_a ** q
        big_a = db_q * mo_l + da_q * mo_lr
        big_b = db_q * mo_r + da_q * mo_rr
    gc, uc = active_gamma_upsilon(rp)
    # gc**0 is 1 even at gc = 0, so q = 1 degrades to the q=1 corollary
    value = width * (power(gc, 1.0 - 1.0 / q) * power(big_a, 1.0 / q)
                     + power(uc, 1.0 - 1.0 / q) * power(big_b, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "A": big_a, "B": big_b, "gamma": gc, "upsilon": uc})


def certificate_class(name: str) -> ClassKind:
    """h-concave for holder-concave, h-convex for every other bound."""
    return ClassKind.H_CONCAVE if name == "holder-concave" \
        else ClassKind.H_CONVEX


def _certified_h(tf: TestFunction, rp: RuleParams, name: str) -> HModulus:
    """The certificate's modulus, once its class and exponent fit the rule."""
    cert, kind = tf.certificate, certificate_class(name)
    if cert.class_kind is not kind:
        raise ClassMismatch(
            f"{name} needs an {kind.value.replace('_', '-')} certificate")
    if abs(cert.exponent_q - rp.q) > 1e-12:
        raise ParamMismatch("rule q disagrees with the certificate exponent")
    return cert.h


def bound_power_mean(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, "power-mean")
    return rhs_power_mean(h, rp, tf.width, *tf.endpoint_derivatives)


def rhs_holder_hconvex(h: HModulus, rp: RuleParams, width: float,
                       d_node: float, d_a: float, d_b: float) -> BoundResult:
    """Hoelder route RHS; d_node is |f'| at the interior node (1-a)b+aa.

    The d's are floats for one rule and grid arrays only on a grid of rules.
    """
    p = rp.require_p()
    q = rp.q
    h_int = h_integral_01(h)  # raises NotIntegrable for 1/t moduli
    alpha = rp.alpha
    eps_c, eps_d = active_epsilons(rp)
    d_node_q = power(d_node, q)
    big_c = (1.0 - alpha) * (d_node_q + d_a ** q)
    big_d = alpha * (d_node_q + d_b ** q)
    pref = width * (1.0 / (p + 1.0)) ** (1.0 / p) * h_int ** (1.0 / q)
    value = pref * (power(eps_c, 1.0 / p) * power(big_c, 1.0 / q)
                    + power(eps_d, 1.0 / p) * power(big_d, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "C": big_c, "D": big_d, "eps_C": eps_c, "eps_D": eps_d,
        "h_integral": h_int})


def bound_holder_hconvex(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, "holder")
    node = (1.0 - rp.alpha) * tf.b + rp.alpha * tf.a
    return rhs_holder_hconvex(h, rp, tf.width,
                              abs(tf.sample(tf.f_prime, node)),
                              *tf.endpoint_derivatives)


def rhs_holder_hconcave(h: HModulus, rp: RuleParams, width: float,
                        d_mid_left: float, d_mid_right: float) -> BoundResult:
    """Concave-route RHS; the d's are |f'| at the two subinterval midpoints.

    The d's are floats for one rule and grid arrays only on a grid of rules.
    """
    p = rp.require_p()
    q = rp.q
    h_mid = h_half(h)
    alpha = rp.alpha
    eps_e, eps_f = active_epsilons(rp)
    big_e = (1.0 - alpha) * power(d_mid_left, q)
    big_f = alpha * power(d_mid_right, q)
    pref = width * (1.0 / (2.0 * h_mid)) ** (1.0 / q) \
        * (1.0 / (p + 1.0)) ** (1.0 / p)
    value = pref * (power(eps_e, 1.0 / p) * power(big_e, 1.0 / q)
                    + power(eps_f, 1.0 / p) * power(big_f, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "E": big_e, "F": big_f, "eps_E": eps_e, "eps_F": eps_f,
        "h_half": h_mid})


def bound_holder_hconcave(tf: TestFunction, rp: RuleParams) -> BoundResult:
    h = _certified_h(tf, rp, "holder-concave")
    alpha = rp.alpha
    m_left = ((1.0 - alpha) * tf.b + (1.0 + alpha) * tf.a) / 2.0
    m_right = ((2.0 - alpha) * tf.b + alpha * tf.a) / 2.0
    return rhs_holder_hconcave(h, rp, tf.width,
                               abs(tf.sample(tf.f_prime, m_left)),
                               abs(tf.sample(tf.f_prime, m_right)))


# ---------------------------------------------------------------------------
# Prior published bounds, as printed.

def rhs_general_convex(rp: RuleParams, width: float,
                       d_a: float, d_b: float) -> BoundResult:
    """Earlier general (alpha, lambda) bound for |f'|^q plain convex.

    Independent coding of the published cubic coefficient table and case
    ladder; the power-mean route with the identity modulus must reproduce it.
    On a grid of rules the case is chosen per point, as for a single rule.
    """
    alpha, lam, q = rp.alpha, rp.lam, rp.q
    w = alpha * lam
    u = 1.0 - alpha
    lu = lam * u
    hi = 1.0 - lu
    u3, a3 = power(u, 3.0), power(alpha, 3.0)
    g1 = u * (w - u / 2.0)
    g2 = w * w - g1
    v1 = alpha * ((1.0 + u) / 2.0 - hi)
    v2 = (1.0 + u * u) / 2.0 - (lam + 1.0) * u * hi
    mu1 = (power(w, 3.0) + u3) / 3.0 - w * u * u / 2.0
    mu2 = (1.0 + a3 + power(1.0 - w, 3.0)) / 3.0 \
        - (1.0 - w) * (1.0 + alpha * alpha) / 2.0
    mu3 = w * u * u / 2.0 - u3 / 3.0
    mu4 = (w - 1.0) * (1.0 - alpha * alpha) / 2.0 + (1.0 - a3) / 3.0
    eta1 = (1.0 - u3) / 3.0 - hi / 2.0 * alpha * (2.0 - alpha)
    eta2 = lu * alpha * alpha / 2.0 - a3 / 3.0
    eta3 = power(hi, 3.0) / 3.0 - hi / 2.0 * (1.0 + u * u) + (1.0 + u3) / 3.0
    eta4 = power(lu, 3.0) / 3.0 - lu * alpha * alpha / 2.0 + a3 / 3.0
    mid, lower = (w <= u) & (u <= hi), u <= hi
    # the three cases in ladder order, each chosen per point
    gc, ma, mb, uc, ea, eb, branch = (
        select(mid, m, select(lower, lo, r)) for m, lo, r in zip(
            (g2, mu1, mu2, v2, eta3, eta4, "mid_order"),
            (g1, mu3, mu4, v2, eta3, eta4, "left_of_lower"),
            (g2, mu1, mu2, v1, eta1, eta2, "right_of_upper")))
    db_q, da_q = d_b ** q, d_a ** q
    # select(x < 0, 0, x) is max(x, 0.0) at every point, -0.0 and NaN kept
    big_a, big_b = (select(x < 0.0, 0.0, x)
                    for x in (ma * db_q + mb * da_q, ea * db_q + eb * da_q))
    value = width * (power(gc, 1.0 - 1.0 / q) * power(big_a, 1.0 / q)
                     + power(uc, 1.0 - 1.0 / q) * power(big_b, 1.0 / q))
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
    if not 0.0 <= sup_f4 < math.inf:
        raise DomainError("sup |f''''| must be finite and nonnegative")
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
                   sup_f4: Optional[float] = None) -> BoundResult:
    """Evaluate the bound called ``name`` on this function.

    A general bound checks the certificate and ignores sup_f4.  The prior
    bounds are evaluated as printed: all but general-convex hold only at
    their fixed (alpha, lambda), the s-convex ones read s from a t^s
    certificate, and classical-simpson needs sup |f''''|.
    """
    general = GENERAL_BOUNDS.get(name)
    if general is not None:
        return general(tf, rp)
    if name not in PRIOR_BOUNDS:
        raise ParamMismatch(f"unknown bound {name!r}")
    width = tf.width
    d_a, d_b = tf.endpoint_derivatives
    if name == "general-convex":
        return rhs_general_convex(rp, width, d_a, d_b)
    alpha, lam = _FIXED_PARAMS[name]
    if not every((abs(rp.alpha - alpha) <= 1e-12)
                 & (abs(rp.lam - lam) <= 1e-12)):
        raise ParamMismatch(f"{name} is fixed at alpha={alpha}, lambda={lam}")
    if name == "classical-simpson":
        if sup_f4 is None:
            raise ParamMismatch("classical Simpson needs sup |f''''|")
        return rhs_classical_simpson(sup_f4, width)
    s = tf.certificate.h.s_param
    if s is None:
        raise ParamMismatch("this bound needs the class parameter s")
    if name == "midpoint-power-mean":
        return rhs_midpoint_power_mean(s, rp.q, width, d_a, d_b)
    if name == "midpoint-holder":
        return rhs_midpoint_holder(s, rp.require_p(), rp.q, width, d_a, d_b)
    d_mid = abs(tf.sample(tf.f_prime, 0.5 * (tf.a + tf.b)))
    if name == "simpson-holder":
        return rhs_simpson_holder(s, rp.require_p(), rp.q,
                                  width, d_mid, d_a, d_b)
    return rhs_trapezoid_holder(s, rp.q, width, d_mid, d_a, d_b)
