"""Right-hand sides of every certified error bound, and the table of them.

Three general bounds (power-mean and Hoelder routes for h-convex weights,
Hoelder route for h-concave weights) and the previously published
fixed-parameter bounds used for comparison.  Each general bound covers every
modulus; the s-convex forms are the t^s modulus of the same evaluators.

``BOUNDS`` holds one ``Bound`` record per bound, keyed by the name the
command line accepts, and ``evaluate_bound`` evaluates any bound on a
TestFunction from its record alone.  An evaluator is called as
``rhs(x, rp, width, *d)``, x being the modulus h, s or sup |f''''| and the
d's |f'| at the points it reads, so grids are swept without building
function objects; ``rhs_general_convex``, the independent cross-check, keeps
its own signature.  On a grid of rules (``RuleParams`` with arrays) a bound
gives the same bits as point by point, as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from . import moments
from .arrays import every, power, powers, select
from .classes import ClassKind, HModulus, TestFunction, h_half, h_integral_01
from .errors import ClassMismatch, DomainError, ParamMismatch
from .moments import (RuleParams, Side, active_gamma_upsilon, branch_select,
                      epsilons_and_roots, weighted_pair)

# no bound reads it; bench/test_bench.py checks its tracer restores this copy
weighted_moment = moments.weighted_moment
# a module global is read faster than an enum member
_LEFT, _RIGHT = Side.LEFT, Side.RIGHT


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
    """Power-mean route RHS from the endpoint derivative magnitudes; A and
    B are one :func:`weighted_pair` per side, for every modulus."""
    q = rp.q
    db_q, da_q = d_b ** q, d_a ** q
    big_a = weighted_pair(h, rp, _LEFT, db_q, da_q)
    big_b = weighted_pair(h, rp, _RIGHT, db_q, da_q)
    gc, uc = active_gamma_upsilon(rp)
    # gc**0 is 1 even at gc = 0, so q = 1 degrades to the q=1 corollary
    value = width * (power(gc, 1.0 - 1.0 / q) * power(big_a, 1.0 / q)
                     + power(uc, 1.0 - 1.0 / q) * power(big_b, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "A": big_a, "B": big_b, "gamma": gc, "upsilon": uc})


def rhs_holder_hconvex(h: HModulus, rp: RuleParams, width: float,
                       d_node: float, d_a: float, d_b: float) -> BoundResult:
    """Hoelder route RHS; d_node is |f'| at the interior node (1-a)b+aa.

    The d's are floats for one rule and grid arrays only on a grid of rules.
    """
    p = rp.require_p()
    q = rp.q
    h_int = h_integral_01(h)  # raises NotIntegrable for 1/t moduli
    alpha = rp.alpha
    (eps_c, eps_d), (root_c, root_d) = epsilons_and_roots(rp)
    d_node_q = power(d_node, q)
    big_c = (1.0 - alpha) * (d_node_q + d_a ** q)
    big_d = alpha * (d_node_q + d_b ** q)
    pref = width * (1.0 / (p + 1.0)) ** (1.0 / p) * h_int ** (1.0 / q)
    value = pref * (root_c * power(big_c, 1.0 / q)
                    + root_d * power(big_d, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "C": big_c, "D": big_d, "eps_C": eps_c, "eps_D": eps_d,
        "h_integral": h_int})


def rhs_holder_hconcave(h: HModulus, rp: RuleParams, width: float,
                        d_mid_left: float, d_mid_right: float) -> BoundResult:
    """Concave-route RHS; the d's are |f'| at the two subinterval midpoints.

    The d's are floats for one rule and grid arrays only on a grid of rules.
    """
    p = rp.require_p()
    q = rp.q
    h_mid = h_half(h)
    alpha = rp.alpha
    (eps_e, eps_f), (root_e, root_f) = epsilons_and_roots(rp)
    big_e = (1.0 - alpha) * power(d_mid_left, q)
    big_f = alpha * power(d_mid_right, q)
    pref = width * (1.0 / (2.0 * h_mid)) ** (1.0 / q) \
        * (1.0 / (p + 1.0)) ** (1.0 / p)
    value = pref * (root_e * power(big_e, 1.0 / q)
                    + root_f * power(big_f, 1.0 / q))
    return BoundResult(value, branch_select(rp), {
        "E": big_e, "F": big_f, "eps_E": eps_e, "eps_F": eps_f,
        "h_half": h_mid})


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
    w3, mw3, hi3, lu3 = powers([w, 1.0 - w, hi, lu], 3.0)
    g1 = u * (w - u / 2.0)
    g2 = w * w - g1
    v1 = alpha * ((1.0 + u) / 2.0 - hi)
    v2 = (1.0 + u * u) / 2.0 - (lam + 1.0) * u * hi
    mu1 = (w3 + u3) / 3.0 - w * u * u / 2.0
    mu2 = (1.0 + a3 + mw3) / 3.0 \
        - (1.0 - w) * (1.0 + alpha * alpha) / 2.0
    mu3 = w * u * u / 2.0 - u3 / 3.0
    mu4 = (w - 1.0) * (1.0 - alpha * alpha) / 2.0 + (1.0 - a3) / 3.0
    eta1 = (1.0 - u3) / 3.0 - hi / 2.0 * alpha * (2.0 - alpha)
    eta2 = lu * alpha * alpha / 2.0 - a3 / 3.0
    eta3 = hi3 / 3.0 - hi / 2.0 * (1.0 + u * u) + (1.0 + u3) / 3.0
    eta4 = lu3 / 3.0 - lu * alpha * alpha / 2.0 + a3 / 3.0
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


def rhs_midpoint_power_mean(s: float, rp: RuleParams, width: float,
                            d_a: float, d_b: float) -> BoundResult:
    """Published midpoint bound for s-convex |f'|^q, q >= 1."""
    q = rp.q
    c_hi = 2.0 ** (1.0 - s) + 1.0
    c_lo = 2.0 ** (1.0 - s)
    pref = width / 8.0 * (2.0 / ((s + 1.0) * (s + 2.0))) ** (1.0 / q)
    value = pref * ((c_hi * d_b ** q + c_lo * d_a ** q) ** (1.0 / q)
                    + (c_hi * d_a ** q + c_lo * d_b ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_midpoint_holder(s: float, rp: RuleParams, width: float,
                        d_a: float, d_b: float) -> BoundResult:
    """Published midpoint bound for s-convex |f'|^q via conjugate exponents."""
    p, q = rp.require_p(), rp.q
    c_hi = 2.0 ** (1.0 - s) + s + 1.0
    c_lo = 2.0 ** (1.0 - s)
    pref = (width / 4.0) * (1.0 / (p + 1.0)) ** (1.0 / p) \
        * (1.0 / (s + 1.0)) ** (2.0 / q)
    value = pref * ((c_hi * d_a ** q + c_lo * d_b ** q) ** (1.0 / q)
                    + (c_hi * d_b ** q + c_lo * d_a ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_simpson_holder(s: float, rp: RuleParams, width: float,
                       d_a: float, d_b: float, d_mid: float) -> BoundResult:
    """Published Simpson bound for s-convex |f'|^q via conjugate exponents."""
    p, q = rp.require_p(), rp.q
    if p + 1.0 < 1024.0:
        pref = width / 12.0 \
            * ((1.0 + 2.0 ** (p + 1.0)) / (3.0 * (p + 1.0))) ** (1.0 / p)
    else:  # 2^(p+1) is past the float range (q near 1): take it out
        pref = width / 12.0 * 2.0 ** ((p + 1.0) / p) * (
            (2.0 ** -(p + 1.0) + 1.0) / (3.0 * (p + 1.0))) ** (1.0 / p)
    value = pref * (((d_mid ** q + d_a ** q) / (s + 1.0)) ** (1.0 / q)
                    + ((d_mid ** q + d_b ** q) / (s + 1.0)) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_trapezoid_holder(s: float, rp: RuleParams, width: float,
                         d_a: float, d_b: float, d_mid: float) -> BoundResult:
    """Published trapezoid bound for s-convex |f'|^q, q > 1.

    Stated for s in (0, 1); s = 1 is allowed here since the formula is
    continuous in s.  Its exponent (q - 1)/q is 1/p.
    """
    q = rp.q
    if q <= 1.0:
        raise DomainError("this bound needs q > 1")
    pref = width / 2.0 * ((q - 1.0) / (2.0 * (2.0 * q - 1.0))) ** ((q - 1.0) / q) \
        * (1.0 / (s + 1.0)) ** (1.0 / q)
    value = pref * ((d_mid ** q + d_a ** q) ** (1.0 / q)
                    + (d_mid ** q + d_b ** q) ** (1.0 / q))
    return BoundResult(value, None, {})


def rhs_classical_simpson(sup_f4: float, rp: RuleParams,
                          width: float) -> BoundResult:
    """Classical fourth-derivative Simpson estimate, as printed; no q or f'.

    Note: the printed factor is (b-a)^2; the textbook mean-form constant is
    (b-a)^4/2880.  On unit-width intervals the two agree.
    """
    if not 0.0 <= sup_f4 < math.inf:
        raise DomainError("sup |f''''| must be finite and nonnegative")
    return BoundResult(sup_f4 * width ** 2 / 2880.0, None, {})


# ---------------------------------------------------------------------------
# Every bound by name.

@dataclass(frozen=True)
class Bound:
    """What one named bound needs, and its evaluator."""

    class_kind: ClassKind  # the class its certificate must name
    fixed: Optional[Tuple[float, float]]  # its (alpha, lambda); None: any
    reads: Tuple[str, ...]  # where it reads |f'|, in order: an end or in _AT
    takes: Optional[str]  # x of its rhs: "h", "s", "sup_f4" or nothing
    uses_p: bool  # whether it uses, and prints, the conjugate exponent p
    rhs: Callable[..., BoundResult]


_CONVEX, _ENDS, _SIMPSON = ClassKind.H_CONVEX, ("a", "b"), (0.5, 1.0 / 3.0)
BOUNDS = {
    "power-mean": Bound(_CONVEX, None, _ENDS, "h", False, rhs_power_mean),
    "holder": Bound(_CONVEX, None, ("node", *_ENDS), "h", True,
                    rhs_holder_hconvex),
    "holder-concave": Bound(ClassKind.H_CONCAVE, None, ("left", "right"),
                            "h", True, rhs_holder_hconcave),
    "general-convex": Bound(_CONVEX, None, _ENDS, None, False,
                            lambda _, *args: rhs_general_convex(*args)),
    "midpoint-power-mean": Bound(_CONVEX, (0.5, 0.0), _ENDS, "s", False,
                                 rhs_midpoint_power_mean),
    "midpoint-holder": Bound(_CONVEX, (0.5, 0.0), _ENDS, "s", True,
                             rhs_midpoint_holder),
    "simpson-holder": Bound(_CONVEX, _SIMPSON, (*_ENDS, "centre"), "s", True,
                            rhs_simpson_holder),
    "trapezoid-holder": Bound(_CONVEX, (0.5, 1.0), (*_ENDS, "centre"), "s",
                              True, rhs_trapezoid_holder),
    "classical-simpson": Bound(_CONVEX, _SIMPSON, (), "sup_f4", False,
                               rhs_classical_simpson),
}
# the interior points where a bound reads |f'|, from (a, b, alpha): the
# Hoelder node, the midpoints of [a, node] and [node, b], and the centre
_AT = {"node": lambda a, b, al: (1.0 - al) * b + al * a,
       "left": lambda a, b, al: ((1.0 - al) * b + (1.0 + al) * a) / 2.0,
       "right": lambda a, b, al: ((2.0 - al) * b + al * a) / 2.0,
       "centre": lambda a, b, al: 0.5 * (a + b)}
# what a bound that takes s or sup_f4 raises without it
_MISSING = {"s": "this bound needs the class parameter s",
            "sup_f4": "classical Simpson needs sup |f''''|"}


def _abs_f_prime(tf: TestFunction, rp: RuleParams, point: str):
    """|f'| at one of a record's reads.  The ends are read once per tf and
    the TestFunctions recertified from it; an interior point, which moves
    with alpha alone, once per alpha object, which a rule keeps read-only,
    so a job's blocks, whose rules share one, read it once."""
    if point in _ENDS:
        return tf.endpoint_derivatives[_ENDS.index(point)]
    alpha, d = tf.reads.get(point, (None, None))
    if alpha is not rp.alpha:
        alpha = rp.alpha
        d = abs(tf.sample(tf.f_prime, _AT[point](tf.a, tf.b, alpha)))
        tf.reads[point] = alpha, d
    return d


def evaluate_bound(name: str, tf: TestFunction, rp: RuleParams,
                   sup_f4: Optional[float] = None) -> BoundResult:
    """Evaluate the bound called ``name`` on this function, as its record
    says.  Every check of the configuration comes before f' is called: a
    bound that takes h checks the certificate's class and exponent, a
    fixed-parameter bound the rule, and s or sup_f4 must be there.  A bound
    that is inf or NaN at any point, or overflows a Python float on the way
    (|f'(a)| ** q can), raises OverflowError("the <name> bound is not
    finite"); numpy's inf warns first unless the caller's np.errstate says
    otherwise."""
    bound = BOUNDS.get(name)
    if bound is None:
        raise ParamMismatch(f"unknown bound {name!r}")
    cert = tf.certificate
    x = {"h": cert.h, "s": cert.h.s_param, "sup_f4": sup_f4}.get(bound.takes)
    if bound.takes == "h":
        kind = bound.class_kind
        if cert.class_kind is not kind:
            raise ClassMismatch(
                f"{name} needs an {kind.value.replace('_', '-')} certificate")
        if abs(cert.exponent_q - rp.q) > 1e-12:
            raise ParamMismatch(
                "rule q disagrees with the certificate exponent")
    if bound.fixed is not None:
        alpha, lam = bound.fixed
        if not every((abs(rp.alpha - alpha) <= 1e-12)
                     & (abs(rp.lam - lam) <= 1e-12)):
            raise ParamMismatch(
                f"{name} is fixed at alpha={alpha}, lambda={lam}")
    if x is None and bound.takes in _MISSING:
        raise ParamMismatch(_MISSING[bound.takes])
    d = [_abs_f_prime(tf, rp, point) for point in bound.reads]
    try:
        res = bound.rhs(x, rp, tf.width, *d)
        if every(res.value < math.inf):  # NaN fails too
            return res
    except OverflowError:
        pass
    raise OverflowError(f"the {name} bound is not finite")


def bound_power_mean(tf: TestFunction, rp: RuleParams) -> BoundResult:
    """The power-mean bound on this function."""
    return evaluate_bound("power-mean", tf, rp)
