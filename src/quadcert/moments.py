"""Coefficient families and weighted moment integrals.

Everything here is a closed form for an integral of the shape
``int |t - w| * h(.) dt`` or ``int |t - w|^p dt`` over one of the two kernel
subintervals [0, 1-alpha] and [1-alpha, 1], with the kink at w = alpha*lambda
on the left and at 1 - lambda*(1-alpha) on the right, for every named
modulus: t, t^s, 1 and 1/t.  Only a custom modulus's moments are
integrated, split at the kink, by the tanh-sinh rule of
:mod:`quadcert.tanhsinh`, which hands a piece it does not settle to the
oracle's adaptive integrator, on the integrand that
:meth:`HModulus.moment_integrand` builds: :mod:`quadcert.classes` alone
calls a custom modulus's fn.  :func:`weighted_pair` takes one side's
plain and reflected moments for any modulus, a custom pair in one pass, and
a single custom moment is a pair with one weight 0.  alpha and lambda are
floats, or arrays that broadcast to a grid of rules; branches are chosen
per point, and the 1/t and custom moments are taken one point at a time.
Each RuleParams holds its own kinks and branch masks and a memo of its
closed-form moments, which the bounds evaluated on it share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, Tuple

import numpy as np

from . import tanhsinh
from .arrays import every, power, select
from .classes import HKind, HModulus
from .errors import DomainError, NotIntegrable


@dataclass(frozen=True)
class RuleParams:
    """Quadrature-rule parameters (alpha, lambda) with exponent q.

    alpha and lam may be arrays: a grid of rules sharing q.  An array is
    kept as a read-only copy, so no later write to the caller's array can
    make the rule's geometry or memo stale.  The conjugate p (1/p + 1/q = 1)
    is derived from q; only the Hoelder paths use it.

    The geometry is computed on construction: u = 1-alpha, the left kink
    w = alpha*lam, lu = lam*(1-alpha), the right kink hi = 1-lu, and per
    side (index 0 left, 1 right) the kink-inside and empty masks.  ``memo``
    holds what :func:`branch_select`, :func:`active_gamma_upsilon`,
    :func:`active_epsilons` and :func:`weighted_moment` compute on first
    use: the branch names, the active gamma/upsilon and epsilons and, keyed
    by s, the four t^s moments; so the bounds evaluated on one RuleParams
    compute each once.  The 1/t and custom moments are not kept.  None of
    these take part in repr, == or hash.
    """

    alpha: Any
    lam: Any
    q: float
    u: Any = field(init=False, repr=False, compare=False)
    w: Any = field(init=False, repr=False, compare=False)
    lu: Any = field(init=False, repr=False, compare=False)
    hi: Any = field(init=False, repr=False, compare=False)
    inside: Tuple[Any, Any] = field(init=False, repr=False, compare=False)
    empty: Tuple[Any, Any] = field(init=False, repr=False, compare=False)
    memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "lam"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        if not every((0.0 <= self.alpha) & (self.alpha <= 1.0)):
            raise DomainError("alpha must lie in [0, 1]")
        if not every((0.0 <= self.lam) & (self.lam <= 1.0)):
            raise DomainError("lambda must lie in [0, 1]")
        if not 1.0 <= self.q < math.inf:
            raise DomainError("q must be finite and >= 1")
        u = 1.0 - self.alpha
        w = self.alpha * self.lam
        lu = self.lam * u
        hi = 1.0 - lu
        # the one branch rule: a side takes its kink-inside forms where the
        # left kink lies in [0, 1-alpha] (alpha*lam <= 1-alpha), or the right
        # one in [1-alpha, 1] (1-alpha <= 1-lam*(1-alpha)); a tie counts as
        # inside, and there the two forms of that side agree.  [0, 1-alpha]
        # or [1-alpha, 1] is empty once 1-alpha is rounded to 0 or 1.  The
        # instance is frozen, so the derived fields go into its dict directly.
        vars(self).update(u=u, w=w, lu=lu, hi=hi, inside=(w <= u, u <= hi),
                          empty=(u == 0.0, u == 1.0), memo={})

    @property
    def p(self) -> Optional[float]:
        """q/(q-1), or None at q = 1 where no finite conjugate exists."""
        return self.q / (self.q - 1.0) if self.q > 1.0 else None

    def require_p(self) -> float:
        p = self.p
        if p is None:
            raise DomainError("the conjugate exponent p needs q > 1")
        return p


class Side(Enum):
    LEFT = "left"    # integral over [0, 1-alpha], kink at alpha*lam
    RIGHT = "right"  # integral over [1-alpha, 1], kink at 1-lam*(1-alpha)


def _active(rp: RuleParams, i: int, inside, outside):
    """Side i's moment from its (kink inside, kink outside) forms.

    0 on an empty side; clamped.
    """
    chosen = select(rp.inside[i], inside, outside)
    return _clamp_moment(select(rp.empty[i], 0.0, chosen))


def branch_select(rp: RuleParams):
    """Name the pair of per-side comparisons of the rule's ``inside``.

    The name orders 1-alpha against [alpha*lam, 1 - lam*(1-alpha)]; on a
    grid, a numpy string array of names:
      "mid_order"       alpha*lam <= 1-alpha <= 1-lam*(1-alpha), both inside
      "left_of_lower"   1-alpha <= alpha*lam <= 1-lam*(1-alpha), right inside
      "right_of_upper"  alpha*lam <= 1-lam*(1-alpha) <= 1-alpha, otherwise
    """
    branch = rp.memo.get("branch")
    if branch is None:
        left, right = rp.inside
        branch = rp.memo["branch"] = select(
            left & right, "mid_order",
            select(right, "left_of_lower", "right_of_upper"))
    return branch


def gamma_coeffs(rp: RuleParams):
    """(gamma1, gamma2): branch values of int_0^{1-alpha} |t - alpha*lam| dt.

    gamma2 is the value when alpha*lam <= 1-alpha, gamma1 when >=; the
    inactive one may be negative.
    """
    u, w = rp.u, rp.w
    g1 = u * (w - u / 2.0)
    g2 = w * w - g1
    return g1, g2


def upsilon_coeffs(rp: RuleParams):
    """(upsilon1, upsilon2): branch values of the right-side plain moment.

    upsilon1 applies when 1-lam*(1-alpha) <= 1-alpha, upsilon2 when >=.
    """
    u, hi = rp.u, rp.hi
    # (1 - u^2)/2 factored as alpha*(1 + u)/2 to avoid cancellation when
    # alpha is tiny
    v1 = rp.alpha * ((1.0 + u) / 2.0 - hi)
    v2 = (1.0 + u * u) / 2.0 - (rp.lam + 1.0) * u * hi
    return v1, v2


def epsilon_coeffs(rp: RuleParams):
    """(eps1..eps4): the p-power moment numerators, eps_i/(p+1) per branch."""
    p = rp.require_p()
    w, u, lu = rp.w, rp.u, rp.lu
    # |x - y| and |y - x| are the same float, so each power is taken once
    w_p, gap_l = power(w, p + 1.0), power(abs(u - w), p + 1.0)
    lu_p, gap_r = power(lu, p + 1.0), power(abs(rp.alpha - lu), p + 1.0)
    return w_p + gap_l, w_p - gap_l, lu_p + gap_r, lu_p - gap_r


def active_gamma_upsilon(rp: RuleParams) -> Tuple[float, float]:
    """(gamma, upsilon): the plain left and right moments int |t - kink| dt."""
    pair = rp.memo.get("gamma_upsilon")
    if pair is None:
        g1, g2 = gamma_coeffs(rp)
        v1, v2 = upsilon_coeffs(rp)
        pair = rp.memo["gamma_upsilon"] = (_active(rp, 0, g2, g1),
                                           _active(rp, 1, v2, v1))
    return pair


def active_epsilons(rp: RuleParams) -> Tuple[float, float]:
    """(eps_left, eps_right): the active p-power moment numerators."""
    pair = rp.memo.get("epsilons")
    if pair is None:
        e1, e2, e3, e4 = epsilon_coeffs(rp)
        pair = rp.memo["epsilons"] = (_active(rp, 0, e1, e2),
                                      _active(rp, 1, e3, e4))
    return pair


def _power_forms(rp: RuleParams, s: float):
    """(kink inside, kink outside) forms of the four moments with weight t^s.

    Keyed by (right side, reflected).  x -> 1-x maps a reflected moment onto
    the other side, so two forms cover four: int_0^b |x - k| x^s dx gives
    the left plain and right reflected moments (b = 1-alpha and alpha), and
    int_b^1 the left reflected and right plain ones (b = alpha and
    1-alpha).  Each power of 1-alpha and of alpha is taken once.
    """
    s1, s2 = s + 1.0, s + 2.0
    c = 2.0 / (s1 * s2)

    def lower(k, b1, b2):  # int_0^b, from b^(s+1) and b^(s+2)
        kb = k * b1 / s1
        return power(k, s2) * c - kb + b2 / s2, kb - b2 / s2

    def upper(k, b1, b2):  # int_b^1
        return (power(k, s2) * c - k * (1.0 + b1) / s1 + (1.0 + b2) / s2,
                (1.0 - b2) / s2 - k * (1.0 - b1) / s1)

    u1, u2 = power(rp.u, s1), power(rp.u, s2)
    a1, a2 = power(rp.alpha, s1), power(rp.alpha, s2)
    return {(False, False): lower(rp.w, u1, u2),
            (False, True): upper(1.0 - rp.w, a1, a2),
            (True, False): upper(rp.hi, u1, u2),
            (True, True): lower(rp.lu, a1, a2)}


def weighted_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool):
    """int |t - kink| * h(t) dt (or h(1-t) if reflected) over one side.

    The one entry point for single h-weighted moments.  Every named kind
    takes a closed form: t and t^s kept in the rule's memo, for h = 1 the
    gamma or upsilon of :func:`active_gamma_upsilon`, and for h = 1/t
    :func:`_reciprocal_moment` one grid point at a time, which raises
    NotIntegrable where the moment diverges.  A custom modulus's moment is
    :func:`weighted_pair` with coefficients (1, 0) or (0, 1).
    """
    if h.kind is HKind.CONSTANT:
        return active_gamma_upsilon(rp)[side is Side.RIGHT]
    if h.kind in (HKind.IDENTITY, HKind.POWER):
        s = 1.0 if h.kind is HKind.IDENTITY else h.s_param
        moments = rp.memo.get(s)
        if moments is None:
            moments = rp.memo[s] = {
                key: _active(rp, key[0], *forms)
                for key, forms in _power_forms(rp, s).items()}
        return moments[side is Side.RIGHT, reflected]
    if h.kind is HKind.RECIPROCAL:
        return _per_point(lambda r: _reciprocal_moment(r, side, reflected),
                          rp)
    return weighted_pair(h, rp, side, float(not reflected), float(reflected))


def _per_point(fn, rp: RuleParams, *coeffs):
    """fn(rp, *coeffs); on a grid, fn at each point, on a scalar rule and
    Python-float coefficients."""
    grid = np.broadcast(rp.alpha, rp.lam, *coeffs)
    if grid.shape == ():
        return fn(rp, *coeffs)
    return np.array([fn(RuleParams(float(a), float(lm), rp.q),
                        *map(float, cs))
                     for a, lm, *cs in grid]).reshape(grid.shape)


def _reciprocal_moment(rp: RuleParams, side: Side, reflected: bool):
    """The moment of h = 1/t on one rule, in closed form.

    Where the kink sits on the pole the integrand is 1.  The other two are
    F(x, k) = int_0^x |t - k|/(1 - t) dt: the left reflected moment at
    (1-alpha, alpha*lam) and, by t -> 1-t, the right plain one at
    (1 - u, 1 - hi), both differences exact.
    """
    right = side is Side.RIGHT
    if rp.empty[right]:
        return 0.0
    u = rp.u
    # 1/t blows up at 0 (reflected: at 1) unless the side stops short of
    # that end or its weight |t - kink| vanishes there
    if (rp.w > 0.0, u == 1.0, u == 0.0, rp.lu > 0.0)[2 * right + reflected]:
        raise NotIntegrable(f"{'reflected ' * reflected}{side.value} moment "
                            f"of 1/t diverges at {int(reflected)}")
    if reflected == right:  # int_0^u t/t dt or int_u^1 (1-t)/(1-t) dt
        return 1.0 - u if right else u
    x, k = (1.0 - u, 1.0 - rp.hi) if right else (u, rp.w)
    if k > x:
        return k * x - (1.0 - k) * _m(x)
    return (1.0 - k) * (_m(x) - 2.0 * _m(k)) - k * x + 2.0 * k * k


def _m(x: float) -> float:
    """-ln(1 - x) - x for 0 <= x < 1; below 1/4 the series of x^j/j from
    j = 2, which does not cancel (the terms past j = 29 are < 2e-18 of it)."""
    if x < 0.25:
        return math.fsum(x ** j / j for j in range(2, 30))
    return -math.log1p(-x) - x


def _clamp_moment(val):
    # An active moment is >= 0: absorb cancellation-level negatives and
    # refuse larger ones.
    if isinstance(val, np.ndarray):
        low = val.min(initial=0.0)
        if low >= 0.0:  # nothing to absorb; NaN takes the path below
            return val
        _clamp_moment(float(low))  # the refusal, if any
        return np.where(val < 0.0, 0.0, val)
    if val < 0.0:
        if val < -1e-13:
            raise AssertionError(f"active moment branch came out negative: {val!r}")
        return 0.0
    return val


def weighted_pair(h: HModulus, rp: RuleParams, side: Side,
                  c_plain, c_reflected):
    """c_plain * M + c_reflected * M_r, where M and M_r are one side's
    plain and reflected :func:`weighted_moment`, for every modulus.

    A named modulus reads both closed forms, whatever the coefficients, so
    1/t raises NotIntegrable where either moment diverges.  A custom
    modulus's two moments are integrated together, one tanh-sinh pass per
    piece on |t - kink| * (w_p h(t) + w_r h(1-t)) with w = c/(c_plain +
    c_reflected), :meth:`HModulus.moment_integrand`, and the sum is scaled
    back.  The weights sum to 1, so each piece settles to TOL on a convex
    combination of the two moments, and the error is at most (c_plain +
    c_reflected) * TOL, as for the two moments apart.  A zero coefficient
    leaves its h unsampled, so the coefficients (1, 0) and (0, 1) give one
    moment alone.  Where the sum is 0 or not finite, the two moments are
    taken apart, which keeps their 0, inf or NaN.  The coefficients may be
    arrays; on a grid, a custom pair is taken one point at a time.
    """
    if h.kind is not HKind.CUSTOM:
        return (c_plain * weighted_moment(h, rp, side, False)
                + c_reflected * weighted_moment(h, rp, side, True))
    return _per_point(lambda r, cp, cr: _numeric_pair(h, r, side, cp, cr),
                      rp, c_plain, c_reflected)


def _numeric_pair(h: HModulus, rp: RuleParams, side: Side,
                  c_plain: float, c_reflected: float) -> float:
    scale = c_plain + c_reflected
    if not 0.0 < scale < math.inf:
        return (c_plain * _numeric_pair(h, rp, side, 1.0, 0.0)
                + c_reflected * _numeric_pair(h, rp, side, 0.0, 1.0))
    if rp.empty[side is Side.RIGHT]:
        return 0.0
    lo, hi_lim, kink = ((0.0, rp.u, rp.w) if side is Side.LEFT
                        else (rp.u, 1.0, rp.hi))
    integrand = h.moment_integrand(kink, c_plain / scale, c_reflected / scale)
    total = 0.0
    for plo, phi in ([(lo, kink), (kink, hi_lim)] if lo < kink < hi_lim
                     else [(lo, hi_lim)]):
        total += tanhsinh.integrate(integrand, plo, phi)
    return scale * total


def abs_moment_p(rp: RuleParams, side: Side):
    """int |t - kink|^p dt over one side; closed piecewise form."""
    return active_epsilons(rp)[side is Side.RIGHT] / (rp.require_p() + 1.0)
