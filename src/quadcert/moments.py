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
closed-form moments, which the bounds evaluated on it share, and so do the
rules :meth:`RuleParams.at_q` derives from it at other exponents.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, Tuple

import numpy as np

from . import tanhsinh
from .arrays import every, extent, power, powers, select
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
    side (index 0 left, 1 right) the kink-inside and empty masks; a grid
    on which no side is empty keeps False, not an all-False mask.  ``memo``
    holds what :func:`branch_select`, :func:`active_gamma_upsilon`,
    :func:`active_epsilons` and :func:`weighted_moment` compute on first
    use: the branch names, the active gamma/upsilon, the epsilons per p
    and, keyed by s, the four t^s moments; so the bounds evaluated on one
    RuleParams, or on the rules :meth:`at_q` derives from it, compute each
    once.  The 1/t and custom moments are not kept.  None of these take
    part in repr, == or hash.
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
        if self.alpha.__class__ is float and self.lam.__class__ is float:
            a_lo = a_hi = self.alpha
            l_lo = l_hi = self.lam
        else:
            for name in ("alpha", "lam"):
                value = getattr(self, name)
                if isinstance(value, np.ndarray):
                    value = value.copy()
                    value.setflags(write=False)
                    object.__setattr__(self, name, value)
            (a_lo, a_hi), (l_lo, l_hi) = extent(self.alpha), extent(self.lam)
        if not (0.0 <= a_lo and a_hi <= 1.0):  # NaN fails too
            raise DomainError("alpha must lie in [0, 1]")
        if not (0.0 <= l_lo and l_hi <= 1.0):
            raise DomainError("lambda must lie in [0, 1]")
        _check_q(self.q)
        u = 1.0 - self.alpha
        w = self.alpha * self.lam
        lu = self.lam * u
        hi = 1.0 - lu
        # the one branch rule: a side takes its kink-inside forms where the
        # left kink lies in [0, 1-alpha] (alpha*lam <= 1-alpha), or the right
        # one in [1-alpha, 1] (1-alpha <= 1-lam*(1-alpha)); a tie counts as
        # inside, and there the two forms of that side agree.  [0, 1-alpha]
        # or [1-alpha, 1] is empty once 1-alpha is rounded to 0 or 1, which
        # a rounded 1 - alpha does at some point exactly where it does at
        # the greatest or least alpha; a grid where it does not keeps False
        # for that side's mask.  The instance is frozen, so the derived
        # fields go into its dict directly.
        empty = (u == 0.0 if 1.0 - a_hi == 0.0 else False,
                 u == 1.0 if 1.0 - a_lo == 1.0 else False)
        vars(self).update(u=u, w=w, lu=lu, hi=hi, inside=(w <= u, u <= hi),
                          empty=empty, memo={})

    def at_q(self, q: float) -> "RuleParams":
        """This rule at exponent q: self if q is its own, else a copy that
        shares its geometry and its memo, of which only the epsilons
        depend on q, and those are kept per p."""
        if q == self.q:
            return self
        _check_q(q)
        rule = copy.copy(self)
        object.__setattr__(rule, "q", q)
        return rule

    @property
    def p(self) -> Optional[float]:
        """q/(q-1), or None at q = 1 where no finite conjugate exists."""
        return self.q / (self.q - 1.0) if self.q > 1.0 else None

    def require_p(self) -> float:
        p = self.p
        if p is None:
            raise DomainError("the conjugate exponent p needs q > 1")
        return p


def _check_q(q: float):
    if not 1.0 <= q < math.inf:
        raise DomainError("q must be finite and >= 1")


class Side(Enum):
    LEFT = "left"    # integral over [0, 1-alpha], kink at alpha*lam
    RIGHT = "right"  # integral over [1-alpha, 1], kink at 1-lam*(1-alpha)


# a module global is read faster than an enum member, on every moment
_RIGHT = Side.RIGHT
_IDENTITY, _POWER, _CONSTANT, _RECIPROCAL, _CUSTOM = (
    HKind.IDENTITY, HKind.POWER, HKind.CONSTANT, HKind.RECIPROCAL,
    HKind.CUSTOM)
# the least normal double: an epsilon below it has underflowed
_TINY = sys.float_info.min


def _active(rp: RuleParams, i: int, inside, outside):
    """Side i's moment from its (kink inside, kink outside) forms.

    0 on an empty side; clamped.
    """
    empty, kink_inside = rp.empty[i], rp.inside[i]
    if empty.__class__ is bool and kink_inside.__class__ is bool:
        val = 0.0 if empty else inside if kink_inside else outside
        return val if val >= 0.0 else _clamp_moment(val)
    return _clamp_moment(select(empty, 0.0,
                                select(kink_inside, inside, outside)))


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


def _epsilon_bases(rp: RuleParams):
    """Per side, the kink's distances to the side's ends: eps is
    x^(p+1) + y^(p+1) with the kink inside, x^(p+1) - y^(p+1) outside."""
    # |x - y| and |y - x| are the same float, so each power is taken once
    return (rp.w, abs(rp.u - rp.w)), (rp.lu, abs(rp.alpha - rp.lu))


def epsilon_coeffs(rp: RuleParams):
    """(eps1..eps4): the p-power moment numerators, eps_i/(p+1) per branch."""
    p = rp.require_p()
    (w, gap_l), (lu, gap_r) = _epsilon_bases(rp)
    w_p, gap_l, lu_p, gap_r = powers([w, gap_l, lu, gap_r], p + 1.0)
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
    return epsilons_and_roots(rp)[0]


def epsilons_and_roots(rp: RuleParams):
    """(eps_left, eps_right) of :func:`active_epsilons` and their 1/p-th
    powers, the Hoelder bounds' factors, kept in the memo per p.

    As q nears 1, p grows and x^(p+1) + y^(p+1) underflows (at alpha =
    0.3, lambda = 0.5 for every q below about 1.0014), and the root of the
    0 or subnormal it leaves is 0 or inexact.  Where an epsilon is below
    the least normal double, the root is taken as m^((p+1)/p) times the
    root of the epsilon of the bases scaled by 1/m, m the larger of the
    side's two bases; elsewhere it is power(eps, 1/p), bit for bit.
    """
    p = rp.require_p()
    per_p = rp.memo.get("epsilons")
    if per_p is None:
        per_p = rp.memo["epsilons"] = {}
    got = per_p.get(p)
    if got is not None:
        return got
    e1, e2, e3, e4 = epsilon_coeffs(rp)
    eps = _active(rp, 0, e1, e2), _active(rp, 1, e3, e4)
    roots = [power(eps[0], 1.0 / p), power(eps[1], 1.0 / p)]
    for i in (0, 1):
        normal = eps[i] >= _TINY
        if normal is True or every(normal):
            continue
        x, y = _epsilon_bases(rp)[i]
        m = select(x < y, y, x)
        m = select(m > 0.0, m, 1.0)  # 0 only on an empty side
        xs, ys = power(x / m, p + 1.0), power(y / m, p + 1.0)
        scaled = (power(m, (p + 1.0) / p)
                  * power(_active(rp, i, xs + ys, xs - ys), 1.0 / p))
        roots[i] = select(normal, roots[i], scaled)
    got = per_p[p] = eps, tuple(roots)
    return got


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

    def lower(k, k2, b1, b2):  # int_0^b, from k^(s+2), b^(s+1) and b^(s+2)
        kb, b2s = k * b1 / s1, b2 / s2
        return k2 * c - kb + b2s, kb - b2s

    def upper(k, k2, b1, b2):  # int_b^1
        return (k2 * c - k * (1.0 + b1) / s1 + (1.0 + b2) / s2,
                (1.0 - b2) / s2 - k * (1.0 - b1) / s1)

    u, alpha, w, hi, lu = rp.u, rp.alpha, rp.w, rp.hi, rp.lu
    u1, u2, a1, a2 = (power(u, s1), power(u, s2), power(alpha, s1),
                      power(alpha, s2))
    mw = 1.0 - w
    w2, mw2, hi2, lu2 = powers([w, mw, hi, lu], s2)
    return {(False, False): lower(w, w2, u1, u2),
            (False, True): upper(mw, mw2, a1, a2),
            (True, False): upper(hi, hi2, u1, u2),
            (True, True): lower(lu, lu2, a1, a2)}


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
    kind = h.kind
    if kind is _CONSTANT:
        return active_gamma_upsilon(rp)[side is _RIGHT]
    if kind is _IDENTITY or kind is _POWER:
        s = 1.0 if kind is _IDENTITY else h.s_param
        moments = rp.memo.get(s)
        if moments is None:
            moments = rp.memo[s] = {
                key: _active(rp, key[0], *forms)
                for key, forms in _power_forms(rp, s).items()}
        return moments[side is _RIGHT, reflected]
    if kind is _RECIPROCAL:
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
    right = side is _RIGHT
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
    if h.kind is not _CUSTOM:
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
    if rp.empty[side is _RIGHT]:
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
    return active_epsilons(rp)[side is _RIGHT] / (rp.require_p() + 1.0)
