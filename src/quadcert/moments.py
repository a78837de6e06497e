"""Coefficient families and weighted moment integrals.

Everything here is a closed form for an integral of the shape
``int |t - w| * h(.) dt`` or ``int |t - w|^p dt`` over one of the two kernel
subintervals [0, 1-alpha] and [1-alpha, 1], with the kink at w = alpha*lambda
on the left and at 1 - lambda*(1-alpha) on the right.  Moments of custom
and 1/t moduli are integrated instead, split at the kink, by the tanh-sinh
rule of :mod:`quadcert.tanhsinh`, which hands a piece it does not settle to
the oracle's adaptive integrator.  alpha and lambda are floats, or arrays
that broadcast to a grid of rules; branches are chosen per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    alpha and lam may be arrays: a grid of rules sharing q.  The conjugate p
    (1/p + 1/q = 1) is derived from q; only the Hoelder paths use it.
    """

    alpha: Any
    lam: Any
    q: float

    def __post_init__(self):
        if not every((0.0 <= self.alpha) & (self.alpha <= 1.0)):
            raise DomainError("alpha must lie in [0, 1]")
        if not every((0.0 <= self.lam) & (self.lam <= 1.0)):
            raise DomainError("lambda must lie in [0, 1]")
        if not 1.0 <= self.q < math.inf:
            raise DomainError("q must be finite and >= 1")

    @property
    def p(self) -> Optional[float]:
        """q/(q-1), or None at q = 1 where no finite conjugate exists."""
        return self.q / (self.q - 1.0) if self.q > 1.0 else None

    def require_p(self) -> float:
        p = self.p
        if p is None:
            raise DomainError("the conjugate exponent p needs q > 1")
        return p


def kinks_inside(rp: RuleParams) -> Tuple[bool, bool]:
    """Per-side branch rule: (left, right) kink inside its own subinterval.

    left is alpha*lam <= 1-alpha (the left kink lies in [0, 1-alpha]);
    right is 1-alpha <= 1-lam*(1-alpha) (the right kink lies in
    [1-alpha, 1]).  Each side's moments depend only on its own comparison.
    A tie counts as inside; at a tie the two formulas of that side agree.
    """
    u = 1.0 - rp.alpha
    return rp.alpha * rp.lam <= u, u <= 1.0 - rp.lam * u


def branch_select(rp: RuleParams):
    """Name the pair of per-side comparisons of :func:`kinks_inside`.

    The name orders 1-alpha against [alpha*lam, 1 - lam*(1-alpha)]; on a
    grid, a numpy string array of names:
      "mid_order"       alpha*lam <= 1-alpha <= 1-lam*(1-alpha), both inside
      "left_of_lower"   1-alpha <= alpha*lam <= 1-lam*(1-alpha), right inside
      "right_of_upper"  alpha*lam <= 1-lam*(1-alpha) <= 1-alpha, otherwise
    """
    left, right = kinks_inside(rp)
    return select(left & right, "mid_order",
                  select(right, "left_of_lower", "right_of_upper"))


def gamma_coeffs(rp: RuleParams):
    """(gamma1, gamma2): branch values of int_0^{1-alpha} |t - alpha*lam| dt.

    gamma2 is the value when alpha*lam <= 1-alpha, gamma1 when >=; the
    inactive one may be negative.
    """
    u = 1.0 - rp.alpha
    w = rp.alpha * rp.lam
    g1 = u * (w - u / 2.0)
    g2 = w * w - g1
    return g1, g2


def upsilon_coeffs(rp: RuleParams):
    """(upsilon1, upsilon2): branch values of the right-side plain moment.

    upsilon1 applies when 1-lam*(1-alpha) <= 1-alpha, upsilon2 when >=.
    """
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    hi = 1.0 - lam * u
    # (1 - u^2)/2 factored as alpha*(1 + u)/2 to avoid cancellation when
    # alpha is tiny
    v1 = alpha * ((1.0 + u) / 2.0 - hi)
    v2 = (1.0 + u * u) / 2.0 - (lam + 1.0) * u * hi
    return v1, v2


def epsilon_coeffs(rp: RuleParams):
    """(eps1..eps4): the p-power moment numerators, eps_i/(p+1) per branch."""
    p = rp.require_p()
    alpha, lam = rp.alpha, rp.lam
    w = alpha * lam
    u = 1.0 - alpha
    lu = lam * u
    # |x - y| and |y - x| are the same float, so each power is taken once
    w_p, gap_l = power(w, p + 1.0), power(abs(u - w), p + 1.0)
    lu_p, gap_r = power(lu, p + 1.0), power(abs(alpha - lu), p + 1.0)
    return w_p + gap_l, w_p - gap_l, lu_p + gap_r, lu_p - gap_r


class Side(Enum):
    LEFT = "left"    # integral over [0, 1-alpha], kink at alpha*lam
    RIGHT = "right"  # integral over [1-alpha, 1], kink at 1-lam*(1-alpha)


def active_gamma_upsilon(rp: RuleParams) -> Tuple[float, float]:
    """(gamma, upsilon): the plain left and right moments int |t - kink| dt."""
    g1, g2 = gamma_coeffs(rp)
    v1, v2 = upsilon_coeffs(rp)
    return _active(rp, Side.LEFT, g2, g1), _active(rp, Side.RIGHT, v2, v1)


def active_epsilons(rp: RuleParams) -> Tuple[float, float]:
    """(eps_left, eps_right): the active p-power moment numerators."""
    e1, e2, e3, e4 = epsilon_coeffs(rp)
    return _active(rp, Side.LEFT, e1, e2), _active(rp, Side.RIGHT, e3, e4)


def _active(rp: RuleParams, side: Side, inside, outside):
    """One side's moment from its (kink inside, kink outside) forms.

    Chosen by :func:`kinks_inside`; 0 on an empty side; clamped.
    """
    chosen = select(kinks_inside(rp)[side is Side.RIGHT], inside, outside)
    return _clamp_moment(select(_side_empty(rp, side), 0.0, chosen))


def _power_pair(rp: RuleParams, s: float, side: Side, reflected: bool):
    """(kink inside, kink outside) forms of one moment with weight t^s.

    t -> 1-t maps a reflected moment onto the other side, so two forms
    cover four: int_0^base |t - k| t^s dt for the left plain and right
    reflected moments, int_base^1 for the left reflected and right plain.
    """
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    s1, s2 = s + 1.0, s + 2.0
    c = 2.0 / (s1 * s2)
    base = alpha if reflected else u
    b1, b2 = power(base, s1), power(base, s2)
    if (side is Side.LEFT) != reflected:
        k = alpha * lam if side is Side.LEFT else lam * u
        return power(k, s2) * c - k * b1 / s1 + b2 / s2, k * b1 / s1 - b2 / s2
    k = 1.0 - (alpha * lam if side is Side.LEFT else lam * u)
    return (power(k, s2) * c - k * (1.0 + b1) / s1 + (1.0 + b2) / s2,
            (1.0 - b2) / s2 - k * (1.0 - b1) / s1)


def weighted_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool):
    """int |t - kink| * h(t) dt (or h(1-t) if reflected) over one side.

    The one entry point for h-weighted moments: closed form for the
    identity/power/constant kinds, tanh-sinh quadrature split at the
    interior kink otherwise, one grid point at a time; for h = 1, the
    gamma or upsilon of :func:`active_gamma_upsilon`.  Raises
    NotIntegrable when a reciprocal modulus makes the moment diverge.
    """
    if h.kind is HKind.CONSTANT:
        return active_gamma_upsilon(rp)[side is Side.RIGHT]
    if h.kind in (HKind.IDENTITY, HKind.POWER):
        s = 1.0 if h.kind is HKind.IDENTITY else h.s_param
        return _active(rp, side, *_power_pair(rp, s, side, reflected))
    grid = np.broadcast(rp.alpha, rp.lam)
    if grid.shape == ():
        return _numeric_moment(h, rp, side, reflected)
    return np.array([_numeric_moment(h, RuleParams(float(a), float(lm), rp.q),
                                     side, reflected)
                     for a, lm in grid]).reshape(grid.shape)


def _side_empty(rp: RuleParams, side: Side):
    # [0, 1-alpha] or [1-alpha, 1] has zero length once 1-alpha is rounded
    return 1.0 - rp.alpha == (0.0 if side is Side.LEFT else 1.0)


def _clamp_moment(val):
    # An active moment is >= 0: absorb cancellation-level negatives and
    # refuse larger ones.
    if isinstance(val, np.ndarray):
        _clamp_moment(float(val.min(initial=0.0)))  # the refusal, if any
        return np.where(val < 0.0, 0.0, val)
    if val < 0.0:
        if val < -1e-13:
            raise AssertionError(f"active moment branch came out negative: {val!r}")
        return 0.0
    return val


def _numeric_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool) -> float:
    if _side_empty(rp, side):
        return 0.0
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    # 1/t blows up at 0 (reflected: at 1) unless the side stops short of
    # that end or its weight |t - kink| vanishes there
    diverges = {(Side.LEFT, False): alpha * lam > 0.0,
                (Side.LEFT, True): u == 1.0,
                (Side.RIGHT, False): u == 0.0,
                (Side.RIGHT, True): lam * u > 0.0}[side, reflected]
    if h.kind is HKind.RECIPROCAL and diverges:
        raise NotIntegrable(f"{'reflected ' * reflected}{side.value} moment "
                            f"of 1/t diverges at {int(reflected)}")
    lo, hi_lim, kink = ((0.0, u, alpha * lam) if side is Side.LEFT
                        else (u, 1.0, 1.0 - lam * u))

    h_at = h.evaluator
    # an argument on 0 or 1 is a measure-zero endpoint of h's domain: 0 there
    if reflected:
        def integrand(t):
            arg = 1.0 - t
            return abs(t - kink) * h_at(arg) if 0.0 < arg < 1.0 else 0.0
    else:
        def integrand(t):
            return abs(t - kink) * h_at(t) if 0.0 < t < 1.0 else 0.0

    total = 0.0
    pieces = [(lo, kink), (kink, hi_lim)] if lo < kink < hi_lim \
        else [(lo, hi_lim)]
    for plo, phi in pieces:
        total += tanhsinh.integrate(integrand, plo, phi)
    return total


def abs_moment_p(rp: RuleParams, side: Side):
    """int |t - kink|^p dt over one side; closed piecewise form."""
    return active_epsilons(rp)[side is Side.RIGHT] / (rp.require_p() + 1.0)
