"""Coefficient families and weighted moment integrals.

Everything here is a closed form for an integral of the shape
``int |t - w| * h(.) dt`` or ``int |t - w|^p dt`` over one of the two kernel
subintervals [0, 1-alpha] and [1-alpha, 1], with the kink at w = alpha*lambda
on the left and at 1 - lambda*(1-alpha) on the right.  Custom moduli fall
back to adaptive quadrature split at the kink.  alpha and lambda are floats,
or arrays that broadcast to a grid of rules; branches are chosen per point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Tuple

import numpy as np

from .arrays import every, power, select
from .classes import HKind, HModulus, h_eval
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


def at_points(fn, rp: RuleParams, dtype=float):
    """fn(rp) for one rule; on a grid, fn at each point, as a grid array."""
    grid = np.broadcast(rp.alpha, rp.lam)
    if grid.shape == ():
        return fn(rp)
    return np.array([fn(RuleParams(float(a), float(lm), rp.q))
                     for a, lm in grid], dtype).reshape(grid.shape)


class CaseBranch(Enum):
    """Ordering of 1-alpha against [alpha*lam, 1 - lam*(1-alpha)]."""

    MID_ORDER = "mid_order"            # alpha*lam <= 1-alpha <= 1-lam*(1-alpha)
    RIGHT_OF_UPPER = "right_of_upper"  # alpha*lam <= 1-lam*(1-alpha) <= 1-alpha
    LEFT_OF_LOWER = "left_of_lower"    # 1-alpha <= alpha*lam <= 1-lam*(1-alpha)


def kinks_inside(rp: RuleParams) -> Tuple[bool, bool]:
    """Per-side branch rule: (left, right) kink inside its own subinterval.

    left is alpha*lam <= 1-alpha (the left kink lies in [0, 1-alpha]);
    right is 1-alpha <= 1-lam*(1-alpha) (the right kink lies in
    [1-alpha, 1]).  Each side's moments depend only on its own comparison.
    A tie counts as inside; at a tie the two formulas of that side agree.
    """
    u = 1.0 - rp.alpha
    return rp.alpha * rp.lam <= u, u <= 1.0 - rp.lam * u


def branch_select(rp: RuleParams) -> CaseBranch:
    """Name the pair of per-side comparisons of :func:`kinks_inside`.

    Both kinks inside is MID_ORDER; only the right kink inside is
    LEFT_OF_LOWER; otherwise RIGHT_OF_UPPER.
    """
    left, right = kinks_inside(rp)
    return select(left & right, CaseBranch.MID_ORDER,
                  select(right, CaseBranch.LEFT_OF_LOWER,
                         CaseBranch.RIGHT_OF_UPPER))


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


def active_gamma_upsilon(rp: RuleParams) -> Tuple[float, float]:
    """(gamma, upsilon): the plain left and right moments int |t - kink| dt."""
    left, right = kinks_inside(rp)
    g1, g2 = gamma_coeffs(rp)
    v1, v2 = upsilon_coeffs(rp)
    return (_clamp_moment(select(left, g2, g1)),
            _clamp_moment(select(right, v2, v1)))


def active_epsilons(rp: RuleParams) -> Tuple[float, float]:
    """(eps_left, eps_right): the active p-power moment numerators."""
    left, right = kinks_inside(rp)
    e1, e2, e3, e4 = epsilon_coeffs(rp)
    return (_clamp_moment(select(left, e1, e2)),
            _clamp_moment(select(right, e3, e4)))


MuEtaStar = namedtuple("MuEtaStar", "mu1 mu2 mu3 mu4 eta1 eta2 eta3 eta4")


class Side(Enum):
    LEFT = "left"    # integral over [0, 1-alpha], kink at alpha*lam
    RIGHT = "right"  # integral over [1-alpha, 1], kink at 1-lam*(1-alpha)


def _power_pair(rp: RuleParams, s: float, side: Side, reflected: bool):
    """The (kink inside, kink outside) pair of mu_eta_star for one moment."""
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    w, lu = alpha * lam, lam * u
    pw = power if isinstance(w, np.ndarray) else pow  # pow: fast on floats
    s1, s2 = s + 1.0, s + 2.0
    c = 2.0 / (s1 * s2)
    base = alpha if reflected else u
    b1, b2 = pw(base, s1), pw(base, s2)
    if side is Side.LEFT and not reflected:
        return pw(w, s2) * c - w * b1 / s1 + b2 / s2, w * b1 / s1 - b2 / s2
    if side is Side.LEFT:
        return (pw(1.0 - w, s2) * c - (1.0 - w) * (1.0 + b1) / s1
                + (1.0 + b2) / s2,
                (w - 1.0) * (1.0 - b1) / s1 + (1.0 - b2) / s2)
    if not reflected:
        hi = 1.0 - lu
        return (pw(hi, s2) * c - (1.0 + b1) * hi / s1 + (1.0 + b2) / s2,
                (1.0 - b2) / s2 - hi * (1.0 - b1) / s1)
    return (pw(lu, s2) * c - lu * b1 / s1 + b2 / s2, lu * b1 / s1 - b2 / s2)


def mu_eta_star(rp: RuleParams, s: float) -> MuEtaStar:
    """The eight power-modulus moment closed forms, h(t) = t^s, s in (0, 1].

    mu1/mu3 are the two branch values of the left moment with weight h(t),
    mu2/mu4 the reflected-weight h(1-t) pair; eta3/eta1 and eta4/eta2 are
    the right-side analogues.
    """
    if not 0.0 < s <= 1.0:
        raise DomainError("s must lie in (0, 1]")
    (mu1, mu3), (mu2, mu4), (eta3, eta1), (eta4, eta2) = (
        _power_pair(rp, s, side, reflected)
        for side in Side for reflected in (False, True))
    return MuEtaStar(mu1, mu2, mu3, mu4, eta1, eta2, eta3, eta4)


def weighted_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool):
    """int |t - kink| * h(t) dt (or h(1-t) if reflected) over one side.

    Closed form for the identity/power/constant kinds; adaptive quadrature
    split at the interior kink otherwise, one grid point at a time.  Raises
    NotIntegrable when a reciprocal modulus makes the moment diverge.
    """
    if h.kind is HKind.CONSTANT:
        pair = (gamma_coeffs(rp) if side is Side.LEFT
                else upsilon_coeffs(rp))[::-1]  # (inside, outside)
    elif h.kind in (HKind.IDENTITY, HKind.POWER):
        s = 1.0 if h.kind is HKind.IDENTITY else h.s_param
        pair = _power_pair(rp, s, side, reflected)
    else:
        return at_points(
            lambda pt: _numeric_moment(h, pt, side, reflected), rp)
    inside = kinks_inside(rp)[side is Side.RIGHT]
    # an empty side is 0 whatever its closed form rounds to
    return _clamp_moment(select(_side_empty(rp, side), 0.0,
                                select(inside, *pair)))


def _side_empty(rp: RuleParams, side: Side):
    # [0, 1-alpha] or [1-alpha, 1] has zero length once 1-alpha is rounded
    return 1.0 - rp.alpha == (0.0 if side is Side.LEFT else 1.0)


def _clamp_moment(val):
    # The one clamp policy for every active moment and coefficient: they are
    # >= 0, so absorb cancellation-level negatives and refuse larger ones.
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
    from .oracle import TOL, integrate_adaptive  # local: avoids a cycle
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

    def integrand(t):
        arg = 1.0 - t if reflected else t
        if arg <= 0.0 or arg >= 1.0:
            return 0.0  # measure-zero endpoint of the modulus domain
        return abs(t - kink) * h_eval(h, arg)

    total = 0.0
    pieces = [(lo, kink), (kink, hi_lim)] if lo < kink < hi_lim \
        else [(lo, hi_lim)]
    for plo, phi in pieces:
        total += integrate_adaptive(integrand, plo, phi, TOL).value
    return total


def abs_moment_p(rp: RuleParams, side: Side):
    """int |t - kink|^p dt over one side; closed piecewise form."""
    p = rp.require_p()
    eps = active_epsilons(rp)[side is Side.RIGHT]
    return select(_side_empty(rp, side), 0.0, eps / (p + 1.0))
