"""Coefficient families and weighted moment integrals.

Everything here is a closed form for an integral of the shape
``int |t - w| * h(.) dt`` or ``int |t - w|^p dt`` over one of the two kernel
subintervals [0, 1-alpha] and [1-alpha, 1], with the kink at w = alpha*lambda
on the left and at 1 - lambda*(1-alpha) on the right.  Custom moduli fall
back to adaptive quadrature split at the kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .classes import HKind, HModulus, h_eval
from .errors import DomainError, NotIntegrable


@dataclass(frozen=True)
class RuleParams:
    """Quadrature-rule parameters (alpha, lambda) with exponent q.

    The conjugate p (1/p + 1/q = 1) is derived from q; only the Hoelder
    paths use it, and they need q > 1.
    """

    alpha: float
    lam: float
    q: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1]")
        if not 0.0 <= self.lam <= 1.0:
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
    if left and right:
        return CaseBranch.MID_ORDER
    return CaseBranch.LEFT_OF_LOWER if right else CaseBranch.RIGHT_OF_UPPER


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
    e1 = w ** (p + 1.0) + abs(u - w) ** (p + 1.0)
    e2 = w ** (p + 1.0) - abs(w - u) ** (p + 1.0)
    e3 = lu ** (p + 1.0) + abs(alpha - lu) ** (p + 1.0)
    e4 = lu ** (p + 1.0) - abs(lu - alpha) ** (p + 1.0)
    return e1, e2, e3, e4


def active_gamma_upsilon(rp: RuleParams) -> Tuple[float, float]:
    """(gamma, upsilon): the plain left and right moments int |t - kink| dt."""
    left, right = kinks_inside(rp)
    g1, g2 = gamma_coeffs(rp)
    v1, v2 = upsilon_coeffs(rp)
    return (_clamp_moment(g2 if left else g1),
            _clamp_moment(v2 if right else v1))


def active_epsilons(rp: RuleParams) -> Tuple[float, float]:
    """(eps_left, eps_right): the active p-power moment numerators."""
    left, right = kinks_inside(rp)
    e1, e2, e3, e4 = epsilon_coeffs(rp)
    return (_clamp_moment(e1 if left else e2),
            _clamp_moment(e3 if right else e4))


class MuEtaStar(NamedTuple):
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    eta1: float
    eta2: float
    eta3: float
    eta4: float


def _mu_eta(rp: RuleParams, s: float) -> MuEtaStar:
    alpha, lam = rp.alpha, rp.lam
    w = alpha * lam
    u = 1.0 - alpha
    lu = lam * u
    hi = 1.0 - lu
    s1, s2 = s + 1.0, s + 2.0
    c = 2.0 / (s1 * s2)
    mu1 = w ** s2 * c - w * u ** s1 / s1 + u ** s2 / s2
    mu2 = ((1.0 - w) ** s2 * c
           - (1.0 - w) * (1.0 + alpha ** s1) / s1
           + (1.0 + alpha ** s2) / s2)
    mu3 = w * u ** s1 / s1 - u ** s2 / s2
    mu4 = (w - 1.0) * (1.0 - alpha ** s1) / s1 + (1.0 - alpha ** s2) / s2
    eta1 = (1.0 - u ** s2) / s2 - hi * (1.0 - u ** s1) / s1
    eta2 = lu * alpha ** s1 / s1 - alpha ** s2 / s2
    eta3 = (hi ** s2 * c
            - (1.0 + u ** s1) * hi / s1
            + (1.0 + u ** s2) / s2)
    eta4 = lu ** s2 * c - lu * alpha ** s1 / s1 + alpha ** s2 / s2
    return MuEtaStar(mu1, mu2, mu3, mu4, eta1, eta2, eta3, eta4)


def mu_eta_star(rp: RuleParams, s: float) -> MuEtaStar:
    """The eight power-modulus moment closed forms, h(t) = t^s, s in (0, 1].

    mu1/mu3 are the two branch values of the left moment with weight h(t),
    mu2/mu4 the reflected-weight h(1-t) pair; eta3/eta1 and eta4/eta2 are
    the right-side analogues.
    """
    if not 0.0 < s <= 1.0:
        raise DomainError("s must lie in (0, 1]")
    return _mu_eta(rp, s)


class Side(Enum):
    LEFT = "left"    # integral over [0, 1-alpha], kink at alpha*lam
    RIGHT = "right"  # integral over [1-alpha, 1], kink at 1-lam*(1-alpha)


def weighted_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool) -> float:
    """int |t - kink| * h(t) dt (or h(1-t) if reflected) over one side.

    Closed form for the identity/power/constant kinds; adaptive quadrature
    split at the interior kink otherwise.  Raises NotIntegrable when a
    reciprocal modulus makes the moment diverge.
    """
    if _side_empty(rp, side):
        return 0.0

    if h.kind in (HKind.IDENTITY, HKind.POWER):
        me = _mu_eta(rp, 1.0 if h.kind is HKind.IDENTITY else h.s_param)
        left, right = kinks_inside(rp)
        # each pair is (kink inside the side, kink outside it)
        if side is Side.LEFT:
            pair = (me.mu2, me.mu4) if reflected else (me.mu1, me.mu3)
            return _clamp_moment(pair[0] if left else pair[1])
        pair = (me.eta4, me.eta2) if reflected else (me.eta3, me.eta1)
        return _clamp_moment(pair[0] if right else pair[1])

    if h.kind is HKind.CONSTANT:
        gamma, upsilon = active_gamma_upsilon(rp)
        return gamma if side is Side.LEFT else upsilon

    if h.kind is HKind.RECIPROCAL:
        _check_reciprocal_divergence(rp, side, reflected)
    return _numeric_moment(h, rp, side, reflected)


def _side_empty(rp: RuleParams, side: Side) -> bool:
    # [0, 1-alpha] or [1-alpha, 1] has zero length once 1-alpha is rounded
    return 1.0 - rp.alpha == (0.0 if side is Side.LEFT else 1.0)


def _clamp_moment(val: float) -> float:
    # The one clamp policy for every active moment and coefficient: they are
    # >= 0, so absorb cancellation-level negatives and refuse larger ones.
    if val < 0.0:
        if val < -1e-13:
            raise AssertionError(f"active moment branch came out negative: {val!r}")
        return 0.0
    return val


def _check_reciprocal_divergence(rp: RuleParams, side: Side, reflected: bool):
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    if side is Side.LEFT:
        if not reflected:
            # 1/t blows up at 0 unless the weight |t - alpha*lam| vanishes there
            if alpha * lam > 0.0:
                raise NotIntegrable("left moment of 1/t diverges at 0")
        elif u == 1.0:
            raise NotIntegrable("reflected left moment of 1/t diverges at 1")
    else:
        if not reflected:
            if u == 0.0:
                raise NotIntegrable("right moment of 1/t diverges at 0")
        elif lam * u > 0.0:
            raise NotIntegrable("reflected right moment of 1/t diverges at 1")


def _numeric_moment(h: HModulus, rp: RuleParams, side: Side,
                    reflected: bool) -> float:
    from .oracle import TOL, integrate_adaptive  # local: avoids a cycle
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    if side is Side.LEFT:
        lo, hi_lim = 0.0, u
        kink = alpha * lam
    else:
        lo, hi_lim = u, 1.0
        kink = 1.0 - lam * u

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


def abs_moment_p(rp: RuleParams, side: Side) -> float:
    """int |t - kink|^p dt over one side; closed piecewise form."""
    p = rp.require_p()
    if _side_empty(rp, side):
        return 0.0
    eps_left, eps_right = active_epsilons(rp)
    return (eps_left if side is Side.LEFT else eps_right) / (p + 1.0)
