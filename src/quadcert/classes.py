"""Modulus functions and convexity-class certificates.

A modulus ``h`` on (0,1) selects one of the nested function classes: h(t)=t
gives ordinary nonnegative convex functions, h(t)=t^s the s-convex class in
the second sense, h(t)=1 the P-functions, and h(t)=1/t the Godunova-Levin
class.  A :class:`TestFunction` bundles an evaluable (f, f') pair with the
class certificate claimed for |f'|^q; :func:`certify_membership` spot-checks
that claim by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from .arrays import map_scalar, power
from .errors import DomainError, EvaluationError, NotIntegrable


class HKind(Enum):
    IDENTITY = "identity"      # h(t) = t
    POWER = "power"            # h(t) = t**s, s in (0, 1]
    CONSTANT = "constant"      # h(t) = 1
    RECIPROCAL = "reciprocal"  # h(t) = 1/t
    CUSTOM = "custom"


@dataclass(frozen=True)
class HModulus:
    """A nonnegative modulus function on (0, 1)."""

    kind: HKind
    s_param: Optional[float] = None
    fn: Optional[Callable[[float], float]] = None
    custom_integrable: bool = False

    def __post_init__(self):
        if self.kind is HKind.POWER:
            if self.s_param is None or not (0.0 < self.s_param <= 1.0):
                raise DomainError("power modulus needs s in (0, 1]")
        elif self.s_param is not None:
            raise DomainError("s_param is only meaningful for the power kind")
        if self.kind is HKind.CUSTOM and self.fn is None:
            raise DomainError("custom modulus needs an evaluable")

    @classmethod
    def identity(cls) -> "HModulus":
        return cls(HKind.IDENTITY)

    @classmethod
    def power(cls, s: float) -> "HModulus":
        return cls(HKind.POWER, s_param=float(s))

    @classmethod
    def constant(cls) -> "HModulus":
        return cls(HKind.CONSTANT)

    @classmethod
    def reciprocal(cls) -> "HModulus":
        return cls(HKind.RECIPROCAL)

    @classmethod
    def custom(cls, fn: Callable[[float], float],
               integrable_on_unit: bool = True) -> "HModulus":
        return cls(HKind.CUSTOM, fn=fn, custom_integrable=integrable_on_unit)

    def integrable_on_unit(self) -> bool:
        if self.kind is HKind.RECIPROCAL:
            return False
        if self.kind is HKind.CUSTOM:
            return self.custom_integrable
        return True

    def __call__(self, t: float) -> float:
        return h_eval(self, t)


def h_eval(h: HModulus, t: float) -> float:
    """Evaluate the modulus at t in (0, 1)."""
    if not 0.0 < t < 1.0:
        raise DomainError(f"modulus argument {t!r} outside (0, 1)")
    if h.kind is HKind.IDENTITY:
        return t
    if h.kind is HKind.POWER:
        return t ** h.s_param
    if h.kind is HKind.CONSTANT:
        return 1.0
    if h.kind is HKind.RECIPROCAL:
        return 1.0 / t
    val = float(h.fn(t))
    if not math.isfinite(val) or val < 0.0:
        raise EvaluationError(f"custom modulus returned {val!r} at t={t!r}")
    return val


def h_integral_01(h: HModulus) -> float:
    """Integral of the modulus over (0, 1); closed form for the named kinds."""
    if not h.integrable_on_unit():
        raise NotIntegrable("modulus is not integrable on (0, 1)")
    if h.kind is HKind.IDENTITY:
        return 0.5
    if h.kind is HKind.POWER:
        return 1.0 / (h.s_param + 1.0)
    if h.kind is HKind.CONSTANT:
        return 1.0
    from .oracle import TOL, integrate_adaptive  # oracle depends on us
    return integrate_adaptive(lambda t: h_eval(h, t), 0.0, 1.0, TOL).value


class ClassKind(Enum):
    H_CONVEX = "h_convex"
    H_CONCAVE = "h_concave"


@dataclass(frozen=True)
class ClassCertificate:
    """Claim that |f'|^q belongs to an h-convex (or h-concave) class."""

    class_kind: ClassKind
    h: HModulus
    exponent_q: float

    def __post_init__(self):
        if not 1.0 <= self.exponent_q < math.inf:
            raise DomainError("certificate exponent q must be finite and >= 1")


# Derivative cross-check: central differences at this many interior points.
_N_DERIV_POINTS = 11
_DERIV_REL_TOL = 1e-6


@dataclass(frozen=True)
class TestFunction:
    """An (f, f') pair on [a, b] with a class certificate for |f'|^q.

    Construction verifies that ``f_prime`` actually differentiates ``f``
    (central finite differences at interior points, 1e-6 relative).
    """

    __test__ = False  # not a test case, despite the class name

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    a: float
    b: float
    certificate: ClassCertificate
    skip_derivative_check: bool = field(default=False, repr=False)

    def __post_init__(self):
        # a finite width also rules out infinite and NaN endpoints
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise DomainError("need finite a < b")
        if not self.skip_derivative_check:
            self._check_derivative()

    def _check_derivative(self):
        width = self.b - self.a
        step = width * 1e-5
        for i in range(_N_DERIV_POINTS):
            x = self.a + width * (i + 1) / (_N_DERIV_POINTS + 1)
            fd = (self.f(x + step) - self.f(x - step)) / (2.0 * step)
            dv = self.f_prime(x)
            if abs(fd - dv) > _DERIV_REL_TOL * (1.0 + abs(dv)):
                raise DomainError(
                    f"f_prime inconsistent with f at x={x!r}: "
                    f"finite difference {fd!r} vs declared {dv!r}")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class MembershipReport:
    holds: bool
    worst_violation: float
    witness: Optional[Tuple[float, float, float]]


def certify_membership(tf: TestFunction, n_samples: int = 10_000,
                       seed: int = 0) -> MembershipReport:
    """Sampled check of the certificate inequality for g = |f'|^q.

    Draws (x, y, alpha) triples and reports the worst signed violation of
    g(alpha*x + (1-alpha)*y) <= h(alpha)*g(x) + h(1-alpha)*g(y) (inequality
    reversed for h-concave certificates).  A sampled certificate, not a
    proof: it guards against user error only.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    cert = tf.certificate
    rng = np.random.default_rng(seed)
    xs = rng.uniform(tf.a, tf.b, n_samples)
    ys = rng.uniform(tf.a, tf.b, n_samples)
    # alpha in {0, 1} is outside the quantified range of the class definition.
    alphas = np.clip(rng.uniform(0.0, 1.0, n_samples), 1e-9, 1.0 - 1e-9)

    def g(v):
        return np.abs(_eval_maybe_vector(tf.f_prime, v)) ** cert.exponent_q

    h_on = {HKind.IDENTITY: lambda t: t, HKind.CONSTANT: np.ones_like,
            HKind.POWER: lambda t: power(t, cert.h.s_param),
            HKind.RECIPROCAL: lambda t: 1.0 / t}.get(
        cert.h.kind, lambda t: map_scalar(cert.h, t))  # custom: by sample
    h_a, h_1a = h_on(alphas), h_on(1.0 - alphas)
    gx, gy = g(xs), g(ys)
    gmid = g(alphas * xs + (1.0 - alphas) * ys)
    slack = gmid - (h_a * gx + h_1a * gy)
    if cert.class_kind is ClassKind.H_CONCAVE:
        slack = -slack
    worst = float(np.max(slack))
    scale = float(max(np.max(gx), np.max(gy), np.max(gmid)))
    tol = 1e-12 * (1.0 + scale)
    if worst <= tol:
        return MembershipReport(True, worst, None)
    i = int(np.argmax(slack))
    return MembershipReport(False, worst,
                            (float(xs[i]), float(ys[i]), float(alphas[i])))


def _eval_maybe_vector(fn, v):
    """Evaluate fn on an array, falling back to a scalar loop."""
    try:
        out = np.asarray(fn(v), dtype=float)
        if out.shape == v.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(float(x))) for x in v])
