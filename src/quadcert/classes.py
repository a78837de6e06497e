"""Modulus functions and convexity-class certificates.

A modulus ``h`` on (0,1) selects one of the nested function classes: h(t)=t
gives ordinary nonnegative convex functions, h(t)=t^s the s-convex class in
the second sense, h(t)=1 the P-functions, and h(t)=1/t the Godunova-Levin
class.  A :class:`TestFunction` bundles an evaluable (f, f') pair with the
class certificate claimed for |f'|^q; :func:`certify_membership` spot-checks
that claim by sampling.  It keeps the last draw of f' samples, so checks
of one f' with several q, h or classes evaluate f' once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Hashable
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Tuple

import numpy as np

from .arrays import map_scalar, power
from .errors import (DegenerateModulus, DomainError, EvaluationError,
                     NotIntegrable)


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
    def custom(cls, fn: Callable[[float], float]) -> "HModulus":
        return cls(HKind.CUSTOM, fn=fn)

    @cached_property
    def evaluator(self) -> Callable[[float], float]:
        """h at t, its kind decided once per modulus.

        A named kind also takes an array of t, to the bits of its float
        values; a custom modulus's fn takes one float.  It does not check
        that t lies in (0, 1).  A custom modulus's value must be finite and
        nonnegative, else EvaluationError.
        """
        if self.kind is HKind.IDENTITY:
            return lambda t: t
        if self.kind is HKind.POWER:
            s = self.s_param
            return lambda t: power(t, s)
        if self.kind is HKind.CONSTANT:
            return lambda t: 1.0
        if self.kind is HKind.RECIPROCAL:
            return lambda t: 1.0 / t
        fn = self.fn

        def custom(t):
            val = float(fn(t))
            if not math.isfinite(val) or val < 0.0:
                raise EvaluationError(
                    f"custom modulus returned {val!r} at t={t!r}")
            return val
        return custom


def h_half(h: HModulus) -> float:
    """h(1/2), which bounds and chains divide by; DegenerateModulus if 0."""
    val = h.evaluator(0.5)
    if val == 0.0:
        raise DegenerateModulus("h(1/2) = 0")
    return val


def h_integral_01(h: HModulus) -> float:
    """Integral of the modulus over (0, 1); closed form for the named kinds,
    tanh-sinh quadrature for a custom one.  NotIntegrable for 1/t; a custom
    modulus that diverges fails at its first infinite sample instead, with
    EvaluationError."""
    if h.kind is HKind.IDENTITY:
        return 0.5
    if h.kind is HKind.POWER:
        return 1.0 / (h.s_param + 1.0)
    if h.kind is HKind.CONSTANT:
        return 1.0
    if h.kind is HKind.RECIPROCAL:
        raise NotIntegrable("modulus is not integrable on (0, 1)")
    from .tanhsinh import integrate  # local: the oracle depends on us
    return integrate(h.evaluator, 0.0, 1.0)


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

    # an f that overflows is reported by central, not by numpy warnings
    @np.errstate(over="ignore", invalid="ignore")
    def _check_derivative(self):
        width = self.b - self.a
        step = width * 1e-5

        def central(x, h):
            """The difference at step h, and |f(x + h)| + |f(x - h)|."""
            if x - h == x or x + h == x:
                raise DomainError(f"interval too narrow to check f' at "
                                  f"x={x!r}: a step of {h!r} does not move x")
            hi, lo = self.f(x + h), self.f(x - h)
            fd = (hi - lo) / (2.0 * h)
            if not np.isfinite(fd):  # np.isfinite also takes complex values
                raise DomainError(f"f is not finite near x={x!r}")
            return fd, abs(hi) + abs(lo)

        for i in range(_N_DERIV_POINTS):
            x = self.a + width * (i + 1) / (_N_DERIV_POINTS + 1)
            fd, size = central(x, step)
            dv = self.f_prime(x)
            gate = _DERIV_REL_TOL * (1.0 + abs(dv))
            # written so that a NaN declared f' fails the check too
            if abs(fd - dv) <= gate:
                continue
            # a Richardson step cancels the h^2 error that a steep exact f',
            # such as that of exp(250 x), shows
            half, half_size = central(x, step / 2.0)
            fd = (4.0 * half - fd) / 3.0
            miss = abs(fd - dv)
            if miss <= gate:
                continue
            # rounding f and x +- h moves a difference at step h by up to
            # 2^-52 (|f(x + h)| + |f(x - h)| + |x f'(x)|) / h, and fd by 4/3
            # of that at the half step and 1/3 of it at the step
            noise = 2.0 ** -52 * (8.0 * half_size + size
                                  + 9.0 * abs(x * dv)) / (3.0 * step)
            if miss <= noise:
                raise DomainError(
                    f"interval too narrow to check f' at x={x!r}: rounding "
                    f"can move the finite difference by up to {noise:.3g}, "
                    f"and it misses f' by only {miss:.3g}")
            raise DomainError(f"f_prime inconsistent with f at x={x!r}: "
                              f"finite difference {fd} vs declared {dv}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @cached_property
    def endpoint_derivatives(self) -> Tuple[float, float]:
        """|f'(a)| and |f'(b)|; DomainError at an end where f' divides by 0."""
        def at(end, x):
            try:
                return abs(self.f_prime(x))
            except ZeroDivisionError:
                raise DomainError(f"f' is undefined at the end {end}={x!r}")
        return at("a", self.a), at("b", self.b)


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
    proof: it guards against user error only.  A sample where f' is NaN
    raises DomainError, one where g is not a finite float OverflowError;
    each g is >= 0 and not NaN, so the largest g, which scales the slack
    tolerance, is finite exactly when all are.

    The draw and |f'| at its points depend on (f', a, b, n_samples, seed)
    only, so consecutive checks of one f' object reuse them; each check
    computes its own h on the draw, |f'|^q and slack.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    cert = tf.certificate
    draw = _derivative_draw if isinstance(tf.f_prime, Hashable) \
        else _derivative_draw.__wrapped__
    xs, ys, alphas, *abs_fp = draw(tf.f_prime, tf.a, tf.b, n_samples, seed)
    h_on = cert.h.evaluator
    if cert.h.kind is HKind.CUSTOM:  # its fn takes one float at a time
        h_on = partial(map_scalar, h_on)
    h_a, h_1a = h_on(alphas), h_on(1.0 - alphas)
    # with every g finite, an h*g that overflows to inf still gives the
    # sign its exact value would
    with np.errstate(over="ignore"):
        gx, gy, gmid = (d ** cert.exponent_q for d in abs_fp)
        scale = float(max(gx.max(), gy.max(), gmid.max()))
        if not scale < math.inf:
            raise OverflowError("|f'|^q is not finite at a sampled point")
        slack = gmid - (h_a * gx + h_1a * gy)
    if cert.class_kind is ClassKind.H_CONCAVE:
        slack = -slack
    worst = float(np.max(slack))
    tol = 1e-12 * (1.0 + scale)
    if worst <= tol:
        return MembershipReport(True, worst, None)
    i = int(np.argmax(slack))
    return MembershipReport(False, worst,
                            (float(xs[i]), float(ys[i]), float(alphas[i])))


@lru_cache(maxsize=1)
def _derivative_draw(f_prime, a, b, n_samples, seed):
    """The (x, y, alpha) samples and |f'| at x, y and alpha*x + (1-alpha)*y,
    as read-only arrays: xs, ys, alphas, |f'(xs)|, |f'(ys)|, |f'(mids)|."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(a, b, n_samples)
    ys = rng.uniform(a, b, n_samples)
    # alpha in {0, 1} is outside the quantified range of the class definition.
    alphas = np.clip(rng.uniform(0.0, 1.0, n_samples), 1e-9, 1.0 - 1e-9)
    # an f' that overflows is caught as a non-finite |f'|^q, a NaN one here
    with np.errstate(over="ignore", invalid="ignore"):
        draw = (xs, ys, alphas,
                *(np.abs(_eval_maybe_vector(f_prime, v))
                  for v in (xs, ys, alphas * xs + (1.0 - alphas) * ys)))
    if any(np.isnan(d).any() for d in draw[3:]):
        raise DomainError("f' is NaN at a sampled point")
    for arr in draw:
        arr.flags.writeable = False
    return draw


def _eval_maybe_vector(fn, v):
    """Evaluate fn on an array, falling back to a scalar loop."""
    try:
        out = np.asarray(fn(v), dtype=float)
        if out.shape == v.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(float(x))) for x in v])
