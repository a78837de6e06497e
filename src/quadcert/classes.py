"""Modulus functions and convexity-class certificates.

A modulus ``h`` on (0,1) selects one of the nested function classes: h(t)=t
gives ordinary nonnegative convex functions, h(t)=t^s the s-convex class in
the second sense, h(t)=1 the P-functions, and h(t)=1/t the Godunova-Levin
class.  A :class:`TestFunction` bundles an evaluable (f, f') pair with the
class certificate claimed for |f'|^q; :func:`certify_membership` decides
that claim.  For an f given as a spec (a :class:`specs.FunctionSpec`,
which decides exactly whether |f'|^q is convex, or concave, on [a, b], and
a P-function) and a named modulus it reads those decisions: a convex
|f'|^q is h-convex for t, t^s, 1 and 1/t, for h = t convexity (concavity)
is the claim itself, and for h = 1 so is a P-function.  Every other claim
is spot-checked by sampling, which keeps the last draw of f' samples, so
checks of one f' with several q, h or classes evaluate f' once.

This is the one module that calls a custom modulus's fn and checks what it
returns: a value must be a float, or convert to one, in [0, inf), else
EvaluationError naming t.  Every other module samples h through
:attr:`HModulus.evaluator`, at a float or on a 1-d array, or integrates its
weighted moments on :meth:`HModulus.moment_integrand`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


# a module global is read faster than an enum member
_IDENTITY, _POWER, _CONSTANT, _RECIPROCAL, _CUSTOM = (
    HKind.IDENTITY, HKind.POWER, HKind.CONSTANT, HKind.RECIPROCAL,
    HKind.CUSTOM)


@dataclass(frozen=True)
class HModulus:
    """A nonnegative modulus function on (0, 1)."""

    kind: HKind
    s_param: Optional[float] = None
    fn: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.kind is _POWER:
            if self.s_param is None or not (0.0 < self.s_param <= 1.0):
                raise DomainError("power modulus needs s in (0, 1]")
        elif self.s_param is not None:
            raise DomainError("s_param is only meaningful for the power kind")
        if self.kind is _CUSTOM and self.fn is None:
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
        """h at t, a float or a 1-d array of floats, its kind decided once
        per modulus.

        A named kind takes an array whole, to the bits of its float values.
        A custom modulus's fn takes one float: a plain float value in [0, inf)
        is used as it is, and any other goes through :func:`_custom_value`.
        On an array fn runs once per element, on Python floats in order, and
        its values are converted and tested as one array; where that fails,
        they are walked in order through _custom_value, so the first bad one
        raises what a float t raises there (a None, which numpy makes NaN,
        stays a TypeError), but only once fn has run on the whole array.
        It does not check that t lies in (0, 1).
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
        fn, inf = self.fn, math.inf

        def custom(t):
            if isinstance(t, np.ndarray):
                ts = t.tolist()
                raw = [fn(v) for v in ts]
                try:
                    vals = np.array(raw, dtype=float)
                    if (vals.shape == t.shape and 0.0 <= vals.min()
                            and vals.max() < inf):
                        return vals
                except (TypeError, ValueError, OverflowError):
                    pass
                return np.array([_custom_value(v, x) for v, x in zip(raw, ts)])
            v = fn(t)
            if type(v) is float and 0.0 <= v < inf:
                return v
            return _custom_value(v, t)
        return custom

    def moment_integrand(self, kink: float, w_p: float,
                         w_r: float) -> Callable[[float], float]:
        """|t - kink| * (w_p h(t) + w_r h(1 - t)) for a custom modulus, the
        integrand of one side's weighted moment pair; a zero weight leaves
        its h unsampled.

        Each of its three forms calls fn at its node directly, not through
        the evaluator, and checks the value inline as the evaluator does, so
        no call of fn follows a bad value.  An argument on 0 or 1 is a
        measure-zero end of h's domain: 0 there.
        """
        fn, inf = self.fn, math.inf

        def plain(t):
            if 0.0 < t < 1.0:
                v = fn(t)
                if type(v) is not float or not 0.0 <= v < inf:
                    v = _custom_value(v, t)
                return abs(t - kink) * (w_p * v)
            return 0.0

        def reflected(t):
            arg = 1.0 - t
            if 0.0 < arg < 1.0:
                v = fn(arg)
                if type(v) is not float or not 0.0 <= v < inf:
                    v = _custom_value(v, arg)
                return abs(t - kink) * (w_r * v)
            return 0.0

        def both(t):
            arg = 1.0 - t
            # 0 < 1-t < 1 implies 0 < t < 1
            if 0.0 < arg < 1.0:
                v = fn(t)
                if type(v) is not float or not 0.0 <= v < inf:
                    v = _custom_value(v, t)
                r = fn(arg)
                if type(r) is not float or not 0.0 <= r < inf:
                    r = _custom_value(r, arg)
                return abs(t - kink) * (w_p * v + w_r * r)
            return plain(t)

        return both if w_p and w_r else plain if w_p else reflected


def _custom_value(val, t) -> float:
    """val, a custom modulus's value at t, as a float; EvaluationError
    unless it is finite and nonnegative.  Every custom value is checked so,
    once, however h is sampled."""
    val = float(val)
    if not 0.0 <= val < math.inf:  # NaN fails too
        raise EvaluationError(f"custom modulus returned {val!r} at t={t!r}")
    return val


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
    kind = h.kind
    if kind is _IDENTITY:
        return 0.5
    if kind is _POWER:
        return 1.0 / (h.s_param + 1.0)
    if kind is _CONSTANT:
        return 1.0
    if kind is _RECIPROCAL:
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
    (central finite differences at interior points, 1e-6 relative), unless
    ``skip_derivative_check`` is set.  The CLI runs the check once per
    ``verify``, ``sweep`` and ``hadamard`` job, which read f; ``compare``
    reads f' alone, through ``sample``, and sets the flag, as do the later
    TestFunctions of a job, which :meth:`recertified` derives from the
    first: they share its (f, f', a, b) and its ``reads``, the |f'|
    values the bounds have read, so a job reads f' at each point once.
    """

    __test__ = False  # not a test case, despite the class name

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    a: float
    b: float
    certificate: ClassCertificate
    skip_derivative_check: bool = field(default=False, repr=False)
    # the specs.FunctionSpec f and f' were built from, if known; its one
    # reader is certify_membership
    spec: Optional[object] = field(default=None, repr=False, compare=False)
    # |f'| at the ends ("ends") and, per interior point a bound reads, the
    # (alpha, |f'|) of its last read; see bounds._abs_f_prime
    reads: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

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
            try:
                hi, lo = self.f(x + h), self.f(x - h)
            except OverflowError:  # a Python float, where numpy gives inf
                hi = lo = math.nan
            fd = (hi - lo) / (2.0 * h)
            if not np.isfinite(fd):  # np.isfinite also takes complex values
                raise DomainError(f"f is not finite near x={x!r}")
            return fd, abs(hi) + abs(lo)

        for i in range(_N_DERIV_POINTS):
            x = self.a + width * (i + 1) / (_N_DERIV_POINTS + 1)
            fd, size = central(x, step)
            try:
                dv = self.f_prime(x)
            except OverflowError:  # a Python float, where numpy gives inf
                dv = math.inf
            if abs(dv) == math.inf:  # which no gate could refuse
                raise DomainError(f"f' is not finite at x={x!r}")
            gate = _DERIV_REL_TOL * (1.0 + abs(dv))
            # written so that a NaN declared f' fails the check too
            if abs(fd - dv) <= gate:
                continue
            # a Richardson step cancels the h^2 error that a steep exact f',
            # such as that of exp(250 x), shows; (4 half - fd)/3, written so
            # that it overflows only where half and fd do
            half, half_size = central(x, step / 2.0)
            fd = half + (half - fd) / 3.0
            miss = abs(fd - dv)
            if miss <= gate:
                continue
            # rounding f and x +- h moves a difference at step h by up to
            # 2^-52 (|f(x + h)| + |f(x - h)| + |x f'(x)|) / h, and fd by 4/3
            # of that at the half step and 1/3 of it at the step; 2^-52
            # scales f' before x does, so that only a noise past the float
            # range overflows
            eps = 2.0 ** -52
            noise = (eps * (8.0 * half_size + size)
                     + 9.0 * abs(x * (eps * dv))) / (3.0 * step)
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

    def sample(self, fn, x):
        """fn(x) for fn f or f_prime, per element on an array; the bounds
        and the oracle read point values only so.  DomainError names fn and
        the point where fn divides by zero, overflows or is complex."""
        if isinstance(x, np.ndarray):
            return map_scalar(partial(self.sample, fn), x)
        try:
            val = fn(x)
            if not isinstance(val, complex):
                return val
            fault = "not real"
        except ZeroDivisionError:
            fault = "undefined"
        except OverflowError:
            fault = "not finite"
        at = {self.a: "the end a=", self.b: "the end b="}.get(x, "x=")
        name = "f'" if fn is self.f_prime else "f"
        raise DomainError(f"{name} is {fault} at {at}{float(x)!r}")

    @property
    def endpoint_derivatives(self) -> Tuple[float, float]:
        """|f'(a)| and |f'(b)|, read once; DomainError at an end where
        sample fails."""
        ends = self.reads.get("ends")
        if ends is None:
            ends = self.reads["ends"] = tuple(
                abs(self.sample(self.f_prime, x)) for x in (self.a, self.b))
        return ends

    def recertified(self, certificate: ClassCertificate) -> "TestFunction":
        """This function under another certificate, f' not checked again;
        the two share ``reads``."""
        tf = replace(self, certificate=certificate,
                     skip_derivative_check=True)
        object.__setattr__(tf, "reads", self.reads)
        return tf


@dataclass(frozen=True)
class MembershipReport:
    """A verdict on a certificate.  ``route`` is "exact" or "sampled".

    An exact report draws no samples: its worst_violation is 0.0 and its
    witness None, and an exact rejection names a ``point`` of [a, b] where
    |f'|^q fails the second-order test or the P-test.  The one exception
    is a rejection by the zero-class rule, which reads one f' value: it
    names its point x, the witness (x, x, 0.5) and that witness's slack.
    """

    holds: bool
    worst_violation: float
    witness: Optional[Tuple[float, float, float]]
    # out of repr, which prints the three fields a report has always had
    route: str = field(default="sampled", repr=False)
    point: Optional[float] = field(default=None, repr=False)


_EXACT_HOLDS = MembershipReport(True, 0.0, None, "exact")


def certify_membership(tf: TestFunction, n_samples: int = 10_000,
                       seed: int = 0) -> MembershipReport:
    """Decide the certificate's claim for g = |f'|^q on [a, b].

    Exact routes come first, in this order; ``route`` names the one that
    decided.  A spec is tf.spec where its exact decisions hold on [a, b]
    (:meth:`FunctionSpec.decides_from`).

    - **Shape**, for a spec and a named h (:meth:`FunctionSpec.shape_failure`):
      a convex g is h-convex for h = t, t^s, 1 and 1/t, since h(t) >= t on
      (0, 1) for each; and for h = t, or t^s at s = 1, a g that is not
      convex (concave) is not h-convex (h-concave).
    - **Zero class**, for any h, h(1/2) read once: with x = y the class
      inequality reads g(x) <= 2 h(1/2) g(x), so an h-convex claim with
      h(1/2) < 1/2, or an h-concave one with h(1/2) > 1/2, holds for
      g = 0 alone.  Among the named moduli that is every h-concave claim
      under t^s (s < 1), 1 and 1/t.  A spec holds iff its f' is 0, read
      from its parameters; any other f' is read once, at the midpoint x,
      through :meth:`TestFunction.sample`, and rejected with the witness
      (x, x, 0.5) when g(x) is finite and the slack there exceeds the
      sampled check's tolerance.  Else the claim is sampled.
    - **P-test**, for a spec claimed h-convex under h = 1 or 1/t
      (:meth:`FunctionSpec.p_test`): a P-function is the claim under 1,
      and a Godunova-Levin function.  A point where g fails rejects an
      h = 1 claim; a 1/t claim it fails, and a tie, are sampled.

    Every other claim is sampled: a custom h that passes the h(1/2) test,
    a TestFunction without a spec, t^s claims on a g that is not convex,
    and 1/t claims on a g that is not a P-function.  The sampled check
    draws (x, y, alpha) triples and reports the worst signed violation of
    g(alpha*x + (1-alpha)*y) <= h(alpha)*g(x) + h(1-alpha)*g(y) (inequality
    reversed for h-concave certificates).  A sampled certificate, not a
    proof: it guards against user error only.  A sample where f' is NaN
    raises DomainError, one where g is not a finite float OverflowError;
    each g is >= 0 and not NaN, so the largest g, which scales the slack
    tolerance, is finite exactly when all are.

    The draw and |f'| at its points depend on (f', a, b, n_samples, seed)
    only, so consecutive checks of one f' object reuse them; each check
    computes its own h on the draw, |f'|^q and slack.  h takes the alpha
    and then the 1 - alpha samples as two arrays, through
    :attr:`HModulus.evaluator`.  An n_samples or seed that is not an
    integer, a bool included, raises DomainError, as one below 1 or 0 does.
    """
    for name, value, least in (("n_samples", n_samples, 1),
                               ("seed", seed, 0)):
        if (isinstance(value, bool)
                or not isinstance(value, (int, np.integer)) or value < least):
            raise DomainError(f"{name} must be an integer >= {least}")
    cert = tf.certificate
    kind, q = cert.h.kind, cert.exponent_q
    concave = cert.class_kind is ClassKind.H_CONCAVE
    spec = tf.spec if tf.spec and tf.spec.decides_from(tf.a) else None
    is_t = kind is HKind.IDENTITY or cert.h.s_param == 1.0  # t, or t^1
    if spec is not None and kind is not HKind.CUSTOM and (is_t or not concave):
        point = spec.shape_failure(q, tf.a, tf.b, concave)
        if point is None:
            return _EXACT_HOLDS
        if is_t:
            return MembershipReport(False, 0.0, None, "exact", point)
    half = cert.h.evaluator(0.5)
    if (half > 0.5) if concave else (half < 0.5):
        if spec is not None and spec.zero_derivative:
            return _EXACT_HOLDS
        x = tf.a + 0.5 * (tf.b - tf.a)
        try:
            g = abs(float(tf.sample(tf.f_prime, x))) ** q
        except OverflowError:
            g = math.inf
        # the sampled check's slack and tolerance at the triple (x, x, 1/2)
        slack = g - (half * g + half * g)
        if concave:
            slack = -slack
        if g < math.inf and slack > 1e-12 * (1.0 + g):
            return MembershipReport(False, slack, (x, x, 0.5), "exact", x)
    elif spec is not None and not concave and kind in (HKind.CONSTANT,
                                                       HKind.RECIPROCAL):
        verdict = spec.p_test(q, tf.a, tf.b)
        if verdict is True:
            return _EXACT_HOLDS
        if verdict is not None and kind is HKind.CONSTANT:
            return MembershipReport(False, 0.0, None, "exact", verdict)
    return _sampled_membership(tf, n_samples, seed)


def _sampled_membership(tf: TestFunction, n_samples: int,
                        seed: int) -> MembershipReport:
    """The sampled check of :func:`certify_membership`, whatever the claim."""
    cert = tf.certificate
    draw = _derivative_draw if isinstance(tf.f_prime, Hashable) \
        else _derivative_draw.__wrapped__
    xs, ys, alphas, *abs_fp = draw(tf.f_prime, tf.a, tf.b, n_samples, seed)
    h_a, h_1a = cert.h.evaluator(alphas), cert.h.evaluator(1.0 - alphas)
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
    return map_scalar(lambda t: float(fn(t)), v)
