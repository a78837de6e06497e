"""Independent numerical ground truth.

Adaptive integration on QUADPACK's Gauss-Kronrod 7/15 pair (qk15, at full
double precision, to the one tolerance TOL), the exact left-hand side of the
generalized (alpha, lambda) quadrature error, the residual of the integral
identity underlying all the bounds, and the Hadamard-type inequality chains
for each function class.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .classes import ClassKind, HKind, TestFunction, h_half, h_integral_01
from .errors import (ClassMismatch, DomainError, NonFiniteSample,
                     ToleranceNotReached)

# Absolute tolerance of every oracle integral (mean_value: times the width)
TOL = 1e-12
# Panels after which integrate_adaptive gives up with ToleranceNotReached
_MAX_SUBDIVISIONS = 1_000_000

# QUADPACK's qk15 constants on [-1, 1], rounded to 20 digits so that each
# parses to the nearest double: one row (abscissa, Kronrod weight, Gauss
# weight) per symmetric node pair, outermost first, with Gauss weight 0.0 at
# the four Kronrod-only abscissae; then the centre node's two weights.
_K15_PAIRS = (
    (0.99145537112081263921, 0.022935322010529224964, 0.0),
    (0.94910791234275852453, 0.063092092629978553291, 0.12948496616886969327),
    (0.86486442335976907279, 0.10479001032225018384, 0.0),
    (0.74153118559939443986, 0.14065325971552591875, 0.27970539148927666790),
    (0.58608723546769113029, 0.16900472663926790283, 0.0),
    (0.40584515137739716691, 0.19035057806478540991, 0.38183005050511894495),
    (0.20778495500789846760, 0.20443294007529889241, 0.0),
)
_K15_CENTRE = (0.20948214108472782801, 0.41795918367346938776)


# The same constants unpacked for the straight-line kernel below: node
# abscissa _Xi, Kronrod weight _Ki and Gauss weight _Gi of pair i, outermost
# first, and the centre's weights.
((_X1, _K1, _G1), (_X2, _K2, _G2), (_X3, _K3, _G3), (_X4, _K4, _G4),
 (_X5, _K5, _G5), (_X6, _K6, _G6), (_X7, _K7, _G7)) = _K15_PAIRS
_KC, _GC = _K15_CENTRE


def _kronrod_pair(g, lo, hi):
    """(K15 value, error estimate) on [lo, hi].

    g is called at the 15 nodes in one fixed order: the centre c first,
    then each symmetric pair from the outermost inward, c - half * x before
    c + half * x.  Each sample is converted to a Python float once, so the
    sums below run on floats even when g returns numpy scalars (the
    conversion is exact).  Each pair is tested right after its two calls:
    the sum s of two samples is finite exactly when both are, unless two
    finite samples overflow, so s - s != 0.0 sends the pair to
    _non_finite_pair, which raises NonFiniteSample for its first non-finite
    sample and returns otherwise; g is not called past a bad pair.  The
    code is written out pair by pair, with no per-pair loop to pay for; its
    sums are left-to-right chains in pair order, the float operations of a
    loop over _K15_PAIRS, so it gives a loop's bits.
    The estimate follows the QUADPACK recipe: the raw |K15 - G7| gap is
    amplified against the L1 deviation of the integrand from its mean, so
    that a kink sitting symmetrically inside the interval (where both rules
    coincidentally agree) still reports a nonzero error.
    """
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = float(g(c))
    if fc - fc != 0.0:
        raise NonFiniteSample(
            f"integrand is {fc!r} at the centre node {c!r} "
            f"of panel [{lo!r}, {hi!r}]")
    a1 = float(g(c - half * _X1))
    b1 = float(g(c + half * _X1))
    s1 = a1 + b1
    if s1 - s1 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X1, a1, b1)
    a2 = float(g(c - half * _X2))
    b2 = float(g(c + half * _X2))
    s2 = a2 + b2
    if s2 - s2 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X2, a2, b2)
    a3 = float(g(c - half * _X3))
    b3 = float(g(c + half * _X3))
    s3 = a3 + b3
    if s3 - s3 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X3, a3, b3)
    a4 = float(g(c - half * _X4))
    b4 = float(g(c + half * _X4))
    s4 = a4 + b4
    if s4 - s4 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X4, a4, b4)
    a5 = float(g(c - half * _X5))
    b5 = float(g(c + half * _X5))
    s5 = a5 + b5
    if s5 - s5 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X5, a5, b5)
    a6 = float(g(c - half * _X6))
    b6 = float(g(c + half * _X6))
    s6 = a6 + b6
    if s6 - s6 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X6, a6, b6)
    a7 = float(g(c - half * _X7))
    b7 = float(g(c + half * _X7))
    s7 = a7 + b7
    if s7 - s7 != 0.0:
        _non_finite_pair(lo, hi, c, half, _X7, a7, b7)
    kron = (_KC * fc + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
            + _K5 * s5 + _K6 * s6 + _K7 * s7)
    # the Kronrod-only pairs' 0.0 * s terms are kept, so that gauss is the
    # loop's float, NaN from an overflowed pair sum (0.0 * inf) included
    gauss = (_GC * fc + _G1 * s1 + _G2 * s2 + _G3 * s3 + _G4 * s4
             + _G5 * s5 + _G6 * s6 + _G7 * s7)
    mean = kron / 2.0
    resasc = (_KC * abs(fc - mean)
              + _K1 * (abs(a1 - mean) + abs(b1 - mean))
              + _K2 * (abs(a2 - mean) + abs(b2 - mean))
              + _K3 * (abs(a3 - mean) + abs(b3 - mean))
              + _K4 * (abs(a4 - mean) + abs(b4 - mean))
              + _K5 * (abs(a5 - mean) + abs(b5 - mean))
              + _K6 * (abs(a6 - mean) + abs(b6 - mean))
              + _K7 * (abs(a7 - mean) + abs(b7 - mean)))
    resasc *= abs(half)
    kron *= half
    gauss *= half
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return kron, err


def _non_finite_pair(lo, hi, c, half, x, f1, f2):
    """Raise NonFiniteSample for the first non-finite of the samples f1 at
    c - half * x and f2 at c + half * x on panel [lo, hi]; return if both
    are finite (their sum overflowed)."""
    if not math.isfinite(f1):
        node, val = c - half * x, f1
    elif not math.isfinite(f2):
        node, val = c + half * x, f2
    else:
        return
    raise NonFiniteSample(
        f"integrand is {val!r} at the interior node {node!r} "
        f"of panel [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


def _panel(g, lo, hi, coarse=None):
    """(refined value, error estimate, left K15, right K15) for [lo, hi].

    The value is the sum of the K15 results on the two halves.  The error
    estimate combines the halves' embedded-pair gaps with the discrepancy
    against the single coarse K15 result on [lo, hi], so a kink that
    happens to cancel inside the pair at one scale is still detected at the
    other.  A panel made by bisection inherits its coarse K15 from its
    parent, which computed it as one of its halves, and pays 30 new
    evaluations; a seed panel computes it too (45 evaluations).  The two
    half values are returned for the panel's own children.
    """
    mid = 0.5 * (lo + hi)
    if coarse is None:
        coarse, _ = _kronrod_pair(g, lo, hi)
    v1, e1 = _kronrod_pair(g, lo, mid)
    v2, e2 = _kronrod_pair(g, mid, hi)
    value = v1 + v2
    err = max(e1 + e2, abs(coarse - value) / 3.0)
    return value, err, v1, v2


def integrate_adaptive(g: Callable[[float], float], a: float, b: float,
                       tol: float,
                       break_points: tuple = ()) -> QuadratureResult:
    """Integrate g over [a, b] to absolute tolerance tol.

    Globally adaptive bisection on a Gauss-Kronrod 7/15 pair with a
    two-level error estimate per panel; deterministic for fixed inputs.
    Each seed panel costs 45 evaluations of g and each bisection 60: a
    child panel's coarse K15 is the half-panel K15 its parent already
    computed, so only the child's two halves (30 evaluations) are new.
    A node rounds onto an end only on a panel a few ulps wide: an
    integrable singularity at 0 is tolerated, but 1/sqrt(1 - t) on [0, 1]
    ends in its own ZeroDivisionError.  The tolerance carries an implicit
    relative floor of ~1e-14 of the running value, below which double
    precision cannot certify further digits.  ``subdivisions`` in the
    result counts the final panels: the seed panels plus one per bisection.
    An integral whose value or error estimate is not finite, such as one
    that overflows the float range from finite samples, raises
    NonFiniteSample naming [a, b] and the value.

    Known kinks or other isolated non-smooth points should be passed via
    break_points: a feature much narrower than the node spacing of a panel
    is invisible to any sampling rule, so panels are seeded to start and
    end at those points.  Break points outside (a, b) are ignored.
    """
    if not tol > 0.0:  # NaN included
        raise ValueError("tol must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"the ends must be finite, not [{a!r}, {b!r}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    lo_end, hi_end = (a, b) if a < b else (b, a)
    cuts = sorted({x for x in break_points if lo_end < x < hi_end})
    edges = [lo_end] + cuts + [hi_end]
    # heap entry: (-err, tick, lo, hi, value, err, left K15, right K15)
    heap = []
    total_val = total_err = 0.0
    for tick, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, err, v1, v2 = _panel(g, lo, hi)
        heap.append((-err, tick, lo, hi, val, err, v1, v2))
        total_val += val
        total_err += err
    heapq.heapify(heap)
    tick = count = len(heap)
    sign = 1.0 if a < b else -1.0
    while total_err > max(tol, 1e-14 * abs(total_val)):
        if count >= _MAX_SUBDIVISIONS:
            _, _, lo, hi, _, worst, _, _ = heap[0]
            raise ToleranceNotReached(
                f"error estimate {total_err:.3e} after {count} intervals; "
                f"largest panel estimate {worst:.3e} on [{lo!r}, {hi!r}]")
        _, _, lo, hi, v0, e0, c1, c2 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, l1, r1 = _panel(g, lo, mid, c1)
        v2, e2, l2, r2 = _panel(g, mid, hi, c2)
        total_val += v1 + v2 - v0
        total_err += e1 + e2 - e0
        heapq.heappush(heap, (-e1, tick, lo, mid, v1, e1, l1, r1))
        heapq.heappush(heap, (-e2, tick + 1, mid, hi, v2, e2, l2, r2))
        tick += 2
        count += 1
    # inf or NaN ends the loop above as a settled total would: an integral
    # past the float range is a failure, not a value
    if not (math.isfinite(total_val) and math.isfinite(total_err)):
        raise NonFiniteSample(
            f"integral over [{a!r}, {b!r}] is {sign * total_val!r} with "
            f"error estimate {total_err!r}")
    # Re-sum for a sharper value once the partition is fixed.
    value = sign * math.fsum(item[4] for item in heap)
    return QuadratureResult(value, total_err, count)


def rule_value(tf: TestFunction, alpha, lam):
    """The generalized rule lam*(alpha f(a) + (1-alpha) f(b)) + (1-lam) f(node);
    on arrays alpha, lam, f is called once per node, on floats."""
    node = alpha * tf.a + (1.0 - alpha) * tf.b
    f_a, f_b, f_node = (tf.sample(tf.f, x) for x in (tf.a, tf.b, node))
    return lam * (alpha * f_a + (1.0 - alpha) * f_b) + (1.0 - lam) * f_node


def _integral_of(tf: TestFunction, fn, integrand, a, b, tol) -> float:
    """The value of integrate_adaptive(integrand(fn), a, b, tol), where fn
    is tf.f or tf.f_prime and the integrand calls it raw at each node.

    Where fn divides by zero, overflows or is complex there, the integral
    is taken once more on integrand(partial(tf.sample, fn)), which meets
    the same nodes in the same order, and the DomainError with which
    TestFunction.sample names fn and the node is raised; if the replay
    passes, the first exception stands.
    """
    try:
        return integrate_adaptive(integrand(fn), a, b, tol).value
    except (ZeroDivisionError, OverflowError, TypeError):
        try:
            integrate_adaptive(integrand(partial(tf.sample, fn)), a, b, tol)
        except DomainError as named:
            raise named from None
        raise


def mean_value(tf: TestFunction) -> float:
    """(1/(b-a)) * integral of f over [a, b], to TOL relative to the width."""
    return _integral_of(tf, tf.f, lambda f: f, tf.a, tf.b,
                        TOL * tf.width) / tf.width


def lhs_error(tf: TestFunction, rp) -> float:
    """Absolute error of the (alpha, lambda) rule against the mean integral."""
    return abs(rule_value(tf, rp.alpha, rp.lam) - mean_value(tf))


def lemma_identity_residual(tf: TestFunction, rp) -> float:
    """|LHS - RHS| of the kernel representation of the quadrature error.

    The error of the rule equals (b-a) times two signed weighted integrals
    of f' over the unit interval; both sides are evaluated numerically.
    """
    alpha, lam = rp.alpha, rp.lam
    a, b, width = tf.a, tf.b, tf.width
    u = 1.0 - alpha
    w = alpha * lam
    shift = 1.0 - lam * u
    lhs = rule_value(tf, alpha, lam) - mean_value(tf)

    def left(fp):
        return lambda t: (t - w) * fp(t * b + (1.0 - t) * a)

    def right(fp):
        return lambda t: (t - shift) * fp(t * b + (1.0 - t) * a)

    i1 = _integral_of(tf, tf.f_prime, left, 0.0, u, TOL)
    i2 = _integral_of(tf, tf.f_prime, right, u, 1.0, TOL)
    return abs(lhs - width * (i1 + i2))


class HadamardVariant(Enum):
    CLASSICAL = "classical"            # plain convex two-sided chain
    S_CONVEX = "s_convex"              # 2^(s-1) f(mid) <= mean <= sum/(s+1)
    GODUNOVA_LEVIN = "godunova_levin"  # f(mid) <= 4 * mean, no upper bound
    P_FUNCTION = "p_function"          # f(mid) <= 2*mean <= 2*(f(a)+f(b))
    H_CONVEX = "h_convex"              # general modulus chain


# variant -> (modulus kinds it accepts, factor): each chain is the h-convex
# chain f(m)/(2h(1/2)) <= mean <= (f(a)+f(b)) * int_0^1 h times its factor
_VARIANTS = {
    HadamardVariant.CLASSICAL: ((HKind.IDENTITY,), 1.0),
    HadamardVariant.S_CONVEX: ((HKind.POWER,), 1.0),
    HadamardVariant.GODUNOVA_LEVIN: ((HKind.RECIPROCAL,), 4.0),
    HadamardVariant.P_FUNCTION: ((HKind.CONSTANT,), 2.0),
    HadamardVariant.H_CONVEX: (tuple(HKind), 1.0),
}

_HADAMARD_SLACK = 1e-10


@dataclass(frozen=True)
class HadamardResult:
    left: float
    middle: float
    right: Optional[float]
    holds: bool


def hadamard_check(tf: TestFunction, variant: HadamardVariant
                   ) -> HadamardResult:
    """Evaluate the Hadamard-type chain for f itself and test it.

    The function f (not |f'|^q) is assumed to lie in the class named by the
    certificate; the certificate's modulus kind must match the variant.
    """
    cert = tf.certificate
    if cert.class_kind is not ClassKind.H_CONVEX:
        raise ClassMismatch("Hadamard chains need an h-convex certificate")
    kinds, factor = _VARIANTS[variant]
    if cert.h.kind not in kinds:
        raise ClassMismatch(
            f"modulus kind {cert.h.kind} does not match variant {variant}")

    mid_val = tf.sample(tf.f, 0.5 * (tf.a + tf.b))
    end_sum = tf.sample(tf.f, tf.a) + tf.sample(tf.f, tf.b)
    middle = factor * mean_value(tf)

    if variant is HadamardVariant.S_CONVEX:
        # its printed constants: via h(1/2) and int h they move up to 2 ulp
        s = cert.h.s_param
        left, right = 2.0 ** (s - 1.0) * mid_val, end_sum / (s + 1.0)
    else:
        # 2h(1/2)/factor is 1.0 for the printed chains; 1/t has no integral
        left = mid_val / (2.0 * h_half(cert.h) / factor)
        right = (None if variant is HadamardVariant.GODUNOVA_LEVIN
                 else factor * end_sum * h_integral_01(cert.h))

    holds = left <= middle + _HADAMARD_SLACK and (
        right is None or middle <= right + _HADAMARD_SLACK)
    return HadamardResult(left, middle, right, holds)
