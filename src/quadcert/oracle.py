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
from typing import Callable, Optional

from .arrays import map_scalar
from .classes import (ClassKind, HKind, TestFunction, h_eval, h_integral_01)
from .errors import (ClassMismatch, DegenerateModulus, NonFiniteSample,
                     ToleranceNotReached)

# Absolute tolerance of every oracle integral (mean_value: times the width)
TOL = 1e-12

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


def _kronrod_pair(g, lo, hi):
    """(K15 value, error estimate) on [lo, hi].

    Each sample is converted to a Python float once, so the sums below run
    on floats even when g returns numpy scalars (the conversion is exact).
    The estimate follows the QUADPACK recipe: the raw |K15 - G7| gap is
    amplified against the L1 deviation of the integrand from its mean, so
    that a kink sitting symmetrically inside the interval (where both rules
    coincidentally agree) still reports a nonzero error.
    """
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = float(g(c))
    if not math.isfinite(fc):
        raise NonFiniteSample(
            f"integrand is {fc!r} at the centre node {c!r} "
            f"of panel [{lo!r}, {hi!r}]")
    wk_centre, wg_centre = _K15_CENTRE
    kron = wk_centre * fc
    gauss = wg_centre * fc
    pairs = []
    for x, wk, wg in _K15_PAIRS:
        x1, x2 = c - half * x, c + half * x
        f1 = float(g(x1))
        f2 = float(g(x2))
        if not (math.isfinite(f1) and math.isfinite(f2)):
            node, val = (x2, f2) if math.isfinite(f1) else (x1, f1)
            raise NonFiniteSample(
                f"integrand is {val!r} at the interior node {node!r} "
                f"of panel [{lo!r}, {hi!r}]")
        pairs.append((f1, f2))
        kron += wk * (f1 + f2)
        gauss += wg * (f1 + f2)
    mean = kron / 2.0
    resasc = wk_centre * abs(fc - mean)
    for (_, wk, _), (f1, f2) in zip(_K15_PAIRS, pairs):
        resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
    resasc *= abs(half)
    kron *= half
    gauss *= half
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return kron, err


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
                       tol: float, max_subdivisions: int = 1_000_000,
                       break_points: tuple = ()) -> QuadratureResult:
    """Integrate g over [a, b] to absolute tolerance tol.

    Globally adaptive bisection on a Gauss-Kronrod 7/15 pair with a
    two-level error estimate per panel; deterministic for fixed inputs.
    Each seed panel costs 45 evaluations of g and each bisection 60: a
    child panel's coarse K15 is the half-panel K15 its parent already
    computed, so only the child's two halves (30 evaluations) are new.
    Endpoints are never sampled, so integrable endpoint singularities are
    tolerated.  The tolerance carries an implicit relative floor of ~1e-14
    of the running value, below which double precision cannot certify
    further digits.  ``subdivisions`` in the result counts the final
    panels: the seed panels plus one per bisection.

    Known kinks or other isolated non-smooth points should be passed via
    break_points: a feature much narrower than the node spacing of a panel
    is invisible to any sampling rule, so panels are seeded to start and
    end at those points.  Break points outside (a, b) are ignored.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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
        if count >= max_subdivisions:
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
    # Re-sum for a sharper value once the partition is fixed.
    value = sign * math.fsum(item[4] for item in heap)
    return QuadratureResult(value, total_err, count)


def rule_value(tf: TestFunction, alpha, lam):
    """The generalized rule lam*(alpha f(a) + (1-alpha) f(b)) + (1-lam) f(node);
    on arrays alpha, lam, f is called once per node, on floats."""
    node = alpha * tf.a + (1.0 - alpha) * tf.b
    return (lam * (alpha * tf.f(tf.a) + (1.0 - alpha) * tf.f(tf.b))
            + (1.0 - lam) * map_scalar(tf.f, node))


def mean_value(tf: TestFunction) -> float:
    """(1/(b-a)) * integral of f over [a, b], to TOL relative to the width."""
    res = integrate_adaptive(tf.f, tf.a, tf.b, TOL * tf.width)
    return res.value / tf.width


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

    def left(t):
        return (t - w) * tf.f_prime(t * b + (1.0 - t) * a)

    def right(t):
        return (t - shift) * tf.f_prime(t * b + (1.0 - t) * a)

    i1 = integrate_adaptive(left, 0.0, u, TOL).value if u > 0.0 else 0.0
    i2 = integrate_adaptive(right, u, 1.0, TOL).value if u < 1.0 else 0.0
    return abs(lhs - width * (i1 + i2))


class HadamardVariant(Enum):
    CLASSICAL = "classical"            # plain convex two-sided chain
    S_CONVEX = "s_convex"              # 2^(s-1) f(mid) <= mean <= sum/(s+1)
    GODUNOVA_LEVIN = "godunova_levin"  # f(mid) <= 4 * mean, no upper bound
    P_FUNCTION = "p_function"          # f(mid) <= 2*mean <= 2*(f(a)+f(b))
    H_CONVEX = "h_convex"              # general modulus chain


_VARIANT_HKIND = {
    HadamardVariant.CLASSICAL: (HKind.IDENTITY,),
    HadamardVariant.S_CONVEX: (HKind.POWER,),
    HadamardVariant.GODUNOVA_LEVIN: (HKind.RECIPROCAL,),
    HadamardVariant.P_FUNCTION: (HKind.CONSTANT,),
    HadamardVariant.H_CONVEX: tuple(HKind),
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
    if cert.h.kind not in _VARIANT_HKIND[variant]:
        raise ClassMismatch(
            f"modulus kind {cert.h.kind} does not match variant {variant}")

    mid_val = tf.f(0.5 * (tf.a + tf.b))
    end_sum = tf.f(tf.a) + tf.f(tf.b)
    mean = mean_value(tf)

    if variant is HadamardVariant.CLASSICAL:
        left, middle, right = mid_val, mean, 0.5 * end_sum
    elif variant is HadamardVariant.S_CONVEX:
        s = cert.h.s_param
        left, middle, right = 2.0 ** (s - 1.0) * mid_val, mean, end_sum / (s + 1.0)
    elif variant is HadamardVariant.GODUNOVA_LEVIN:
        left, middle, right = mid_val, 4.0 * mean, None
    elif variant is HadamardVariant.P_FUNCTION:
        left, middle, right = mid_val, 2.0 * mean, 2.0 * end_sum
    else:
        h_half = h_eval(cert.h, 0.5)
        if h_half == 0.0:
            raise DegenerateModulus("h(1/2) = 0")
        left = mid_val / (2.0 * h_half)
        middle = mean
        right = end_sum * h_integral_01(cert.h)

    holds = left <= middle + _HADAMARD_SLACK and (
        right is None or middle <= right + _HADAMARD_SLACK)
    return HadamardResult(left, middle, right, holds)
