"""Tests for the numerical ground-truth layer.

Expected values are either closed-form antiderivatives worked out by hand
or structural facts (exactness of the rule family on low-degree
polynomials); the integrator itself is the oracle for everything else, so
it gets the most direct scrutiny here.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcert import oracle
from quadcert import (
    ClassCertificate, ClassKind, HadamardVariant, HModulus, RuleParams,
    TestFunction, h_integral_01, hadamard_check, integrate_adaptive,
    lemma_identity_residual, lhs_error, mean_value, rule_value,
)
from quadcert.errors import (ClassMismatch, DegenerateModulus, DomainError,
                             NonFiniteSample, NotIntegrable,
                             ToleranceNotReached)


def _convex_tf(f, fp, a, b, q=1.0):
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), q)
    return TestFunction(f, fp, a, b, cert)


def _k15_rule():
    """Nodes, Kronrod weights and Gauss weights of the oracle's rule."""
    x, wk, wg = np.array(oracle._K15_PAIRS).T
    wk_centre, wg_centre = oracle._K15_CENTRE
    return (np.concatenate([-x, x, [0.0]]),
            np.concatenate([wk, wk, [wk_centre]]),
            np.concatenate([wg, wg, [wg_centre]]))


class TestKronrodConstants:
    # On [-1, 1] the even power x^k integrates to 2/(k+1).  K15 is exact
    # through degree 22 and G7 through degree 13; constants correct to full
    # double precision miss these by ~1e-16, 15-digit ones by ~1e-15.

    @pytest.mark.parametrize("k", range(0, 23, 2))
    def test_kronrod_exact(self, k):
        # k = 0: the Kronrod weights sum to 2
        nodes, wk, _ = _k15_rule()
        assert abs(math.fsum(wk * nodes ** k) - 2.0 / (k + 1)) <= 4e-16

    @pytest.mark.parametrize("k", range(0, 13, 2))
    def test_gauss_exact(self, k):
        nodes, _, wg = _k15_rule()
        assert abs(math.fsum(wg * nodes ** k) - 2.0 / (k + 1)) <= 4e-16

    def test_gauss_matches_leggauss(self):
        nodes, _, wg = _k15_rule()
        is_gauss = wg != 0.0
        order = np.argsort(nodes[is_gauss])
        ref_x, ref_w = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(nodes[is_gauss][order] - ref_x)) <= 1e-15
        assert np.max(np.abs(wg[is_gauss][order] - ref_w)) <= 1e-15


class TestIntegrateAdaptive:
    def test_linear(self):
        res = integrate_adaptive(lambda t: t, 0.0, 1.0, 1e-12)
        assert abs(res.value - 0.5) <= 1e-12

    def test_kinked_weight(self):
        # int_0^{1/2} |t - 1/6| dt = 5/72 by piecewise antiderivative
        res = integrate_adaptive(lambda t: abs(t - 1.0 / 6.0), 0.0, 0.5, 1e-12)
        assert abs(res.value - 5.0 / 72.0) <= 1e-12

    def test_endpoint_singularity(self):
        res = integrate_adaptive(lambda t: t ** -0.5, 0.0, 1.0, 1e-10)
        assert abs(res.value - 2.0) <= 1e-9

    def test_polynomials_exact(self):
        # machine-precision agreement up to degree 10 on one panel pair
        rng = np.random.default_rng(3)
        for deg in range(11):
            coeffs = rng.uniform(-2.0, 2.0, deg + 1)
            exact = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
            res = integrate_adaptive(
                lambda t, c=coeffs: sum(ck * t ** k for k, ck in enumerate(c)),
                0.0, 1.0, 1e-12)
            assert abs(res.value - exact) <= 1e-13 * (1.0 + abs(exact))

    def test_reversed_orientation(self):
        fwd = integrate_adaptive(math.exp, 0.0, 2.0, 1e-12).value
        rev = integrate_adaptive(math.exp, 2.0, 0.0, 1e-12).value
        assert rev == pytest.approx(-fwd, abs=1e-12)

    def test_break_points(self):
        # kink far inside the node gap of the top panel: only the seeded
        # split sees it
        w = 1e-3
        res = integrate_adaptive(lambda t: abs(t - w), 0.0, 1.0, 1e-13,
                                 break_points=(w,))
        exact = w * w / 2.0 + (1.0 - w) ** 2 / 2.0
        assert abs(res.value - exact) <= 1e-13
        # points outside (a, b) are ignored
        res2 = integrate_adaptive(lambda t: t, 0.0, 1.0, 1e-12,
                                  break_points=(-1.0, 5.0))
        assert abs(res2.value - 0.5) <= 1e-12

    def test_deterministic(self):
        r1 = integrate_adaptive(lambda t: math.sin(3.0 * t), 0.0, 2.0, 1e-12)
        r2 = integrate_adaptive(lambda t: math.sin(3.0 * t), 0.0, 2.0, 1e-12)
        assert r1.value == r2.value
        assert r1.subdivisions == r2.subdivisions

    def test_degenerate_interval(self):
        res = integrate_adaptive(lambda t: t, 1.0, 1.0, 1e-12)
        assert res.value == 0.0 and res.subdivisions == 0

    def test_subdivision_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 4)
        with pytest.raises(ToleranceNotReached):
            integrate_adaptive(lambda t: t ** -0.5, 0.0, 1.0, 1e-12)

    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSample):
            integrate_adaptive(lambda t: float("nan"), 0.0, 1.0, 1e-10)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t: t, 0.0, 1.0, 0.0)

    def test_nan_tol(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_adaptive(math.sin, 0.0, 1.0, math.nan)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0),
                                      (math.nan, 0.0), (0.0, math.nan),
                                      (math.inf, math.inf)])
    def test_non_finite_end(self, a, b):
        def g(t):
            raise AssertionError(f"the integrand ran at {t!r}")
        with pytest.raises(ValueError, match="ends must be finite") as exc:
            integrate_adaptive(g, a, b, 1e-12)
        assert not isinstance(exc.value, NonFiniteSample)

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(-3.0, 3.0), b=st.floats(0.2, 4.0))
    @example(k=5e-324, b=1.5)
    def test_exponential_property(self, k, b):
        res = integrate_adaptive(lambda t: math.exp(k * t), 0.0, b, 1e-12)
        # b * expm1(x)/x with x = k*b; for tiny |x| the quotient is taken
        # from its series, since expm1(k*b)/k breaks down for subnormal k
        # (k*b rounds to another subnormal, e.g. 5e-324*1.5 -> 1e-323).
        x = k * b
        exact = b * (math.expm1(x) / x if abs(x) > 1e-8 else 1.0 + 0.5 * x)
        assert res.value == pytest.approx(exact, rel=1e-10, abs=1e-12)


class TestEvaluationCount:
    # (integrand, a, b, break points, QuadratureResult).  The results are
    # pinned to the last digit: keeping the half-panel K15 values and
    # converting samples to float must not move any bit.
    CASES = {
        "inv-sqrt": (lambda t: t ** -0.5, 0.0, 1.0, (),
                     (1.9999999999999585, 8.496585182109842e-13, 80)),
        "log": (math.log, 0.0, 1.0, (),
                (-0.9999999999999984, 6.680512117425364e-13, 40)),
        "kink-sqrt": (lambda t: abs(t - 0.07) * math.sqrt(t), 0.0, 0.2, (),
                      (0.003672846979288136, 7.107176495371645e-13, 32)),
        "kink-sqrt-break": (lambda t: abs(t - 0.07) * math.sqrt(t),
                            0.0, 0.2, (0.07,),
                            (0.0036728469792916343, 6.171791229250933e-13,
                             18)),
        "exp": (lambda t: math.exp(-6.0 * t), 0.0, 5.0, (),
                (0.16666666666665111, 5.383264216182059e-15, 3)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_evals_and_result(self, name):
        g, a, b, break_points, pinned = self.CASES[name]
        calls = [0]

        def counted(t):
            calls[0] += 1
            return g(t)

        res = integrate_adaptive(counted, a, b, oracle.TOL,
                                 break_points=break_points)
        assert repr(res) == repr(oracle.QuadratureResult(*pinned))
        # subdivisions counts the final panels: seeds plus one per
        # bisection.  A seed panel costs 45 evaluations, a bisection 60.
        seeds = len(break_points) + 1
        assert calls[0] == 45 * seeds + 60 * (res.subdivisions - seeds)

    def test_numpy_samples_give_floats(self):
        # a numpy-scalar integrand gives the bits of its float twin, and
        # the result holds plain floats
        def g(t):
            return math.exp(-6.0 * t)

        res = integrate_adaptive(lambda t: np.float64(g(t)), 0.0, 5.0,
                                 oracle.TOL)
        assert type(res.value) is float
        assert type(res.abs_error_estimate) is float
        assert res == integrate_adaptive(g, 0.0, 5.0, oracle.TOL)


class TestFailureMessages:
    def test_interior_node(self):
        # NaN only beyond 0.99: on [0, 1] the outermost right node is the
        # first sample that sees it
        node = 0.5 + 0.5 * oracle._K15_PAIRS[0][0]
        with pytest.raises(NonFiniteSample) as exc:
            integrate_adaptive(lambda t: math.nan if t > 0.99 else t,
                               0.0, 1.0, 1e-12)
        assert str(exc.value) == (f"integrand is nan at the interior node "
                                  f"{node!r} of panel [0.0, 1.0]")

    def test_centre_node(self):
        with pytest.raises(NonFiniteSample) as exc:
            integrate_adaptive(lambda t: math.inf, 2.0, 3.0, 1e-12)
        assert str(exc.value) == ("integrand is inf at the centre node 2.5 "
                                  "of panel [2.0, 3.0]")

    @pytest.mark.parametrize("g, a, b, msg", [
        # finite samples whose integral is past the float range: a total
        # of inf once met the stop test's relative floor, 1e-14 * inf
        (lambda t: 1.7e308, 0.0, 2.0,
         "integral over [0.0, 2.0] is inf with error estimate inf"),
        (lambda t: 1.7e308, 2.0, 0.0,
         "integral over [2.0, 0.0] is -inf with error estimate inf"),
        # inf - inf: a NaN total once failed the stop test's > and ended it
        (lambda t: 1.7e308 if t < 1.0 else -1.7e308, 0.0, 2.0,
         "integral over [0.0, 2.0] is nan with error estimate nan"),
    ], ids=["inf", "reversed", "nan"])
    def test_overflowed_integral(self, g, a, b, msg):
        with pytest.raises(NonFiniteSample) as exc:
            integrate_adaptive(g, a, b, 1e-12)
        assert str(exc.value) == msg

    def test_worst_panel(self, monkeypatch):
        # three bisections of [0, 1] all split the panel at the singularity
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 4)
        with pytest.raises(ToleranceNotReached) as exc:
            integrate_adaptive(lambda t: t ** -0.5, 0.0, 1.0, 1e-12)
        msg = str(exc.value)
        assert "after 4 intervals" in msg
        assert msg.endswith(" on [0.0, 0.125]")


# what a failing integral may raise: ZeroDivisionError, NonFiniteSample,
# EvaluationError, ToleranceNotReached
LOUD = (ArithmeticError, ValueError, RuntimeError)


class TestNoSilentMiss:
    """An integrable singularity at an end away from 0 must not give a wrong
    value silently.  No float node reaches the part of 1/sqrt(1 - t) inside
    the last ulp below 1, 2 sqrt(2^-53) = 2.1e-8 of its integral 2: an
    integrand that counts 0 at t = 1.0, as skipping nodes that round onto
    the end would make it, gives 1.999999978238728 with an estimate of
    9.99e-13.  So each integral either raises or is right within its
    estimate."""

    def test_integrate_adaptive(self):
        try:
            res = integrate_adaptive(lambda t: 1.0 / math.sqrt(1.0 - t),
                                     0.0, 1.0, 1e-12)
        except LOUD:
            return
        assert abs(res.value - 2.0) <= res.abs_error_estimate

    def test_h_integral_01(self):
        try:
            value = h_integral_01(HModulus.custom(lambda t: (1.0 - t) ** -0.5))
        except LOUD:
            return
        assert abs(value - 2.0) <= 1e-12


# The loop form of oracle._kronrod_pair, kept verbatim as the referee of the
# straight-line kernel: the same nodes in the same order, the same float
# operations, the same failure messages.
_K15_PAIRS, _K15_CENTRE = oracle._K15_PAIRS, oracle._K15_CENTRE


def _loop_kronrod_pair(g, lo, hi):
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


def _traced(kernel, g, lo, hi):
    """(repr of kernel's result, or the type and message of what it
    raised; repr of each argument g was called with, in order)."""
    args = []

    def recorded(t):
        args.append(repr(t))
        return g(t)
    try:
        out = repr(kernel(recorded, lo, hi))
    except Exception as exc:
        out = (type(exc), str(exc))
    return out, args


def _referee_panels(rng):
    """(g, lo, hi) for each integrand family, 300 panels each."""
    def u(a, b):
        return float(rng.uniform(a, b))

    def polynomial():
        k = [u(-3.0, 3.0) for _ in range(4)]
        lo = u(-5.0, 5.0)
        return (lambda t: ((k[3] * t + k[2]) * t + k[1]) * t + k[0],
                lo, lo + u(1e-6, 4.0))

    def numpy_scalar():
        k = u(-2.0, 2.0)
        lo = u(-3.0, 3.0)
        return lambda t: np.exp(np.float64(k * t)), lo, lo + u(1e-3, 2.0)

    def kink():
        m, lo = u(0.0, 1.0), u(-0.5, 0.5)
        hi = lo + u(0.1, 1.5)
        if rng.random() < 0.3:  # the kink on the centre node
            m = 0.5 * (lo + hi)
        return lambda t: abs(t - m) * math.exp(t), lo, hi

    def inv_sqrt():
        pick = rng.random()
        if pick < 0.2:  # a few subnormals wide: nodes round onto 0
            return (lambda t: t ** -0.5, 0.0,
                    int(rng.integers(1, 9)) * math.ulp(0.0))
        lo = 0.0 if pick < 0.6 else 10.0 ** u(-300.0, -2.0)
        return lambda t: t ** -0.5, lo, lo + 10.0 ** u(-12.0, 0.0)

    def signed_zero():
        m, lo = u(-1.0, 1.0), u(-2.0, 0.0)
        return lambda t: math.copysign(0.0, t - m), lo, lo + u(0.5, 3.0)

    def huge():
        # finite samples near 1e308 of one sign, whose pair sums overflow
        sign, k = (1.0 if rng.random() < 0.5 else -1.0), u(0.0, 0.4)
        lo = u(-1.0, 1.0)
        return (lambda t: sign * 1.7e308 * (0.6 + k * math.sin(t)),
                lo, lo + u(0.1, 2.0))

    def few_ulps():
        lo = u(-10.0, 10.0)
        hi = lo + int(rng.integers(1, 9)) * math.ulp(lo)
        return lambda t: math.exp(t) + t * t, lo, hi

    families = [polynomial, numpy_scalar, kink, inv_sqrt, signed_zero, huge,
                few_ulps]
    return [family() for family in families for _ in range(300)]


class TestKernelAgainstReferee:
    """oracle._kronrod_pair against the loop kernel it replaced: the same
    bits, the same calls of g, the same failures."""

    def test_panels(self):
        panels = _referee_panels(np.random.default_rng(2030))
        assert len(panels) >= 2000
        outcomes = set()
        for g, lo, hi in panels:
            got = _traced(oracle._kronrod_pair, g, lo, hi)
            assert got == _traced(_loop_kronrod_pair, g, lo, hi), (lo, hi)
            outcomes.add(got[0][0] if isinstance(got[0], tuple)
                         else "nan" in got[0] or "inf" in got[0])
        # finite results, overflowed ones and the zero division at 0
        assert outcomes == {False, True, ZeroDivisionError}

    @staticmethod
    def _both(script, lo, hi):
        """_traced for the referee and for the kernel, each with a fresh g
        that returns script(i, t) at its i-th call."""
        def fresh():
            calls = []

            def g(t):
                calls.append(t)
                return script(len(calls) - 1, t)
            return g
        return (_traced(_loop_kronrod_pair, fresh(), lo, hi),
                _traced(oracle._kronrod_pair, fresh(), lo, hi))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", range(15))
    @pytest.mark.parametrize("partner", [False, True],
                             ids=["alone", "partner-bad"])
    def test_non_finite_sample(self, bad, position, partner):
        # a non-finite sample at one call position (the centre is call 0,
        # pair i calls 2i - 1 and 2i); with partner, the other call of its
        # pair is non-finite too
        bad_calls = {position}
        if partner and position:
            bad_calls.add(position + 1 if position % 2 else position - 1)
        want, got = self._both(
            lambda i, t: bad if i in bad_calls else t * t, 0.25, 1.5)
        assert want[0][0] is NonFiniteSample
        assert got == want
        assert len(got[1]) == (position + 1 if position % 2 == 0
                               else position + 2)

    @pytest.mark.parametrize("position", range(15))
    def test_g_raises(self, position):
        class Raised(Exception):
            pass

        def script(i, t):
            if i == position:
                raise Raised(f"at call {position}")
            return t

        want, got = self._both(script, -1.0, 2.0)
        assert got == want
        assert got[0] == (Raised, f"at call {position}")
        assert len(got[1]) == position + 1


class TestRuleAndError:
    def test_simpson_exact_on_quadratic(self):
        tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)
        rp = RuleParams(0.5, 1.0 / 3.0, 1.0)
        assert lhs_error(tf, rp) <= 1e-12

    def test_midpoint_exact_on_linear(self):
        tf = _convex_tf(lambda x: 3.0 * x + 1.0, lambda x: 3.0, -1.0, 2.0)
        for lam in (0.0, 0.25, 1.0):
            assert lhs_error(tf, RuleParams(0.5, lam, 1.0)) <= 1e-12

    def test_quartic_simpson_error(self):
        # rule value 1/6 * (0 + 4*(1/2)^4 + 1) = 25/120, mean integral 1/5
        tf = _convex_tf(lambda x: x ** 4, lambda x: 4.0 * x ** 3, 0.0, 1.0)
        err = lhs_error(tf, RuleParams(0.5, 1.0 / 3.0, 1.0))
        assert err == pytest.approx(1.0 / 120.0, abs=1e-11)

    def test_rule_value_components(self):
        tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)
        # alpha=0.5, lam=1: trapezoid (f(0)+f(1))/2
        assert rule_value(tf, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
        # lam=0: node value
        assert rule_value(tf, 0.5, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_affine_reparameterization(self):
        a, b = 1.3, 2.9

        def f(x):
            return math.exp(x) + x * x

        def fp(x):
            return math.exp(x) + 2.0 * x

        tf_ab = _convex_tf(f, fp, a, b)
        tf_01 = _convex_tf(lambda u: f(a + (b - a) * u),
                           lambda u: (b - a) * fp(a + (b - a) * u),
                           0.0, 1.0)
        for alpha, lam in [(0.5, 1.0 / 3.0), (0.2, 0.8), (0.9, 0.1)]:
            rp = RuleParams(alpha, lam, 1.0)
            # the rule blends f at a, b, and the node; both the rule and
            # the mean integral are invariant under the pullback
            e1 = lhs_error(tf_ab, rp)
            e2 = lhs_error(tf_01, rp)
            assert e1 == pytest.approx(e2, abs=1e-10)


class TestLemmaIdentity:
    def test_cubic(self):
        tf = _convex_tf(lambda x: x ** 3, lambda x: 3.0 * x * x, 0.0, 2.0)
        assert lemma_identity_residual(tf, RuleParams(0.3, 0.7, 1.0)) <= 1e-9

    def test_exponential(self):
        tf = _convex_tf(lambda x: math.exp(x), lambda x: math.exp(x),
                        0.0, 1.0)
        assert lemma_identity_residual(
            tf, RuleParams(0.5, 1.0 / 3.0, 1.0)) <= 1e-9

    def test_constant(self):
        tf = TestFunction(lambda x: 4.0, lambda x: 0.0, 0.0, 1.0,
                          ClassCertificate(ClassKind.H_CONVEX,
                                           HModulus.constant(), 1.0))
        assert lemma_identity_residual(tf, RuleParams(0.4, 0.6, 1.0)) <= 1e-12

    def test_boundary_parameters(self):
        tf = _convex_tf(lambda x: x ** 3 + x, lambda x: 3.0 * x * x + 1.0,
                        -1.0, 1.5)
        for alpha, lam in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            assert lemma_identity_residual(
                tf, RuleParams(alpha, lam, 1.0)) <= 1e-9


class TestHadamard:
    def test_classical_square(self):
        tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)
        res = hadamard_check(tf, HadamardVariant.CLASSICAL)
        assert res.left == pytest.approx(0.25, abs=1e-12)
        assert res.middle == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.right == pytest.approx(0.5, abs=1e-12)
        assert res.holds

    def test_h_convex_identity_matches_classical(self):
        tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)
        cla = hadamard_check(tf, HadamardVariant.CLASSICAL)
        gen = hadamard_check(tf, HadamardVariant.H_CONVEX)
        assert gen.left == pytest.approx(cla.left, abs=1e-12)
        assert gen.middle == pytest.approx(cla.middle, abs=1e-12)
        # right sides coincide because the modulus integrates to 1/2
        assert gen.right == pytest.approx(cla.right, abs=1e-12)

    def test_s_convex_chain(self):
        s = 0.5
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(s), 1.0)
        tf = TestFunction(lambda x: x ** s,
                          lambda x: s * x ** (s - 1.0) if x > 0 else 0.0,
                          0.0, 1.0, cert, skip_derivative_check=True)
        res = hadamard_check(tf, HadamardVariant.S_CONVEX)
        assert res.left == pytest.approx(2.0 ** (s - 1.0) * 0.5 ** s,
                                         abs=1e-12)
        assert res.right == pytest.approx((0.0 + 1.0) / (s + 1.0), abs=1e-12)
        assert res.holds

    def test_godunova_levin_chain(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.reciprocal(), 1.0)
        tf = TestFunction(lambda x: x * x + 1.0, lambda x: 2.0 * x,
                          0.0, 1.0, cert)
        res = hadamard_check(tf, HadamardVariant.GODUNOVA_LEVIN)
        assert res.right is None
        assert res.holds

    def test_p_function_chain(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.constant(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        res = hadamard_check(tf, HadamardVariant.P_FUNCTION)
        assert res.middle == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.right == pytest.approx(2.0, abs=1e-12)
        assert res.holds

    def test_class_mismatch(self):
        tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)
        with pytest.raises(ClassMismatch):
            hadamard_check(tf, HadamardVariant.P_FUNCTION)
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), 1.0)
        ctf = TestFunction(lambda x: -x * x + 2.0, lambda x: -2.0 * x,
                           0.0, 1.0, cert)
        with pytest.raises(ClassMismatch):
            hadamard_check(ctf, HadamardVariant.CLASSICAL)


def _written_out_chain(tf, variant):
    """(left, middle, right, holds) of the five chains as printed, one
    branch each: the reference for the one-table form."""
    h = tf.certificate.h
    mid_val = tf.f(0.5 * (tf.a + tf.b))
    end_sum = tf.f(tf.a) + tf.f(tf.b)
    mean = mean_value(tf)
    if variant is HadamardVariant.CLASSICAL:
        left, middle, right = mid_val, mean, 0.5 * end_sum
    elif variant is HadamardVariant.S_CONVEX:
        s = h.s_param
        left, middle, right = (2.0 ** (s - 1.0) * mid_val, mean,
                               end_sum / (s + 1.0))
    elif variant is HadamardVariant.GODUNOVA_LEVIN:
        left, middle, right = mid_val, 4.0 * mean, None
    elif variant is HadamardVariant.P_FUNCTION:
        left, middle, right = mid_val, 2.0 * mean, 2.0 * end_sum
    else:
        left = mid_val / (2.0 * h.evaluator(0.5))
        middle, right = mean, end_sum * h_integral_01(h)
    holds = left <= middle + 1e-10 and (right is None
                                        or middle <= right + 1e-10)
    return left, middle, right, holds


class TestHadamardMatchesWrittenOutChains:
    """Each variant, as the h-convex chain times its factor, gives the bits
    of its own printed chain, also near the ends of the float range (at
    1e-310, f is subnormal)."""

    V = HadamardVariant
    MODULI = [
        (V.CLASSICAL, HModulus.identity()),
        (V.S_CONVEX, HModulus.power(0.3)),
        (V.S_CONVEX, HModulus.power(1.0)),
        (V.GODUNOVA_LEVIN, HModulus.reciprocal()),
        (V.P_FUNCTION, HModulus.constant()),
        (V.H_CONVEX, HModulus.identity()),
        (V.H_CONVEX, HModulus.power(0.6)),
        (V.H_CONVEX, HModulus.constant()),
        (V.H_CONVEX, HModulus.custom(lambda t: t * (1.0 - t) + 0.3)),
    ]
    # the last two are concave, so some of their chains fail
    FUNCTIONS = [lambda x: x * x + 1.0, np.exp, lambda x: 2.0 - x * x,
                 lambda x: -math.exp(x)]

    @pytest.mark.parametrize("variant, h", MODULI,
                             ids=[f"{v.value}-{h.kind.value}"
                                  for v, h in MODULI])
    def test_bits(self, variant, h):
        cert = ClassCertificate(ClassKind.H_CONVEX, h, 1.0)
        held = set()
        for scale in (1e-310, 1e-300, 1.0, 1e300):
            for fn in self.FUNCTIONS:
                for a, b in ((0.0, 1.0), (0.3, 2.7), (-1.5, 0.25)):
                    tf = TestFunction(lambda x, fn=fn: scale * fn(x),
                                      lambda x: 0.0, a, b, cert,
                                      skip_derivative_check=True)
                    res = hadamard_check(tf, variant)
                    got = (res.left, res.middle, res.right, res.holds)
                    # repr tells a float from np.float64, and -0.0 from 0.0
                    assert repr(got) == repr(_written_out_chain(tf, variant))
                    held.add(res.holds)
        assert held == {True, False}

    def test_h_convex_keeps_its_errors(self):
        def tf(h):
            cert = ClassCertificate(ClassKind.H_CONVEX, h, 1.0)
            return TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0,
                                cert)
        with pytest.raises(NotIntegrable):
            hadamard_check(tf(HModulus.reciprocal()), HadamardVariant.H_CONVEX)
        with pytest.raises(DegenerateModulus):
            hadamard_check(tf(HModulus.custom(lambda t: abs(t - 0.5))),
                           HadamardVariant.H_CONVEX)


def test_mean_value_scaling():
    tf = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 2.0, 5.0)
    assert mean_value(tf) == pytest.approx((125.0 - 8.0) / 3.0 / 3.0,
                                           rel=1e-12)


def _raw(tf, f=None, f_prime=None):
    """tf with f or f' replaced, unchecked."""
    return TestFunction(f or tf.f, f_prime or tf.f_prime, tf.a, tf.b,
                        tf.certificate, skip_derivative_check=True)


class TestFailureOfFNamed:
    """mean_value and the f' integrals of lemma_identity_residual call f and
    f' raw; where one fails, a replay through TestFunction.sample names it
    and its node."""

    BASE = _convex_tf(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0)

    @staticmethod
    def _recorded(fn):
        """fn, and a list that records each point it is called at."""
        nodes = []

        def recorded(x):
            nodes.append(x)
            return fn(x)
        return recorded, nodes

    @pytest.mark.parametrize("f, fault", [
        (lambda x: 1.0 / (x - 0.5), "undefined"),
        (lambda x: (x - 0.7) ** 0.5, "not real"),
        (lambda x: (20.0 * x) ** 300, "not finite"),
    ], ids=["zero-division", "complex", "float-overflow"])
    def test_mean_names_f(self, f, fault):
        f, nodes = self._recorded(f)
        with pytest.raises(DomainError) as info:
            mean_value(_raw(self.BASE, f=f))
        assert str(info.value) == f"f is {fault} at x={nodes[-1]!r}"

    def test_success_path_calls_f_once_per_node(self):
        f, nodes = self._recorded(lambda x: x * x)
        value = mean_value(_raw(self.BASE, f=f))
        g, want = self._recorded(lambda x: x * x)
        assert value == integrate_adaptive(g, 0.0, 1.0, oracle.TOL).value
        assert nodes == want

    def test_non_finite_sample_stays(self):
        # f is called on one pass only: a NaN is the oracle's own failure
        f, nodes = self._recorded(lambda x: math.nan if x > 0.9 else x)
        with pytest.raises(NonFiniteSample):
            mean_value(_raw(self.BASE, f=f))
        assert nodes[-1] > 0.9 and all(x <= 0.9 for x in nodes[:-1])

    def test_first_exception_stands_when_the_replay_passes(self):
        calls = []

        def f(x):  # fails at its first call only
            calls.append(x)
            if len(calls) == 1:
                raise OverflowError("f's own overflow")
            return x

        with pytest.raises(OverflowError, match="^f's own overflow$"):
            mean_value(_raw(self.BASE, f=f))
        assert len(calls) > 1

    @pytest.mark.parametrize("fp, line", [
        # the first node of each integral, its centre, maps to x = 2.5 on
        # the left and to x = 7.5 on the right
        (lambda x: x ** 400, "f' is not finite at x=7.5"),
        (lambda x: 1.0 / (x - 2.5), "f' is undefined at x=2.5"),
    ], ids=["float-overflow", "zero-division"])
    def test_lemma_residual_names_f_prime(self, fp, line):
        tf = _convex_tf(lambda x: x, lambda x: 1.0, 0.0, 10.0)
        with pytest.raises(DomainError, match=f"^{re.escape(line)}$"):
            lemma_identity_residual(_raw(tf, f_prime=fp),
                                    RuleParams(0.5, 0.5, 1.0))
