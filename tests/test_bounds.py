"""Tests for the bound evaluators.

The fixed-parameter specializations (Simpson, midpoint, trapezoid) have
published coefficient forms; those are re-derived here as independent
expressions and compared against the general evaluation paths.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import bounds, cli, moments
from quadcert import (
    ClassCertificate, ClassKind, HModulus, RuleParams, TestFunction,
    bound_power_mean, evaluate_bound, integrate_adaptive, lhs_error,
)
from quadcert.bounds import (
    BOUNDS, is_sound, rhs_classical_simpson, rhs_general_convex,
    rhs_holder_hconcave, rhs_holder_hconvex, rhs_midpoint_holder,
    rhs_midpoint_power_mean, rhs_power_mean, rhs_simpson_holder,
    rhs_trapezoid_holder,
)
from quadcert.errors import (ClassMismatch, ConfigError, DegenerateModulus,
                             DomainError, NotIntegrable, ParamMismatch)

pos_mag = st.floats(0.01, 10.0)
# the bounds that take the certified h: the choices of --bound
H_BOUNDS = [name for name, b in BOUNDS.items() if b.takes == "h"]


def _tf_square(q=1.0, h=None, a=0.0, b=1.0):
    cert = ClassCertificate(ClassKind.H_CONVEX,
                            h if h is not None else HModulus.identity(), q)
    return TestFunction(lambda x: x * x, lambda x: 2.0 * x, a, b, cert)


def printed_simpson_powermean(s, q, width, d_a, d_b):
    """Simpson-point power-mean bound in published coefficient form."""
    den = 3.0 * 6.0 ** (s + 1.0) * (s + 1.0) * (s + 2.0)
    c1 = ((2.0 * s + 1.0) * 3.0 ** (s + 1.0) + 2.0) / den
    c2 = (2.0 * 5.0 ** (s + 2.0) + (s - 4.0) * 6.0 ** (s + 1.0)
          - (2.0 * s + 7.0) * 3.0 ** (s + 1.0)) / den
    pref = width / 2.0 * (5.0 / 36.0) ** (1.0 - 1.0 / q) if q > 1.0 \
        else width / 2.0
    return pref * ((c1 * d_b ** q + c2 * d_a ** q) ** (1.0 / q)
                   + (c2 * d_b ** q + c1 * d_a ** q) ** (1.0 / q))


def printed_midpoint_powermean(s, q, width, d_a, d_b):
    """Midpoint-point power-mean bound in published coefficient form."""
    pref = width / 8.0 * (2.0 / ((s + 1.0) * (s + 2.0))) ** (1.0 / q)
    c_hi = 2.0 ** (1.0 - s) * (s + 1.0) / 2.0
    c_lo = 2.0 ** (1.0 - s) * (2.0 ** (s + 2.0) - s - 3.0) / 2.0
    return pref * ((c_hi * d_b ** q + c_lo * d_a ** q) ** (1.0 / q)
                   + (c_hi * d_a ** q + c_lo * d_b ** q) ** (1.0 / q))


def printed_trapezoid_powermean(s, q, width, d_a, d_b):
    """Trapezoid-point power-mean bound in closed coefficient form.

    Derived by hand from the weighted moments
    int_0^{1/2} (1/2 - t) t^s dt = 2^{-s} / (4 (s+1)(s+2)) and
    int_0^{1/2} (1/2 - t) (1-t)^s dt = (2s + 2^{-s}) / (4 (s+1)(s+2)).
    """
    pref = width / 8.0 * (2.0 ** (1.0 - s)
                          / ((s + 1.0) * (s + 2.0))) ** (1.0 / q)
    c = s * 2.0 ** (s + 1.0) + 1.0
    return pref * ((d_b ** q + c * d_a ** q) ** (1.0 / q)
                   + (d_a ** q + c * d_b ** q) ** (1.0 / q))


def printed_trapezoid_holder(s, p, q, width, d_mid, d_a, d_b):
    """Trapezoid-point conjugate-exponent bound, published form."""
    pref = width / 4.0 * (1.0 / (p + 1.0)) ** (1.0 / p)
    return pref * ((((d_mid ** q + d_a ** q) / (s + 1.0)) ** (1.0 / q))
                   + (((d_mid ** q + d_b ** q) / (s + 1.0)) ** (1.0 / q)))


class TestPowerMeanRoute:
    def test_matches_manual_recombination(self):
        # assemble the bound by hand from numeric moments for x^2 on [0,1]
        tf = _tf_square(q=1.0)
        rp = RuleParams(0.5, 1.0 / 3.0, 1.0)
        res = bound_power_mean(tf, rp)
        w = rp.alpha * rp.lam

        def left(t):
            return abs(t - w) * t * 2.0  # weight * h(t) * |f'(b)|, d_a = 0

        big_a = integrate_adaptive(left, 0.0, 0.5, 1e-13,
                                   break_points=(w,)).value
        k = 1.0 - rp.lam * 0.5

        def right(t):
            return abs(t - k) * t * 2.0

        big_b = integrate_adaptive(right, 0.5, 1.0, 1e-13,
                                   break_points=(k,)).value
        assert res.value == pytest.approx(big_a + big_b, abs=1e-12)

    def test_nonnegative_and_sound_on_linear(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: 2.0 * x + 1.0, lambda x: 2.0,
                          0.0, 3.0, cert)
        rp = RuleParams(0.5, 0.7, 1.0)
        res = bound_power_mean(tf, rp)
        assert res.value >= 0.0
        assert lhs_error(tf, rp) <= res.value + 1e-9

    def test_constant_modulus_printed_form(self):
        # with h = 1 the bound collapses to
        # (b-a)(gamma + upsilon)(|f'(b)|^q + |f'(a)|^q)^{1/q}
        tf = _tf_square(q=2.0, h=HModulus.constant())
        rp = RuleParams(0.5, 0.0, 2.0)
        res = bound_power_mean(tf, rp)
        gam = ups = 1.0 / 8.0
        printed = (gam + ups) * (4.0 + 0.0) ** 0.5
        assert res.value == pytest.approx(printed, rel=1e-14)
        assert res.components["A"] == pytest.approx(gam * 4.0, abs=1e-13)

    def test_q1_uses_plain_sum(self):
        # at q = 1 coefficients enter with exponent zero, defined as 1
        rp = RuleParams(1.0, 0.0, 1.0)  # gamma-side empty, coefficient 0
        res = rhs_power_mean(HModulus.identity(), rp, 1.0, 1.0, 2.0)
        assert math.isfinite(res.value) and res.value >= 0.0

    def test_certificate_guards(self):
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5,
                          0.0, 1.0, cert)
        with pytest.raises(ClassMismatch):
            bound_power_mean(tf, RuleParams(0.5, 0.5, 1.0))
        with pytest.raises(ParamMismatch):
            bound_power_mean(_tf_square(q=2.0), RuleParams(0.5, 0.5, 1.0))

    @pytest.mark.parametrize("name", H_BOUNDS)
    def test_class_guard_names_the_bound(self, name):
        kind = BOUNDS[name].class_kind
        other, = set(ClassKind) - {kind}
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0,
                          ClassCertificate(other, HModulus.identity(), 2.0))
        with pytest.raises(ClassMismatch) as exc:
            evaluate_bound(name, tf, RuleParams(0.5, 0.5, 2.0))
        assert str(exc.value) == \
            f"{name} needs an {kind.value.replace('_', '-')} certificate"

    def test_endpoint_derivatives_read_once(self):
        # every bound reads |f'(a)| and |f'(b)| from one evaluation each
        seen = []

        def fp(x):
            seen.append(x)
            return -2.0 * x
        tf = TestFunction(lambda x: -x * x, fp, 0.5, 2.0,
                          ClassCertificate(ClassKind.H_CONVEX,
                                           HModulus.identity(), 2.0),
                          skip_derivative_check=True)
        rp = RuleParams(0.5, 0.0, 2.0)
        for name in ("power-mean", "holder", "general-convex"):
            evaluate_bound(name, tf, rp)
        assert tf.endpoint_derivatives == (1.0, 4.0)
        assert (seen.count(0.5), seen.count(2.0)) == (1, 1)

    def test_reciprocal_modulus_diverges(self):
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0,
                          ClassCertificate(ClassKind.H_CONVEX,
                                           HModulus.reciprocal(), 1.0))
        with pytest.raises(NotIntegrable):
            bound_power_mean(tf, RuleParams(0.5, 1.0 / 3.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           q=st.floats(1.0, 4.0), d_a=pos_mag, d_b=pos_mag)
    def test_identity_reduces_to_general_convex(self, alpha, lam, q, d_a, d_b):
        rp = RuleParams(alpha, lam, q)
        ours = rhs_power_mean(HModulus.identity(), rp, 1.7, d_a, d_b)
        prior = rhs_general_convex(rp, 1.7, d_a, d_b)
        assert ours.value == pytest.approx(prior.value, rel=1e-12, abs=1e-13)


class TestPrintedSpecializations:
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0),
           d_a=pos_mag, d_b=pos_mag)
    def test_simpson_powermean_printed(self, s, q, d_a, d_b):
        rp = RuleParams(0.5, 1.0 / 3.0, q)
        ours = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        assert ours == pytest.approx(
            printed_simpson_powermean(s, q, 1.0, d_a, d_b), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0),
           d_a=pos_mag, d_b=pos_mag)
    def test_midpoint_powermean_printed(self, s, q, d_a, d_b):
        rp = RuleParams(0.5, 0.0, q)
        ours = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        assert ours == pytest.approx(
            printed_midpoint_powermean(s, q, 1.0, d_a, d_b), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0),
           d_a=pos_mag, d_b=pos_mag)
    def test_trapezoid_powermean_printed(self, s, q, d_a, d_b):
        rp = RuleParams(0.5, 1.0, q)
        ours = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        assert ours == pytest.approx(
            printed_trapezoid_powermean(s, q, 1.0, d_a, d_b), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.2, 4.0),
           d_m=pos_mag, d_a=pos_mag, d_b=pos_mag)
    def test_simpson_holder_equals_prior(self, s, q, d_m, d_a, d_b):
        rp = RuleParams(0.5, 1.0 / 3.0, q)
        ours = rhs_holder_hconvex(HModulus.power(s), rp, 1.0, d_m, d_a, d_b)
        prior = rhs_simpson_holder(s, rp, 1.0, d_a, d_b, d_m)
        assert ours.value == pytest.approx(prior.value, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.2, 4.0),
           d_m=pos_mag, d_a=pos_mag, d_b=pos_mag)
    def test_trapezoid_holder_printed(self, s, q, d_m, d_a, d_b):
        rp = RuleParams(0.5, 1.0, q)
        ours = rhs_holder_hconvex(HModulus.power(s), rp, 1.0, d_m, d_a, d_b)
        assert ours.value == pytest.approx(
            printed_trapezoid_holder(s, rp.p, q, 1.0, d_m, d_a, d_b),
            rel=1e-12)


class TestHolderHConvex:
    def test_boundary_alpha_one(self):
        rp = RuleParams(1.0, 0.0, 2.0)
        res = rhs_holder_hconvex(HModulus.identity(), rp, 1.0, 3.0, 1.0, 2.0)
        # the C-term carries weight (1 - alpha) = 0
        assert res.components["C"] == 0.0
        assert res.value >= 0.0

    def test_requires_conjugate(self):
        with pytest.raises(DomainError):
            evaluate_bound("holder", _tf_square(q=1.0),
                           RuleParams(0.5, 0.5, 1.0))
        # q = 2 fixes p = 2; no separate conjugate is passed
        res = evaluate_bound("holder", _tf_square(q=2.0),
                             RuleParams(0.5, 0.5, 2.0))
        assert res.value > 0.0

    def test_reciprocal_inadmissible(self):
        rp = RuleParams(0.5, 0.5, 2.0)
        with pytest.raises(NotIntegrable):
            rhs_holder_hconvex(HModulus.reciprocal(), rp, 1.0, 1.0, 1.0, 1.0)

    def test_node_evaluation(self):
        # both C and D use |f'| at the interior node (1-alpha)b + alpha*a
        tf = _tf_square(q=2.0)
        rp = RuleParams(0.25, 0.5, 2.0)
        res = evaluate_bound("holder", tf, rp)
        node = 0.75 * 1.0 + 0.25 * 0.0
        d_node = 2.0 * node
        assert res.components["C"] == pytest.approx(
            0.75 * (d_node ** 2 + 0.0), rel=1e-14)
        assert res.components["D"] == pytest.approx(
            0.25 * (d_node ** 2 + 4.0), rel=1e-14)


class TestHolderHConcave:
    def _concave_tf(self, q=2.0, h=None):
        cert = ClassCertificate(
            ClassKind.H_CONCAVE, h if h is not None else HModulus.identity(),
            q)
        # |f'|^q = (1.25)^q x^{0.25 q}; concave for 0.25 q <= 1
        return TestFunction(lambda x: x ** 1.25,
                            lambda x: 1.25 * x ** 0.25, 0.0, 1.0, cert)

    def test_power_prefactor(self):
        s, q = 0.5, 2.0
        rp = RuleParams(0.5, 0.5, q)
        res_pow = rhs_holder_hconcave(HModulus.power(s), rp, 1.0, 1.3, 0.7)
        res_id = rhs_holder_hconcave(HModulus.identity(), rp, 1.0, 1.3, 0.7)
        # (1/(2 h(1/2)))^{1/q} = 2^{(s-1)/q} for the power modulus
        assert res_pow.value / res_id.value == pytest.approx(
            2.0 ** ((s - 1.0) / q) / 1.0, rel=1e-13)

    def test_reciprocal_prefactor(self):
        q = 2.0
        rp = RuleParams(0.5, 0.5, q)
        res_rec = rhs_holder_hconcave(HModulus.reciprocal(), rp, 1.0, 1.3, 0.7)
        res_id = rhs_holder_hconcave(HModulus.identity(), rp, 1.0, 1.3, 0.7)
        assert res_rec.value / res_id.value == pytest.approx(
            4.0 ** (-1.0 / q), rel=1e-13)

    def test_midpoint_nodes(self):
        # at alpha=1/2, lambda=1 the two |f'| samples sit at (3a+b)/4 and
        # (a+b+2b)/4 of the interval
        tf = self._concave_tf()
        rp = RuleParams(0.5, 1.0, 2.0)
        res = evaluate_bound("holder-concave", tf, rp)
        m_left, m_right = 0.25, 0.75
        assert res.components["E"] == pytest.approx(
            0.5 * (1.25 * m_left ** 0.25) ** 2, rel=1e-13)
        assert res.components["F"] == pytest.approx(
            0.5 * (1.25 * m_right ** 0.25) ** 2, rel=1e-13)

    def test_soundness_spot(self):
        tf = self._concave_tf()
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        res = evaluate_bound("holder-concave", tf, rp)
        assert lhs_error(tf, rp) <= res.value + 1e-9

    def test_degenerate_modulus(self):
        h = HModulus.custom(lambda t: abs(t - 0.5))
        rp = RuleParams(0.5, 0.5, 2.0)
        with pytest.raises(DegenerateModulus):
            rhs_holder_hconcave(h, rp, 1.0, 1.0, 1.0)

    def test_class_guard(self):
        with pytest.raises(ClassMismatch):
            evaluate_bound("holder-concave", _tf_square(q=2.0),
                           RuleParams(0.5, 0.5, 2.0))


class TestPriorBounds:
    def test_trapezoid_prefactor_q2(self):
        # (q-1)/(2(2q-1)) = 1/6 at q = 2
        res = rhs_trapezoid_holder(1.0, RuleParams(0.5, 1.0, 2.0), 1.0,
                                   1.0, 1.0, 1.0)
        expected = 0.5 * (1.0 / 6.0) ** 0.5 * (1.0 / 2.0) ** 0.5 * 2.0 * 2.0 ** 0.5
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_trapezoid_needs_q_above_one(self):
        with pytest.raises(DomainError):
            rhs_trapezoid_holder(0.5, RuleParams(0.5, 1.0, 1.0), 1.0,
                                 1.0, 1.0, 1.0)

    def test_classical_simpson_quartic(self):
        tf = TestFunction(lambda x: x ** 4, lambda x: 4.0 * x ** 3, 0.0, 1.0,
                          ClassCertificate(ClassKind.H_CONVEX,
                                           HModulus.identity(), 1.0))
        rp = RuleParams(0.5, 1.0 / 3.0, 1.0)
        res = evaluate_bound("classical-simpson", tf, rp, sup_f4=24.0)
        assert res.value == pytest.approx(24.0 / 2880.0, rel=1e-15)
        # on x^4 the estimate is tight: the true mean error is exactly 1/120
        assert lhs_error(tf, rp) <= res.value + 1e-9

    def test_midpoint_powermean_s1_square(self):
        tf = _tf_square(q=2.0, h=HModulus.power(1.0))
        rp = RuleParams(0.5, 0.0, 2.0)
        res = evaluate_bound("midpoint-power-mean", tf, rp)
        pref = 1.0 / 8.0 * (1.0 / 3.0) ** 0.5
        expected = pref * ((2.0 * 4.0) ** 0.5 + (1.0 * 4.0) ** 0.5)
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_param_mismatch(self):
        tf = _tf_square(q=2.0, h=HModulus.power(1.0))
        with pytest.raises(ParamMismatch):
            evaluate_bound("midpoint-power-mean", tf,
                           RuleParams(0.5, 0.5, 2.0))
        # s comes from a t^s certificate; the identity modulus carries none
        with pytest.raises(ParamMismatch, match="class parameter s"):
            evaluate_bound("midpoint-power-mean", _tf_square(q=2.0),
                           RuleParams(0.5, 0.0, 2.0))
        with pytest.raises(ParamMismatch):
            evaluate_bound("classical-simpson", tf,
                           RuleParams(0.5, 1.0 / 3.0, 2.0))  # missing sup_f4
        with pytest.raises(ParamMismatch, match="unknown bound"):
            evaluate_bound("bogus", tf, RuleParams(0.5, 0.5, 2.0))

    @pytest.mark.parametrize("sup_f4", [-1.0, math.nan, math.inf])
    def test_classical_simpson_needs_finite_nonnegative_sup(self, sup_f4):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            rhs_classical_simpson(sup_f4, RuleParams(0.5, 1.0 / 3.0, 1.0),
                                  1.0)

    def test_midpoint_holder_matches_general_chain(self):
        # published midpoint conjugate-exponent form vs the general route
        s, q = 0.6, 2.0
        p = q / (q - 1.0)
        d_a, d_b = 1.4, 2.2
        ours = rhs_midpoint_holder(s, RuleParams(0.5, 0.0, q), 1.0,
                                   d_a, d_b).value
        pref = 0.25 * (1.0 / (p + 1.0)) ** (1.0 / p) \
            * (1.0 / (s + 1.0)) ** (2.0 / q)
        want = pref * (((2 ** (1 - s) + s + 1) * d_a ** q
                        + 2 ** (1 - s) * d_b ** q) ** (1 / q)
                       + ((2 ** (1 - s) + s + 1) * d_b ** q
                          + 2 ** (1 - s) * d_a ** q) ** (1 / q))
        assert ours == pytest.approx(want, rel=1e-14)


# what an evaluator calls |f'| at each point a record can read
D_NAME = {"a": "d_a", "b": "d_b", "node": "d_node", "left": "d_mid_left",
          "right": "d_mid_right", "centre": "d_mid"}


def _walk_tf(kind, q, fp=lambda x: 2.0 * x, h=None):
    """x^2 on [0.2, 1]; f' as given, the certificate's class and q as given,
    h = t^0.5 unless given, so every record finds what it takes."""
    return TestFunction(lambda x: x * x, fp, 0.2, 1.0, ClassCertificate(
        kind, h or HModulus.power(0.5), q), skip_derivative_check=True)


class TestBoundsTable:
    """Each record of bounds.BOUNDS against what evaluate_bound does."""

    @pytest.mark.parametrize("name", BOUNDS)
    def test_record(self, name):
        bound = BOUNDS[name]
        alpha, lam = bound.fixed or (0.3, 0.6)
        kind, (other,) = bound.class_kind, set(ClassKind) - {bound.class_kind}

        def rule(q=2.0, **kw):
            return RuleParams(kw.get("alpha", alpha), kw.get("lam", lam), q)

        # |f'| is read where the record says, in its order; the points are
        # the rule's node alpha a + (1 - alpha) b, the midpoints of
        # [a, node] and [node, b], and the centre
        seen = []

        def fp(x):
            seen.append(x)
            return 2.0 * x

        a, b = 0.2, 1.0
        node = alpha * a + (1.0 - alpha) * b
        at = {"a": a, "b": b, "node": node, "left": (a + node) / 2.0,
              "right": (node + b) / 2.0, "centre": (a + b) / 2.0}
        res = evaluate_bound(name, _walk_tf(kind, 2.0, fp), rule(),
                             sup_f4=24.0)
        assert math.isfinite(res.value)
        assert seen == pytest.approx([at[p] for p in bound.reads],
                                     rel=1e-15)
        assert len(set(seen)) == len(seen)
        # ... and handed on in that order: the evaluator's |f'| parameters
        # name the same points (general-convex's adapter names none)
        d_names = [n for n in inspect.signature(bound.rhs).parameters
                   if n.startswith("d_")]
        assert d_names in ([], [D_NAME[p] for p in bound.reads])

        # a bound that takes h checks its class; no other reads a class,
        # and the prior bounds are stated for an s-convex |f'|^q
        wrong = _walk_tf(other, 2.0)
        if bound.takes == "h":
            with pytest.raises(ClassMismatch) as exc:
                evaluate_bound(name, wrong, rule())
            assert str(exc.value) == f"{name} needs an " \
                f"{kind.value.replace('_', '-')} certificate"
        else:
            assert kind is ClassKind.H_CONVEX
            evaluate_bound(name, wrong, rule(), sup_f4=24.0)

        # a fixed-parameter bound holds only at its (alpha, lambda)
        for off in (rule(alpha=0.3), rule(lam=0.6)):
            if bound.fixed is None:
                evaluate_bound(name, _walk_tf(kind, 2.0), off, sup_f4=24.0)
                continue
            with pytest.raises(ParamMismatch) as exc:
                evaluate_bound(name, _walk_tf(kind, 2.0), off, sup_f4=24.0)
            assert str(exc.value) == \
                f"{name} is fixed at alpha={alpha}, lambda={lam}"

        # s comes from a t^s certificate, and sup_f4 from the caller
        missing = {"s": "this bound needs the class parameter s",
                   "sup_f4": "classical Simpson needs sup |f''''|"}
        bare = _walk_tf(kind, 2.0, h=HModulus.identity())
        if bound.takes in missing:
            with pytest.raises(ParamMismatch) as exc:
                evaluate_bound(name, bare, rule())
            assert str(exc.value) == missing[bound.takes]
        else:
            evaluate_bound(name, bare, rule())

        # the conjugate exponent p = q/(q - 1) has no value at q = 1
        tf = _walk_tf(kind, 1.0)
        if bound.uses_p:
            with pytest.raises(ConfigError):
                evaluate_bound(name, tf, rule(1.0), sup_f4=24.0)
        else:
            evaluate_bound(name, tf, rule(1.0), sup_f4=24.0)

    def test_cli_lists_the_table(self):
        _, commands = cli._parsers()

        def option(command, dest):
            return next(action for action in commands[command]._actions
                        if action.dest == dest)
        for command in ("verify", "sweep"):
            assert option(command, "bound").choices == H_BOUNDS
        kinds = option("compare", "kinds").help
        assert kinds.startswith(f"comma list of: {','.join(BOUNDS)}; ")
        assert H_BOUNDS == ["power-mean", "holder", "holder-concave"]
        assert len(BOUNDS) == 9


class TestNotFinite:
    """A bound that is inf or NaN certifies nothing: evaluate_bound raises
    OverflowError naming it, for every caller."""

    @staticmethod
    def _steep_tf():
        # f' = 300 e^(300 x) on [0, 1]: |f'(1)| ** 3 is about 1.9e398, a
        # numpy float that overflows to inf
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 3.0)
        return TestFunction(lambda x: np.exp(300.0 * x),
                            lambda x: 300.0 * np.exp(300.0 * x), 0.0, 1.0,
                            cert)

    @pytest.mark.parametrize("name", ["power-mean", "holder",
                                      "general-convex"])
    @pytest.mark.parametrize("rp", [
        RuleParams(0.5, 1.0 / 3.0, 3.0),
        RuleParams(np.array([[0.25], [0.5]]), np.array([0.0, 1.0]), 3.0),
    ], ids=["point", "grid"])
    def test_numpy_inf_named(self, name, rp):
        with np.errstate(over="ignore"), pytest.raises(OverflowError) as exc:
            evaluate_bound(name, self._steep_tf(), rp)
        assert str(exc.value) == f"the {name} bound is not finite"

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, np.array([[1.0, math.nan]]),
        np.array([[math.inf, 1.0]])], ids=["nan", "inf", "grid-nan",
                                           "grid-inf"])
    def test_value_not_finite_named(self, monkeypatch, value):
        monkeypatch.setitem(BOUNDS, "holder", dataclasses.replace(
            BOUNDS["holder"],
            rhs=lambda *args: bounds.BoundResult(value, None, {})))
        with pytest.raises(OverflowError) as exc:
            evaluate_bound("holder", _walk_tf(ClassKind.H_CONVEX, 2.0),
                           RuleParams(0.3, 0.6, 2.0))
        assert str(exc.value) == "the holder bound is not finite"

    def test_python_overflow_named(self, monkeypatch):
        def rhs(*args):
            return 1e200 ** 2.0  # OverflowError on a Python float
        monkeypatch.setitem(BOUNDS, "holder", dataclasses.replace(
            BOUNDS["holder"], rhs=rhs))
        with pytest.raises(OverflowError) as exc:
            evaluate_bound("holder", _walk_tf(ClassKind.H_CONVEX, 2.0),
                           RuleParams(0.3, 0.6, 2.0))
        assert str(exc.value) == "the holder bound is not finite"

    def test_f_prime_overflow_named_by_sample(self):
        # |f'(b)| itself overflows: sample names f' and the end first
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 2.0)
        tf = TestFunction(lambda x: x ** 400, lambda x: 400.0 * x ** 399,
                          0.0, 8.0, cert, skip_derivative_check=True)
        with pytest.raises(DomainError,
                           match=r"^f' is not finite at the end b=8\.0$"):
            evaluate_bound("general-convex", tf, RuleParams(0.5, 0.5, 2.0))


class TestDominance:
    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0),
           d_a=pos_mag, d_b=pos_mag)
    def test_midpoint_powermean_dominates(self, s, q, d_a, d_b):
        rp = RuleParams(0.5, 0.0, q)
        new = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        old = rhs_midpoint_power_mean(s, rp, 1.0, d_a, d_b).value
        assert new <= old * (1.0 + 1e-12) + 1e-15

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.2, 4.0),
           d_m=pos_mag, d_a=pos_mag, d_b=pos_mag)
    def test_trapezoid_holder_dominates(self, s, q, d_m, d_a, d_b):
        rp = RuleParams(0.5, 1.0, q)
        new = rhs_holder_hconvex(HModulus.power(s), rp, 1.0,
                                 d_m, d_a, d_b).value
        old = rhs_trapezoid_holder(s, rp, 1.0, d_a, d_b, d_m).value
        assert new <= old * (1.0 + 1e-12) + 1e-15


class TestConcavityConsequence:
    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(1.05, 1.45), b=st.floats(0.5, 3.0))
    def test_midpoint_dominates_quarter_nodes(self, r, b):
        # concave |f'|: the two quarter-node magnitudes sum to at most
        # twice the midpoint magnitude
        def fp(x):
            return r * x ** (r - 1.0)

        lo, mid, hi = 0.25 * b, 0.5 * b, 0.75 * b
        assert abs(fp(hi)) + abs(fp(lo)) <= 2.0 * abs(fp(mid)) + 1e-12


class TestInternalConsistency:
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           q=st.floats(1.0, 4.0), d_a=pos_mag, d_b=pos_mag)
    def test_components_recombine(self, alpha, lam, q, d_a, d_b):
        rp = RuleParams(alpha, lam, q)
        res = rhs_power_mean(HModulus.identity(), rp, 1.0, d_a, d_b)
        c = res.components
        rebuilt = (c["gamma"] ** (1.0 - 1.0 / q) if q > 1.0 else 1.0) \
            * c["A"] ** (1.0 / q) \
            + (c["upsilon"] ** (1.0 - 1.0 / q) if q > 1.0 else 1.0) \
            * c["B"] ** (1.0 / q)
        assert res.value == pytest.approx(rebuilt, rel=1e-14, abs=1e-15)


# alpha on both sides of 1/2 by one ulp and at the ends; lambda at the
# midpoint, Simpson and trapezoid values
GRID_ALPHAS = [0.0, 0.1, math.nextafter(0.5, 0.0), 0.5,
               math.nextafter(0.5, 1.0), 0.77, 1.0]
GRID_LAMS = [0.0, 0.2, 1.0 / 3.0, 0.6, 1.0]


def _same_bits(grid_value, point_values, shape):
    got = np.broadcast_to(np.asarray(grid_value, dtype=float), shape)
    want = np.array(point_values, dtype=float).reshape(shape)
    return got.tobytes() == want.tobytes()


GRID_MODULI = {
    "t": HModulus.identity(), "t^0.4": HModulus.power(0.4),
    "t^1": HModulus.power(1.0), "1": HModulus.constant(),
    "1/t": HModulus.reciprocal(),
    "custom": HModulus.custom(lambda t: math.sqrt(t) + 0.25),
}


# the (bound, modulus) pairs of the grid test; no finite h-integral for 1/t
GRID_CASES = [(bound, h) for bound in H_BOUNDS for h in GRID_MODULI
              if not (bound == "holder" and h == "1/t")] \
    + [("general-convex", "t")]


class TestGridEqualsPoints:
    """One call on an (alpha, lambda) grid gives the bits of point calls.

    At q = 1, 1.5 and 3.7 the exponents 1/q and 1 - 1/q differ; at q = 2
    both are 0.5, and those cases keep the ids they had as the only ones.
    """

    PARAMS = [pytest.param(bound, h, q, id=f"{bound}-{h}" if q == 2.0
                           else f"{bound}-{h}-q{q}")
              for q in (1.0, 1.5, 2.0, 3.7) for bound, h in GRID_CASES
              if q > 1.0 or "holder" not in bound]  # Hoelder needs q > 1

    @pytest.mark.parametrize("bound, h, q", PARAMS)
    def test_value_branch_components(self, bound, h, q):
        alphas, lams = GRID_ALPHAS, GRID_LAMS
        if h == "1/t" and bound == "power-mean":
            # the 1/t moments converge only at lambda = 0, 0 < alpha < 1
            alphas, lams = [0.1, 0.5, 0.77], [0.0]
        elif h == "custom":  # quadrature per point: keep the grid small
            alphas, lams = [0.0, 0.5, 0.77, 1.0], [0.0, 1.0 / 3.0, 1.0]
        cert = ClassCertificate(BOUNDS[bound].class_kind,
                                GRID_MODULI[h], q)
        tf = TestFunction(lambda x: x ** 3 / 3.0 + x, lambda x: x * x + 1.0,
                          0.2, 1.7, cert, skip_derivative_check=True)
        grid = evaluate_bound(
            bound, tf, RuleParams(np.array(alphas)[:, None],
                                  np.array(lams), q))
        points = [evaluate_bound(bound, tf, RuleParams(al, lm, q))
                  for al in alphas for lm in lams]
        shape = (len(alphas), len(lams))
        assert all(type(p.value) is float for p in points)
        assert _same_bits(grid.value, [p.value for p in points], shape)
        assert np.broadcast_to(grid.branch, shape).ravel().tolist() \
            == [p.branch for p in points]
        assert set(grid.components) == set(points[0].components)
        for key, value in grid.components.items():
            assert _same_bits(value, [p.components[key] for p in points],
                              shape), key


class TestIsSound:
    def test_relative_slack(self):
        # lhs may exceed rhs by 1e-9 * (1 + rhs) and no more
        assert is_sound(1.0 + 1e-9, 1.0)
        assert not is_sound(1.0 + 3e-9, 1.0)
        assert is_sound(np.array([0.0, 2.0]),
                        np.array([0.0, 1.0])).tolist() == [True, False]


# every moments helper a general bound uses, and the rule's derived fields
# (kinks, masks, memo) they read; the cross-check must need none
MOMENT_HELPERS = ("branch_select", "gamma_coeffs", "upsilon_coeffs",
                  "epsilon_coeffs", "active_gamma_upsilon", "active_epsilons",
                  "weighted_moment", "_power_forms", "_active")
DERIVED = tuple(f.name for f in dataclasses.fields(RuleParams) if not f.init)


class TestGeneralConvexIndependent:
    """rhs_general_convex stays an independent coding of the prior bound."""

    @pytest.mark.parametrize("q", [1.0, 2.5])
    def test_no_moments_helper_used(self, monkeypatch, q):
        rules = [RuleParams(0.3, 0.6, q),
                 RuleParams(np.array(GRID_ALPHAS)[:, None],
                            np.array(GRID_LAMS), q)]
        want = [rhs_general_convex(rp, 1.7, 0.8, 2.1) for rp in rules]
        assert {"w", "inside", "memo"} <= set(DERIVED)
        for rp in rules:  # a read of any derived field now fails
            for name in DERIVED:
                del vars(rp)[name]
            assert not any(hasattr(rp, name) for name in DERIVED)

        def boom(*args, **kwargs):
            raise AssertionError("moments helper called")

        for mod in (moments, bounds):
            for name in MOMENT_HELPERS:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, boom)
        with pytest.raises(AssertionError):  # the patch is in force
            bound_power_mean(_tf_square(q), rules[0])
        for rp, ref in zip(rules, want):
            got = rhs_general_convex(rp, 1.7, 0.8, 2.1)
            shape = np.shape(ref.value)
            assert _same_bits(got.value, np.ravel(ref.value), shape)
            assert np.array_equal(got.branch, ref.branch)
            for key in ("A", "B"):
                assert _same_bits(got.components[key],
                                  np.ravel(ref.components[key]), shape)
