"""Tests for the bound evaluators.

The fixed-parameter specializations (Simpson, midpoint, trapezoid) have
published coefficient forms; those are re-derived here as independent
expressions and compared against the general evaluation paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import (
    ClassCertificate, ClassKind, HModulus, RuleParams, TestFunction,
    bound_holder_hconcave, bound_holder_hconvex, bound_power_mean,
    evaluate_bound, integrate_adaptive, lhs_error,
)
from quadcert.bounds import (
    GENERAL_BOUNDS, rhs_general_convex, rhs_holder_hconcave, rhs_holder_hconvex,
    rhs_midpoint_holder, rhs_midpoint_power_mean, rhs_power_mean,
    rhs_simpson_holder, rhs_trapezoid_holder,
)
from quadcert.errors import (ClassMismatch, DegenerateModulus, DomainError,
                             NotIntegrable, ParamMismatch)

pos_mag = st.floats(0.01, 10.0)


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
        prior = rhs_simpson_holder(s, rp.p, q, 1.0, d_m, d_a, d_b)
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
            bound_holder_hconvex(_tf_square(q=1.0), RuleParams(0.5, 0.5, 1.0))
        # q = 2 fixes p = 2; no separate conjugate is passed
        res = bound_holder_hconvex(_tf_square(q=2.0),
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
        res = bound_holder_hconvex(tf, rp)
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
        res = bound_holder_hconcave(tf, rp)
        m_left, m_right = 0.25, 0.75
        assert res.components["E"] == pytest.approx(
            0.5 * (1.25 * m_left ** 0.25) ** 2, rel=1e-13)
        assert res.components["F"] == pytest.approx(
            0.5 * (1.25 * m_right ** 0.25) ** 2, rel=1e-13)

    def test_soundness_spot(self):
        tf = self._concave_tf()
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        res = bound_holder_hconcave(tf, rp)
        assert lhs_error(tf, rp) <= res.value + 1e-9

    def test_degenerate_modulus(self):
        h = HModulus.custom(lambda t: abs(t - 0.5))
        rp = RuleParams(0.5, 0.5, 2.0)
        with pytest.raises(DegenerateModulus):
            rhs_holder_hconcave(h, rp, 1.0, 1.0, 1.0)

    def test_class_guard(self):
        with pytest.raises(ClassMismatch):
            bound_holder_hconcave(_tf_square(q=2.0),
                                  RuleParams(0.5, 0.5, 2.0))


class TestPriorBounds:
    def test_trapezoid_prefactor_q2(self):
        # (q-1)/(2(2q-1)) = 1/6 at q = 2
        res = rhs_trapezoid_holder(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        expected = 0.5 * (1.0 / 6.0) ** 0.5 * (1.0 / 2.0) ** 0.5 * 2.0 * 2.0 ** 0.5
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_trapezoid_needs_q_above_one(self):
        with pytest.raises(DomainError):
            rhs_trapezoid_holder(0.5, 1.0, 1.0, 1.0, 1.0, 1.0)

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
        tf = _tf_square(q=2.0)
        rp = RuleParams(0.5, 0.0, 2.0)
        res = evaluate_bound("midpoint-power-mean", tf, rp, s=1.0)
        pref = 1.0 / 8.0 * (1.0 / 3.0) ** 0.5
        expected = pref * ((2.0 * 4.0) ** 0.5 + (1.0 * 4.0) ** 0.5)
        assert res.value == pytest.approx(expected, rel=1e-13)

    def test_param_mismatch(self):
        tf = _tf_square(q=2.0)
        with pytest.raises(ParamMismatch):
            evaluate_bound("midpoint-power-mean", tf,
                           RuleParams(0.5, 0.5, 2.0), s=1.0)
        with pytest.raises(ParamMismatch):
            evaluate_bound("midpoint-power-mean", tf,
                           RuleParams(0.5, 0.0, 2.0))  # missing s
        with pytest.raises(ParamMismatch):
            evaluate_bound("classical-simpson", tf,
                           RuleParams(0.5, 1.0 / 3.0, 2.0))  # missing sup_f4
        with pytest.raises(ParamMismatch, match="unknown bound"):
            evaluate_bound("bogus", tf, RuleParams(0.5, 0.5, 2.0))

    def test_midpoint_holder_matches_general_chain(self):
        # published midpoint conjugate-exponent form vs the general route
        s, q = 0.6, 2.0
        p = q / (q - 1.0)
        d_a, d_b = 1.4, 2.2
        ours = rhs_midpoint_holder(s, p, q, 1.0, d_a, d_b).value
        pref = 0.25 * (1.0 / (p + 1.0)) ** (1.0 / p) \
            * (1.0 / (s + 1.0)) ** (2.0 / q)
        want = pref * (((2 ** (1 - s) + s + 1) * d_a ** q
                        + 2 ** (1 - s) * d_b ** q) ** (1 / q)
                       + ((2 ** (1 - s) + s + 1) * d_b ** q
                          + 2 ** (1 - s) * d_a ** q) ** (1 / q))
        assert ours == pytest.approx(want, rel=1e-14)


class TestDominance:
    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.0, 4.0),
           d_a=pos_mag, d_b=pos_mag)
    def test_midpoint_powermean_dominates(self, s, q, d_a, d_b):
        rp = RuleParams(0.5, 0.0, q)
        new = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        old = rhs_midpoint_power_mean(s, q, 1.0, d_a, d_b).value
        assert new <= old * (1.0 + 1e-12) + 1e-15

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(0.1, 1.0), q=st.floats(1.2, 4.0),
           d_m=pos_mag, d_a=pos_mag, d_b=pos_mag)
    def test_trapezoid_holder_dominates(self, s, q, d_m, d_a, d_b):
        rp = RuleParams(0.5, 1.0, q)
        new = rhs_holder_hconvex(HModulus.power(s), rp, 1.0,
                                 d_m, d_a, d_b).value
        old = rhs_trapezoid_holder(s, q, 1.0, d_m, d_a, d_b).value
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


class TestGridEqualsPoints:
    """One call on an (alpha, lambda) grid gives the bits of point calls."""

    CASES = [(bound, h) for bound in GENERAL_BOUNDS for h in GRID_MODULI
             # no finite h-integral for 1/t
             if not (bound == "holder" and h == "1/t")] \
        + [("general-convex", "t")]

    @pytest.mark.parametrize("bound, h", CASES)
    def test_value_branch_components(self, bound, h):
        alphas, lams = GRID_ALPHAS, GRID_LAMS
        if h == "1/t" and bound == "power-mean":
            # the 1/t moments converge only at lambda = 0, 0 < alpha < 1
            alphas, lams = [0.1, 0.5, 0.77], [0.0]
        elif h == "custom":  # quadrature per point: keep the grid small
            alphas, lams = [0.0, 0.5, 0.77, 1.0], [0.0, 1.0 / 3.0, 1.0]
        kind = ClassKind.H_CONCAVE if bound == "holder-concave" \
            else ClassKind.H_CONVEX
        cert = ClassCertificate(kind, GRID_MODULI[h], 2.0)
        tf = TestFunction(lambda x: x ** 3 / 3.0 + x, lambda x: x * x + 1.0,
                          0.2, 1.7, cert, skip_derivative_check=True)
        grid = evaluate_bound(
            bound, tf, RuleParams(np.array(alphas)[:, None],
                                  np.array(lams), 2.0))
        points = [evaluate_bound(bound, tf, RuleParams(al, lm, 2.0))
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
