"""Tests for the modulus registry and class-membership certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import (
    ClassCertificate, ClassKind, HKind, HModulus, MembershipReport,
    TestFunction, certify_membership, h_eval, h_integral_01,
    integrate_adaptive,
)
from quadcert.errors import DomainError, EvaluationError, NotIntegrable


class TestHEval:
    def test_named_kinds(self):
        assert h_eval(HModulus.identity(), 0.25) == 0.25
        assert h_eval(HModulus.power(0.5), 0.25) == pytest.approx(0.5)
        assert h_eval(HModulus.constant(), 0.7) == 1.0
        assert h_eval(HModulus.reciprocal(), 0.5) == pytest.approx(2.0)

    def test_domain(self):
        for t in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                h_eval(HModulus.identity(), t)

    def test_custom(self):
        h = HModulus.custom(lambda t: t * (1.0 - t))
        assert h_eval(h, 0.5) == pytest.approx(0.25)
        bad = HModulus.custom(lambda t: -1.0)
        with pytest.raises(EvaluationError):
            h_eval(bad, 0.5)
        nonfinite = HModulus.custom(lambda t: float("inf"))
        with pytest.raises(EvaluationError):
            h_eval(nonfinite, 0.5)

    def test_callable_shorthand(self):
        assert HModulus.power(0.5)(0.25) == pytest.approx(0.5)


class TestHIntegral:
    def test_closed_forms(self):
        assert h_integral_01(HModulus.identity()) == 0.5
        assert h_integral_01(HModulus.power(0.5)) == pytest.approx(2.0 / 3.0)
        assert h_integral_01(HModulus.constant()) == 1.0

    def test_reciprocal_not_integrable(self):
        with pytest.raises(NotIntegrable):
            h_integral_01(HModulus.reciprocal())
        assert not HModulus.reciprocal().integrable_on_unit()

    def test_custom_numeric(self):
        h = HModulus.custom(lambda t: t * (1.0 - t))
        assert h_integral_01(h) == pytest.approx(1.0 / 6.0, abs=1e-12)
        declared = HModulus.custom(lambda t: 1.0 / t, integrable_on_unit=False)
        with pytest.raises(NotIntegrable):
            h_integral_01(declared)

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.05, 1.0))
    def test_power_closed_form_vs_quadrature(self, s):
        h = HModulus.power(s)
        numeric = integrate_adaptive(lambda t: h_eval(h, t),
                                     0.0, 1.0, 1e-13).value
        assert abs(h_integral_01(h) - numeric) <= 1e-12


class TestHModulusValidation:
    def test_power_s_range(self):
        for s in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                HModulus.power(s)
        HModulus.power(1.0)  # boundary allowed

    def test_s_param_only_for_power(self):
        with pytest.raises(DomainError):
            HModulus(HKind.IDENTITY, s_param=0.5)

    def test_custom_needs_fn(self):
        with pytest.raises(DomainError):
            HModulus(HKind.CUSTOM)


class TestCertificateAndFunction:
    def test_exponent_floor(self):
        with pytest.raises(DomainError):
            ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 0.5)

    def test_interval_order(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError):
            TestFunction(lambda x: x, lambda x: 1.0, 1.0, 1.0, cert)

    def test_derivative_mismatch_detected(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError):
            TestFunction(lambda x: x * x, lambda x: 3.0 * x, 0.0, 1.0, cert)

    def test_width(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, -1.0, 3.0, cert)
        assert tf.width == 4.0


class TestCertifyMembership:
    def test_convex_derivative_power(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        rep = certify_membership(tf)
        assert rep.holds and rep.witness is None

    def test_power_modulus_witness(self):
        # |f'| = 1.5 x^{0.5} is 0.5-convex in the second sense
        s = 0.5
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(s), 1.0)
        tf = TestFunction(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5,
                          0.0, 1.0, cert)
        assert certify_membership(tf).holds

    def test_false_concavity_claim_rejected(self):
        # |f'| = |2x| has a convex kink at 0, so the concavity claim fails
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, -1.0, 1.0, cert)
        rep = certify_membership(tf)
        assert not rep.holds
        assert rep.witness is not None
        assert rep.worst_violation > 0.0

    def test_concave_derivative_power_accepted(self):
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), 2.0)
        # |f'|^2 = 2.25 x^{0.5} is concave on [0, 1]
        tf = TestFunction(lambda x: x ** 1.25, lambda x: 1.25 * x ** 0.25,
                          0.0, 1.0, cert)
        assert certify_membership(tf).holds

    def test_constant_modulus_is_subadditivity(self):
        # nonnegative convex g always satisfies g(mix) <= g(x) + g(y)
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.constant(), 1.0)
        tf = TestFunction(lambda x: math.exp(x), lambda x: math.exp(x),
                          -1.0, 1.0, cert)
        assert certify_membership(tf).holds

    def test_sample_count_guard(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        with pytest.raises(DomainError):
            certify_membership(tf, n_samples=0)

    def test_deterministic_given_seed(self):
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, -1.0, 1.0, cert)
        r1 = certify_membership(tf, seed=7)
        r2 = certify_membership(tf, seed=7)
        assert r1.worst_violation == r2.worst_violation
        assert r1.witness == r2.witness is not None

    @settings(max_examples=20, deadline=None)
    @given(c2=st.floats(0.1, 4.0), c1=st.floats(-3.0, 3.0),
           q=st.floats(1.0, 3.0))
    def test_convex_quadratic_always_certified(self, c2, c1, q):
        # |f'|^q with f' linear is convex, hence h-convex with h(t)=t
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), q)
        tf = TestFunction(lambda x: c2 * x * x + c1 * x,
                          lambda x: 2.0 * c2 * x + c1, -1.0, 2.0, cert)
        assert certify_membership(tf, n_samples=2000).holds


def _loop_membership(tf, n_samples, seed):
    """certify_membership with h evaluated one sample at a time by h_eval."""
    cert = tf.certificate
    rng = np.random.default_rng(seed)
    xs = rng.uniform(tf.a, tf.b, n_samples)
    ys = rng.uniform(tf.a, tf.b, n_samples)
    alphas = np.clip(rng.uniform(0.0, 1.0, n_samples), 1e-9, 1.0 - 1e-9)

    def g(v):
        return np.abs(tf.f_prime(v)) ** cert.exponent_q

    h_a = np.array([h_eval(cert.h, float(al)) for al in alphas])
    h_1a = np.array([h_eval(cert.h, float(1.0 - al)) for al in alphas])
    gx, gy = g(xs), g(ys)
    gmid = g(alphas * xs + (1.0 - alphas) * ys)
    slack = gmid - (h_a * gx + h_1a * gy)
    if cert.class_kind is ClassKind.H_CONCAVE:
        slack = -slack
    worst = float(np.max(slack))
    scale = float(max(np.max(gx), np.max(gy), np.max(gmid)))
    if worst <= 1e-12 * (1.0 + scale):
        return MembershipReport(True, worst, None)
    i = int(np.argmax(slack))
    return MembershipReport(False, worst,
                            (float(xs[i]), float(ys[i]), float(alphas[i])))


class TestMembershipOnArrays:
    """The named moduli are sampled as arrays, to the same bits as a loop."""

    MODULI = [HModulus.identity(), HModulus.power(0.3), HModulus.power(1.0),
              HModulus.constant(), HModulus.reciprocal()]
    # (f', interval, q): |f'|^q convex and positive, and one that is not
    FUNCTIONS = [(lambda x: 1.0 + x + 0.9 * x * x, (0.0, 1.5), 1.7),
                 (lambda x: 1.0 - 3.0 * x * x, (-1.0, 1.0), 1.0)]

    @pytest.mark.parametrize("h", MODULI, ids=lambda h: h.kind.value
                             + str(h.s_param or ""))
    @pytest.mark.parametrize("kind", list(ClassKind))
    @pytest.mark.parametrize("which", [0, 1])
    def test_report_matches_loop(self, h, kind, which):
        fp, (a, b), q = self.FUNCTIONS[which]
        tf = TestFunction(lambda x: x, fp, a, b, ClassCertificate(kind, h, q),
                          skip_derivative_check=True)
        for seed in (0, 1, 2):
            got = certify_membership(tf, n_samples=500, seed=seed)
            assert got == _loop_membership(tf, 500, seed)
