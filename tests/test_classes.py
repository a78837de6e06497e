"""Tests for the modulus registry and class-membership certificates."""

import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import (
    ClassCertificate, ClassKind, HKind, HModulus, MembershipReport,
    RuleParams, Side, TestFunction, bound_power_mean, certify_membership,
    h_half, h_integral_01, integrate_adaptive, lhs_error, tanhsinh,
    weighted_moment,
)
from quadcert.arrays import map_scalar, power
from quadcert.classes import (_custom_value, _derivative_draw,
                              _eval_maybe_vector, _sampled_membership)
from quadcert.specs import FunctionSpec
from quadcert import sturm
from quadcert.sturm import negative_point
from quadcert.errors import (DegenerateModulus, DomainError, EvaluationError,
                             NotIntegrable)


class TestHHalf:
    def test_named_kinds(self):
        assert h_half(HModulus.identity()) == 0.5
        assert h_half(HModulus.power(0.3)) == pytest.approx(2.0 ** -0.3)
        assert h_half(HModulus.constant()) == 1.0
        assert h_half(HModulus.reciprocal()) == 2.0

    def test_custom(self):
        h = HModulus.custom(lambda t: t * (1.0 - t))
        assert h_half(h) == pytest.approx(0.25)
        with pytest.raises(DegenerateModulus, match=r"h\(1/2\) = 0"):
            h_half(HModulus.custom(lambda t: 0.0))

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf],
                             ids=["nan", "negative", "inf"])
    def test_bad_custom_value(self, bad):
        with pytest.raises(EvaluationError, match="custom modulus"):
            h_half(HModulus.custom(lambda t: bad))


N_CHECKED = 200


def _float_error(val):
    """The message of the TypeError float(val) raises."""
    with pytest.raises(TypeError) as info:
        float(val)
    return str(info.value)


def _recording(values):
    """A modulus fn that records its arguments and returns values.get(i, t)
    at its i-th call, and the list it records into."""
    calls = []

    def fn(t):
        calls.append(t)
        return values.get(len(calls) - 1, t)
    return fn, calls


def _evaluator_passes(tf):
    """h's evaluator on the alpha and then the 1 - alpha array of the draw
    that certify_membership(tf, N_CHECKED) makes."""
    alphas = _derivative_draw(tf.f_prime, tf.a, tf.b, N_CHECKED, 0)[2]
    return [tf.certificate.h.evaluator(t) for t in (alphas, 1.0 - alphas)]


class TestBadCustomValues:
    """Every caller of a custom modulus refuses a NaN, negative or infinite
    value, wherever in (0, 1) it appears.

    certify_membership reads h(1/2) once and checks it, then runs a custom
    fn on all alpha samples, checks them, then on all 1 - alpha samples,
    and checks those; the bound's pair integrand checks each value before
    its next call.  A bad value raises
    what HModulus.evaluator raises for it, EvaluationError with its message
    for NaN, negative or infinite and float's TypeError for None, naming
    the first bad sample in draw or node order."""

    @pytest.fixture(params=[math.nan, -1.0, math.inf],
                    ids=["nan", "negative", "inf"])
    def h(self, request):
        bad = request.param
        return HModulus.custom(lambda t: t if 0.1 < t < 0.9 else bad)

    def test_weighted_moment(self, h):
        for reflected in (False, True):
            with pytest.raises(EvaluationError, match="custom modulus"):
                weighted_moment(h, RuleParams(0.5, 1.0 / 3.0, 1.0),
                                Side.RIGHT, reflected)

    def test_h_integral(self, h):
        with pytest.raises(EvaluationError, match="custom modulus"):
            h_integral_01(h)

    def test_certify_membership(self, h):
        cert = ClassCertificate(ClassKind.H_CONVEX, h, 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        with pytest.raises(EvaluationError, match="custom modulus"):
            certify_membership(tf, n_samples=200)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf],
                             ids=["nan", "negative", "inf"])
    def test_pair_integrand_reflected_value(self, bad):
        """The integrand that weighs h(t) and h(1 - t) checks h(1 - t) as
        well, once h(t) has passed, and names 1 - t."""
        h = HModulus.custom(lambda t: t if t < 0.9 else bad)
        g = h.moment_integrand(0.3, 1.0, 2.0)
        assert g(0.5) == 0.2 * (0.5 + 2.0 * 0.5)
        with pytest.raises(EvaluationError, match=r"at t=0\.95$"):
            g(0.05)

    @staticmethod
    def _tf(fn):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.custom(fn), 1.0)
        return TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0,
                            cert)

    @staticmethod
    def _draw(tf):
        """The alpha and 1 - alpha samples, as fn is called on them."""
        alphas = _derivative_draw(tf.f_prime, tf.a, tf.b, N_CHECKED, 0)[2]
        return alphas.tolist() + (1.0 - alphas).tolist()

    def test_success_calls_every_sample_once_in_order(self):
        fn, calls = _recording({})
        tf = self._tf(fn)
        assert certify_membership(tf, N_CHECKED).holds
        assert calls == [0.5] + self._draw(tf)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, None],
                             ids=["nan", "negative", "inf", "none"])
    def test_bad_half_named_first(self, bad):
        fn, calls = _recording({0: bad})
        with pytest.raises(TypeError if bad is None else EvaluationError,
                           match=None if bad is None else
                           re.escape(f"returned {bad!r} at t=0.5")):
            certify_membership(self._tf(fn), N_CHECKED)
        assert calls == [0.5]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, None],
                             ids=["nan", "negative", "inf", "none"])
    @pytest.mark.parametrize("first", [7, N_CHECKED + 7],
                             ids=["alpha", "one-minus-alpha"])
    def test_first_bad_sample_named(self, bad, first):
        # certify_membership, whose first call is h(1/2), and the evaluator
        # on the arrays it passes
        for check, before in ((lambda tf: certify_membership(tf, N_CHECKED),
                               [0.5]), (_evaluator_passes, [])):
            # a second bad value later in the same pass is not the one named
            at = len(before) + first
            fn, calls = _recording({at: bad, at + 3: -2.0})
            tf = self._tf(fn)
            ts = self._draw(tf)
            if bad is None:
                with pytest.raises(TypeError) as info:
                    check(tf)
                assert str(info.value) == _float_error(None)
            else:
                with pytest.raises(EvaluationError) as info:
                    check(tf)
                assert str(info.value) == (f"custom modulus returned "
                                           f"{bad!r} at t={ts[first]!r}")
            # what the evaluator raises for that value at that float
            with pytest.raises(type(info.value),
                               match="^" + re.escape(str(info.value)) + "$"):
                HModulus.custom(lambda t: bad).evaluator(ts[first])
            # fn ran on the whole pass holding the bad value, and never after
            end = N_CHECKED if first < N_CHECKED else 2 * N_CHECKED
            assert calls == before + ts[:end]

    def test_fn_runs_on_the_whole_pass_before_the_check(self):
        # The one difference from a loop of evaluator calls, which would
        # stop at the bad value at call 7: fn runs on every alpha sample
        # before any value is checked, so its own error at a later sample
        # surfaces instead.
        def fn(t):
            calls.append(t)
            if len(calls) == 8:
                return math.nan
            if len(calls) == 12:
                raise ZeroDivisionError("fn's own error")
            return t

        calls = []
        with pytest.raises(ZeroDivisionError, match="fn's own error"):
            certify_membership(self._tf(fn), N_CHECKED)
        assert len(calls) == 12

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, None],
                             ids=["nan", "negative", "inf", "none"])
    def test_pair_stops_at_the_first_bad_node(self, bad):
        # D_a = 2 and D_b = 4 are both > 0, so each side samples h(t) and
        # h(1 - t) in one integrand
        calls = []

        def fn(t):
            calls.append(t)
            return t if 0.01 < t < 0.99 else bad

        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.custom(fn), 2.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 1.0, 2.0, cert)
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        error = TypeError if bad is None else EvaluationError
        with pytest.raises(error) as info:
            bound_power_mean(tf, rp)
        # the bad call is the last one, and every earlier one was good
        assert not 0.01 < calls[-1] < 0.99
        assert len(calls) > 1 and all(0.01 < t < 0.99 for t in calls[:-1])
        assert str(info.value) == (
            _float_error(None) if bad is None else
            f"custom modulus returned {bad!r} at t={calls[-1]!r}")


class TestHIntegral:
    def test_closed_forms(self):
        assert h_integral_01(HModulus.identity()) == 0.5
        assert h_integral_01(HModulus.power(0.5)) == pytest.approx(2.0 / 3.0)
        assert h_integral_01(HModulus.constant()) == 1.0

    def test_reciprocal_not_integrable(self):
        with pytest.raises(NotIntegrable):
            h_integral_01(HModulus.reciprocal())

    def test_custom_numeric(self):
        h = HModulus.custom(lambda t: t * (1.0 - t))
        assert h_integral_01(h) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_divergent_custom(self):
        # a custom modulus counts as integrable: 1/t as a custom modulus
        # fails at its first infinite sample, not with NotIntegrable
        with pytest.raises(EvaluationError, match="returned inf"):
            h_integral_01(HModulus.custom(lambda t: 1.0 / t))

    def test_custom_constructions_agree(self):
        # the field and the classmethod default alike: integrable on (0, 1)
        via_field = HModulus(HKind.CUSTOM, fn=math.sqrt)
        via_method = HModulus.custom(math.sqrt)
        assert via_field == via_method
        assert h_integral_01(via_field) == h_integral_01(via_method) \
            == pytest.approx(2.0 / 3.0, abs=1e-12)

    @staticmethod
    def _checked(fn):
        """A custom modulus's value as a closure that calls _custom_value
        on every sample, fn and the check as two calls: the reference the
        evaluator's inline test must match."""
        return lambda t: _custom_value(fn(t), t)

    @staticmethod
    def _outcome(thunk):
        """(type, repr) of what thunk returns, or (type, message) of what
        it raises."""
        try:
            val = thunk()
        except Exception as exc:
            return type(exc), str(exc)
        return type(val), repr(val)

    @pytest.mark.parametrize("fn", [math.sqrt, lambda t: t * (2.0 - t),
                                    lambda t: math.sin(0.5 * math.pi * t)],
                             ids=["sqrt", "t(2-t)", "sin"])
    def test_custom_calls_fn_once_per_node(self, fn):
        got_fn, got = _recording({})
        want_fn, want = _recording({})
        value = h_integral_01(HModulus.custom(lambda t: fn(got_fn(t))))
        reference = tanhsinh.integrate(
            self._checked(lambda t: fn(want_fn(t))), 0.0, 1.0)
        assert got == want
        assert repr(value) == repr(reference)

    @pytest.mark.parametrize("val", [math.nan, -1.0, math.inf, None, 3,
                                     np.float64(0.25)],
                             ids=["nan", "negative", "inf", "none", "int",
                                  "numpy"])
    def test_values_as_the_check_takes_them(self, val):
        # a float outside [0, inf) or any other type takes _custom_value's
        # path: its EvaluationError, float's TypeError, or a float
        def fn(t):
            return val

        h = HModulus.custom(fn)
        assert self._outcome(lambda: h.evaluator(0.3)) == \
            self._outcome(lambda: _custom_value(val, 0.3))
        assert self._outcome(lambda: h_integral_01(h)) == self._outcome(
            lambda: tanhsinh.integrate(self._checked(fn), 0.0, 1.0))
        if type(val) is not float and val is not None:  # int, numpy
            assert type(h.evaluator(0.3)) is float

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.05, 1.0))
    def test_power_closed_form_vs_quadrature(self, s):
        h = HModulus.power(s)
        numeric = integrate_adaptive(h.evaluator, 0.0, 1.0, 1e-13).value
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

    def test_derivative_mismatch_message_plain_numbers(self):
        # numpy scalars print as plain numbers, not as np.float64(...)
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError, match="f_prime inconsistent") as exc:
            TestFunction(np.exp, lambda x: 2.0 * np.exp(x), 0.0, 1.0, cert)
        assert "np.float64(" not in str(exc.value)
        assert f"declared {2.0 * np.exp(1.0 / 12.0)}" in str(exc.value)

    @pytest.mark.parametrize("f, fp", [
        (lambda x: math.nan * x, lambda x: math.nan),
        (lambda x: x * x, lambda x: math.nan),
        (lambda x: math.nan, lambda x: 2.0 * x),
        # f overflows: inf - inf is a NaN difference against an inf f'
        (lambda x: 1e308 * x ** 3, lambda x: 3e308 * x * x),
        (lambda x: math.inf * x, lambda x: math.inf),
    ], ids=["nan-both", "nan-derivative", "nan-f", "overflow", "inf"])
    def test_non_finite_derivative_rejected(self, f, fp):
        # a NaN comparison is false, so a check of "difference > tol" alone
        # would wave these through
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError):
            TestFunction(f, fp, 0.0, 2.0, cert)

    @pytest.mark.parametrize("a, b, x", [
        (0.0, 1e-320, "8.35e-322"),         # the step underflows to 0
        (1.0, 1.0000000000000002, "1.0"),  # x + step rounds back to x
    ])
    def test_too_narrow_to_difference(self, a, b, x):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError, match=f"interval too narrow to check "
                                              f"f' at x={x}: a step of "):
            TestFunction(lambda x: x * x, lambda x: 2.0 * x, a, b, cert)

    def test_wrong_derivative_blamed_on_narrow_interval(self):
        # rounding can move the difference by about 2e-4 on [1, 1 + 1e-6],
        # far less than this f' misses by
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError, match="f_prime inconsistent"):
            TestFunction(lambda x: x * x, lambda x: 3.0 * x, 1.0, 1.000001,
                         cert)

    def test_richardson_step_must_move_x(self):
        # the step, 3/4 of an ulp of x, moves x by one ulp and misses the
        # gate; its half, the Richardson step, rounds back to x
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        a, b = 1.0, 1.0 + 0.75 * 2.0 ** -52 / 1e-5
        half = (b - a) * 1e-5 / 2.0
        with pytest.raises(DomainError, match=re.escape(
                f"a step of {half!r} does not move x")):
            TestFunction(lambda x: x * x, lambda x: 2.0 * x, a, b, cert)

    @pytest.mark.parametrize("f, fp, b, x", [
        (lambda x: np.exp(1000.0 * x), lambda x: 1000.0 * np.exp(1000.0 * x),
         1.0, "0.75"),
        # 1e308 * (3 x^2) is finite below x = 0.77, where 3e308 x^2 is not
        (lambda x: 1e308 * x ** 3, lambda x: 1e308 * (3.0 * x * x),
         2.0, "0.8333333333333334"),
        # x ** 400 raises OverflowError on a Python float past about 5.9
        (lambda x: x ** 400, lambda x: 400.0 * x ** 399, 8.0, "6.0"),
    ], ids=["numpy-overflow", "float-overflow", "float-power-overflow"])
    def test_non_finite_f_named(self, f, fp, b, x):
        # not "f_prime inconsistent", and no numpy RuntimeWarning, which
        # the suite turns into an error
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError,
                           match=f"^f is not finite near x={x}$"):
            TestFunction(f, fp, 0.0, b, cert)

    @pytest.mark.parametrize("fp, x", [
        (lambda x: math.inf, "0.08333333333333333"),
        (lambda x: -math.inf if x > 0.5 else 2.0 * x, "0.5833333333333334"),
        (lambda x: np.float64(math.inf) * x, "0.08333333333333333"),
        # a Python float power that raises OverflowError
        (lambda x: 1e300 ** (2.0 + x), "0.08333333333333333"),
    ], ids=["inf", "minus-inf", "numpy-inf", "float-overflow"])
    def test_infinite_derivative_named(self, fp, x):
        # a gate of 1e-6 (1 + |f'|) is inf there, which no difference fails
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError,
                           match=f"^f' is not finite at x={x}$"):
            TestFunction(lambda x: x * x, fp, 0.0, 1.0, cert)

    def test_richardson_step_does_not_overflow(self):
        # at x = 5.82, 4 times the half-step difference of x^400 is past the
        # float range, though the difference and f' are not: the check
        # passes, and on [0, 10] fails where f itself overflows
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)

        def tf(b, scale=1.0):
            return TestFunction(lambda x: x ** 400,
                                lambda x: scale * 400.0 * x ** 399,
                                0.0 if b > 6.0 else 5.815, b, cert)

        assert tf(6.35).width == 6.35
        with pytest.raises(DomainError,
                           match="^f is not finite near x=6.666666666666667$"):
            tf(10.0)
        # a wrong f' where |x f'| is past the float range is blamed, not
        # the interval
        with pytest.raises(DomainError,
                           match="^f_prime inconsistent with f at "
                                 "x=5.8165000000000004: "):
            tf(5.833, scale=1.01)

    def test_complex_difference_is_a_mismatch(self):
        # x ** 1.5 is complex for x < 0: finite, so f' is what is blamed
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with pytest.raises(DomainError, match="f_prime inconsistent"):
            TestFunction(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5,
                         -1.0, 1.0, cert)

    def test_width(self):
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, -1.0, 3.0, cert)
        assert tf.width == 4.0


class TestSample:
    """TestFunction.sample: the one way the bounds and the oracle's point
    values call f or f', and its one failure policy."""

    CERT = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)

    def _tf(self, f, fp, a=0.0, b=1.0):
        return TestFunction(f, fp, a, b, self.CERT, skip_derivative_check=True)

    def test_first_failing_element_in_c_order(self):
        # f' divides by zero at 0.5 and 0.75; C order meets 0.75 first,
        # Fortran order 0.5
        tf = self._tf(lambda x: x, lambda x: 1.0 / ((x - 0.5) * (x - 0.75)))
        x = np.array([[0.25, 0.75], [0.5, 0.6]])
        with pytest.raises(DomainError,
                           match=r"^f' is undefined at x=0\.75$"):
            tf.sample(tf.f_prime, x)
        # f = x ** 1.5 is complex at -0.5 and -0.25, met in that order
        tf = self._tf(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5, -1.0)
        x = np.array([[0.5, -0.5], [-0.25, 0.1]])
        with pytest.raises(DomainError, match=r"^f is not real at x=-0\.5$"):
            tf.sample(tf.f, x)

    @pytest.mark.parametrize("x, end", [(0.0, "a=0.0"), (2.5, "b=2.5")])
    def test_an_end_is_named_as_an_end(self, x, end):
        def fp(t):
            if t in (0.0, 2.5):
                raise ZeroDivisionError
            return 1j
        tf = self._tf(lambda t: t, fp, 0.0, 2.5)
        for point in (x, np.array([[x]])):
            with pytest.raises(DomainError, match=re.escape(
                    f"f' is undefined at the end {end}") + "$"):
                tf.sample(tf.f_prime, point)
        with pytest.raises(DomainError,
                           match=r"^f' is not real at x=1\.0$"):
            tf.sample(tf.f_prime, 1.0)

    def test_overflow_named(self):
        # x ** 400 raises OverflowError on a Python float past about 5.9
        tf = self._tf(lambda x: x ** 400, lambda x: 400.0 * x ** 399, 0.0, 8.0)
        with pytest.raises(DomainError,
                           match=r"^f is not finite at the end b=8\.0$"):
            tf.sample(tf.f, 8.0)
        with pytest.raises(DomainError, match=r"^f' is not finite at x=7\.0$"):
            tf.sample(tf.f_prime, np.array([1.0, 7.0]))

    @pytest.mark.parametrize("f", [lambda x: 0.3 * x ** 2.7 - x,
                                   lambda x: np.exp(-1.3 * x)],
                             ids=["float", "numpy"])
    def test_same_bits_and_calls_as_direct(self, f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        tf = self._tf(counted, lambda x: 1.0)
        x = np.random.default_rng(28).uniform(0.0, 1.0, (3, 4))
        got = tf.sample(tf.f, x)
        assert len(calls) == 12 and all(type(v) is float for v in calls)
        assert calls == x.ravel().tolist()
        assert got.tobytes() == map_scalar(f, x).tobytes()
        assert got.shape == x.shape
        point = float(x[1, 2])
        value = tf.sample(tf.f, point)
        assert len(calls) == 13
        assert type(value) is type(f(point)) and value == f(point)

    def test_complex_f_in_lhs_error(self):
        tf = self._tf(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5, -2.0, -1.0)
        with pytest.raises(DomainError,
                           match=r"^f is not real at the end a=-2\.0$"):
            lhs_error(tf, RuleParams(0.5, 1.0 / 3.0, 1.0))


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
        with pytest.raises(DomainError, match="seed"):
            certify_membership(tf, seed=-1)
        # numpy raised TypeError from the draw for these
        for name, bad in [("n_samples", 1.5), ("n_samples", math.nan),
                          ("seed", 1.5)]:
            with pytest.raises(DomainError,
                               match=f"^{name} must be an integer"):
                certify_membership(tf, **{name: bad})
        assert certify_membership(tf, np.int64(200), np.int64(1)).holds

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
    """certify_membership with h evaluated one sample at a time."""
    cert = tf.certificate
    rng = np.random.default_rng(seed)
    xs = rng.uniform(tf.a, tf.b, n_samples)
    ys = rng.uniform(tf.a, tf.b, n_samples)
    alphas = np.clip(rng.uniform(0.0, 1.0, n_samples), 1e-9, 1.0 - 1e-9)

    def g(v):
        return np.abs(tf.f_prime(v)) ** cert.exponent_q

    h_a = np.array([cert.h.evaluator(float(al)) for al in alphas])
    h_1a = np.array([cert.h.evaluator(float(1.0 - al)) for al in alphas])
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


def _zero_class(h, kind):
    """Whether the zero-class rule decides a claim: an h-convex one with
    h(1/2) < 1/2, or an h-concave one with h(1/2) > 1/2."""
    half = h.evaluator(0.5)
    return half > 0.5 if kind is ClassKind.H_CONCAVE else half < 0.5


def _matches_sampled(got, sampled, tf):
    """got, certify_membership's report, is the sampled route's, or, for a
    zero-class claim with f' != 0 at the midpoint x, an exact rejection at
    x where the sampled route rejects too."""
    x = tf.a + 0.5 * (tf.b - tf.a)
    if not (_zero_class(tf.certificate.h, tf.certificate.class_kind)
            and tf.f_prime(x) != 0.0):
        return got == sampled
    return (got.route, got.holds, got.witness, got.point, sampled.holds) \
        == ("exact", False, (x, x, 0.5), x, False)


class TestMembershipOnArrays:
    """Every modulus is sampled on the whole draw, a named one through its
    evaluator on arrays and a custom one by one call of fn per sample, to
    the same bits as a loop of evaluator calls.  The sampled route is
    compared for every claim; certify_membership decides the zero-class
    ones exactly, and rejects them as the sampled route does."""

    MODULI = [HModulus.identity(), HModulus.power(0.3), HModulus.power(1.0),
              HModulus.constant(), HModulus.reciprocal()]
    # scalar-only moduli; t^2 < t, so every positive |f'|^q is rejected
    CUSTOM = {"sqrt": math.sqrt, "pow0.7": lambda t: t ** 0.7,
              "sin": lambda t: math.sin(0.5 * math.pi * t),
              "quad": lambda t: t * (2.0 - t), "square": lambda t: t * t}
    # (f', interval, q): |f'|^q convex and positive, and one that is not
    FUNCTIONS = [(lambda x: 1.0 + x + 0.9 * x * x, (0.0, 1.5), 1.7),
                 (lambda x: 1.0 - 3.0 * x * x, (-1.0, 1.0), 1.0)]

    @pytest.mark.parametrize("h", MODULI + [
        pytest.param(HModulus.custom(fn), id=f"custom-{name}")
        for name, fn in CUSTOM.items()],
        ids=lambda h: h.kind.value + str(h.s_param or ""))
    @pytest.mark.parametrize("kind", list(ClassKind))
    @pytest.mark.parametrize("which", [0, 1])
    def test_report_matches_loop(self, h, kind, which):
        fp, (a, b), q = self.FUNCTIONS[which]
        tf = TestFunction(lambda x: x, fp, a, b, ClassCertificate(kind, h, q),
                          skip_derivative_check=True)
        for seed in (0, 1, 2):
            sampled = _sampled_membership(tf, 500, seed)
            assert sampled == _loop_membership(tf, 500, seed)
            got = certify_membership(tf, n_samples=500, seed=seed)
            assert _matches_sampled(got, sampled, tf)


def _counted(fp):
    """fp and the list of the sizes of the arguments it is called with."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return fp(x)
    return counted, sizes


class TestDerivativeDrawMemo:
    """certify_membership keeps its last f' draw: the same f' object with
    the same interval, sample count and seed evaluates f' once, and every
    other check draws again."""

    FP = staticmethod(lambda x: 1.0 + x + 0.9 * x * x)  # convex, positive

    @staticmethod
    def _tf(fp, a=0.0, b=1.5, kind=ClassKind.H_CONVEX,
            h=HModulus.identity(), q=1.0):
        return TestFunction(lambda x: x, fp, a, b,
                            ClassCertificate(kind, h, q),
                            skip_derivative_check=True)

    def test_same_f_prime_draws_once(self):
        fp, sizes = _counted(self.FP)
        for q in (1.0, 2.0, 3.5):
            certify_membership(self._tf(fp, q=q), n_samples=300, seed=4)
        assert sizes == [300] * 3

    def test_equal_values_distinct_object_draws_again(self):
        (fp1, sizes1), (fp2, sizes2) = _counted(self.FP), _counted(self.FP)
        first = certify_membership(self._tf(fp1), n_samples=300, seed=4)
        second = certify_membership(self._tf(fp2), n_samples=300, seed=4)
        assert first == second
        assert sizes1 == sizes2 == [300] * 3

    @pytest.mark.parametrize("change", [
        {"seed": 5}, {"n_samples": 301}, {"a": 0.1}, {"b": 1.6}])
    def test_other_draw_evaluates_again(self, change):
        fp, sizes = _counted(self.FP)
        draw = {"a": 0.0, "b": 1.5, "n_samples": 300, "seed": 4}
        other = {**draw, **change}
        for d in (draw, other, draw):
            got = certify_membership(self._tf(fp, d["a"], d["b"]),
                                     d["n_samples"], d["seed"])
            assert got == _loop_membership(self._tf(self.FP, d["a"], d["b"]),
                                           d["n_samples"], d["seed"])
        n = other["n_samples"]
        assert sizes == [300] * 3 + [n] * 3 + [300] * 3

    def test_reports_match_loop_across_certificates(self):
        # one f' and one draw under every certificate, through the sampled
        # route; the concave claims fail, so witnesses are compared too
        fp, sizes = _counted(self.FP)
        outcomes = set()
        for kind in ClassKind:
            for h in (HModulus.identity(), HModulus.power(0.4)):
                for q in (1.0, 2.0):
                    tf = self._tf(fp, kind=kind, h=h, q=q)
                    plain = self._tf(self.FP, kind=kind, h=h, q=q)
                    got = _sampled_membership(tf, 500, 3)
                    assert got == _loop_membership(plain, 500, 3)
                    outcomes.add(got.holds)
                    # certify_membership reuses the draw, or reads f' once
                    assert _matches_sampled(certify_membership(tf, 500, 3),
                                            got, plain)
        assert outcomes == {True, False}
        # the two concave t^0.4 claims are zero-class, each one f' call
        assert sizes == [500] * 3 + [1] * 2

    def test_unhashable_modulus_fn(self):
        class Modulus:  # __eq__ without __hash__: not hashable
            def __eq__(self, other):
                return isinstance(other, Modulus)

            def __call__(self, t):
                return math.sqrt(t)

        fp, _ = _counted(self.FP)
        for q in (1.0, 2.0):
            tf = self._tf(fp, h=HModulus.custom(Modulus()), q=q)
            assert certify_membership(tf, n_samples=200, seed=1) \
                == _loop_membership(tf, 200, 1)

    def test_draw_is_read_only(self):
        arrays = _derivative_draw(self.FP, 0.0, 1.5, 50, 0)
        assert len(arrays) == 6
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_unhashable_f_prime(self):
        class Derivative:  # __eq__ without __hash__: not hashable
            def __eq__(self, other):
                return isinstance(other, Derivative)

            def __call__(self, x):
                return 1.0 + x * x

        tf = self._tf(Derivative())
        assert certify_membership(tf, n_samples=200, seed=1) \
            == _loop_membership(tf, 200, 1)


class TestEvaluatorOnArrays:
    """Every kind's evaluator takes a 1-d array, to the bits of its floats."""

    @pytest.mark.parametrize("h", TestMembershipOnArrays.MODULI + [
        pytest.param(HModulus.custom(fn), id=f"custom-{name}")
        for name, fn in TestMembershipOnArrays.CUSTOM.items()],
        ids=lambda h: h.kind.value + str(h.s_param or ""))
    def test_array_equals_floats(self, h):
        # certify_membership's clipped alpha samples, and both clip values
        alphas = np.clip(np.random.default_rng(0).uniform(0.0, 1.0, 2000),
                         1e-9, 1.0 - 1e-9)
        alphas = np.concatenate([alphas, [1e-9, 1.0 - 1e-9]])
        for t in (alphas, 1.0 - alphas):
            got = np.broadcast_to(h.evaluator(t), t.shape)  # h = 1: a scalar
            want = np.array([h.evaluator(v) for v in t.tolist()])
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _table_membership(tf, n_samples, seed):
    """certify_membership written out with its own per-kind table of h on
    arrays: the reference for sampling h through its evaluator."""
    cert = tf.certificate
    rng = np.random.default_rng(seed)
    xs = rng.uniform(tf.a, tf.b, n_samples)
    ys = rng.uniform(tf.a, tf.b, n_samples)
    alphas = np.clip(rng.uniform(0.0, 1.0, n_samples), 1e-9, 1.0 - 1e-9)

    def g(v):
        return np.abs(_eval_maybe_vector(tf.f_prime, v)) ** cert.exponent_q

    h_on = {HKind.IDENTITY: lambda t: t, HKind.CONSTANT: np.ones_like,
            HKind.POWER: lambda t: power(t, cert.h.s_param),
            HKind.RECIPROCAL: lambda t: 1.0 / t}.get(
        cert.h.kind, lambda t: map_scalar(cert.h.evaluator, t))
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


class TestMembershipMatchesPerKindTable:
    """Sampling h through its evaluator reports what a per-kind table of h
    on arrays did, for every kind and a holding and a failing certificate;
    certify_membership reports it too, but for the zero-class rejections."""

    MODULI = [*TestMembershipOnArrays.MODULI, HModulus.custom(math.sqrt)]
    # (f', interval, q): |f'|^q convex and positive, not convex, concave and
    # positive, and 0, which every certificate admits
    FUNCTIONS = [(lambda x: 1.0 + x + 0.9 * x * x, (0.0, 1.5), 1.7),
                 (lambda x: 1.0 - 3.0 * x * x, (-1.0, 1.0), 1.0),
                 (lambda x: np.sqrt(x + 1.0), (0.0, 2.0), 1.0),
                 (lambda x: 0.0 * x, (0.0, 1.0), 2.0)]

    @pytest.mark.parametrize("h", MODULI, ids=lambda h: h.kind.value
                             + str(h.s_param or ""))
    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_report_equals_table(self, h, kind):
        outcomes = set()
        for fp, (a, b), q in self.FUNCTIONS:
            tf = TestFunction(lambda x: x, fp, a, b,
                              ClassCertificate(kind, h, q),
                              skip_derivative_check=True)
            for seed in (0, 1):
                got = _sampled_membership(tf, 500, seed)
                want = _table_membership(tf, 500, seed)
                assert got.holds == want.holds
                assert got.worst_violation == want.worst_violation
                assert got.witness == want.witness
                outcomes.add(got.holds)
                assert _matches_sampled(
                    certify_membership(tf, n_samples=500, seed=seed), got, tf)
        assert outcomes == {True, False}


class TestMembershipOverflow:
    def test_non_finite_power_raises(self):
        # (2x)^2000 is convex, but not a float for x above about 0.5
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(),
                                2000.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        with pytest.raises(OverflowError, match="not finite"):
            certify_membership(tf, n_samples=200)

    def test_infinite_derivative_stays_an_overflow(self):
        # |f'| itself overflows to inf: not finite, and not a NaN
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: np.exp(800.0 * x),
                          lambda x: 800.0 * np.exp(800.0 * x), 0.0, 1.0,
                          cert, skip_derivative_check=True)
        with pytest.raises(OverflowError, match="not finite"):
            certify_membership(tf, n_samples=200)

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_overflowing_h_times_g_decides(self, kind):
        # 2^1023 is a float, h(alpha) * 2^1023 is not once h exceeds 2
        cert = ClassCertificate(kind, HModulus.reciprocal(), 1023.0)
        tf = TestFunction(lambda x: x * x, lambda x: 2.0 * x, 0.0, 1.0, cert)
        rep = certify_membership(tf, n_samples=2000)
        assert rep.holds is (kind is ClassKind.H_CONVEX)

    def test_nan_sample_is_a_domain_error(self):
        # x ** 0.5 of a negative array is NaN, and numpy gives no warning
        # that pytest would turn into an error
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(lambda x: x ** 1.5, lambda x: 1.5 * x ** 0.5,
                          -2.0, -1.0, cert, skip_derivative_check=True)
        with pytest.raises(DomainError,
                           match="^f' is NaN at a sampled point$"):
            certify_membership(tf, n_samples=200)


def _poly_value(coeffs, x):
    """sum c_k x^k in exact rationals."""
    total = Fraction(0)
    for k, ck in enumerate(coeffs):
        total += Fraction(ck) * x ** k
    return total


def _spec_rows(seed, n):
    """(spec, a, b, q): poly of degree 1 to 5, exp and pow on a >= 0, with
    q in {1, 1.5, 2, 3}."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        family = ("poly", "exp", "pow")[i % 3]
        if family == "poly":
            params = rng.uniform(-2.0, 2.0, int(rng.integers(2, 7)))
            a = float(rng.uniform(-2.0, 1.0))
        elif family == "exp":
            params = [rng.uniform(-2.0, 2.0)]
            a = float(rng.uniform(-1.0, 1.0))
        else:
            params = [rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)]
            a = float(rng.uniform(0.0, 1.0))
        spec = FunctionSpec(family, tuple(params))
        b = a + float(rng.uniform(0.2, 2.0))
        rows.append((spec, a, b, (1.0, 1.5, 2.0, 3.0)[int(rng.integers(4))]))
    return rows


def _both_routes(spec, a, b, q, kind, h=HModulus.identity()):
    """certify_membership of the spec's (f, f'), and the sampled route on
    the same f' without the spec."""
    f, fp = spec.functions()
    cert = ClassCertificate(kind, h, q)
    return (certify_membership(TestFunction(f, fp, a, b, cert, spec=spec),
                               n_samples=2000, seed=3),
            _sampled_membership(TestFunction(f, fp, a, b, cert), 2000, 3))


def _derivative_cases(seed, n):
    """n each of seeded poly: specs of degree 1 to 7, poly: specs whose f'
    cancels, k (t - t0)^(k-1) near t0, exp: and pow: specs, with a point
    of each; pow: at x > 0, where f is real."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        degree, t0 = int(rng.integers(1, 8)), float(rng.uniform(-2.0, 2.0))
        cases += [
            (FunctionSpec("poly", rng.uniform(-3.0, 3.0, degree + 1)),
             float(rng.uniform(-2.0, 2.0))),
            (FunctionSpec("poly", [0.0] + [math.comb(degree, k)
                                           * (-t0) ** (degree - k)
                                           for k in range(1, degree + 1)]),
             t0 * (1.0 + float(rng.uniform(-1e-3, 1e-3)))),
            (FunctionSpec("exp", [rng.uniform(-5.0, 5.0)]),
             float(rng.uniform(-3.0, 3.0))),
            (FunctionSpec("pow", [rng.uniform(-3.0, 3.0),
                                  rng.uniform(0.1, 4.0)]),
             float(rng.uniform(0.05, 3.0)))]
    return cases


def _decimal_f(spec, x):
    """f of the spec at the Decimal x, from its parameters read exactly."""
    p = [Decimal(c) for c in spec.params]
    if spec.family == "poly":
        return sum(c * x ** k for k, c in enumerate(p))
    if spec.family == "pow":
        return p[0] * x ** p[1]
    return (p[0] * x).exp()


def _decimal_derivative_terms(spec, x):
    """The terms of f' at the Decimal x: k c_k x^(k-1) of poly, one of
    pow and exp."""
    p = [Decimal(c) for c in spec.params]
    if spec.family == "poly":
        return [k * c * x ** (k - 1) for k, c in enumerate(p) if k]
    if spec.family == "pow":
        return [p[0] * p[1] * x ** (p[1] - 1)]
    return [p[0] * (p[0] * x).exp()]


class TestSpecDerivative:
    """The f' that FunctionSpec.functions() evaluates is the derivative of
    its f: checked here once per family, so that a spec's f' needs no
    finite-difference check against f at run time (ROADMAP item 17)."""

    @pytest.mark.parametrize("seed", [1701, 1702])
    def test_matches_decimal_difference_quotient(self, seed):
        # a 50-digit central difference of f with step 1e-20 is f' to
        # about 1e-30 of f; the float f' is within 4 ulps of the sum of
        # its terms' magnitudes, so cancelling poly: terms do not trip
        # it, times 1 + the error factor of the one rounded argument:
        # |k x| of exp(k x), and |(r - 1) ln x| of x^(r - 1)
        for spec, x in _derivative_cases(seed, 150):
            fp = spec.functions()[1]
            with localcontext() as ctx:
                ctx.prec = 50
                dx, xd = Decimal(10) ** -20, Decimal(x)
                want = (_decimal_f(spec, xd + dx)
                        - _decimal_f(spec, xd - dx)) / (2 * dx)
                scale = float(sum(map(abs, _decimal_derivative_terms(
                    spec, xd))))
                err = float(abs(Decimal(float(fp(x))) - want))
            if spec.family == "exp":
                argument = abs(spec.params[0] * x)
            elif spec.family == "pow":
                argument = abs((spec.params[1] - 1.0) * math.log(x))
            else:
                argument = 0.0
            assert err <= 4.0 * math.ulp(scale) * (1.0 + argument), (spec, x)


class TestExactMembership:
    """A claim on a FunctionSpec's |f'|^q with a named modulus is decided
    exactly wherever convexity or concavity settles it."""

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_sampled_rejection_is_exact_rejection(self, kind):
        outcomes = set()
        for spec, a, b, q in _spec_rows(35, 240):
            exact, sampled = _both_routes(spec, a, b, q, kind)
            assert (exact.route, sampled.route) == ("exact", "sampled")
            if not sampled.holds:
                assert not exact.holds, (spec, a, b, q)
            if not exact.holds:
                assert a <= exact.point <= b
                assert (exact.worst_violation, exact.witness) == (0.0, None)
            outcomes.add((exact.holds, sampled.holds))
        assert {(True, True), (False, False)} <= outcomes

    @pytest.mark.parametrize("h", [
        HModulus.power(0.5), HModulus.constant(), HModulus.reciprocal()],
        ids=["t^s", "1", "1/t"])
    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_sampled_rejection_is_exact_rejection_beyond_t(self, h, kind):
        """Under t^s, 1 and 1/t a poly: claim that the sampled route
        rejects is rejected; every h-concave claim and every h = 1 claim is
        decided exactly, and a sampled one reports the sampled route's."""
        routes = set()
        for spec, a, b, q in _poly_rows(39, 150):
            exact, sampled = _both_routes(spec, a, b, q, kind, h)
            if not sampled.holds:
                assert not exact.holds, (spec, a, b, q)
            if exact.route == "sampled":
                assert exact == sampled
            routes.add(exact.route)
        if kind is ClassKind.H_CONCAVE or h.kind is HKind.CONSTANT:
            assert routes == {"exact"}
        else:
            assert routes == {"exact", "sampled"}

    def test_rejection_point_fails_second_order_test(self):
        """Each convex rejection of a poly: row names a point where
        r = (q - 1) p'^2 + p p'' < 0, p = f', in exact rationals."""
        rejected = 0
        for spec, a, b, q in _spec_rows(36, 240):
            if spec.family != "poly":
                continue
            exact, _ = _both_routes(spec, a, b, q, ClassKind.H_CONVEX)
            if exact.holds:
                continue
            rejected += 1
            p = [Fraction(c) for c in spec.derivative_coeffs]
            dp = [k * c for k, c in enumerate(p)][1:]
            d2p = [k * c for k, c in enumerate(dp)][1:]
            x = Fraction(exact.point)
            r = ((Fraction(q) - 1) * _poly_value(dp, x) ** 2
                 + _poly_value(p, x) * _poly_value(d2p, x))
            assert r < 0, (spec, a, b, q, exact.point)
        assert rejected > 10

    @pytest.mark.parametrize("spec, a, b, q, kinds", [
        # |f'|^2 = 1.0000667 x is linear: convex and concave
        (FunctionSpec("pow", (0.6667, 1.5)), 1.0, 2.0, 2.0, list(ClassKind)),
        # |f'| = 3x^2 has a double root inside the interval
        (FunctionSpec("poly", (0.0, 0.0, 0.0, 1.0)), -1.0, 1.0, 1.0,
         [ClassKind.H_CONVEX]),
        # f' = 0
        (FunctionSpec("poly", (5.0,)), -1.0, 1.0, 1.0, list(ClassKind)),
        (FunctionSpec("poly", (5.0,)), -1.0, 1.0, 2.5, list(ClassKind)),
        (FunctionSpec("exp", (0.0,)), -1.0, 1.0, 2.0, list(ClassKind)),
    ], ids=["linear", "double-root", "constant-q1", "constant-q2.5",
            "exp0"])
    def test_boundary_members_pass(self, spec, a, b, q, kinds):
        for kind in kinds:
            exact, _ = _both_routes(spec, a, b, q, kind)
            assert (exact.holds, exact.route) == (True, "exact")

    @pytest.mark.parametrize("spec, a, b, kind, point", [
        # |f'| = 2|x| has a convex corner at 0
        (FunctionSpec("poly", (0.0, 0.0, 1.0)), -1.0, 1.0,
         ClassKind.H_CONCAVE, 0.0),
        # |f'| = 3|x^2 - 1/3|, concave between its roots +-0.577...
        (FunctionSpec("poly", (0.0, -1.0, 0.0, 1.0)), -1.0, 1.0,
         ClassKind.H_CONVEX, 0.0),
        (FunctionSpec("exp", (0.5,)), -1.0, 2.0, ClassKind.H_CONCAVE, 0.5),
        # |f'| = 0.75 x^-0.5 is convex, not concave
        (FunctionSpec("pow", (1.5, 0.5)), 1.0, 3.0, ClassKind.H_CONCAVE,
         2.0),
    ], ids=["corner", "concave-stretch", "exp", "pow"])
    def test_rejected_with_point(self, spec, a, b, kind, point):
        exact, _ = _both_routes(spec, a, b, 1.0, kind)
        assert (exact.holds, exact.route, exact.point) == (
            False, "exact", point)

    # |f'| = 1.5 - x^2 on [-0.5, 0.5] is concave, not convex, and not
    # monotone: under a modulus other than t its shape settles no claim.
    # It is a P-function, so the P-test settles its 1 and 1/t claims
    CAP = FunctionSpec("poly", (0.0, 1.5, 0.0, -0.3333333333333333))
    # |f'| = 3|x^2 - 1/3| on [-1, 1] is neither convex nor a P-function
    NOT_P = FunctionSpec("poly", (0.0, -1.0, 0.0, 1.0))

    @pytest.mark.parametrize("h, kind, spec, a, b", [
        (HModulus.power(0.5), ClassKind.H_CONVEX, CAP, -0.5, 0.5),
        (HModulus.reciprocal(), ClassKind.H_CONVEX, NOT_P, -1.0, 1.0)],
        ids=["ClassKind.H_CONVEX-t^s", "ClassKind.H_CONVEX-1/t"])
    def test_undecided_claim_is_sampled(self, h, kind, spec, a, b):
        """Nor does any other exact rule settle the t^s claim, or the 1/t
        claim on a g that is not a P-function, which the sampled route
        rejects."""
        exact, sampled = _both_routes(spec, a, b, 1.0, kind, h)
        assert exact == sampled and exact.route == "sampled"
        if h.kind is HKind.RECIPROCAL:
            assert not sampled.holds

    @pytest.mark.parametrize("h", [
        HModulus.power(0.5), HModulus.constant(), HModulus.reciprocal()],
        ids=["t^s", "1", "1/t"])
    def test_concave_claim_is_zero_class(self, h):
        """h(1/2) > 1/2, so the h-concave claims are rejected at the
        midpoint 0, where f' = 1.5, with the sampled check's slack there;
        the sampled route rejects them too."""
        exact, sampled = _both_routes(self.CAP, -0.5, 0.5, 1.0,
                                      ClassKind.H_CONCAVE, h)
        half = h.evaluator(0.5)
        assert (exact.holds, exact.route, exact.point, exact.witness) == (
            False, "exact", 0.0, (0.0, 0.0, 0.5))
        assert exact.worst_violation == -(1.5 - (half * 1.5 + half * 1.5))
        assert not sampled.holds

    def test_convex_claim_under_one_is_p_tested(self):
        """|f'| lies in [1.25, 1.5], so g(z) <= g(x) + g(y) everywhere: the
        P-test accepts, as the sampled route does."""
        for q in (1.0, 1.5, 2.0):
            exact, sampled = _both_routes(self.CAP, -0.5, 0.5, q,
                                          ClassKind.H_CONVEX,
                                          HModulus.constant())
            assert (exact.holds, exact.route) == (True, "exact")
            assert sampled.holds

    def test_convex_claim_under_reciprocal_is_p_tested(self):
        """A P-function is a Godunova-Levin function: the P-test accepts
        the cap's 1/t claims exactly, and the sampled route accepts them."""
        for q in (1.0, 1.5, 2.0):
            exact, sampled = _both_routes(self.CAP, -0.5, 0.5, q,
                                          ClassKind.H_CONVEX,
                                          HModulus.reciprocal())
            assert (exact.holds, exact.route) == (True, "exact")
            assert sampled.holds

    @pytest.mark.parametrize("kind", list(ClassKind))
    def test_t_to_the_one_is_t(self, kind):
        """h = t^s at s = 1 is h = t: each claim gets t's exact verdict and
        point, where the h-concave claims were once sampled."""
        routes = set()
        for spec, a, b, q in _spec_rows(40, 90):
            as_t, _ = _both_routes(spec, a, b, q, kind)
            as_power, _ = _both_routes(spec, a, b, q, kind,
                                       HModulus.power(1.0))
            assert as_power == as_t, (spec, a, b, q)
            routes.add((as_power.route, as_power.holds))
        assert routes == {("exact", True), ("exact", False)}

    def test_custom_modulus_is_sampled(self):
        spec = FunctionSpec("poly", (0.0, 0.0, 1.0))
        h = HModulus.custom(lambda t: t)
        exact, sampled = _both_routes(spec, 0.0, 1.0, 1.0,
                                      ClassKind.H_CONVEX, h)
        assert exact == sampled and exact.route == "sampled"

    def test_pow_below_zero_is_sampled(self):
        # x ** 0.5 of a negative array is NaN: only the sampler meets it
        spec = FunctionSpec("pow", (1.0, 1.5))
        f, fp = spec.functions()
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        tf = TestFunction(f, fp, -2.0, -1.0, cert,
                          skip_derivative_check=True, spec=spec)
        with pytest.raises(DomainError, match="^f' is NaN at a sampled"):
            certify_membership(tf, n_samples=200)

    @pytest.mark.parametrize("family, params", [
        ("sin", (1.0,)), ("poly", ()), ("poly", (1.0, math.inf)),
        ("pow", (1.0,)), ("pow", (1.0, 0.0)), ("pow", (1.0, math.nan)),
        ("exp", (1.0, 2.0))])
    def test_invalid_spec(self, family, params):
        with pytest.raises(DomainError, match="not a function spec"):
            FunctionSpec(family, params)

    def test_spec_stays_out_of_repr_and_equality(self):
        spec = FunctionSpec("poly", (0.0, 0.0, 1.0))
        f, fp = spec.functions()
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.identity(), 1.0)
        with_spec = TestFunction(f, fp, 0.0, 1.0, cert, spec=spec)
        without = TestFunction(f, fp, 0.0, 1.0, cert)
        assert with_spec == without and repr(with_spec) == repr(without)


def _p_excess(spec, q, a, b, z, n=20001):
    """g(z) - min g on [a, z] - min g on [z, b] over a float grid with z
    on it: a grid minimum is >= the true one, so the true excess at z is
    at least this, up to rounding."""
    p = np.polynomial.Polynomial(spec.derivative_coeffs)
    xs = np.union1d(np.linspace(a, b, n), [z])
    g = np.abs(p(xs)) ** q
    i = int(np.searchsorted(xs, z))
    return float(g[i] - g[:i + 1].min() - g[i:].min())


def _p_excess_at_peaks(spec, q, a, b):
    """The largest g(z) - min g on [a, z] - min g on [z, b] over the float
    roots of p' in (a, b), p = f', by numpy's roots; -inf if none."""
    p = np.polynomial.Polynomial(spec.derivative_coeffs)
    real = [r.real for r in p.deriv().roots() if abs(r.imag) < 1e-9]
    zeros = [r.real for r in p.roots() if abs(r.imag) < 1e-9
             and a <= r.real <= b]
    peaks = sorted(r for r in real if a < r < b)
    points = [a, *peaks, b]

    def g(x):
        return abs(p(x)) ** q
    worst = -math.inf
    for z in peaks:
        left = [g(x) for x in points if x <= z]
        left += [0.0] * any(x <= z for x in zeros)
        right = [g(x) for x in points if x >= z]
        right += [0.0] * any(x >= z for x in zeros)
        worst = max(worst, float(g(z) - min(left) - min(right)))
    return worst


def _poly_rows(seed, n):
    """(spec, a, b, q): poly of degree 2 to 6 with coefficients in [-2, 2],
    on an interval of width 0.2 to 2, with q in {1, 1.5, 2, 3}."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        spec = FunctionSpec("poly",
                            rng.uniform(-2.0, 2.0, int(rng.integers(3, 8))))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.2, 2.0))
        rows.append((spec, a, b, (1.0, 1.5, 2.0, 3.0)[int(rng.integers(4))]))
    return rows


def _counted_h(fn):
    """A custom modulus on fn and the list of the arguments it is called
    with."""
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)
    return HModulus.custom(counted), calls


class TestZeroClassRule:
    """With x = y the class inequality reads g(x) <= 2 h(1/2) g(x): an
    h-convex claim with h(1/2) < 1/2, or an h-concave one with
    h(1/2) > 1/2, holds for g = 0 alone, for any modulus."""

    MODULI = [HModulus.power(0.3), HModulus.power(0.5), HModulus.power(0.9),
              HModulus.constant(), HModulus.reciprocal()]
    IDS = ["t^0.3", "t^0.5", "t^0.9", "1", "1/t"]
    # specs whose f' is 0, and one that is not 0 at the midpoint of each
    ZERO = [FunctionSpec("poly", (5.0,)), FunctionSpec("poly", (-1.0, 0.0)),
            FunctionSpec("exp", (0.0,)), FunctionSpec("pow", (0.0, 1.5))]
    NONZERO = [FunctionSpec("poly", (0.0, 1.0, 1.0)),
               FunctionSpec("exp", (-0.5,)), FunctionSpec("pow", (2.0, 1.5))]

    @staticmethod
    def _tf(spec, kind, h, q=2.0, a=0.5, b=2.0, given=True):
        """spec's (f, f') on [a, b] with f' counted, and its argument list."""
        f, fp = spec.functions()
        counted, sizes = _counted(fp)
        cert = ClassCertificate(kind, h, q)
        return TestFunction(f, counted, a, b, cert, spec=spec if given
                            else None, skip_derivative_check=True), sizes

    @pytest.mark.parametrize("h", MODULI, ids=IDS)
    def test_concave_claim_on_spec(self, h):
        for spec in self.ZERO:
            tf, sizes = self._tf(spec, ClassKind.H_CONCAVE, h)
            assert certify_membership(tf) == MembershipReport(
                True, 0.0, None, "exact")
            assert sizes == []  # read from the parameters
        half = h.evaluator(0.5)
        for spec in self.NONZERO:
            tf, sizes = self._tf(spec, ClassKind.H_CONCAVE, h)
            rep = certify_membership(tf)
            g = abs(spec.functions()[1](1.25)) ** 2.0
            assert rep == MembershipReport(
                False, -(g - (half * g + half * g)), (1.25, 1.25, 0.5),
                "exact", 1.25)
            assert sizes == [1]
            assert not _sampled_membership(tf, 2000, 0).holds

    @pytest.mark.parametrize("h", MODULI, ids=IDS)
    def test_slack_is_the_sampled_checks(self, h):
        """The witness's slack is what the sampled check computes there."""
        fp = TestMembershipOnArrays.FUNCTIONS[0][0]
        tf = TestFunction(lambda x: x, fp, 0.0, 1.5,
                          ClassCertificate(ClassKind.H_CONCAVE, h, 1.7),
                          skip_derivative_check=True)
        rep = certify_membership(tf)
        x, y, alpha = (np.array([v]) for v in rep.witness)
        gx, gy, gmid = (np.abs(fp(v)) ** 1.7
                        for v in (x, y, alpha * x + (1.0 - alpha) * y))
        slack = -(gmid - (h.evaluator(alpha) * gx
                          + h.evaluator(1.0 - alpha) * gy))
        assert rep.worst_violation == float(slack[0]) > 0.0

    @pytest.mark.parametrize("h", [HModulus.identity(), HModulus.power(1.0),
                                   HModulus.custom(lambda t: t)],
                             ids=["t", "t^1", "custom-t"])
    def test_never_at_half_one_half(self, h):
        """h(1/2) = 1/2 decides nothing: a claim without a spec is
        sampled."""
        for kind in ClassKind:
            tf, _ = self._tf(self.NONZERO[0], kind, h, given=False)
            assert certify_membership(tf, 500) == _sampled_membership(
                tf, 500, 0)

    def test_convex_claims_of_named_moduli_untouched(self):
        for h in self.MODULI:
            tf, sizes = self._tf(self.NONZERO[0], ClassKind.H_CONVEX, h,
                                 given=False)
            assert certify_membership(tf, 500).route == "sampled"
            assert sizes == [500] * 3

    def test_custom_square_costs_one_call_each(self):
        """h = t^2 has h(1/2) = 1/4: a false h-convex claim costs one h
        call and one f' call, and the witness violates the class."""
        h, calls = _counted_h(lambda t: t * t)
        fp = TestMembershipOnArrays.FUNCTIONS[0][0]
        counted, sizes = _counted(fp)
        tf = TestFunction(lambda x: x, counted, 0.0, 1.5,
                          ClassCertificate(ClassKind.H_CONVEX, h, 1.0),
                          skip_derivative_check=True)
        rep = certify_membership(tf)
        assert (rep.holds, rep.route, rep.witness) == (
            False, "exact", (0.75, 0.75, 0.5))
        assert (calls, sizes) == ([0.5], [1])
        g = fp(0.75)
        assert rep.worst_violation == g - (0.25 * g + 0.25 * g) > 0.0

    def test_custom_square_on_zero_spec(self):
        h, calls = _counted_h(lambda t: t * t)
        for spec in self.ZERO:
            calls.clear()
            tf, sizes = self._tf(spec, ClassKind.H_CONVEX, h)
            assert certify_membership(tf) == MembershipReport(
                True, 0.0, None, "exact")
            assert (calls, sizes) == ([0.5], [])

    def test_custom_true_claim_pays_one_h_call(self):
        h, calls = _counted_h(math.sqrt)
        tf, _ = self._tf(self.NONZERO[0], ClassKind.H_CONVEX, h, given=False)
        assert certify_membership(tf, 300).holds
        assert len(calls) == 1 + 2 * 300 and calls[0] == 0.5

    @pytest.mark.parametrize("fp, a, b", [
        # f' = 0 at the midpoint
        (lambda x: 2.0 * x, -1.0, 1.0),
        # g there within the sampled check's tolerance of 0
        (lambda x: 1e-13 + 0.0 * x, 0.0, 1.0),
        # f' is NaN there: the sampled check raises
        (lambda x: np.sqrt(x - 0.75), 0.0, 1.0),
    ], ids=["zero", "tiny", "nan"])
    def test_undecided_midpoint_falls_through(self, fp, a, b):
        tf = TestFunction(lambda x: x, fp, a, b,
                          ClassCertificate(ClassKind.H_CONCAVE,
                                           HModulus.constant(), 1.0),
                          skip_derivative_check=True)
        with np.errstate(invalid="ignore"):
            try:
                want = _sampled_membership(tf, 500, 0)
            except DomainError:
                with pytest.raises(DomainError, match="NaN at a sampled"):
                    certify_membership(tf, 500)
                return
            assert certify_membership(tf, 500) == want

    def test_overflowing_midpoint_falls_through(self):
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.constant(), 2.0)
        tf = TestFunction(lambda x: x, lambda x: np.exp(800.0 * x), 0.0, 1.0,
                          cert, skip_derivative_check=True)
        with pytest.raises(OverflowError, match="not finite at a sampled"):
            certify_membership(tf, 200)

    def test_pow_below_zero_reads_the_midpoint(self):
        """pow on a < 0 is no spec here: its f' is read at the midpoint,
        where it is not real."""
        spec = FunctionSpec("pow", (1.0, 1.5))
        f, fp = spec.functions()
        cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.constant(), 1.0)
        tf = TestFunction(f, fp, -2.0, -1.0, cert,
                          skip_derivative_check=True, spec=spec)
        with pytest.raises(DomainError,
                           match=r"^f' is not real at x=-1\.5$"):
            certify_membership(tf, 200)


class TestMonotoneRule:
    """A monotone g >= 0 is a P-function and a Godunova-Levin function:
    the P-test accepts h-convex claims under h = 1 and 1/t on a spec whose
    |f'| is monotone, exactly, with no f' call."""

    @pytest.mark.parametrize("spec, a, b", [
        # |f'| = |1 - x^2| on [0, 0.9]: decreasing, concave
        (FunctionSpec("poly", (0.0, 1.0, 0.0, -1.0 / 3.0)), 0.0, 0.9),
        # pow with 0 < q (r - 1) < 1: increasing and concave
        (FunctionSpec("pow", (2.0, 1.5)), 0.0, 2.0),
        (FunctionSpec("exp", (-1.0,)), -1.0, 1.0),
    ], ids=["poly", "pow", "exp"])
    @pytest.mark.parametrize("h", [HModulus.constant(),
                                   HModulus.reciprocal()], ids=["1", "1/t"])
    def test_monotone_holds_without_f_prime(self, spec, a, b, h):
        tf, sizes = TestZeroClassRule._tf(spec, ClassKind.H_CONVEX, h,
                                          q=1.0, a=a, b=b)
        assert certify_membership(tf) == MembershipReport(
            True, 0.0, None, "exact")
        assert sizes == []
        assert _sampled_membership(tf, 2000, 0).holds

    @pytest.mark.parametrize("spec, a, b, monotone", [
        (FunctionSpec("poly", (0.0, 1.0, 0.0, -1.0 / 3.0)), 0.0, 0.9, True),
        (FunctionSpec("poly", (0.0, 1.0, 0.0, -1.0 / 3.0)), -0.1, 0.9,
         False),
        # |x^2 - 1| on [-0.5, 3]: Godunova-Levin, not a P-function
        (FunctionSpec("poly", (0.0, -1.0, 0.0, 1.0 / 3.0)), -0.5, 3.0,
         False),
        # p = x^2 on [0, 1]: p p' = 2 x^3 >= 0, a root at the end
        (FunctionSpec("poly", (0.0, 0.0, 0.0, 1.0 / 3.0)), 0.0, 1.0, True),
        (FunctionSpec("poly", (0.0, 0.0, 0.0, 1.0 / 3.0)), -0.5, 1.0,
         False),
        (FunctionSpec("poly", (3.0, 2.0)), -1.0, 1.0, True),
    ])
    def test_monotone_derivative(self, spec, a, b, monotone):
        """Each h = 1 and 1/t claim agrees with the sampled route, and one
        on a monotone |f'| holds exactly with no f' call."""
        for h in (HModulus.constant(), HModulus.reciprocal()):
            tf, sizes = TestZeroClassRule._tf(spec, ClassKind.H_CONVEX, h,
                                              q=1.0, a=a, b=b)
            rep = certify_membership(tf, 2000, 0)
            calls = list(sizes)
            sampled = _sampled_membership(tf, 2000, 0)
            if monotone:
                assert (rep, calls) == (MembershipReport(
                    True, 0.0, None, "exact"), [])
            if rep.route == "sampled":
                assert rep == sampled
            assert rep.holds is sampled.holds, h

    def test_godunova_levin_not_p_function(self):
        """|x^2 - 1| on [-0.5, 3] fails the P-test at 0.15625, so its h = 1
        claim is rejected exactly; that point settles no 1/t claim, which
        is sampled, and holds."""
        spec = FunctionSpec("poly", (0.0, -1.0, 0.0, 1.0 / 3.0))
        one, _ = _both_routes(spec, -0.5, 3.0, 1.0, ClassKind.H_CONVEX,
                              HModulus.constant())
        assert (one.holds, one.route, one.point) == (False, "exact",
                                                     0.15625)
        exact, sampled = _both_routes(spec, -0.5, 3.0, 1.0,
                                      ClassKind.H_CONVEX,
                                      HModulus.reciprocal())
        assert exact == sampled and exact.holds

    @staticmethod
    def _monotone(spec, a, b):
        """Whether p p' keeps one sign on [a, b], p = f', read in exact
        rationals on a grid of 201 points and at numpy's real roots of p p'
        there: independent of the Sturm chains."""
        p = np.polynomial.Polynomial(spec.derivative_coeffs)
        pp = p * p.deriv()
        points = [Fraction(x) for x in np.linspace(a, b, 201)]
        points += [Fraction(float(r.real)) for r in pp.roots()
                   if abs(r.imag) < 1e-9 and a < r.real < b]
        coeffs = [Fraction(c) for c in spec.derivative_coeffs]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        signs = {(v > 0) - (v < 0) for v in (
            _poly_value(coeffs, x) * _poly_value(dcoeffs, x)
            for x in points)}
        return not {-1, 1} <= signs

    def test_corpus(self):
        """On a seeded poly: corpus every claim on a monotone |f'| holds
        exactly under 1 and 1/t, and every exact 1/t accept is one that
        the sampled route accepts too."""
        counts = {"monotone": 0, "exact-accept": 0, "sampled": 0}
        for spec, a, b, q in _poly_rows(5, 120):
            monotone = self._monotone(spec, a, b)
            counts["monotone"] += monotone
            for h in (HModulus.constant(), HModulus.reciprocal()):
                exact, sampled = _both_routes(spec, a, b, q,
                                              ClassKind.H_CONVEX, h)
                if monotone:
                    assert (exact.holds, exact.route) == (True, "exact"), (
                        spec, a, b, q, h)
                if h.kind is HKind.RECIPROCAL:
                    if exact.route == "exact" and exact.holds:
                        assert sampled.holds, (spec, a, b, q)
                        counts["exact-accept"] += not monotone
                    counts["sampled"] += exact.route == "sampled"
        assert min(counts.values()) > 5, counts

    def test_t_s_is_not_decided_by_monotonicity(self):
        """g(z) <= alpha^s g(x) + (1 - alpha)^s g(y) can fail for a
        monotone g, so a t^s claim on one is sampled."""
        spec = FunctionSpec("pow", (2.0, 1.5))
        tf, _ = TestZeroClassRule._tf(spec, ClassKind.H_CONVEX,
                                      HModulus.power(0.5), q=1.0, a=0.0,
                                      b=2.0)
        assert certify_membership(tf, 500).route == "sampled"


class TestPTest:
    """h = 1: g >= 0 is a P-function on [a, b] iff g(z) <= min g on
    [a, z] + min g on [z, b] for every z; a poly: claim is decided so,
    exactly, but for a tie the bounds cannot separate."""

    @staticmethod
    def _claim(spec, a, b, q):
        """certify_membership of the h = 1 claim, f' counted, and the
        sampled route's report at the CLI's sample count and seed."""
        tf, sizes = TestZeroClassRule._tf(spec, ClassKind.H_CONVEX,
                                          HModulus.constant(), q=q, a=a, b=b)
        rep = certify_membership(tf, 2000, 0)
        return rep, list(sizes), _sampled_membership(tf, 2000, 0)

    def test_corpus_against_float_referee(self):
        """On a seeded corpus every h = 1 claim is decided exactly, with no
        f' call, and agrees with the excess at numpy's roots of p' wherever
        that is clear of 0; a sampled rejection is an exact one."""
        rows = _poly_rows(37, 300)
        rng = np.random.default_rng(38)
        # dyadic coefficients and ends: shared roots and double roots
        for _ in range(100):
            spec = FunctionSpec("poly", tuple(
                rng.integers(-8, 9, int(rng.integers(3, 8))) / 4.0))
            a = float(rng.integers(-6, 3)) / 2.0
            rows.append((spec, a, a + float(rng.integers(1, 6)) / 2.0,
                         (1.0, 2.0, 3.0)[int(rng.integers(3))]))
        verdicts = set()
        for spec, a, b, q in rows:
            rep, sizes, sampled = self._claim(spec, a, b, q)
            assert (rep.route, sizes) == ("exact", []), (spec, a, b, q)
            excess = _p_excess_at_peaks(spec, q, a, b)
            if abs(excess) > 1e-9:
                assert rep.holds is (excess < 0.0), (spec, a, b, q, excess)
            if not sampled.holds:
                assert not rep.holds, (spec, a, b, q)
            if not rep.holds:
                assert rep.witness is None and a < rep.point < b
                assert rep.worst_violation == 0.0
            verdicts.add((rep.holds, sampled.holds))
        assert verdicts == {(True, True), (False, False), (False, True)}

    # claims of _poly_rows(16, 600) that the sampled route, 2,000 samples
    # at seed 0 as the CLI draws them, accepts, and that are not P-functions
    FALSE_ACCEPTS = [
        ((1.8068622139144157, -1.702258588652966, -0.5628700257368906,
          -0.14367909218062502, 1.845525120102086, 1.061212630419202,
          0.3657171319350421), 0.20128150985154925, 1.684422863592708, 1.0),
        ((-0.12161402413717237, -0.6351374030360679, 0.6571364827383039,
          1.6675939344911894, -0.566998568126198, -1.9895080334727182,
          0.3004738812009191), 0.4943145319716482, 1.0983665001875753, 1.5),
        ((0.370038686282125, 0.07731128294994871, 1.3300397318259773,
          -0.771162953192615, -0.2581258834187725, 1.7648746370777721),
         -1.569418279500324, -0.4866081766709336, 2.0),
        ((0.5661856719743219, 0.8393163961719003, -0.7855442222113989,
          0.003459916761220594, 0.5094765295326464, 0.24812525835825916,
          1.4670794494565635), -1.849751969711884, -0.33589197636085966,
         2.0),
        ((-0.5362166365594292, -0.4331987289058685, -1.1911412400586734,
          0.4595738363027566, -1.342352904868318, 0.707168875705956),
         -0.5254372145235959, 1.1527788030482815, 1.5),
        ((0.8533613230464647, -0.43478465981772274, -1.9564019956367877,
          -1.235201094185007, 0.039954879729900306, 1.1845450416227257),
         0.6823320902811432, 2.3330299034252615, 1.0),
        ((1.4484105300143808, -1.1595377277684218, 1.5641764843179278,
          1.0044617115031365, -1.0118290580612896), 0.7395443543207434,
         1.8799470820387, 1.0),
        ((-0.7050699620376477, -1.1977622581557514, 0.1313762741793325,
          0.4510824912278335, -0.6629496756625111, 1.1701758486010005,
          -1.1496560054133798), -1.0221684164485103, 0.018986331573767723,
         1.0),
    ]

    def test_false_accepts_are_the_corpus(self):
        found = []
        for spec, a, b, q in _poly_rows(16, 600):
            rep, _, sampled = self._claim(spec, a, b, q)
            if sampled.holds and not rep.holds:
                found.append((spec.params, a, b, q))
        assert found == self.FALSE_ACCEPTS

    @pytest.mark.parametrize("params, a, b, q", FALSE_ACCEPTS)
    def test_sampled_false_accept_rejected(self, params, a, b, q):
        spec = FunctionSpec("poly", params)
        rep, sizes, sampled = self._claim(spec, a, b, q)
        assert sampled.holds and sizes == []
        assert (rep.holds, rep.route, rep.witness) == (False, "exact", None)
        assert _p_excess(spec, q, a, b, rep.point) > 0.0

    @pytest.mark.parametrize("params, a, b, q, holds", [
        # 3|x^2 - 1/3| peaks at 0 between two roots: 1 > 0 + 0
        ((0.0, -1.0, 0.0, 1.0), -1.0, 1.0, 1.0, False),
        # 6 - 3x^2: g(0) = 36 > 9 + 9 at q = 2
        ((0.0, 6.0, 0.0, -1.0), -1.0, 1.0, 2.0, False),
        # |x^2 - 1| on [-3, 0.5]: peaks at 0, a root on its left
        ((0.0, -1.0, 0.0, 1.0 / 3.0), -3.0, 0.5, 1.0, False),
        # a double root of p at 0 and p' roots at 0 and 2/3: 4x^2 (1 - x)
        ((0.0, 0.0, 0.0, 4.0 / 3.0, -1.0), -0.5, 1.0, 1.0, False),
        ((0.0, 0.0, 0.0, 4.0 / 3.0, -1.0), 0.5, 0.9, 1.0, True),
        # a constant, and a tiny one next to 1 that the float scale keeps
        ((0.0, 2.0), -1.0, 1.0, 3.0, True),
        ((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-300), -1.0, 1.0, 1.0,
         True),
    ], ids=["between-roots", "peak-q2", "root-left", "double-root",
            "double-root-outside", "constant", "tiny-term"])
    def test_decided(self, params, a, b, q, holds):
        spec = FunctionSpec("poly", params)
        assert spec.p_test(q, a, b) is True if holds \
            else a <= spec.p_test(q, a, b) <= b
        rep, sizes, _ = self._claim(spec, a, b, q)
        assert (rep.holds, rep.route, sizes) == (holds, "exact", [])

    @pytest.mark.parametrize("b", [1.0 + 2.0 ** -40, 1.0 + 2.0 ** -20])
    def test_monotone_float_tie_is_decided(self, b):
        """p = x (x^2 - 3x + 3) rises from its root 0 through a flat point
        at 1, where p = 1, to b: g(1) - g(0) - g(b) is a tie in floats,
        and p(1) <= p(b) in integers settles it."""
        spec = FunctionSpec("poly", (0.0, 0.0, 1.5, -1.0, 0.25))
        for q in (1.0, 2.0):
            assert spec.p_test(q, 0.0, b) is True
            for h in (HModulus.constant(), HModulus.reciprocal()):
                tf, sizes = TestZeroClassRule._tf(
                    spec, ClassKind.H_CONVEX, h, q=q, a=0.0, b=b)
                assert certify_membership(tf) == MembershipReport(
                    True, 0.0, None, "exact")
                assert sizes == []

    def test_exact_tie_is_sampled(self):
        """6 - 3x^2 on [-1, 1] at q = 1: g(0) = 6 = g(-1) + g(1)."""
        spec = FunctionSpec("poly", (0.0, 6.0, 0.0, -1.0))
        assert spec.p_test(1.0, -1.0, 1.0) is None
        rep, sizes, sampled = self._claim(spec, -1.0, 1.0, 1.0)
        assert rep == sampled and rep.route == "sampled"
        assert sizes == [2000] * 3

    @pytest.mark.parametrize("params, q, a, b", [
        # |f'|^q is past the float range at the ends: the power overflows
        ((0.0, 1e200, 0.0, -1e200 / 3.0), 2.0, -0.5, 0.5),
        # f' = M x reaches the largest float M at b: |f'| is a float, and
        # its bound rounded outward is not
        ((0.0, 0.0, sys.float_info.max / 2.0), 1.0, 0.0, 1.0),
    ], ids=["power", "outward"])
    def test_bound_past_the_float_range_is_none(self, params, q, a, b):
        assert FunctionSpec("poly", params).p_test(q, a, b) is None

    def test_past_the_float_range_is_sampled(self):
        """g = |1e300 (1 - 3x^2)|^3 is not a float: the sampled check
        raises as it does for any such g."""
        spec = FunctionSpec("poly", (0.0, 1e300, 0.0, -1e300))
        assert spec.p_test(3.0, -1.0, 1.0) is None
        tf, _ = TestZeroClassRule._tf(spec, ClassKind.H_CONVEX,
                                      HModulus.constant(), q=3.0, a=-1.0,
                                      b=1.0)
        with pytest.raises(OverflowError, match="not finite"):
            certify_membership(tf, 200)


def _known_roots(rng):
    """Dyadic roots, some double or triple, and the integer polynomial
    with just these roots and a random leading coefficient."""
    roots = [Fraction(int(rng.integers(-8, 9)), 2 ** int(rng.integers(3)))
             for _ in range(int(rng.integers(0, 5)))]
    roots += roots[:int(rng.integers(0, 3))]  # double or triple
    coeffs = [Fraction(int(rng.choice([-3, -1, 1, 2])))]
    for root in roots:  # times (x - root)
        coeffs = [(coeffs[i - 1] if i else 0)
                  - root * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return roots, [int(c * scale) for c in coeffs]


def _interval(rng):
    lo = Fraction(int(rng.integers(-20, 11)), 4)
    return lo, lo + Fraction(int(rng.integers(1, 41)), 4)


class TestNegativePoint:
    """sturm.negative_point against polynomials with known real roots,
    single and multiple, some on the ends of the interval."""

    def test_against_known_roots(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            roots, r = _known_roots(rng)
            lo, hi = _interval(rng)
            got = negative_point(r, lo.as_integer_ratio(),
                                 hi.as_integer_ratio())
            cuts = sorted({lo, hi, *(x for x in roots if lo < x < hi)})
            tests = [lo, hi, *((u + v) / 2 for u, v in zip(cuts, cuts[1:]))]
            negative = any(_poly_value(r, x) < 0 for x in tests)
            assert (got is not None) == negative, (roots, lo, hi)
            if got is not None:
                x = Fraction(*got)
                assert lo <= x <= hi and _poly_value(r, x) < 0


def test_sign_change_bisects_to_an_ulp():
    """-1 + 3x changes sign at 1/3, which no dyadic point is: the point
    lies within an ulp of it, where the bisection stops."""
    point = sturm.sign_change([-1, 3], (0, 1), (1, 1))
    assert abs(Fraction(*point) - Fraction(1, 3)) <= Fraction(
        math.ulp(1.0 / 3.0))


class TestRootIsolation:
    """sturm's roots, halve, has_root, value_range and strip_common against
    polynomials with known dyadic roots, some on the ends of the
    interval."""

    def test_roots_and_halve(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            roots, r = _known_roots(rng)
            lo, hi = _interval(rng)
            free, found = sturm.roots(r, lo.as_integer_ratio(),
                                      hi.as_integer_ratio())
            inside = sorted({x for x in roots if lo < x < hi})
            assert len(found) == len(inside), (roots, lo, hi)
            for root, interval in zip(inside, found):
                for _ in range(12):
                    u, v = (Fraction(*end) for end in interval)
                    assert lo <= u <= root <= v <= hi
                    assert u == v or (_poly_value(free, u)
                                      * _poly_value(free, v) < 0)
                    interval = sturm.halve(free, interval)

    def test_has_root(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            roots, r = _known_roots(rng)
            lo, hi = _interval(rng)
            assert sturm.has_root(r, lo.as_integer_ratio(),
                                  hi.as_integer_ratio()) \
                is any(lo <= x <= hi for x in roots)

    def test_value_range(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            _, r = _known_roots(rng)
            lo, hi = _interval(rng)
            m, n, d = sturm.value_range(r, lo.as_integer_ratio(),
                                        hi.as_integer_ratio())
            for k in range(9):
                value = _poly_value(r, lo + (hi - lo) * k / 8)
                assert Fraction(m, d) <= value <= Fraction(n, d)
            m, n, d = sturm.value_range(r, lo.as_integer_ratio(),
                                        lo.as_integer_ratio())
            assert Fraction(m, d) == Fraction(n, d) == _poly_value(r, lo)

    def test_strip_common(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            (f_roots, f), (g_roots, g) = _known_roots(rng), _known_roots(rng)
            # a root f has m times and g k times is left max(m - k, 0) times
            kept = {x: f_roots.count(x) - g_roots.count(x)
                    for x in f_roots if f_roots.count(x) > g_roots.count(x)}
            out = sturm.strip_common(f, g)
            assert len(out) - 1 == sum(kept.values())
            for x in set(f_roots):
                assert (_poly_value(out, x) == 0) is (x in kept)
