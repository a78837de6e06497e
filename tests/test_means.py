"""Tests for the special means and the two mean-inequality checks."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import (
    ClassCertificate, ClassKind, HModulus, RuleParams, TestFunction,
    arith_mean, bound_power_mean, integrate_adaptive, lhs_error, log_mean,
    p_log_mean, proposition1_check, proposition2_check, weighted_arith_mean,
)
from quadcert.errors import DomainError
from quadcert.means import (_mean_rule_error, _power_mean_value,
                            _proposition_constants)


class TestMeans:
    def test_weighted_arith(self):
        assert weighted_arith_mean(1.0, 3.0, 0.25) == pytest.approx(2.5)
        assert arith_mean(1.0, 3.0) == 2.0
        with pytest.raises(DomainError):
            weighted_arith_mean(1.0, 3.0, 1.5)

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_weighted_arith_refuses_non_finite_end(self, end):
        # an end of nan or -inf gave nan, and inf gave inf
        for a, b in ((end, 1.0), (1.0, end)):
            for mean, args in ((weighted_arith_mean, (a, b, 0.5)),
                               (arith_mean, (a, b))):
                with pytest.raises(DomainError, match="^weighted arithmetic "
                                   "mean needs finite a and b$"):
                    mean(*args)
            # the alpha check comes first
            with pytest.raises(DomainError,
                               match=r"^alpha must lie in \[0, 1\]$"):
                weighted_arith_mean(a, b, 1.5)
        with pytest.raises(DomainError):
            arith_mean(-math.inf, math.inf)

    def test_log_mean(self):
        assert log_mean(1.0, math.e) == pytest.approx(math.e - 1.0)
        # a NaN end returned nan
        for a, b in [(0.0, 1.0), (1.0, 1.0), (-2.0, 2.0), (math.nan, 1.0),
                     (1.0, math.inf)]:
            with pytest.raises(DomainError):
                log_mean(a, b)

    def test_p_log_mean_reductions(self):
        # p = 1 reduces to the arithmetic mean
        assert p_log_mean(2.0, 5.0, 1.0) == pytest.approx(3.5)
        # a NaN p returned nan and an infinite b inf
        for bad in [(0.0, 1.0, 2.0), (1.0, 1.0, 2.0),
                    (1.0, 2.0, 0.0), (1.0, 2.0, -1.0), (1.0, 2.0, math.nan),
                    (1.0, 2.0, math.inf), (1.0, math.inf, 2.0),
                    (math.nan, 2.0, 2.0)]:
            with pytest.raises(DomainError):
                p_log_mean(*bad)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.1, 2.0), gap=st.floats(0.1, 3.0),
           p=st.floats(0.2, 3.0))
    def test_p_log_mean_is_power_mean_integral(self, a, gap, p):
        # L_p(a,b)^p equals the mean value of t^p over [a, b]
        b = a + gap
        numeric = integrate_adaptive(lambda t: t ** p, a, b, 1e-13).value / gap
        assert p_log_mean(a, b, p) ** p == pytest.approx(numeric, rel=1e-11)

    def test_between_endpoints(self):
        a, b = 0.5, 4.0
        for p in (0.3, 1.0, 2.5):
            m = p_log_mean(a, b, p)
            assert a < m < b


def _power_tf(a, b, s, q, h_s):
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(h_s), q)
    return TestFunction(lambda x: x ** (s + 1.0),
                        lambda x: (s + 1.0) * x ** s, a, b, cert)


class TestMeanRuleError:
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.1, 2.0), gap=st.floats(0.1, 2.0),
           alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           s=st.floats(0.05, 0.9))
    def test_matches_oracle_lhs(self, a, gap, alpha, lam, s):
        # the closed-mean expression of the rule error agrees with the
        # quadrature-backed evaluation
        b = a + gap
        tf = _power_tf(a, b, s, 1.0, min(s, 1.0))
        rp = RuleParams(alpha, lam, 1.0)
        ends = _proposition_constants(a, b, 1.0, s)[:3]
        assert _mean_rule_error(a, b, alpha, lam, s, *ends) == pytest.approx(
            lhs_error(tf, rp), abs=1e-10)


class TestProposition1:
    def test_example(self):
        res = proposition1_check(1.0, 2.0, 0.5, 1.0 / 3.0, 2.0, 0.25)
        assert res.holds
        assert 0.0 <= res.lhs <= res.rhs

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.1, 2.0), gap=st.floats(0.1, 3.0),
           alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           q=st.floats(1.0, 4.0), frac=st.floats(0.05, 0.95))
    def test_always_holds(self, a, gap, alpha, lam, q, frac):
        s = frac / q  # keeps s inside (0, 1/q)
        res = proposition1_check(a, a + gap, alpha, lam, q, s)
        assert res.holds

    def test_rhs_equals_direct_bound_path(self):
        # |f'|^q for f = t^(s+1) is s-convex with parameter q*s, so the
        # full bound evaluator must reproduce the closed-form right side
        a, b, alpha, lam, q, s = 0.7, 2.4, 0.3, 0.6, 2.0, 0.2
        res = proposition1_check(a, b, alpha, lam, q, s)
        tf = _power_tf(a, b, s, q, q * s)
        direct = bound_power_mean(tf, RuleParams(alpha, lam, q))
        assert res.rhs == pytest.approx(direct.value, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            proposition1_check(-1.0, 2.0, 0.5, 0.5, 2.0, 0.25)
        with pytest.raises(DomainError):
            proposition1_check(2.0, 1.0, 0.5, 0.5, 2.0, 0.25)
        with pytest.raises(DomainError):
            proposition1_check(1.0, 2.0, 0.5, 0.5, 2.0, 0.75)  # s >= 1/q
        with pytest.raises(DomainError):
            proposition1_check(1.0, 2.0, 0.5, 0.5, 0.5, 0.25)  # q < 1
        with pytest.raises(DomainError):
            proposition1_check(1.0, 2.0, 1.5, 0.5, 2.0, 0.25)
        # an infinite b gave lhs = nan and holds = False
        with pytest.raises(DomainError, match="^need finite 0 < a < b$"):
            proposition1_check(1.0, math.inf, 0.5, 0.3, 1.0, 0.5)
        # b^(s+1) raised a bare OverflowError
        with pytest.raises(DomainError, match=r"^b\^\(s\+1\) leaves the "
                           r"float range at b=1e\+308$"):
            proposition1_check(1.0, 1e308, 0.5, 0.3, 1.0, 0.9)

    def test_boundary_alpha_one(self):
        # alpha = 1 weights the rule entirely at the left endpoint
        res = proposition1_check(1.0, 2.0, 1.0, 0.5, 2.0, 0.25)
        assert res.holds and math.isfinite(res.rhs)


class TestProposition2:
    def test_example(self):
        res = proposition2_check(1.0, 2.0, 0.5, 1.0 / 3.0, 2.0, 2.0, 0.25)
        assert res.holds
        assert 0.0 <= res.lhs <= res.rhs

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.1, 2.0), gap=st.floats(0.1, 3.0),
           alpha=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
           q=st.floats(1.2, 4.0), frac=st.floats(0.05, 0.95))
    def test_always_holds(self, a, gap, alpha, lam, q, frac):
        p = q / (q - 1.0)
        s = frac / q
        res = proposition2_check(a, a + gap, alpha, lam, p, q, s)
        assert res.holds

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            proposition2_check(1.0, 2.0, 0.5, 0.5, 2.0, 1.0, 0.25)  # q = 1
        with pytest.raises(DomainError):
            proposition2_check(1.0, 2.0, 0.5, 0.5, 3.0, 2.0, 0.25)  # not conj
        with pytest.raises(DomainError):
            proposition2_check(0.0, 2.0, 0.5, 0.5, 2.0, 2.0, 0.25)
        with pytest.raises(DomainError):
            proposition2_check(1.0, 2.0, 0.5, 0.5, 2.0, 2.0, 0.6)  # s >= 1/q
        # a NaN p failed no comparison and held
        with pytest.raises(DomainError, match="^need conjugate p, q > 1$"):
            proposition2_check(1.0, 2.0, 0.5, 0.3, math.nan, 2.0, 0.3)
        with pytest.raises(DomainError, match="^need finite 0 < a < b$"):
            proposition2_check(1.0, math.inf, 0.5, 0.3, 2.0, 2.0, 0.3)
        with pytest.raises(DomainError, match=r"^b\^\(s\+1\) leaves the "
                           r"float range at b=1e\+308$"):
            proposition2_check(1.0, 1e308, 0.5, 0.3, 2.0, 2.0, 0.45)

    def test_lhs_shared_with_proposition1(self):
        args = (1.3, 2.9, 0.4, 0.7)
        r1 = proposition1_check(*args, 2.0, 0.3)
        r2 = proposition2_check(*args, 2.0, 2.0, 0.3)
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-14)


def _prop_grids(rng, n_grids, n_points):
    """n_grids seeded (a, b, q, s) grids for each check, with n_points
    (alpha, lambda) each, as (check, (a, b), rest, points): a check reads
    check(a, b, alpha, lam, *rest)."""
    grids = []
    for i in range(2 * n_grids):
        a = float(rng.uniform(0.1, 3.0))
        b = a + float(rng.uniform(0.01, 4.0))
        q = float(rng.uniform(1.0 if i % 2 == 0 else 1.2, 4.0))
        s = float(rng.uniform(0.05, 0.95)) / q
        points = [tuple(map(float, rng.uniform(0.0, 1.0, 2)))
                  for _ in range(n_points)]
        if i % 2 == 0:
            grids.append((proposition1_check, (a, b), (q, s), points))
        else:
            grids.append((proposition2_check, (a, b),
                          (q / (q - 1.0), q, s), points))
    return grids


class TestPropositionConstants:
    """The checks read a^(s+1), b^(s+1), the mean, a^s, b^s and both
    moduli from a cache of one (a, b, q, s)."""

    def test_interleaved_grids_match_grid_by_grid(self):
        grids = _prop_grids(np.random.default_rng(4401), 4, 9)
        by_grid = [[repr(check(*ends, *point, *rest)) for point in points]
                   for check, ends, rest, points in grids]
        _proposition_constants.cache_clear()
        interleaved = [[] for _ in grids]
        for k in range(9):  # one point of each grid in turn: each misses
            for out, (check, ends, rest, points) in zip(interleaved, grids):
                out.append(repr(check(*ends, *points[k], *rest)))
        assert interleaved == by_grid
        info = _proposition_constants.cache_info()
        assert (info.hits, info.misses) == (0, 9 * len(grids))

    @pytest.mark.parametrize("check, args, want", [
        (proposition1_check, (0.6, 1.9, 0.25, 0.7, 2.0, 0.3),
         "PropositionResult(lhs=0.4804400818415948, rhs=0.5756648176087835,"
         " holds=True)"),
        (proposition1_check, (1.3, 2.9, 0.4, 0.7, 1.0, 0.9),
         "PropositionResult(lhs=0.7845548856148943, rhs=1.1604487948512001,"
         " holds=True)"),
        (proposition2_check, (0.6, 1.9, 0.25, 0.7, 2.0, 2.0, 0.3),
         "PropositionResult(lhs=0.4804400818415948, rhs=0.7203285943138106,"
         " holds=True)"),
        (proposition2_check, (1.3, 2.9, 0.9, 0.1, 3.0, 1.5, 0.5),
         "PropositionResult(lhs=1.3282063802035275, rhs=2.1616015113912437,"
         " holds=True)"),
    ])
    def test_pinned(self, check, args, want):
        # the values of the checks that built every constant per call
        for _ in range(2):  # a miss, then a hit
            assert repr(check(*args)) == want

    @pytest.mark.parametrize("args", [
        (1.0, 1e308, 0.5, 0.3, 1.0, 0.9),  # b^(s+1) overflows
        (1.0, 2.0, 0.5, 0.5, 2.0, 0.75),  # s >= 1/q
    ])
    def test_error_is_not_kept(self, args):
        for _ in range(3):
            with pytest.raises(DomainError):
                proposition1_check(*args)
        # nor does it stand for the next key
        assert proposition1_check(1.0, 2.0, 0.5, 0.5, 2.0, 0.25).holds

    def test_cached_key_checks_conjugacy(self):
        a, b, q, s = 1.3, 2.9, 2.0, 0.3
        assert proposition1_check(a, b, 0.4, 0.7, q, s).holds
        assert proposition2_check(a, b, 0.4, 0.7, 2.0, q, s).holds
        for p in (3.0, math.nan, 1.0):
            with pytest.raises(DomainError,
                               match="^need conjugate p, q > 1$"):
                proposition2_check(a, b, 0.4, 0.7, p, q, s)

    def test_key_is_typed(self):
        # int ends equal to float ones take b - a exactly in the mean of
        # t^(s+1), and so get a lhs of their own, whichever came first
        b = 2 ** 53 + 2
        rest = (0.25, 0.7, 2.0, 0.3)
        want = {int: "lhs=1.6336431338239758e+20",
                float: "lhs=1.6336431338239754e+20"}
        for kind in (int, float, int):
            got = repr(proposition1_check(kind(1), kind(b), *rest))
            assert want[kind] in got, (kind, got)


def _narrow(rng):
    """a in [0.1, 5] and b = a + a * 10^u, u uniform in [-13, 0]."""
    a = float(rng.uniform(0.1, 5.0))
    return a, a + a * 10.0 ** float(rng.uniform(-13.0, 0.0))


def _decimal_mean(a, b, p):
    """(b^(p+1) - a^(p+1)) / ((p+1)(b-a)) to 60 digits, or to the caller's
    precision if that is higher, from the floats."""
    with localcontext() as ctx:
        ctx.prec = max(60, ctx.prec)
        a, b, p1 = Decimal(a), Decimal(b), Decimal(p) + 1
        return (b ** p1 - a ** p1) / (p1 * (b - a))


def _decimal_p_log_mean(a, b, p):
    """L_p(a, b), the 1/p-th power of :func:`_decimal_mean`, to 60 digits
    from the floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (_decimal_mean(a, b, p).ln() / Decimal(p)).exp()


class TestNarrowIntervals:
    """Widths down to 1e-13 a, where b^(p+1) - a^(p+1) cancels."""

    def test_propositions_hold(self):
        # lhs <= rhs with no slack; the largest lhs/rhs measured is 0.993,
        # at a width of 4e-6 a with alpha near 1
        rng = np.random.default_rng(3601)
        for _ in range(300):
            a, b = _narrow(rng)
            alpha, lam = map(float, rng.uniform(0.0, 1.0, 2))
            q = float(rng.uniform(1.2, 4.0))
            s = float(rng.uniform(0.02, 0.98)) / q
            for res in (proposition1_check(a, b, alpha, lam, q, s),
                        proposition2_check(a, b, alpha, lam, q / (q - 1.0),
                                           q, s)):
                assert res.holds and res.lhs <= res.rhs, (a, b, alpha, lam,
                                                          q, s, res)

    def test_example(self):
        # the cancelling mean gave lhs 1.93e-5 here, against rhs 2.04e-13
        res = proposition1_check(1.0, 1.0 + 1e-12, 0.5, 1.0 / 3.0, 2.0, 0.3)
        assert res.holds and res.lhs <= res.rhs

    @pytest.mark.parametrize("draw", ["narrow", "wide", "extreme"])
    def test_mean_matches_decimal_referee(self, draw):
        # relative error at most 1e-15; the largest measured is 3.0e-16
        # (narrow), 3.8e-16 (wide) and 2.5e-16 (extreme), for p in [-3, 3]
        rng = np.random.default_rng(3602)
        for _ in range(300):
            p = float(rng.uniform(-3.0, 3.0))
            if draw == "narrow":
                a, b = _narrow(rng)
            else:  # b/a up to 1e8, or from 1e8 to 1e250
                lo, hi = (0.0, 8.0) if draw == "wide" else (8.0, 250.0)
                a = 10.0 ** float(rng.uniform(-100.0, 0.0) if draw == "extreme"
                                  else rng.uniform(-3.0, 3.0))
                b = a * 10.0 ** float(rng.uniform(lo, hi))
            want = _decimal_mean(a, b, p)
            if not Decimal("1e-300") < want < Decimal("1e300"):
                continue  # no float holds the mean
            got = _power_mean_value(a, b, p)
            assert abs(Decimal(got) / want - 1) <= Decimal("1e-15"), (a, b, p)

    def test_extreme_ratios_stay_finite(self):
        # b^(p+1) of the larger end, not a^p expm1(...)/u, which overflows
        assert p_log_mean(1e-200, 1.0, 2.0) == pytest.approx(
            math.sqrt(1.0 / 3.0), rel=1e-15)
        # for p < -1, c^p = a^p overflows where the mean does not
        mean = _power_mean_value(1e-252, 7.7e-70, -1.89)
        assert math.isfinite(mean)
        assert mean == pytest.approx(
            float(_decimal_mean(1e-252, 7.7e-70, -1.89)), rel=1e-15)

    @pytest.mark.parametrize("a, b, p", [
        (1e-200, 1e200, 0.5),  # d/c underflows to 0
        (1e-300, 1e10, -1.001),  # d/c overflows to inf
        (1e-160, 1e160, -0.999),  # d/c is subnormal, 1e-5 off in its log
    ])
    def test_ratio_past_normal_floats(self, a, b, p):
        want = float(_decimal_mean(a, b, p))
        assert _power_mean_value(a, b, p) == pytest.approx(want, rel=1e-15)
        # the root of the referee's mean in Decimal: want ** (1 / p) in
        # floats is itself 3.2e-14 off at p = -0.999
        assert p_log_mean(a, b, p) == pytest.approx(
            float(_decimal_p_log_mean(a, b, p)), rel=1e-14)

    @pytest.mark.parametrize("a, b", [
        (1.0, 1.0 + 1e-6), (1.0, 1.001), (1.0, 2.0), (1.0, 10.0),
        (1.0, 1e3), (1.0, 1e4), (1e-200, 1e200)])
    def test_p_log_mean_near_p_zero(self, a, b):
        """Within 1e-15 of an 80-digit referee for 0 < |p| <= 1/2, where a
        1/p-th root of the mean would multiply its error by 1/|p|: 1.0e-8
        off at p = 1e-8 on (1, 2).  The largest error measured is 4.7e-16;
        p = 0.7 on the widest range, where that root was 1.9e-14 off, is
        7.9e-17 off."""
        for p in (1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2, 0.3,
                  -0.3, 0.5, -0.5, 0.7):
            with localcontext() as ctx:
                ctx.prec = 80
                want = ((_decimal_mean(a, b, p).ln() / Decimal(p)).exp())
            got = p_log_mean(a, b, p)
            assert abs(Decimal(got) / want - 1) <= Decimal("1e-15"), (a, b, p)

    def test_p_log_mean_past_expm1_range(self):
        # p L = 727 at p = -1/2, where expm1(p L) overflows: e^L expm1(pL)
        # is taken as -e^((1+p) L) expm1(-p L)
        a, b = 5e-324, 1.7e308
        with localcontext() as ctx:
            ctx.prec = 80
            want = (_decimal_mean(a, b, -0.5).ln() * -2).exp()
        assert abs(Decimal(p_log_mean(a, b, -0.5)) / want - 1) \
            <= Decimal("1e-15")

    def test_closed_lhs_matches_oracle(self):
        # |closed - oracle| at most 2e-15 max(1, b^(s+1)); the largest
        # measured is 4.0e-16 max(1, b^(s+1)).  No finite difference can
        # check f' this narrow, so the check is skipped: f' is exact.
        rng = np.random.default_rng(3603)
        for _ in range(200):
            a, b = _narrow(rng)
            alpha, lam = map(float, rng.uniform(0.0, 1.0, 2))
            s = float(rng.uniform(0.05, 0.9))
            cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(s), 1.0)
            tf = TestFunction(lambda x: x ** (s + 1.0),
                              lambda x: (s + 1.0) * x ** s, a, b, cert,
                              skip_derivative_check=True)
            ends = _proposition_constants(a, b, 1.0, s)[:3]
            gap = abs(_mean_rule_error(a, b, alpha, lam, s, *ends)
                      - lhs_error(tf, RuleParams(alpha, lam, 1.0)))
            assert gap <= 2e-15 * max(1.0, b ** (s + 1.0)), (a, b, alpha,
                                                             lam, s)


def _scaled_draws(rng, n, p_lo, p_hi, ratios):
    """n (a, b, p), p uniform in (p_lo, p_hi), and b/a cycling through
    ratios: "narrow" 1 + 1e-13 to 2 and "wide" 1 to 1e8, a anywhere in
    1e+-250; "extreme" 1e8 to 1e250, and "past" from 1e-300 to 1e-160 to
    1e160 to 1e300, past the float range; a and b swapped half the
    time."""
    rows = []
    for i in range(n):
        p = float(rng.uniform(p_lo, p_hi))
        kind = ratios[i % len(ratios)]
        if kind == "narrow":
            a = 10.0 ** float(rng.uniform(-250.0, 250.0))
            b = a + a * 10.0 ** float(rng.uniform(-13.0, 0.0))
        elif kind == "wide":
            a = 10.0 ** float(rng.uniform(-250.0, 242.0))
            b = a * 10.0 ** float(rng.uniform(0.0, 8.0))
        elif kind == "extreme":
            a = 10.0 ** float(rng.uniform(-300.0, 0.0))
            b = a * 10.0 ** float(rng.uniform(8.0, 250.0))
        else:
            a, b = (10.0 ** float(rng.uniform(lo, lo + 140.0))
                    for lo in (-300.0, 160.0))
        rows.append((b, a, p) if rng.uniform() < 0.5 else (a, b, p))
    return rows


class TestScaledPLogMean:
    """L_p is homogeneous of degree 1, so it is a float wherever a and b
    are, though c^p and the mean of t^p may leave the floats."""

    @pytest.mark.parametrize("a, b, p", [
        (1e200, 2e200, 2.0),  # c^p overflows
        (1e-200, 1e200, 2.0),
        (1e200, 2e200, -2.0),  # c^p underflows to 0
        (1e-200, 2e-200, 2.0),  # the mean underflows to 0
        (1e-200, 2e-200, -2.0),
        (1e-200, 1e200, 0.7),
    ])
    def test_past_the_float_range(self, a, b, p):
        want = _decimal_p_log_mean(a, b, p)
        assert abs(Decimal(p_log_mean(a, b, p)) / want - 1) \
            <= Decimal("1e-15")

    @pytest.mark.parametrize("p", [-1.5, -3.0, -20.0])
    def test_ratio_past_the_float_range(self, p):
        # L_p / max(a, b) is below 1e-308 here, though L_p is a float
        want = _decimal_p_log_mean(1e-300, 1e300, p)
        assert abs(Decimal(p_log_mean(1e-300, 1e300, p)) / want - 1) \
            <= Decimal("3e-13")

    @pytest.mark.parametrize("seed, p_lo, p_hi, ratios, bound", [
        (1, 0.5, 3.0, ("narrow", "wide", "extreme", "past"), "4e-16"),
        (2, -0.5, 0.5, ("narrow", "wide", "extreme", "past"), "1e-15"),
        (3, -1.0, -0.5, ("narrow", "wide", "extreme", "past"), "1e-15"),
        (4, -3.0, -1.0, ("narrow", "wide"), "4e-15"),
        (5, -3.0, -1.0, ("extreme", "past"), "3e-13"),
    ], ids=["p>1/2", "|p|<=1/2", "-1<p<-1/2", "p<-1", "p<-1-extreme"])
    def test_against_decimal_referee(self, seed, p_lo, p_hi, ratios, bound):
        """Relative error against a 60-digit referee, within the bound of
        each band.  The largest errors measured on these draws are 1.9e-16
        (p > 1/2), 5.3e-16 (|p| <= 1/2), 5.7e-16 (-1 < p < -1/2), 1.2e-15
        (p < -1, b/a up to 1e8) and 1.6e-13 (p < -1, b/a past 1e8, where
        the error is about 2^-53 |ln(max(a, b)/L_p)|); over seeds 0 to 15
        of each band they are 3.2e-16, 6.8e-16, 7.8e-16, 2.7e-15 and
        2.1e-13."""
        rng = np.random.default_rng(seed)
        for a, b, p in _scaled_draws(rng, 100, p_lo, p_hi, ratios):
            want = _decimal_p_log_mean(a, b, p)
            assert abs(Decimal(p_log_mean(a, b, p)) / want - 1) \
                <= Decimal(bound), (a, b, p)
