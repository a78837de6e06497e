"""Tests for the coefficient families and weighted moments.

Closed forms are checked three ways: hand-derived fractions for pinned
parameter points, adaptive quadrature of the defining integrals (split at
the weight kink), and internal consistency between the specialized and the
general evaluation paths.
"""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import (
    ClassCertificate, ClassKind, HKind, HModulus, RuleParams, Side,
    TestFunction, abs_moment_p, arrays, bound_power_mean, bounds,
    branch_select,
    epsilon_coeffs, evaluate_bound,
    gamma_coeffs, integrate_adaptive, moments, upsilon_coeffs,
    weighted_moment,
)
from quadcert.arrays import power
from quadcert.bounds import (rhs_holder_hconcave, rhs_holder_hconvex,
                             rhs_power_mean)
from quadcert.errors import DomainError, EvaluationError, NotIntegrable
from quadcert.moments import (_clamp_moment, _power_forms, active_epsilons,
                              active_gamma_upsilon, weighted_pair)

param_floats = st.floats(0.0, 1.0)


def _numeric_left(rp, s=None, reflected=False, power=1.0):
    """Quadrature of the defining left integral, split at the kink."""
    u = 1.0 - rp.alpha
    w = rp.alpha * rp.lam
    if u == 0.0:
        return 0.0

    def g(t):
        base = abs(t - w) ** power
        if s is None:
            return base
        arg = 1.0 - t if reflected else t
        if arg <= 0.0 or arg >= 1.0:
            return 0.0
        return base * arg ** s

    return integrate_adaptive(g, 0.0, u, 1e-13, break_points=(w,)).value


def _numeric_right(rp, s=None, reflected=False, power=1.0):
    u = 1.0 - rp.alpha
    k = 1.0 - rp.lam * u
    if u == 1.0:
        return 0.0

    def g(t):
        base = abs(t - k) ** power
        if s is None:
            return base
        arg = 1.0 - t if reflected else t
        if arg <= 0.0 or arg >= 1.0:
            return 0.0
        return base * arg ** s

    return integrate_adaptive(g, u, 1.0, 1e-13, break_points=(k,)).value


class TestRuleParams:
    def test_range_validation(self):
        with pytest.raises(DomainError):
            RuleParams(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            RuleParams(0.5, 1.1, 1.0)
        with pytest.raises(DomainError):
            RuleParams(0.5, 0.5, 0.9)
        for q in (math.nan, math.inf):
            with pytest.raises(DomainError):
                RuleParams(0.5, 0.5, q)

    def test_conjugacy(self):
        for q in (1.2, 1.5, 2.0, 3.0, 7.5):
            assert RuleParams(0.5, 0.5, q).p == q / (q - 1.0)
        assert RuleParams(0.5, 0.5, 1.0).p is None

    def test_require_p(self):
        assert RuleParams(0.5, 0.5, 2.0).require_p() == 2.0
        with pytest.raises(DomainError):
            RuleParams(0.5, 0.5, 1.0).require_p()

    @pytest.mark.parametrize("q", [1.0, math.nan])
    def test_float_numpy_scalar_and_0d_array_agree(self, q):
        # a pair of floats skips the array copy and extent; an np.float64
        # and a 0-d array take them, to the same bits and the same errors
        values = (0.0, -0.0, 1.0, 1.5, math.nan, 5e-324)
        for alpha, lam in itertools.product(values, values):
            seen = []
            for kind in (float, np.float64, np.array):
                try:
                    rp = RuleParams(kind(alpha), kind(lam), q)
                except DomainError as exc:
                    seen.append(str(exc))
                else:
                    seen.append((
                        [float(v).hex() for v in (rp.u, rp.w, rp.lu, rp.hi)],
                        [bool(v) for v in (*rp.inside, *rp.empty)]))
            assert seen[0] == seen[1] == seen[2], (alpha, lam, q, seen)


def _three_way_ladder(alpha, lam):
    """Reference: the ordering of 1-alpha against both kinks, case by case."""
    u = 1.0 - alpha
    lo = alpha * lam
    hi = 1.0 - lam * (1.0 - alpha)
    if lo <= u <= hi:
        return "mid_order"
    if hi <= u:
        return "right_of_upper"
    return "left_of_lower"


class TestBranchSelect:
    def test_simpson_point(self):
        assert branch_select(RuleParams(0.5, 1.0 / 3.0, 1.0)) == "mid_order"

    def test_tie_goes_to_first(self):
        # alpha=1/2, lambda=1 makes all three order statistics equal 1/2
        assert branch_select(RuleParams(0.5, 1.0, 1.0)) == "mid_order"

    def test_left_of_lower(self):
        assert branch_select(RuleParams(0.9, 0.9, 1.0)) == "left_of_lower"

    def test_right_of_upper(self):
        # 1 - alpha = 0.9 above 1 - lambda(1-alpha) = 0.28
        assert branch_select(RuleParams(0.1, 0.8, 1.0)) == "right_of_upper"

    @settings(max_examples=100, deadline=None)
    @given(alpha=param_floats, lam=param_floats)
    def test_exactly_one_branch(self, alpha, lam):
        branch_select(RuleParams(alpha, lam, 1.0))  # never raises

    @pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 1.0])
    @pytest.mark.parametrize("alpha", [
        0.0, 0.5, 1.0, math.nextafter(0.5, -1.0), math.nextafter(0.5, 1.0)])
    def test_edges_and_ties_match_three_way_ladder(self, alpha, lam):
        rp = RuleParams(alpha, lam, 2.0)
        want = _three_way_ladder(alpha, lam)
        assert branch_select(rp) == want
        h = HModulus.identity()
        routes = [rhs_power_mean(h, rp, 1.0, 0.7, 2.1),
                  rhs_holder_hconvex(h, rp, 1.0, 1.3, 0.7, 2.1),
                  rhs_holder_hconcave(h, rp, 1.0, 0.9, 1.6)]
        assert [r.branch for r in routes] == [want] * 3
        # the ladder's branch names the active coefficient of each side
        g1, g2 = gamma_coeffs(rp)
        v1, v2 = upsilon_coeffs(rp)
        e1, e2, e3, e4 = epsilon_coeffs(rp)
        gamma, upsilon, eps_l, eps_r = {
            "mid_order": (g2, v2, e1, e3),
            "right_of_upper": (g2, v1, e1, e4),
            "left_of_lower": (g1, v2, e2, e3)}[want]
        comps = routes[0].components
        assert (comps["gamma"], comps["upsilon"]) == \
            (max(gamma, 0.0), max(upsilon, 0.0))
        u = 1.0 - alpha
        assert abs_moment_p(rp, Side.LEFT) == \
            (0.0 if u == 0.0 else eps_l / (rp.p + 1.0))
        assert abs_moment_p(rp, Side.RIGHT) == \
            (0.0 if u == 1.0 else eps_r / (rp.p + 1.0))


class TestGammaUpsilon:
    def test_simpson_values(self):
        g1, g2 = gamma_coeffs(RuleParams(0.5, 1.0 / 3.0, 1.0))
        assert g1 == pytest.approx(-1.0 / 24.0, abs=1e-15)
        assert g2 == pytest.approx(5.0 / 72.0, abs=1e-15)
        _, v2 = upsilon_coeffs(RuleParams(0.5, 1.0 / 3.0, 1.0))
        assert v2 == pytest.approx(5.0 / 72.0, abs=1e-15)

    def test_alpha_one_collapse(self):
        for lam in (0.0, 0.4, 1.0):
            g1, g2 = gamma_coeffs(RuleParams(1.0, lam, 1.0))
            assert g1 == 0.0
            assert g2 == pytest.approx(lam * lam, abs=1e-15)

    def test_midpoint_values(self):
        g1, g2 = gamma_coeffs(RuleParams(0.5, 0.0, 1.0))
        assert g1 == pytest.approx(-1.0 / 8.0, abs=1e-15)
        assert g2 == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_trapezoid_tie(self):
        v1, v2 = upsilon_coeffs(RuleParams(0.5, 1.0, 1.0))
        assert v1 == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert v2 == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_alpha_zero_upsilon(self):
        # at alpha=0 the right subinterval is empty: the active coefficient
        # upsilon1 vanishes while the inactive upsilon2 collapses to lam^2
        for lam in (0.2, 0.7):
            rp = RuleParams(0.0, lam, 1.0)
            v1, v2 = upsilon_coeffs(rp)
            assert v1 == pytest.approx(0.0, abs=1e-15)
            assert v2 == pytest.approx(lam * lam, abs=1e-15)
            assert _numeric_right(rp) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(alpha=param_floats, lam=param_floats)
    def test_active_branch_matches_quadrature(self, alpha, lam):
        rp = RuleParams(alpha, lam, 1.0)
        u, w = 1.0 - alpha, alpha * lam
        g1, g2 = gamma_coeffs(rp)
        active_g = g2 if w <= u else g1
        assert active_g == pytest.approx(_numeric_left(rp), abs=1e-12)
        k = 1.0 - lam * u
        v1, v2 = upsilon_coeffs(rp)
        active_v = v2 if u <= k else v1
        assert active_v == pytest.approx(_numeric_right(rp), abs=1e-12)

    def test_gamma_tie_equality(self):
        # at alpha*lam = 1-alpha both branch formulas give the same value
        alpha = 0.6
        lam = (1.0 - alpha) / alpha
        g1, g2 = gamma_coeffs(RuleParams(alpha, lam, 1.0))
        assert g1 == pytest.approx(g2, abs=1e-15)


class TestEpsilons:
    def test_simpson_p2(self):
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        e1, _, e3, _ = epsilon_coeffs(rp)
        assert e1 == pytest.approx(1.0 / 24.0, abs=1e-15)
        assert e3 == pytest.approx(1.0 / 24.0, abs=1e-15)

    def test_trapezoid_p2(self):
        e1, _, _, _ = epsilon_coeffs(RuleParams(0.5, 1.0, 2.0))
        assert e1 == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_requires_conjugate(self):
        with pytest.raises(DomainError):
            epsilon_coeffs(RuleParams(0.5, 0.5, 1.0))
        # q = 2 fixes p = 2: w = 1/4 and u - w = 1/4 give eps1 = 2/4^3
        assert epsilon_coeffs(RuleParams(0.5, 0.5, 2.0)) == pytest.approx(
            (1.0 / 32.0, 0.0, 1.0 / 32.0, 0.0), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(alpha=param_floats, lam=param_floats, q=st.floats(1.3, 4.0))
    def test_abs_moment_matches_quadrature(self, alpha, lam, q):
        rp = RuleParams(alpha, lam, q)
        assert abs_moment_p(rp, Side.LEFT) == pytest.approx(
            _numeric_left(rp, power=rp.p), abs=1e-12)
        assert abs_moment_p(rp, Side.RIGHT) == pytest.approx(
            _numeric_right(rp, power=rp.p), abs=1e-12)


class TestAbsMomentP:
    def test_simpson_left(self):
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        assert abs_moment_p(rp, Side.LEFT) == pytest.approx(1.0 / 72.0,
                                                            abs=1e-15)

    def test_full_interval_power(self):
        # alpha=0: the left integral is int_0^1 t^p dt
        for p in (1.5, 2.0, 3.0):
            rp = RuleParams(0.0, 0.0, p / (p - 1.0))
            assert abs_moment_p(rp, Side.LEFT) == pytest.approx(
                1.0 / (p + 1.0), abs=1e-15)
        # alpha=1, lambda=0: the right integral is int_0^1 (1-t)^p dt
        rp = RuleParams(1.0, 0.0, 2.0)
        assert abs_moment_p(rp, Side.RIGHT) == pytest.approx(1.0 / 3.0,
                                                             abs=1e-15)

    def test_empty_intervals(self):
        assert abs_moment_p(RuleParams(1.0, 0.5, 2.0), Side.LEFT) == 0.0
        assert abs_moment_p(RuleParams(0.0, 1.0, 2.0), Side.RIGHT) == 0.0


class TestMuEtaStar:
    """The paper's t^s moments mu*/eta*, read through weighted_moment."""

    def test_s1_matches_cubic_forms(self):
        # at s=1 the power-modulus moments reduce to the plain cubic table
        h = HModulus.identity()
        for alpha, lam in [(0.5, 1.0 / 3.0), (0.3, 0.8), (0.9, 0.2),
                           (0.0, 0.5), (1.0, 0.7)]:
            rp = RuleParams(alpha, lam, 1.0)
            w, u = alpha * lam, 1.0 - alpha
            if w <= u:
                mu1 = (w ** 3 + u ** 3) / 3.0 - w * u * u / 2.0
                assert weighted_moment(h, rp, Side.LEFT, False) == \
                    pytest.approx(mu1, abs=1e-14)
            if u <= 1.0 - lam * u:
                eta4 = (lam * u) ** 3 / 3.0 - lam * u * alpha ** 2 / 2.0 \
                    + alpha ** 3 / 3.0
                assert weighted_moment(h, rp, Side.RIGHT, True) == \
                    pytest.approx(eta4, abs=1e-14)

    def test_boundary_zeroes(self):
        rp = RuleParams(1.0, 1.0, 1.0)
        mu3 = weighted_moment(HModulus.power(0.5), rp, Side.LEFT, False)
        assert mu3 == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_left_moment(self):
        mu1 = weighted_moment(HModulus.power(0.5), RuleParams(0.5, 0.0, 1.0),
                              Side.LEFT, False)
        assert mu1 == pytest.approx(0.5 ** 2.5 / 2.5, abs=1e-15)


def _four_form_power_pair(rp, s, side, reflected):
    """The t^s moment pairs written out as four forms, one per moment."""
    alpha, lam = rp.alpha, rp.lam
    u = 1.0 - alpha
    w, lu = alpha * lam, lam * u
    s1, s2 = s + 1.0, s + 2.0
    c = 2.0 / (s1 * s2)
    base = alpha if reflected else u
    b1, b2 = power(base, s1), power(base, s2)
    if side is Side.LEFT and not reflected:
        return power(w, s2) * c - w * b1 / s1 + b2 / s2, w * b1 / s1 - b2 / s2
    if side is Side.LEFT:
        return (power(1.0 - w, s2) * c - (1.0 - w) * (1.0 + b1) / s1
                + (1.0 + b2) / s2,
                (w - 1.0) * (1.0 - b1) / s1 + (1.0 - b2) / s2)
    if not reflected:
        hi = 1.0 - lu
        return (power(hi, s2) * c - (1.0 + b1) * hi / s1 + (1.0 + b2) / s2,
                (1.0 - b2) / s2 - hi * (1.0 - b1) / s1)
    return (power(lu, s2) * c - lu * b1 / s1 + b2 / s2, lu * b1 / s1 - b2 / s2)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


EDGE_ALPHAS = [0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
               1.0]
EDGE_LAMS = [0.0, 1.0 / 3.0, 1.0]


class TestMirroredPowerForms:
    """The two mirrored t^s forms give the bits of the four written out."""

    @staticmethod
    def _rules():
        rng = np.random.default_rng(5)
        alphas = EDGE_ALPHAS + rng.uniform(0.0, 1.0, 40).tolist()
        lams = EDGE_LAMS + rng.uniform(0.0, 1.0, 40).tolist()
        return alphas, lams

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
    def test_same_bits_on_floats(self, s):
        alphas, lams = self._rules()
        for alpha in alphas:
            for lam in lams:
                rp = RuleParams(alpha, lam, 1.0)
                for side in Side:
                    for refl in (False, True):
                        got = _power_forms(rp, s)[side is Side.RIGHT, refl]
                        want = _four_form_power_pair(rp, s, side, refl)
                        assert [_bits(x) for x in got] == \
                            [_bits(x) for x in want], (alpha, lam, side, refl)

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
    def test_same_bits_on_a_grid(self, s):
        alphas, lams = self._rules()
        rp = RuleParams(np.array(alphas)[:, None], np.array(lams), 1.0)
        for side in Side:
            for refl in (False, True):
                got = _power_forms(rp, s)[side is Side.RIGHT, refl]
                want = _four_form_power_pair(rp, s, side, refl)
                assert [_bits(x) for x in got] == [_bits(x) for x in want]


class TestEmptySide:
    """A side of zero length has every moment exactly 0.

    alpha = 1e-17 rounds 1 - alpha to 1, which empties the right side;
    alpha = 1 empties the left side.
    """

    MODULI = [HModulus.constant(), HModulus.identity(), HModulus.power(0.5),
              HModulus.reciprocal(), HModulus.custom(math.sqrt)]

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha, side", [(1e-17, Side.RIGHT),
                                             (1.0, Side.LEFT)])
    def test_every_moment_is_zero(self, alpha, side, lam):
        rp = RuleParams(alpha, lam, 2.0)
        i = side is Side.RIGHT
        assert active_gamma_upsilon(rp)[i] == 0.0
        assert active_epsilons(rp)[i] == 0.0
        comps = rhs_power_mean(HModulus.identity(), rp, 1.0, 0.7,
                               2.1).components
        assert comps[("gamma", "upsilon")[i]] == 0.0
        assert abs_moment_p(rp, side) == 0.0
        for h in self.MODULI:
            for refl in (False, True):
                assert weighted_moment(h, rp, side, refl) == 0.0, (h, refl)


class TestWeightedMoment:
    def test_constant_equals_gamma(self):
        rp = RuleParams(0.5, 1.0 / 3.0, 1.0)
        val = weighted_moment(HModulus.constant(), rp, Side.LEFT, False)
        assert val == pytest.approx(5.0 / 72.0, abs=1e-15)

    def test_identity_equals_s1_moment(self):
        rp = RuleParams(0.5, 1.0 / 3.0, 1.0)
        val = weighted_moment(HModulus.identity(), rp, Side.LEFT, False)
        w, u = 0.5 / 3.0, 0.5
        mu1 = (w ** 3 + u ** 3) / 3.0 - w * u * u / 2.0
        assert val == pytest.approx(mu1, abs=1e-15)

    def test_power_midpoint(self):
        rp = RuleParams(0.5, 0.0, 1.0)
        val = weighted_moment(HModulus.power(0.5), rp, Side.LEFT, False)
        assert val == pytest.approx(0.5 ** 2.5 / 2.5, abs=1e-15)

    def test_empty_sides(self):
        rp1 = RuleParams(1.0, 0.5, 1.0)
        assert weighted_moment(HModulus.identity(), rp1, Side.LEFT,
                               False) == 0.0
        rp0 = RuleParams(0.0, 0.5, 1.0)
        assert weighted_moment(HModulus.identity(), rp0, Side.RIGHT,
                               True) == 0.0

    def test_custom_matches_power(self):
        # a custom modulus numerically reproducing t^0.6
        rp = RuleParams(0.35, 0.6, 1.0)
        custom = HModulus.custom(lambda t: t ** 0.6)
        for side in Side:
            for refl in (False, True):
                got = weighted_moment(custom, rp, side, refl)
                want = weighted_moment(HModulus.power(0.6), rp, side, refl)
                assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("alpha, lam, side, reflected, want", [
        # the weight |t - kink| is nonzero at the singular endpoint
        (0.5, 1.0 / 3.0, Side.LEFT, False, None),  # 1/t at t = 0
        (0.0, 0.5, Side.LEFT, True, None),         # 1/(1-t) at t = 1
        (1.0, 0.5, Side.RIGHT, False, None),       # 1/t at t = 0
        (0.5, 0.5, Side.RIGHT, True, None),        # 1/(1-t) at t = 1
        # it vanishes there: int t/t, int t/(1-t) over [0, 1/2] and
        # int (1-t)/t, int (1-t)/(1-t) over [1/2, 1]
        (0.5, 0.0, Side.LEFT, False, 0.5),
        (0.5, 0.0, Side.LEFT, True, math.log(2.0) - 0.5),
        (0.5, 0.0, Side.RIGHT, False, math.log(2.0) - 0.5),
        (0.5, 0.0, Side.RIGHT, True, 0.5),
    ], ids=["left-at-0", "left-reflected-at-1", "right-at-0",
            "right-reflected-at-1", "finite-left", "finite-left-reflected",
            "finite-right", "finite-right-reflected"])
    def test_reciprocal_divergence(self, alpha, lam, side, reflected, want):
        rp = RuleParams(alpha, lam, 1.0)
        if want is None:
            with pytest.raises(NotIntegrable):
                weighted_moment(HModulus.reciprocal(), rp, side, reflected)
        else:
            val = weighted_moment(HModulus.reciprocal(), rp, side, reflected)
            assert val == pytest.approx(want, abs=1e-11)

    @pytest.mark.xfail(strict=True, reason="h is called at 1 - t, which "
                       "rounds to 1 within 1e-16 of t = 0 and counts as 0")
    def test_reflected_moment_singular_at_one(self):
        # h(1 - t) = t^-1/2: int_0^1/2 |t - 1/4| t^-1/2 dt in closed form;
        # the rule returns 0.21548219928863815, 3.85e-9 short
        h = HModulus.custom(lambda t: (1.0 - t) ** -0.5)
        exact = (1.0 / 6.0 + 2.0 / 3.0 * (0.5 ** 1.5 - 0.125)
                 - 0.5 * (0.5 ** 0.5 - 0.5))
        got = weighted_moment(h, RuleParams(0.5, 0.5, 1.0), Side.LEFT, True)
        assert abs(got - exact) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.02, 0.98), lam=param_floats,
           s=st.floats(0.1, 1.0))
    def test_power_closed_form_vs_quadrature(self, alpha, lam, s):
        rp = RuleParams(alpha, lam, 1.0)
        h = HModulus.power(s)
        for side, refl, numeric in [
                (Side.LEFT, False, _numeric_left(rp, s=s)),
                (Side.LEFT, True, _numeric_left(rp, s=s, reflected=True)),
                (Side.RIGHT, False, _numeric_right(rp, s=s)),
                (Side.RIGHT, True, _numeric_right(rp, s=s, reflected=True))]:
            assert weighted_moment(h, rp, side, refl) == pytest.approx(
                numeric, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(alpha=param_floats, lam=param_floats, s=st.floats(0.1, 1.0))
    def test_active_moments_nonnegative(self, alpha, lam, s):
        rp = RuleParams(alpha, lam, 1.0)
        for h in (HModulus.identity(), HModulus.power(s),
                  HModulus.constant()):
            for side in Side:
                for refl in (False, True):
                    assert weighted_moment(h, rp, side, refl) >= 0.0


def _exact_moment(weight, cuts, rp, side, reflected):
    """int |t - kink| * weight(t or 1-t) over one side, split at the kink
    and at the cuts; Simpson's rule is exact on each quadratic piece."""
    u = 1.0 - rp.alpha
    lo, hi, kink = ((0.0, u, rp.alpha * rp.lam) if side is Side.LEFT
                    else (u, 1.0, 1.0 - rp.lam * u))
    inner = [1.0 - c if reflected else c for c in cuts] + [kink]
    edges = sorted({lo, hi} | {x for x in inner if lo < x < hi})

    def g(t):
        return abs(t - kink) * weight(1.0 - t if reflected else t)

    return sum((x1 - x0) / 6.0 * (g(x0) + 4.0 * g(0.5 * (x0 + x1)) + g(x1))
               for x0, x1 in zip(edges, edges[1:]))


class TestInteriorKinkModulus:
    """A custom modulus with a kink inside a moment piece, h = |t - c| + 0.1.

    No endpoint-clustered rule settles on such a piece, so its moments
    must still come out right from the adaptive fallback.
    """

    RULES = [(0.5, 1.0 / 3.0), (0.3, 0.6), (0.8, 0.2), (0.5, 0.0),
             (0.1, 0.9)]

    @pytest.mark.parametrize("c", [0.5, 0.37, 0.123456])
    def test_weighted_moment(self, c):
        weight = lambda t: abs(t - c) + 0.1
        h = HModulus.custom(weight)
        for alpha, lam in self.RULES:
            rp = RuleParams(alpha, lam, 1.0)
            for side in Side:
                for refl in (False, True):
                    want = _exact_moment(weight, [c], rp, side, refl)
                    assert weighted_moment(h, rp, side, refl) == \
                        pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("c", [0.5, 0.37, 0.123456])
    def test_bound_power_mean(self, c):
        # only the bound's arithmetic is checked, not the certificate
        h = HModulus.custom(lambda t: abs(t - c) + 0.1)
        tf = TestFunction(lambda x: x ** 3, lambda x: 3.0 * x * x, 0.5, 1.5,
                          ClassCertificate(ClassKind.H_CONVEX, h, 2.0))
        d_a2, d_b2 = 0.75 ** 2, 6.75 ** 2
        for alpha, lam in self.RULES:
            rp = RuleParams(alpha, lam, 2.0)

            def m(side, refl, weight=h.fn):
                return _exact_moment(weight, [c], rp, side, refl)

            big_a = d_b2 * m(Side.LEFT, False) + d_a2 * m(Side.LEFT, True)
            big_b = d_b2 * m(Side.RIGHT, False) + d_a2 * m(Side.RIGHT, True)
            plain_l = m(Side.LEFT, False, lambda t: 1.0)
            plain_r = m(Side.RIGHT, False, lambda t: 1.0)
            want = math.sqrt(plain_l * big_a) + math.sqrt(plain_r * big_b)
            assert bound_power_mean(tf, rp).value == pytest.approx(
                want, rel=1e-10)


def _pair_inputs(rng):
    """Rules with alpha at and within 1e-15 of its ends, then seeded ones;
    seeded coefficients |f'|^2, then pairs with one of them 0."""
    rules = [(alpha, lam) for alpha in (0.0, 1e-15, 1.0 - 1e-15, 1.0)
             for lam in (0.0, 0.3, 1.0)]
    rules += [tuple(map(float, rng.uniform(0.0, 1.0, 2))) for _ in range(12)]
    coeffs = [tuple(map(float, rng.uniform(0.0, 3.0, 2) ** 2))
              for _ in range(3)]
    return rules, coeffs + [(0.0, 1.7), (2.2, 0.0)]


class TestWeightedPair:
    """One side's plain and reflected moments weighted by c_plain and
    c_reflected: a named modulus's closed forms, and a custom modulus's in
    one tanh-sinh pass per piece."""

    # the bench's scalar-only moduli, and a kink that only the adaptive
    # fallback integrates (in the pair, at 0.37 and 0.63 in one piece)
    SMOOTH = {"sqrt": math.sqrt, "pow": lambda t: math.pow(t, 0.7),
              "sin": lambda t: math.sin(0.5 * math.pi * t),
              "quad": lambda t: t * (2.0 - t)}
    KINKED = lambda t: abs(t - 0.37) + 0.1
    RULES, COEFFS = _pair_inputs(np.random.default_rng(20126))

    @staticmethod
    def _apart(h, rp, side, c_plain, c_reflected):
        return (c_plain * weighted_moment(h, rp, side, False)
                + c_reflected * weighted_moment(h, rp, side, True))

    def _cases(self, rules):
        for (alpha, lam), coeffs in itertools.product(rules, self.COEFFS):
            for side in Side:
                yield RuleParams(alpha, lam, 2.0), side, coeffs

    @pytest.mark.parametrize("name", SMOOTH)
    def test_matches_moments_apart(self, name):
        # largest |pair / apart - 1| measured: 4.4e-16 (sin: 3.3e-16)
        h = HModulus.custom(self.SMOOTH[name])
        for rp, side, coeffs in self._cases(self.RULES):
            want = self._apart(h, rp, side, *coeffs)
            assert weighted_pair(h, rp, side, *coeffs) == pytest.approx(
                want, rel=1e-15, abs=0.0), (rp, side, coeffs)

    def test_kinked_matches_moments_apart(self):
        # each piece settles to TOL = 1e-12 on the weights' convex
        # combination; largest |pair - apart| / (c_plain + c_reflected)
        # measured 1.3e-12, against TestInteriorKinkModulus's 1e-11
        h = HModulus.custom(TestWeightedPair.KINKED)
        for rp, side, coeffs in self._cases(TestInteriorKinkModulus.RULES):
            want = self._apart(h, rp, side, *coeffs)
            got = weighted_pair(h, rp, side, *coeffs)
            assert abs(got - want) <= 1e-11 * sum(coeffs), (rp, side, coeffs)

    @pytest.mark.parametrize("name", [*SMOOTH, "kinked"])
    def test_scaled_coefficients_cost_the_same(self, name):
        # the pair settles on c/(c_plain + c_reflected), not on c: both
        # coefficients 1e6 times larger scale the value and not the count
        fn = self.SMOOTH.get(name, TestWeightedPair.KINKED)
        calls = []

        def counted(t):
            calls.append(t)
            return fn(t)

        h = HModulus.custom(counted)
        for rp, side, coeffs in self._cases(self.RULES[:18]):
            calls.clear()
            value = weighted_pair(h, rp, side, *coeffs)
            n = len(calls)
            calls.clear()
            big = weighted_pair(h, rp, side, *(1e6 * c for c in coeffs))
            assert len(calls) == n, (rp, side, coeffs)
            assert big == pytest.approx(1e6 * value, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_no_more_samples_than_moments_apart(self, name):
        # one pass calls h twice per node; summed over the cases it samples
        # h no more often than the two moments apart (the kinked modulus
        # does: its fallback sees both kinks in one piece)
        calls = []
        fn = self.SMOOTH[name]

        def counted(t):
            calls.append(t)
            return fn(t)

        h = HModulus.custom(counted)
        pair = apart = 0
        for rp, side, coeffs in self._cases(self.RULES):
            calls.clear()
            weighted_pair(h, rp, side, *coeffs)
            pair += len(calls)
            calls.clear()
            self._apart(h, rp, side, *coeffs)
            apart += len(calls)
        assert pair <= apart

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0), (math.inf, 1.0), (1.0, math.inf), (math.inf, 0.0),
        (math.nan, 1.0), (-1.0, 1.0)],
        ids=["zero", "inf-plain", "inf-reflected", "inf-zero", "nan",
             "zero-sum"])
    def test_edge_coefficients_take_moments_apart(self, coeffs):
        # a sum that is 0 or not finite cannot be divided out; the moments
        # apart keep today's 0, inf or NaN, on an empty side too
        h = HModulus.custom(math.sqrt)
        for alpha in (0.0, 0.4, 1.0):
            rp = RuleParams(alpha, 0.3, 2.0)
            for side in Side:
                assert _bits(weighted_pair(h, rp, side, *coeffs)) == \
                    _bits(self._apart(h, rp, side, *coeffs)), (alpha, side)

    @pytest.mark.parametrize("d", [0.0, 1e200], ids=["zero", "overflow"])
    def test_edge_bound_matches_moments_apart(self, monkeypatch, d):
        # f'(a) = f'(b) = 0, or a |f'|^q that overflows to inf: the bound
        # keeps the 0 or inf of the four moments apart
        h = HModulus.custom(math.sqrt)
        d = np.float64(d)
        rp = RuleParams(0.5, 1.0 / 3.0, 2.0)
        with np.errstate(over="ignore"):
            got = rhs_power_mean(h, rp, 1.0, d, d)
            monkeypatch.setattr(bounds, "weighted_pair", self._apart)
            want = rhs_power_mean(h, rp, 1.0, d, d)
        assert _same_result(got, want)
        assert got.value == (0.0 if d == 0.0 else math.inf)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf],
                             ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("d", [0.0, 2.0])
    def test_bad_modulus_raises_through_bound(self, bad, d):
        # with or without the coefficients' edge, a bad value is refused
        h = HModulus.custom(lambda t: t if 0.1 < t < 0.9 else bad)
        tf = TestFunction(lambda x: d * x, lambda x: d, 0.0, 1.0,
                          ClassCertificate(ClassKind.H_CONVEX, h, 2.0))
        with pytest.raises(EvaluationError, match="custom modulus"):
            bound_power_mean(tf, RuleParams(0.5, 1.0 / 3.0, 2.0))

    NAMED = {"t": HModulus.identity(), "t^0.5": HModulus.power(0.5),
             "1": HModulus.constant(), "1/t": HModulus.reciprocal()}

    @pytest.mark.parametrize("name", NAMED)
    def test_named_moduli_are_their_moments_apart(self, name):
        # a named pair is c_plain * M + c_reflected * M_r to the bit; 1/t
        # raises where either moment diverges, even at a zero coefficient
        h, raised = self.NAMED[name], 0
        for rp, side, coeffs in self._cases(self.RULES):
            try:
                want = self._apart(h, rp, side, *coeffs)
            except NotIntegrable:
                raised += 1
                with pytest.raises(NotIntegrable):
                    weighted_pair(h, rp, side, *coeffs)
                continue
            got = weighted_pair(h, rp, side, *coeffs)
            assert _bits(got) == _bits(want), (rp, side, coeffs)
        # 1/t: 190 of the 240 cases diverge, the other 50 are compared
        assert raised == (190 if name == "1/t" else 0)

    @pytest.mark.parametrize("alpha, coeffs", [(0.5, (0.0, 1.7)),
                                               (0.0, (2.2, 0.0))])
    def test_reciprocal_diverges_at_zero_coefficient(self, alpha, coeffs):
        # the left plain moment of 1/t diverges at alpha = 0.5 and the
        # reflected one at alpha = 0; each raises with its coefficient 0
        rp = RuleParams(alpha, 0.3, 2.0)
        with pytest.raises(NotIntegrable):
            weighted_pair(HModulus.reciprocal(), rp, Side.LEFT, *coeffs)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_grid_is_its_moments_apart(self, name):
        # on a grid too; 1/t's lambda = 0 keeps every point's moments finite
        h = self.NAMED[name]
        lams = np.array([0.0]) if name == "1/t" else np.array([0.0, 0.4, 1.0])
        grid = RuleParams(np.array([0.1, 0.5, 0.9])[:, None], lams, 2.0)
        c_plain = np.linspace(0.5, 2.5, lams.size)
        for side in Side:
            got = weighted_pair(h, grid, side, c_plain, 0.7)
            assert got.shape == (3, lams.size)
            assert _bits(got) == _bits(self._apart(h, grid, side, c_plain,
                                                   0.7))

    def test_grid_matches_points(self):
        h = HModulus.custom(math.sqrt)
        alphas, lams = np.array([0.0, 0.3, 1.0])[:, None], np.array([0.2, 1.0])
        grid = RuleParams(alphas, lams, 2.0)
        c_plain = np.array([1.5, 0.0])
        for side in Side:
            got = weighted_pair(h, grid, side, c_plain, 0.7)
            assert got.shape == (3, 2)
            for i, j in itertools.product(range(3), range(2)):
                rp = RuleParams(float(alphas[i, 0]), float(lams[j]), 2.0)
                assert _bits(got[i, j]) == _bits(
                    weighted_pair(h, rp, side, float(c_plain[j]), 0.7))


def _tf_cubic(h, q, kind=ClassKind.H_CONVEX):
    """x^3 on [0.5, 1.5]; the bounds read only its |f'| and certificate."""
    return TestFunction(lambda x: x ** 3, lambda x: 3.0 * x * x, 0.5, 1.5,
                        ClassCertificate(kind, h, q))


def _same_result(got, want):
    """Value, branch and components of two BoundResults, bit for bit."""
    return (_bits(got.value) == _bits(want.value)
            and np.array_equal(got.branch, want.branch)
            and got.components.keys() == want.components.keys()
            and all(_bits(got.components[k]) == _bits(want.components[k])
                    for k in want.components))


class TestRuleTable:
    """Each RuleParams holds its kinks and branch masks and a memo, so the
    bounds evaluated on it share the branch names, gamma/upsilon, the
    epsilons and the t^s moments."""

    @staticmethod
    def _grid():  # 5x5, with the ties and ends of EDGE_ALPHAS and EDGE_LAMS
        return np.array(EDGE_ALPHAS)[:, None], np.array(EDGE_LAMS + [0.6, 0.9])

    def test_twelve_array_powers(self, monkeypatch):
        # u^(s+1), u^(s+2), alpha^(s+1), alpha^(s+2) and the four kinks^(s+2)
        # in the memo, and the bound's four outer powers: twelve powers in
        # nine calls, the four kinks stacked into one
        tf = _tf_cubic(HModulus.power(0.4), 2.0)
        rp = RuleParams(*self._grid(), 2.0)
        stacked = []

        def counted(x, e):
            if isinstance(x, np.ndarray):
                stacked.append(len(x) if x.ndim == 3 else 1)
            return power(x, e)

        for mod in (moments, bounds, arrays):
            monkeypatch.setattr(mod, "power", counted)
        bound_power_mean(tf, rp)
        assert sorted(stacked) == [1] * 8 + [4]

    @pytest.mark.parametrize("h", [HModulus.identity(), HModulus.power(0.4),
                                   HModulus.constant()],
                             ids=["t", "t^0.4", "1"])
    def test_each_shared_part_computed_once(self, monkeypatch, h):
        counts = collections.Counter()

        def spy(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for name in ("gamma_coeffs", "upsilon_coeffs", "epsilon_coeffs",
                     "_power_forms"):
            monkeypatch.setattr(moments, name,
                                spy(name, getattr(moments, name)))
        select = moments.select

        def counted_select(cond, if_true, if_false):
            if isinstance(if_true, str) and if_true == "mid_order":
                counts["branch"] += 1
            return select(cond, if_true, if_false)

        monkeypatch.setattr(moments, "select", counted_select)
        rp = RuleParams(*self._grid(), 2.0)
        convex, concave = _tf_cubic(h, 2.0), _tf_cubic(
            h, 2.0, ClassKind.H_CONCAVE)
        for bound, tf in [("power-mean", convex), ("holder", convex),
                          ("holder-concave", concave),
                          ("power-mean", convex)]:
            evaluate_bound(bound, tf, rp)
        assert counts == collections.Counter(
            gamma_coeffs=1, upsilon_coeffs=1, epsilon_coeffs=1, branch=1,
            _power_forms=h.kind is not HKind.CONSTANT)

    KINDS = ("power-mean", "holder", "holder-concave", "general-convex")

    @pytest.mark.parametrize("h", [HModulus.identity(), HModulus.power(0.4),
                                   HModulus.constant()],
                             ids=["t", "t^0.4", "1"])
    def test_kinds_in_any_order_match_fresh_rules(self, h):
        tfs = {kind: _tf_cubic(h, 2.0, bounds.BOUNDS[kind].class_kind)
               for kind in self.KINDS}
        fresh = {kind: evaluate_bound(kind, tfs[kind],
                                      RuleParams(*self._grid(), 2.0))
                 for kind in self.KINDS}
        for order in itertools.permutations(self.KINDS):
            rp = RuleParams(*self._grid(), 2.0)  # shared, as compare does
            for kind in order:
                assert _same_result(evaluate_bound(kind, tfs[kind], rp),
                                    fresh[kind]), (order, kind)

    def test_caller_write_leaves_bounds_unchanged(self):
        alphas, lams = self._grid()
        tf = _tf_cubic(HModulus.power(0.4), 2.0)
        want = bound_power_mean(tf, RuleParams(alphas.copy(), lams.copy(),
                                               2.0))
        rp = RuleParams(alphas, lams, 2.0)
        alphas[:] = 0.25  # before the memo is filled
        lams[:] = 0.75
        first = bound_power_mean(tf, rp)
        alphas[:] = 0.9  # and after
        lams[:] = 0.1
        assert _same_result(first, want)
        assert _same_result(bound_power_mean(tf, rp), want)

    def test_rule_arrays_are_read_only(self):
        rp = RuleParams(*self._grid(), 2.0)
        with pytest.raises(ValueError):
            rp.alpha[0, 0] = 0.5
        with pytest.raises(ValueError):
            rp.lam[0] = 0.5

    @pytest.mark.parametrize("name", ["alpha", "lam", "w", "memo"])
    def test_fields_are_frozen(self, name):
        for rp in (RuleParams(0.3, 0.6, 2.0), RuleParams(*self._grid(), 2.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rp, name, 0.5)

    def test_memo_outside_repr_eq_and_hash(self):
        rp, twin = RuleParams(0.3, 0.6, 2.0), RuleParams(0.3, 0.6, 2.0)
        before = repr(rp), hash(rp), rp == twin
        assert before == ("RuleParams(alpha=0.3, lam=0.6, q=2.0)", hash(twin),
                          True)
        for kind in self.KINDS:
            evaluate_bound(kind, _tf_cubic(HModulus.power(0.4), 2.0,
                                           bounds.BOUNDS[kind].class_kind), rp)
        assert rp.memo.keys() == {"branch", "gamma_upsilon", "epsilons", 0.4}
        assert (repr(rp), hash(rp), rp == twin) == before
        assert rp != RuleParams(0.3, 0.6, 2.5)


class TestClampMoment:
    def test_nonnegative_array_returned_as_is(self):
        val = np.array([[0.0, -0.0], [0.25, math.inf]])
        assert _clamp_moment(val) is val

    @pytest.mark.parametrize("val, want", [
        ([0.5, -1e-16, -0.0], [0.5, 0.0, -0.0]),
        ([-1e-13, 2.0], [0.0, 2.0]),
        # a NaN hides the minimum; the negative next to it still goes
        ([math.nan, -1e-16], [math.nan, 0.0]),
    ])
    def test_cancellation_negatives_zeroed(self, val, want):
        got = _clamp_moment(np.array(val))
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("val", [-1e-16, -1e-13])
    def test_cancellation_negative_float_zeroed(self, val):
        assert _clamp_moment(val) == 0.0

    @pytest.mark.parametrize("val", [-1.1e-13, np.array([0.5, -1e-12])])
    def test_larger_negatives_refused(self, val):
        with pytest.raises(AssertionError, match="came out negative"):
            _clamp_moment(val)
