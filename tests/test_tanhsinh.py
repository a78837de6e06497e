"""Tests for the tanh-sinh rule of the bound path's custom moments.

Values are checked against closed forms, and their bits, the moments' and
the samples' against a node-by-node reference; the stop at level 3 on a
geometric tail against that reference without it; the rule's independence
from the oracle is checked by making the oracle's integrator unusable, and
that only custom moduli reach the rule by making both unusable.
"""

import math

import numpy as np
import pytest

from quadcert import (ClassCertificate, ClassKind, HKind, HModulus,
                      RuleParams, Side, TestFunction, bound_power_mean,
                      h_integral_01, oracle, tanhsinh, weighted_moment)
from quadcert.errors import NonFiniteSample, NotIntegrable
from quadcert.moments import weighted_pair

K = 0.3  # the weight kink of the |t - K| cases


@pytest.mark.parametrize("g, a, b, exact", [
    (lambda t: t ** 3 - 2.0 * t + 1.0, 0.0, 1.0, 0.25),
    (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
    # the two pieces of a moment split at its weight kink, and the whole
    # interval, where the kink is interior and the rule falls back
    (lambda t: abs(t - K) * t ** 0.7, 0.0, K,
     K ** 2.7 * (1.0 / 1.7 - 1.0 / 2.7)),
    (lambda t: abs(t - K) * t ** 0.7, K, 1.0,
     (1.0 - K ** 2.7) / 2.7 - K * (1.0 - K ** 1.7) / 1.7),
    (lambda t: abs(t - K) * t ** 0.7, 0.0, 1.0,
     2.0 * K ** 2.7 * (1.0 / 1.7 - 1.0 / 2.7) + 1.0 / 2.7 - K / 1.7),
    (lambda t: t ** -0.5, 0.0, 1.0, 2.0),
    (math.log, 0.0, 1.0, -1.0),
], ids=["cubic", "sqrt", "kinked-left", "kinked-right", "kinked-whole",
        "inv-sqrt", "log"])
def test_closed_forms(g, a, b, exact):
    assert abs(tanhsinh.integrate(g, a, b) - exact) <= oracle.TOL


def test_tail_test_past_the_float_range():
    # the kinked-whole integrand scaled by 2^900: squares of its level
    # steps overflow, yet the tail test does not mistake it for settled,
    # and it falls back as at scale 1
    scale, nodes = 2.0 ** 900, []

    def g(t):
        nodes.append(t)
        return scale * (abs(t - K) * t ** 0.7)

    exact = 2.0 * K ** 2.7 * (1.0 / 1.7 - 1.0 / 2.7) + 1.0 / 2.7 - K / 1.7
    assert abs(tanhsinh.integrate(g, 0.0, 1.0) / scale - exact) <= (
        1e-14 * exact)
    assert len(nodes) > 145


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 0.7), (-2.0, 1e-3),
                                  (0.1, 0.1 + 1e-9)])
def test_ends_never_sampled(a, b):
    def g(t):
        if not a < t < b:
            raise AssertionError(f"sampled {t!r} outside ({a!r}, {b!r})")
        return math.sqrt(t - a) + abs(t - 0.5 * (a + b))

    tanhsinh.integrate(g, a, b)


def _reference_levels(g, a, b, tail=True):
    """The rule one node at a time, as first written: its value, the level
    it stopped at, or None where it fell back to the oracle, and the sum of
    each level it walked.

    A level ends the walk from level 2 on when it lies within tolerance of
    the level before.  With tail, level 3 also ends it when the ratio r of
    its step to level 2's is below 1 and the geometric tail of the steps
    to come, step r / (1 - r), is within tolerance; tail=False is the rule
    before that test."""
    half = 0.5 * (b - a)
    terms = []

    def sample(x, w):
        if x == a or x == b:
            return
        fx = float(g(x))
        if not math.isfinite(fx):
            raise NonFiniteSample(
                f"integrand is {fx!r} at the tanh-sinh node {x!r} "
                f"of [{a!r}, {b!r}]")
        terms.append(w * fx)

    sample(0.5 * (a + b), 0.5 * math.pi)
    values = []
    for k, level in enumerate(tanhsinh._LEVELS):
        for offset, w in level:
            sample(a + half * offset, w)
            sample(b - half * offset, w)
        values.append(half * 2.0 ** -k * math.fsum(terms))
        if k < 2:
            continue
        tol = max(oracle.TOL, 1e-14 * abs(values[k]))
        step, step_before = (abs(values[k] - values[k - 1]),
                             abs(values[k - 1] - values[k - 2]))
        if step <= tol:
            return values[k], k, values
        if tail and k == 3 and step < step_before:
            r = step / step_before
            if step * r / (1.0 - r) <= tol:
                return values[k], k, values
    return oracle.integrate_adaptive(g, a, b, oracle.TOL).value, None, values


def _reference_integrate(g, a, b):
    """The node-by-node reference that the one pass per level must match
    bit for bit."""
    return _reference_levels(g, a, b)[0]


@pytest.mark.parametrize("g, a, b", [
    (lambda t: t ** 3 - 2.0 * t + 1.0, 0.0, 1.0),
    (math.sqrt, 0.0, 1.0),
    (lambda t: t ** 0.7 * abs(t - K), 0.0, K),
    (lambda t: t ** 0.7 * abs(t - K), K, 1.0),
    (lambda t: math.sin(0.5 * math.pi * t), 0.2, 0.9),
    (lambda t: t * (2.0 - t), 0.0, 1.0),
    (lambda t: t ** -0.5, 0.0, 1.0),
    # an interior kink does not settle: both hand the piece to the oracle
    (lambda t: t ** 0.7 * abs(t - K), 0.0, 1.0),
    # a width of a few ulps, where nodes round onto the ends
    (math.sqrt, 0.1, 0.1 + 1e-16),
], ids=["cubic", "sqrt", "kinked-left", "kinked-right", "sin", "t(2-t)",
        "inv-sqrt", "kinked-fallback", "tiny"])
def test_matches_node_by_node_reference(g, a, b):
    assert tanhsinh.integrate(g, a, b) == _reference_integrate(g, a, b)


def test_nan_sample_raises():
    def g(t):
        return math.nan if t > 0.9 else t

    with pytest.raises(NonFiniteSample, match="nan") as got:
        tanhsinh.integrate(g, 0.0, 1.0)
    # the message names the first non-finite node, as node by node
    with pytest.raises(NonFiniteSample) as want:
        _reference_integrate(g, 0.0, 1.0)
    assert str(got.value) == str(want.value)


def _moment_rules(seed, n):
    """Scalar (alpha, lam): the ends 0 and 1, alpha within 1e-15 of them,
    where a piece is a few ulps wide, and n seeded ones."""
    rng = np.random.default_rng(seed)
    rules = [(alpha, lam) for alpha in (0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0)
             for lam in (0.0, 1.0 / 3.0, 1.0)]
    return rules + [tuple(map(float, rng.uniform(0.0, 1.0, 2)))
                    for _ in range(n)]


def _moment_calls(h, rules):
    """(scale, call) for each of the four moments per rule, and for each
    side's pair with both coefficients nonzero, the integrand every custom
    power-mean bound integrates; scale is the sum of the coefficients.
    Each call is to be made before the next is drawn."""
    for alpha, lam in rules:
        rp = RuleParams(alpha, lam, 1.0)
        for side in Side:
            for reflected in (False, True):
                yield 1.0, lambda: weighted_moment(h, rp, side, reflected)
            yield 2.0, lambda: weighted_pair(h, rp, side, 0.7, 1.3)


def _moment_outcomes(h, rules):
    """repr of the value of each of :func:`_moment_calls`."""
    return [repr(call()) for _, call in _moment_calls(h, rules)]


@pytest.mark.parametrize("h", [HModulus.custom(math.sqrt),
                               HModulus.custom(lambda t: t ** 0.7)],
                         ids=["sqrt", "t^0.7"])
def test_moments_match_node_by_node_reference(h, monkeypatch):
    rules = _moment_rules(2505, 12)
    got = _moment_outcomes(h, rules)
    monkeypatch.setattr(tanhsinh, "integrate", _reference_integrate)
    assert got == _moment_outcomes(h, rules)


# the bench's four scalar-only custom moduli
SCALAR_MODULI = [math.sqrt, lambda t: math.pow(t, 0.7),
                 lambda t: math.sin(0.5 * math.pi * t),
                 lambda t: t * (2.0 - t)]
SCALAR_IDS = ["sqrt", "t^0.7", "sin", "t(2-t)"]


def _nodes(integrate, g, a, b):
    """integrate's value of g over [a, b], and the nodes it sampled."""
    nodes = []

    def counted(t):
        nodes.append(t)
        return g(t)

    return integrate(counted, a, b), nodes


@pytest.mark.parametrize("fn", SCALAR_MODULI, ids=SCALAR_IDS)
def test_moments_near_two_level_rule(fn):
    # stopping at level 3 on a geometric tail moves a moment or pair off
    # the value of the rule that stops on two levels alone by no more than
    # the tails its pieces accepted, to rounding, and spares level 4 on
    # some piece of each modulus
    integrate, tails, spared = tanhsinh.integrate, [], []

    def two_level(g, a, b):
        _, nodes = _nodes(integrate, g, a, b)
        (_, level, sums), want = _nodes(_reference_levels, g, a, b)
        # the rule samples the reference's nodes, so stops at its level
        assert nodes == want
        value, before, _ = _reference_levels(g, a, b, tail=False)
        if (before, level) == (4, 3):
            d2, d3 = abs(sums[2] - sums[1]), abs(sums[3] - sums[2])
            tails.append(d3 * d3 / (d2 - d3))
        return value

    h = HModulus.custom(fn)
    for scale, call in _moment_calls(h, _moment_rules(4001, 16)):
        got = call()
        tails.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tanhsinh, "integrate", two_level)
            want = call()
        assert abs(got - want) <= (1e-15 * max(1.0, abs(want))
                                   + scale * sum(tails))
        spared += tails
    assert spared


@pytest.mark.parametrize("h", [HModulus.identity(), HModulus.power(0.4),
                               HModulus.constant(), HModulus.reciprocal()],
                         ids=["t", "t^0.4", "1", "1/t"])
def test_named_moments_take_no_quadrature(h, monkeypatch):
    # every named modulus's moments are closed forms: neither the bound
    # path's rule nor the oracle's integrator is called, at alpha within
    # 1e-15 of its ends, where a 1/t moment ends that close to its pole
    def refuse(*args, **kwargs):
        raise AssertionError("a named modulus's moment was integrated")

    monkeypatch.setattr(tanhsinh, "integrate", refuse)
    monkeypatch.setattr(oracle, "integrate_adaptive", refuse)
    rng = np.random.default_rng(2701)
    rules = [(alpha, lam) for alpha in (0.0, 1e-15, 1.0 - 1e-15, 1.0)
             for lam in (0.0, 1e-15, 0.5, 1.0)]
    rules += [tuple(map(float, rng.uniform(0.0, 1.0, 2))) for _ in range(20)]
    alphas, lams = np.array(rules).T
    for rp in [RuleParams(alpha, lam, 1.0) for alpha, lam in rules] + [
            RuleParams(alphas, 0.0, 1.0), RuleParams(alphas, lams, 1.0)]:
        for side in Side:
            for reflected in (False, True):
                try:
                    value = weighted_moment(h, rp, side, reflected)
                except NotIntegrable:
                    # 1/t alone diverges, and never at lam = 0 with
                    # 0 < alpha < 1, where all four of its moments exist
                    assert h.kind is HKind.RECIPROCAL
                    assert not (np.all(rp.lam == 0.0) and np.all(
                        (0.0 < rp.alpha) & (rp.alpha < 1.0)))
                    continue
                assert np.all(np.isfinite(value) & (value >= 0.0))


def test_samples_match_node_by_node_reference():
    # an interior kink: every level up to MAX_LEVEL, then the fallback
    def sampled(integrate):
        calls = []

        def g(t):
            calls.append(t)
            return t ** 0.7 * abs(t - K)

        integrate(g, 0.0, 1.0)
        return calls

    got = sampled(tanhsinh.integrate)
    assert len(got) > 145 and got == sampled(_reference_integrate)


def _level0_node():
    """The upper node of level 0's second offset on [0, 1]."""
    return 1.0 - 0.5 * tanhsinh._LEVELS[0][1][0]


def _level0_low_node():
    """The lower node of level 0's second offset on [0, 1], the pair's
    node above a, sampled before its node below b."""
    return 0.5 * tanhsinh._LEVELS[0][1][0]


@pytest.mark.parametrize("bad", [lambda: 0.5, _level0_node,
                                 _level0_low_node],
                         ids=["centre", "level-0", "level-0-above-a"])
def test_nan_node_message_matches_reference(bad):
    def failed(integrate):
        """The error integrate raises, and the nodes at which g was called."""
        calls = []

        def g(t):
            calls.append(t)
            return math.nan if t == bad() else t

        with pytest.raises(NonFiniteSample) as err:
            integrate(g, 0.0, 1.0)
        return str(err.value), calls

    got, got_calls = failed(tanhsinh.integrate)
    want, want_calls = failed(_reference_integrate)
    assert got == want
    assert repr(bad()) in got
    # g is not called past the bad node
    assert got_calls == want_calls and got_calls[-1] == bad()


def test_sqrt_evaluation_count():
    calls = []

    def g(t):
        calls.append(t)
        return math.sqrt(t)

    tanhsinh.integrate(g, 0.0, 1.0)
    assert len(calls) == 62


def test_node_table():
    # levels 0..4 hold 145 nodes: 9 * 2^k + 1 at level k
    assert 1 + 2 * sum(len(level) for level in tanhsinh._LEVELS) == 145


class TestIndependentOfOracle:
    """The bound path's moments settle without the oracle's integrator."""

    @pytest.fixture(autouse=True)
    def no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle.integrate_adaptive was called")

        monkeypatch.setattr(oracle, "integrate_adaptive", refuse)

    @pytest.mark.parametrize("fn, twin", [
        (math.sqrt, HModulus.power(0.5)),
        (lambda t: math.sin(0.5 * math.pi * t), None),
    ], ids=["sqrt", "sin"])
    def test_bound_power_mean(self, fn, twin):
        def tf_for(h):
            cert = ClassCertificate(ClassKind.H_CONVEX, h, 2.0)
            return TestFunction(lambda x: x ** 3, lambda x: 3.0 * x * x,
                                0.5, 1.5, cert)

        for alpha, lam in [(0.5, 1.0 / 3.0), (0.2, 0.7), (0.9, 0.1),
                           (0.5, 0.0)]:
            rp = RuleParams(alpha, lam, 2.0)
            got = bound_power_mean(tf_for(HModulus.custom(fn)), rp).value
            assert math.isfinite(got) and got > 0.0
            if twin is not None:
                want = bound_power_mean(tf_for(twin), rp).value
                assert got == pytest.approx(want, rel=1e-12)

    def test_bound_evaluation_count(self):
        # q = 2, with the two-level rule's bits: at (0.2, 0.7), and for sin
        # at Simpson's rule, level 3 stops on its geometric tail where that
        # rule took 418 and 614 calls, walking level 4; the modulus is
        # called on Python floats only
        for fn, alpha, lam, calls, value in [
                (math.sqrt, 0.5, 1.0 / 3.0, 414, 0.7733466156370936),
                (math.sqrt, 0.2, 0.7, 316, 1.9266815134697826),
                (SCALAR_MODULI[2], 0.5, 1.0 / 3.0, 414, 0.759323588258594)]:
            args = []

            def h(t):
                args.append(t)
                return fn(t)

            cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.custom(h),
                                    2.0)
            tf = TestFunction(lambda x: x ** 3, lambda x: 3.0 * x * x, 0.5,
                              1.5, cert)
            got = bound_power_mean(tf, RuleParams(alpha, lam, 2.0)).value
            assert (len(args), got) == (calls, value)
            assert {type(t) for t in args} == {float}

    def test_h_integral_evaluation_count(self):
        # level 3 stops on its geometric tail, where the two-level rule
        # walked level 4: 123 calls and 0.6366197723675813
        args = []

        def sin(t):
            args.append(t)
            return math.sin(0.5 * math.pi * t)

        value = h_integral_01(HModulus.custom(sin))
        assert (len(args), value) == (62, 2.0 / math.pi)

    def test_h_integral(self):
        assert h_integral_01(HModulus.custom(math.sqrt)) == pytest.approx(
            2.0 / 3.0, abs=oracle.TOL)


def test_kinked_piece_falls_back_as_before(monkeypatch):
    # |t - 0.5| + 0.1 has a kink inside (0, 1): its integral fails both
    # stop tests and falls back to the oracle, with the two-level rule's
    # value
    adaptive, fallbacks = oracle.integrate_adaptive, []

    def counted(g, a, b, tol):
        fallbacks.append((a, b))
        return adaptive(g, a, b, tol)

    monkeypatch.setattr(oracle, "integrate_adaptive", counted)
    kinked = HModulus.custom(lambda t: abs(t - 0.5) + 0.1)
    got = h_integral_01(kinked)
    assert fallbacks == [(0.0, 1.0)]
    monkeypatch.setattr(tanhsinh, "integrate", lambda g, a, b:
                        _reference_levels(g, a, b, tail=False)[0])
    assert got == h_integral_01(kinked)
    assert abs(got - 0.35) <= oracle.TOL
