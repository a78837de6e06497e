"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Every criterion re-derives its expected values independently of the library
paths under test: a vectorized Gauss-Legendre comparator with
polynomializing substitutions for the moment closed forms, hand-written
antiderivatives for the cubic reductions, published coefficient forms for
the fixed-parameter specializations, and certified random witnesses for the
soundness sweeps.
"""

import subprocess
import sys

import numpy as np

from quadcert import (
    ClassCertificate, ClassKind, HadamardVariant, HModulus, RuleParams,
    TestFunction, bound_power_mean, certify_membership, evaluate_bound,
    hadamard_check,
    lemma_identity_residual, mean_value, proposition1_check,
    proposition2_check, rule_value,
)
from quadcert.bounds import (
    rhs_general_convex, rhs_holder_hconvex, rhs_midpoint_power_mean,
    rhs_power_mean, rhs_simpson_holder,
    rhs_trapezoid_holder,
)
from quadcert.cli import _identity_corpus
from quadcert.moments import Side, abs_moment_p, weighted_moment


def _report(capsys, num: int, desc: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} [{status}] {desc}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# vectorized Gauss-Legendre comparator (exact on polynomials of degree < 47)

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gl(lo, hi, f):
    """Integrate f over each [lo_i, hi_i]; f maps an (N, 24) node array."""
    half = (hi - lo) * 0.5
    mid = (hi + lo) * 0.5
    x = mid[:, None] + np.outer(half, _NODES)
    return half * (f(x) @ _WEIGHTS)


def _plain_left(w, u, m):
    z = np.zeros_like(w)
    return (_gl(z, m, lambda t: w[:, None] - t)
            + _gl(m, u, lambda t: t - w[:, None]))


def _plain_right(k, u, m2):
    o = np.ones_like(k)
    return (_gl(u, m2, lambda t: k[:, None] - t)
            + _gl(m2, o, lambda t: t - k[:, None]))


def _ppow_piece(r_lo, r_hi, p):
    # int r^p dr via r = v^2, making the integrand the polynomial 2 v^(2p+1)
    return _gl(np.sqrt(r_lo), np.sqrt(r_hi),
               lambda v: 2.0 * v ** (2.0 * p + 1.0))


def _ppow_left(w, u, m, p):
    zero = np.zeros_like(w)
    return (_ppow_piece(w - m, w, p)
            + _ppow_piece(zero, np.maximum(u - w, 0.0), p))


def _ppow_right(k, u, m2, p):
    return (_ppow_piece(np.maximum(k - m2, 0.0), np.maximum(k - u, 0.0), p)
            + _ppow_piece(np.maximum(m2 - k, 0.0), np.maximum(1.0 - k, 0.0),
                          p))


def _wmom_left(w, u, m, s, reflected):
    # t = tau^5 (or 1 - t = sigma^5) makes t^s polynomial when 5s is integral
    e = 5.0 * s + 4.0
    if not reflected:
        z = np.zeros_like(w)
        return (_gl(z, m ** 0.2,
                    lambda t: (w[:, None] - t ** 5) * t ** e * 5.0)
                + _gl(m ** 0.2, u ** 0.2,
                      lambda t: (t ** 5 - w[:, None]) * t ** e * 5.0))
    sm, su, o = (1.0 - m) ** 0.2, (1.0 - u) ** 0.2, np.ones_like(w)
    return (_gl(sm, o,
                lambda t: (w[:, None] - 1.0 + t ** 5) * t ** e * 5.0)
            + _gl(su, sm,
                  lambda t: (1.0 - t ** 5 - w[:, None]) * t ** e * 5.0))


def _wmom_right(k, u, m2, s, reflected):
    e = 5.0 * s + 4.0
    if not reflected:
        o = np.ones_like(k)
        return (_gl(u ** 0.2, m2 ** 0.2,
                    lambda t: (k[:, None] - t ** 5) * t ** e * 5.0)
                + _gl(m2 ** 0.2, o,
                      lambda t: (t ** 5 - k[:, None]) * t ** e * 5.0))
    sm2, su, z = (1.0 - m2) ** 0.2, (1.0 - u) ** 0.2, np.zeros_like(k)
    return (_gl(sm2, su,
                lambda t: (k[:, None] - 1.0 + t ** 5) * t ** e * 5.0)
            + _gl(z, sm2,
                  lambda t: (1.0 - t ** 5 - k[:, None]) * t ** e * 5.0))


# ---------------------------------------------------------------------------


def test_criterion_1_kernel_identity(capsys):
    """Signed-kernel representation of the rule error, 200 seeded cases."""
    worst = max(lemma_identity_residual(tf, rp)
                for tf, rp in _identity_corpus(0, 200))
    ok = worst <= 1e-9
    _report(capsys, 1, "kernel identity residual on 200 seeded cases", ok,
            f"max residual {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_2_moment_closed_forms(capsys):
    """Closed-form coefficient families vs independent quadrature."""
    n = 101
    grid_a, grid_l = np.meshgrid(np.linspace(0.0, 1.0, n),
                                 np.linspace(0.0, 1.0, n), indexing="ij")
    A, L = grid_a.ravel(), grid_l.ravel()
    u = 1.0 - A
    w = A * L
    k = 1.0 - L * u
    m = np.clip(w, 0.0, u)
    m2 = np.clip(k, u, 1.0)
    rps = [RuleParams(a, l, 1.0) for a, l in zip(A, L)]
    h_const = HModulus.constant()
    worst = 0.0

    # plain moments (the gamma / upsilon branch values)
    lib = np.array([weighted_moment(h_const, rp, Side.LEFT, False)
                    for rp in rps])
    worst = max(worst, float(np.max(np.abs(lib - _plain_left(w, u, m)))))
    lib = np.array([weighted_moment(h_const, rp, Side.RIGHT, False)
                    for rp in rps])
    worst = max(worst, float(np.max(np.abs(lib - _plain_right(k, u, m2)))))

    # p-power moments (the epsilon branch values)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        rps_p = [RuleParams(a, l, q) for a, l in zip(A, L)]
        lib = np.array([abs_moment_p(rp, Side.LEFT) for rp in rps_p])
        worst = max(worst,
                    float(np.max(np.abs(lib - _ppow_left(w, u, m, p)))))
        lib = np.array([abs_moment_p(rp, Side.RIGHT) for rp in rps_p])
        worst = max(worst,
                    float(np.max(np.abs(lib - _ppow_right(k, u, m2, p)))))

    # power-modulus weighted moments (the mu*/eta* branch values)
    for s in (0.4, 1.0):
        h_pow = HModulus.power(s)
        for refl in (False, True):
            lib = np.array([weighted_moment(h_pow, rp, Side.LEFT, refl)
                            for rp in rps])
            worst = max(worst, float(np.max(
                np.abs(lib - _wmom_left(w, u, m, s, refl)))))
            lib = np.array([weighted_moment(h_pow, rp, Side.RIGHT, refl)
                            for rp in rps])
            worst = max(worst, float(np.max(
                np.abs(lib - _wmom_right(k, u, m2, s, refl)))))

    ok = worst <= 1e-12
    _report(capsys, 2, "moment closed forms on a 101x101 grid x {s, p} samples", ok,
            f"max |closed form - quadrature| {worst:.3e} (tol 1e-12)")
    assert ok


# ---------------------------------------------------------------------------


def _quadratic_tf(rng, kind, h, q, interval=(-1.0, 2.0)):
    c2 = float(rng.uniform(0.5, 2.0))
    c1 = float(rng.uniform(-1.0, 1.0))
    cert = ClassCertificate(kind, h, q)
    return TestFunction(lambda x: c2 * x * x + c1 * x,
                        lambda x: 2.0 * c2 * x + c1,
                        interval[0], interval[1], cert)


def _power_growth_tf(rng, s, q):
    # |f'|^q proportional to x^s, hence s-convex in the second sense
    c = float(rng.uniform(0.5, 2.0))
    r = 1.0 + s / q
    cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(s), q)
    return TestFunction(lambda x: c * x ** r,
                        lambda x: c * r * x ** (r - 1.0), 0.0, 1.5, cert)


def _concave_power_tf(rng, r, q):
    # (r - 1) q in (0, 1) makes |f'|^q a concave power of x
    c = float(rng.uniform(0.5, 2.0))
    cert = ClassCertificate(ClassKind.H_CONCAVE, HModulus.identity(), q)
    return TestFunction(lambda x: c * x ** r,
                        lambda x: c * r * x ** (r - 1.0), 0.0, 1.5, cert)


def test_criterion_3_soundness_sweep(capsys):
    """LHS <= RHS across >= 10,000 tuples with certified witnesses."""
    rng = np.random.default_rng(11)
    pm, hc, cc = [], [], []
    for q in (1.0, 2.0):
        pm.append(_quadratic_tf(rng, ClassKind.H_CONVEX,
                                HModulus.identity(), q))
        pm.append(_quadratic_tf(rng, ClassKind.H_CONVEX,
                                HModulus.constant(), q))
        for s in (0.3, 0.7):
            pm.append(_power_growth_tf(rng, s, q))
    hc.append(_quadratic_tf(rng, ClassKind.H_CONVEX, HModulus.identity(), 2.0))
    hc.append(_quadratic_tf(rng, ClassKind.H_CONVEX, HModulus.constant(), 2.0))
    hc.append(_power_growth_tf(rng, 0.3, 2.0))
    hc.append(_power_growth_tf(rng, 0.7, 2.0))
    for r, q in [(1.2, 2.0), (1.45, 2.0), (1.1, 4.0), (1.2, 4.0)]:
        cc.append(_concave_power_tf(rng, r, q))

    n_pairs = 650
    checked, violations = 0, 0
    worst_margin = float("inf")
    for group, name in ((pm, "power-mean"), (hc, "holder"),
                        (cc, "holder-concave")):
        for tf in group:
            assert certify_membership(tf, n_samples=3000, seed=5).holds
            mean = mean_value(tf)
            q = tf.certificate.exponent_q
            alphas = rng.uniform(0.0, 1.0, n_pairs)
            lams = rng.uniform(0.0, 1.0, n_pairs)
            for alpha, lam in zip(alphas, lams):
                rp = RuleParams(alpha, lam, q)
                lhs = abs(rule_value(tf, alpha, lam) - mean)
                rhs = evaluate_bound(name, tf, rp).value
                checked += 1
                worst_margin = min(worst_margin, rhs - lhs)
                if lhs > rhs + 1e-9:
                    violations += 1
    ok = checked >= 10_000 and violations == 0
    _report(capsys, 3, "bound soundness with certified witnesses", ok,
            f"{checked} tuples, {violations} violations, "
            f"worst margin {worst_margin:.3e}")
    assert ok


# ---------------------------------------------------------------------------


def _printed_simpson_powermean(s, q, width, d_a, d_b):
    den = 3.0 * 6.0 ** (s + 1.0) * (s + 1.0) * (s + 2.0)
    c1 = ((2.0 * s + 1.0) * 3.0 ** (s + 1.0) + 2.0) / den
    c2 = (2.0 * 5.0 ** (s + 2.0) + (s - 4.0) * 6.0 ** (s + 1.0)
          - (2.0 * s + 7.0) * 3.0 ** (s + 1.0)) / den
    pref = width / 2.0 * (5.0 / 36.0) ** (1.0 - 1.0 / q)
    return pref * ((c1 * d_b ** q + c2 * d_a ** q) ** (1.0 / q)
                   + (c2 * d_b ** q + c1 * d_a ** q) ** (1.0 / q))


def _printed_simpson_holder(s, p, q, width, d_mid, d_a, d_b):
    pref = width / 12.0 * ((1.0 + 2.0 ** (p + 1.0))
                           / (3.0 * (p + 1.0))) ** (1.0 / p)
    return pref * ((((d_mid ** q + d_a ** q) / (s + 1.0)) ** (1.0 / q))
                   + (((d_mid ** q + d_b ** q) / (s + 1.0)) ** (1.0 / q)))


def _cubic_mu_eta(alpha, lam):
    """Active weighted cubic moments via plain antiderivatives."""
    w, u = alpha * lam, 1.0 - alpha
    k = 1.0 - lam * u
    m = min(max(w, 0.0), u)
    m2 = min(max(k, u), 1.0)

    def seg(lo, hi, c, sign, reflected):
        # int sign*(t - c) * t dt (or * (1 - t) dt) via the antiderivative
        def anti(t):
            if not reflected:
                return t ** 3 / 3.0 - c * t * t / 2.0
            return (1.0 + c) * t * t / 2.0 - t ** 3 / 3.0 - c * t
        return sign * (anti(hi) - anti(lo))

    left = lambda refl: (seg(0.0, m, w, -1.0, refl)
                         + seg(m, u, w, 1.0, refl))
    right = lambda refl: (seg(u, m2, k, -1.0, refl)
                          + seg(m2, 1.0, k, 1.0, refl))
    return left(False), left(True), right(False), right(True)


def test_criterion_4_reduction_suite(capsys):
    rng = np.random.default_rng(17)
    worst_rel, worst_abs = 0.0, 0.0

    # identity modulus reduces to the general convex bound
    for _ in range(1000):
        rp = RuleParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                        float(rng.uniform(1, 4)))
        d_a, d_b = rng.uniform(0.01, 10.0, 2)
        ours = rhs_power_mean(HModulus.identity(), rp, 1.9, d_a, d_b).value
        prior = rhs_general_convex(rp, 1.9, d_a, d_b).value
        worst_rel = max(worst_rel,
                        abs(ours - prior) / (1.0 + abs(prior)))

    # Simpson-point specializations reproduce the published coefficient forms
    for _ in range(400):
        s = float(rng.uniform(0.05, 1.0))
        q = float(rng.uniform(1.0, 4.0))
        d_a, d_b = rng.uniform(0.01, 10.0, 2)
        rp = RuleParams(0.5, 1.0 / 3.0, q)
        ours = rhs_power_mean(HModulus.power(s), rp, 1.0, d_a, d_b).value
        printed = _printed_simpson_powermean(s, q, 1.0, d_a, d_b)
        worst_rel = max(worst_rel, abs(ours - printed) / (1.0 + printed))

        q2 = float(rng.uniform(1.2, 4.0))
        d_m = float(rng.uniform(0.01, 10.0))
        rp2 = RuleParams(0.5, 1.0 / 3.0, q2)
        ours2 = rhs_holder_hconvex(HModulus.power(s), rp2, 1.0,
                                   d_m, d_a, d_b).value
        printed2 = _printed_simpson_holder(s, rp2.p, q2, 1.0, d_m, d_a, d_b)
        worst_rel = max(worst_rel, abs(ours2 - printed2) / (1.0 + printed2))
        # ... and the specialization coincides with the prior Simpson bound
        prior2 = rhs_simpson_holder(s, rp2, 1.0, d_a, d_b, d_m).value
        worst_rel = max(worst_rel, abs(ours2 - prior2) / (1.0 + prior2))

    # s = 1 collapses the weighted moments to the plain cubic moments
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        rp = RuleParams(alpha, lam, 1.0)
        h = HModulus.identity()
        active = tuple(weighted_moment(h, rp, side, refl)
                       for side in (Side.LEFT, Side.RIGHT)
                       for refl in (False, True))
        cubic = _cubic_mu_eta(alpha, lam)
        worst_abs = max(worst_abs,
                        max(abs(x - y) for x, y in zip(active, cubic)))

    ok = worst_rel <= 1e-12 and worst_abs <= 1e-14
    _report(capsys, 4, "reduction suite (identity path, printed forms, s=1 collapse)",
            ok, f"worst rel {worst_rel:.3e} (tol 1e-12), "
                f"worst cubic abs {worst_abs:.3e} (tol 1e-14)")
    assert ok


def test_criterion_5_dominance(capsys):
    s_grid = np.linspace(0.1, 1.0, 10)
    d_grid = [0.1, 0.7, 2.0, 9.0]
    worst1, worst2 = -float("inf"), -float("inf")
    n1 = n2 = 0

    for s in s_grid:
        for q in (1.0, 1.25, 1.5, 2.0, 3.0, 6.0, 9.0):
            for d_a in d_grid:
                for d_b in d_grid:
                    rp = RuleParams(0.5, 0.0, q)
                    new = rhs_power_mean(HModulus.power(s), rp, 1.0,
                                         d_a, d_b).value
                    old = rhs_midpoint_power_mean(s, rp, 1.0, d_a, d_b).value
                    worst1 = max(worst1, new - old)
                    n1 += 1
    for s in s_grid:
        for q in (1.25, 1.5, 2.0, 3.0, 6.0, 9.0):
            for d_m in (0.5, 3.0):
                for d_a in d_grid[:3]:
                    for d_b in d_grid[:3]:
                        rp = RuleParams(0.5, 1.0, q)
                        new = rhs_holder_hconvex(HModulus.power(s), rp, 1.0,
                                                 d_m, d_a, d_b).value
                        old = rhs_trapezoid_holder(s, rp, 1.0,
                                                   d_a, d_b, d_m).value
                        worst2 = max(worst2, new - old)
                        n2 += 1
    ok = n1 >= 1000 and n2 >= 1000 and worst1 <= 1e-12 and worst2 <= 1e-12
    _report(capsys, 5, "sharpened bounds dominate the prior midpoint/trapezoid "
               "bounds", ok,
            f"{n1}+{n2} grid points, worst excess "
            f"{max(worst1, worst2):.3e} (tol 1e-12)")
    assert ok


def _nonneg_convex_quadratic(rng, h, q=1.0):
    c2 = float(rng.uniform(0.1, 2.0))
    x0 = float(rng.uniform(-1.0, 1.0))
    c0 = float(rng.uniform(0.1, 2.0))
    a = float(rng.uniform(-2.0, 0.0))
    b = a + float(rng.uniform(0.5, 3.0))
    cert = ClassCertificate(ClassKind.H_CONVEX, h, q)
    return TestFunction(lambda x: c2 * (x - x0) ** 2 + c0,
                        lambda x: 2.0 * c2 * (x - x0), a, b, cert)


def test_criterion_6_hadamard_chains(capsys):
    rng = np.random.default_rng(23)
    n_cases = 500
    failures = 0
    checked = 0

    for _ in range(n_cases):
        tf = _nonneg_convex_quadratic(rng, HModulus.identity())
        failures += not hadamard_check(tf, HadamardVariant.CLASSICAL).holds
        checked += 1
    for _ in range(n_cases):
        s = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.5, 3.0))
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(s), 1.0)
        tf = TestFunction(lambda x, c=c, s=s: c * x ** s,
                          lambda x, c=c, s=s: c * s * x ** (s - 1.0),
                          0.0, b, cert)
        failures += not hadamard_check(tf, HadamardVariant.S_CONVEX).holds
        checked += 1
    for variant, h in ((HadamardVariant.GODUNOVA_LEVIN,
                        HModulus.reciprocal()),
                       (HadamardVariant.P_FUNCTION, HModulus.constant()),
                       (HadamardVariant.H_CONVEX, HModulus.identity())):
        for _ in range(n_cases):
            tf = _nonneg_convex_quadratic(rng, h)
            failures += not hadamard_check(tf, variant).holds
            checked += 1

    # the identity-modulus instance of the generalized chain agrees
    # term-wise with the classical one
    worst_term = 0.0
    for _ in range(n_cases):
        tf = _nonneg_convex_quadratic(rng, HModulus.identity())
        cla = hadamard_check(tf, HadamardVariant.CLASSICAL)
        gen = hadamard_check(tf, HadamardVariant.H_CONVEX)
        worst_term = max(worst_term, abs(cla.left - gen.left),
                         abs(cla.middle - gen.middle),
                         abs(cla.right - gen.right))
        checked += 1

    ok = failures == 0 and worst_term <= 1e-12
    _report(capsys, 6, "two-sided mean-value chains on class-matched corpora", ok,
            f"{checked} cases, {failures} failures, term-wise gap "
            f"{worst_term:.3e} (tol 1e-12)")
    assert ok


def test_criterion_7_mean_inequalities(capsys):
    rng = np.random.default_rng(29)
    n_each = 5000
    failures = 0
    worst_rel = 0.0

    for _ in range(n_each):
        a = float(rng.uniform(0.1, 2.0))
        b = a + float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(1.0, 4.0))
        s = float(rng.uniform(0.05, 0.95)) / q
        res = proposition1_check(a, b, alpha, lam, q, s)
        failures += not res.holds
        # cross-check the closed-form RHS against the full bound evaluator
        cert = ClassCertificate(ClassKind.H_CONVEX, HModulus.power(q * s), q)
        tf = TestFunction(lambda x, s=s: x ** (s + 1.0),
                          lambda x, s=s: (s + 1.0) * x ** s, a, b, cert,
                          skip_derivative_check=True)
        direct = bound_power_mean(tf, RuleParams(alpha, lam, q)).value
        worst_rel = max(worst_rel, abs(res.rhs - direct) / (1.0 + direct))

    for _ in range(n_each):
        a = float(rng.uniform(0.1, 2.0))
        b = a + float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(1.1, 4.0))
        p = q / (q - 1.0)
        s = float(rng.uniform(0.05, 0.95)) / q
        failures += not proposition2_check(a, b, alpha, lam, p, q, s).holds

    ok = failures == 0 and worst_rel <= 1e-12
    _report(capsys, 7, "special-mean inequalities on 10,000 tuples", ok,
            f"{2 * n_each} tuples, {failures} failures, RHS cross-check "
            f"rel {worst_rel:.3e} (tol 1e-12)")
    assert ok


def test_criterion_8_cli_contract(capsys, tmp_path):
    sweep = [sys.executable, "-m", "quadcert", "sweep",
             "--function", "exp:1", "--interval", "0", "1",
             "--alpha-grid", "0.2", "0.5", "0.8",
             "--lambda-grid", "0.0", "0.333", "1.0", "--q-grid", "1.0",
             "--seed", "42"]
    r1 = subprocess.run(sweep, capture_output=True)
    r2 = subprocess.run(sweep, capture_output=True)
    deterministic = r1.returncode == 0 and r1.stdout == r2.stdout

    falsified = subprocess.run(
        [sys.executable, "-m", "quadcert", "verify",
         "--function", "poly:0,0,1", "--interval", "-1", "1",
         "--concave", "--bound", "holder-concave", "--q-grid", "2.0"],
        capture_output=True)
    bad_config = subprocess.run(
        [sys.executable, "-m", "quadcert", "verify",
         "--function", "nope:1"], capture_output=True)

    ok = (deterministic and falsified.returncode == 1
          and bad_config.returncode == 2)
    _report(capsys, 8, "CLI determinism and exit-code contract", ok,
            f"byte-identical={deterministic}, falsified-certificate exit "
            f"{falsified.returncode} (want 1), config-error exit "
            f"{bad_config.returncode} (want 2)")
    assert ok
