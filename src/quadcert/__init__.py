"""Certified error bounds for the (alpha, lambda) family of quadrature rules.

The blended rule lam*(alpha f(a) + (1-alpha) f(b)) + (1-lam) f(alpha a +
(1-alpha) b) covers midpoint (1/2, 0), trapezoid (1/2, 1) and Simpson
(1/2, 1/3).  When |f'|^q belongs to an h-convex or h-concave class, its
error against the mean integral admits closed-form bounds; this package
evaluates those bounds and verifies them against an adaptive quadrature
oracle.
"""

from .classes import (ClassCertificate, ClassKind, HKind, HModulus,
                      MembershipReport, TestFunction, certify_membership,
                      h_half, h_integral_01)
from .specs import FunctionSpec
from .moments import (RuleParams, Side, abs_moment_p, branch_select,
                      epsilon_coeffs, gamma_coeffs, upsilon_coeffs,
                      weighted_moment)
from .bounds import BoundResult, bound_power_mean, evaluate_bound
from .oracle import (HadamardResult, HadamardVariant, QuadratureResult,
                     hadamard_check, integrate_adaptive,
                     lemma_identity_residual, lhs_error, mean_value,
                     rule_value)
from .means import (PropositionResult, arith_mean, log_mean, p_log_mean,
                    proposition1_check, proposition2_check,
                    weighted_arith_mean)

__version__ = "0.1.0"
