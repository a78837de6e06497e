"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An input the checks cannot run with; the command line exits 2."""


class DomainError(ConfigError):
    """An argument lies outside the mathematical domain of the operation."""


class EvaluationError(ValueError):
    """A user-supplied callable returned a negative or non-finite value."""


class NotIntegrable(ConfigError):
    """The requested integral diverges (e.g. 1/t moduli on (0,1))."""


class ToleranceNotReached(RuntimeError):
    """The adaptive integrator hit its subdivision cap before converging."""


class NonFiniteSample(ValueError):
    """The integrand returned NaN or infinity at an interior node, or an
    integral of finite samples came out NaN or infinite."""


class ClassMismatch(ValueError):
    """A certificate's convexity class is not admissible for this bound."""


class DegenerateModulus(DomainError):
    """h(1/2) = 0, so the concave-path prefactor is undefined."""


class ParamMismatch(ConfigError):
    """Rule parameters conflict with the fixed parameters of a named bound."""
