"""Exception types shared across the package."""


class SingularPointError(ValueError):
    """Evaluation requested at (or too close to) a field singularity."""


class OutOfRegimeError(ValueError):
    """Point lies outside the validity region of the requested expansion."""


class ExceptionalWeightError(ValueError):
    """Weight coincides with an indicial root; the model problem is degenerate."""


class CoercivityError(ValueError):
    """Nonpositive coercivity constant supplied to a screened solver."""


class WeightRangeError(ValueError):
    """Weight parameter outside the admissible range of the model problem."""


class ToleranceUnreachableError(RuntimeError):
    """Requested tolerance cannot be certified by any available expansion."""


class UnderResolvedError(RuntimeError):
    """Mesh too coarse to resolve the fastest scale of the problem."""


class ResolutionTooLowError(RuntimeError):
    """Discretized spectrum has not converged at the requested resolution."""
