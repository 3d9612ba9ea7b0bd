"""Exception types shared across the package, and the one integer check of
charges and counts. An argument that is out of range but has no type of its
own here (a mode, a mass, a mesh, a radius) raises a plain ValueError."""

import operator


class SingularPointError(ValueError):
    """Evaluation requested at (or too close to) a field singularity."""


class OutOfRegimeError(ValueError):
    """Point lies outside the validity region of the requested expansion."""


class ExceptionalWeightError(ValueError):
    """Weight coincides with an indicial root; the model problem is degenerate."""


class WeightRangeError(ValueError):
    """Weight parameter outside the admissible range of the model problem."""


class ToleranceUnreachableError(RuntimeError):
    """Requested tolerance cannot be certified by any available expansion."""


class UnderResolvedError(RuntimeError):
    """Mesh too coarse to resolve the fastest scale of the problem."""


class ResolutionTooLowError(RuntimeError):
    """Discretized spectrum has not converged at the requested resolution."""


def require_integer(name: str, value, least: int | None = None) -> int:
    """value as an int (by ``operator.index``, so 2.0 and 0.5 both fail, and
    a bool is refused too); a ValueError naming `name` if it is not an
    integer or is below `least`."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or n >= least:
                return n
    bound = "" if least is None else f" >= {least}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
