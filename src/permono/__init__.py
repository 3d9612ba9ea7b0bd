"""Numerics for abelian monopole fields on R^2 x S^1: the periodic Green's
function and its asymptotic regimes, Dirac-monopole configurations, the Hopf
lift to S^1-invariant anti-self-dual connections, the indicial spectrum at a
singularity, and the separated model boundary-value problems.
"""

__version__ = "0.1.0"
