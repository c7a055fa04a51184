"""Exception types shared across the package.

Every numeric-domain violation gets its own class so callers (and the CLI)
can map failures to exit codes without string matching.
"""


class BalayageError(Exception):
    """Base class for all package errors."""


class BadInput(BalayageError):
    """Invalid argument values (precondition violations that are caller bugs)."""


class NotInUpperHalfPlane(BadInput):
    """Point required to lie in the open upper half-plane."""


class EndpointSingularity(BadInput):
    """Real evaluation point coincides with an interval endpoint (Dirac mass undefined there)."""


class ZeroPoint(BadInput):
    """The power map of a sector is undefined at the origin."""


class SupportOffAxis(BadInput):
    """Charge support must lie on the real axis for this operation."""


class SupportTouchesInterval(BadInput):
    """Charge atoms intersect the interval where a Lipschitz modulus is requested."""


class HypothesisViolated(BadInput):
    """Arguments fail the hypothesis of the inequality being checked."""


class BadGauge(BadInput):
    """Radius gauge must satisfy g(r) > r."""


class CoincidentPoints(BadInput):
    """Kernel evaluated at zeta == z."""


class ZeroCenter(BadInput):
    """Genus >= 0 kernel evaluated at zeta == 0."""


class AtomOnCircle(BadInput):
    """An atom sits on an integration circle; the boundary integrals are singular."""


class NumericFailure(BalayageError):
    """Numerical procedure could not reach the requested tolerance."""


class QuadratureFailure(NumericFailure):
    """Adaptive quadrature did not converge within budget."""


class TailTooLarge(NumericFailure):
    """Truncated boundary integral has an estimated tail above tolerance."""


class PowerMapUnderflow(NumericFailure, NotInUpperHalfPlane):
    """A sector's power map underflows to 0 at a point z != 0, whose image
    would then lie on the real axis instead of in the open upper half-plane."""
