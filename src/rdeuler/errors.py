"""Exception types shared across the solver."""


class RDError(Exception):
    """Base class for all rdeuler errors."""


class ConfigError(RDError):
    """Malformed or unknown configuration input."""


class NonConforming(RDError):
    """Mesh violates conformity (hanging node, bad edge ownership)."""


class DegenerateTriangle(RDError):
    """Triangle with non-positive area after orientation fix."""


class UnmatchedPeriodicEdge(RDError):
    """Boundary edge without a periodic partner."""


class UnsupportedDegree(RDError):
    """Polynomial degree outside the supported range {1, 2}."""


class VacuumState(RDError):
    """Density (or pressure) at or below the admissibility floor."""


class NonPositivePressure(RDError):
    """Pressure at or below the admissibility floor."""


class AlphaTooSmall(RDError):
    """Dissipation coefficient below the sign-condition bound."""


class PicardDivergence(RDError):
    """Implicit solve failed to contract within the iteration cap."""


class ParachutePadFailure(RDError):
    """Most dissipative scheme still produced inadmissible values.

    This signals a time-step or dissipation-bound bug and is never
    masked by the limiting cascade.
    """


class MeshMismatch(RDError):
    """Operation combined states living on different meshes."""


class InadmissibleParameters(RDError):
    """Problem parameters produce an inadmissible initial state."""
