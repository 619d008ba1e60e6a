"""Exception types shared across the package."""


class NotHermitian(ValueError):
    """Matrix input whose anti-Hermitian part exceeds the guard tolerance."""


class ZeroVector(ValueError):
    """State vector with a vanishing norm cannot be normalized."""


class PoleState(ValueError):
    """Longitude (or longitude-dependent data) requested at a Bloch pole."""


class NotUnitary(ValueError):
    """Conjugation matrix fails the unitarity check."""


class NonCausalSegment(ValueError):
    """A curve segment is not future-directed causal."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"segment {index} is not future-directed causal")


class NotCausallyRelated(ValueError):
    """Operation requires causally ordered endpoints."""


class CoordinateOverflow(ValueError):
    """A distance or proper time between finite events exceeds the double range."""


class GradientMismatch(ValueError):
    """Supplied gradient disagrees with central finite differences."""


class GridTooSmall(ValueError):
    """Search grid does not cover the required rectangle around the events."""


class UnknownState(ValueError):
    """Scene has no state with the requested name."""


class SceneError(ValueError):
    """Scene file failed to parse or validate."""
