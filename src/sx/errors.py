"""Exception hierarchy shared by all sx modules."""


class SxError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(SxError):
    """A facet list was empty where at least one facet is required."""


class EmptyFace(SxError):
    """A facet with no vertices was supplied."""


class NotAFace(SxError):
    """The given vertex set is not a face of the complex."""


class UnknownVertex(SxError):
    """A vertex label does not occur in the complex."""


class VertexClash(SxError):
    """Two complexes that must have disjoint vertex sets share labels."""


class NotWeakPseudomanifold(SxError):
    """Operation requires a pure complex with ridges in at most two facets."""


class NotNormalPseudomanifold(SxError):
    """Operation requires all links of low-dimensional faces to be connected."""


class NotClosed(SxError):
    """Operation requires a complex with empty boundary."""


class NotABall(SxError):
    """The complex failed the homology-ball screen required here."""


class NotASphere(SxError):
    """The complex failed the homology-sphere screen required here."""


class BadDimension(SxError):
    """A dimension argument is out of range."""


class BadParameters(SxError):
    """Construction parameters are out of range."""


class InvalidMove(SxError):
    """A bistellar or shelling move is not applicable.

    The first argument is a short machine-readable reason token; search
    code prunes on it.
    """

    @property
    def reason(self) -> str:
        return self.args[0] if self.args else "invalid"


class ReplayFailure(SxError):
    """Certificate replay failed; carries the failing step index."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


class FieldTooLarge(SxError):
    """Coefficient field characteristic is out of the supported range."""


class GuardExceeded(SxError):
    """A vertex-count guard was exceeded; raise the guard explicitly to proceed."""


class UnknownFixture(SxError):
    """No fixture with the requested name exists."""


class NotFacet(SxError):
    """The given face is not a facet of the complex."""


class BadMatching(SxError):
    """A vertex matching does not biject the two selected facets."""
