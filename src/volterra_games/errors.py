"""Exception types shared across the package."""


class VolterraGamesError(Exception):
    """Base class for all package errors."""


class InvalidGrid(VolterraGamesError):
    """Time grid parameters violate T > 0 or n >= 2."""


class InadmissibleKernel(VolterraGamesError):
    """Kernel violates admissibility (square-integrability or definiteness)."""


class ShapeError(VolterraGamesError):
    """Dimension or grid mismatch between operands."""


class SingularOperator(VolterraGamesError):
    """A discrete operator that must be inverted is numerically singular."""


class UnsupportedSignal(VolterraGamesError):
    """An input is not a signal, or the noise lacks one of a signal's tags."""


class ConvexityViolation(VolterraGamesError):
    """Model parameters violate the convexity condition of the game."""


class SizeExceeded(VolterraGamesError):
    """Scenario tree or KKT system exceeds the supported size budget."""


class SingularSystem(VolterraGamesError):
    """The assembled KKT system is singular."""


class NonConcave(VolterraGamesError):
    """A player's objective is not strictly concave on the tree."""


class ConfigError(VolterraGamesError):
    """Run configuration is malformed or violates the schema."""
