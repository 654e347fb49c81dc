"""Exception types shared across the package.

The CLI maps these onto process exit codes, so the hierarchy stays flat and
stable: malformed input, asymmetric quivers, and refused computations are the
three classes callers dispatch on, plus the disagreement of two counting
routes that a checked run compares.
"""


class InputSchemaError(ValueError):
    """Malformed input: quiver JSON, dimension vectors, rationals, block tables."""


class AsymmetricQuiverError(ValueError):
    """An operation that needs arrows[i][j] == arrows[j][i] got a quiver without it."""


class CutoffExceededError(RuntimeError):
    """An enumeration would exceed a configured size cutoff and was refused."""


class MissingBlockError(InputSchemaError):
    """A BPS assembly referenced a part with no entry in the block dimension table."""


class RouteDisagreementError(RuntimeError):
    """Two routes that must compute the same count returned different values."""
