"""Exception taxonomy shared by all solver modules."""


class HJLaxError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HJLaxError):
    """Malformed or inconsistent experiment configuration."""


class OutOfWindow(HJLaxError):
    """Requested times leave the certified time window of the Lagrangian."""


class InvalidHorizon(HJLaxError):
    """Discount lift requested with a non-positive rate or horizon."""


class NonConvergence(HJLaxError):
    """An iterative solve stopped above its tolerance; for action
    minimization, no polynomial order of the ladder brought the
    Euler-Lagrange residual below its tolerance."""


class SearchBallClipped(HJLaxError):
    """Maximizer search ball leaves the grid box in strict-domain mode."""


class NonUniqueMaximizer(HJLaxError):
    """Barrier has several maximizers within tolerance (condition (M) fails)."""


class NotSingular(HJLaxError):
    """A singularity trace was requested from a differentiability point."""


class NotSemiconcave(HJLaxError):
    """Midpoint defects exceed the declared semiconcavity constant."""


class InsufficientSamples(HJLaxError):
    """Too few usable grid nodes near the query point."""


class ConeViolation(HJLaxError):
    """(t - s, |y - x|) lies outside the certified regularity cone."""


class NonContraction(HJLaxError):
    """Fixed-point iteration expanded; signals interpolation overshoot."""


class BoxExhausted(HJLaxError):
    """Optimal characteristic feet leave the grid box."""
