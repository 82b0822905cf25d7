"""Exception types shared across the library.

Parameter violations raise plain ValueError; the classes here mark failures
the CLI maps to distinct exit codes (I/O and config problems vs. algorithmic
failures).
"""


class ImageIOError(Exception):
    """Raised when an image file cannot be read or written.

    The message always carries the offending path.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class SingularTransformError(ValueError):
    """Raised when a transform's linear part is not invertible."""


class DegenerateFitError(RuntimeError):
    """Raised when a least-squares fit has no well-posed solution.

    Covers too few matches, coincident points, collinear points under the
    affine model (cond above 1e12), and a fitted |det| below 1e-6.
    """


class RegistrationError(RuntimeError):
    """Raised when the registration pipeline cannot produce a transform.

    The message names the stage that failed (corner detection, descriptor
    construction, or a matching/consensus iteration).
    """
