"""Exception types shared across the library."""


class NoBalancedRadiusError(RuntimeError):
    """The balanced-radius equation has no sign change on the scanned range.

    Carries the scanned log-ratio range so callers can report how far the
    scan got before giving up.
    """

    def __init__(self, message, ratio_range=None):
        super().__init__(message)
        self.ratio_range = ratio_range


class BracketError(ValueError):
    """A root bracket was requested but the endpoint signs do not differ."""
