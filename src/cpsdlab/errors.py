"""Exception types shared across the package."""


class CapExceeded(RuntimeError):
    """A requested construction exceeds a size budget, refused before allocation."""


class VerificationError(RuntimeError):
    """A certificate or factorization failed its numerical check."""
