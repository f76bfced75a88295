"""The exception raised when a computed invariant contradicts a theorem."""


class CheckFailed(ArithmeticError):
    """A theorem-level check failed: for example the standard monomials of a
    margin quotient miss the table count, or a class function that must be a
    character has non-integral or negative multiplicities.  The CLI exits 1
    on it, the status of a failed cross-check."""
