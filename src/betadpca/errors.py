"""Exception and warning types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a documented precondition."""


class DomainError(ArithmeticError):
    """A spectral map was applied outside its domain."""


class NotPSD(DomainError):
    """A matrix expected to be positive semi-definite is not."""


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


class PreconditionError(ValueError):
    """A scenario precondition fails before any perturbation is applied."""


class CorruptMessage(RuntimeError):
    """A wire frame failed its integrity check."""

    def __init__(self, machine_id: int, reason: str):
        super().__init__(f"corrupt message from machine {machine_id}: {reason}")
        self.machine_id = machine_id


class IoError(OSError):
    """File or socket I/O failed."""


class ParseError(ValueError):
    """Structured input (a wire frame or a shard file) does not match the expected layout."""


class TieWarning(UserWarning):
    """Eigenvalues coincide at a truncation boundary; ordering falls back to the fixed tie-break."""


class PrecisionWarning(UserWarning):
    """Eigenvalues lie beyond the beta < 0 precision floor and are lost in round-off."""
