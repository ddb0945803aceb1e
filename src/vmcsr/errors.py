"""Exception types shared across the package.

Every error is either a numerical failure, which aborts a run with exit
code 3 after keeping the last good checkpoint, or an input error (bad
configuration or checkpoint), which exits with code 2.
"""


class VmcError(Exception):
    """Base class for package-specific errors."""


class NumericalError(VmcError):
    """A computation failed on the data it was given (exit 3)."""

    exit_code = 3


class InputError(VmcError):
    """A configuration or checkpoint the program cannot use (exit 2)."""

    exit_code = 2


class DegenerateInput(NumericalError):
    """Matrix carries no signal to factorize (numerically zero)."""


class NotPositiveDefinite(NumericalError):
    """Symmetric factorization hit a nonpositive pivot."""


class CoalescencePoint(NumericalError):
    """Two charged particles are closer than the coalescence guard."""


class NodeProximity(NumericalError):
    """Log-amplitude underflowed; derivatives are unreliable near a node."""


class DegenerateBatch(NumericalError):
    """Sample batch too small to center."""


class NumericalAbort(NumericalError):
    """Non-finite quantity reached the optimization loop."""


class ConfigError(InputError):
    """Malformed, unknown, or inconsistent run-configuration content."""


class VersionMismatch(InputError):
    """Checkpoint written by an incompatible format version."""


class CorruptChecksum(InputError):
    """Checkpoint payload does not match its checksum."""
