"""Every package error maps to one exit code through one of two bases."""

import vmcsr.cli  # noqa: F401  (imports every module that defines errors)
from vmcsr.errors import InputError, NumericalError, VmcError

BASES = (VmcError, NumericalError, InputError)


def _descendants(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _descendants(sub)


def test_every_error_derives_from_exactly_one_exit_base():
    assert (NumericalError.exit_code, InputError.exit_code) == (3, 2)
    errors = [cls for cls in set(_descendants(VmcError)) if cls not in BASES]
    assert len(errors) == 12
    for cls in errors:
        assert issubclass(cls, NumericalError) != issubclass(cls, InputError), cls.__name__
        assert cls.exit_code == (3 if issubclass(cls, NumericalError) else 2), cls.__name__
