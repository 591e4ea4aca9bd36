"""Exception types shared across the package."""


class WordCodesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WordCodesError):
    """Invalid argument values (bad probabilities, symbols, dimensions)."""


class ValidationError(WordCodesError):
    """A word set or code book violates a structural requirement."""


class InfeasibleError(WordCodesError):
    """No valid construction exists for the requested parameters."""


class ResourceError(WordCodesError):
    """The construction would exceed the configured enumeration or lattice limits."""


class DecodeError(WordCodesError):
    """A digit stream cannot be decoded against the given code book."""


def require_int(allowed: str = "an int", /, **values: object) -> None:
    """Raise InputError, naming the first of the keyword arguments that is
    no int and what it allows.  A bool is no int here: `True` is no length,
    count or limit."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{name} must be {allowed}, got {value!r}")
