"""The integer check shared by the configs; every contract raises ValueError naming its check."""

import numbers


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
