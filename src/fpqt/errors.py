"""Exception types shared across the toolkit, its config field-type check and its
argument-type check.

Categories map onto the CLI exit codes: FormatError (and plain I/O errors)
signal a bad or truncated container file, everything else under FpqtError is
a domain failure (bad shapes, bad parameters, numerical breakdown).
"""

from dataclasses import fields
from numbers import Integral, Real


class FpqtError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(FpqtError):
    """Dimension mismatch; the message names both offending shapes."""


class NumericalError(FpqtError):
    """Numerical failure: non-finite data, non-positive-definite matrix."""


class FormatError(FpqtError):
    """Malformed container file. Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_types(obj) -> None:
    """ValueError naming the first init field of a dataclass whose value its annotation
    ("int | None") rejects: an int is a non-bool Integral, kept as int; a float a non-bool Real.
    A field annotated with any other type is left to the class's own check."""
    admits = {"int": Integral, "float": Real, "str": str, "bool": bool, "None": type(None)}
    for f in (f for f in fields(obj) if f.init and set(f.type.split(" | ")) <= admits.keys()):
        value, kinds = getattr(obj, f.name), tuple(admits[k] for k in f.type.split(" | "))
        if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, Integral) and bool not in kinds:
            object.__setattr__(obj, f.name, int(value))


def check_instance(value, cls: type, name: str) -> None:
    """TypeError naming the argument unless value is a cls (isinstance alone, no data pass)."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
