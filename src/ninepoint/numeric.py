"""Scalar backends shared by every geometric formula in this package.

Two interchangeable carriers:

* exact: ``fractions.Fraction`` (always reduced, positive denominator), so
  equality of values is plain ``==`` and identities hold bit-for-bit;
* float: IEEE doubles, compared through a :class:`ToleranceProfile`.

Values never migrate between backends implicitly.  ``int`` inputs are
treated as exact and promoted to ``Fraction`` at type boundaries, which
keeps ``/`` from silently producing floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, float]

__all__ = [
    "Scalar",
    "ToleranceProfile",
    "DEFAULT_TOLERANCE",
    "sqrt_exact",
    "is_exact",
    "coerce_scalar",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative/absolute tolerance pair used for every float comparison."""

    rel_eps: float = 1e-9
    abs_eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_eps > 0.0 and math.isfinite(self.rel_eps)):
            raise ValueError(f"rel_eps must be positive and finite, got {self.rel_eps!r}")
        if not (self.abs_eps > 0.0 and math.isfinite(self.abs_eps)):
            raise ValueError(f"abs_eps must be positive and finite, got {self.abs_eps!r}")

    def bound(self, scale: float) -> float:
        """Largest |x - y| still considered equal at the given magnitude."""
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOLERANCE = ToleranceProfile()


def is_exact(value: Scalar) -> bool:
    """True when the value belongs to the exact (rational) backend."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def coerce_scalar(value: Scalar) -> Scalar:
    """Promote ints to Fraction; pass Fraction and float through unchanged."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def sqrt_exact(value: Union[Fraction, int]) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None when irrational.

    ``sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)`` while
    ``sqrt_exact(Fraction(2))`` is None: no silent fall-back to float.
    """
    if not is_exact(value):
        raise TypeError("sqrt_exact is defined on the exact backend only")
    value = Fraction(value)
    if value < 0:
        raise ValueError(f"sqrt of negative value {value}")
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None

