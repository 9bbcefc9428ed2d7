"""Scalar backends shared by every geometric formula in this package.

Two interchangeable carriers:

* exact: ``fractions.Fraction`` (always reduced, positive denominator), so
  equality of values is plain ``==`` and identities hold bit-for-bit;
* float: IEEE doubles, compared through a :class:`ToleranceProfile`.

Values never migrate between backends implicitly.  ``int`` inputs are
treated as exact and promoted to ``Fraction`` at type boundaries, which
keeps ``/`` from silently producing floats.

The dispatch rule: a triangle's backend is its sides'.  ``SideLengths``
and ``Barycentric`` hold three exact values or three floats, and each
``SideLengths`` caches one kernel, which is its backend: the integer form
``triangle._IntegerTriangle`` of exact sides or the float kernel
``triangle._FloatTriangle`` of float sides.  The two share their method
names, so a kernel helper calls the method of the sides' kernel and runs
only that backend's formula, without asking which backend it is (the
sides-free ``feuerbach.classify_tangency_sq`` reads its backend from its
three values); the other values it takes, such as distances, must be on
that backend too.  Floats stay bare floats, and exact values stay
integer pairs until one ``Fraction`` is built per output; the identity
suite reads the pairs, or the bare floats, and builds a ``Fraction``
only for a failed exact check's residual.  Every
constructor and function that takes scalars reads them through
:func:`coerce_backend`, which promotes ints and raises ``TypeError`` where
exact and float values mix.  ``SideLengths`` first passes values of one
exact type, float or ``Fraction``, by an exact-type test: a benchmark
workload builds one per triangle.  The one exception to the rule is the
constant weights of the centroid, exact on either backend; see
``triangle.barycentric_distance_sq``.

``is_exact`` and ``coerce_scalar`` ask about ``float`` first.  The
metaclass of ``Fraction`` is ``ABCMeta``, so ``isinstance(some_float,
Fraction)`` runs ``ABCMeta.__instancecheck__`` in Python, while
``isinstance`` against ``float``, ``int`` or ``bool``, or against the
exact type of its argument, does not.  ``Fraction`` arithmetic with a float operand makes that check
inside ``fractions``, and then computes with ``float()`` of the
``Fraction``, one correctly rounded true division of its integers.  So
``triangle.barycentric_distance_sq`` divides the integers of the
centroid's ``Fraction(1, 3)`` weights, and of their products, itself
before they meet float distances: the same doubles, so no bit moves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from .record import Record, set_field

Scalar = Union[Fraction, float]

__all__ = [
    "Scalar",
    "ToleranceProfile",
    "DEFAULT_TOLERANCE",
    "sqrt_exact",
    "is_exact",
    "coerce_scalar",
    "coerce_backend",
]


class ToleranceProfile(Record):
    """Relative/absolute tolerance pair used for every float comparison."""

    __slots__ = _fields = ("rel_eps", "abs_eps")
    rel_eps: float
    abs_eps: float

    def __init__(self, rel_eps: float = 1e-9, abs_eps: float = 1e-12) -> None:
        if not (rel_eps > 0.0 and math.isfinite(rel_eps)):
            raise ValueError(f"rel_eps must be positive and finite, got {rel_eps!r}")
        if not (abs_eps > 0.0 and math.isfinite(abs_eps)):
            raise ValueError(f"abs_eps must be positive and finite, got {abs_eps!r}")
        set_field(self, "rel_eps", rel_eps)
        set_field(self, "abs_eps", abs_eps)

    def bound(self, scale: float) -> float:
        """Largest |x - y| still considered equal at the given magnitude."""
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOLERANCE = ToleranceProfile()


def is_exact(value: Scalar) -> bool:
    """True when the value belongs to the exact (rational) backend."""
    return (
        not isinstance(value, float)
        and isinstance(value, (int, Fraction))
        and not isinstance(value, bool)
    )


def coerce_scalar(value: Scalar) -> Scalar:
    """Promote ints to Fraction; pass Fraction and float through unchanged."""
    if isinstance(value, float):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def coerce_backend(
    *values: Scalar, exact: Optional[bool] = None
) -> Tuple[Tuple[Scalar, ...], bool]:
    """``coerce_scalar`` of each value, and whether they are exact.  The
    values must share one backend, the one ``exact`` names when it is
    given; ``TypeError`` otherwise."""
    values = tuple(map(coerce_scalar, values))
    kinds = set(map(is_exact, values))
    if exact is None and len(kinds) == 1:
        (exact,) = kinds
    if kinds != {exact}:
        raise TypeError("exact and float scalars do not mix")
    return values, exact


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

