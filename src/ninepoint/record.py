"""Frozen value records without :mod:`dataclasses`.

The package's value classes subclass :class:`Record` and list their field
names in ``_fields``, in parameter order.  ``Record.__init__`` binds its
positional and keyword arguments to those fields, fills the ones left out
from the class's ``_defaults``, and stores each field once with
:data:`set_field`; a missing, repeated, unexpected or surplus argument
raises ``TypeError``, as it would for an ordinary function.  A class that
coerces or validates its fields writes its own ``__init__`` and stores them
the same way.  ``Record`` supplies field-wise ``==``, ``hash`` and
``repr``, and refuses any later assignment or deletion with
``AttributeError``.  A class that caches derived values with
:class:`cached` keeps an instance ``__dict__`` (it declares no
``__slots__``); ``cached`` writes to that dict directly, and the cache
takes no part in equality, hashing or the ``repr``.  Unlike
``functools.cached_property``, it takes no lock (Python 3.11 and earlier
lock every first read), since a value computed twice by two threads is
the same value.

Importing ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each ``@dataclass`` compiles its generated methods while
the module loads.  Hand-written records keep that out of every process's
start-up.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["Record", "cached", "set_field"]

# How a constructor stores a field past Record.__setattr__.
set_field = object.__setattr__


class cached:
    """A method read as an attribute: computed on the first read and stored
    in the instance ``__dict__``, which later reads find first, since this
    descriptor defines no ``__set__``."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.func.__name__] = value
        return value


class Record:
    """Base of the frozen value classes: ``==``, ``hash`` and ``repr`` over
    the fields named in ``_fields``; no assignment or deletion."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def _bind(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[Any, ...]:
        """Every field's value, in field order, from a call that did not
        pass them all positionally."""
        fields = self._fields
        call = f"{type(self).__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{call} missing argument {name!r}")
        # A keyword still unread names a field given positionally, or none.
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{call} got {problem} argument {name!r}")
        return tuple(values)

    def _values(self) -> Tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # copy and pickle rebuild a record through its constructor, since
        # they could not set its fields one by one.
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
