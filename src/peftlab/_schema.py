"""What a valid config value is, in one place: every config dataclass calls
:func:`check` first in its ``__post_init__``, so a config built from JSON
and one built in Python are checked alike. A field's type comes from its
annotation: ``int`` takes an int but not a bool; ``float`` takes an int
(kept as an int, so documents round-trip) or a finite float; ``X | None``
also takes None; ``tuple[X, ...]`` takes a non-empty list or tuple of
distinct X and stores a tuple; a nested config takes an instance of its
class. A field's simple range rule is declared next to it with
:func:`field`; rules that span fields or intervals stay in the class.
:func:`check_value` applies the same type and rule to a single value.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing

from .errors import ConfigError

_WANT = {int: "int", float: "a finite float", bool: "bool", str: "str"}

# dataclasses.replace checks every sweep cell: resolve each class once
_hints = functools.cache(typing.get_type_hints)


def field(default, *, min=None, positive=False, among=None):
    """A dataclass field with its default and its rule: at least ``min``,
    finite and > 0 if ``positive``, or one of ``among``. For a tuple field
    the rule holds for each item."""
    return dataclasses.field(default=default, metadata={
        "min": min, "positive": positive, "among": among})


def check(cfg) -> None:
    """Raise ConfigError naming the first field of ``cfg`` whose value breaks
    its type or rule; store a list given for a tuple field as a tuple."""
    hints = _hints(type(cfg))
    for f in dataclasses.fields(cfg):
        tp, value, name = hints[f.name], getattr(cfg, f.name), f.name
        if typing.get_origin(tp) is types.UnionType:  # X | None
            if value is None:
                continue
            tp = typing.get_args(tp)[0]
        if typing.get_origin(tp) is not tuple:
            check_value(name, value, tp, **f.metadata)
            continue
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        if not value:
            raise ConfigError(f"{name} must not be empty")
        for i, item in enumerate(value):
            check_value(f"{name}[{i}]", item, typing.get_args(tp)[0],
                        **f.metadata)
        if len(set(value)) != len(value):
            raise ConfigError(f"{name} has duplicates")
        object.__setattr__(cfg, name, tuple(value))


def check_value(where: str, value, tp, *, min=None, positive=False,
                among=None) -> None:
    """Raise ConfigError if ``value``, named ``where``, is not a ``tp`` or
    breaks the rule :func:`field` declares with these keywords."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # a float field's int must fit a float; comparing a huge int is exact
    finite = tp is not float or (number and abs(value) <= sys.float_info.max)
    ok = (finite if tp is float else
          number and isinstance(value, int) if tp is int else
          isinstance(value, tp))
    broken = [] if ok else \
        [f"{where}: expected {_WANT.get(tp, tp.__name__)}, got {value!r}"]
    # a non-finite float breaks its field's bound too, and the message says so
    if ok or (tp is float and number):
        if among is not None and value not in among:
            broken.append(f"{where}: expected one of {among}, got {value!r}")
        elif min is not None and not (finite and value >= min):
            finite_and = " finite and" if tp is float else ""
            broken.append(f"{where} must be{finite_and} >= {min}, got "
                          f"{value!r}")
        elif positive and not (finite and value > 0):
            broken.append(f"{where} must be finite and positive, got "
                          f"{value!r}")
    if broken:
        raise ConfigError("; ".join(broken))
