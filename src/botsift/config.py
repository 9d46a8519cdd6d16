"""One checker for the config records `LogRegParams`, `SvmParams`,
`ForestParams`, `BoostingParams`, `NnParams`, `synth.SynthConfig` and
`windows.WindowConfig`: each one's `__post_init__` is, or calls, `check`,
`build` makes one from a mapping, and `require` checks one value.

A field's annotation is its rule. `int` takes a Python or numpy integer,
`float` also an int, which stays an int, but neither takes a bool or NaN.
`Literal`, `Sequence`, `Optional` and `Union` read as in `typing`, and
`Annotated[int, "[1, inf)"]`, such as `Count` or `Seed`, adds a range as
text. `read_json_object` reads the JSON files that hold a record.
"""

from __future__ import annotations

import json
from dataclasses import fields
from numbers import Integral, Real
from typing import (Annotated, Literal, Union, get_args, get_origin,
                    get_type_hints)

Count = Annotated[int, "[1, inf)"]
Seed = Annotated[int, "[0, inf)"]

_KINDS = {int: (Integral, "an integer"), float: (Real, "a number"),
          str: (str, "a string"), type(None): (type(None), "None")}


class ConfigError(TypeError, ValueError):
    """A refused name or value; both a TypeError and a ValueError."""


def build(cls, values: dict):
    """cls(**values), refusing every name that is not a field of cls."""
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    return cls(**values)


def read_json_object(path) -> dict:
    """The JSON object in the UTF-8 file at path, refusing any other."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def check(record) -> None:
    """Refuses the first field of record whose value breaks its rule."""
    hints = get_type_hints(type(record), include_extras=True)
    for f in fields(record):
        require(f.name, getattr(record, f.name), hints[f.name])


def require(name: str, value, hint) -> None:
    """Refuses value, named name, unless it keeps the rule hint."""
    if not _fits(value, hint):
        raise ConfigError(f"{name} must be {_describe(hint)}, got {value!r}")


def _fits(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        low, high = map(float, args[1][1:-1].split(","))
        return _fits(value, args[0]) and (
            (low <= value if args[1][0] == "[" else low < value)
            and (value <= high if args[1][-1] == "]" else value < high))
    if origin is Union:
        return any(_fits(value, arg) for arg in args)
    if origin is Literal:
        return isinstance(value, str) and value in args
    if args:  # Sequence[...]
        return (isinstance(value, (list, tuple))
                and all(_fits(item, args[0]) for item in value))
    # value == value refuses NaN
    return (isinstance(value, _KINDS.get(hint, (hint,))[0])
            and not isinstance(value, bool) and value == value)


def _describe(hint) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return f"{_describe(args[0])} in {args[1]}"
    if origin is Union:
        return " or ".join(map(_describe, args))
    if origin is Literal:
        return "one of " + ", ".join(map(repr, args))
    if args:  # Sequence[...]
        return f"a list, each {_describe(args[0])}"
    return _KINDS.get(hint, (hint, "a " + hint.__name__))[1]
