"""The base of the MiniC and logic node classes: immutable records whose
methods are written once, here, instead of generated for each class.

`@dataclass(frozen=True)` compiles an `__init__`, `__repr__`, `__eq__`,
`__hash__`, `__setattr__` and `__delattr__` for every class it decorates,
and relprop's node classes paid for that on every start. A `Frozen`
subclass is registered with `dataclass(init=False, repr=False, eq=False)`
when it is created, which declares its fields (so `dataclasses.fields` and
`is_dataclass` work as before) and compiles nothing. Equality and hashing
stay object identity here; `minic.Node` adds structural ones.

Every field is positional except `span`, the source span of a MiniC node,
which is keyword-only and has a parameter of its own: the common call, the
fields in order and perhaps a span, then packs no keyword dict. A `span`
left out reads its default, `None`, from the class, where `dataclass` puts
every default.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

_set = object.__setattr__


class Frozen:
    """An immutable record whose fields are declared as dataclass fields.

    Each subclass keeps the names of its positional fields in order
    (`__match_args__`, which `dataclass` sets) and of the fields `repr`
    shows (`_shown`)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # With a docstring in place, dataclass() does not compute one from
        # inspect.signature, which would cost more than the registration.
        doc, cls.__doc__ = cls.__doc__, cls.__name__
        fs = fields(dataclass(cls, init=False, repr=False, eq=False))
        cls.__doc__ = doc
        cls._shown = tuple(f.name for f in fs if f.repr)

    def __init__(self, *args, span=None, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # One attribute at a time, as the generated constructor did: filling
        # `__dict__` at once would give each instance a dict of its own,
        # which costs memory and slows every later field read. Indexing
        # `names` is cheaper here than zipping.
        i = 0
        for value in args:
            _set(self, names[i], value)
            i += 1
        if span is not None:
            _set(self, "span", span)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The positional fields of a call that names some by keyword or
        leaves some to their defaults."""
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
            given[name] = value
        defaults = {f.name: f.default for f in fields(cls)}
        missing = [n for n in names if n not in given and defaults[n] is MISSING]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return tuple(given[n] if n in given else defaults[n] for n in names)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
