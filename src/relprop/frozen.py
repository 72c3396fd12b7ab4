"""The base of every relprop record, MiniC and logic nodes included: immutable
records whose methods are written once, here, instead of generated per class.

`@dataclass(frozen=True)` compiles six methods for every class it decorates,
on every start. A `Frozen` subclass is registered with
`dataclass(init=False, repr=False, eq=False)` when it is created, which
declares its fields (so `dataclasses.fields`, `is_dataclass` and `replace`
work as before) and compiles nothing. Records compare by value, as frozen
dataclasses do, leaving out fields declared `compare=False` (a span); a
class declared with `eq=False`, such as an interned logic node class,
compares and hashes by identity. Every field is positional except a MiniC
node's `span`, which has a parameter of its own, so the common call packs no
keyword dict. Defaults are read from the class, where `dataclass` puts them;
there are no default factories and no `__post_init__`: a record that derives
a field writes its own `__init__`, which calls `Frozen.__init__`.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter

_set = object.__setattr__
_UNSET = object()  # a span not given


class Frozen:
    """An immutable record whose fields are declared as dataclass fields.
    Each subclass keeps its positional fields (`__match_args__`, `_fields`),
    the required ones (`_required`), those `repr` shows (`_shown`), whether
    its `span` is keyword-only (`_span_param`) and the getter of the tuple
    `==` and `hash` compare (`_key`)."""

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # With a docstring in place, dataclass() does not compute one from
        # inspect.signature, which would cost more than the registration.
        doc, cls.__doc__ = cls.__doc__, cls.__name__
        fs = fields(dataclass(cls, init=False, repr=False, eq=False))
        cls.__doc__ = doc
        cls._fields = frozenset(cls.__match_args__)
        cls._required = frozenset(f.name for f in fs
                                  if f.init and f.default is MISSING)
        cls._shown = tuple(f.name for f in fs if f.repr)
        cls._span_param = any(f.name == "span" and f.kw_only for f in fs)
        names = [f.name for f in fs if f.compare]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif len(names) == 1:
            get = attrgetter(names[0])
            cls._key = lambda record: (get(record),)
        else:
            cls._key = attrgetter(*names) if names else lambda record: ()

    def __init__(self, *args, span=_UNSET, **kwargs):
        names = self.__match_args__
        if span is not _UNSET and not self._span_param:
            kwargs["span"], span = span, _UNSET  # checked as any keyword
        if kwargs or len(args) != len(names):
            given = kwargs.keys() | names[:len(args)]
            if len(given) < len(args) + len(kwargs) \
                    or not self._required <= given <= self._fields:
                raise TypeError(f"{self.__class__.__name__}{names} got {len(args)}"
                                f" positional arguments and keywords {list(kwargs)}")
            # Nodes are built positionally; a record built by keyword gets
            # its dict filled at once, which costs less than a call a field.
            self.__dict__.update(kwargs)
        # One attribute at a time, as the generated constructor did: filling
        # `__dict__` at once would give each instance a dict of its own,
        # which costs memory and slows every later field read.
        i = 0
        for value in args:
            _set(self, names[i], value)
            i += 1
        if span is not _UNSET:
            _set(self, "span", span)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self.__class__._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

