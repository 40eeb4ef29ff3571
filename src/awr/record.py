"""Frozen value types, built without generated code.

Every value type of the package derives from `Record`.  A subclass
declares its fields as class annotations, in order, with optional
defaults as class attributes, and may define `__post_init__` to check
and normalize them (through `object.__setattr__`, as the instance is
frozen).  Each subclass gets:

* a constructor that takes the fields by position or keyword, fills in
  defaults, then calls `__post_init__`;
* equality and hashing on its field values, between instances of the
  same class only, so `Disk(0.5)` and `SectorReal(0.5)` differ;
* `Name(field=value!r, ...)` as its repr;
* assignment and deletion that raise AttributeError.

An instance's `__dict__` holds exactly its fields, in field order, so
equality compares the dicts and the hash is that of the tuple of field
values.  The hash is kept in a slot after its first use: the scans hash
the same expression tree on every cached call.  The constructor is the
one method made per class, a closure over the field names; a class
that defines its own keeps it, so a type built on every arithmetic step
can store its fields directly.  `fields` lists a record's field names
and `replace` copies it with some fields changed.
"""

from __future__ import annotations


def _bind(cls, args, kwargs):
    """Field values, in order, from a call with keywords or missing fields."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            values.append(cls._defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                        f"argument {next(iter(kwargs))!r}")
    return values


def _constructor(names, post: bool):
    n = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(names, args))
        if post:
            self.__post_init__()

    return __init__


class Record:
    """Base of the frozen value types; see the module docstring."""

    __slots__ = ("_hash",)
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ())
               if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls._fields, hasattr(cls, "__post_init__"))

    def __eq__(self, other):
        if type(other) is type(self):
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(tuple(self.__dict__.values()))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # copies and pickles go through the constructor, not the frozen slot
        return type(self), tuple(self.__dict__.values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def fields(rec) -> tuple:
    """The field names of a record or record class, in order."""
    return rec._fields


def replace(rec, **changes):
    """A copy of rec with the named fields changed, built and checked anew."""
    return type(rec)(**{**{name: getattr(rec, name) for name in rec._fields}, **changes})
