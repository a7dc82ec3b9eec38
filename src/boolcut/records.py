"""The base class of the library's frozen records.

A subclass lists its fields as annotations, in order, and gets what
``@dataclass(frozen=True)`` would give it: an ``__init__`` that takes the
fields by position or keyword, with class attributes as defaults, and then
calls ``__post_init__``; ``==`` and ``hash`` over the fields, between
records of one class only; the ``Name(field=value, ...)`` repr; and fields
that cannot be assigned or deleted.  The methods are shared by every
record, not generated per class, so that defining a record compiles
nothing and no module imports ``dataclasses``, which would load
``inspect``, ``ast``, ``dis`` and ``tokenize`` into every command process.

A subclass may define its own ``__init__`` or ``__repr__``; an ``__init__``
sets its fields through ``set_field``, which is ``object.__setattr__``.
Fields live in the instance ``__dict__``, as in a dataclass, so ``pickle``
restores a record without calling ``__setattr__``.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    """A frozen record whose fields are the annotations of its class, in order."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only the names are read, so string annotations serve as well.
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values, in order, from arguments given by position, keyword or default."""
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(cls._fields)} arguments, got {len(args)}"
            )
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                if name not in cls.__dict__:
                    raise TypeError(f"{cls.__qualname__}() is missing {name!r}")
                values[name] = cls.__dict__[name]
        return [values[name] for name in cls._fields]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
