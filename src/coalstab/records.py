"""Plain immutable records.  A subclass declares its fields as annotated
class attributes in constructor order, each optionally with a default (the
defaulted fields last); `__post_init__` may normalise them with
`object.__setattr__`."""


class Record:
    """Field-wise equality, hashing and repr; assignment raises
    AttributeError; pickling re-runs the constructor."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or kwargs and not set(kwargs) <= set(fields[len(args):]):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}; got "
                            f"{len(args)} positional arguments and the keywords {sorted(kwargs)}")
        values = {**self._defaults, **dict(zip(fields, args), **kwargs)}
        if len(values) < len(fields):
            raise TypeError(f"{type(self).__qualname__}() missing required arguments "
                            f"{[f for f in fields if f not in values]}")
        for f in fields:
            object.__setattr__(self, f, values[f])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._astuple()
