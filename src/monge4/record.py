"""Record: immutable records that, unlike NamedTuples, are not tuples."""


class Record:
    """The fields named in __slots__, given by position or name (defaults
    in _defaults).  A record equals one of its type whose fields outside
    _uncompared are equal; repr omits _unshown; _replace as on NamedTuples."""

    __slots__ = ()
    _defaults = {}
    _uncompared = _unshown = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or not values.keys() >= set(names)
                or kwargs.keys() - set(names[len(args):])):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), tuple(self._asdict().values())

    def _key(self) -> tuple:
        return tuple(v for k, v in self._asdict().items()
                     if k not in self._uncompared)

    def __eq__(self, other):
        return (self._key() == other._key() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{k}={v!r}" for k, v in self._asdict().items()
                 if k not in self._unshown)
        return f"{type(self).__name__}({', '.join(shown)})"
