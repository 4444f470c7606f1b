"""Plain record classes without per-class code generation.

A subclass lists its fields as class annotations, in order, with defaults
as class attributes::

    class Verdict(Record, frozen=True):
        status: str
        witness: Any = None

and gets positional and keyword construction with defaults, an optional
`__post_init__` hook run after the fields are set, equality and hashing on
the tuple of fields (records of different classes are never equal), and the
repr `Verdict(status='holds', witness=None)`.  A frozen record refuses
attribute assignment and deletion; a mutable one is unhashable.
`functools.cached_property` works on both, since it writes the instance
dict directly.  The fields are read once per class, in `__init_subclass__`.
"""
from operator import attrgetter

_set = object.__setattr__


def _refuse_assignment(self, name, value=None):
    raise AttributeError("cannot assign to field %r of a frozen %s" % (name, type(self).__name__))


class Record:
    _fields = ()
    _defaults = {}
    _tail = ()  # the defaults of the trailing fields, in order

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__")
        if own is None:  # lazily evaluated annotations (Python 3.14+)
            own = cls.__annotations__
        inherited = cls._fields
        cls._fields = fields = inherited + tuple(n for n in own if n not in inherited)
        cls._defaults = defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._tail = tuple(defaults[n] for n in fields[len(fields) - len(defaults):])
        # the field tuple of an instance; attrgetter returns a bare value for one name
        getter = attrgetter(*fields) if fields else (lambda record: ())
        cls._values = staticmethod(getter if len(fields) != 1 else lambda record: (getter(record),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        missing = len(self._fields) - len(args)
        if kwargs or not 0 <= missing <= len(self._tail):
            args = self._bind(args, kwargs)
        elif missing:
            args += self._tail[-missing:]
        # set one by one, in field order, so that instances keep the compact
        # shared-key attribute layout (an updated instance dict loses it)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values in order, from positional and keyword arguments
        and the defaults."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError("%s takes %d arguments but %d were given" % (name, len(fields), len(args)))
        rest = fields[len(args):]
        for key in kwargs:
            if key not in rest:
                raise TypeError("%s got an unexpected or repeated argument %r" % (name, key))
        values = list(args)
        for key in rest:
            if key in kwargs:
                values.append(kwargs[key])
            elif key in self._defaults:
                values.append(self._defaults[key])
            else:
                raise TypeError("%s is missing the argument %r" % (name, key))
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._fields)
        return "%s(%s)" % (type(self).__qualname__, pairs)
