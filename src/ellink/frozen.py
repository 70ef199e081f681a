"""The one base of the package's immutable value types."""


class Frozen:
    """An immutable value whose fields are its constructor's parameters.

    A subclass's ``__init__`` checks its arguments and sets each one, under
    the parameter's name, with ``object.__setattr__``; any later assignment
    or deletion raises AttributeError.  Equality, hashing and repr go by type
    and fields.  Instances keep a ``__dict__``, so ``cached_property`` works.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
