"""crystalforge: exact integer tensor crystals, shadow systems, and
lift-and-project relaxation hierarchies on digraphs."""

__version__ = "0.1.0"


class Immutable:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__``; its ``__init__``
    validates them and stores them, in slot order, with ``_set``.  After
    that any assignment or deletion raises ``AttributeError``, and ``==``
    compares every slot of two values of the same class.  A subclass is
    unhashable unless it defines ``__hash__``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)
