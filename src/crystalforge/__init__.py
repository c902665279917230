"""crystalforge: exact integer tensor crystals, shadow systems, and
lift-and-project relaxation hierarchies on digraphs."""

import json

__version__ = "0.1.0"


def json_int(value) -> int:
    """A JSON integer as it is: an ``int`` that is not a ``bool``.  A float,
    a bool or a string is refused with ``TypeError``, not rounded or parsed.
    Every JSON loader of the package reads its numbers through this."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def json_once(pairs: list) -> dict:
    """The ``object_pairs_hook`` of every JSON loader of the package: the
    object of ``pairs``, with a key that appears twice refused with
    ``ValueError`` (``json.loads`` alone keeps the last)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set = set()
        dup = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"key {json.dumps(dup)} appears twice")
    return doc


def json_keys(doc: dict, keys: set) -> None:
    """Refuse with ``ValueError`` a JSON object with a key outside ``keys``,
    naming the least such key."""
    extra = sorted(doc.keys() - keys)
    if extra:
        raise ValueError(f"unexpected key {json.dumps(extra[0])}")


def refuse_over(count: int, budget: int, what: str, error: type) -> None:
    """Raise ``error("<what>, over the budget of <budget>")`` when ``count``
    is over ``budget``.  Every budget on a count of things to be listed
    is checked through this, before anything is listed."""
    if count > budget:
        raise error(f"{what}, over the budget of {budget}")


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
