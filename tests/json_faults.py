"""One fault in a JSON payload, for the format property tests.

``mutated(doc)`` draws the text of a parsed JSON document with one fault:
one of its integers spelled as a float, a bool, a string, or with a
``+``, a leading zero or ``-0`` (``NUMBER_SPELLINGS``); a key of one of
its objects written twice; or a key added to one of its objects that the
format does not have.  Every loader of the package must refuse each of
them as a format error.

``dump`` writes a document in which an object may be a ``Pairs``, a list
of (key, value) pairs, so that a key can appear twice.
"""

import copy
import json

from hypothesis import strategies as st

NUMBER_SPELLINGS = {
    "float": lambda v: st.sampled_from([f"{v}.0", f"{v}.5", f"{v}e0"]),
    "bool": lambda v: st.sampled_from(["true", "false"]),
    "string": lambda v: st.just(f'"{v}"'),
    "sign-or-zero": lambda v: st.sampled_from([f"+{v}", f"0{v}", f"-0{v}"]),
}

PLACEHOLDER = "NUMBER"


class Pairs(list):
    """A JSON object as its (key, value) pairs, in order."""


def dump(doc) -> str:
    if isinstance(doc, dict):
        doc = Pairs(doc.items())
    if isinstance(doc, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {dump(value)}" for key, value in doc) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(dump(value) for value in doc) + "]"
    return json.dumps(doc)


def places(doc, path=()):
    """(path, node) for every node of a parsed document, the root first;
    a path is the keys and indices that lead to the node."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from places(value, path + (key,))


def _put(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, doc) -> str:
    doc = copy.deepcopy(doc)
    nodes = list(places(doc))
    numbers = [(path, node) for path, node in nodes if type(node) is int]
    objects = [(path, node) for path, node in nodes if isinstance(node, dict) and node]
    kinds = ([*NUMBER_SPELLINGS] if numbers else []) + ["repeated-key", "unknown-key"]
    kind = draw(st.sampled_from(kinds))
    if kind in NUMBER_SPELLINGS:
        path, value = draw(st.sampled_from(numbers))
        spelled = draw(NUMBER_SPELLINGS[kind](value))
        return dump(_put(doc, path, PLACEHOLDER)).replace(json.dumps(PLACEHOLDER), spelled)
    path, obj = draw(st.sampled_from(objects))
    pairs = Pairs(obj.items())
    if kind == "repeated-key":
        pair = draw(st.sampled_from(pairs))
    else:
        pair = (draw(st.text(max_size=4).filter(lambda key: key not in obj)),
                draw(st.none() | st.integers(0, 3)))
    pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return dump(_put(doc, path, pairs))
