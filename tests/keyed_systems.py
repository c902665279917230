"""Hand-built systems over VarKeys, numbered into a ``LinearSystem``.

``LinearSystem`` equations refer to columns by int index; tests that write
a system with VarKeys go through ``keyed_system``, which makes
``variables[j]`` column j and renames every key in the equations and in
``forced_zero`` to its column.  ``orbit`` and ``orbit_max`` act on
lambda keys by permuting positions, for the tests of the orbit quotient.
"""

import itertools

from crystalforge.relaxation_engine import LinearSystem


def orbit(key) -> set:
    """The lambda keys (x.p, a.p) for every permutation p of the positions."""
    _, x, a = key
    return {
        ("l", tuple(x[q] for q in p), tuple(a[q] for q in p))
        for p in itertools.permutations(range(len(x)))
    }


def orbit_max(key):
    """The largest key in the orbit of a lambda key; a mu key itself."""
    return max(orbit(key)) if key[0] == "l" else key


def keyed_system(variables, equations, forced_zero=()) -> LinearSystem:
    """``equations`` is a sequence of (items, rhs), items being (VarKey,
    coeff) pairs in the order the columns should appear."""
    variables = tuple(variables)
    col = {v: j for j, v in enumerate(variables)}
    eqs = tuple((tuple((col[v], c) for v, c in items), rhs) for items, rhs in equations)
    return LinearSystem(variables, eqs, frozenset(col[v] for v in forced_zero))
