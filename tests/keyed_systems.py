"""Hand-built systems over VarKeys, numbered into a ``LinearSystem``.

``LinearSystem`` equations refer to columns by int index; tests that write
a system with VarKeys go through ``keyed_system``, which makes
``variables[j]`` column j and renames every key in the equations and in
``forced_zero`` to its column.
"""

from crystalforge.relaxation_engine import LinearSystem


def keyed_system(variables, equations, forced_zero=()) -> LinearSystem:
    """``equations`` is a sequence of (items, rhs), items being (VarKey,
    coeff) pairs in the order the columns should appear."""
    variables = tuple(variables)
    col = {v: j for j, v in enumerate(variables)}
    eqs = tuple((tuple((col[v], c) for v, c in items), rhs) for items, rhs in equations)
    return LinearSystem(variables, eqs, frozenset(col[v] for v in forced_zero))
