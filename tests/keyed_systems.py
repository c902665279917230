"""Systems and answers keyed by column name, over the numbered row core.

``relaxation_engine`` works on numbered columns only.  Tests that write a
system by name build a ``KeyedSystem``, a record with the four fields a
``LinearSystem`` reads as (``variables``, ``equations``, ``forced_zero``
and ``alias``), through ``keyed_system``, which makes ``variables[j]``
column j and renames every key in the equations and in ``forced_zero``
to its column.  ``lp_feasible``, ``diophantine_feasible`` and
``relative_interior_support`` take either kind, run the row core on its
equations and key their results by ``variables``; an alias takes its
representative's value, support and zeroing.  ``orbit`` and
``orbit_max`` act on lambda keys by permuting positions, for the tests
of the orbit quotient.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

from crystalforge import relaxation_engine as rx


class KeyedSystem(NamedTuple):
    """A hand-built system: ``variables[j]`` names column j, and
    ``equations`` and ``forced_zero`` refer to columns by number."""

    variables: tuple
    equations: tuple
    forced_zero: frozenset
    alias: dict


class Infeasible(ValueError):
    """``relative_interior_support`` of a system whose polytope is empty."""


def keyed_system(variables, equations, forced_zero=()) -> KeyedSystem:
    """``equations`` is a sequence of (items, rhs), items being (VarKey,
    coeff) pairs in the order the columns should appear."""
    variables = tuple(variables)
    col = {v: j for j, v in enumerate(variables)}
    eqs = tuple((tuple((col[v], c) for v, c in items), rhs) for items, rhs in equations)
    return KeyedSystem(variables, eqs, frozenset(col[v] for v in forced_zero), {})


def live_columns(sys) -> list[int]:
    forced = sys.forced_zero
    return [j for j in range(len(sys.variables)) if j not in forced]


def lp_feasible(sys):
    """A nonnegative exact-rational solution keyed by variable, or None
    (phase-1 optimum > 0)."""
    lp = rx._lp_pass(sys.equations)
    if lp is None:
        return None
    witness, alias, variables = lp[0], sys.alias, sys.variables
    return {variables[j]: Fraction(witness.get(alias.get(j, j), 0)) for j in live_columns(sys)}


def diophantine_feasible(sys, forced_zero=()):
    """An integer solution keyed by variable, with the given variables
    zeroed, or None."""
    variables, alias = sys.variables, sys.alias
    col = {v: j for j, v in enumerate(variables)}
    zero = frozenset(alias.get(col[v], col[v]) for v in forced_zero)
    sol = rx.integer_feasible(sys.equations, zero)
    if sol is None:
        return None
    return {v: sol.get(alias.get(j, j), 0) for j, v in enumerate(variables)}


def dead_columns(lp) -> frozenset:
    """The columns of the rows that are 0 on the whole polytope, given
    ``_lp_pass``'s result: those the presolve kept or eliminated, outside
    the support; the set ``decide_ba`` zeroes."""
    red = lp[1]
    return frozenset((red.live | red.subs.keys()) - rx.relative_interior_support(lp))


def relative_interior_support(sys) -> set:
    """The variables positive somewhere on the feasible polytope (raises
    ``Infeasible`` when it is empty).  Columns in no row are unconstrained,
    hence in the support; forced-zero columns are not."""
    lp = rx._lp_pass(sys.equations)
    if lp is None:
        raise Infeasible("system has no nonnegative rational solution")
    dead, alias, variables = dead_columns(lp), sys.alias, sys.variables
    return {variables[j] for j in live_columns(sys) if alias.get(j, j) not in dead}


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
