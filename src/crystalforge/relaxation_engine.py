"""Level-k lift-and-project systems over digraphs and their exact deciders.

``build_ip_system`` materializes the equation system with one lambda
variable per (vertex-tuple, value-tuple) pair and one mu variable per
(instance edge, template edge) pair.  Marginality for a generating set of
position maps (a transposition, a k-cycle and a rank-(k-1) collapse) spans
marginality for all k^k maps, and the transposition and k-cycle rows say
that every solution is constant on the orbits of position permutations.
So the system is built on those orbits: one representative column per
orbit, the others recorded as its aliases, and the rows are normalization,
collapse marginality and mu marginality (for one map that uses both edge
ends) over the representatives; pattern vanishing is realized as
forced-zero variables.  ``build_ip_system`` gives the argument that this
is exact for BLP, AIP, BA and the relative-interior support.  Systems over
a fixed size budget are refused before they are built.

All of a system but its mu rows and columns depends only on (|V(X)|,
|V(A)|, k): the lambda VarKeys, the forced-zero lambda columns, ``alias``
and the normalization and collapse rows.  ``_lambda_block`` builds that
block, and the process holds one, the last built: a call with the same
(|V(X)|, |V(A)|, k) adds only the edge rows to it.  A call with another
key drops the held block before it builds its own, so two are never
alive together; a refused call neither builds nor drops one.  The block
is immutable, and the systems built on it share its read-only ``alias``.

Variables are numbered columns, and ``variables[j]`` names column j.
The solver core takes rows in the shape of ``LinearSystem.equations``:
``_lp_pass`` (presolve and phase 1), ``_dead_columns`` (the columns 0 on
the whole polytope, found by maximizing on the tableau ``_lp_pass``
leaves) and ``integer_feasible`` (the one integer solver, with a set of
columns fixed to 0).  One ``_check_witness`` checks every witness they
return against the rows.  Only ``build_ip_system`` and the public
boundary functions (``lp_feasible``, ``diophantine_feasible``,
``relative_interior_support``) read ``variables``, ``forced_zero`` and
``alias``; there results cross back to VarKeys, and an alias takes its
representative's value.  The deciders and the certificate edge systems
hand the core their rows as they are.

Three deciders share the infrastructure:

* BLP: nonnegative rational feasibility (exact simplex, phase 1, Bland's
  anti-cycling rule, on int rows over one positive denominator each; the
  tableau's own pivot brings the presolved rows to reduced row-echelon
  form, the one Gauss-Jordan routine);
* AIP: integer feasibility (integer presolve, then a Smith normal form
  taken straight on the presolved integer rows, pivoting on the least
  nonzero entry; no rational row reduction);
* BA: rational feasibility, then integer feasibility of the rows with
  every column that vanishes on the whole polytope zeroed (the dead set,
  outside the relative-interior support, found by maximizing columns one
  at a time).  An integral phase-1 witness ends the decision with YES:
  it satisfies every row (checked) and is nonnegative, so it lies in the
  polytope; a dead column is 0 at every point of the polytope, so it is 0
  in the witness; and so the witness is an integer solution of the rows
  with the dead set zeroed, which is what the integer step looks for.

Everything is exact: the only number types are arbitrary-precision
integers and, for witness values and optima only, ``Fraction``.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Optional

_Q = Fraction  # the rational type of witnesses and optima

from . import Immutable, refuse_over
from .digraph_lab import Digraph, DigraphError, refines

VarKey = tuple  # ('l', x_tuple, a_tuple) or ('m', x_edge, a_edge)

# the most columns ``build_ip_system`` lists: the 248,904 of K4 -> K3 at
# k = 5 build in 0.17 s at 67 MB peak RSS.  Their lambda block (36 MB
# under tracemalloc) stays held after the call returns, and RSS stays at
# 67 MB; a build of K2 -> K2 at k = 2 drops it, to 34 MB RSS.  The
# benchmark's largest system has 20,808
_MAX_COLUMNS = 10**6
# the highest level it takes: past it (n*m)^k > 2^64 unless n = m = 1,
# and then the one lambda column is still a pair of k-tuples
_MAX_LEVEL = 64
# the lambda block of the last (n, m, k) built, with its key, as one
# ((n, m, k), block) pair: see ``build_ip_system``
_held: Optional[tuple] = None


class Infeasible(ValueError):
    pass


class LinearSystem(Immutable):
    """A sparse integer equation system over numbered columns.

    ``variables[j]`` is the VarKey that names column j.  ``equations`` and
    ``forced_zero`` refer to columns by their int index, so presolve,
    sorting and lookups hash small ints instead of nested tuples.  Each
    equation is ``(((column, coeff), ...), rhs)`` with its columns
    ascending.  Keys appear only at the boundary: the witnesses of
    ``lp_feasible`` and ``diophantine_feasible``, the set returned by
    ``relative_interior_support`` and the ``forced_zero=`` argument of
    ``diophantine_feasible`` are VarKeys.

    ``alias`` maps a column that is equal to another in every solution,
    and appears in no equation, to that column, its representative
    (``build_ip_system`` gives each orbit of position permutations one).
    The boundary functions read an alias's value, support and zeroing
    through its representative; the solver core, which sees only the
    rows, never meets one.  It is empty at k = 1 and in a hand-built
    system, and read-only in a built one.  It takes part in ``==`` but not
    in ``hash``.
    """

    __slots__ = ("variables", "equations", "forced_zero", "alias")

    def __init__(
        self,
        variables: tuple[VarKey, ...],
        equations: tuple[tuple[tuple[tuple[int, int], ...], int], ...],
        forced_zero: frozenset[int],
        alias: Optional[dict[int, int]] = None,
    ):
        self._set(variables, equations, forced_zero, {} if alias is None else alias)

    def __hash__(self):
        return hash((self.variables, self.equations, self.forced_zero))

    def live_columns(self) -> list[int]:
        return [j for j in range(len(self.variables)) if j not in self.forced_zero]


def _blocks(t: tuple) -> tuple[tuple[int, ...], int]:
    """Equality pattern of a tuple: block id per position, number of blocks."""
    seen: dict = {}
    out = []
    for v in t:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out), len(seen)


def _rank(t: Iterable[int], base: int) -> int:
    """Index of a tuple over 1..base in ``itertools.product`` order."""
    r = 0
    for v in t:
        r = r * base + v - 1
    return r


def _canon(coeffs: dict, rhs: int):
    """Sort a nonempty row and make its lead positive."""
    items = tuple(sorted(coeffs.items()))
    if items[0][1] < 0:
        items = tuple((v, -c) for v, c in items)
        rhs = -rhs
    return (items, rhs)


def _mu_generators(k: int) -> list[tuple[int, ...]]:
    """Edge-end maps whose mu marginality implies that of every i in {0,1}^k."""
    if k == 1:
        return [(0,), (1,)]
    return [(0,) + (1,) * (k - 1)]


def build_ip_system(x_graph: Digraph, a_graph: Digraph, k: int) -> LinearSystem:
    """The level-k system for instance X against template A, on the orbits
    of position permutations.

    With n = |V(X)|, m = |V(A)| and tuples ranked in ``itertools.product``
    order, lambda (x, a) is column rank(x)*m^k + rank(a) and mu (y, b) is
    column n^k*m^k + idx(y)*|E(A)| + idx(b), where idx is the position in
    the sorted edge list.  Column order is the sorted order of the VarKeys,
    so the sorted equations and everything computed from them are those of
    a system keyed by VarKeys.  A system of more than ``_MAX_COLUMNS``
    columns, n^k*m^k + |E(X)|*|E(A)|, or a level above ``_MAX_LEVEL`` is
    refused with ``DigraphError`` before anything is listed, and so is a
    level below 1.  Everything but the mu rows and columns comes from the
    held lambda block of (n, m, k) (see the module docstring and
    ``_lambda_block``).

    At k = 1 the mu pattern-vanishing family is dropped; everything else is
    uniform in k.  Forced-zero variables (pattern vanishing) are eliminated
    up front: they are declared but never appear in an equation.  The
    normalization and mu rows are emitted canonical, columns ascending and
    lead positive; only the collapse rows are sorted by ``_canon``.

    The full system.  For a tuple t and a map i: [k] -> [k] write
    t.i = (t[i(0)], ..., t[i(k-1)]), so that t.(i o j) = (t.i).j.  It has
    normalization (each x-slice of lambda sums to 1), the lambda equation
    of every i at every (x, a),

        L_i(x, a):  sum over ahat with ahat.i = a of l(x, ahat) = l(x.i, a),

    and the mu equation of every i in {0,1}^k at every edge y,

        M_i(y, a):  sum over template edges b with b.i = a of m(y, b) = l(y.i, a).

    Generators.  L_{i o j}(x, a) = L_j(x.i, a) + sum over b with b.j = a
    of L_i(x, b), because both sides expand to the same sums of l(x, .)
    and l(x.i, .) terms.  By induction on the length of a word in the
    generators, every L_i is a sum of generator equations (the identity,
    the empty word, gives 0 = 0).  The transposition (1 0 2 ... k-1) and
    the k-cycle (1 2 ... k-1 0) generate the symmetric group S_k on [k],
    and with the collapse c = (0 0 2 ... k-1), a map of rank k-1, they
    generate the full transformation monoid.  For k >= 2 every i in
    {0,1}^k factors as i = i0 o j with i0 = (0 1 ... 1) and j = i read as
    a map [k] -> [k] (i0 fixes 0 and 1), and
    M_i(y, a) = L_j(y.i0, a) + sum over c' with c'.j = a of M_i0(y, c').
    At k = 1 both maps in {0,1}^1 are kept.  So the rows of the
    transposition, the k-cycle and c at every x, normalization and M_i0
    span the full system's rows over the integers.

    Orbits.  For a permutation p the sum in L_p(x, a) has the one term
    ahat = a.p^-1, so L_p says l(x, b) = l(x.p, b.p): every solution,
    rational or integer, is constant on the orbits of S_k acting on the
    live lambda columns by (x, b) -> (x.p, b.p), and the transposition and
    k-cycle rows say exactly that.  Each orbit has one representative, its
    largest column: x sorted non-increasing, b permuted alike.  Positions
    with equal x carry equal b in a live column, so the representative is
    unique.  ``alias`` maps every other live lambda column to it.
    Substituting l(x, b) := l(rep(x, b)) is a bijection from the solutions
    of the rows below onto those of the full system: it inverts
    restriction to the representatives and mu, it keeps nonnegativity and
    integrality, and a column is positive somewhere exactly when its
    representative is.  So BLP, AIP, BA and the relative-interior support,
    read through ``alias``, give the full system's answers.  The rows,
    each lambda column replaced by its representative, are:

    * normalization once per representative x (the slices of x and of x.p
      map onto each other);
    * no transposition or k-cycle rows (they become 0 = 0);
    * L_c at every x: modulo the orbit equalities L_c(x.p, .) is
      L_{p o c}(x, .), a different map, so no x can be skipped;
    * M_i0 at every edge.

    Forced-zero variables do not break these identities: every emitted
    row is a full row with the forced-zero columns deleted (a row whose a
    is incompatible with the pattern of x.i or y.i becomes 0 = 0), and
    deleting columns commutes with adding rows; the forced-zero set is a
    union of orbits, because refinement is kept by permuting positions.
    """
    if k < 1:
        raise DigraphError(f"level k must be >= 1, got {k}")
    n, m = x_graph.vertex_count, a_graph.vertex_count
    x_edges = x_graph.sorted_edges()
    a_edges = a_graph.sorted_edges()
    if k > _MAX_LEVEL:
        raise DigraphError(f"level {k} is over the budget of {_MAX_LEVEL}")
    columns = (n * m) ** k + len(x_edges) * len(a_edges)
    refuse_over(columns, _MAX_COLUMNS, f"the level-{k} system has {n}^{k}*{m}^{k} + "
                f"{len(x_edges)}*{len(a_edges)} = {columns} columns", DigraphError)
    global _held
    held = _held
    if held is None or held[0] != (n, m, k):
        held = _held = None  # drop the old block before building the new one
        held = _held = ((n, m, k), _lambda_block(n, m, k))
    lvars, lforced, alias, lrows, live = held[1]
    mk = m**k
    mu0 = len(lvars)
    variables = lvars + tuple([("m", y, b) for y in x_edges for b in a_edges])

    # mu marginality: the i-projection of an edge's mu slice reproduces
    # the lambda slice of the projected vertex tuple; a live lambda column
    # sorts before every mu column, so it leads its row, negated to +1.  A
    # mu row is no lambda row: it has a mu column, or it is one lambda
    # column = 0, and every lambda row has rhs 1 or two columns.
    forced: list[int] = []
    equations: dict = {}  # the mu rows, each canonical, as keys (deduplicated)
    for iy, y in enumerate(x_edges):
        by0 = mu0 + iy * len(a_edges)
        for i in _mu_generators(k):
            ryi = _rank(map(y.__getitem__, i), n)
            by_a: dict[int, list[int]] = {}
            for ib, b in enumerate(a_edges):
                if k >= 2 and not refines(y, b):
                    forced.append(by0 + ib)
                    continue
                by_a.setdefault(_rank(map(b.__getitem__, i), m), []).append(by0 + ib)
            for ra in live[ryi]:
                j = ryi * mk + ra
                row = ((alias.get(j, j), 1),) + tuple([(v, -1) for v in by_a.pop(ra, ())])
                equations[(row, 0)] = None
            for cols in by_a.values():
                equations[(tuple([(v, 1) for v in cols]), 0)] = None

    # the lambda rows come sorted, so this sort merges in the mu rows
    eq_tuple = tuple(sorted(lrows + tuple(equations)))
    return LinearSystem(variables, eq_tuple, lforced.union(forced), alias)


def _lambda_block(n: int, m: int, k: int) -> tuple:
    """The part of the level-k system of n instance and m template
    vertices that reads no edge: ``(variables, forced, alias, rows,
    live)``, where ``variables`` are the lambda VarKeys, ``forced`` the
    forced-zero lambda columns, ``alias`` a read-only view of the whole
    system's alias map (an alias is a lambda column), ``rows`` the
    normalization and collapse rows, sorted, and ``live[rank(x)]`` the
    ranks of the value tuples compatible with the pattern of x,
    ascending.  Every part is immutable, so the block can be held across
    calls and shared by the systems built on it.

    A collapse row has two columns at least: its two sides lie in the
    slices of x and x.c, whose representatives differ unless x.c = x,
    and then every term cancels and the row is not emitted."""
    xs = list(itertools.product(range(1, n + 1), repeat=k))
    avals = list(itertools.product(range(1, m + 1), repeat=k))
    mk = len(avals)
    variables = tuple([("l", x, a) for x in xs for a in avals])

    # Everything below depends on x only through its equality pattern, its
    # rank and the order of its values, so the value-tuple work is done
    # once per pattern and position map.
    tables: dict[tuple, tuple] = {}

    def table(t: tuple) -> tuple:
        """For the pattern of t: (a, rank(a)) for the value tuples a compatible
        with it and their ranks (the live ones), ascending as the vals do,
        the other ranks (the forced ones) and a cache of its marginals."""
        bl, nb = _blocks(t)
        if bl not in tables:
            comp = [(a, _rank(a, m)) for a in (tuple(vals[b] for b in bl)
                    for vals in itertools.product(range(1, m + 1), repeat=nb))]
            live = tuple([ra for _a, ra in comp])
            tables[bl] = (comp, live, set(range(mk)).difference(live), {})
        return tables[bl]

    def marginal(tab: tuple, i: tuple) -> list[tuple[int, list[int]]]:
        """The lambda terms of L_i(x, .) on the x-slice: each rank(ahat.i)
        with the ranks of its ahat compatible with the pattern."""
        if i not in tab[3]:
            terms: dict[int, list[int]] = {}
            for a, ra in tab[0]:
                terms.setdefault(_rank(map(a.__getitem__, i), m), []).append(ra)
            tab[3][i] = list(terms.items())
        return tab[3][i]

    forced: set[int] = set()
    alias: dict[int, int] = {}
    equations: dict = {}  # the rows, each canonical, as keys (deduplicated)

    identity = tuple(range(k))
    tabs = [table(x) for x in xs]
    for rank_x, x in enumerate(xs):
        bx = rank_x * mk
        forced.update([bx + ra for ra in tabs[rank_x][2]])
        # the positions in the order that makes x non-increasing (stable)
        p = tuple(sorted(identity, key=x.__getitem__, reverse=True))
        if p == identity:
            # normalization: each lambda slice sums to one
            equations[(tuple([(bx + ra, 1) for ra in tabs[rank_x][1]]), 1)] = None
        else:
            brep = _rank(map(x.__getitem__, p), n) * mk
            for rb, (ra,) in marginal(tabs[rank_x], p):
                alias[bx + ra] = brep + rb

    # lambda marginality for the collapse: projecting the x-slice along c
    # reproduces the slice of x.c
    if k >= 2:
        c = (0, 0) + identity[2:]
        for rank_x, x in enumerate(xs):
            bx = rank_x * mk
            bxc = _rank(map(x.__getitem__, c), n) * mk
            # every a compatible with the pattern of x.c is ahat.c for some
            # ahat compatible with that of x, so grouping the terms by
            # rank(ahat.c) gives every row of L_c(x, .); the representatives
            # of one x-slice are distinct
            for ra, rahats in marginal(tabs[rank_x], c):
                coeffs = {}
                for rahat in rahats:
                    j = bx + rahat
                    coeffs[alias.get(j, j)] = 1
                j = bxc + ra
                rcol = alias.get(j, j)
                if coeffs.pop(rcol, None) is None:
                    coeffs[rcol] = -1
                if coeffs:
                    equations[_canon(coeffs, 0)] = None

    live = tuple([tab[1] for tab in tabs])
    return variables, frozenset(forced), MappingProxyType(alias), tuple(sorted(equations)), live


# ---------------------------------------------------------------------------
# Presolve: repeatedly eliminate variables via equations that determine them,
# keeping the reduced system equivalent.  In nonneg (LP) mode a variable may
# only be replaced by an expression that is itself manifestly nonnegative;
# in integer mode any unit-coefficient variable may be eliminated.
#
# Every row stays integral: a row c*v + sum(cw*w) = rhs and its substitution
# v := (rhs - sum(cw*w)) / c are kept as Python ints, and elimination is
# fraction-free.  A row e with coefficient d on v becomes
# |c|*e - sign(c)*d*row, a positive multiple of the rational substitution
# e - (d/c)*row, so every coefficient keeps its sign and the elimination
# order, the reduced rows up to positive scaling, the simplex tableau built
# from them and the witnesses are those of rational elimination.  In nonneg
# mode a row is divided by the gcd of its coefficients and rhs after each
# elimination; in integer mode c is a unit and rows never grow.
#
# The loop relies on these without checking them: a live row's id is in
# ``occ[v]`` exactly when v is in the row (each coefficient set or cleared
# updates ``occ``); rows are deleted only right after being popped and only
# live rows are queued; a changed row is queued again, so every row left
# has >= 2 columns.  Nonneg mode needs no one-column rule: its sign rules
# refute c*v = rhs with rhs*c < 0, zero v at rhs = 0, and otherwise
# substitute (c, rhs, {}).
# ---------------------------------------------------------------------------


class _Reduced:
    """A presolved system: the rows left (``eqs``), the columns in them
    (``live``) and the eliminated columns (``subs``, in elimination order).

    A substitution names only columns that were in some row when it was
    made, and each of those is eliminated later, live at the end, or free
    (neither; read as 0).  So one pass over ``subs`` in reverse elimination
    order reads only settled columns, and neither ``resolve`` nor
    ``support_status`` recurses, however long a substitution chain is.
    Every row in ``eqs`` has at least two columns.
    """

    __slots__ = ("infeasible", "eqs", "subs", "live")

    def __init__(self):
        self.infeasible = False
        self.eqs: list[tuple[dict, int]] = []
        self.subs: dict = {}  # var -> (c, rhs, {w: cw}): c*var + sum(cw*w) = rhs
        self.live: set = set()

    def resolve(self, assignment: dict) -> dict:
        """Extend an assignment of live variables to all eliminated ones."""
        out = dict.fromkeys(self.live, 0)
        out.update(assignment)
        for v, (c, rhs, lin) in reversed(self.subs.items()):
            val = rhs - sum(cw * out.get(w, 0) for w, cw in lin.items())
            if c == -1:
                val = -val
            elif c != 1:
                val = _Q(val) / c
            out[v] = val
        return out

    def support_status(self, positive_live: set) -> set:
        """Variables that can be positive, given the live ones that can."""
        positive = self.live & positive_live
        for v, (c, rhs, lin) in reversed(self.subs.items()):
            if rhs * c > 0 or any(cw * c < 0 and w in positive for w, cw in lin.items()):
                positive.add(v)
        return positive


def _reduce(equations, nonneg: bool, zero: frozenset = frozenset()) -> _Reduced:
    """Presolve rows ``((column, coeff), ...), rhs`` with every column in
    ``zero`` fixed to 0; a row left as 0 = 0 is dropped on entry."""
    red = _Reduced()
    eqs: dict[int, tuple[dict, int]] = {}
    occ: defaultdict[object, set[int]] = defaultdict(set)
    for items, rhs in equations:
        coeffs = {v: c for v, c in items if c and v not in zero}
        if not coeffs and not rhs:
            continue
        eid = len(eqs)
        eqs[eid] = (coeffs, rhs)
        for v in coeffs:
            occ[v].add(eid)
    work = list(eqs)
    in_work = set(work)

    def substitute(v, c, rhs, lin):
        """Eliminate v through the row c*v + sum(lin) = rhs."""
        red.subs[v] = (c, rhs, lin)
        scale = abs(c)
        for eid in occ.pop(v, ()):
            if eid not in eqs:
                continue
            coeffs, erhs = eqs[eid]
            d = coeffs.pop(v)
            if c < 0:
                d = -d
            if scale != 1:
                for w in coeffs:
                    coeffs[w] *= scale
                erhs *= scale
            if rhs:
                erhs -= d * rhs
            for w, cw in lin.items():
                nc = coeffs.get(w, 0) - d * cw
                if nc:
                    coeffs[w] = nc
                    occ[w].add(eid)
                else:
                    del coeffs[w]
                    occ[w].discard(eid)
            if nonneg:
                g = math.gcd(erhs, *coeffs.values())
                if g > 1:
                    for w in coeffs:
                        coeffs[w] //= g
                    erhs //= g
            eqs[eid] = (coeffs, erhs)
            if eid not in in_work:
                work.append(eid)
                in_work.add(eid)

    while work:
        eid = work.pop()
        in_work.discard(eid)
        coeffs, rhs = eqs[eid]
        if not coeffs:
            if rhs != 0:
                red.infeasible = True
                return red
            del eqs[eid]
            continue
        if len(coeffs) == 1 and not nonneg:
            (v, c), = coeffs.items()
            if rhs % c:
                red.infeasible = True
                return red
            del eqs[eid]
            substitute(v, 1, rhs // c, {})
            continue
        if nonneg:
            npos = 0
            for c in coeffs.values():
                if c > 0:
                    npos += 1
            nneg = len(coeffs) - npos
            if not npos or not nneg:
                if rhs == 0:
                    vs = list(coeffs)
                    del eqs[eid]
                    for v in vs:
                        substitute(v, 1, 0, {})
                    continue
                if (rhs < 0) if not nneg else (rhs > 0):
                    red.infeasible = True
                    return red
            # v := (rhs - sum(cw*w)) / c has only nonnegative terms exactly
            # when rhs*c >= 0 and v is the row's only variable with the
            # sign of c
            candidates = [
                (v, c) for v, c in coeffs.items()
                if (c > 0 and npos == 1 and rhs >= 0) or (c < 0 and nneg == 1 and rhs <= 0)
            ] if npos == 1 or nneg == 1 else ()
        else:
            candidates = [(v, c) for v, c in coeffs.items() if c in (1, -1)]
        # the candidate in the fewest rows, the first on ties
        cand = min(candidates, key=lambda vc: len(occ[vc[0]]), default=None)
        if cand is not None:
            v, c = cand
            del eqs[eid]
            for w in coeffs:
                occ[w].discard(eid)
            del coeffs[v]  # the row, less v, is the substitution's lin
            substitute(v, c, rhs, coeffs)

    # final dedup (and, in integer mode, content reduction); rows equal up
    # to a nonzero multiple share the primitive row with a positive lead
    seen = set()
    final = []
    for coeffs, rhs in eqs.values():
        g = math.gcd(*coeffs.values())
        if not nonneg:
            if rhs % g:
                red.infeasible = True
                return red
            if g > 1:
                coeffs = {v: c // g for v, c in coeffs.items()}
                rhs = rhs // g
                g = 1
        else:
            g = math.gcd(g, rhs)
        key_items = tuple(sorted(coeffs.items()))
        if key_items[0][1] < 0:
            g = -g
        key = (tuple((v, c // g) for v, c in key_items), rhs // g)
        if key in seen:
            continue
        seen.add(key)
        final.append((coeffs, rhs))
    red.eqs = final
    red.live = {v for coeffs, _ in final for v in coeffs}
    return red


# ---------------------------------------------------------------------------
# Exact-rational simplex (phase 1 + objective phase), Bland's rule.
# ---------------------------------------------------------------------------


class _Simplex:
    """Equality-form simplex over exact rationals, on one dense tableau of
    Python ints.

    The rows come in as int rows (the nonnegative presolve keeps its rows
    integral), and row i stands for ``tab[i] / den[i]``, with one
    denominator per row.  After every ``_pivot`` three invariants hold:
    ``den[i] > 0``, ``gcd(den[i], *tab[i]) == 1``, and the entry of row i
    in its basic column equals ``den[i]``.  So each row is the rational
    tableau's row in lowest terms over a positive denominator, and every
    test the pivot rules make has the outcome it has in rational
    arithmetic: the sign of an entry or reduced cost is the sign of its
    numerator, and the ratio test compares rhs_i / a_ik by
    cross-multiplying (the row denominator cancels).  The pivots, optima
    and witnesses are therefore those of the same simplex on ``Fraction``
    entries; ``solution()`` and the optima come back as ``_Q`` values.

    ``__init__`` lays the rows out once (the columns of ``variables``, then
    the rhs) and row-reduces them with ``_pivot`` itself, one row at a
    time: each row has already been reduced by every earlier pivot and
    pivots on its first nonzero column; a row left all zero is dropped,
    and a zero row with a nonzero rhs marks the system inconsistent.  The
    kept rows stay in input order with their pivot columns as the basis.
    The reduced row-echelon form of a set of rows is unique, so this is the
    tableau any separate Gauss-Jordan pass over the rows would build, and
    the phase-1 and support pivots, optima and witnesses that follow are
    those of such a pass.  ``feasible()`` adds the phase-1 artificial
    columns to that same tableau and drives them out: a row whose basic
    column is still artificial (at value 0) pivots on its first nonzero
    real column.  One always exists: the RREF rows are independent over
    the real columns, and negating rows and pivoting are invertible row
    operations, so the real part of the tableau keeps full row rank and no
    row is zero there.  After it succeeds, ``maximize`` can be called
    repeatedly with different objective columns (warm starts from the
    current feasible basis).  Every basic column has a reduced cost of
    exactly 0 (its row holds the row denominator there, every other row
    0), so ``_run`` never enters one; phase 1 maximizes minus the sum of
    the artificials, at most 0, so it is never unbounded; and after
    ``feasible()`` no artificial column is basic.
    """

    def __init__(self, eqs, variables):
        self.vars = list(variables)
        self.n = n = len(self.vars)
        self.col = {v: j for j, v in enumerate(self.vars)}
        self.inconsistent = False
        self._tab = tab = []
        for coeffs, rhs in eqs:
            row = [0] * (n + 1)
            for v, c in coeffs.items():
                row[self.col[v]] = c
            row[n] = rhs
            tab.append(row)
        self._den = den = [1] * len(tab)
        self._basis = [None] * len(tab)
        i = 0
        while i < len(tab):
            lead = next((j for j in range(n) if tab[i][j]), None)
            if lead is not None:
                self._pivot(i, lead)
                i += 1
            elif tab[i][n]:
                self.inconsistent = True
                tab.clear()
                den.clear()
                self._basis.clear()
            else:
                del tab[i]
                del den[i]
                del self._basis[i]

    def feasible(self) -> bool:
        if self.inconsistent:
            return False
        tab, den, basis, n = self._tab, self._den, self._basis, self.n
        m = len(tab)
        # phase 1: one artificial column per row with negative rhs
        self._ncols = ncols = n + m
        art = set()
        for i, row in enumerate(tab):
            rhs = row.pop()
            extra = [0] * m
            if rhs < 0:
                row[:] = [-c for c in row]
                rhs = -rhs
                extra[i] = den[i]
                basis[i] = n + i
                art.add(n + i)
            row += extra + [rhs]
        if art:
            cost = [0] * ncols
            for j in art:
                cost[j] = -1
            if self._run(cost) < 0:
                return False
        # drive leftover artificials out of the basis
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] in art:
                self._pivot(i, next(j for j in range(n) if tab[i][j]))
        for i, row in enumerate(tab):
            del row[n : n + m]
            den[i] = _lowest_terms(row, den[i])
        self._ncols = n
        return True

    def _pivot(self, i, j):
        """Make row i's entry in column j its denominator and clear column j
        from every other row: a row r with f = r[j] != 0 becomes
        p*r - f*row_i over den*p, in lowest terms, where p is the new pivot
        entry.  Rows with a zero in column j are not touched."""
        tab, den = self._tab, self._den
        row = tab[i]
        g = math.gcd(*row)
        if row[j] < 0:
            g = -g
        if g != 1:
            row[:] = [c // g for c in row]
        p = den[i] = row[j]
        nz = [jj for jj, c in enumerate(row) if c]
        for ii, r2 in enumerate(tab):
            f = r2[j]
            if f and ii != i:
                if p != 1:
                    r2[:] = [p * c for c in r2]
                for jj in nz:
                    r2[jj] -= f * row[jj]
                d = den[ii] * p
                if d != 1:
                    den[ii] = _lowest_terms(r2, d, nz)
        self._basis[i] = j

    def _run(self, cost) -> Optional[object]:
        """Maximize cost^T x from the current feasible basis (Bland's rule).

        Returns the optimum, or None when unbounded.  The reduced costs
        cost[j] - sum_i cost[basis[i]] * tab[i][j] / den[i] are computed
        once, over the lcm of the denominators they use, with the negated
        objective value in the rhs slot.  The row rides at the bottom of the
        tableau, with its denominator at the bottom of ``den``, while the
        loop runs, so ``_pivot`` keeps it current, 0 in every basic column.
        """
        tab, den, basis, ncols = self._tab, self._den, self._basis, self._ncols
        used = [(cost[b], i) for i, b in enumerate(basis) if cost[b]]
        d = math.lcm(*(den[i] for _, i in used))
        obj = [d * c for c in cost] + [0]
        for cb, i in used:
            f = cb * (d // den[i])
            for jj, c in enumerate(tab[i]):
                if c:
                    obj[jj] -= f * c
        m = len(tab)
        tab.append(obj)
        den.append(_lowest_terms(obj, d))
        try:
            while True:
                enter = next((j for j in range(ncols) if obj[j] > 0), None)
                if enter is None:
                    return _Q(-obj[-1], den[m])
                # min ratio rhs_i / a_i over a_i > 0, ties to the least
                # basic column; with both a positive, the sign of
                # rhs_i / a_i - rhs_l / a_l is that of rhs_i * a_l - rhs_l * a_i
                leave = None
                for i in range(m):
                    a = tab[i][enter]
                    if a > 0:
                        rhs = tab[i][-1]
                        if leave is None:
                            leave, best_a, best_rhs = i, a, rhs
                            continue
                        diff = rhs * best_a - best_rhs * a
                        if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                            leave, best_a, best_rhs = i, a, rhs
                if leave is None:
                    return None  # unbounded
                self._pivot(leave, enter)
        finally:
            tab.pop()
            den.pop()

    def maximize(self, var) -> Optional[object]:
        """Maximize a single variable from the current feasible state.

        Must be called after ``feasible()`` returned True.  Returns None
        when unbounded above.
        """
        cost = [0] * self._ncols
        cost[self.col[var]] = 1
        return self._run(cost)

    def solution(self) -> dict:
        out = {}
        for i, b in enumerate(self._basis):
            out[self.vars[b]] = _Q(self._tab[i][-1], self._den[i])
        return out


def _lowest_terms(row: list, d: int, first=()) -> int:
    """Divide the int row over denominator d > 0 by gcd(d, *row), in place;
    return the new denominator.  The entries at the indices ``first`` are
    tried first: the gcd is usually 1 after a few of them, and then the
    rest of the row is not read."""
    g = d
    for jj in first:
        g = math.gcd(g, row[jj])
        if g == 1:
            return d
    g = math.gcd(g, *row)
    if g != 1:
        row[:] = [c // g for c in row]
    return d // g


# ---------------------------------------------------------------------------
# Smith normal form and integer linear systems.
# ---------------------------------------------------------------------------


def smith_normal_form(m_rows: list[list[int]]):
    """Diagonalize an integer matrix: returns (U, D, V) with U*M*V = D,
    U and V unimodular, and the diagonal entries nonnegative and in a
    divisibility chain.

    One pivot rule.  Every pass over position t swaps the nonzero entry of
    least absolute value in rows >= t and columns >= t (the first in
    row-major order on ties) to (t, t), then reduces the rest of column t
    and row t by floor quotients.  Termination: a pass that leaves a
    remainder leaves a nonzero entry smaller in absolute value than the
    pivot, so the next pass picks a strictly smaller pivot.  A pass that
    clears column t and row t but finds an entry of the remaining
    submatrix not divisible by the pivot adds that entry's row to row t;
    the next pass keeps the pivot at (t, t), first in row-major order, or
    takes a smaller one, and in the first case reducing row t leaves a
    remainder.  So the absolute value of the pivot, a positive integer,
    falls at least every second pass until position t is settled: column
    t and row t clear, and the pivot dividing every entry left below and
    to its right, which keeps the diagonal a divisibility chain.  The
    settled pivot is made positive.
    """
    r = len(m_rows)
    n = len(m_rows[0]) if r else 0
    M = [list(map(int, row)) for row in m_rows]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def addmul_row(dst, src, f):
        Md, Ms = M[dst], M[src]
        for j in range(n):
            Md[j] += f * Ms[j]
        Ud, Us = U[dst], U[src]
        for j in range(r):
            Ud[j] += f * Us[j]

    def addmul_col(dst, src, f):
        for row in M:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    t = 0
    while t < min(r, n):
        best = None
        for i in range(t, r):
            for j in range(t, n):
                v = abs(M[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        M[t], M[bi] = M[bi], M[t]
        U[t], U[bi] = U[bi], U[t]
        for row in itertools.chain(M, V):
            row[t], row[bj] = row[bj], row[t]
        p = M[t][t]
        for i in range(t + 1, r):
            q = M[i][t] // p
            if q:
                addmul_row(i, t, -q)
        for j in range(t + 1, n):
            q = M[t][j] // p
            if q:
                addmul_col(j, t, -q)
        if any(M[i][t] for i in range(t + 1, r)) or any(M[t][j] for j in range(t + 1, n)):
            continue
        viol = next(
            (i for i in range(t + 1, r) if any(M[i][j] % p for j in range(t + 1, n))), None
        )
        if viol is not None:
            addmul_row(t, viol, 1)
            continue
        if p < 0:
            M[t] = [-c for c in M[t]]
            U[t] = [-c for c in U[t]]
        t += 1
    return U, M, V


def _independent_integer_rows(eqs, variables):
    """Lay sparse integer rows (coefficient-dict, rhs) out as a dense
    integer matrix over the columns of ``variables`` and its rhs vector.
    The rows are passed on as they are: dependent or inconsistent rows are
    left for the Smith normal form to expose."""
    col = {v: j for j, v in enumerate(variables)}
    mat = []
    for coeffs, _rhs in eqs:
        row = [0] * len(variables)
        for v, c in coeffs.items():
            row[col[v]] = c
        mat.append(row)
    return mat, [rhs for _coeffs, rhs in eqs]


def _check_witness(rows, values: dict) -> None:
    """Raise ``AssertionError`` unless ``values`` (ints or ``Fraction``s,
    an absent column reading 0) satisfies every row.  The check is in
    integers: with D the lcm of the denominators (1 for an int) and
    N_j = D * value_j, each row must give sum(c * N_j) = rhs * D."""
    den = math.lcm(*(val.denominator for val in values.values()))
    num = {j: val.numerator * (den // val.denominator) for j, val in values.items()}
    for items, rhs in rows:
        if sum(c * num.get(j, 0) for j, c in items) != rhs * den:
            raise AssertionError("witness failed re-substitution")


def integer_feasible(rows, zero: frozenset = frozenset()) -> Optional[dict]:
    """Solve a sparse integer equality system exactly.

    ``rows`` is a sequence of ``(((column, coeff), ...), rhs)``, the shape
    of ``LinearSystem.equations``; columns may be any sortable keys.  Every
    column in ``zero`` is fixed to 0.  Returns an integer solution as
    {column: value}, an absent column being 0, or None.
    """
    red = _reduce(rows, nonneg=False, zero=zero)
    if red.infeasible:
        return None
    live = sorted(red.live)
    assignment: dict = {}
    if red.eqs:
        mat, rhs = _independent_integer_rows(red.eqs, live)
        U, D, V = smith_normal_form(mat)
        r, n = len(mat), len(live)
        c = [sum(U[i][j] * rhs[j] for j in range(r)) for i in range(r)]
        y = [0] * n
        for i in range(r):
            d = D[i][i] if i < n else 0
            if d == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % d:
                    return None
                y[i] = c[i] // d
        xs = [sum(V[i][j] * y[j] for j in range(n)) for i in range(n)]
        assignment = dict(zip(live, xs))
    # integer presolve substitutes through unit pivots, so the values are
    # ints; zeroed columns are absent and read as 0
    out = red.resolve(assignment)
    _check_witness(rows, out)
    return out


# ---------------------------------------------------------------------------
# Public deciders.
# ---------------------------------------------------------------------------


def _lp_pass(rows):
    """Nonnegative presolve and simplex phase 1, with a checked witness.

    Returns ``(witness, reduced, simplex)``, or None when the rows have no
    nonnegative rational solution.  The witness maps every column of the
    presolved rows and every eliminated column to its value; a column in
    no row reads 0.  It is checked against every row (``_check_witness``)
    and for nonnegativity before it is returned.  The simplex is left on
    that feasible basis for ``maximize``.
    """
    red = _reduce(rows, nonneg=True)
    if red.infeasible:
        return None
    sx = _Simplex(red.eqs, sorted(red.live))
    if not sx.feasible():
        return None
    witness = red.resolve(sx.solution())
    _check_witness(rows, witness)
    if any(val < 0 for val in witness.values()):
        raise AssertionError("rational witness not nonnegative")
    return witness, red, sx


def lp_feasible(sys: LinearSystem) -> Optional[dict]:
    """A nonnegative exact-rational solution keyed by VarKey, or None
    (phase-1 optimum > 0).  An alias takes its representative's value."""
    lp = _lp_pass(sys.equations)
    if lp is None:
        return None
    witness, alias = lp[0], sys.alias
    return {sys.variables[j]: _Q(witness.get(alias.get(j, j), 0)) for j in sys.live_columns()}


def diophantine_feasible(sys: LinearSystem, forced_zero: Iterable[VarKey] = ()) -> Optional[dict]:
    """An integer solution keyed by VarKey, with the given variables zeroed.

    An alias equals its representative in every solution, so zeroing
    either zeroes both."""
    alias = sys.alias
    zero = frozenset(forced_zero)
    if zero:
        col = {v: j for j, v in enumerate(sys.variables)}
        zero = frozenset(alias.get(col[v], col[v]) for v in zero)
    sol = integer_feasible(sys.equations, zero)
    if sol is None:
        return None
    return {v: sol.get(alias.get(j, j), 0) for j, v in enumerate(sys.variables)}


def _dead_columns(lp) -> frozenset:
    """The columns of the rows that are 0 on the whole feasible polytope,
    given ``lp``, the ``(witness, reduced, simplex)`` that ``_lp_pass``
    returned for them.

    The support is found by maximizing the columns one at a time
    (warm-started on a shared tableau); a column unbounded above is
    trivially positive somewhere, and every witness encountered marks all
    its positive columns, so most columns never need their own run.  A
    column the presolve left in no row and did not eliminate is free, so
    positive somewhere, and is not dead.
    """
    _witness, red, sx = lp
    positive = {j for j, val in sx.solution().items() if val > 0}
    for j in sx.vars:
        if j in positive:
            continue
        opt = sx.maximize(j)
        if opt is None or opt > 0:
            positive.add(j)
            positive.update(w for w, val in sx.solution().items() if val > 0)
    return frozenset((red.live | red.subs.keys()) - red.support_status(positive))


def relative_interior_support(sys: LinearSystem) -> set[VarKey]:
    """Variables positive somewhere on the feasible polytope (raises
    ``Infeasible`` when it is empty).  Columns in no row are unconstrained,
    hence in the support; forced-zero columns are not; an alias is in it
    when its representative is."""
    lp = _lp_pass(sys.equations)
    if lp is None:
        raise Infeasible("system has no nonnegative rational solution")
    dead, alias = _dead_columns(lp), sys.alias
    return {sys.variables[j] for j in sys.live_columns() if alias.get(j, j) not in dead}


def decide_blp(x_graph: Digraph, a_graph: Digraph, k: int) -> bool:
    return _lp_pass(build_ip_system(x_graph, a_graph, k).equations) is not None


def decide_aip(x_graph: Digraph, a_graph: Digraph, k: int) -> bool:
    return integer_feasible(build_ip_system(x_graph, a_graph, k).equations) is not None


def decide_ba(x_graph: Digraph, a_graph: Digraph, k: int) -> bool:
    """BA^k: rational feasibility, then integer feasibility with every
    column that is 0 on the whole polytope zeroed.  One presolve and one
    phase 1 serve both steps: ``_lp_pass`` runs them, checks its witness
    against every row and for nonnegativity, and hands its tableau on to
    ``_dead_columns``.

    An integral witness ends the decision with YES, before the support
    loop and the integer step.  It satisfies every row and is nonnegative,
    so it lies in the polytope.  A dead column is 0 at every point of the
    polytope, so it is 0 in the witness.  So the witness is an integer
    solution of the rows with the dead set zeroed, which is exactly what
    ``integer_feasible(rows, dead)`` looks for."""
    rows = build_ip_system(x_graph, a_graph, k).equations
    lp = _lp_pass(rows)
    if lp is None:
        return False
    if all(val.denominator == 1 for val in lp[0].values()):
        return True
    return integer_feasible(rows, _dead_columns(lp)) is not None
