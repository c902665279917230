"""The level-k build and the presolve as they were before they were made
lean, kept as the oracle that pins the new ones exactly.

``build_ip_system`` must give the same ``LinearSystem`` (``variables``,
``equations``, ``forced_zero`` and ``alias``) and ``_reduce`` the same
``_Reduced``: ``infeasible``, the rows in order with each dict's item
order, the substitutions in elimination order with each ``lin``'s item
order, and ``live``.  Then every tableau, pivot, witness and answer built
on them is unchanged.  The helpers are copied too, so the oracle shares no
code with what it checks beyond the record classes and ``refines``.
"""

import itertools
import math

from crystalforge.digraph_lab import Digraph, DigraphError, refines
from crystalforge.relaxation_engine import (
    _MAX_COLUMNS,
    _MAX_LEVEL,
    LinearSystem,
    _Reduced,
)


def _blocks(t: tuple) -> tuple[tuple[int, ...], int]:
    """Equality pattern of a tuple: block id per position, number of blocks."""
    seen: dict = {}
    out = []
    for v in t:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out), len(seen)


def _rank(t: tuple, base: int) -> int:
    """Index of a tuple over 1..base in ``itertools.product`` order."""
    r = 0
    for v in t:
        r = r * base + v - 1
    return r


def _canon(coeffs: dict, rhs: int):
    """Sort a row and make its lead positive.  The row is never empty:
    ``emit`` drops 0 = 0, and with m >= 1 every normalization row has a term."""
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
    """``relaxation_engine.build_ip_system`` as it was before its build was
    tabulated per equality pattern (see that docstring for the system)."""
    if k < 1:
        raise DigraphError(f"level k must be >= 1, got {k}")
    n, m = x_graph.vertex_count, a_graph.vertex_count
    x_edges = x_graph.sorted_edges()
    a_edges = a_graph.sorted_edges()
    if k > _MAX_LEVEL:
        raise DigraphError(f"level {k} is over the budget of {_MAX_LEVEL}")
    columns = (n * m) ** k + len(x_edges) * len(a_edges)
    if columns > _MAX_COLUMNS:
        raise DigraphError(
            f"the level-{k} system has {n}^{k}*{m}^{k} + {len(x_edges)}*{len(a_edges)} = "
            f"{columns} columns, over the budget of {_MAX_COLUMNS}"
        )
    xs = list(itertools.product(range(1, n + 1), repeat=k))
    avals = list(itertools.product(range(1, m + 1), repeat=k))
    mk = len(avals)
    mu0 = len(xs) * mk
    variables = tuple(
        [("l", x, a) for x in xs for a in avals]
        + [("m", y, b) for y in x_edges for b in a_edges]
    )

    # Everything below depends on x only through its equality pattern, its
    # rank and the order of its values, so the value-tuple work is done
    # once per pattern and position map.
    compat: dict[tuple, list[tuple[tuple, int]]] = {}

    def compatible(bl: tuple, nb: int) -> list[tuple[tuple, int]]:
        """(a, rank(a)) for the value tuples a compatible with a pattern."""
        if bl not in compat:
            compat[bl] = [
                (a, _rank(a, m))
                for a in (tuple(vals[b] for b in bl)
                          for vals in itertools.product(range(1, m + 1), repeat=nb))
            ]
        return compat[bl]

    marg: dict[tuple, list[tuple[int, int]]] = {}

    def marginal(bl_x: tuple, nb_x: int, i: tuple) -> list[tuple[int, int]]:
        """(rank(ahat.i), rank(ahat)) for each ahat compatible with the
        pattern of x: the lambda terms of L_i(x, .) on the x-slice."""
        key = (bl_x, i)
        if key not in marg:
            marg[key] = [(_rank(tuple(a[p] for p in i), m), ra)
                         for a, ra in compatible(bl_x, nb_x)]
        return marg[key]

    forced: set[int] = set()
    alias: dict[int, int] = {}
    equations: dict = {}

    def emit(coeffs: dict, rhs: int):
        if not coeffs and rhs == 0:
            return
        equations.setdefault(_canon(coeffs, rhs), None)

    identity = tuple(range(k))
    for rank_x, x in enumerate(xs):
        bx = rank_x * mk
        bl_x, nb_x = _blocks(x)
        live = {ra for _a, ra in compatible(bl_x, nb_x)}
        forced.update(bx + ra for ra in range(mk) if ra not in live)
        # the positions in the order that makes x non-increasing (stable)
        p = tuple(sorted(identity, key=lambda q: -x[q]))
        if p == identity:
            # normalization: each lambda slice sums to one
            emit({bx + ra: 1 for ra in live}, 1)
        else:
            brep = _rank(tuple(x[q] for q in p), n) * mk
            for rb, ra in marginal(bl_x, nb_x, p):
                alias[bx + ra] = brep + rb

    # lambda marginality for the collapse: projecting the x-slice along c
    # reproduces the slice of x.c
    if k >= 2:
        c = (0, 0) + identity[2:]
        for rank_x, x in enumerate(xs):
            bx = rank_x * mk
            bl_x, nb_x = _blocks(x)
            bxc = _rank(tuple(x[q] for q in c), n) * mk
            # every a compatible with the pattern of x.c is ahat.c for some
            # ahat compatible with that of x, so grouping the terms by
            # rank(ahat.c) gives every row of L_c(x, .); the representatives
            # of one x-slice are distinct
            rows: dict[int, dict[int, int]] = {}
            for ra, rahat in marginal(bl_x, nb_x, c):
                j = bx + rahat
                rows.setdefault(ra, {})[alias.get(j, j)] = 1
            for ra, coeffs in rows.items():
                j = bxc + ra
                rcol = alias.get(j, j)
                coeffs[rcol] = coeffs.get(rcol, 0) - 1
                emit({v: cf for v, cf in coeffs.items() if cf}, 0)

    # mu marginality: the i-projection of an edge's mu slice reproduces
    # the lambda slice of the projected vertex tuple
    for iy, y in enumerate(x_edges):
        by0 = mu0 + iy * len(a_edges)
        for i in _mu_generators(k):
            byi = _rank(tuple(y[p] for p in i), n) * mk
            by_a: dict[int, dict] = {}
            for ib, b in enumerate(a_edges):
                if k >= 2 and not refines(y, b):
                    forced.add(by0 + ib)
                    continue
                by_a.setdefault(_rank(tuple(b[p] for p in i), m), {})[by0 + ib] = 1
            for ra in range(mk):
                coeffs = dict(by_a.get(ra, {}))
                j = byi + ra
                if j not in forced:
                    coeffs[alias.get(j, j)] = -1
                emit(coeffs, 0)

    eq_tuple = tuple(sorted(equations))
    return LinearSystem(variables, eq_tuple, frozenset(forced), alias)


def _reduce(equations, nonneg: bool, zero: frozenset = frozenset()) -> _Reduced:
    """``relaxation_engine._reduce`` as it was before its presolve stopped
    building throwaway sets and dicts."""
    red = _Reduced()
    eqs: dict[int, tuple[dict, int]] = {}
    occ: dict = {}
    for items, rhs in equations:
        coeffs = {v: c for v, c in items if c and v not in zero}
        if not coeffs and not rhs:
            continue
        eid = len(eqs)
        eqs[eid] = (coeffs, rhs)
        for v in coeffs:
            occ.setdefault(v, set()).add(eid)
    work = list(eqs)
    in_work = set(work)

    def substitute(v, c, rhs, lin):
        """Eliminate v through the row c*v + sum(lin) = rhs."""
        red.subs[v] = (c, rhs, lin)
        scale = abs(c)
        for eid in list(occ.pop(v, ())):
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
            erhs -= d * rhs
            for w, cw in lin.items():
                nc = coeffs.get(w, 0) - d * cw
                if nc:
                    coeffs[w] = nc
                    occ.setdefault(w, set()).add(eid)
                else:
                    coeffs.pop(w, None)
                    occ.get(w, set()).discard(eid)
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
            npos = sum(1 for c in coeffs.values() if c > 0)
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
        cand = None
        for v, c in candidates:
            use = len(occ.get(v, ()))
            if cand is None or use < cand[0]:
                cand = (use, v, c)
        if cand is not None:
            _, v, c = cand
            lin = {w: cw for w, cw in coeffs.items() if w != v}
            del eqs[eid]
            occ.get(v, set()).discard(eid)
            for w in lin:
                occ.get(w, set()).discard(eid)
            substitute(v, c, rhs, lin)

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
