"""The integer presolve and the simplex against reference implementations.

``reference_reduce`` is the rational nonnegative presolve that ``_reduce``
replaced: the same elimination rules carried out in ``Fraction``s.  The
integer presolve must make the same decisions and produce the same rows up
to positive scaling, so the tableau and the witnesses do not change.  The
simplex (phase 1, sparse pivots) is checked against sympy's exact
``linprog``.  ``reference_rref`` is the separate Gauss-Jordan routine that
built the reduced row-echelon form before the tableau's own pivot did; the
tableau ``_Simplex`` lays out, read row by row as ``tab[i] / den[i]``, must
be its result.  Witnesses are resolved through substitution chains longer
than the recursion limit.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import sympy
from hypothesis import given, settings, strategies as st
from keyed_systems import (
    Infeasible,
    KeyedSystem,
    keyed_system,
    lp_feasible,
    relative_interior_support,
)
from sympy.solvers.simplex import linprog

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import Digraph
from crystalforge.relaxation_engine import build_ip_system, integer_feasible


class ReferenceReduced:
    def __init__(self):
        self.infeasible = False
        self.eqs = []
        self.subs = {}  # var -> (const, {var: coeff})
        self.live = set()

    def resolve(self, den, assignment):
        """The values of every column, each live one worth its numerator
        over ``den``, in ``Fraction``s by recursion; returned over their
        lcm as the integer witness ``(D, {column: N})`` ``_lp_pass`` reads."""
        cache = {}

        def value(v):
            if v not in cache:
                if v in self.subs:
                    const, lin = self.subs[v]
                    cache[v] = const + sum(c * value(w) for w, c in lin.items())
                else:
                    cache[v] = Fraction(assignment.get(v, 0), den)
            return cache[v]

        values = {v: value(v) for v in set(self.subs) | self.live | set(assignment)}
        d = math.lcm(*(val.denominator for val in values.values()))
        return d, {v: int(val * d) for v, val in values.items()}

    def support_status(self, positive_live):
        cache = {}

        def pos(v):
            if v not in cache:
                cache[v] = False
                if v in self.subs:
                    const, lin = self.subs[v]
                    cache[v] = const > 0 or any(c > 0 and pos(w) for w, c in lin.items())
                else:
                    cache[v] = v in positive_live
            return cache[v]

        return {v for v in set(self.subs) | self.live if pos(v)}


def reference_reduce(equations) -> ReferenceReduced:
    """Nonnegative presolve over ``Fraction``s, as before the integer rewrite."""
    red = ReferenceReduced()
    eqs = {}
    occ = {}
    for eid, (items, rhs) in enumerate(equations):
        coeffs = {v: Fraction(c) for v, c in items if c}
        eqs[eid] = (coeffs, Fraction(rhs))
        for v in coeffs:
            occ.setdefault(v, set()).add(eid)
    work = list(eqs)
    in_work = set(work)

    def substitute(v, const, lin):
        red.subs[v] = (const, dict(lin))
        for eid in list(occ.pop(v, ())):
            if eid not in eqs:
                continue
            coeffs, rhs = eqs[eid]
            c = coeffs.pop(v, None)
            if c is None:
                continue
            rhs = rhs - c * const
            for w, cw in lin.items():
                nc = coeffs.get(w, 0) + c * cw
                if nc:
                    coeffs[w] = nc
                    occ.setdefault(w, set()).add(eid)
                else:
                    coeffs.pop(w, None)
                    occ.get(w, set()).discard(eid)
            eqs[eid] = (coeffs, rhs)
            if eid not in in_work:
                work.append(eid)
                in_work.add(eid)

    while work:
        eid = work.pop()
        in_work.discard(eid)
        if eid not in eqs:
            continue
        coeffs, rhs = eqs[eid]
        if not coeffs:
            if rhs != 0:
                red.infeasible = True
                return red
            del eqs[eid]
            continue
        if len(coeffs) == 1:
            (v, c), = coeffs.items()
            if rhs / c < 0:
                red.infeasible = True
                return red
            del eqs[eid]
            substitute(v, rhs / c, {})
            continue
        pos = all(c > 0 for c in coeffs.values())
        neg = all(c < 0 for c in coeffs.values())
        if pos or neg:
            if rhs == 0:
                vs = list(coeffs)
                del eqs[eid]
                for v in vs:
                    substitute(v, Fraction(0), {})
                continue
            if (pos and rhs < 0) or (neg and rhs > 0):
                red.infeasible = True
                return red
        cand = None
        for v, c in coeffs.items():
            if rhs / c < 0:
                continue
            if all(w == v or cw / c <= 0 for w, cw in coeffs.items()):
                use = len(occ.get(v, ()))
                if cand is None or use < cand[0]:
                    cand = (use, v, c)
        if cand is not None:
            _, v, c = cand
            lin = {w: -cw / c for w, cw in coeffs.items() if w != v}
            del eqs[eid]
            occ.get(v, set()).discard(eid)
            for w in lin:
                occ.get(w, set()).discard(eid)
            substitute(v, rhs / c, lin)

    seen = set()
    final = []
    for coeffs, rhs in eqs.values():
        if not coeffs:
            if rhs != 0:
                red.infeasible = True
                return red
            continue
        key_items = tuple(sorted(coeffs.items()))
        lead = key_items[0][1]
        key = (tuple((v, c / lead) for v, c in key_items), rhs / lead)
        if key in seen:
            continue
        seen.add(key)
        final.append((coeffs, rhs))
    red.eqs = final
    red.live = {v for coeffs, _ in final for v in coeffs}
    return red


def cleared(row):
    """A rational row (coefficient dict, rhs) times the lcm of its
    denominators: the positive integer multiple the simplex reads."""
    coeffs, rhs = row
    d = math.lcm(*(Fraction(c).denominator for c in (rhs, *coeffs.values())))
    return {v: int(c * d) for v, c in coeffs.items()}, int(rhs * d)


def with_reference_presolve(fn, sys):
    """fn(sys) with ``reference_reduce`` as the nonnegative presolve; its
    rows reach the simplex cleared of denominators."""
    real = rx._reduce

    def patched(equations, nonneg):
        if not nonneg:
            return real(equations, nonneg)
        ref = reference_reduce(equations)
        ref.eqs = [cleared(row) for row in ref.eqs]
        return ref

    with mock.patch.object(rx, "_reduce", patched):
        return fn(sys)


def positive_multiple(row, ref_row) -> bool:
    (coeffs, rhs), (ref_coeffs, ref_rhs) = row, ref_row
    if coeffs.keys() != ref_coeffs.keys():
        return False
    v = next(iter(coeffs))
    ratio = Fraction(coeffs[v]) / ref_coeffs[v]
    return ratio > 0 and rhs == ratio * ref_rhs and all(
        c == ratio * ref_coeffs[w] for w, c in coeffs.items()
    )


def support_or_none(sys):
    try:
        return relative_interior_support(sys)
    except Infeasible:
        return None


def assert_matches_reference(sys):
    red = rx._reduce(sys.equations, nonneg=True)
    ref = reference_reduce(sys.equations)
    assert red.infeasible == ref.infeasible
    if not red.infeasible:
        assert red.live == ref.live
        assert red.subs.keys() == ref.subs.keys()
        for v, (c, rhs, lin) in red.subs.items():
            const, ref_lin = ref.subs[v]
            assert Fraction(rhs, c) == const
            assert {w: Fraction(-cw, c) for w, cw in lin.items()} == ref_lin
        assert all(type(c) is int for coeffs, rhs in red.eqs for c in (rhs, *coeffs.values()))
        assert len(red.eqs) == len(ref.eqs)
        assert all(positive_multiple(row, ref_row) for row, ref_row in zip(red.eqs, ref.eqs))
    assert lp_feasible(sys) == with_reference_presolve(lp_feasible, sys)
    assert support_or_none(sys) == with_reference_presolve(support_or_none, sys)


@st.composite
def level_k_systems(draw):
    """Level-k systems with n, m <= 3 vertices, loops allowed, k <= 3."""
    k = draw(st.integers(1, 3))
    size = st.integers(1, 3) if k < 3 else st.integers(1, 2)
    graphs = []
    for n in (draw(size), draw(size)):
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        graphs.append(Digraph(n, frozenset(draw(st.sets(st.sampled_from(pairs))))))
    return build_ip_system(graphs[0], graphs[1], k)


@st.composite
def integer_systems(draw):
    """Random systems, x >= 0, of at most 6 variables and 5 equations with
    coefficients and rhs in [-3, 3]."""
    n = draw(st.integers(1, 6))
    variables = tuple(("l", (j,), (0,)) for j in range(n))
    rows = draw(st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-3, 3)),
        min_size=1, max_size=5,
    ))
    equations = {}
    for coeffs, rhs in rows:
        items = tuple((v, c) for v, c in zip(variables, coeffs) if c)
        if items or rhs:
            equations.setdefault((items, rhs), None)
    return keyed_system(variables, equations)


@settings(max_examples=60, deadline=None)
@given(level_k_systems())
def test_presolve_matches_reference_on_level_k_systems(sys):
    assert_matches_reference(sys)


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_presolve_matches_reference_on_integer_systems(sys):
    assert_matches_reference(sys)


@settings(max_examples=300, deadline=None)
@given(st.one_of(level_k_systems(), integer_systems()))
def test_presolve_leaves_no_row_of_fewer_than_two_columns(sys):
    # the final dedup reads a lead from every row left, and neither mode
    # keeps a one-column row: it fixes its column or refutes the system
    for nonneg in (True, False):
        red = rx._reduce(sys.equations, nonneg)
        if not red.infeasible:
            assert all(len(coeffs) >= 2 for coeffs, _rhs in red.eqs)


def test_presolve_scales_by_non_unit_pivots():
    # x, y, z >= 0:  2x - 3y = 1 eliminates x = (1 + 3y)/2; the row
    # 3x + 3y - 6z = 3 becomes 2*row - 3*(2x - 3y = 1) = 15y - 12z = 3, is
    # kept as 5y - 4z = 1, and eliminates y = (1 + 4z)/5
    x, y, z = (("l", (j,), (0,)) for j in range(3))
    sys = keyed_system((x, y, z), (
        (((x, 2), (y, -3)), 1),
        (((x, 3), (y, 3), (z, -6)), 3),
    ))
    red = rx._reduce(sys.equations, nonneg=True)
    assert red.subs == {0: (2, 1, {1: -3}), 1: (5, 1, {2: -4})}  # columns of x, y, z
    assert red.eqs == []
    assert lp_feasible(sys) == {x: Fraction(4, 5), y: Fraction(1, 5), z: 0}
    # the integer witness: y = 1/5 does not divide, so D is scaled from 1
    # to 5; x = (1*5 + 3*1) / 2 = 4/5 divides; z is free and absent
    assert red.resolve(1, {}) == (5, {1: 1, 0: 4})
    assert rx._lp_pass(sys.equations)[0] == (5, {1: 1, 0: 4})
    # the scaling also applies to the numerators resolved before it: with
    # z live at 1/3, y = (1 + 4/3)/5 = 7/15 and x = (1 + 7/5)/2 = 6/5
    assert red.resolve(3, {2: 1}) == (15, {2: 5, 1: 7, 0: 18})
    assert_matches_reference(sys)


def sympy_feasible(sys) -> bool:
    """Decide Ax = b, x >= 0 with sympy's exact ``linprog``.

    With the rows signed so that b >= 0, the system is feasible exactly
    when max 1^T A x subject to Ax <= b, x >= 0 reaches 1^T b.  The origin
    is feasible for that LP, so sympy's phase 1 has no work to do: given
    the equalities directly, sympy 1.14 loops or returns infeasible points
    on some of these systems.
    """
    rows = [(dict(items), rhs) for items, rhs in sys.equations if items]
    if len(rows) < len(sys.equations):
        return False  # a row 0 = rhs with rhs != 0
    if not rows:
        return True
    a = sympy.Matrix([[coeffs.get(j, 0) for j in range(len(sys.variables))] for coeffs, _ in rows])
    b = sympy.Matrix([rhs for _, rhs in rows])
    for i in range(len(rows)):
        if b[i] < 0:
            a[i, :], b[i] = -a[i, :], -b[i]
    opt, _x = linprog(-sympy.ones(1, len(rows)) * a, A=a, b=b)
    return -opt == sum(b)


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_lp_feasible_agrees_with_sympy_linprog(sys):
    witness = lp_feasible(sys)
    assert (witness is not None) == sympy_feasible(sys)
    if witness is not None:
        assert all(witness[v] >= 0 for v in sys.variables)
        for items, rhs in sys.equations:
            assert sum(c * witness[sys.variables[j]] for j, c in items) == rhs


# -- the tableau's own row reduction ------------------------------------------


def reference_rref(eqs, variables):
    """Reduced row-echelon form of a sparse rational system, by the routine
    ``_Simplex`` used before its own pivot did the work.

    Returns ``(rows, pivots, inconsistent)``: dense rows over the columns of
    ``variables`` followed by the rhs, each with a unit entry in its pivot
    column and zeros in every other pivot column; ``pivots[r]`` is the
    pivot column of ``rows[r]``.  Dependent rows are dropped.  When the
    rows are rationally inconsistent the result is ``([], [], True)``.
    """
    col = {v: j for j, v in enumerate(variables)}
    n = len(variables)
    rows = []
    pivot_row = {}  # col -> row index in rows
    for coeffs, rhs in eqs:
        row = [Fraction(0)] * (n + 1)
        for v, c in coeffs.items():
            row[col[v]] = Fraction(c)
        row[n] = Fraction(rhs)
        for j, ri in pivot_row.items():
            if row[j]:
                f = row[j]
                pr = rows[ri]
                for jj in range(n + 1):
                    if pr[jj]:
                        row[jj] -= f * pr[jj]
        lead = next((j for j in range(n) if row[j]), None)
        if lead is None:
            if row[n]:
                return [], [], True
            continue
        f = row[lead]
        if f != 1:
            for jj in range(n + 1):
                if row[jj]:
                    row[jj] /= f
        for r2 in rows:
            if r2[lead]:
                f = r2[lead]
                for jj in range(n + 1):
                    if row[jj]:
                        r2[jj] -= f * row[jj]
        pivot_row[lead] = len(rows)
        rows.append(row)
    pivots = [None] * len(rows)
    for j, ri in pivot_row.items():
        pivots[ri] = j
    return rows, pivots, False


@st.composite
def redundant_systems(draw):
    """Rows over at most 6 columns with coefficients in [-3, 3]: each row
    after the first is random, a duplicate of an earlier row, an integer
    combination of the earlier rows (dependent), or such a combination with
    its rhs shifted (inconsistent, or 0 = c when the combination is 0)."""
    n = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kinds = ("random", "duplicate", "dependent", "inconsistent") if rows else ("random",)
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            row = ([draw(small) for _ in range(n)], draw(small))
        elif kind == "duplicate":
            row = draw(st.sampled_from(rows))
        else:
            fs = [draw(small) for _ in rows]
            coeffs = [sum(f * r[0][j] for f, r in zip(fs, rows)) for j in range(n)]
            rhs = sum(f * r[1] for f, r in zip(fs, rows))
            if kind == "inconsistent":
                rhs += draw(st.sampled_from((-2, -1, 1, 2)))
            row = (coeffs, rhs)
        rows.append(row)
    return [({j: c for j, c in enumerate(coeffs) if c}, rhs) for coeffs, rhs in rows], list(range(n))


@st.composite
def presolved_level_k_rows(draw):
    """The rows the nonnegative presolve leaves of a small level-k system."""
    red = rx._reduce(draw(level_k_systems()).equations, nonneg=True)
    return red.eqs, sorted(red.live)


@settings(max_examples=300, deadline=None)
@given(st.one_of(redundant_systems(), presolved_level_k_rows()))
def test_simplex_tableau_is_the_reference_rref(case):
    eqs, variables = case
    sx = rx._Simplex(eqs, variables)
    rows = [[Fraction(c, d) for c in row] for row, d in zip(sx._tab, sx._den)]
    assert (rows, sx._basis, sx.inconsistent) == reference_rref(eqs, variables)



def test_phase_one_drives_a_leftover_artificial_out():
    # phase 1 ends at 0 with artificial column 7 still basic (at value 0);
    # the drive-out must pivot it onto a real column
    eqs = [
        ({0: -1, 1: 1, 2: -1, 4: 1, 5: -1}, -3),
        ({0: -1, 1: -2, 3: -2, 4: -2, 5: -1}, 0),
    ]
    n = 6
    sx = rx._Simplex(eqs, range(n))
    run, after_phase_one = sx._run, []

    def spy(cost):
        opt = run(cost)
        after_phase_one.append(list(sx._basis))
        return opt

    sx._run = spy
    assert sx.feasible() is True
    assert after_phase_one == [[2, 7]]
    assert all(b < n for b in sx._basis)
    den, x = sx.witness()
    assert den > 0 and all(v >= 0 for v in x.values())
    for coeffs, rhs in eqs:
        assert sum(c * x.get(j, 0) for j, c in coeffs.items()) == rhs * den

# -- no recursion in presolve resolution -------------------------------------


def test_integer_feasible_resolves_a_long_difference_chain(recursion_limit_1000):
    # x_j - x_{j+1} = 1, listed last row first: presolve substitutes each
    # column through the next, a chain 1,000 links long
    n = 1000
    rows = [(((j, 1), (j + 1, -1)), 1) for j in reversed(range(n))]
    sol = integer_feasible(rows)
    assert sol is not None
    assert all(sum(c * sol.get(v, 0) for v, c in items) == rhs for items, rhs in rows)


def anchored_chain(m):
    """x_0 = 1 as the first row, then x_{i+1} - x_i = 0, with x_i in column
    m - 1 - i, so the deepest substitution sits in the lowest column."""
    col = [m - 1 - i for i in range(m)]
    rows = [(((col[0], 1),), 1)]
    rows += [(tuple(sorted(((col[i + 1], 1), (col[i], -1)))), 0) for i in range(m - 1)]
    return KeyedSystem(tuple(("l", (j,), (0,)) for j in range(m)), tuple(rows), frozenset(), {})


def test_lp_feasible_resolves_a_long_anchored_chain(recursion_limit_1000):
    chain = anchored_chain(601)
    witness = lp_feasible(chain)
    assert witness == dict.fromkeys(chain.variables, 1)
    for items, rhs in chain.equations:
        assert sum(c * witness[chain.variables[j]] for j, c in items) == rhs


def test_support_resolves_a_long_anchored_chain(recursion_limit_1000):
    chain = anchored_chain(601)
    assert relative_interior_support(chain) == set(chain.variables)
