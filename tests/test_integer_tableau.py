"""The integer-row simplex tableau against the ``Fraction`` tableau it
replaced.

``ReferenceSimplex`` is that simplex, kept verbatim: every entry a
``Fraction``, the pivot row divided by its pivot and every other row
updated by rational multiply and subtract.  ``_Simplex`` keeps int rows
over one positive denominator per row and must make the same pivots, reach
the same phase-1 verdict and optima, leave the same basic solutions (its
integer ``witness()`` read as ``Fraction``s, and its ``positive()``
columns), and give the same ``lp_feasible`` witnesses and
``relative_interior_support`` sets, on
random systems, level-k systems, the clique ladder and BA on the line
digraph of K3.  After every pivot each row must satisfy the invariants
the ``_Simplex`` docstring states, and the objective row ``_run`` carries
must equal the reduced costs recomputed from the rows.
"""

import math
from fractions import Fraction
from typing import Optional
from unittest import mock

from hypothesis import given, settings, strategies as st
from keyed_systems import (
    Infeasible,
    KeyedSystem,
    lp_feasible,
    relative_interior_support,
    witness_values,
)
from test_presolve import integer_systems, level_k_systems, presolved_level_k_rows, redundant_systems

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import clique, line_digraph
from crystalforge.relaxation_engine import build_ip_system, decide_ba

_Q = Fraction


class ReferenceSimplex:
    """Equality-form simplex over exact rationals, on one dense tableau.

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
    current feasible basis).
    """

    def __init__(self, eqs, variables):
        self.vars = list(variables)
        self.n = n = len(self.vars)
        self.col = {v: j for j, v in enumerate(self.vars)}
        self.inconsistent = False
        self._tab = tab = []
        for coeffs, rhs in eqs:
            row = [_Q(0)] * (n + 1)
            for v, c in coeffs.items():
                row[self.col[v]] = _Q(c)
            row[n] = _Q(rhs)
            tab.append(row)
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
                self._basis.clear()
            else:
                del tab[i]
                del self._basis[i]

    def feasible(self) -> bool:
        if self.inconsistent:
            return False
        tab, basis, n = self._tab, self._basis, self.n
        m = len(tab)
        # phase 1: one artificial column per row with negative rhs
        self._ncols = ncols = n + m
        art = set()
        for i, row in enumerate(tab):
            rhs = row.pop()
            extra = [_Q(0)] * m
            if rhs < 0:
                row[:] = [-c for c in row]
                rhs = -rhs
                extra[i] = _Q(1)
                basis[i] = n + i
                art.add(n + i)
            row += extra + [rhs]
        if art:
            cost = [_Q(0)] * ncols
            for j in art:
                cost[j] = _Q(-1)
            opt = self._run(cost)
            if opt is None or opt < 0:
                return False
        # drive leftover artificials out of the basis
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] in art:
                self._pivot(i, next(j for j in range(n) if tab[i][j]))
        for row in tab:
            del row[n : n + m]
        self._ncols = n
        return True

    def _pivot(self, i, j):
        tab = self._tab
        row = tab[i]
        nz = [jj for jj, c in enumerate(row) if c]
        p = row[j]
        if p != 1:
            inv = 1 / p
            for jj in nz:
                row[jj] *= inv
        for ii, r2 in enumerate(tab):
            if ii != i and r2[j]:
                f = r2[j]
                for jj in nz:
                    r2[jj] -= f * row[jj]
        self._basis[i] = j

    def _run(self, cost) -> Optional[object]:
        """Maximize cost^T x from the current feasible basis (Bland's rule).

        Returns the optimum, or None when unbounded.  The reduced costs
        cost[j] - sum_i cost[basis[i]] * tab[i][j] are computed once, with
        the negated objective value in the rhs slot, and the row rides at
        the bottom of the tableau while the loop runs, so ``_pivot`` keeps
        it current.
        """
        tab, basis, ncols = self._tab, self._basis, self._ncols
        obj = list(cost) + [_Q(0)]
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb:
                for jj, c in enumerate(tab[i]):
                    if c:
                        obj[jj] -= cb * c
        in_basis = set(basis)
        m = len(tab)
        tab.append(obj)
        try:
            while True:
                enter = next((j for j in range(ncols) if obj[j] > 0 and j not in in_basis), None)
                if enter is None:
                    return -obj[-1]
                leave = None
                best = None
                for i in range(m):
                    a = tab[i][enter]
                    if a > 0:
                        ratio = tab[i][-1] / a
                        if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                            best, leave = ratio, i
                if leave is None:
                    return None  # unbounded
                in_basis.discard(basis[leave])
                in_basis.add(enter)
                self._pivot(leave, enter)
        finally:
            tab.pop()

    def maximize(self, var) -> Optional[object]:
        """Maximize a single variable from the current feasible state.

        Must be called after ``feasible()`` returned True.  Returns None
        when unbounded above.
        """
        cost = [_Q(0)] * self._ncols
        cost[self.col[var]] = _Q(1)
        return self._run(cost)

    def solution(self) -> dict:
        out = {}
        for i, b in enumerate(self._basis):
            if b < self.n:
                out[self.vars[b]] = self._tab[i][-1]
        return out

    def witness(self) -> tuple[int, dict]:
        """``solution()`` in the integer shape ``_lp_pass`` reads, over the
        lcm of its denominators."""
        values = self.solution()
        d = math.lcm(*(val.denominator for val in values.values()))
        return d, {v: int(val * d) for v, val in values.items()}

    def positive(self) -> set:
        return {v for v, val in self.solution().items() if val > 0}


def basic_solution(sx) -> tuple[dict, set]:
    """The basic solution either simplex leaves, as ``Fraction``s, and its
    positive columns."""
    if isinstance(sx, ReferenceSimplex):
        return sx.solution(), sx.positive()
    return witness_values(sx.witness()), sx.positive()


def logged(cls, log):
    """``cls`` with every pivot, phase-1 verdict and ``maximize`` optimum
    appended to ``log``, each with the basic solution it leaves."""

    class Logged(cls):
        def _pivot(self, i, j):
            log.append(("pivot", i, j))
            return super()._pivot(i, j)

        def feasible(self):
            ok = super().feasible()
            log.append(("feasible", ok, basic_solution(self) if ok else None))
            return ok

        def maximize(self, var):
            opt = super().maximize(var)
            log.append(("maximize", var, opt, basic_solution(self)))
            return opt

    return Logged


def traced(call, cls):
    """call(), or ``Infeasible``, with ``cls`` as the simplex, and the log."""
    log = []
    with mock.patch.object(rx, "_Simplex", logged(cls, log)):
        try:
            out = call()
        except Infeasible:
            out = Infeasible
    return out, log


def assert_same_decisions(sys):
    for fn in (lp_feasible, relative_interior_support):
        out, log = traced(lambda: fn(sys), rx._Simplex)
        assert (out, log) == traced(lambda: fn(sys), ReferenceSimplex)
        if fn is lp_feasible and out is not None:
            assert all(type(val) is Fraction for val in out.values())


def tableau_run(cls, eqs, variables):
    """The log of building ``cls`` on the rows, phase 1, then maximizing
    every column in turn."""
    log = []
    sx = logged(cls, log)(eqs, variables)
    log.append(("rref", sx.inconsistent, list(sx._basis)))
    if sx.feasible():
        for v in sx.vars:
            sx.maximize(v)
    return log


def as_system(case):
    """``redundant_systems`` rows as a ``KeyedSystem`` over their columns."""
    eqs, variables = case
    return KeyedSystem(
        tuple(("l", (j,), (0,)) for j in variables),
        tuple((tuple(sorted(coeffs.items())), rhs) for coeffs, rhs in eqs),
        frozenset(),
        {},
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(redundant_systems(), presolved_level_k_rows()))
def test_tableau_matches_reference_on_rows(case):
    eqs, variables = case
    assert tableau_run(rx._Simplex, eqs, variables) == tableau_run(ReferenceSimplex, eqs, variables)


@settings(max_examples=100, deadline=None)
@given(level_k_systems())
def test_decisions_match_reference_on_level_k_systems(sys):
    assert_same_decisions(sys)


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_systems(), redundant_systems().map(as_system)))
def test_decisions_match_reference_on_random_systems(sys):
    assert_same_decisions(sys)


def test_decisions_match_reference_on_the_clique_ladder():
    for n, k in ((4, 2), (5, 2), (4, 3)):
        assert_same_decisions(build_ip_system(clique(n), clique(3), k))


def test_ba_on_the_line_digraph_of_k3_matches_reference():
    x, _labels = line_digraph(clique(3))
    sys = build_ip_system(x, clique(3), 2)
    red = rx._reduce(sys.equations, nonneg=True)
    assert (len(red.eqs), len(red.live)) == (87, 108)
    out, log = traced(lambda: decide_ba(x, clique(3), 2), rx._Simplex)
    assert (out, log) == traced(lambda: decide_ba(x, clique(3), 2), ReferenceSimplex)
    assert out is True
    assert_same_decisions(sys)


# -- the row invariants --------------------------------------------------------


def assert_invariants(sx):
    tab, den = sx._tab, sx._den
    assert len(tab) == len(den)
    for row, d in zip(tab, den):
        assert d > 0
        assert math.gcd(d, *row) == 1
    for i, b in enumerate(sx._basis):
        if b is not None:
            assert tab[i][b] == den[i]


def assert_objective_row(sx, cost):
    """The row ``_run`` carries at the bottom is cost minus the cost of the
    basis times the rows: the reduced costs, then minus the objective."""
    tab, den, basis = sx._tab, sx._den, sx._basis
    m = len(basis)
    assert len(tab) == m + 1
    want = list(cost) + [0]
    for i, b in enumerate(basis):
        for jj, c in enumerate(tab[i]):
            want[jj] -= cost[b] * Fraction(c, den[i])
    assert [Fraction(c, den[m]) for c in tab[m]] == want


class CheckedSimplex(rx._Simplex):
    """``_Simplex`` checking the row invariants after every pivot and, while
    ``_run`` carries its objective row, that row too.  Every basic column
    must have a reduced cost of exactly 0: ``_run`` enters the first
    column with a positive one without asking whether it is basic."""

    cost = None

    def _pivot(self, i, j):
        super()._pivot(i, j)
        assert_invariants(self)
        if self.cost is not None:
            obj = self._tab[-1]
            assert all(obj[b] == 0 for b in self._basis)
            assert_objective_row(self, self.cost)

    def _run(self, cost):
        self.cost = cost
        try:
            return super()._run(cost)
        finally:
            self.cost = None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(redundant_systems(), presolved_level_k_rows()))
def test_rows_and_objective_keep_their_invariants_after_every_pivot(case):
    sx = CheckedSimplex(*case)
    if sx.feasible():
        assert_invariants(sx)
        for v in sx.vars:
            sx.maximize(v)


def test_rows_keep_their_invariants_on_the_clique_ladder():
    with mock.patch.object(rx, "_Simplex", CheckedSimplex):
        for n, k in ((4, 2), (5, 2), (4, 3)):
            relative_interior_support(build_ip_system(clique(n), clique(3), k))


def test_rows_are_reduced_by_their_gcd():
    # the pivot row 2 x0 + 4 x1 = 6 is stored as x0 + 2 x1 = 3 over 1, not
    # over its pivot entry 2
    sx = rx._Simplex([({0: 2, 1: 4}, 6)], [0, 1])
    assert (sx._tab, sx._den) == ([[1, 2, 3]], [1])
    # clearing x0 from 2 x0 + 4 x2 = 2 by the pivot row 2 x0 + x1 = 1
    # (denominator 2) gives (-2 x1 + 8 x2 = 2) / 2, stored as
    # -x1 + 4 x2 = 1 over 1
    after_first = []

    class Spy(rx._Simplex):
        def _pivot(self, i, j):
            super()._pivot(i, j)
            if not after_first:
                after_first.append(([list(r) for r in self._tab], list(self._den)))

    Spy([({0: 2, 1: 1}, 1), ({0: 2, 2: 4}, 2)], [0, 1, 2])
    assert after_first == [([[2, 1, 0, 1], [0, -1, 4, 1]], [2, 1])]
