"""Integer columns, the carried objective row and the integer witness check
against the keyed code they replaced.

``keyed_ip_system`` is the builder that keyed every variable by its
VarKey; ``build_ip_system`` must give the same equations, in the same
order, once its columns are renamed through ``variables`` and the keyed
rows are mapped through the orbit map (``through_orbits``).
``reference_run`` is the simplex loop that recomputed every reduced cost
on every iteration; ``_Simplex._run`` must make the same pivots and reach
the same optima and witnesses.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from keyed_systems import keyed_system, orbit_max

from crystalforge import relaxation_engine as rx
from crystalforge.certificate_desk import _lambda_generators
from crystalforge.digraph_lab import Digraph, clique
from crystalforge.relaxation_engine import (
    Infeasible,
    _blocks,
    _canon,
    _mu_generators,
    build_ip_system,
    decide_aip,
    decide_ba,
    decide_blp,
    diophantine_feasible,
    lp_feasible,
    refines,
    relative_interior_support,
)


def keyed_ip_system(x_graph: Digraph, a_graph: Digraph, k: int):
    """(variables, equations, forced_zero) of the level-k system, keyed by
    VarKey: the generator equations (transposition, k-cycle and collapse)
    at every x, before the orbit map."""
    xv = list(range(1, x_graph.vertex_count + 1))
    av = list(range(1, a_graph.vertex_count + 1))
    x_edges = x_graph.sorted_edges()
    a_edges = a_graph.sorted_edges()

    lam_keys = [
        ("l", x, a)
        for x in itertools.product(xv, repeat=k)
        for a in itertools.product(av, repeat=k)
    ]
    mu_keys = [("m", y, b) for y in x_edges for b in a_edges]

    forced = {key for key in lam_keys if not refines(key[1], key[2])}
    if k >= 2:
        forced.update(key for key in mu_keys if not refines(key[1], key[2]))

    equations: dict = {}

    def emit(coeffs: dict, rhs: int):
        if not coeffs and rhs == 0:
            return
        equations.setdefault(_canon(coeffs, rhs), None)

    def compatible(pattern_blocks, nblocks):
        for vals in itertools.product(av, repeat=nblocks):
            yield tuple(vals[b] for b in pattern_blocks)

    for x in itertools.product(xv, repeat=k):
        bl, nb = _blocks(x)
        emit({("l", x, a): 1 for a in compatible(bl, nb)}, 1)

    for x in itertools.product(xv, repeat=k):
        bl_x, nb_x = _blocks(x)
        for i in _lambda_generators(k):
            xi = tuple(x[p] for p in i)
            bl_i, nb_i = _blocks(xi)
            for a in compatible(bl_i, nb_i):
                pin = {}
                for pos, val in zip(i, a):
                    pin[bl_x[pos]] = val
                free = [b for b in range(nb_x) if b not in pin]
                coeffs: dict = {}
                for vals in itertools.product(av, repeat=len(free)):
                    assign = dict(pin)
                    assign.update(zip(free, vals))
                    key = ("l", x, tuple(assign[b] for b in bl_x))
                    coeffs[key] = coeffs.get(key, 0) + 1
                rkey = ("l", xi, a)
                coeffs[rkey] = coeffs.get(rkey, 0) - 1
                emit({v: c for v, c in coeffs.items() if c}, 0)

    for y in x_edges:
        for i in _mu_generators(k):
            yi = tuple(y[p] for p in i)
            by_a: dict = {}
            for b in a_edges:
                if ("m", y, b) in forced:
                    continue
                by_a.setdefault(tuple(b[p] for p in i), {})[("m", y, b)] = 1
            for a in itertools.product(av, repeat=k):
                coeffs = dict(by_a.get(a, {}))
                rkey = ("l", yi, a)
                if rkey not in forced:
                    coeffs[rkey] = coeffs.get(rkey, 0) - 1
                emit({v: c for v, c in coeffs.items() if c}, 0)

    return tuple(lam_keys + mu_keys), tuple(sorted(equations)), frozenset(forced)


def reference_run(self, cost):
    """``_Simplex._run`` recomputing every reduced cost on every iteration,
    reading tableau entry (i, j) as the rational ``tab[i][j] / den[i]``."""
    tab, den, basis, ncols = self._tab, self._den, self._basis, self._ncols

    def entry(i, j):
        return Fraction(tab[i][j], den[i])

    while True:
        cb = [cost[b] for b in basis]
        enter = None
        for j in range(ncols):
            if j in basis:
                continue
            red = cost[j] - sum(cb[i] * entry(i, j) for i in range(len(tab)) if tab[i][j])
            if red > 0:
                enter = j
                break
        if enter is None:
            return sum(cb[i] * entry(i, -1) for i in range(len(tab)))
        leave = None
        best = None
        for i in range(len(tab)):
            a = entry(i, enter)
            if a > 0:
                ratio = entry(i, -1) / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None
        self._pivot(leave, enter)


@st.composite
def instances(draw):
    """(X, A, k) with n, m <= 3 vertices, loops allowed, k <= 3."""
    k = draw(st.integers(1, 3))
    size = st.integers(1, 3) if k < 3 else st.integers(1, 2)
    graphs = []
    for n in (draw(size), draw(size)):
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        graphs.append(Digraph(n, frozenset(draw(st.sets(st.sampled_from(pairs))))))
    return graphs[0], graphs[1], k


def renamed(sys):
    """The equations and forced-zero set of ``sys`` with every column
    renamed to the VarKey that names it."""
    eqs = tuple((tuple((sys.variables[j], c) for j, c in items), rhs) for items, rhs in sys.equations)
    return eqs, frozenset(sys.variables[j] for j in sys.forced_zero)


def through_orbits(equations) -> tuple:
    """The keyed rows with every lambda key replaced by the largest key in
    its orbit under position permutations: coefficients merged, zero terms
    and 0 = 0 rows dropped, each row canonical, the rows sorted and
    without repeats."""
    out: dict = {}
    for items, rhs in equations:
        coeffs: dict = {}
        for v, c in items:
            r = orbit_max(v)
            coeffs[r] = coeffs.get(r, 0) + c
        coeffs = {v: c for v, c in coeffs.items() if c}
        if coeffs or rhs:
            out.setdefault(_canon(coeffs, rhs), None)
    return tuple(sorted(out))


def assert_matches_keyed(x, a, k):
    sys = build_ip_system(x, a, k)
    variables, equations, forced = keyed_ip_system(x, a, k)
    assert sys.variables == variables
    assert list(variables) == sorted(variables)  # column order is key order
    assert renamed(sys) == (through_orbits(equations), forced)
    assert all(
        all(j1 < j2 for (j1, _), (j2, _) in zip(items, items[1:])) for items, _ in sys.equations
    )


@settings(max_examples=100, deadline=None)
@given(instances())
def test_integer_columns_match_keyed_builder(case):
    assert_matches_keyed(*case)


def test_integer_columns_match_keyed_builder_on_cliques():
    assert_matches_keyed(clique(4), clique(3), 3)
    assert_matches_keyed(clique(3), Digraph(2, frozenset({(1, 1), (1, 2)})), 3)


# -- the carried objective row ----------------------------------------------


def simplex_log(fn, sys, run):
    """Outcome of fn(sys) with ``_Simplex._run`` replaced by ``run``, plus
    every pivot (row, column) and every optimum the simplex reached."""
    pivots, optima = [], []
    pivot = rx._Simplex._pivot

    def logged_pivot(self, i, j):
        pivots.append((i, j))
        return pivot(self, i, j)

    def logged_run(self, cost):
        opt = run(self, cost)
        optima.append(opt)
        return opt

    with mock.patch.object(rx._Simplex, "_pivot", logged_pivot), \
            mock.patch.object(rx._Simplex, "_run", logged_run):
        try:
            out = fn(sys)
        except Infeasible:
            out = Infeasible
    return out, pivots, optima


def assert_same_simplex(sys):
    run = rx._Simplex._run
    for fn in (lp_feasible, relative_interior_support):
        assert simplex_log(fn, sys, run) == simplex_log(fn, sys, reference_run)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_objective_row_matches_reference_on_level_k_systems(case):
    assert_same_simplex(build_ip_system(*case))


@st.composite
def random_systems(draw):
    """At most 6 variables and 5 equations, coefficients and rhs in [-3, 3]."""
    n = draw(st.integers(1, 6))
    variables = [("l", (j,), (0,)) for j in range(n)]
    rows = draw(st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-3, 3)),
        min_size=1, max_size=5,
    ))
    equations = [(tuple((v, c) for v, c in zip(variables, coeffs) if c), rhs) for coeffs, rhs in rows]
    return keyed_system(variables, [(items, rhs) for items, rhs in equations if items or rhs])


@settings(max_examples=300, deadline=None)
@given(random_systems())
def test_objective_row_matches_reference_on_random_systems(sys):
    assert_same_simplex(sys)


def test_objective_row_on_the_clique_ladder():
    for n, k in ((4, 2), (5, 2), (4, 3)):
        assert_same_simplex(build_ip_system(clique(n), clique(3), k))


# -- the integer witness check ----------------------------------------------


def resolving_to(change):
    """Patch ``_Reduced.resolve`` so that ``change`` edits its result."""
    resolve = rx._Reduced.resolve

    def patched(self, assignment):
        return change(resolve(self, assignment))

    return mock.patch.object(rx._Reduced, "resolve", patched)


def test_witness_check_rejects_a_perturbed_witness():
    x, y = ("l", (0,), (0,)), ("l", (1,), (0,))
    sys = keyed_system((x, y), [(((x, 1), (y, 1)), 1)])

    def perturb(values):
        values[0] = values.get(0, 0) + Fraction(1, 3)
        return values

    with resolving_to(perturb), pytest.raises(AssertionError, match="re-substitution"):
        lp_feasible(sys)


def test_witness_check_rejects_a_negative_witness():
    # x - y = 0 holds at x = y = -1, which is not nonnegative
    x, y = ("l", (0,), (0,)), ("l", (1,), (0,))
    sys = keyed_system((x, y), [(((x, 1), (y, -1)), 0)])
    with resolving_to(lambda values: {0: -1, 1: -1}), \
            pytest.raises(AssertionError, match="not nonnegative"):
        lp_feasible(sys)


def test_witness_check_guards_every_decider():
    def perturb(values):
        return {j: val + 1 for j, val in values.items()}

    with resolving_to(perturb):
        for decide in (decide_blp, decide_ba):
            with pytest.raises(AssertionError):
                decide(clique(3), clique(3), 2)
        # the integer path has its own re-substitution check
        with pytest.raises(AssertionError):
            decide_aip(clique(3), clique(3), 2)


# -- keys at the boundary ---------------------------------------------------


def test_results_are_keyed_by_varkey():
    sys = build_ip_system(clique(3), clique(3), 2)
    live = [sys.variables[j] for j in sys.live_columns()]
    assert list(lp_feasible(sys)) == live
    support = relative_interior_support(sys)
    assert support <= set(live)
    assert list(diophantine_feasible(sys)) == list(sys.variables)
    dead = [v for v in live if v not in support]
    sol = diophantine_feasible(sys, forced_zero=dead)
    assert sol is not None and all(sol[v] == 0 for v in dead)
