"""The lean level-k system against the full one, kept here as an oracle.

``full_ip_system`` emits lambda marginality for all k^k position maps and
mu marginality for all of {0,1}^k; ``build_ip_system`` emits it for a
generating set of maps only, on one representative column per orbit of
position permutations.  The tests check that the lean rows together with
the orbit equalities have the full system's rational row space, that the
orbits and their representatives are the ones claimed, and that the
deciders' answers, supports and expanded witnesses agree with the full
system.
"""

import itertools

import sympy
from hypothesis import assume, given, settings, strategies as st
from keyed_systems import (
    Infeasible,
    KeyedSystem,
    dead_columns,
    diophantine_feasible,
    keyed_system,
    live_columns,
    lp_feasible,
    orbit,
    orbit_max,
    relative_interior_support,
)

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import Digraph, clique
from crystalforge.relaxation_engine import _blocks, _canon, build_ip_system, decide_ba, refines


def full_ip_system(x_graph: Digraph, a_graph: Digraph, k: int) -> KeyedSystem:
    """The level-k system with marginality for every position map."""
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
        for i in itertools.product(range(k), repeat=k):
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
        for i in itertools.product((0, 1), repeat=k):
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

    return keyed_system(lam_keys + mu_keys, sorted(equations), forced)


@st.composite
def instances(draw):
    """(X, A, k) with n, m <= 3 vertices, loops allowed, k <= 3, and at most
    3^4 lambda variables per instance so the full system stays small."""
    k = draw(st.integers(1, 3))
    size = st.integers(1, 3) if k < 3 else st.integers(1, 2)
    graphs = []
    for n in (draw(size), draw(size)):
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        edges = draw(st.sets(st.sampled_from(pairs)))
        graphs.append(Digraph(n, frozenset(edges)))
    return graphs[0], graphs[1], k


def augmented_rows(sys, columns: dict) -> list[list[int]]:
    rows = []
    for items, rhs in sys.equations:
        row = [0] * (len(columns) + 1)
        for v, c in items:
            row[columns[v]] = c
        row[-1] = rhs
        rows.append(row)
    return rows


def orbit_rows(sys, columns: dict) -> list[list[int]]:
    """l(v) - l(orbit_max(v)) = 0 for every live lambda key v, computed
    from the keys, not from ``sys.alias``."""
    variables = sys.variables
    col = {v: j for j, v in enumerate(variables)}
    rows = []
    for j in live_columns(sys):
        r = col[orbit_max(variables[j])]
        if r != j:
            row = [0] * (len(columns) + 1)
            row[columns[j]], row[columns[r]] = 1, -1
            rows.append(row)
    return rows


def rank(rows) -> int:
    return sympy.Matrix(rows).rank() if rows else 0


def satisfies(sys, values: dict) -> bool:
    """Every row of ``sys`` holds at ``values`` (VarKey -> number)."""
    variables = sys.variables
    return all(
        sum(c * values[variables[j]] for j, c in items) == rhs
        for items, rhs in sys.equations
    )


@settings(max_examples=40, deadline=None)
@given(instances())
def test_lean_and_full_systems_have_the_same_row_space(case):
    x, a, k = case
    lean, full = build_ip_system(x, a, k), full_ip_system(x, a, k)
    assert lean.variables == full.variables
    assert lean.forced_zero == full.forced_zero
    # span(lean rows and orbit equalities) = span(full rows)
    columns = {j: c for c, j in enumerate(live_columns(lean))}
    lean_rows = augmented_rows(lean, columns) + orbit_rows(lean, columns)
    full_rows = augmented_rows(full, columns)
    assert rank(full_rows) == rank(lean_rows) == rank(lean_rows + full_rows)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_each_orbit_has_its_largest_column_as_representative(case):
    x, a, k = case
    sys = build_ip_system(x, a, k)
    variables, forced = sys.variables, sys.forced_zero
    col = {v: j for j, v in enumerate(variables)}
    used = {j for items, _ in sys.equations for j, _ in items}
    for j, v in enumerate(variables):
        if v[0] == "m":
            assert j not in sys.alias
            continue
        members = {col[w] for w in orbit(v)}
        if j in forced:
            assert members <= forced  # the forced-zero set is orbit-closed
            assert j not in sys.alias
            continue
        rep = max(members)
        assert sys.alias.get(j, j) == rep
        assert rep not in sys.alias  # one representative per orbit
        if j != rep:
            assert j not in used
    if k == 1:
        assert sys.alias == {}


@settings(max_examples=40, deadline=None)
@given(instances())
def test_expanded_witnesses_satisfy_every_full_row(case):
    x, a, k = case
    lean, full = build_ip_system(x, a, k), full_ip_system(x, a, k)
    witness = lp_feasible(lean)
    if witness is not None:
        assert list(witness) == [full.variables[j] for j in live_columns(full)]
        assert all(val >= 0 for val in witness.values())
        assert satisfies(full, witness)  # forced-zero columns are in no row
    solution = diophantine_feasible(lean)
    if solution is not None:
        assert list(solution) == list(full.variables)
        assert satisfies(full, solution)


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_zeroing_a_set_that_is_not_orbit_closed_matches_the_full_system(case, data):
    x, a, k = case
    lean, full = build_ip_system(x, a, k), full_ip_system(x, a, k)
    keys = [lean.variables[j] for j in live_columns(lean)]
    live = [v for v in keys if v[0] == "l" and len(orbit(v)) > 1]
    assume(live)
    zero = data.draw(st.sets(st.sampled_from(live), min_size=1))
    assume(any(not orbit(v) <= zero for v in zero))
    got, want = diophantine_feasible(lean, zero), diophantine_feasible(full, zero)
    assert (got is None) == (want is None)
    if got is not None:
        assert satisfies(full, got)
        assert all(got[w] == 0 for v in zero for w in orbit(v))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_lean_and_full_systems_give_the_same_answers(case):
    x, a, k = case
    lean, full = build_ip_system(x, a, k), full_ip_system(x, a, k)
    assert (lp_feasible(lean) is None) == (lp_feasible(full) is None)
    assert (diophantine_feasible(lean) is None) == (diophantine_feasible(full) is None)
    try:
        support = relative_interior_support(lean)
    except Infeasible:
        assert lp_feasible(full) is None
        return
    assert relative_interior_support(full) == support
    keys = [lean.variables[j] for j in live_columns(lean)]
    dead = [v for v in keys if v not in support]
    assert (diophantine_feasible(lean, dead) is None) == (diophantine_feasible(full, dead) is None)


def test_anchor_system_sizes():
    sys = build_ip_system(clique(4), clique(3), 4)
    assert len(sys.equations) == 1367
    assert len(sys.variables) == 20808
    assert len(sys.forced_zero) == 14136
    assert len(sys.alias) == 6021


def test_ba_runs_one_presolve_of_each_kind(monkeypatch):
    calls = []
    real = rx._reduce

    def counting(equations, nonneg, zero=frozenset()):
        calls.append(nonneg)
        return real(equations, nonneg, zero)

    monkeypatch.setattr(rx, "_reduce", counting)
    # BLP accepts the triangle against K2 at level 1, so BA reaches the
    # integer step, which rejects it
    assert decide_ba(clique(3), clique(2), 1) is False
    assert sorted(calls) == [False, True]


def row_columns(rows):
    return {j for items, _rhs in rows for j, _c in items}


def test_ba_zeroes_only_columns_of_the_rows(monkeypatch):
    zeros = []
    real = rx.integer_feasible

    def spying(rows, zero=frozenset()):
        zeros.append((zero, row_columns(rows)))
        return real(rows, zero)

    monkeypatch.setattr(rx, "integer_feasible", spying)
    assert decide_ba(clique(4), clique(3), 2) is True
    (zero, columns), = zeros
    # 18 columns of the rows are 0 on the whole polytope; their aliases
    # and the forced-zero columns are in no row and are not named
    assert len(zero) == 18 and zero <= columns


def test_lp_pass_takes_rows_and_values_only_their_columns():
    sys = build_ip_system(clique(4), clique(3), 3)
    assert sys.alias and sys.forced_zero
    (den, num), _red, _sx = rx._lp_pass(sys.equations)
    assert den > 0
    assert num.keys() <= row_columns(sys.equations)
    assert all(n >= 0 for n in num.values())
    assert rx._lp_pass([(((0, 1), (1, 1)), -1)]) is None


def test_dead_columns_are_columns_of_the_rows():
    sys = build_ip_system(clique(4), clique(3), 3)
    lp = rx._lp_pass(sys.equations)
    assert rx.relative_interior_support(lp) <= row_columns(sys.equations)
    dead = dead_columns(lp)
    assert dead <= row_columns(sys.equations)
    support = relative_interior_support(sys)
    assert {sys.variables[j] for j in dead}.isdisjoint(support)
    # an empty polytope stops at the LP pass, before any support loop
    assert rx._lp_pass([(((0, 1), (1, 1)), -1)]) is None
