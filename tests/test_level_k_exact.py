"""The level-k build and the presolve give exactly what their earlier
versions in ``reference_level_k`` gave.

``test_presolve`` pins the presolve's decisions up to positive scaling of
its rows; here the systems and the presolves are pinned byte for byte:
the same system, its decoded ``variables`` and ``forced_zero`` included,
and the same ``_Reduced`` with its rows, substitutions and their item
orders, in nonnegative mode, integer mode and integer mode with BA's dead
set.  The instances are the 138 pairs of the relax sweep (every loopless
digraph on 1-3 vertices against K2 and K3 at k = |V(X)|), the clique
ladder up to K4 -> K3 at k = 5, and 300 seeded random pairs with loops.

``build_ip_system`` holds the lambda block of the last (|V(X)|, |V(A)|,
k) it built, so the sweep and random systems are also built in other
call orders, and the held block is checked to be immutable, kept over a
refused call, dropped before the next one is built and small.

The presolve is also pinned on small raw systems that no build makes
(explicit 0 coefficients, non-unit coefficients, negative rhs, one-column
rows, rows whose two columns both qualify for elimination, random zero
sets), and the integer LP witness ``(D, {column: N})`` is pinned to the
``Fraction`` witness of the old LP pass: N / D is its value, column for
column, on every LP-feasible decision of the sweep, the ladder up to
k = 4 and the random pairs.
"""

import gc
import itertools
import random
import tracemalloc

import pytest
import reference_level_k as ref
from hypothesis import example, given, settings, strategies as st
from keyed_systems import dead_columns, witness_values

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import Digraph, DigraphError, clique


def _sweep():
    out = []
    for m in (2, 3):
        for nv in (1, 2, 3):
            pairs = [(u, v) for u in range(1, nv + 1) for v in range(1, nv + 1) if u != v]
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                edges = frozenset(e for e, b in zip(pairs, bits) if b)
                out.append((Digraph(nv, edges), clique(m), nv))
    return out


def _random_pairs(count=300, seed=2101):
    rng = random.Random(seed)

    def digraph():
        n = rng.randint(1, 3)
        cells = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        return Digraph(n, frozenset(e for e in cells if rng.random() < 0.4))

    return [(digraph(), digraph(), rng.randint(1, 3)) for _ in range(count)]


SWEEP = _sweep()
LADDER = [(clique(n), clique(3), k) for n in (4, 5) for k in (2, 3)] + [
    (clique(4), clique(3), 4),
    (clique(4), clique(3), 5),
]
RANDOM = _random_pairs()
CASES = (
    [pytest.param(SWEEP, id="sweep"), pytest.param(LADDER, id="ladder")]
    + [pytest.param(RANDOM[i : i + 50], id=f"random-{i}") for i in range(0, len(RANDOM), 50)]
)


def _presolved(red):
    return (
        red.infeasible,
        [(list(coeffs.items()), rhs) for coeffs, rhs in red.eqs],
        [(v, c, rhs, list(lin.items())) for v, (c, rhs, lin) in red.subs.items()],
        red.live,
    )


def test_instances_cover_the_sweep_and_the_random_pairs():
    assert len(SWEEP) == 138
    assert len(RANDOM) >= 300
    assert any(u == v for x, a, _k in RANDOM for g in (x, a) for u, v in g.edges)


def _assert_same_system(got, want):
    assert got.variables == want.variables
    assert got.equations == want.equations
    assert got.forced_zero == want.forced_zero
    assert got.alias == want.alias
    assert list(got.alias.items()) == list(want.alias.items())


@pytest.mark.parametrize("instances", CASES)
def test_build_gives_the_reference_system(instances):
    for x, a, k in instances:
        _assert_same_system(rx.build_ip_system(x, a, k), ref.build_ip_system(x, a, k))


def _key(case):
    x, a, k = case
    return x.vertex_count, a.vertex_count, k


# the sweep and random cases as (position, case), in four call orders:
# as listed (the sweep runs of one key), reversed, shuffled (keys rarely
# repeat), and grouped by key with each case built twice in a row
MIXED = list(enumerate(SWEEP + RANDOM))
ORDERS = {
    "listed": MIXED,
    "reversed": MIXED[::-1],
    "shuffled": random.Random(2501).sample(MIXED, len(MIXED)),
    "twice-by-key": [c for c in sorted(MIXED, key=lambda c: _key(c[1])) for _ in range(2)],
}


@pytest.fixture(scope="module")
def reference_systems():
    return [ref.build_ip_system(x, a, k) for _i, (x, a, k) in MIXED]


@pytest.mark.parametrize("order", ORDERS.values(), ids=list(ORDERS))
def test_build_gives_the_reference_system_in_any_call_order(order, reference_systems):
    for i, (x, a, k) in order:
        _assert_same_system(rx.build_ip_system(x, a, k), reference_systems[i])
        assert rx._held[0] == _key((x, a, k))


def test_a_refused_build_keeps_the_held_block(monkeypatch):
    rx.build_ip_system(clique(3), clique(2), 2)
    held = rx._held
    assert held[0] == (3, 2, 2)
    monkeypatch.setattr(rx, "_MAX_COLUMNS", 100)
    # a level below 1, over the column budget (3^3*2^3 = 216 lambda
    # columns, or another key's 4^2*3^2 = 144) and over the level budget
    for x, a, k in [(clique(3), clique(2), 0), (clique(3), clique(2), 3),
                    (clique(4), clique(3), 2), (clique(1), clique(1), rx._MAX_LEVEL + 1)]:
        with pytest.raises(DigraphError):
            rx.build_ip_system(x, a, k)
        assert rx._held is held


def test_the_held_block_cannot_be_changed_through_a_system():
    x, a, k = clique(3), clique(2), 3
    first = rx.build_ip_system(x, a, k)
    assert first.alias
    with pytest.raises(TypeError):
        first.alias[next(iter(first.alias))] = 0
    with pytest.raises(AttributeError):
        first.forced_zero.add(0)
    alias, rows, live = rx._held[1]
    assert type(rows) is tuple and type(live) is tuple
    assert all(type(t) is tuple for t in live)
    with pytest.raises(TypeError):
        alias[0] = 0
    # a hit shares the alias view and builds the same system
    second = rx.build_ip_system(x, a, k)
    assert second.alias is first.alias
    _assert_same_system(second, ref.build_ip_system(x, a, k))


def test_one_block_is_held_and_dropped_before_the_next_is_built():
    """Building K4 -> K3 at k = 4 holds its block (1.1 MB); building a
    block of the same size for K3 -> K4 peaks near one build, not one
    build plus the held block; and building K2 -> K2 at k = 2 gives the
    memory back."""
    rx.build_ip_system(clique(1), clique(1), 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rx.build_ip_system(clique(4), clique(3), 4)
        gc.collect()
        held, first_peak = (v - before for v in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        rx.build_ip_system(clique(3), clique(4), 4)
        second_peak = tracemalloc.get_traced_memory()[1] - before
        rx.build_ip_system(clique(2), clique(2), 2)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 600_000
    assert second_peak < first_peak + held / 2
    assert after < 100_000


def test_the_largest_block_is_held_in_under_6_mb():
    """K4 -> K3 at k = 5, the largest system under the column budget: its
    block holds ``alias``, the lambda rows and the live ranks, and no
    column names or forced-zero set."""
    rx.build_ip_system(clique(1), clique(1), 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rx.build_ip_system(clique(4), clique(3), 5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rx._held[0] == (4, 3, 5)
    assert held < 6_000_000


@pytest.mark.parametrize("instances", CASES)
def test_reduce_gives_the_reference_presolve(instances):
    modes = 0
    for x, a, k in instances:
        rows = rx.build_ip_system(x, a, k).equations
        calls = [(True, frozenset()), (False, frozenset())]
        lp = rx._lp_pass(rows)
        if lp is not None:
            calls.append((False, dead_columns(lp)))
        for nonneg, zero in calls:
            got = _presolved(rx._reduce(rows, nonneg, zero))
            assert got == _presolved(ref._reduce(rows, nonneg, zero)), (x, a, k, nonneg, zero)
            modes += 1
    assert modes > 2 * len(instances)


@st.composite
def raw_systems(draw):
    """Rows over at most 6 columns, each drawn as one of: random columns
    in any order with coefficients in [-3, 3], explicit 0s kept in the row
    and a column possibly listed twice (the last coefficient counts); one
    column with a nonzero coefficient; or a*v - b*w = 0 with a, b > 0 in
    either order, whose two columns both qualify in nonnegative mode.
    With a random set of columns to zero."""
    n = draw(st.integers(1, 6))
    columns = st.integers(0, n - 1)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "one-column", "two-signed") if n > 1 else
                                    ("random", "one-column")))
        if kind == "random":
            picked = draw(st.lists(columns, min_size=1, max_size=n + 1))
            rows.append((tuple((v, draw(st.integers(-3, 3))) for v in picked),
                         draw(st.integers(-3, 3))))
        elif kind == "one-column":
            rows.append((((draw(columns), draw(st.integers(-3, 3).filter(bool))),),
                         draw(st.integers(-3, 3))))
        else:
            v, w = draw(st.permutations(range(n)))[:2]
            rows.append((((v, draw(st.integers(1, 3))), (w, -draw(st.integers(1, 3)))), 0))
    return rows, frozenset(draw(st.sets(columns)))


@settings(max_examples=200, deadline=None)
@given(raw_systems())
@example(([(((0, 0), (1, 1), (0, 2), (2, -1)), 5), (((0, 1), (1, 1), (2, 1), (3, 1)), 7)],
          frozenset()))  # column 0 first as 0, then as 2: it goes after column 1
def test_reduce_gives_the_reference_presolve_on_raw_systems(case):
    rows, zero = case
    for nonneg in (True, False):
        for z in (frozenset(), zero):
            assert _presolved(rx._reduce(rows, nonneg, z)) == _presolved(ref._reduce(rows, nonneg, z))


WITNESS_CASES = [
    pytest.param(SWEEP, id="sweep"),
    pytest.param([case for case in LADDER if case[2] <= 4], id="ladder"),
    pytest.param(RANDOM, id="random"),
]


@pytest.mark.parametrize("instances", WITNESS_CASES)
def test_integer_witness_equals_the_fraction_oracle(instances):
    feasible = 0
    for x, a, k in instances:
        rows = rx.build_ip_system(x, a, k).equations
        lp, want = rx._lp_pass(rows), ref._lp_pass(rows)
        assert (lp is None) == (want is None), (x, a, k)
        if lp is not None:
            assert lp[0][0] > 0
            assert witness_values(lp[0]) == want[0], (x, a, k)
            feasible += 1
    assert feasible
