"""The level-k build and the presolve give exactly what their earlier
versions in ``reference_level_k`` gave.

``test_presolve`` pins the presolve's decisions up to positive scaling of
its rows; here the systems and the presolves are pinned byte for byte:
the same ``LinearSystem``, and the same ``_Reduced`` with its rows,
substitutions and their item orders, in nonnegative mode, integer mode
and integer mode with BA's dead set.  The instances are the 138 pairs of
the relax sweep (every loopless digraph on 1-3 vertices against K2 and
K3 at k = |V(X)|), the clique ladder up to K4 -> K3 at k = 5, and 300
seeded random pairs with loops.

``build_ip_system`` holds the lambda block of the last (|V(X)|, |V(A)|,
k) it built, so the sweep and random systems are also built in other
call orders, and the held block is checked to be immutable, kept over a
refused call and dropped before the next one is built.
"""

import gc
import itertools
import random
import tracemalloc

import pytest
import reference_level_k as ref

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
    lvars, forced, alias, rows, live = rx._held[1]
    assert type(lvars) is tuple and type(rows) is tuple and type(live) is tuple
    assert type(forced) is frozenset and all(type(t) is tuple for t in live)
    with pytest.raises(TypeError):
        alias[0] = 0
    # a hit shares the alias view and builds the same system
    second = rx.build_ip_system(x, a, k)
    assert second.alias is first.alias
    _assert_same_system(second, ref.build_ip_system(x, a, k))


def test_one_block_is_held_and_dropped_before_the_next_is_built():
    """Building K4 -> K3 at k = 4 holds its block (megabytes); building a
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
    assert held > 2_000_000
    assert second_peak < first_peak + held / 2
    assert after < 100_000


@pytest.mark.parametrize("instances", CASES)
def test_reduce_gives_the_reference_presolve(instances):
    modes = 0
    for x, a, k in instances:
        rows = rx.build_ip_system(x, a, k).equations
        calls = [(True, frozenset()), (False, frozenset())]
        lp = rx._lp_pass(rows)
        if lp is not None:
            calls.append((False, rx._dead_columns(lp)))
        for nonneg, zero in calls:
            got = _presolved(rx._reduce(rows, nonneg, zero))
            assert got == _presolved(ref._reduce(rows, nonneg, zero)), (x, a, k, nonneg, zero)
            modes += 1
    assert modes > 2 * len(instances)
