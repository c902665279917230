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
"""

import itertools
import random

import pytest
import reference_level_k as ref

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import Digraph, clique


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


@pytest.mark.parametrize("instances", CASES)
def test_build_gives_the_reference_system(instances):
    for x, a, k in instances:
        got, want = rx.build_ip_system(x, a, k), ref.build_ip_system(x, a, k)
        assert got.variables == want.variables
        assert got.equations == want.equations
        assert got.forced_zero == want.forced_zero
        assert got.alias == want.alias
        assert list(got.alias.items()) == list(want.alias.items())


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
