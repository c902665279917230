import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from keyed_systems import (
    Infeasible,
    diophantine_feasible,
    keyed_system,
    lp_feasible,
    relative_interior_support,
    witness_values,
)
from two_step_ba import two_step_ba

from crystalforge import relaxation_engine as rx
from crystalforge.digraph_lab import Digraph, DigraphError, clique
from crystalforge.relaxation_engine import (
    LinearSystem,
    build_ip_system,
    decide_aip,
    decide_ba,
    decide_blp,
    integer_feasible,
    refines,
    smith_normal_form,
)


def mk_system(variables, equations):
    return keyed_system(variables, [(sorted(c.items()), r) for c, r in equations])


V = [("l", (i,), (0,)) for i in range(10)]  # throwaway variable keys


# -- pattern order ----------------------------------------------------------


def test_refines():
    assert refines((1, 1, 2), (5, 5, 5))
    assert refines((1, 2, 3), (7, 7, 7))
    assert not refines((1, 1), (1, 2))
    assert refines((), ())
    # not symmetric
    assert refines((1, 2), (3, 3)) and not refines((3, 3), (1, 2))


# -- integer systems --------------------------------------------------------


def check_snf(m):
    import sympy

    U, D, V = smith_normal_form([row[:] for row in m])
    r, n = len(m), len(m[0]) if m else 0
    MU = sympy.Matrix(U) * sympy.Matrix(m) * sympy.Matrix(V)
    assert MU == sympy.Matrix(D)
    assert abs(sympy.Matrix(U).det()) == 1
    assert abs(sympy.Matrix(V).det()) == 1
    diag = [D[i][i] for i in range(min(r, n))]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            assert D[i][j] == 0 and D[j][i] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)


def test_smith_normal_form_examples():
    check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    check_snf([[1, 0], [0, 1]])
    check_snf([[0, 0], [0, 0]])
    check_snf([[6, 10], [15, 4], [2, 2]])
    # what a rational RREF and lcm scaling made of a 6x7 system with
    # coefficients of at most 6; a pivot rule that swaps in each nonzero
    # remainder grew its entries past 31,000 bits without finishing
    m = [[22675, 0, 0, 0, 18388], [0, 22675, 0, 0, -10839], [0, 0, 22675, 0, 1689]]
    t0 = time.monotonic()
    _, D, _ = smith_normal_form([row[:] for row in m])
    assert time.monotonic() - t0 < 2
    assert [D[i][i] for i in range(3)] == [1, 22675, 22675]
    check_snf(m)


def test_smith_normal_form_randomized():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 4)
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        check_snf(m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=r, max_size=r
            )
        )
    )
)
def test_smith_normal_form_matches_sympy(m):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    check_snf(m)  # U*M*V = D, U and V unimodular, divisibility chain
    t0 = time.monotonic()
    _, D, _ = smith_normal_form([row[:] for row in m])
    assert time.monotonic() - t0 < 1
    diag = [abs(D[i][i]) for i in range(min(len(m), len(m[0])))]
    assert diag == [abs(int(d)) for d in invariant_factors(Matrix(m), domain=ZZ)]


def sat_int(eqs, sol):
    return all(sum(c * sol.get(v, 0) for v, c in items) == rhs for items, rhs in eqs)


def test_integer_feasible_basic():
    x, y = V[0], V[1]
    eqs = [(((x, 2), (y, 4)), 6)]
    sol = integer_feasible(eqs)
    assert sol is not None and sat_int(eqs, sol)
    assert integer_feasible([(((x, 2), (y, 2)), 1)]) is None  # parity obstruction
    assert integer_feasible([(((x, 1), (y, 1)), 1), (((x, 1), (y, -1)), 0)]) is None  # x = 1/2
    assert integer_feasible([(((x, 1),), 1), (((x, 1),), 2)]) is None  # inconsistent
    sol = integer_feasible([((), 0), (((x, 1),), -7)])
    assert sol == {x: -7}



@pytest.mark.parametrize(
    "eqs, diagonal",
    [
        # invariant factor 3 does not divide its entry of U*rhs
        ([({0: 2, 1: 4}, 2), ({0: 4, 1: 2}, 2)], [1, 3]),
        # a zero invariant factor meets a nonzero entry of U*rhs
        ([({0: 2, 1: 3}, 1), ({0: 4, 1: 6}, 4)], [1, 0]),
    ],
    ids=["divisibility", "zero-factor"],
)
def test_integer_feasible_rejects_in_the_smith_form(monkeypatch, eqs, diagonal):
    import crystalforge.relaxation_engine as rx

    seen = []

    def spy(m):
        U, D, V = smith_normal_form(m)
        seen.append([D[i][i] for i in range(len(D))])
        return U, D, V

    monkeypatch.setattr(rx, "smith_normal_form", spy)
    rows = [(tuple(sorted(c.items())), r) for c, r in eqs]
    assert integer_feasible(rows) is None
    assert seen == [diagonal]

def test_integer_feasible_unconstrained_default_zero():
    x, y = V[0], V[1]
    sol = integer_feasible([(((x, 1),), 3)])
    assert sol[x] == 3 and sol.get(y, 0) == 0


def test_integer_feasible_randomized_consistency():
    # plant an integer solution, add redundant combinations, always feasible
    rng = random.Random(42)
    t0 = time.monotonic()
    for _ in range(60):
        n = rng.randint(2, 12)
        planted = {v: rng.randint(-4, 4) for v in range(n)}
        eqs = []
        for _ in range(rng.randint(1, 10)):
            items = tuple((v, rng.randint(-3, 3)) for v in range(n) if rng.random() < 0.7)
            rhs = sum(c * planted[v] for v, c in items)
            eqs.append((items, rhs))
        sol = integer_feasible(eqs)
        assert sol is not None and sat_int(eqs, sol)
    assert time.monotonic() - t0 < 10


def test_integer_feasible_pinned_growth_case():
    # a feasible 6x7 system that a rational RREF, lcm scaling and a
    # swap-in-the-remainder pivot rule did not finish within a minute
    eqs = [
        (((0, 2), (1, -1), (2, -1), (4, -2), (5, 6), (6, 3)), 4),
        (((1, 3), (2, -2), (3, -1), (4, 2), (6, 4)), -5),
        (((0, 4), (1, -4), (3, -4), (4, 4), (5, 3), (6, 2)), 1),
        (((0, 2), (1, -2), (2, -3), (3, 4), (4, -2), (5, -4), (6, -3)), -1),
        (((0, -1), (1, -2), (2, 6), (4, 3), (5, 4), (6, -3)), 1),
        (((0, 1), (1, 2), (2, 6), (3, 2), (5, 4)), -1),
    ]
    t0 = time.monotonic()
    sol = integer_feasible(eqs)
    assert time.monotonic() - t0 < 2
    assert sol is not None and sat_int(eqs, sol)


# -- LP ---------------------------------------------------------------------


def test_lp_feasible_basic():
    x, y = V[0], V[1]
    sys = mk_system([x, y], [({x: 1, y: 1}, 1)])
    sol = lp_feasible(sys)
    assert sol is not None
    assert sol[x] + sol[y] == 1 and sol[x] >= 0 and sol[y] >= 0

    sys = mk_system([x], [({x: 1}, -1)])
    assert lp_feasible(sys) is None  # nonnegativity bites

    sys = mk_system([x, y], [({x: 1, y: 1}, 1), ({x: 1, y: -1}, 0)])
    sol = lp_feasible(sys)
    assert sol == {x: Fraction(1, 2), y: Fraction(1, 2)}


def test_lp_feasible_catches_hidden_infeasibility():
    x, y, z = V[0], V[1], V[2]
    # x + y = 1, y + z = 1, x + z = -1 is rationally inconsistent with >= 0
    sys = mk_system(
        [x, y, z],
        [({x: 1, y: 1}, 1), ({y: 1, z: 1}, 1), ({x: 1, z: 1}, -1)],
    )
    assert lp_feasible(sys) is None


def test_relative_interior_support():
    x, y, z = V[0], V[1], V[2]
    sys = mk_system([x, y], [({x: 1, y: 1}, 1)])
    assert relative_interior_support(sys) == {x, y}

    # x + y = 1 and x - y = 1 pin y to zero
    sys = mk_system([x, y], [({x: 1, y: 1}, 1), ({x: 1, y: -1}, 1)])
    assert relative_interior_support(sys) == {x}

    # an unconstrained variable is positive somewhere
    sys = mk_system([x, y, z], [({x: 1, y: 1}, 1), ({x: 1, y: -1}, 1)])
    assert relative_interior_support(sys) == {x, z}

    with pytest.raises(Infeasible):
        relative_interior_support(mk_system([x], [({x: 1}, -1)]))


def test_diophantine_respects_extra_zeroes():
    x, y = V[0], V[1]
    sys = mk_system([x, y], [({x: 1, y: 2}, 2)])
    assert diophantine_feasible(sys) is not None
    sol = diophantine_feasible(sys, forced_zero=[y])
    assert sol == {x: 2, y: 0}
    sol = diophantine_feasible(sys, forced_zero=[x])
    assert sol == {x: 0, y: 1}


# -- the lifted systems -----------------------------------------------------


def test_build_ip_system_shapes():
    sys = build_ip_system(clique(2), clique(2), 1)
    lam = [v for v in sys.variables if v[0] == "l"]
    mu = [v for v in sys.variables if v[0] == "m"]
    assert len(lam) == 2 * 2 and len(mu) == 2 * 2
    assert not sys.forced_zero  # nothing vanishes at k = 1
    sys2 = build_ip_system(clique(2), clique(2), 2)
    # lambda on x with x1 = x2 vanishes unless a1 = a2
    forced = {sys2.variables[j] for j in sys2.forced_zero}
    assert ("l", (1, 1), (1, 2)) in forced
    assert ("l", (1, 2), (1, 1)) not in forced
    # and so does mu on an edge y whose b does not refine it
    loop = Digraph(1, frozenset({(1, 1)}))
    sys3 = build_ip_system(loop, clique(2), 2)
    forced = {sys3.variables[j] for j in sys3.forced_zero}
    assert {v for v in forced if v[0] == "m"} == {("m", (1, 1), (1, 2)), ("m", (1, 1), (2, 1))}


def test_linear_system_is_an_immutable_value():
    a = build_ip_system(clique(2), clique(2), 1)
    assert a.alias == {}
    assert a == build_ip_system(clique(2), clique(2), 1)
    assert a != build_ip_system(clique(2), Digraph(2, frozenset({(1, 2)})), 1)
    # the alias takes part in == but not in hash
    b = LinearSystem(a.equations, {1: 0}, a.shape, a.x_edges, a.a_edges)
    assert a != b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.alias = {1: 0}
    with pytest.raises(AttributeError):
        del a.alias
    with pytest.raises(AttributeError):
        a.variables = ()


def test_build_ip_system_needs_level_at_least_one():
    with pytest.raises(ValueError, match="level k must be >= 1"):
        build_ip_system(clique(2), clique(2), 0)
    # a DigraphError, so the CLI refuses it with exit 2
    for k in (0, -1):
        with pytest.raises(DigraphError, match=f"^level k must be >= 1, got {k}$"):
            build_ip_system(clique(2), clique(2), k)


def test_build_ip_system_refuses_over_the_column_budget(monkeypatch):
    # K2 -> K2 at k = 2: 2^2*2^2 + 2*2 = 20 columns
    monkeypatch.setattr(rx, "_MAX_COLUMNS", 20)
    assert len(build_ip_system(clique(2), clique(2), 2).variables) == 20
    monkeypatch.setattr(rx, "_MAX_COLUMNS", 19)
    with pytest.raises(DigraphError, match=r"^the level-2 system has 2\^2\*2\^2 \+ 2\*2 = 20 "
                                           r"columns, over the budget of 19$"):
        build_ip_system(clique(2), clique(2), 2)


def test_build_ip_system_refuses_a_level_over_the_budget():
    point = Digraph(1, frozenset({(1, 1)}))
    assert len(build_ip_system(point, point, 64).variables) == 2
    with pytest.raises(DigraphError, match="^level 65 is over the budget of 64$"):
        build_ip_system(point, point, 65)


def test_forced_zero_variables_never_occur():
    sys = build_ip_system(clique(3), clique(2), 2)
    for items, _rhs in sys.equations:
        for v, _c in items:
            assert v not in sys.forced_zero


def test_level1_separates_blp_from_aip():
    k3, k2 = clique(3), clique(2)
    # the 2-colouring LP relaxation accepts the triangle, integers reject it
    assert decide_blp(k3, k2, 1) is True
    assert decide_aip(k3, k2, 1) is False
    assert decide_ba(k3, k2, 1) is False


def test_deciders_accept_when_hom_exists():
    for k in (1, 2):
        assert decide_blp(clique(3), clique(3), k)
        assert decide_aip(clique(3), clique(3), k)
        assert decide_ba(clique(3), clique(3), k)


def test_ba_dominated_by_blp_and_aip():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 3)
        edges = frozenset(
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.5
        )
        x = Digraph(n, edges)
        a = clique(rng.randint(2, 3))
        k = rng.randint(1, 2)
        ba = decide_ba(x, a, k)
        if ba:
            assert decide_blp(x, a, k) and decide_aip(x, a, k)


# -- BA's integral-witness shortcut -------------------------------------------


def sweep_instances():
    """The 138 decisions of the relax-sweep benchmark, unrelabelled: every
    loopless digraph on 1-3 vertices against K2 and K3, at k = |V(X)|."""
    for m in (2, 3):
        for n in (1, 2, 3):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                yield Digraph(n, frozenset(e for e, b in zip(pairs, bits) if b)), clique(m), n


def brute_force_hom(x, a) -> bool:
    return any(
        all((f[u - 1], f[v - 1]) in a.edges for u, v in x.edges)
        for f in itertools.product(range(1, a.vertex_count + 1), repeat=x.vertex_count)
    )


def random_instance(rng):
    """X on at most 4 vertices, A on at most 3, loops allowed, k <= 3."""

    def graph(n):
        p = rng.random()
        return Digraph(n, frozenset(
            (u, v) for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < p))

    return graph(rng.randint(1, 4)), graph(rng.randint(1, 3)), rng.randint(1, 3)


def counted_ba_steps(monkeypatch):
    """Patch the support loop and the integer step to log their calls."""
    calls = []

    def counting(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("relative_interior_support", "integer_feasible"):
        monkeypatch.setattr(rx, name, counting(name, getattr(rx, name)))
    return calls


def test_ba_matches_the_two_step_oracle():
    cases = list(sweep_instances())
    assert len(cases) == 138
    # the BA instances of the clique ladder
    cases += [(clique(n), clique(3), k) for n, k in ((4, 2), (4, 3), (5, 2), (5, 3), (4, 4))]
    rng = random.Random(19)
    cases += [random_instance(rng) for _ in range(300)]
    kinds = set()
    for x, a, k in cases:
        got = decide_ba(x, a, k)
        assert got == two_step_ba(x, a, k), (x, a, k)
        lp = rx._lp_pass(build_ip_system(x, a, k).equations)
        integral = lp is not None and all(
            val.denominator == 1 for val in witness_values(lp[0]).values())
        kinds.add((lp is not None, integral, got))
    # no LP solution, an integral witness, and a fractional witness that
    # the integer step accepts or rejects all occur
    assert kinds == {(False, False, False), (True, True, True),
                     (True, False, True), (True, False, False)}


def test_ba_skips_its_integer_step_on_an_integral_witness(monkeypatch):
    calls = counted_ba_steps(monkeypatch)
    cycle = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    assert decide_ba(cycle, clique(3), 3) is True
    assert calls == []
    # K4 -> K3 at k = 2 has a fractional witness
    assert decide_ba(clique(4), clique(3), 2) is True
    assert calls == ["relative_interior_support", "integer_feasible"]
    calls.clear()
    shortcuts = 0
    for x, a, k in sweep_instances():
        if decide_ba(x, a, k):
            # an integral point of the level-k polytope picks one value
            # tuple per slice, so it encodes a homomorphism
            assert brute_force_hom(x, a), (x, a, k)
            shortcuts += 1
        assert calls == []
    # every LP-feasible sweep decision took the shortcut
    assert shortcuts == 111
