import itertools
import json
import math
import random

import pytest

import crystalforge.digraph_lab as dg
from crystalforge.digraph_lab import (
    ChromaticParams,
    Digraph,
    DigraphError,
    check_homomorphism,
    clique,
    digraph_from_doc,
    digraph_from_json,
    digraph_to_doc,
    digraph_to_json,
    fooling_parameters,
    homomorphism_exists,
    iterate_a,
    iterate_b,
    line_digraph,
    shift_digraph,
)


def cycle(n):
    return Digraph(n, frozenset((i, i % n + 1) for i in range(1, n + 1)))


def random_digraph(rng, n, p=0.4, loops=False):
    edges = set()
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if (u != v or loops) and rng.random() < p:
                edges.add((u, v))
    return Digraph(n, frozenset(edges))


# -- constructions ----------------------------------------------------------


def test_digraph_validation():
    with pytest.raises(DigraphError):
        Digraph(0, frozenset())
    with pytest.raises(DigraphError):
        Digraph(2, frozenset({(1, 3)}))
    with pytest.raises(DigraphError):
        clique(0)


def test_digraph_is_an_immutable_value():
    g = Digraph(3, [(1, 2), (2, 3)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g == Digraph(vertex_count=3, edges=frozenset({(2, 3), (1, 2)}))
    assert hash(g) == hash(Digraph(3, frozenset({(1, 2), (2, 3)})))
    assert g != Digraph(4, g.edges) and g != Digraph(3, frozenset())
    assert g.__eq__((3, g.edges)) is NotImplemented
    with pytest.raises(AttributeError):
        g.vertex_count = 4
    with pytest.raises(AttributeError):
        del g.edges


@pytest.mark.parametrize("args, message", [
    ((3, frozenset({(1.7, 2.2)})), r"^edge ends must be integers, got \(1\.7, 2\.2\)$"),
    ((3, [(1, 2), ("2", 3)]), r"^edge ends must be integers, got \('2', 3\)$"),
    ((3, [(True, 2)]), r"^edge ends must be integers, got \(True, 2\)$"),
    ((3.0, []), r"^the vertex count must be an integer, got 3\.0$"),
    ((True, []), r"^the vertex count must be an integer, got True$"),
])
def test_digraph_refuses_a_number_that_is_not_an_int(args, message):
    with pytest.raises(DigraphError, match=message):
        Digraph(*args)


def test_clique_edge_count():
    for n in (1, 2, 3, 5):
        g = clique(n)
        assert g.vertex_count == n
        assert len(g.edges) == n * n - n
        assert g.is_loopless()


def test_line_digraph_of_2cycle():
    g = cycle(2)  # edges (1,2),(2,1)
    lg, labels = line_digraph(g)
    assert labels == [(1, 2), (2, 1)]
    assert lg.vertex_count == 2
    assert lg.edges == frozenset({(1, 2), (2, 1)})


def test_line_digraph_of_3cycle_is_3cycle():
    lg, labels = line_digraph(cycle(3))
    assert lg.vertex_count == 3
    # relabelling by edge order: (1,2)->(2,3)->(3,1)->(1,2)
    assert lg.edges == frozenset({(1, 2), (2, 3), (3, 1)})


def test_line_digraph_edge_count_of_clique():
    # edges of the line digraph of K_n: paths u->v->w with u != v != w
    for n in (2, 3, 4):
        lg, _ = line_digraph(clique(n))
        assert lg.vertex_count == n * (n - 1)
        assert len(lg.edges) == n * (n - 1) * (n - 1)


def test_line_digraph_of_edgeless():
    lg, labels = line_digraph(Digraph(3, frozenset()))
    assert labels == [] and lg.vertex_count == 1 and not lg.edges


def test_shift_digraph_vertex_counts():
    # |V(S_{q,i})| = q (q-1)^i
    for q, i in ((3, 0), (3, 1), (3, 2), (4, 1), (4, 2)):
        g = shift_digraph(q, i)
        assert g.vertex_count == q * (q - 1) ** i
    assert shift_digraph(4, 0) == clique(4)
    with pytest.raises(DigraphError):
        shift_digraph(0, 1)


def test_clique_refuses_over_the_edge_budget(monkeypatch):
    monkeypatch.setattr(dg, "_MAX_EDGES", 12)
    assert len(clique(4).edges) == 12
    monkeypatch.setattr(dg, "_MAX_EDGES", 11)
    with pytest.raises(DigraphError, match=r"^K_4 has 4\*3 = 12 edges, over the budget of 11$"):
        clique(4)


def test_shift_digraph_refuses_over_the_edge_budget(monkeypatch):
    # |E(S_{q,i})| = q (q-1)^(i+1)
    for q, i in ((3, 0), (3, 2), (4, 1), (4, 2)):
        assert len(shift_digraph(q, i).edges) == q * (q - 1) ** (i + 1)
    monkeypatch.setattr(dg, "_MAX_EDGES", 12)
    assert len(shift_digraph(3, 1).edges) == 12
    monkeypatch.setattr(dg, "_MAX_EDGES", 11)
    with pytest.raises(DigraphError, match=r"^S_\{3,1\} has 3\*2\^2 edges, over the budget of 11$"):
        shift_digraph(3, 1)
    monkeypatch.undo()
    with pytest.raises(DigraphError, match=r"^S_\{3,10+\} has 3\*2\^10+1 edges, "
                                           r"over the budget of 1000000$"):
        shift_digraph(3, 10**40)


def hub(n_in, n_out, loop=False):
    """Vertex 1 with n_in in-neighbours and n_out out-neighbours."""
    edges = {(v, 1) for v in range(2, n_in + 2)}
    edges |= {(1, v) for v in range(n_in + 2, n_in + n_out + 2)}
    return Digraph(n_in + n_out + 1, frozenset(edges | ({(1, 1)} if loop else set())))


def test_line_digraph_refuses_over_the_edge_budget(monkeypatch):
    # one edge per path u -> v -> w: indeg(v)*outdeg(v) through each v
    g = hub(3, 4, loop=True)
    assert len(line_digraph(g)[0].edges) == 4 * 5
    monkeypatch.setattr(dg, "_MAX_EDGES", 20)
    assert len(line_digraph(g)[0].edges) == 20
    monkeypatch.setattr(dg, "_MAX_EDGES", 19)
    with pytest.raises(DigraphError,
                       match=r"^the line digraph has 20 edges, over the budget of 19$"):
        line_digraph(g)
    monkeypatch.undo()
    # 1,001 edges in and 1,001 out of one vertex: refused before listing
    with pytest.raises(DigraphError, match=r"^the line digraph has 1002001 edges, "
                                           r"over the budget of 1000000$"):
        line_digraph(hub(1001, 1001))


def test_line_digraph_edge_count_is_the_degree_product_sum():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(1, 5)
        g = Digraph(n, frozenset(e for e in itertools.product(range(1, n + 1), repeat=2)
                                 if rng.random() < 0.4))
        want = sum(sum(1 for e in g.edges if e[1] == v) * sum(1 for e in g.edges if e[0] == v)
                   for v in range(1, n + 1))
        assert len(line_digraph(g)[0].edges) == want


def test_small_cliques_are_their_own_line_digraphs():
    for q in (1, 2):
        assert line_digraph(clique(q))[0] == clique(q)
        assert shift_digraph(q, 10**40) == clique(q)


def test_hom_refuses_over_the_domain_budget(monkeypatch):
    monkeypatch.setattr(dg, "_MAX_DOMAIN_CELLS", 12)
    assert homomorphism_exists(clique(4), clique(3)) is None
    monkeypatch.setattr(dg, "_MAX_DOMAIN_CELLS", 11)
    with pytest.raises(DigraphError, match=r"^the search has 4\*3 = 12 domain cells, "
                                           "over the budget of 11$"):
        homomorphism_exists(clique(4), clique(3))


# -- homomorphisms ----------------------------------------------------------


def brute_force_hom(x, a):
    for f in itertools.product(range(1, a.vertex_count + 1), repeat=x.vertex_count):
        g = dict(enumerate(f, start=1))
        if all((g[u], g[v]) in a.edges for u, v in x.edges):
            return g
    return None


def test_hom_basic():
    assert homomorphism_exists(cycle(3), clique(3)) is not None
    assert homomorphism_exists(clique(3), cycle(3)) is None
    assert homomorphism_exists(clique(4), clique(3)) is None
    f = homomorphism_exists(clique(3), clique(4))
    assert f is not None and check_homomorphism(clique(3), clique(4), f)


def test_hom_loops():
    loop = Digraph(1, frozenset({(1, 1)}))
    assert homomorphism_exists(loop, clique(3)) is None
    assert homomorphism_exists(clique(3), loop) is not None


def test_hom_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        x = random_digraph(rng, rng.randint(1, 4), loops=rng.random() < 0.3)
        a = random_digraph(rng, rng.randint(1, 3), loops=rng.random() < 0.3)
        got = homomorphism_exists(x, a)
        want = brute_force_hom(x, a)
        assert (got is None) == (want is None), (x, a)
        if got is not None:
            assert check_homomorphism(x, a, got)


def test_hom_on_a_long_path_within_default_recursion_limit(recursion_limit_1000):
    # one frame per instance vertex would need 1,500 of them
    n = 1500
    path = Digraph(n, frozenset((i, i + 1) for i in range(1, n)))
    f = homomorphism_exists(path, clique(2))
    assert f is not None and check_homomorphism(path, clique(2), f)


def test_check_homomorphism_partial_map():
    assert not check_homomorphism(clique(2), clique(2), {1: 1})


def test_check_homomorphism_map_leaving_target():
    x = Digraph(3, frozenset({(1, 2), (2, 1)}))
    assert check_homomorphism(x, clique(3), {1: 1, 2: 2, 3: 3})
    assert not check_homomorphism(x, clique(3), {1: 1, 2: 2, 3: 99})
    assert not check_homomorphism(x, clique(3), {1: 1, 2: 2, 3: 0})


# -- iteration / fooling parameters -----------------------------------------


def test_iterates():
    assert iterate_a(3, 0) == 3
    assert iterate_a(2, 3) == 2 ** (2 ** (2 ** 2))  # 65536
    assert iterate_b(4, 1) == 6
    assert iterate_b(4, 2) == 20
    assert iterate_b(4, 3) == 184756
    with pytest.raises(DigraphError, match=r"^need p >= 1 and i >= 0$"):
        iterate_a(0, 1)
    with pytest.raises(DigraphError, match=r"^need p >= 1 and i >= 0$"):
        iterate_b(1, -1)


def test_iterate_a_refuses_a_tower_it_cannot_build():
    # a^(3)(4) = 2^65536 is the last iterate; the next exponent is too large
    assert iterate_a(4, 3) == 2 ** 65536
    with pytest.raises(DigraphError, match=r"^a\^\(4\)\(4\) exceeds representable size "
                                           r"\(tower of height 4\)$"):
        iterate_a(4, 4)


def test_iterate_b_refuses_before_taking_b_of_a_large_argument(monkeypatch):
    # b(14000) has 4,213 decimal digits, under the 4,300 Python prints
    assert len(str(iterate_b(14000, 1))) == 4213
    real_comb = math.comb

    def comb(n, k):
        assert n <= 14_000, f"math.comb({n}, {k}) was called"
        return real_comb(n, k)

    monkeypatch.setattr(math, "comb", comb)
    for p in (14_001, 15_000, 10 ** 7):
        with pytest.raises(DigraphError, match=rf"^b\^\(1\)\({p}\) exceeds representable size "
                                               rf"\(b of {p} > 14000\)$"):
            iterate_b(p, 1)
    # the fourth step would take b(184756)
    with pytest.raises(DigraphError, match=r"^b\^\(4\)\(4\) exceeds representable size "
                                           r"\(b of 184756 > 14000\)$"):
        iterate_b(4, 4)
    with pytest.raises(DigraphError, match=r"^b\^\(1\)\(15000\) exceeds representable size "
                                           r"\(b of 15000 > 14000\)$"):
        fooling_parameters(15_000, 15_000, 2)
    # the tower a^(4)(4) is refused before b(184756) is taken
    with pytest.raises(DigraphError, match=r"^a\^\(4\)\(4\) exceeds representable size "
                                           r"\(tower of height 4\)$"):
        fooling_parameters(4, 4, 215)


def test_fooling_parameters_known_instance():
    p = fooling_parameters(4, 4, 2)
    assert p.i == 3
    assert p.b_iterates == (6, 20, 184756)
    assert p.thresholds == (16, 64, 256)
    # q = 2^(2^(2^4)) + 1: a 65537-bit number, too large for the exact field
    assert p.q_bits == 65537
    assert p.q is None
    same = ChromaticParams(3, 65537, None, (6, 20, 184756), (16, 64, 256))
    assert p == same == ChromaticParams(
        i=3, q_bits=65537, q=None, b_iterates=(6, 20, 184756), thresholds=(16, 64, 256))
    assert hash(p) == hash(same)
    with pytest.raises(AttributeError):
        p.i = 4


def test_fooling_parameters_small_q():
    # larger c reaches the threshold in one step, keeping the tower short
    # and q small enough to be reported exactly
    p = fooling_parameters(6, 63, 2)
    assert p.i == 1
    assert p.b_iterates == (20,)
    assert p.q == 2 ** 63 + 1
    assert p.q_bits == 64
    # one bit more and only the bit length is reported
    p = fooling_parameters(6, 64, 2)
    assert p.q is None and p.q_bits == 65


def test_fooling_parameters_validation():
    with pytest.raises(DigraphError,
                       match=r"^c must be >= 4 \(smaller c needs a separate reduction\)$"):
        fooling_parameters(3, 4, 2)
    with pytest.raises(DigraphError, match=r"^need d >= c and k >= 2$"):
        fooling_parameters(4, 3, 2)
    with pytest.raises(DigraphError, match=r"^need d >= c and k >= 2$"):
        fooling_parameters(4, 4, 1)
    # k large enough to force i = 4: the tower 2^2^2^2^d is not representable
    with pytest.raises(DigraphError, match=r"^a\^\(4\)\(4\) exceeds representable size "
                                           r"\(tower of height 4\)$"):
        fooling_parameters(4, 4, 215)


# -- JSON -------------------------------------------------------------------


def test_digraph_json_round_trip():
    g = cycle(3)
    text = digraph_to_json(g)
    assert digraph_from_json(text) == g
    assert digraph_to_json(digraph_from_json(text)) == text


def test_digraph_doc_is_the_parsed_json():
    g = cycle(3)
    doc = digraph_to_doc(g)
    assert doc == {"vertices": 3, "edges": [[1, 2], [2, 3], [3, 1]]}
    assert json.dumps(doc) + "\n" == digraph_to_json(g)
    assert digraph_from_doc(doc) == g
    with pytest.raises(DigraphError, match=r"^bad digraph JSON: expected an integer, got 2.5$"):
        digraph_from_doc({"vertices": 3, "edges": [[1, 2.5]]})
    with pytest.raises(DigraphError, match=r"^bad digraph JSON: 'vertices'$"):
        digraph_from_doc({})


def test_digraph_doc_refuses_a_repeated_edge_and_any_other_key():
    with pytest.raises(DigraphError, match=r"^bad digraph JSON: edge \[2, 3\] is listed twice$"):
        digraph_from_doc({"vertices": 3, "edges": [[2, 3], [1, 2], [2, 3], [1, 2]]})
    with pytest.raises(DigraphError, match=r'^bad digraph JSON: unexpected key "name"$'):
        digraph_from_doc({"vertices": 3, "edges": [], "name": "x", "vertex": 3})
    # the old faults keep their words: a missing key, then the range check
    with pytest.raises(DigraphError, match=r"^bad digraph JSON: 'edges'$"):
        digraph_from_doc({"vertices": 3, "name": "x"})
    with pytest.raises(DigraphError, match=r"^edge \(1,4\) out of range$"):
        digraph_from_doc({"vertices": 3, "edges": [[1, 4], [1, 4]], "name": "x"})


def test_digraph_json_refuses_a_repeated_key():
    # json.loads alone would read a 2-vertex digraph
    with pytest.raises(DigraphError, match=r'^bad digraph JSON: key "vertices" appears twice$'):
        digraph_from_json('{"vertices": 9, "vertices": 2, "edges": [[1, 2]]}')


def test_digraph_json_malformed():
    with pytest.raises(DigraphError):
        digraph_from_json("{}")
    with pytest.raises(DigraphError):
        digraph_from_json('{"vertices": 1, "edges": [[1, 2]]}')


# a number that is not a JSON integer, in each place a digraph has one;
# int() would read 2.7 as 2, "1" as 1 and true as 1
NOT_JSON_INTS = {
    "vertices-float": '{"vertices": 2.7, "edges": []}',
    "vertices-integral-float": '{"vertices": 2.0, "edges": []}',
    "vertices-bool": '{"vertices": true, "edges": []}',
    "vertices-string": '{"vertices": "2", "edges": []}',
    "tail-float": '{"vertices": 2, "edges": [[1.9, 2]]}',
    "head-integral-float": '{"vertices": 2, "edges": [[1, 2.0]]}',
    "tail-string": '{"vertices": 2, "edges": [["1", 2]]}',
    "head-bool": '{"vertices": 3, "edges": [[1, 2], [2, 1], [1, true]]}',
    "tail-bool": '{"vertices": 2, "edges": [[false, 1]]}',
}


@pytest.mark.parametrize("text", NOT_JSON_INTS.values(), ids=list(NOT_JSON_INTS))
def test_digraph_json_refuses_a_number_that_is_not_an_integer(text):
    with pytest.raises(DigraphError, match="bad digraph JSON: expected an integer, got "):
        digraph_from_json(text)
