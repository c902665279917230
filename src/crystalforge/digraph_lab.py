"""Digraph constructions, homomorphism search, and chromatic iteration.

Cliques, line digraphs and shift digraphs are the instance/template
families used downstream; ``homomorphism_exists`` is a brute-force
backtracking decider for the small sizes in scope; ``refines`` is the
pattern order on tuples that the level-k systems and the clique
certificates share; the a/b iteration functions and
``fooling_parameters`` compute the parameters of the fooling-instance
argument (where only the iteration count and the bit length of the
resulting clique size are reportable at desk scale).
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

from . import Immutable, json_int, json_keys, json_once, refuse_over

Edge = tuple[int, int]


class DigraphError(ValueError):
    """A digraph, level or parameter input the library refuses: out of
    range, malformed or over a size budget (``_MAX_EDGES``,
    ``_MAX_DOMAIN_CELLS``, and the level-k system's)."""


# the most edges ``clique``, ``line_digraph`` and ``shift_digraph`` list:
# K_1000 (999,000) and S_{4,10} (708,588) are each listed and written as
# JSON in 6.5 s at 257 and 285 MB peak RSS, and the line digraph of K_65
# has 266,240
_MAX_EDGES = 10**6


class Digraph(Immutable):
    """Immutable digraph on the vertices 1..vertex_count.  The vertex count
    and each edge end must be an ``int`` that is not a ``bool``."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset[Edge]):
        if type(vertex_count) is not int:
            raise DigraphError(f"the vertex count must be an integer, got {vertex_count!r}")
        if vertex_count < 1:
            raise DigraphError("need at least one vertex")
        pairs = [(u, v) for u, v in edges]
        bad = next(((u, v) for u, v in pairs if type(u) is not int or type(v) is not int), None)
        if bad is not None:
            raise DigraphError(f"edge ends must be integers, got {bad!r}")
        edges = frozenset(pairs)
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise DigraphError(f"edge ({u},{v}) out of range")
        self._set(vertex_count, edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def is_loopless(self) -> bool:
        return all(u != v for u, v in self.edges)


def clique(n: int) -> Digraph:
    """K_n: every ordered pair of distinct vertices is an edge."""
    if n < 1:
        raise DigraphError("clique size must be >= 1")
    refuse_over(n * (n - 1), _MAX_EDGES, f"K_{n} has {n}*{n - 1} = {n * (n - 1)} edges",
                DigraphError)
    return Digraph(n, frozenset((u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v))


def line_digraph(x: Digraph) -> tuple[Digraph, list[Edge]]:
    """The line digraph and its vertex labelling.

    Vertices are the edges of ``x`` in lexicographic order (label list is
    1-based via position); (e, f) is an edge iff e = (u,v) and f = (v,w).
    So each vertex v of ``x`` gives indeg(v)*outdeg(v) edges; over
    ``_MAX_EDGES`` in total is refused with ``DigraphError`` before
    anything is listed.
    """
    labels = x.sorted_edges()
    by_tail: dict[int, list[Edge]] = {}
    for f in labels:
        by_tail.setdefault(f[0], []).append(f)
    count = sum(len(by_tail.get(e[1], ())) for e in labels)
    refuse_over(count, _MAX_EDGES, f"the line digraph has {count} edges", DigraphError)
    pos = {e: i + 1 for i, e in enumerate(labels)}
    edges = set()
    for e in labels:
        for f in by_tail.get(e[1], ()):
            edges.add((pos[e], pos[f]))
    return Digraph(max(len(labels), 1), frozenset(edges)), labels


def shift_digraph(q: int, i: int) -> Digraph:
    """S_{q,0} = K_q and S_{q,i} = line digraph of S_{q,i-1}.

    K_q is (q-1)-regular with q(q-1) edges, and the line digraph of a
    (q-1)-regular digraph with E edges is (q-1)-regular with E(q-1)
    edges, so S_{q,i} has q(q-1)^(i+1).  Over ``_MAX_EDGES`` is refused
    with ``DigraphError`` before anything is listed.  K_1 and K_2 are
    their own line digraphs.
    """
    if q < 1 or i < 0:
        raise DigraphError("need q >= 1 and i >= 0")
    if q <= 2:
        return clique(q)
    # (q-1)^(i+1) >= 2^(i+1), over the budget once i reaches its bit length
    count = q * (q - 1) ** (i + 1) if i < _MAX_EDGES.bit_length() else _MAX_EDGES + 1
    refuse_over(count, _MAX_EDGES, f"S_{{{q},{i}}} has {q}*{q - 1}^{i + 1} edges", DigraphError)
    g = clique(q)
    for _ in range(i):
        g, _ = line_digraph(g)
    return g


# the most domain cells, |V(X)|*|V(A)|, ``homomorphism_exists`` lays out:
# a directed 10^5-cycle is mapped onto a looped vertex in 1.9 s at 140 MB
# peak RSS, and a loop is refused by the 10^5-cycle in 0.8 s
_MAX_DOMAIN_CELLS = 10**5


def homomorphism_exists(x: Digraph, a: Digraph) -> Optional[dict[int, int]]:
    """Backtracking edge-preserving map search; None when exhausted.

    Vertices are assigned in order of decreasing out-degree; forward
    checking prunes candidate sets of the unassigned vertices, so a
    frame's candidates, read once every earlier vertex is assigned, all
    fit its assigned neighbours (and its loop, by the initial domains).
    A search over ``_MAX_DOMAIN_CELLS`` is refused with
    ``DigraphError`` before a domain is laid out.
    """
    n = x.vertex_count
    cells = n * a.vertex_count
    refuse_over(cells, _MAX_DOMAIN_CELLS,
                f"the search has {n}*{a.vertex_count} = {cells} domain cells", DigraphError)
    out_deg = [0] * (n + 1)
    for u, _ in x.edges:
        out_deg[u] += 1
    order = sorted(range(1, n + 1), key=lambda v: (-out_deg[v], v))
    rank = {v: i for i, v in enumerate(order)}
    succ: dict[int, list[int]] = {v: [] for v in order}
    pred: dict[int, list[int]] = {v: [] for v in order}
    for u, v in x.edges:
        succ[u].append(v)
        pred[v].append(u)
    a_verts = range(1, a.vertex_count + 1)
    out_ok: dict[int, set[int]] = {c: set() for c in a_verts}
    in_ok: dict[int, set[int]] = {c: set() for c in a_verts}
    for c, d in a.edges:
        out_ok[c].add(d)
        in_ok[d].add(c)

    domains = {v: set(a_verts) for v in order}
    # a vertex with a loop in X needs a looped image
    looped = {c for c, d in a.edges if c == d}
    for u, v in x.edges:
        if u == v:
            domains[u] &= looped
    assignment: dict[int, int] = {}

    def undo(trimmed: list[tuple[int, set[int]]]) -> None:
        while trimmed:
            w, old = trimmed.pop()
            domains[w] = old

    def admit(pos: int, v: int, c: int, trimmed: list) -> bool:
        """Forward-check c as the image of v, recording in ``trimmed`` the
        domains it narrows; on failure those are restored."""
        for neighbours, lookup in ((succ[v], out_ok), (pred[v], in_ok)):
            for w in neighbours:
                if rank[w] > pos:
                    allowed = domains[w] & lookup[c]
                    if not allowed:
                        undo(trimmed)
                        return False
                    if allowed != domains[w]:
                        trimmed.append((w, domains[w]))
                        domains[w] = allowed
        return True

    # one frame per placed vertex: its remaining candidates and the domains
    # its current candidate trimmed; no recursion, however long the order.
    # A stale ``assignment`` entry is overwritten before it is returned.
    stack = [(iter(sorted(domains[order[0]])), [])]
    while stack:
        pos = len(stack) - 1
        v = order[pos]
        candidates, trimmed = stack[-1]
        undo(trimmed)
        c = next((c for c in candidates if admit(pos, v, c, trimmed)), None)
        if c is None:
            stack.pop()
            continue
        assignment[v] = c
        if pos + 1 == n:
            return dict(assignment)
        stack.append((iter(sorted(domains[order[pos + 1]])), []))
    return None


def check_homomorphism(x: Digraph, a: Digraph, f: dict[int, int]) -> bool:
    """``f`` maps every vertex of ``x`` to a vertex of ``a`` and every edge
    of ``x`` to an edge of ``a``."""
    n = a.vertex_count
    return all(v in f and 1 <= f[v] <= n for v in range(1, x.vertex_count + 1)) and all(
        (f[u], f[v]) in a.edges for u, v in x.edges
    )


def refines(s: tuple, t: tuple) -> bool:
    """s < t in the pattern order: equal coordinates of s force equality in t."""
    seen: dict = {}
    for sv, tv in zip(s, t):
        if sv in seen:
            if seen[sv] != tv:
                return False
        else:
            seen[sv] = tv
    return True


# beyond this exponent the next a-iterate is too large to even materialize
_MAX_EXP = 10 ** 7


def iterate_a(p: int, i: int) -> int:
    """i-fold iteration of a(p) = 2^p (i = 0 returns p).

    Refuses (DigraphError) before an exponent above 10^7 is raised."""
    if p < 1 or i < 0:
        raise DigraphError("need p >= 1 and i >= 0")
    start = p
    for _ in range(i):
        if p > _MAX_EXP:
            raise DigraphError(
                f"a^({i})({start}) exceeds representable size (tower of height {i})"
            )
        p = 2 ** p
    return p


# b(p) < 2^p, so b of an argument up to this bound has at most 4,215
# decimal digits, under the 4,300 that Python converts to a string
_MAX_B_ARG = 14_000


def iterate_b(p: int, i: int) -> int:
    """i-fold iteration of b(p) = binom(p, floor(p/2)) (i = 0 returns p).

    Refuses (DigraphError) before b is taken of an argument above 14,000."""
    if p < 1 or i < 0:
        raise DigraphError("need p >= 1 and i >= 0")
    start = p
    for _ in range(i):
        if p > _MAX_B_ARG:
            raise DigraphError(
                f"b^({i})({start}) exceeds representable size (b of {p} > {_MAX_B_ARG})"
            )
        p = math.comb(p, p // 2)
    return p


class ChromaticParams(NamedTuple):
    i: int
    q_bits: int
    q: Optional[int]  # exact value when it fits in 64 bits, else None
    b_iterates: tuple[int, ...]
    thresholds: tuple[int, ...]


def fooling_parameters(c: int, d: int, k: int) -> ChromaticParams:
    """Smallest i with b^(i)(c) >= k^2 * 4^i, plus the clique size q = a^(i)(d) + 1.

    ``q`` is astronomically large in general, so it is reported by bit
    length, with the exact value included only when it fits in 64 bits.
    """
    if c < 4:
        raise DigraphError("c must be >= 4 (smaller c needs a separate reduction)")
    if d < c or k < 2:
        raise DigraphError("need d >= c and k >= 2")
    b_iterates = []
    thresholds = []
    b_val = c
    while not thresholds or b_val < thresholds[-1]:
        i = len(thresholds) + 1
        # the tower a^(i)(d) is refused before the i-th b-iterate is built
        q = iterate_a(d, i) + 1
        b_val = iterate_b(b_val, 1)
        b_iterates.append(b_val)
        thresholds.append(k * k * 4 ** i)
    return ChromaticParams(
        i=i,
        q_bits=q.bit_length(),
        q=q if q.bit_length() <= 64 else None,
        b_iterates=tuple(b_iterates),
        thresholds=tuple(thresholds),
    )


# ---------------------------------------------------------------------------
# JSON interchange: {"vertices": n, "edges": [[u, v], ...]} with sorted,
# distinct edges and no other key
# ---------------------------------------------------------------------------


def digraph_to_doc(g: Digraph) -> dict:
    """The JSON object of a digraph: ``vertices`` and its sorted ``edges``."""
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.sorted_edges()]}


def digraph_to_json(g: Digraph) -> str:
    return json.dumps(digraph_to_doc(g)) + "\n"


def digraph_from_doc(doc) -> Digraph:
    """The digraph of a parsed JSON object; a field that is missing or not
    a JSON integer, an edge listed twice or a key other than ``vertices``
    and ``edges`` is a ``DigraphError`` starting ``bad digraph JSON``."""
    try:
        n = json_int(doc["vertices"])
        pairs = [(json_int(u), json_int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DigraphError(f"bad digraph JSON: {exc}") from exc
    g = Digraph(n, pairs)
    try:
        json_keys(doc, {"vertices", "edges"})
    except ValueError as exc:
        raise DigraphError(f"bad digraph JSON: {exc}") from exc
    if len(g.edges) < len(pairs):
        seen: set[Edge] = set()
        dup = next(e for e in pairs if e in seen or seen.add(e))
        raise DigraphError(f"bad digraph JSON: edge {list(dup)} is listed twice")
    return g


def digraph_from_json(text: str) -> Digraph:
    try:
        doc = json.loads(text, object_pairs_hook=json_once)
    except ValueError as exc:
        raise DigraphError(f"bad digraph JSON: {exc}") from exc
    return digraph_from_doc(doc)
