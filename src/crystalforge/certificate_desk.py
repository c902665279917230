"""Acceptance certificates: construction, verification, and transport.

A certificate at level k assigns to every k-tuple of instance vertices an
affine integer tensor over the template's vertex set, such that the family
commutes with tuple projection (k-tensoriality) and every instance edge is
explained by a single integer vector over the template's edges.  Hollow
shadowed crystals yield certificates by projection; certificates transport
along template homomorphisms (coordinatewise pushforward) and along the
line-digraph construction (regrouping vertex 2k-tuples into edge
k-tuples).
"""

from __future__ import annotations

import itertools
import json
from typing import Mapping, Optional

from . import Immutable, int_args, json_int, json_keys, json_once
from .tensor_core import (
    Index,
    IntTensor,
    TensorError,
    dumps_st,
    is_affine,
    is_hollow,
    loads_st,
    project,
    pushforward,
    total,
)
from .digraph_lab import (
    Digraph,
    check_homomorphism,
    clique,
    digraph_from_doc,
    digraph_to_doc,
    line_digraph,
    refines,
)


class ZaffCertificate(Immutable):
    """Immutable level-k certificate: ``zeta`` maps each k-tuple of
    ``instance`` vertices to an integer tensor over ``template``'s vertices."""

    __slots__ = ("k", "instance", "template", "zeta")

    def __init__(self, k: int, instance: Digraph, template: Digraph, zeta: Mapping[Index, IntTensor]):
        """Refuse a negative level and a zeta that is not total over the
        instance vertex k-tuples.  Distinct keys, |V(X)|^k of them, each a
        k-tuple of instance vertices, are all the tuples, so the tuples are
        never listed.  With two or more vertices |V(X)|^k > k, so a zeta
        with fewer than k keys is refused before the power is taken, and
        a short zeta is refused at once at any k."""
        if type(k) is not int:
            raise TensorError(f"k must be an integer, got k={k!r}")
        if k < 0:
            raise TensorError(f"certificate level must be >= 0, got k={k}")
        n = template.vertex_count
        verts = range(1, instance.vertex_count + 1)
        zeta = dict(zeta)
        counted = (len(verts) < 2 or k <= len(zeta)) and len(zeta) == len(verts) ** k
        if not counted or not all(len(x) == k and all(v in verts for v in x) for x in zeta):
            raise TensorError("zeta must be total over instance vertex k-tuples")
        for x, t in zeta.items():
            if t.shape != (n,) * k:
                raise TensorError(f"image at {x} has shape {t.shape}, expected {(n,) * k}")
        self._set(k, instance, template, zeta)

    @property
    def template_clique(self) -> Optional[int]:
        """n when the template is K_n, else None.  A loopless digraph on n
        vertices with n(n-1) edges is K_n, so K_n is never built to tell."""
        a = self.template
        n = a.vertex_count
        return n if len(a.edges) == n * (n - 1) and a.is_loopless() else None


def certificate_from_crystal(c: IntTensor, x_graph: Digraph, k: int) -> ZaffCertificate:
    """Project a hollow-shadowed affine k-crystal through vertex tuples.

    Modes of the crystal play the role of instance vertices (the crystal
    must have at least max(k+1, |V(X)|) modes; unused modes act as isolated
    vertices), so the image of x is just the projection of the crystal onto
    the selector x.  Tensoriality is then projection composition, for free.
    The level k must be at least 2, the least level the verifiers accept.
    The crystal is checked by ``crystal_mill.shadow``, which refuses a
    check over its read budget before it starts, and a non-crystal.
    """
    int_args(TensorError, k=k)
    if k < 2:
        raise TensorError(f"certificate level must be >= 2, got k={k}")
    if not x_graph.is_loopless():
        raise TensorError("instance digraph must be loopless")
    q = c.dim
    if q < max(k + 1, x_graph.vertex_count):
        raise TensorError(
            f"crystal has {q} modes; needs at least {max(k + 1, x_graph.vertex_count)}"
        )
    if not is_affine(c):
        raise TensorError("crystal entries must sum to 1")
    # imported here so that the other ``cert`` verbs never load the miner
    from .crystal_mill import shadow

    if not is_hollow(shadow(c, k)):
        raise TensorError("the k-shadow has a tie")
    n = c.shape[0]
    zeta = {
        x: project(c, x)
        for x in itertools.product(range(1, x_graph.vertex_count + 1), repeat=k)
    }
    return ZaffCertificate(k, x_graph, clique(n), zeta)


def _edge_vector_exists(cert: ZaffCertificate, y: tuple[int, int]) -> bool:
    """Whether an integer vector q over template edges has the certificate
    image at y.i0 as its i0-projection, for the edge-end map
    i0 = (0, 1, ..., 1) of ``_mu_generators(k)``, k >= 2 (the verifiers
    refuse smaller k).

    This is a support test.  The edge system has one row per index a:
    the sum of q_b over the template edges b with b.i0 = a equals
    zeta[y.i0][a].  Since b.i0 = (b0, b1, ..., b1) determines b, distinct
    edges have distinct projections, so no two rows share a column and
    every row holds at most one.  A row with no column asks
    zeta[y.i0][a] = 0.  So the system is feasible exactly when every
    support index of zeta[y.i0] is b.i0 for some edge b, and then
    q_b = zeta[y.i0][b.i0] is an integer witness.

    Call only after affinity and tensoriality have passed (as
    ``_check_common`` does); then this is the full edge condition.  Every
    i in {0,1}^k factors as i = i0 o j with j = i read as a map [k] -> [k]
    (the factorisation in ``build_ip_system``'s docstring), so the
    i-projection of q is the j-projection of its i0-projection, that is
    project(zeta[y.i0], j) = zeta[y.i] by tensoriality.  Summed over
    every a, the rows give sum(q) = total(zeta[y.i0]) = 1 by affinity, so
    the normalisation row is implied too.
    """
    k = cert.k
    ends = {(u,) + (v,) * (k - 1) for u, v in cert.template.sorted_edges()}
    return cert.zeta[(y[0],) + (y[1],) * (k - 1)].entries.keys() <= ends


def _lambda_generators(k: int) -> list[tuple[int, ...]]:
    """Position maps generating the full transformation monoid on [k]: a
    transposition, a k-cycle and a rank-(k-1) collapse (for k = 2 the swap
    and (0 0)).  At k = 1 the only map is the identity, and none is
    listed."""
    if k == 1:
        return []
    rest = tuple(range(2, k))
    maps = [(1, 0) + rest, tuple(range(1, k)) + (0,), (0, 0) + rest]
    return list(dict.fromkeys(maps))


def _check_common(cert: ZaffCertificate) -> Optional[str]:
    """Affinity, tensoriality and the edge vectors; the reason of the first
    failure, or None.

    Tensoriality asks zeta[x.i] = project(zeta[x], i) for every vertex
    k-tuple x and every position map i: [k] -> [k], where
    x.i = (x[i(0)], ..., x[i(k-1)]).  It is checked for the generators
    ``_lambda_generators(k)`` only, which is enough: x.(i o j) = (x.i).j and
    project(project(t, i), j) = project(t, i o j), so if the identity holds
    at every x for i and for j, then

        zeta[x.(i o j)] = zeta[(x.i).j] = project(zeta[x.i], j)
                        = project(project(zeta[x], i), j) = project(zeta[x], i o j),

    and it holds for i o j.  The maps that pass are closed under
    composition, and for k >= 2 (the verifiers refuse smaller k) the
    generators generate every map in [k]^k, the identity included.
    """
    k = cert.k
    xs = list(itertools.product(range(1, cert.instance.vertex_count + 1), repeat=k))
    for x in xs:
        if not is_affine(cert.zeta[x]):
            return f"image at {x} is not affine (total {total(cert.zeta[x])})"
    for x in xs:
        t = cert.zeta[x]
        for i in _lambda_generators(k):
            xi = tuple(x[p] for p in i)
            if cert.zeta[xi] != project(t, tuple(p + 1 for p in i)):
                return f"tensoriality fails at x={x}, positions={tuple(p + 1 for p in i)}"
    for y in cert.instance.sorted_edges():
        if not _edge_vector_exists(cert, y):
            return f"no integer edge vector for instance edge {y}"
    return None


def verify_clique_certificate(cert: ZaffCertificate, x_graph: Digraph, n: int):
    """Full certificate check against the clique template K_n: the
    certificate's ``template_clique`` must be n.

    Returns (ok, reason).  On top of the general checks, support indices
    must pattern-refine their vertex tuple (the hollowness condition).
    """
    if not 2 <= cert.k <= n:
        return False, f"need 2 <= k <= n, got k={cert.k}, n={n}"
    if not x_graph.is_loopless():
        return False, "instance digraph must be loopless"
    if cert.instance != x_graph or cert.template_clique != n:
        return False, "certificate instance/template mismatch"
    reason = _check_common(cert)
    if reason is not None:
        return False, reason
    for x, t in cert.zeta.items():
        for a in t.entries:
            if not refines(a, x):
                return False, f"nonzero entry at a={a} although a does not refine x={x}"
    return True, None


def verify_zaff_certificate_general(cert: ZaffCertificate, x_graph: Digraph, a_graph: Digraph):
    """Certificate check against an arbitrary template with E(A) nonempty."""
    if cert.k < 2:
        return False, f"need k >= 2, got k={cert.k}"
    if not a_graph.edges:
        return False, "template has no edges"
    if cert.instance != x_graph or cert.template != a_graph:
        return False, "certificate instance/template mismatch"
    reason = _check_common(cert)
    if reason is not None:
        return False, reason
    return True, None


def transform_certificate_homomorphism(
    cert: ZaffCertificate, f: Mapping[int, int], b_graph: Digraph
) -> ZaffCertificate:
    """Push a certificate along a template homomorphism f: A -> B,
    applying f coordinatewise to every image's indices.  The keys of f
    must be exactly the vertices 1..|V(A)|, and every key and value an
    ``int`` that is not a ``bool``."""
    fmap = dict(f)
    bad = next(((u, v) for u, v in fmap.items() if type(u) is not int or type(v) is not int), None)
    if bad is not None:
        raise TensorError(f"f must map vertex numbers to vertex numbers, got {bad[0]!r}: "
                          f"{bad[1]!r}")
    if not check_homomorphism(cert.template, b_graph, fmap):
        raise TensorError("f is not a homomorphism between the templates")
    # f maps every template vertex, so a key outside them is one too many
    n = cert.template.vertex_count
    if len(fmap) > n:
        stray = min(u for u in fmap if not 1 <= u <= n)
        raise TensorError(f"f maps {stray}, which is not a template vertex (1..{n})")
    k = cert.k
    p = b_graph.vertex_count
    shape = (p,) * k

    def g(idx: Index) -> Index:
        return tuple([fmap[c] for c in idx])

    zeta = {x: pushforward(t, g, shape) for x, t in cert.zeta.items()}
    return ZaffCertificate(k, cert.instance, b_graph, zeta)


def transform_certificate_line_digraph(cert: ZaffCertificate) -> ZaffCertificate:
    """Lower a level-2k certificate for (X, A) to a level-k certificate
    for the line digraphs (dX, dA).

    The new images regroup the old index 2k-tuples into k consecutive
    pairs, each read as a template edge.  Requires the support condition:
    for every vertex tuple of dX, the corresponding old image is supported
    on tuples whose consecutive pairs are all template edges.
    """
    if cert.k % 2 != 0 or cert.k < 2:
        raise TensorError("certificate level must be even and >= 2")
    k = cert.k // 2
    a_graph = cert.template
    x_graph = cert.instance
    da, a_labels = line_digraph(a_graph)
    dx, x_labels = line_digraph(x_graph)
    if not da.edges:
        raise TensorError("the template's line digraph has no edges")
    if not x_graph.edges:
        raise TensorError("the instance's line digraph has no labelled vertices")

    a_pos = {e: i + 1 for i, e in enumerate(a_labels)}
    a_edges = a_graph.edges
    m = da.vertex_count

    def beta(idx: Index) -> Index:
        # gam: the old vertex tuple whose image the loop below pushes forward
        out = []
        for ell in range(k):
            pair = (idx[2 * ell], idx[2 * ell + 1])
            if pair not in a_edges:
                raise TensorError(
                    f"image of {gam} has mass at {idx}, whose pair {pair} is not a template edge"
                )
            out.append(a_pos[pair])
        return tuple(out)

    nx = dx.vertex_count
    zeta: dict[Index, IntTensor] = {}
    for xbar in itertools.product(range(1, nx + 1), repeat=k):
        gam = tuple(c for v in xbar for c in x_labels[v - 1])
        zeta[xbar] = pushforward(cert.zeta[gam], beta, (m,) * k)
    return ZaffCertificate(k, dx, da, zeta)


# ---------------------------------------------------------------------------
# JSON interchange.
# ---------------------------------------------------------------------------


def certificate_to_json(cert: ZaffCertificate) -> str:
    n = cert.template_clique
    doc = {
        "k": cert.k,
        "instance": digraph_to_doc(cert.instance),
        "template": digraph_to_doc(cert.template) if n is None else {"clique": n},
        "zeta": [
            {"x": list(x), "tensor": dumps_st(cert.zeta[x])}
            for x in sorted(cert.zeta)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def homomorphism_from_json(text: str) -> dict[int, int]:
    """The vertex map of a JSON object ``{"u": v, ...}``.  A key must be a
    number spelled as ``str`` spells it (no ``+``, space, ``_`` or leading
    0) and appear once, and a value must be a JSON integer; anything else
    is a ``TensorError``."""
    try:
        f = {}
        for u, v in json.loads(text, object_pairs_hook=json_once).items():
            if str(int(u)) != u:
                raise ValueError(f"expected a vertex number, got {json.dumps(u)}")
            f[int(u)] = json_int(v)
    except (AttributeError, TypeError, ValueError) as exc:
        raise TensorError(
            f"bad homomorphism JSON (want an object of vertex pairs): {exc}") from exc
    return f


def certificate_from_json(text: str) -> ZaffCertificate:
    """The certificate of a JSON document.  A repeated key, or a key other
    than ``k``, ``instance``, ``template`` and ``zeta`` (``x`` and
    ``tensor`` in a zeta entry), is refused with the other format faults:
    a ``TensorError`` starting ``bad certificate JSON``.  The keys are
    checked after everything else is read."""
    try:
        doc = json.loads(text, object_pairs_hook=json_once)
        k = json_int(doc["k"])
        instance = digraph_from_doc(doc["instance"])
        tmpl = doc["template"]
        if isinstance(tmpl, dict) and set(tmpl) == {"clique"}:
            template = clique(json_int(tmpl["clique"]))
        else:
            template = digraph_from_doc(tmpl)
        zeta = {}
        for blob in doc["zeta"]:
            x = tuple(json_int(c) for c in blob["x"])
            if x in zeta:
                raise ValueError(f"duplicate zeta entry for x={x}")
            zeta[x] = loads_st(blob["tensor"])
        json_keys(doc, {"k", "instance", "template", "zeta"})
        for blob in doc["zeta"]:
            json_keys(blob, {"x", "tensor"})
    except (KeyError, TypeError, ValueError) as exc:
        raise TensorError(f"bad certificate JSON: {exc}") from exc
    return ZaffCertificate(k, instance, template, zeta)
