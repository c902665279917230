import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystalforge import certificate_desk as cd
from crystalforge import crystal_mill as cm
from crystalforge.tensor_core import IntTensor, TensorError, is_affine, project, total
from crystalforge.crystal_mill import BadDimension, mine_hollow_shadowed_crystal
from crystalforge.digraph_lab import Digraph, clique, line_digraph
from crystalforge.relaxation_engine import integer_feasible
from crystalforge.certificate_desk import (
    DimensionMismatch,
    EmptyLineTemplate,
    NotAffine,
    NotAHomomorphism,
    SupportConditionViolated,
    TooFewDimensions,
    ZaffCertificate,
    certificate_from_crystal,
    certificate_from_json,
    certificate_to_json,
    transform_certificate_homomorphism,
    transform_certificate_line_digraph,
    verify_clique_certificate,
    verify_zaff_certificate_general,
)
from qconv_map import check_refinement, uniform_qconv_map


def cycle(n):
    return Digraph(n, frozenset((i, i % n + 1) for i in range(1, n + 1)))


def k4_cert():
    c = mine_hollow_shadowed_crystal(2, 4)
    return certificate_from_crystal(c, clique(4), 2)


# -- construction -----------------------------------------------------------


def test_from_crystal_and_verify():
    cert = k4_cert()
    assert cert.k == 2 and cert.template_clique == 3
    ok, why = verify_clique_certificate(cert, clique(4), 3)
    assert ok, why


def test_from_crystal_preconditions():
    c = mine_hollow_shadowed_crystal(2, 4)
    with pytest.raises(TooFewDimensions):
        certificate_from_crystal(mine_hollow_shadowed_crystal(2, 2), clique(4), 2)
    with pytest.raises(NotAffine):
        from crystalforge.tensor_core import scale

        certificate_from_crystal(scale(c, 2), clique(4), 2)
    with pytest.raises(NotAHomomorphism):
        certificate_from_crystal(c, Digraph(2, frozenset({(1, 1)})), 2)


def test_from_crystal_rejects_level_below_two():
    # the verifiers refuse k < 2, so such a certificate could only be
    # written to be answered NO
    c = mine_hollow_shadowed_crystal(2, 4)
    for k in (0, 1, -1):
        with pytest.raises(BadDimension):
            certificate_from_crystal(c, clique(4), k)


def test_from_crystal_rejects_a_non_crystal_and_a_tied_shadow():
    # one entry at (1, 2, 3): affine, but its 2-projections differ
    with pytest.raises(cd.NotACrystal):
        certificate_from_crystal(IntTensor((3, 3, 3), {(1, 2, 3): 1}), clique(3), 2)
    # one entry at (1, 1, 1): a 2-crystal whose shadow is tied at (1, 1)
    with pytest.raises(cd.NotHollowShadow):
        certificate_from_crystal(IntTensor((1, 1, 1), {(1, 1, 1): 1}), clique(3), 2)


def test_from_crystal_refuses_over_the_crystal_check_budget(monkeypatch):
    c = mine_hollow_shadowed_crystal(2, 4)
    reads = 6 * (len(c.entries) + 25)  # C(4,2) * (nnz+25)
    monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads)
    assert certificate_from_crystal(c, clique(4), 2) == k4_cert()
    monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads - 1)
    with pytest.raises(BadDimension, match=rf"= {reads} reads, over the budget of {reads - 1}$"):
        certificate_from_crystal(c, clique(4), 2)


def test_certificate_totality_enforced():
    cert = k4_cert()
    zeta = dict(cert.zeta)
    zeta.pop((1, 1))
    with pytest.raises(DimensionMismatch):
        ZaffCertificate(2, cert.instance, cert.template, zeta, cert.template_clique)


def test_certificate_is_an_immutable_value():
    zeta = {(v,): IntTensor((2,), {(v,): 1}) for v in (1, 2)}
    cert = ZaffCertificate(1, clique(2), clique(2), zeta)
    assert cert.template_clique is None
    assert cert == ZaffCertificate(
        k=1, instance=clique(2), template=clique(2), zeta=dict(zeta), template_clique=None)
    assert cert != ZaffCertificate(1, clique(2), clique(2), zeta, template_clique=2)
    zeta.clear()  # the certificate keeps its own copy
    assert len(cert.zeta) == 2
    with pytest.raises(TypeError):
        hash(cert)  # zeta is a dict
    with pytest.raises(AttributeError):
        cert.k = 2
    with pytest.raises(AttributeError):
        del cert.zeta


# -- verification failures --------------------------------------------------


def tamper(cert, x, tensor):
    zeta = dict(cert.zeta)
    zeta[x] = tensor
    return ZaffCertificate(cert.k, cert.instance, cert.template, zeta, cert.template_clique)


def test_certificate_image_shape_enforced():
    cert = k4_cert()
    with pytest.raises(DimensionMismatch, match=r"image at \(1, 2\) has shape \(2, 2\)"):
        tamper(cert, (1, 2), IntTensor((2, 2), {(1, 2): 1}))


def test_verifiers_refuse_a_level_out_of_range():
    # a well-formed level-1 certificate K2 -> K2 (the identity map)
    zeta = {(v,): IntTensor((2,), {(v,): 1}) for v in (1, 2)}
    cert = ZaffCertificate(1, clique(2), clique(2), zeta, template_clique=2)
    assert verify_clique_certificate(cert, clique(2), 2) == (
        False, "need 2 <= k <= n, got k=1, n=2")
    assert verify_zaff_certificate_general(cert, clique(2), clique(2)) == (
        False, "need k >= 2, got k=1")
    # k above the clique size
    assert verify_clique_certificate(k4_cert(), clique(4), 1) == (
        False, "need 2 <= k <= n, got k=2, n=1")


def test_clique_verifier_refuses_a_looped_instance():
    looped = Digraph(4, clique(4).edges | {(1, 1)})
    assert verify_clique_certificate(k4_cert(), looped, 3) == (
        False, "instance digraph must be loopless")


def test_verify_rejects_non_affine_image():
    cert = k4_cert()
    bad = tamper(cert, (1, 2), IntTensor((3, 3), {(1, 2): 2}))
    ok, why = verify_clique_certificate(bad, clique(4), 3)
    assert not ok and "affine" in why


def test_verify_rejects_tensoriality_break():
    cert = k4_cert()
    t = cert.zeta[(1, 2)]
    # swap the two modes of a single image; marginals stay affine
    bad = tamper(cert, (1, 2), project(t, (2, 1)))
    ok, why = verify_clique_certificate(bad, clique(4), 3)
    assert not ok and ("tensoriality" in why or "edge" in why)


def test_verify_rejects_tie_support():
    cert = k4_cert()
    t = cert.zeta[(1, 2)]
    spoiled = IntTensor((3, 3), dict(t.entries) | {(1, 1): 1, (2, 3): t[(2, 3)] - 1})
    bad = tamper(cert, (1, 2), spoiled)
    ok, why = verify_clique_certificate(bad, clique(4), 3)
    assert not ok



def test_verify_rejects_support_that_does_not_refine():
    # constant images pass affinity, tensoriality and (no instance edges)
    # the edge step; only the refinement check can see the tie at x=(1, 2)
    x_graph = Digraph(2, frozenset())
    img = IntTensor((3, 3), {(1, 1): 1})
    cert = ZaffCertificate(
        2, x_graph, clique(3), {x: img for x in itertools.product((1, 2), repeat=2)}
    )
    assert verify_clique_certificate(cert, x_graph, 3) == (
        False,
        "nonzero entry at a=(1, 1) although a does not refine x=(1, 2)",
    )

def test_verify_rejects_instance_mismatch():
    cert = k4_cert()
    ok, why = verify_clique_certificate(cert, clique(3), 3)
    assert not ok and "mismatch" in why
    for x, a in ((clique(3), clique(3)), (clique(4), clique(4))):
        assert verify_zaff_certificate_general(cert, x, a) == (
            False, "certificate instance/template mismatch")


def test_verify_general_needs_edges():
    cert = k4_cert()
    ok, why = verify_zaff_certificate_general(cert, cert.instance, Digraph(3, frozenset()))
    assert not ok and "edge" in why


def test_verify_general_accepts_clique_certificates():
    cert = k4_cert()
    ok, why = verify_zaff_certificate_general(cert, clique(4), clique(3))
    assert ok, why


# -- rational maps and refinement -------------------------------------------


def test_uniform_qconv_map_masses():
    xi = uniform_qconv_map(clique(4), 3, 2)
    img = xi.xi[(1, 2)]
    # injective pairs: 6 of them, each with mass 1/6
    assert len(img) == 6 and all(m == Fraction(1, 6) for m in img.values())
    img = xi.xi[(1, 1)]
    assert len(img) == 3 and all(m == Fraction(1, 3) for m in img.values())
    assert sum(img.values()) == 1


def test_uniform_qconv_map_refusals():
    with pytest.raises(BadDimension, match="need k <= n, got k=3, n=2"):
        uniform_qconv_map(clique(4), 2, 3)
    with pytest.raises(NotAHomomorphism):
        uniform_qconv_map(Digraph(2, frozenset({(1, 1), (1, 2)})), 3, 2)


def test_check_refinement():
    cert = k4_cert()
    xi = uniform_qconv_map(clique(4), 3, 2)
    assert check_refinement(cert, xi)
    # shrink one image's support below the certificate's
    xi.xi[(1, 2)].pop(next(iter(cert.zeta[(1, 2)].entries)))
    assert not check_refinement(cert, xi)
    for n, k in ((4, 2), (3, 3)):
        with pytest.raises(DimensionMismatch):
            check_refinement(cert, uniform_qconv_map(clique(4), n, k))


# -- transports -------------------------------------------------------------


def test_homomorphism_transport_preserves_validity():
    cert = k4_cert()
    pushed = transform_certificate_homomorphism(cert, {1: 2, 2: 3, 3: 4}, clique(5))
    ok, why = verify_clique_certificate(pushed, clique(4), 5)
    assert ok, why
    with pytest.raises(NotAHomomorphism):
        transform_certificate_homomorphism(cert, {1: 1, 2: 1, 3: 3}, clique(5))


def test_homomorphism_transport_names_a_clique_target_without_building_one():
    cert = k4_cert()  # over K3
    identity = {1: 1, 2: 2, 3: 3}
    assert transform_certificate_homomorphism(cert, identity, clique(3)).template_clique == 3
    # K3's edges among 1,001 vertices: K_1001 is over the edge budget, so
    # it must not be built to see that the target is no clique
    big = Digraph(1001, clique(3).edges)
    pushed = transform_certificate_homomorphism(cert, identity, big)
    assert pushed.template == big and pushed.template_clique is None
    assert verify_zaff_certificate_general(pushed, clique(4), big) == (True, None)
    # p(p-1) edges with a loop among them
    looped = Digraph(2, frozenset({(1, 1), (1, 2)}))
    pushed = transform_certificate_homomorphism(cert, {1: 1, 2: 1, 3: 1}, looped)
    assert pushed.template_clique is None


def test_homomorphism_transport_rejects_map_leaving_target():
    # vertex 3 of the template is isolated, so only the range check can
    # catch its image lying outside the target
    template = Digraph(3, frozenset({(1, 2), (2, 1)}))
    img = IntTensor((3, 3), {(1, 2): 1})
    zeta = {x: img for x in [(1, 1), (1, 2), (2, 1), (2, 2)]}
    cert = ZaffCertificate(2, Digraph(2, frozenset()), template, zeta)
    with pytest.raises(NotAHomomorphism):
        transform_certificate_homomorphism(cert, {1: 1, 2: 2, 3: 99}, clique(3))


def test_line_digraph_transport():
    c = mine_hollow_shadowed_crystal(4, 5)
    cert4 = certificate_from_crystal(c, cycle(3), 4)
    cert2 = transform_certificate_line_digraph(cert4)
    dcyc, _ = line_digraph(cycle(3))
    dk10, _ = line_digraph(clique(10))
    assert cert2.k == 2
    assert cert2.instance == dcyc and cert2.template == dk10
    ok, why = verify_zaff_certificate_general(cert2, dcyc, dk10)
    assert ok, why


def test_line_digraph_transport_rejects_odd_level():
    cert = k4_cert()
    from crystalforge.crystal_mill import BadDimension

    bad = ZaffCertificate(
        1,
        cert.instance,
        cert.template,
        {(v,): project(cert.zeta[(v, v)], (1,)) for v in range(1, 5)},
    )
    with pytest.raises(BadDimension):
        transform_certificate_line_digraph(bad)


def test_line_digraph_transport_support_condition():
    # a level-2 certificate whose images put mass off the edge set of A
    # cannot be regrouped: every index pair must be a template edge
    import itertools

    from crystalforge.tensor_core import unit_tensor

    path = Digraph(3, frozenset({(1, 2), (2, 3)}))
    one_edge = Digraph(2, frozenset({(1, 2)}))
    zeta = {
        t: unit_tensor((3, 3), (1, 3))  # (1, 3) is not an edge of the path
        for t in itertools.product((1, 2), repeat=2)
    }
    cert = ZaffCertificate(2, one_edge, path, zeta)
    with pytest.raises(SupportConditionViolated):
        transform_certificate_line_digraph(cert)
    # moving the mass onto an actual edge makes the regrouping go through
    good = ZaffCertificate(
        2,
        one_edge,
        path,
        {t: unit_tensor((3, 3), (1, 2)) for t in itertools.product((1, 2), repeat=2)},
    )
    lowered = transform_certificate_line_digraph(good)
    assert lowered.k == 1
    assert lowered.zeta[(1,)] == unit_tensor((2,), (1,))


def test_line_digraph_transport_empty_template():
    import itertools

    from crystalforge.tensor_core import unit_tensor

    # the line digraph of a single edge has one vertex and no edges
    one_edge = Digraph(2, frozenset({(1, 2)}))
    zeta = {
        t: unit_tensor((2, 2), (1, 2)) for t in itertools.product((1, 2), repeat=2)
    }
    cert = ZaffCertificate(2, one_edge, one_edge, zeta)
    with pytest.raises(EmptyLineTemplate):
        transform_certificate_line_digraph(cert)


def test_line_digraph_transport_needs_instance_edges():
    import itertools

    from crystalforge.tensor_core import unit_tensor

    path = Digraph(3, frozenset({(1, 2), (2, 3)}))
    lonely = Digraph(1, frozenset())
    zeta = {(1, 1): unit_tensor((3, 3), (1, 2))}
    cert = ZaffCertificate(2, lonely, path, zeta)
    with pytest.raises(EmptyLineTemplate):
        transform_certificate_line_digraph(cert)


# -- JSON -------------------------------------------------------------------


def test_certificate_json_round_trip():
    cert = k4_cert()
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back == cert
    assert certificate_to_json(back) == text


def test_certificate_json_general_template():
    c = mine_hollow_shadowed_crystal(4, 5)
    cert2 = transform_certificate_line_digraph(certificate_from_crystal(c, cycle(3), 4))
    back = certificate_from_json(certificate_to_json(cert2))
    assert back == cert2 and back.template_clique is None


def test_certificate_json_malformed():
    with pytest.raises(TensorError):
        certificate_from_json("{}")
    with pytest.raises(TensorError):
        certificate_from_json("[1, 2]")


# -- tensoriality and edge vectors by generator maps -------------------------


def reference_edge_vector_exists(cert, y):
    """The edge check with a row family for every i in {0,1}^k and the
    normalisation row, over template-edge columns."""
    k = cert.k
    a_edges = cert.template.sorted_edges()
    rows = [(tuple((b, 1) for b in a_edges), 1)]
    for i in itertools.product((0, 1), repeat=k):
        img = cert.zeta[tuple(y[p] for p in i)]
        by_a = {}
        for b in a_edges:
            by_a.setdefault(tuple(b[p] for p in i), []).append((b, 1))
        for a in set(by_a) | set(img.entries):
            rows.append((tuple(by_a.get(a, ())), img.entries.get(a, 0)))
    return integer_feasible(rows) is not None


def reference_check_common(cert):
    """``_check_common`` with tensoriality checked for all k^k position maps
    and edge vectors for all i in {0,1}^k."""
    k = cert.k
    xs = list(itertools.product(range(1, cert.instance.vertex_count + 1), repeat=k))
    for x in xs:
        if not is_affine(cert.zeta[x]):
            return f"image at {x} is not affine (total {total(cert.zeta[x])})"
    for x in xs:
        t = cert.zeta[x]
        for i in itertools.product(range(k), repeat=k):
            xi = tuple(x[p] for p in i)
            if cert.zeta[xi] != project(t, tuple(p + 1 for p in i)):
                return f"tensoriality fails at x={x}, positions={tuple(p + 1 for p in i)}"
    for y in cert.instance.sorted_edges():
        if not reference_edge_vector_exists(cert, y):
            return f"no integer edge vector for instance edge {y}"
    return None


def verdict(reason):
    """None when the check passes, else which check failed."""
    return None if reason is None else reason.split()[0]


@st.composite
def perturbed_certificates(draw):
    """Level k in {2, 3}: zeta[x] = project(T, x) for a random affine T over
    n instance vertices (tensorial by construction), then up to three
    images changed by moving a unit of mass, transposing modes, copying
    another image, or projecting another affine tensor onto x (which keeps
    every permutation check at a tuple with repeated vertices)."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    w = draw(st.integers(2, 3))

    def affine_tensor():
        idx = st.tuples(*[st.integers(1, w)] * n)
        entries = draw(st.dictionaries(idx, st.integers(-2, 2), max_size=4))
        corner = (1,) * n
        entries[corner] = entries.get(corner, 0) + 1 - sum(entries.values())
        return IntTensor((w,) * n, entries)

    t = affine_tensor()
    xs = list(itertools.product(range(1, n + 1), repeat=k))
    zeta = {x: project(t, x) for x in xs}
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from(xs))
        kind = draw(st.sampled_from(["move", "transpose", "copy", "reproject"]))
        if kind == "move":
            src, dst = draw(st.tuples(*[st.integers(1, w)] * k)), draw(st.tuples(*[st.integers(1, w)] * k))
            moved = dict(zeta[x].entries)
            moved[src] = moved.get(src, 0) - 1
            moved[dst] = moved.get(dst, 0) + 1
            zeta[x] = IntTensor((w,) * k, moved)
        elif kind == "transpose":
            zeta[x] = project(zeta[x], draw(st.permutations(range(1, k + 1))))
        elif kind == "reproject":
            zeta[x] = project(affine_tensor(), x)
        else:
            zeta[x] = zeta[draw(st.sampled_from(xs))]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    instance = Digraph(n, frozenset(draw(st.sets(st.sampled_from(pairs)))))
    return ZaffCertificate(k, instance, clique(w), zeta, template_clique=w)


@settings(max_examples=150, deadline=None)
@given(perturbed_certificates())
def test_generator_tensoriality_matches_all_maps(cert):
    assert verdict(cd._check_common(cert)) == verdict(reference_check_common(cert))


def test_generator_tensoriality_on_mined_certificates():
    cert = k4_cert()
    assert cd._check_common(cert) is None and reference_check_common(cert) is None
    t = cert.zeta[(1, 2)]
    moved = dict(t.entries)
    a = sorted(moved)[0]
    moved[a] -= 1
    moved[(3, 3)] = moved.get((3, 3), 0) + 1  # still affine
    # the diagonal image, symmetric under the swap, breaks only the collapse
    diagonal = IntTensor((3, 3), {(2, 2): 1})
    for bad in (tamper(cert, (1, 2), project(t, (2, 1))), tamper(cert, (1, 2), IntTensor((3, 3), moved)),
                tamper(cert, (1, 1), diagonal)):
        assert verdict(cd._check_common(bad)) == verdict(reference_check_common(bad))
        assert verdict(cd._check_common(bad)) is not None


def projected_certificate(t, instance, template, k):
    """zeta[x] = project(t, x): affine and tensorial whenever t is affine."""
    xs = itertools.product(range(1, instance.vertex_count + 1), repeat=k)
    n = template.vertex_count
    clique_n = n if template == clique(n) else None
    return ZaffCertificate(k, instance, template, {x: project(t, x) for x in xs}, clique_n)


EDGE_ONLY_FAILURES = [
    # an instance edge's image with mass at (1, 1), not an edge of K3 (a
    # clique has no loops), at k = 2 and 3
    (IntTensor((3, 3), {(1, 1): 1}), clique(2), clique(3), 2),
    (IntTensor((3, 3), {(1, 1): 1}), clique(2), clique(3), 3),
    # mass 2 on an edge and -1 on the reversed pair, which the directed
    # 3-cycle lacks
    (IntTensor((3, 3), {(1, 2): 2, (2, 1): -1}), Digraph(2, frozenset({(1, 2)})), cycle(3), 2),
]


@pytest.mark.parametrize("t, instance, template, k", EDGE_ONLY_FAILURES)
def test_edge_step_alone_rejects(t, instance, template, k):
    cert = projected_certificate(t, instance, template, k)
    reason = "no integer edge vector for instance edge (1, 2)"
    assert reference_check_common(cert) == reason
    ok, why = verify_zaff_certificate_general(cert, instance, template)
    assert (ok, why) == (False, reason)
    if cert.template_clique is not None:
        ok, why = verify_clique_certificate(cert, instance, cert.template_clique)
        assert (ok, why) == (False, reason)


def test_mined_level_four_certificate_verifies():
    cert = certificate_from_crystal(mine_hollow_shadowed_crystal(4, 5), cycle(3), 4)
    assert reference_check_common(cert) is None
    ok, why = verify_clique_certificate(cert, cycle(3), cert.template_clique)
    assert ok, why
