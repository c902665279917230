import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystalforge import certificate_desk as cd
from crystalforge import crystal_mill as cm
from crystalforge.tensor_core import IntTensor, TensorError, is_affine, project, total
from crystalforge.crystal_mill import mine_hollow_shadowed_crystal
from crystalforge.digraph_lab import Digraph, clique, digraph_to_json, line_digraph
from crystalforge.relaxation_engine import integer_feasible
from crystalforge.certificate_desk import (
    ZaffCertificate,
    certificate_from_crystal,
    certificate_from_json,
    certificate_to_json,
    homomorphism_from_json,
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
    with pytest.raises(TensorError, match="^crystal has 2 modes; needs at least 4$"):
        certificate_from_crystal(mine_hollow_shadowed_crystal(2, 2), clique(4), 2)
    with pytest.raises(TensorError, match="^crystal entries must sum to 1$"):
        certificate_from_crystal(IntTensor(c.shape, {i: 2 * v for i, v in c.entries.items()}),
                                 clique(4), 2)
    with pytest.raises(TensorError, match="^instance digraph must be loopless$"):
        certificate_from_crystal(c, Digraph(2, frozenset({(1, 1)})), 2)


def test_from_crystal_rejects_level_below_two():
    # the verifiers refuse k < 2, so such a certificate could only be
    # written to be answered NO
    c = mine_hollow_shadowed_crystal(2, 4)
    for k in (0, 1, -1):
        with pytest.raises(TensorError, match=f"^certificate level must be >= 2, got k={k}$"):
            certificate_from_crystal(c, clique(4), k)


def test_from_crystal_rejects_a_non_crystal_and_a_tied_shadow():
    # one entry at (1, 2, 3): affine, but its 2-projections differ; the
    # words are crystal_mill.shadow's
    with pytest.raises(TensorError,
                       match=r"^not a 2-crystal; projections differ at \(\(1, 2\), \(1, 3\)\)$"):
        certificate_from_crystal(IntTensor((3, 3, 3), {(1, 2, 3): 1}), clique(3), 2)
    # one entry at (1, 1, 1): a 2-crystal whose shadow is tied at (1, 1)
    with pytest.raises(TensorError, match="^the k-shadow has a tie$"):
        certificate_from_crystal(IntTensor((1, 1, 1), {(1, 1, 1): 1}), clique(3), 2)


def test_from_crystal_refuses_over_the_crystal_check_budget(monkeypatch):
    # C(q,k) * (nnz * (1 + k // 4) + 25) reads: an entry weighs 1 at k = 2
    # and 2 at k = 4
    for c, x, k, w in ((mine_hollow_shadowed_crystal(2, 4), clique(4), 2, 1),
                       (mine_hollow_shadowed_crystal(4, 5), cycle(3), 4, 2)):
        n, q = len(c.entries), c.dim
        reads = math.comb(q, k) * (n * w + 25)
        want = certificate_from_crystal(c, x, k)
        monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads)
        assert certificate_from_crystal(c, x, k) == want
        monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads - 1)

        def unreached(*args):
            raise AssertionError("is_crystal ran on a tensor over the budget")

        monkeypatch.setattr(cm, "is_crystal", unreached)
        with pytest.raises(TensorError, match=rf"^checking the {k}-projections of {n} entries "
                                              rf"in q = {q} modes takes C\({q},{k}\)\*\({n}\*{w}"
                                              rf"\+25\) = {reads} reads, "
                                              rf"over the budget of {reads - 1}$"):
            certificate_from_crystal(c, x, k)
        monkeypatch.undo()


def test_certificate_totality_enforced():
    cert = k4_cert()
    zeta = dict(cert.zeta)
    zeta.pop((1, 1))
    with pytest.raises(TensorError, match="^zeta must be total over instance vertex k-tuples$"):
        ZaffCertificate(2, cert.instance, cert.template, zeta)


def test_certificate_is_an_immutable_value():
    zeta = {(v,): IntTensor((2,), {(v,): 1}) for v in (1, 2)}
    cert = ZaffCertificate(1, clique(2), clique(2), zeta)
    assert cert.template_clique == 2
    assert cert == ZaffCertificate(k=1, instance=clique(2), template=clique(2), zeta=dict(zeta))
    assert ZaffCertificate.__slots__ == ("k", "instance", "template", "zeta")
    zeta.clear()  # the certificate keeps its own copy
    assert len(cert.zeta) == 2
    with pytest.raises(TypeError):
        hash(cert)  # zeta is a dict
    with pytest.raises(AttributeError):
        cert.k = 2
    with pytest.raises(AttributeError):
        del cert.zeta
    with pytest.raises(AttributeError):
        cert.template_clique = 3


# -- verification failures --------------------------------------------------


def tamper(cert, x, tensor):
    zeta = dict(cert.zeta)
    zeta[x] = tensor
    return ZaffCertificate(cert.k, cert.instance, cert.template, zeta)


def test_certificate_image_shape_enforced():
    cert = k4_cert()
    with pytest.raises(TensorError,
                       match=r"^image at \(1, 2\) has shape \(2, 2\), expected \(3, 3\)$"):
        tamper(cert, (1, 2), IntTensor((2, 2), {(1, 2): 1}))


def test_verifiers_refuse_a_level_out_of_range():
    # a well-formed level-1 certificate K2 -> K2 (the identity map)
    zeta = {(v,): IntTensor((2,), {(v,): 1}) for v in (1, 2)}
    cert = ZaffCertificate(1, clique(2), clique(2), zeta)
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


def test_clique_verifier_refuses_a_template_that_is_not_that_clique():
    cert = k4_cert()  # over K3
    mismatch = (False, "certificate instance/template mismatch")
    assert verify_clique_certificate(cert, clique(4), 4) == mismatch
    # the same images over K3 less an edge
    less = ZaffCertificate(2, cert.instance, Digraph(3, clique(3).edges - {(1, 2)}), cert.zeta)
    assert verify_clique_certificate(less, clique(4), 3) == mismatch


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
    with pytest.raises(TensorError, match="^need k <= n, got k=3, n=2$"):
        uniform_qconv_map(clique(4), 2, 3)
    with pytest.raises(TensorError, match="^instance digraph must be loopless$"):
        uniform_qconv_map(Digraph(2, frozenset({(1, 1), (1, 2)})), 3, 2)


def test_check_refinement():
    cert = k4_cert()
    xi = uniform_qconv_map(clique(4), 3, 2)
    assert check_refinement(cert, xi)
    # shrink one image's support below the certificate's
    xi.xi[(1, 2)].pop(next(iter(cert.zeta[(1, 2)].entries)))
    assert not check_refinement(cert, xi)
    for n, k in ((4, 2), (3, 3)):
        with pytest.raises(TensorError, match="^certificate and rational map disagree on k or n$"):
            check_refinement(cert, uniform_qconv_map(clique(4), n, k))


# -- transports -------------------------------------------------------------


def test_homomorphism_transport_preserves_validity():
    cert = k4_cert()
    pushed = transform_certificate_homomorphism(cert, {1: 2, 2: 3, 3: 4}, clique(5))
    ok, why = verify_clique_certificate(pushed, clique(4), 5)
    assert ok, why
    with pytest.raises(TensorError, match="^f is not a homomorphism between the templates$"):
        transform_certificate_homomorphism(cert, {1: 1, 2: 1, 3: 3}, clique(5))


@pytest.mark.parametrize("f, message", [
    ({1: 1, 2: 2.0, 3: 3}, r"^f must map vertex numbers to vertex numbers, got 2: 2\.0$"),
    ({1.0: 1, 2: 2, 3: 3}, r"^f must map vertex numbers to vertex numbers, got 1\.0: 1$"),
    ({1: 1, 2: 2, 3: True}, r"^f must map vertex numbers to vertex numbers, got 3: True$"),
    ({1: 1, 2: 2, 3: 3, 4: 9}, r"^f maps 4, which is not a template vertex \(1\.\.3\)$"),
    ({-1: 0, 1: 1, 2: 2, 3: 3}, r"^f maps -1, which is not a template vertex \(1\.\.3\)$"),
    # a missing vertex is no homomorphism, as before
    ({1: 1, 2: 2}, r"^f is not a homomorphism between the templates$"),
])
def test_homomorphism_transport_refuses_a_map_that_is_not_of_the_template_vertices(f, message):
    cert = k4_cert()  # over K3
    with pytest.raises(TensorError, match=message):
        transform_certificate_homomorphism(cert, f, clique(4))


def test_homomorphism_json_refuses_a_repeated_key():
    with pytest.raises(TensorError, match=r'^bad homomorphism JSON \(want an object of vertex '
                                          r'pairs\): key "2" appears twice$'):
        homomorphism_from_json('{"1": 1, "2": 2, "3": 3, "2": 3}')


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
    with pytest.raises(TensorError, match="^f is not a homomorphism between the templates$"):
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
    bad = ZaffCertificate(
        1,
        cert.instance,
        cert.template,
        {(v,): project(cert.zeta[(v, v)], (1,)) for v in range(1, 5)},
    )
    with pytest.raises(TensorError, match="^certificate level must be even and >= 2$"):
        transform_certificate_line_digraph(bad)


def test_line_digraph_transport_support_condition():
    # a level-2 certificate whose images put mass off the edge set of A
    # cannot be regrouped: every index pair must be a template edge
    import itertools

    path = Digraph(3, frozenset({(1, 2), (2, 3)}))
    one_edge = Digraph(2, frozenset({(1, 2)}))
    zeta = {
        t: IntTensor((3, 3), {(1, 3): 1})  # (1, 3) is not an edge of the path
        for t in itertools.product((1, 2), repeat=2)
    }
    cert = ZaffCertificate(2, one_edge, path, zeta)
    with pytest.raises(TensorError, match=r"^image of \(1, 2\) has mass at \(1, 3\), whose "
                                          r"pair \(1, 3\) is not a template edge$"):
        transform_certificate_line_digraph(cert)
    # moving the mass onto an actual edge makes the regrouping go through
    good = ZaffCertificate(
        2,
        one_edge,
        path,
        {t: IntTensor((3, 3), {(1, 2): 1}) for t in itertools.product((1, 2), repeat=2)},
    )
    lowered = transform_certificate_line_digraph(good)
    assert lowered.k == 1
    assert lowered.zeta[(1,)] == IntTensor((2,), {(1,): 1})


def test_line_digraph_transport_empty_template():
    import itertools

    # the line digraph of a single edge has one vertex and no edges
    one_edge = Digraph(2, frozenset({(1, 2)}))
    zeta = {
        t: IntTensor((2, 2), {(1, 2): 1}) for t in itertools.product((1, 2), repeat=2)
    }
    cert = ZaffCertificate(2, one_edge, one_edge, zeta)
    with pytest.raises(TensorError, match="^the template's line digraph has no edges$"):
        transform_certificate_line_digraph(cert)


def test_line_digraph_transport_needs_instance_edges():
    import itertools

    path = Digraph(3, frozenset({(1, 2), (2, 3)}))
    lonely = Digraph(1, frozenset())
    zeta = {(1, 1): IntTensor((3, 3), {(1, 2): 1})}
    cert = ZaffCertificate(2, lonely, path, zeta)
    with pytest.raises(TensorError,
                       match="^the instance's line digraph has no labelled vertices$"):
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
    doc = json.loads(certificate_to_json(cert2))
    assert doc["template"] == json.loads(digraph_to_json(cert2.template))


@pytest.mark.parametrize("template, n", [
    (Digraph(3, frozenset((u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v)), 3),
    (Digraph(1, frozenset()), 1),
    (Digraph(3, clique(3).edges - {(1, 2)}), None),
    (Digraph(2, frozenset({(1, 1), (1, 2)})), None),  # 2*1 edges, one of them a loop
], ids=["K3-listed", "K1", "K3-less-an-edge", "looped"])
def test_a_clique_template_is_read_off_the_template_and_written_as_a_clique(template, n):
    zeta = {(v,): IntTensor((template.vertex_count,), {(1,): 1}) for v in (1, 2)}
    cert = ZaffCertificate(1, clique(2), template, zeta)
    assert cert.template_clique == n
    text = certificate_to_json(cert)
    want = {"clique": n} if n is not None else json.loads(digraph_to_json(template))
    assert json.loads(text)["template"] == want
    assert certificate_from_json(text) == cert


def test_certificate_json_malformed():
    with pytest.raises(TensorError):
        certificate_from_json("{}")
    with pytest.raises(TensorError):
        certificate_from_json("[1, 2]")


@pytest.mark.parametrize("field", ["k", "clique", "x", "instance"])
@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"], ids=["integral-float", "float", "bool", "string"])
def test_certificate_json_refuses_a_number_that_is_not_an_integer(field, value):
    doc = json.loads(certificate_to_json(k4_cert()))
    if field == "k":
        doc["k"] = value
    elif field == "clique":
        doc["template"]["clique"] = value
    elif field == "x":
        doc["zeta"][0]["x"][0] = value
    else:
        doc["instance"]["edges"][0][1] = value
    with pytest.raises(TensorError, match="bad certificate JSON: .*expected an integer, got "):
        certificate_from_json(json.dumps(doc))


def test_certificate_json_names_the_fault_of_a_nested_digraph():
    doc = json.loads(certificate_to_json(k4_cert()))
    doc["instance"]["edges"][0][1] = 2.5
    with pytest.raises(TensorError) as info:
        certificate_from_json(json.dumps(doc))
    assert str(info.value) == "bad certificate JSON: bad digraph JSON: expected an integer, got 2.5"


# a repeated key (``json.loads`` kept the last) or a key the format does
# not have (it was ignored): at the top level, in a zeta entry and in a
# nested digraph
CERT_KEY_FAULTS = {
    "repeated-k": (lambda t: t.replace('"k": 2,', '"k": 3, "k": 2,', 1), 'key "k" appears twice'),
    "repeated-x": (lambda t: t.replace('"x": [1, 1],', '"x": [1, 1], "x": [1, 1],', 1),
                   'key "x" appears twice'),
    "repeated-vertices": (lambda t: t.replace('"vertices": 4,', '"vertices": 9, "vertices": 4,', 1),
                          'key "vertices" appears twice'),
    "other-key": (lambda t: t.replace('"k": 2,', '"k": 2, "extra": 0,', 1), 'unexpected key "extra"'),
    "other-zeta-key": (lambda t: t.replace('"x": [1, 1],', '"x": [1, 1], "note": "x",', 1),
                       'unexpected key "note"'),
}


@pytest.mark.parametrize("edit, reason", CERT_KEY_FAULTS.values(), ids=list(CERT_KEY_FAULTS))
def test_certificate_json_refuses_a_repeated_or_unknown_key(edit, reason):
    text = json.dumps(json.loads(certificate_to_json(k4_cert())))
    assert certificate_from_json(text) == k4_cert()
    with pytest.raises(TensorError) as info:
        certificate_from_json(edit(text))
    assert str(info.value) == f"bad certificate JSON: {reason}"


@pytest.mark.parametrize("k", [2.0, True], ids=["k-float", "k-bool"])
def test_certificate_refuses_a_level_or_clique_that_is_not_an_int(k):
    # the clique size is read off the template, so only the level is given
    cert = k4_cert()
    assert cd.ZaffCertificate(2, cert.instance, cert.template, cert.zeta) == cert
    with pytest.raises(TensorError) as info:
        cd.ZaffCertificate(k, cert.instance, cert.template, cert.zeta)
    assert str(info.value) == f"k must be an integer, got k={k!r}"


def test_homomorphism_json_reads_canonical_vertex_numbers():
    assert homomorphism_from_json('{"1": 2, "10": 3, "-1": 0}') == {1: 2, 10: 3, -1: 0}
    assert homomorphism_from_json("{}") == {}
    for text in ('{"1 ": 2}', '{"01": 2}', '{"1": 2.0}', '{"1": null}', "[[1, 2]]", "{"):
        with pytest.raises(TensorError, match=r"^bad homomorphism JSON \(want an object"):
            homomorphism_from_json(text)


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
    return ZaffCertificate(k, instance, clique(w), zeta)


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
    return ZaffCertificate(k, instance, template, {x: project(t, x) for x in xs})


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
