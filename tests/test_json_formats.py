"""Property tests of the shadow-system, certificate and push-hom JSON
formats, as ``test_digraph_lab`` has for digraph JSON.

A random valid object ``x`` satisfies ``loads(dumps(x)) == x``, and its
text ``s = dumps(x)`` satisfies ``dumps(loads(s)) == s``.  A payload with
one fault (``json_faults.mutated``) is refused by the loader as a format
error, and the CLI verb that reads it exits 2, never 3; a push-hom map
whose fault is a stray vertex number loads, and ``push-hom`` refuses it.
The push-hom map is written as the ``hom`` verb writes it
(``hom_to_json``).
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st
from json_faults import mutated
from test_digraph_lab import digraphs

from crystalforge.certificate_desk import (
    ZaffCertificate,
    certificate_from_json,
    certificate_to_json,
    homomorphism_from_json,
)
from crystalforge.cli import run
from crystalforge.digraph_lab import clique, digraph_to_json
from crystalforge.shadow_realiser import (
    ShadowSystem,
    increasing_tuples,
    system_from_json,
    system_to_json,
)
from crystalforge.tensor_core import IntTensor, TensorError


def tensors(widths):
    """Tensors of the given widths with at most three entries in [-3, 3]."""
    cells = list(itertools.product(*(range(1, w + 1) for w in widths)))
    return st.dictionaries(st.sampled_from(cells), st.integers(-3, 3), max_size=3).map(
        lambda entries: IntTensor(widths, entries))


@st.composite
def shadow_systems(draw):
    """Systems of 1-3 modes of widths 1-3, shadows not necessarily
    compatible."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    p = draw(st.integers(1, len(shape)))
    return ShadowSystem(p, shape, {
        i: draw(tensors(tuple(shape[m - 1] for m in i))) for i in increasing_tuples(len(shape), p)
    })


@st.composite
def certificates(draw):
    """Level 1-2 certificates over an instance of 1-3 vertices, against K_n
    (n <= 3) or a digraph of 1-3 vertices, images not necessarily valid."""
    k = draw(st.integers(1, 2))
    instance = draw(digraphs().filter(lambda g: g.vertex_count <= 3))
    n = draw(st.none() | st.integers(1, 3))
    template = clique(n) if n is not None else draw(digraphs().filter(lambda g: g.vertex_count <= 3))
    m = template.vertex_count
    zeta = {x: draw(tensors((m,) * k))
            for x in itertools.product(range(1, instance.vertex_count + 1), repeat=k)}
    return ZaffCertificate(k, instance, template, zeta, template_clique=n)


def hom_to_json(f: dict) -> str:
    """A vertex map as the ``hom`` verb writes it."""
    return json.dumps({str(v): f[v] for v in sorted(f)}) + "\n"


vertex_maps = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(1, 4), min_size=n, max_size=n)).map(
    lambda images: dict(enumerate(images, start=1)))


@settings(max_examples=40, deadline=None)
@given(shadow_systems())
def test_shadow_system_json_round_trips(sys):
    text = system_to_json(sys)
    assert system_from_json(text) == sys
    assert system_to_json(system_from_json(text)) == text


@settings(max_examples=40, deadline=None)
@given(certificates())
def test_certificate_json_round_trips(cert):
    text = certificate_to_json(cert)
    assert certificate_from_json(text) == cert
    assert certificate_to_json(certificate_from_json(text)) == text


@settings(max_examples=40, deadline=None)
@given(vertex_maps)
def test_push_hom_json_round_trips(f):
    text = hom_to_json(f)
    assert homomorphism_from_json(text) == f
    assert hom_to_json(homomorphism_from_json(text)) == text


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding K3 and a level-2 certificate for K2 -> K3."""
    path = tmp_path_factory.mktemp("json-formats")
    (path / "k3.json").write_text(digraph_to_json(clique(3)), encoding="utf-8")
    cert = ZaffCertificate(2, clique(2), clique(3), {
        x: IntTensor((3, 3), {(1, 2): 1}) for x in itertools.product((1, 2), repeat=2)
    }, template_clique=3)
    (path / "cert.json").write_text(certificate_to_json(cert), encoding="utf-8")
    return path


def exit_code(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    assert code != 3, err.getvalue()
    return code


def test_the_push_hom_writer_is_the_hom_verbs_and_its_maps_push(work):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["hom", str(work / "k3.json"), str(work / "k3.json")]) == 0
    assert out.getvalue() == hom_to_json(homomorphism_from_json(out.getvalue()))
    (work / "map.json").write_text(out.getvalue(), encoding="utf-8")
    assert exit_code(["cert", "push-hom", work / "cert.json", work / "map.json", work / "k3.json"]) == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_shadow_system_json_exits_2_and_never_3(work, data):
    text = data.draw(mutated(json.loads(system_to_json(data.draw(shadow_systems())))))
    with pytest.raises(TensorError, match="^bad shadow-system JSON: "):
        system_from_json(text)
    (work / "system.json").write_text(text, encoding="utf-8")
    assert exit_code(["shadows", "check", work / "system.json"]) == 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_certificate_json_exits_2_and_never_3(work, data):
    text = data.draw(mutated(json.loads(certificate_to_json(data.draw(certificates())))))
    with pytest.raises(TensorError, match="^bad certificate JSON: "):
        certificate_from_json(text)
    (work / "mutated.json").write_text(text, encoding="utf-8")
    assert exit_code(["cert", "verify", work / "mutated.json"]) == 2


def key_spellings(u: str):
    """A vertex-number key spelled another way: with a sign, a leading
    zero, a fraction part or a space."""
    return st.sampled_from([f"+{u}", f"0{u}", f"-0{u}", f"{u}.0", f" {u}"])


@st.composite
def mutated_maps(draw):
    """A map of K3 onto itself with one fault: a value spelled another way,
    a key spelled another way, a repeated key or an unknown key."""
    f = dict(enumerate(draw(st.permutations([1, 2, 3])), start=1))
    doc = json.loads(hom_to_json(f))
    if draw(st.booleans()):
        return draw(mutated(doc))
    u = draw(st.sampled_from(sorted(doc)))
    doc[draw(key_spellings(u))] = doc.pop(u)
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(text=mutated_maps())
def test_a_mutated_push_hom_json_exits_2_and_never_3(work, text):
    # an unknown key that is a vertex number loads, and ``push-hom``
    # refuses it as no template vertex
    (work / "map.json").write_text(text, encoding="utf-8")
    assert exit_code(["cert", "push-hom", work / "cert.json", work / "map.json", work / "k3.json"]) == 2
