import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import crystalforge.crystal_mill as cm
from crystalforge.certificate_desk import certificate_from_crystal
from crystalforge.digraph_lab import clique
from crystalforge.tensor_core import IntTensor, TensorError, dumps_st, project
from crystalforge.shadow_realiser import (
    NotRealistic,
    ShadowSystem,
    _realise,
    constant_system,
    increasing_tuples,
    is_realistic,
    realise,
    system_from_json,
    system_to_json,
    verify_realisation,
)
from recursive_miner import recursive_miner


def system_of(c, p):
    """Build the (p, shape)-system of projections of an explicit tensor."""
    q = c.dim
    return ShadowSystem(p, c.shape, {i: project(c, i) for i in increasing_tuples(q, p)})


def random_tensor(rng, shape, density=0.4, lo=-5, hi=5):
    entries = {}
    import itertools

    for idx in itertools.product(*(range(1, w + 1) for w in shape)):
        if rng.random() < density:
            entries[idx] = rng.randint(lo, hi)
    return IntTensor(shape, entries)


def test_increasing_tuples():
    assert increasing_tuples(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert increasing_tuples(3, 0) == [()]
    assert increasing_tuples(2, 3) == []


def test_system_validation():
    s = IntTensor((2,), {(1,): 1})
    with pytest.raises(TensorError):
        ShadowSystem(1, (2, 2), {(1,): s})  # missing key (2,)
    with pytest.raises(TensorError):
        ShadowSystem(1, (2, 3), {(1,): s, (2,): s})  # wrong shape at (2,)
    with pytest.raises(TensorError):
        ShadowSystem(3, (2, 2), {})  # p > q
    with pytest.raises(TensorError, match=r"^shadow keys wrong: 1 of the C\(2,1\) = 2 increasing "
                                          r"tuples missing, first missing=\(2,\), extra=\[\(3,\)\]$"):
        ShadowSystem(1, (2, 2), {(1,): s, (3,): s})
    with pytest.raises(TensorError, match=r"extra=\[\(1, 1\), \(2, 1\)\]$"):
        ShadowSystem(2, (2, 2), {(1, 2): project(s, (1, 1)), (1, 1): s, (2, 1): s})
    # the C(60,30) keys are counted, never listed
    n = math.comb(60, 30)
    with pytest.raises(TensorError, match=rf"^shadow keys wrong: {n} of the C\(60,30\) = {n} "):
        ShadowSystem(30, (1,) * 60, {})


def test_shadow_system_is_an_immutable_value():
    s, u = IntTensor((2,), {(1,): 1}), IntTensor((2,), {(2,): 1})
    shadows = {(1,): s, (2,): s}
    a = ShadowSystem(1, [2, 2], shadows)
    shadows.clear()  # the system keeps its own copy
    assert a.shape == (2, 2) and a.shadows == {(1,): s, (2,): s}
    assert a == ShadowSystem(p=1, shape=(2, 2), shadows={(2,): s, (1,): s})
    assert a != ShadowSystem(1, (2, 2), {(1,): s, (2,): u})
    with pytest.raises(TypeError):
        hash(a)  # its shadows are a dict
    with pytest.raises(AttributeError):
        a.p = 2
    with pytest.raises(AttributeError):
        del a.shadows


def test_realise_refuses_over_the_read_budget(monkeypatch):
    import crystalforge.shadow_realiser as sr
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3, (2, 1, 2): -1})
    sys = system_of(c, 2)  # 3 shadows of 2 entries
    # C(3,2) * (2+1) * (C(3,0) + C(3,1) + C(3,2)) = 3 * 3 * 7
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 63)
    assert verify_realisation(realise(sys), sys)
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 62)
    with pytest.raises(TensorError, match="^realising 3 shadows of dimension 2 and at most 2 "
                                          "entries on q = 3 modes takes 63 reads, over the "
                                          "budget of 62$"):
        realise(sys)
    # an unrealistic system is still a verified NO, and at p = q the
    # shadow comes back as it is, with no reads
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 0)
    s1, s2 = IntTensor((2,), {(1,): 1}), IntTensor((2,), {(1,): 2})
    with pytest.raises(NotRealistic):
        realise(ShadowSystem(1, (2, 2), {(1,): s1, (2,): s2}))
    assert realise(system_of(c, 3)) == c


def test_projection_systems_are_realistic():
    rng = random.Random(7)
    for _ in range(20):
        q = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 3) for _ in range(q))
        p = rng.randint(1, q)
        c = random_tensor(rng, shape)
        assert is_realistic(system_of(c, p)) == (True, None)


def test_unrealistic_system_reports_first_violation():
    # two 1-shadows with different totals can never come from one tensor
    s1 = IntTensor((2,), {(1,): 1})
    s2 = IntTensor((2,), {(1,): 2})
    sys = ShadowSystem(1, (2, 2), {(1,): s1, (2,): s2})
    ok, quad = is_realistic(sys)
    assert not ok
    assert quad == ((1,), (2,), (), ())
    with pytest.raises(NotRealistic) as exc:
        realise(sys)
    assert exc.value.quadruple == quad


def reference_is_realistic(sys):
    """The plain sweep over all quadruples (i, j, r, s) in lexicographic
    order; returns (ok, first violation)."""
    keys = increasing_tuples(len(sys.shape), sys.p)
    subsel = increasing_tuples(sys.p, sys.p - 1)
    for i in keys:
        for j in keys:
            for r in subsel:
                for s in subsel:
                    if tuple(i[x - 1] for x in r) != tuple(j[x - 1] for x in s):
                        continue
                    if project(sys.shadows[i], r) != project(sys.shadows[j], s):
                        return False, (i, j, r, s)
    return True, None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_realistic_matches_reference_sweep(data):
    # projection systems of a random tensor, then up to three single-cell
    # perturbations of random shadows (zero perturbations: realistic)
    q = data.draw(st.integers(1, 4))
    shape = tuple(data.draw(st.integers(1, 3)) for _ in range(q))
    p = data.draw(st.integers(1, q))
    entries = data.draw(
        st.dictionaries(
            st.tuples(*(st.integers(1, w) for w in shape)), st.integers(-3, 3), max_size=6
        )
    )
    shadows = dict(system_of(IntTensor(shape, entries), p).shadows)
    keys = sorted(shadows)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.sampled_from(keys))
        sh = shadows[i].shape
        idx = data.draw(st.tuples(*(st.integers(1, w) for w in sh)))
        delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
        shadows[i] = IntTensor(sh, {**shadows[i].entries, idx: shadows[i][idx] + delta})
    sys = ShadowSystem(p, shape, shadows)
    want = reference_is_realistic(sys)
    assert is_realistic(sys) == want


def test_realise_round_trip_randomized():
    # soundness: realising the projection system of c recovers *some* tensor
    # with the same projections (not necessarily c itself)
    rng = random.Random(20240817)
    for _ in range(30):
        q = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 4) for _ in range(q))
        p = rng.randint(1, q)
        c = random_tensor(rng, shape)
        sys = system_of(c, p)
        w = realise(sys)
        assert verify_realisation(w, sys)


def test_verify_realisation_refuses_a_tensor_of_another_shape():
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3})
    sys = system_of(c, 2)
    assert verify_realisation(c, sys)
    assert not verify_realisation(IntTensor((2, 2, 3), {(1, 2, 1): 3}), sys)


def test_realise_full_system_returns_the_tensor():
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3, (2, 2, 2): -1})
    sys = system_of(c, 3)
    assert realise(sys) == c


def test_realise_width_one_modes():
    # width-1 modes sit at their corner in every term of the sum
    c = IntTensor((3, 2, 1), {(1, 2, 1): 4, (3, 1, 1): -2})
    for p in (1, 2):
        sys = system_of(c, p)
        assert verify_realisation(realise(sys), sys)


def test_realise_is_deterministic():
    rng = random.Random(5)
    c = random_tensor(rng, (3, 3, 3))
    sys = system_of(c, 2)
    assert realise(sys) == realise(sys)


def test_constant_system_needs_cubical():
    with pytest.raises(TensorError):
        constant_system(IntTensor((2, 3), {}), 4)


def test_constant_system_realises_to_crystal():
    # any 0-crystal condition is vacuous for p=1, so every 1-d tensor works
    s = IntTensor((3,), {(1,): 2, (3,): -1})
    sys = constant_system(s, 3)
    w = realise(sys)
    for i in increasing_tuples(3, 1):
        assert project(w, i) == s


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_realise_property(data):
    q = data.draw(st.integers(2, 3))
    shape = tuple(data.draw(st.integers(1, 3)) for _ in range(q))
    p = data.draw(st.integers(1, q))
    import itertools

    entries = data.draw(
        st.dictionaries(
            st.tuples(*(st.integers(1, w) for w in shape)), st.integers(-4, 4), max_size=5
        )
    )
    c = IntTensor(shape, entries)
    sys = system_of(c, p)
    assert verify_realisation(realise(sys), sys)


# -- the closed form against the inductive construction ----------------------


def reference_realise(p, shape, shadows):
    """The inductive realiser the closed form replaced: nested induction on
    p and on the total width, peeling the last mode's final slice; a mode
    of width >= 2 is rotated into last position when the last one has
    width 1.  Takes the system's fields, p, shape and shadows."""

    def reflect(shadows, sel):
        key = tuple(sorted(sel))
        return project(shadows[key], tuple(key.index(m) + 1 for m in sel))

    def slice_last(t, coord):
        return IntTensor._raw(
            t.shape[:-1], {idx[:-1]: v for idx, v in t.entries.items() if idx[-1] == coord}
        )

    def truncate_last(t):
        w = t.shape[-1]
        return IntTensor._raw(
            t.shape[:-1] + (w - 1,), {idx: v for idx, v in t.entries.items() if idx[-1] < w}
        )

    def minus(t, u):
        out = dict(t.entries)
        for idx, v in u.entries.items():
            out[idx] = out.get(idx, 0) - v
        return IntTensor(t.shape, out)

    undo = []
    while True:
        q = len(shape)
        if p == q:
            c = shadows[tuple(range(1, q + 1))]
            break
        if all(w == 1 for w in shape):
            v = shadows[tuple(range(1, p + 1))].entries.get((1,) * p, 0)
            c = IntTensor._raw(shape, {(1,) * q: v} if v else {})
            break
        if shape[-1] < 2:
            t = max(m for m in range(1, q + 1) if shape[m - 1] >= 2)
            perm = list(range(1, q + 1))
            perm[t - 1], perm[q - 1] = perm[q - 1], perm[t - 1]
            perm = tuple(perm)
            shape = tuple(shape[perm[m] - 1] for m in range(q))
            shadows = {
                i: reflect(shadows, tuple(perm[m - 1] for m in i))
                for i in increasing_tuples(q, p)
            }
            undo.append(("rotate", perm))
            continue
        nq = shape[-1]
        if p == 1:
            ell = shadows[(q,)].entries.get((nq,), 0)
            new_shadows = {}
            for m in range(1, q):
                at = (shape[m - 1],)
                new_shadows[(m,)] = minus(shadows[(m,)], IntTensor(shadows[(m,)].shape, {at: ell}))
            new_shadows[(q,)] = truncate_last(shadows[(q,)])
            undo.append(("place", shape, {shape: ell} if ell else {}))
            shape, shadows = shape[:-1] + (nq - 1,), new_shadows
            continue
        hat = {i: slice_last(shadows[i + (q,)], nq) for i in increasing_tuples(q - 1, p - 1)}
        chat = reference_realise(p - 1, shape[:-1], hat)
        til = {}
        for i in increasing_tuples(q, p):
            if i[-1] == q:
                til[i] = truncate_last(shadows[i])
            else:
                til[i] = minus(shadows[i], project(chat, i))
        undo.append(("place", shape, {idx + (nq,): v for idx, v in chat.entries.items()}))
        shape, shadows = shape[:-1] + (nq - 1,), til

    for step in reversed(undo):
        if step[0] == "rotate":
            c = project(c, step[1])
        else:
            _, full_shape, cells = step
            out = dict(c.entries)
            out.update(cells)
            c = IntTensor._raw(full_shape, out)
    return c


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_form_realises_every_p(data):
    # projection systems of random tensors (so realistic), widths 1-3
    q = data.draw(st.integers(1, 6))
    shape = tuple(data.draw(st.integers(1, 3)) for _ in range(q))
    entries = data.draw(
        st.dictionaries(
            st.tuples(*(st.integers(1, w) for w in shape)), st.integers(-4, 4), max_size=8
        )
    )
    c = IntTensor(shape, entries)
    for p in range(1, q + 1):
        sys = system_of(c, p)
        w = realise(sys)
        assert verify_realisation(w, sys)
        # every entry is off the corner in at most p coordinates
        for idx in w.entries:
            assert sum(x != n for x, n in zip(idx, shape)) <= p
        if p == q:
            assert w == c


def test_miner_output_is_the_same_under_either_realiser(monkeypatch):
    # the recursive construction realises constant systems through
    # crystalise; with the reference realiser in its place it must still
    # give the closed form byte for byte
    closed = [dumps_st(cm.mine_hollow_crystal(k)) for k in range(1, 6)]
    calls = []

    def reference(sys):
        calls.append(sys.p)
        return reference_realise(sys.p, sys.shape, sys.shadows)

    monkeypatch.setattr(cm, "_realise", reference)
    assert [dumps_st(recursive_miner(k)) for k in range(1, 6)] == closed
    assert sorted(set(calls)) == [1, 2, 3, 4]


def test_certificate_zeta_is_the_same_from_either_realisation():
    # the two realisations of the same constant system differ as tensors,
    # but every projection a certificate takes is fixed by the shadows
    s = cm.mine_hollow_crystal(3)
    sys = constant_system(s, 5)
    mine = _realise(sys)
    ref = reference_realise(sys.p, sys.shape, sys.shadows)
    assert mine != ref
    assert verify_realisation(ref, sys) and verify_realisation(mine, sys)
    assert mine == cm.crystalise(s, 5)
    for k, n in ((3, 5), (2, 4)):
        a = certificate_from_crystal(mine, clique(n), k)
        b = certificate_from_crystal(ref, clique(n), k)
        assert a.zeta == b.zeta


def test_wrong_realisation_is_caught_before_it_is_returned(monkeypatch):
    import crystalforge.shadow_realiser as sr

    u = cm.mine_hollow_crystal(2)
    # a wrong coefficient in the sum must not reach the caller
    real = sr._coefficient
    monkeypatch.setattr(sr, "_coefficient", lambda q, p, t: 2 * real(q, p, t))
    with pytest.raises(AssertionError):
        realise(system_of(IntTensor((2, 2, 2), {(1, 2, 1): 3}), 2))
    with pytest.raises(AssertionError):
        cm.crystalise(u, 3)


def test_json_round_trip(tmp_path):
    rng = random.Random(3)
    c = random_tensor(rng, (2, 3, 2))
    sys = system_of(c, 2)
    text = system_to_json(sys)
    back = system_from_json(text)
    assert back == sys


def test_json_external_st_files(tmp_path):
    import json

    c = IntTensor((2, 2), {(1, 2): 1})
    sys = system_of(c, 1)
    doc = {"p": 1, "widths": [2, 2], "shadows": []}
    for i in increasing_tuples(2, 1):
        name = f"s{i[0]}.st"
        (tmp_path / name).write_text(dumps_st(sys.shadows[i]))
        doc["shadows"].append({"axes": list(i), "tensor": name})
    back = system_from_json(json.dumps(doc), base_dir=str(tmp_path))
    assert back == sys


def test_json_malformed():
    with pytest.raises(TensorError):
        system_from_json("{\"p\": 1}")


@pytest.mark.parametrize("name", ["missing.st", "."], ids=["missing", "directory"])
def test_json_unreadable_tensor_file_is_a_format_error(tmp_path, name):
    import json

    doc = {"p": 1, "widths": [2], "shadows": [{"axes": [1], "tensor": name}]}
    with pytest.raises(TensorError, match="bad shadow-system JSON"):
        system_from_json(json.dumps(doc), base_dir=str(tmp_path))


def test_json_repeated_axes_is_a_format_error():
    import json

    doc = {
        "p": 1,
        "widths": [2],
        "shadows": [
            {"axes": [1], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n1 1\n"},
            {"axes": [1], "tensor": "st 1\ndims 1\nwidths 2\nentries 1\n2 1\n"},
        ],
    }
    with pytest.raises(TensorError, match=r"duplicate shadow for axes \(1,\)"):
        system_from_json(json.dumps(doc))


# a number that is not a JSON integer, in each place a shadow system has
# one; int() would read 1.9 as 1, 2.5 as 2, "2" as 2 and true as 1
SHADOW_NOT_JSON_INTS = {
    "p-float": ({"p": 1.9}, "1.9"),
    "p-bool": ({"p": True}, "true"),
    "width-float": ({"widths": [2, 2.5]}, "2.5"),
    "width-integral-float": ({"widths": [2.0, 2]}, "2.0"),
    "width-string": ({"widths": ["2", 2]}, '"2"'),
    "axis-string": ({"axes": ["2"]}, '"2"'),
    "axis-bool": ({"axes": [True]}, "true"),
}


@pytest.mark.parametrize("change, got", SHADOW_NOT_JSON_INTS.values(),
                         ids=list(SHADOW_NOT_JSON_INTS))
def test_json_refuses_a_number_that_is_not_an_integer(change, got):
    import json

    doc = json.loads(system_to_json(system_of(IntTensor((2, 2), {(1, 2): 1}), 1)))
    axes = change.pop("axes", None)
    doc.update(change)
    if axes is not None:
        doc["shadows"][1]["axes"] = axes
    with pytest.raises(TensorError) as info:
        system_from_json(json.dumps(doc))
    assert str(info.value) == f"bad shadow-system JSON: expected an integer, got {got}"


# a repeated key (``json.loads`` kept the last) or a key the format does
# not have (it was ignored), at the top level and in a shadow
SHADOW_KEY_FAULTS = {
    "repeated-p": (lambda t: t.replace('"p": 1,', '"p": 2, "p": 1,', 1), 'key "p" appears twice'),
    "repeated-axes": (lambda t: t.replace('"axes": [2],', '"axes": [1], "axes": [2],', 1),
                      'key "axes" appears twice'),
    "other-key": (lambda t: t.replace('"p": 1,', '"typo": 3, "p": 1,', 1), 'unexpected key "typo"'),
    "other-shadow-key": (lambda t: t.replace('"axes": [2],', '"axes": [2], "note": "x",', 1),
                         'unexpected key "note"'),
}


@pytest.mark.parametrize("edit, reason", SHADOW_KEY_FAULTS.values(), ids=list(SHADOW_KEY_FAULTS))
def test_json_refuses_a_repeated_or_unknown_key(edit, reason):
    import json

    text = json.dumps(json.loads(system_to_json(system_of(IntTensor((2, 2), {(1, 2): 1}), 1))))
    assert system_from_json(text) == system_of(IntTensor((2, 2), {(1, 2): 1}), 1)
    with pytest.raises(TensorError) as info:
        system_from_json(edit(text))
    assert str(info.value) == f"bad shadow-system JSON: {reason}"


@pytest.mark.parametrize("widths", [(2.0, True), (2, 2.0), (True, 2)],
                         ids=["float-and-bool", "float", "bool"])
def test_shadow_system_refuses_a_width_that_is_not_an_int(widths):
    # 2.0 == 2 and True == 1, so the shadow shapes matched them, and
    # realise wrote "widths 2.0 True", which loads_st refuses
    ints = tuple(map(int, widths))
    shadows = {(m,): IntTensor((w,), {(1,): 1}) for m, w in enumerate(ints, start=1)}
    assert ShadowSystem(1, ints, shadows).shape == ints
    with pytest.raises(TensorError) as info:
        ShadowSystem(1, widths, shadows)
    assert str(info.value) == f"widths must be integers, got {widths}"


@pytest.mark.parametrize("p", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_shadow_system_refuses_a_p_that_is_not_an_int(p):
    shadows = {(1,): IntTensor((2,), {(1,): 1}), (2,): IntTensor((2,), {(2,): 1})}
    assert ShadowSystem(1, (2, 2), shadows).p == 1
    with pytest.raises(TensorError) as info:
        ShadowSystem(p, (2, 2), shadows)
    assert str(info.value) == f"p must be an integer, got {p!r}"
