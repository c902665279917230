import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalforge.tensor_core import IntTensor, TensorError, add, project
from crystalforge.shadow_realiser import (
    NotRealistic,
    ShadowSystem,
    constant_system,
    increasing_tuples,
    is_realistic,
    realise,
    system_from_json,
    system_to_json,
    verify_realisation,
)


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


def test_shadow_at_reflects():
    c = IntTensor((2, 3), {(1, 2): 5, (2, 3): 1})
    sys = system_of(c, 2)
    assert sys.shadow_at((1, 2)) == c
    assert sys.shadow_at((2, 1)) == project(c, (2, 1))


def test_projection_systems_are_realistic():
    rng = random.Random(7)
    for _ in range(20):
        q = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 3) for _ in range(q))
        p = rng.randint(1, q)
        c = random_tensor(rng, shape)
        assert is_realistic(system_of(c, p))


def test_unrealistic_system_reports_first_violation():
    # two 1-shadows with different totals can never come from one tensor
    s1 = IntTensor((2,), {(1,): 1})
    s2 = IntTensor((2,), {(1,): 2})
    sys = ShadowSystem(1, (2, 2), {(1,): s1, (2,): s2})
    ok, quad = is_realistic(sys, witness=True)
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
        shadows[i] = add(shadows[i], IntTensor(sh, {idx: delta}))
    sys = ShadowSystem(p, shape, shadows)
    want = reference_is_realistic(sys)
    assert is_realistic(sys, witness=True) == want
    assert is_realistic(sys) == want[0]


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


def test_realise_full_system_returns_the_tensor():
    c = IntTensor((2, 2, 2), {(1, 2, 1): 3, (2, 2, 2): -1})
    sys = system_of(c, 3)
    assert realise(sys) == c


def test_realise_width_one_modes():
    # forces the mode-rotation branch: last mode has width 1
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


def test_json_round_trip(tmp_path):
    rng = random.Random(3)
    c = random_tensor(rng, (2, 3, 2))
    sys = system_of(c, 2)
    text = system_to_json(sys)
    back = system_from_json(text)
    assert back == sys


def test_json_external_st_files(tmp_path):
    import json

    from crystalforge.tensor_core import write_st

    c = IntTensor((2, 2), {(1, 2): 1})
    sys = system_of(c, 1)
    doc = {"p": 1, "widths": [2, 2], "shadows": []}
    for i in increasing_tuples(2, 1):
        name = f"s{i[0]}.st"
        write_st(sys.shadows[i], tmp_path / name)
        doc["shadows"].append({"axes": list(i), "tensor": name})
    back = system_from_json(json.dumps(doc), base_dir=str(tmp_path))
    assert back == sys


def test_json_malformed():
    with pytest.raises(TensorError):
        system_from_json("{\"p\": 1}")
