import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystalforge.tensor_core import (
    IntTensor,
    TensorError,
    contract,
    dumps_st,
    is_affine,
    is_hollow,
    loads_st,
    project,
    pushforward,
    support,
    total,
)


def T(shape, entries):
    return IntTensor(shape, entries)


# -- construction -----------------------------------------------------------


def test_zero_entries_are_dropped():
    t = T((2, 2), {(1, 1): 5, (2, 2): 0})
    assert t.entries == {(1, 1): 5}
    assert t[(2, 2)] == 0


def test_out_of_range_index_rejected():
    with pytest.raises(TensorError, match=r"^index \(3, 1\) invalid for shape \(2, 2\)$"):
        T((2, 2), {(3, 1): 1})
    with pytest.raises(TensorError, match=r"^index \(0, 1\) invalid for shape \(2, 2\)$"):
        T((2, 2), {(0, 1): 1})
    with pytest.raises(TensorError, match=r"^index \(1, 1, 1\) invalid for shape \(2, 2\)$"):
        T((2, 2), {(1, 1, 1): 1})


# int() would read each of these as a number: 2.5 as 2, True as 1
NOT_INTS = {
    "width-float": (((2.5,), {(1.9,): 2.9}), r"^widths must be integers, got \(2\.5,\)$"),
    "width-bool": (((True,), {}), r"^widths must be integers, got \(True,\)$"),
    "coordinate-float": (((2,), {(1.9,): 2}), r"^index \(1\.9,\) and value 2 must be integers$"),
    "coordinate-bool": (((2,), {(True,): 2}), r"^index \(True,\) and value 2 must be integers$"),
    "value-float": (((2,), {(1,): 2.9}), r"^index \(1,\) and value 2\.9 must be integers$"),
    "value-zero-float": (((2,), {(1,): 0.0}), r"^index \(1,\) and value 0\.0 must be integers$"),
    "value-bool": (((2,), {(1,): True}), r"^index \(1,\) and value True must be integers$"),
}


@pytest.mark.parametrize("args, message", NOT_INTS.values(), ids=list(NOT_INTS))
def test_constructor_refuses_a_number_that_is_not_an_int(args, message):
    with pytest.raises(TensorError, match=message):
        T(*args)


def test_bad_shape_rejected():
    with pytest.raises(TensorError, match=r"^widths must be positive, got \(2, 0\)$"):
        T((2, 0), {})


def test_scalar_tensor():
    s = T((), {(): 7})
    assert s.dim == 0
    assert s[()] == 7
    assert total(s) == 7


def test_equality_and_hash():
    a = T((2, 3), {(1, 2): 4})
    b = T((2, 3), {(1, 2): 4})
    assert a == b and hash(a) == hash(b)
    assert a != T((2, 3), {(1, 2): 5})
    assert a != T((3, 2), {(1, 2): 4})
    assert a.__eq__(4) is NotImplemented
    assert a != 4 and a != {(1, 2): 4}


def test_repr_lists_at_most_eight_entries():
    assert repr(T((2,), {(2,): -1})) == "IntTensor(shape=(2,), {(2,): -1})"
    t = T((9,), {(i,): i for i in range(1, 10)})
    assert repr(t) == (
        "IntTensor(shape=(9,), {(1,): 1, (2,): 2, (3,): 3, (4,): 4, "
        "(5,): 5, (6,): 6, (7,): 7, (8,): 8...})"
    )


def test_immutability():
    t = T((2,), {(1,): 1})
    with pytest.raises(AttributeError):
        t.shape = (3,)
    with pytest.raises(AttributeError):
        del t.entries


# -- predicates -------------------------------------------------------------


def test_affine_support_ties_hollow():
    t = T((3, 3), {(1, 2): 2, (2, 2): -1})
    assert total(t) == 1 and is_affine(t)
    assert support(t) == {(1, 2), (2, 2)}
    assert not is_hollow(t)
    assert is_hollow(T((3, 3), {(1, 2): 1}))
    assert is_hollow(T((3, 3), {}))


# -- random tensors --------------------------------------------------------

small_tensors = st.integers(1, 3).flatmap(
    lambda q: st.tuples(*([st.integers(1, 3)] * q)).flatmap(
        lambda shape: st.dictionaries(
            st.tuples(*(st.integers(1, w) for w in shape)),
            st.integers(-9, 9),
            max_size=6,
        ).map(lambda e: IntTensor(shape, e))
    )
)


# -- contraction ------------------------------------------------------------


def test_contract_matches_matrix_product():
    a = T((2, 3), {(1, 1): 1, (1, 3): 2, (2, 2): -1})
    b = T((3, 2), {(1, 1): 4, (3, 1): 1, (2, 2): 5})
    c = contract(a, b, 1)
    # [[1,0,2],[0,-1,0]] @ [[4,0],[0,5],[1,0]] = [[6,0],[0,-5]]
    assert c == T((2, 2), {(1, 1): 6, (2, 2): -5})


def test_contract_full_inner_product():
    a = T((2, 2), {(1, 1): 2, (2, 1): 3})
    b = T((2, 2), {(1, 1): 5, (2, 1): -1})
    assert contract(a, b, 2) == T((), {(): 7})


def test_contract_over_zero_is_outer_product():
    a = T((2,), {(1,): 2})
    b = T((3,), {(3,): -1})
    assert contract(a, b, 0) == T((2, 3), {(1, 3): -2})


def test_contract_drops_entries_that_cancel():
    # [[1, 1], [0, 2]] @ [[1], [-1]] = [[0], [-2]]: entry (1, 1) cancels
    a = T((2, 2), {(1, 1): 1, (1, 2): 1, (2, 2): 2})
    b = T((2, 1), {(1, 1): 1, (2, 1): -1})
    c = contract(a, b, 1)
    assert c.entries == {(2, 1): -2}


def test_contract_shape_mismatch():
    with pytest.raises(TensorError, match=r"^shared modes disagree: \(3,\) vs \(2,\)$"):
        contract(T((2, 3), {}), T((2, 2), {}), 1)
    with pytest.raises(TensorError,
                       match=r"^cannot contract over 2 modes of shapes \(2,\), \(2,\)$"):
        contract(T((2,), {}), T((2,), {}), 2)


@given(small_tensors, st.integers(-5, 5))
def test_contract_is_bilinear_in_scale(t, c):
    def scale(x):
        return T(x.shape, {i: c * v for i, v in x.entries.items()})

    u = T(t.shape, {i: 1 for i in itertools.product(*(range(1, w + 1) for w in t.shape))})
    over = t.dim
    assert contract(scale(t), u, over) == scale(contract(t, u, over))


# -- projection -------------------------------------------------------------


def test_project_sums_fibers():
    t = T((2, 2), {(1, 1): 1, (1, 2): 2, (2, 1): 4})
    assert project(t, (1,)) == T((2,), {(1,): 3, (2,): 4})
    assert project(t, (2,)) == T((2,), {(1,): 5, (2,): 2})
    assert project(t, ()) == T((), {(): 7})


def test_project_identity_and_reflection():
    t = T((2, 3), {(1, 2): 5, (2, 3): -1})
    assert project(t, (1, 2)) == t
    r = project(t, (2, 1))
    assert r == T((3, 2), {(2, 1): 5, (3, 2): -1})
    # a transposition is an involution
    assert project(r, (2, 1)) == t


def test_project_with_repeats():
    t = T((2, 2), {(1, 1): 1, (2, 1): 3})
    d = project(t, (1, 1))
    assert d == T((2, 2), {(1, 1): 1, (2, 2): 3})


def test_project_bad_selector():
    with pytest.raises(TensorError, match=r"^selector \(1, 3\) out of range for 2 modes$"):
        project(T((2, 2), {}), (1, 3))


@pytest.mark.parametrize("sel", [(1.7,), (2.0,), "2", (True,), (1, False)],
                         ids=["float", "integral-float", "string", "true", "false"])
def test_project_refuses_a_selector_entry_that_is_not_an_int(sel):
    # int() read 1.7 as mode 1, "2" as mode 2 and True as mode 1
    t = T((2, 3), {(1, 2): 5})
    with pytest.raises(TensorError) as info:
        project(t, sel)
    assert str(info.value) == f"selector {tuple(sel)} must hold integers"


@given(small_tensors, st.data())
def test_project_composes(t, data):
    q = t.dim
    sel1 = tuple(data.draw(st.lists(st.integers(1, q), max_size=3)))
    sel2 = tuple(data.draw(st.lists(st.integers(1, max(len(sel1), 1)), max_size=3))) if sel1 else ()
    # project(project(t, s1), s2) == project(t, s1 o s2)
    lhs = project(project(t, sel1), sel2)
    rhs = project(t, tuple(sel1[m - 1] for m in sel2))
    assert lhs == rhs


def materialize_projection_tensor(shape, sel):
    """The explicit 0/1 projection tensor for ``sel`` on ``shape``: its entry
    at (i, j) is 1 iff j_sel = i."""
    shape = tuple(shape)
    entries = {}
    for j in itertools.product(*(range(1, w + 1) for w in shape)):
        entries[tuple(j[m - 1] for m in sel) + j] = 1
    return IntTensor(tuple(shape[m - 1] for m in sel) + shape, entries)


@settings(max_examples=40)
@given(small_tensors, st.data())
def test_materialized_projection_agrees_with_direct(t, data):
    q = t.dim
    sel = tuple(data.draw(st.lists(st.integers(1, q), min_size=1, max_size=2)))
    p = materialize_projection_tensor(t.shape, sel)
    via_contract = contract(p, t, q)
    assert via_contract == project(t, sel)


# -- pushforward ------------------------------------------------------------


def test_pushforward_sums_preimages():
    t = T((3,), {(1,): 2, (2,): 3, (3,): -3})
    merged = pushforward(t, lambda i: (1,) if i[0] < 3 else (2,), (2,))
    assert merged == T((2,), {(1,): 5, (2,): -3})


def test_pushforward_drops_cancelled_entries():
    t = T((2, 2), {(1, 2): 4, (2, 1): -4, (2, 2): 1})
    folded = pushforward(t, lambda i: (i[0] + i[1] - 1,), (3,))
    assert folded.entries == {(3,): 1}


def test_pushforward_composes():
    t = T((4, 4), {(1, 2): 1, (3, 4): -2, (2, 2): 5})
    f = lambda i: (i[0],)  # noqa: E731
    g = lambda i: ((i[0] + 1) // 2,)  # noqa: E731
    lhs = pushforward(pushforward(t, f, (4,)), g, (2,))
    rhs = pushforward(t, lambda i: g(f(i)), (2,))
    assert lhs == rhs


@given(small_tensors, st.data())
def test_project_is_pushforward_along_selector(t, data):
    sel = tuple(data.draw(st.lists(st.integers(1, t.dim), max_size=4)))
    shape = tuple(t.shape[m - 1] for m in sel)
    assert project(t, sel) == pushforward(t, lambda j: tuple(j[m - 1] for m in sel), shape)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "sel",
    [(), (1,), (4,), (1, 3), (3, 1), (2, 2), (4, 1, 4, 2), (1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)],
)
def test_project_matches_pushforward_on_seeded_tensors(seed, sel):
    # no mode, one mode (a slice of the index) and several (an itemgetter),
    # with repeats and permutations; the +-1, +-2 entries cancel in places
    rng = random.Random(seed)
    shape = (3, 2, 4, 3)
    cells = itertools.product(*(range(1, w + 1) for w in shape))
    t = T(shape, {i: rng.choice((-2, -1, 1, 2)) for i in cells if rng.random() < 0.4})
    want = pushforward(t, lambda j: tuple(j[m - 1] for m in sel), tuple(shape[m - 1] for m in sel))
    assert project(t, sel) == want


# -- .st format -------------------------------------------------------------


def test_dumps_known_payload():
    t = T((2, 2), {(2, 1): -3, (1, 2): 4})
    assert dumps_st(t) == "st 1\ndims 2\nwidths 2 2\nentries 2\n1 2 4\n2 1 -3\n"


def test_scalar_payload():
    s = T((), {(): 2})
    text = dumps_st(s)
    assert text == "st 1\ndims 0\nwidths\nentries 1\n2\n"
    assert loads_st(text) == s


@given(small_tensors)
def test_st_round_trip_byte_identical(t):
    text = dumps_st(t)
    assert loads_st(text) == t
    assert dumps_st(loads_st(text)) == text


# each malformed payload and its message; a bad header line is named
MALFORMED_ST = {
    "": "truncated .st payload",
    "st 2\ndims 0\nwidths\nentries 0\n": "bad magic line: 'st 2'",
    "st 1\ndims 1\nwidths 2 2\nentries 0\n": "bad widths line: 'widths 2 2'",
    "st 1\ndims 1\nwidths 2\nentries 1\n": "expected 1 entry lines, found 0",  # missing entry line
    "st 1\ndims 1\nwidths 2\nentries 0\n1 1\n": "expected 0 entry lines, found 1",  # extra entry line
    "st 1\ndims 1\nwidths 2\nentries 1\n1 0\n": "zero value stored at (1,)",
    "st 1\ndims 1\nwidths 2\nentries 1\n3 1\n": "index (3,) out of range for widths (2,)",
    "st 1\ndims 1\nwidths 2\nentries 2\n2 1\n1 1\n": "entries not sorted/deduplicated at (1,)",
    "st 1\ndims 1\nwidths 2\nentries 2\n1 1\n1 2\n": "entries not sorted/deduplicated at (1,)",
    "st 1\ndims 1\nwidths 0\nentries 0\n": "widths must be positive",
    "st 1\ndims 1\nwidths 2\nentries 1\nx 1\n": "bad entry line: 'x 1'",
    "st 1\ndims\nwidths\nentries 0\n": "bad dims line: 'dims'",
    "st 1\ndims x\nwidths\nentries 0\n": "bad dims line: 'dims x'",
    "st 1\ndims 1 1\nwidths 2\nentries 0\n": "bad dims line: 'dims 1 1'",
    "st 1\n\nwidths\nentries 0\n": "bad dims line: ''",
    "st 1\ndims -1\nwidths\nentries 0\n": "negative dims",
    "st 1\ndims 1\nwidths x\nentries 0\n": "bad widths line: 'widths x'",
    "st 1\ndims 2\nwidths 2 x\nentries 0\n": "bad widths line: 'widths 2 x'",
    "st 1\ndims 1\nwidth 2\nentries 0\n": "bad widths line: 'width 2'",
    "st 1\ndims 1\nwidths 2\nentry 0\n": "bad entries line: 'entry 0'",
    "st 1\ndims 1\nwidths 2\nentries x\n": "bad entries line: 'entries x'",
    "st 1\ndims 1\nwidths 2\nentries 0 0\n": "bad entries line: 'entries 0 0'",
    "st 1\ndims 1\nwidths 2\nentries -1\n": "expected -1 entry lines, found 0",
    "st 1\ndims 2\nwidths 2 2\nentries 1\n1 1\n": "bad entry line: '1 1'",  # short entry line
    # zero and negative numbers spelled as dumps_st never writes them
    "st 1\ndims 0\nwidths\nentries -0\n": "bad entries line: 'entries -0'",
    "st 1\ndims 0\nwidths\nentries 00\n": "bad entries line: 'entries 00'",
    "st 1\ndims 00\nwidths\nentries 0\n": "bad dims line: 'dims 00'",
    "st 1\ndims 1\nwidths 2\nentries 1\n1 -01\n": "bad entry line: '1 -01'",
    "st 1\ndims 1\nwidths 2\nentries 1\n1 -0_1\n": "bad entry line: '1 -0_1'",
    "st 1\ndims 1\nwidths 2\nentries 1\n1 -\u0661\n": "bad entry line: '1 -\u0661'",
    # three spellings that int() reads as a width-2 tensor with entry 10
    "st 1\ndims +1\nwidths 0_2\nentries 1\n1 1_0\n": "bad dims line: 'dims +1'",
}


@pytest.mark.parametrize("text, message", MALFORMED_ST.items(), ids=list(MALFORMED_ST))
def test_malformed_st_rejected(text, message):
    with pytest.raises(TensorError) as err:
        loads_st(text)
    assert str(err.value) == message


# every spelling of 1 that Python's int reads but dumps_st never writes:
# a sign, a leading zero, an underscore, a non-ASCII digit (ARABIC-INDIC
# DIGIT ONE)
ONE_SPELLINGS = {"plus": "+1", "leading-0": "01", "underscore": "0_1", "arabic-indic": "\u0661"}
# a tensor of width 2 with the entry (1,) = 1; {} marks the number spelled
ST_SLOTS = {
    "dims": ("st 1\ndims {}\nwidths 2\nentries 1\n1 1\n", "bad dims line: 'dims {}'"),
    "widths": ("st 1\ndims 1\nwidths {}\nentries 1\n1 1\n", "bad widths line: 'widths {}'"),
    "entries": ("st 1\ndims 1\nwidths 2\nentries {}\n1 1\n", "bad entries line: 'entries {}'"),
    "index": ("st 1\ndims 1\nwidths 2\nentries 1\n{} 1\n", "bad entry line: '{} 1'"),
    "value": ("st 1\ndims 1\nwidths 2\nentries 1\n1 {}\n", "bad entry line: '1 {}'"),
}


@pytest.mark.parametrize("slot", ST_SLOTS)
@pytest.mark.parametrize("name", ONE_SPELLINGS)
def test_st_number_must_be_spelled_canonically(slot, name):
    text, message, spelling = *ST_SLOTS[slot], ONE_SPELLINGS[name]
    assert loads_st(text.format("1")) == T((1,) if slot == "widths" else (2,), {(1,): 1})
    with pytest.raises(TensorError) as err:
        loads_st(text.format(spelling))
    assert str(err.value) == message.format(spelling)


def test_st_whitespace_rule_is_unchanged():
    """Numbers are canonical; the whitespace between them is any run of
    whitespace, as ``str.split`` reads it."""
    text = "st 1\ndims\t2\nwidths  2 3 \nentries 2\n 1\t2 -7\n2 \u20033\v10\n"
    assert loads_st(text) == T((2, 3), {(1, 2): -7, (2, 3): 10})
    # the magic line too: a CRLF file, and words surrounded by whitespace
    assert loads_st(text.replace("\n", "\r\n")) == T((2, 3), {(1, 2): -7, (2, 3): 10})
    assert loads_st(" st\t1 \n" + text[5:]) == T((2, 3), {(1, 2): -7, (2, 3): 10})
    for magic in ("st 01", "st 1 1", "st", "st1", "ST 1"):
        with pytest.raises(TensorError) as err:
            loads_st(magic + "\n" + text[5:])
        assert str(err.value) == f"bad magic line: {magic!r}"
