import functools
import itertools
import math
import random
import sys

import pytest

from crystalforge.tensor_core import (
    IntTensor,
    TensorError,
    dumps_st,
    is_affine,
    is_hollow,
    project,
    support,
    total,
)
import crystalforge.crystal_mill as cm
import crystalforge.shadow_realiser as sr
from crystalforge.crystal_mill import (
    CrystalReport,
    crystalise,
    is_crystal,
    mine_hollow_crystal,
    mine_hollow_shadowed_crystal,
    quartz,
    shadow,
)
from crystalforge.shadow_realiser import increasing_tuples
from recursive_miner import pad, recursive_miner


def dense(shape, rows):
    """Row-major literal -> tensor (for readable fixtures)."""
    entries = {}
    flat = list(rows)
    for idx, v in zip(itertools.product(*(range(1, w + 1) for w in shape)), flat):
        if v:
            entries[idx] = v
    return IntTensor(shape, entries)


# -- is_crystal / shadow ----------------------------------------------------


def test_every_cubical_tensor_is_a_1_crystal_iff_margins_agree():
    t = IntTensor((2, 2), {(1, 1): 1, (2, 2): 1})
    assert is_crystal(t, 1).is_crystal  # both margins are (1,1)
    u = IntTensor((2, 2), {(1, 2): 1})
    rep = is_crystal(u, 1)
    assert not rep.is_crystal
    assert rep.failing_pair == ((1,), (2,))


def test_is_crystal_k_equals_q_trivial():
    t = IntTensor((2, 2), {(1, 2): 3})
    rep = is_crystal(t, 2)
    assert rep.is_crystal and rep.shadow == t


def test_crystal_report_is_an_immutable_value():
    t = IntTensor((2, 2), {(1, 2): 3})
    rep = is_crystal(t, 2)
    assert rep == CrystalReport(True, 2, t) == CrystalReport(
        is_crystal=True, k=2, shadow=t, failing_pair=None)
    assert hash(rep) == hash(CrystalReport(True, 2, t))
    assert is_crystal(IntTensor((2, 2), {(1, 2): 1}), 1) == CrystalReport(
        False, 1, failing_pair=((1,), (2,)))
    assert CrystalReport(False, 1).shadow is None
    with pytest.raises(AttributeError):
        rep.k = 3
    with pytest.raises(AttributeError):
        del rep.shadow


def test_is_crystal_rejects_non_cubical():
    with pytest.raises(TensorError, match=r"^shape \(2, 3\) is not cubical$"):
        is_crystal(IntTensor((2, 3), {}), 1)


def test_is_crystal_rejects_k_out_of_range():
    t = IntTensor((2, 2), {(1, 2): 3})
    for k in (-1, 3):
        with pytest.raises(TensorError, match=f"^need 0 <= k <= 2, got {k}$"):
            is_crystal(t, k)


def test_shadow_refuses_over_the_crystal_check_budget(monkeypatch):
    # an entry of a k-tuple weighs 1 + k // 4 reads: 1 at k = 2, 2 at k = 4
    for c, k, w in ((crystalise(mine_hollow_crystal(2), 4), 2, 1),
                    (mine_hollow_shadowed_crystal(4, 5), 4, 2)):
        n, q = len(c.entries), c.dim
        reads = math.comb(q, k) * (n * w + 25)
        monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads)
        assert shadow(c, k) == mine_hollow_crystal(k)
        monkeypatch.setattr(cm, "_MAX_CRYSTAL_READS", reads - 1)
        with pytest.raises(TensorError, match=rf"^checking the {k}-projections of {n} entries "
                                              rf"in q = {q} modes takes C\({q},{k}\)\*\({n}\*{w}"
                                              rf"\+25\) = {reads} reads, "
                                              rf"over the budget of {reads - 1}$"):
            shadow(c, k)
        monkeypatch.undo()
    # the C(60,30) tuples of a one-entry tensor are counted, never listed
    with pytest.raises(TensorError, match=r"^checking the 30-projections of 1 entries in q = 60 "
                                          rf"modes takes C\(60,30\)\*\(1\*8\+25\) = "
                                          rf"{33 * math.comb(60, 30)} reads, "
                                          r"over the budget of 2000000$"):
        shadow(IntTensor((1,) * 60, {(1,) * 60: 1}), 30)
    # every tuple weighs 25 reads, so the C(23,11) tuples of an empty
    # tensor are over the budget too
    with pytest.raises(TensorError, match=r"^checking the 11-projections of 0 entries in q = 23 "
                                          rf"modes takes C\(23,11\)\*\(0\*3\+25\) = "
                                          rf"{25 * math.comb(23, 11)} reads, "
                                          r"over the budget of 2000000$"):
        shadow(IntTensor((1,) * 23, {}), 11)
    # a level out of range is still is_crystal's error
    c = crystalise(mine_hollow_crystal(2), 4)
    with pytest.raises(TensorError, match="^need 0 <= k <= 4, got 5$"):
        shadow(c, 5)


def test_shadow_raises_on_non_crystal():
    with pytest.raises(TensorError,
                       match=r"^not a 1-crystal; projections differ at \(\(1,\), \(2,\)\)$"):
        shadow(IntTensor((2, 2), {(1, 2): 1}), 1)


def test_shared_errors_are_the_tensor_core_classes():
    # certificate_desk raises it without loading the miner
    import crystalforge.certificate_desk as cd
    import crystalforge.tensor_core as tc
    assert cm.TensorError is cd.TensorError is tc.TensorError


# -- crystalise -------------------------------------------------------------


def test_crystalise_dimensions_and_shadows():
    s = IntTensor((3,), {(2,): 1})  # every 1-d tensor is a 0-crystal
    c = crystalise(s, 4)
    assert c.shape == (3, 3, 3, 3)
    rep = is_crystal(c, 1)
    assert rep.is_crystal and rep.shadow == s


def test_crystalise_wide_tensor_within_default_recursion_limit():
    # the realiser's depth is bounded by q, not by the width
    s = IntTensor((400,), {(i,): 1 + i % 3 for i in range(1, 401)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        c = crystalise(s, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert c.shape == (400, 400, 400)
    assert all(project(c, (m,)) == s for m in (1, 2, 3))


def test_crystalise_requires_crystal_input():
    # margins (2,0) vs (1,1) disagree, so this is not a 1-crystal
    bad = IntTensor((2, 2), {(1, 1): 2, (1, 2): 0, (2, 1): -1, (2, 2): 1})
    with pytest.raises(TensorError, match=r"^shadow candidate is not a 1-crystal "
                                          r"\(mismatch at \(\(1,\), \(2,\)\)\)$"):
        crystalise(bad, 3)


def test_crystalise_rejects_non_cubical():
    with pytest.raises(TensorError, match=r"^shape \(2, 3\) is not cubical$"):
        crystalise(IntTensor((2, 3), {(1, 1): 1}), 3)


def test_crystalise_q_bounds():
    s = IntTensor((2, 2), {(1, 2): 1, (2, 1): 1, (1, 1): -1})
    with pytest.raises(TensorError, match=r"^need 1 <= dim\(s\) <= q, got dim 2, q 1$"):
        crystalise(s, 1)


def test_crystalise_refuses_over_the_read_budget(monkeypatch):
    s = mine_hollow_crystal(2)  # 3 entries
    # C(3,2) * (3+1) * (C(3,0) + C(3,1) + C(3,2)) = 3 * 4 * 7
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 84)
    assert is_crystal(crystalise(s, 3), 2).shadow == s
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 83)
    with pytest.raises(TensorError, match="^lifting 3 entries of dimension 2 to q = 3 takes "
                                          "84 reads, over the budget of 83$"):
        crystalise(s, 3)
    # at q = k the shadow comes back as it is, with no reads
    monkeypatch.setattr(sr, "_MAX_REALISE_READS", 0)
    assert crystalise(s, 2) == s


# -- quartz -----------------------------------------------------------------


def test_quartz_2d_explicit():
    q = quartz(3, (1, 2), (3, 3))
    assert q.entries == {(1, 2): 1, (3, 2): -1, (1, 3): -1, (3, 3): 1}


def test_quartz_coordinate_clash():
    with pytest.raises(TensorError, match="^a and b agree in position 1$"):
        quartz(3, (1, 2), (1, 3))


def test_quartz_rejects_bad_corners():
    with pytest.raises(TensorError, match="differ in length"):
        quartz(3, (1, 2), (3,))
    with pytest.raises(TensorError, match="^quartz needs at least one mode$"):
        quartz(3, (), ())
    for a, b in (((1, 4), (2, 3)), ((0, 1), (2, 3))):
        with pytest.raises(TensorError, match=r"out of \[1,3\]"):
            quartz(3, a, b)


@pytest.mark.parametrize("n, a, b", [(2.0, (1,), (2,)), (True, (1,), (1,)), (3, (1.0,), (2,)),
                                     (3, (2,), (True,)), (3, (1, 2), (2, 3.0))],
                         ids=["n-float", "n-bool", "a-float", "b-bool", "b-integral-float"])
def test_quartz_refuses_a_size_or_corner_that_is_not_an_int(n, a, b):
    # quartz(2.0, (1,), (2,)) had shape (2.0,)
    with pytest.raises(TensorError) as info:
        quartz(n, a, b)
    assert str(info.value) == f"n and the corners must be integers, got n={n!r}, a={a}, b={b}"


def quartz_laws_hold(n, a, b):
    k = len(a)
    g = quartz(n, a, b)
    # (i) total is zero
    assert total(g) == 0
    # (ii) every single-mode margin vanishes, hence all projections onto
    #      fewer modes do too
    for p in range(k):
        sel = tuple(m + 1 for m in range(k) if m != p)
        assert project(g, sel).entries == {}
    # (iii) support is exactly the 2^k box vertices
    assert len(support(g)) == 2 ** k
    # (iv) values are +-1 with the parity sign
    for z in itertools.product((0, 1), repeat=k):
        idx = tuple(b[i] if z[i] else a[i] for i in range(k))
        assert g[idx] == (-1) ** sum(z)
    # (v) swapping a and b scales by (-1)^k
    assert quartz(n, b, a) == IntTensor(g.shape, {i: (-1) ** k * v for i, v in g.entries.items()})


def test_quartz_laws_small():
    quartz_laws_hold(4, (1, 2, 3), (2, 3, 4))
    quartz_laws_hold(2, (1,), (2,))
    quartz_laws_hold(5, (5, 1), (1, 5))


def test_quartz_disjoint_supports_cancel_ties():
    # two quartzes on disjoint boxes have disjoint supports
    g1 = quartz(6, (1, 2), (4, 5))
    g2 = quartz(6, (2, 3), (5, 6))
    assert not (support(g1) & support(g2))
    s = IntTensor(g1.shape, {**g1.entries, **g2.entries})
    assert total(s) == 0


# -- pad --------------------------------------------------------------------


def test_pad_keeps_entries():
    t = IntTensor((2, 2), {(1, 2): 3})
    p = pad(t, 2)
    assert p.shape == (4, 4) and p.entries == t.entries
    assert pad(t, 0) == t
    with pytest.raises(TensorError, match="^layers must be >= 0$"):
        pad(t, -1)
    with pytest.raises(TensorError, match=r"^shape \(2, 3\) is not cubical$"):
        pad(IntTensor((2, 3), {}), 1)
    s = IntTensor((), {(): 5})  # a scalar has no mode to grow
    assert pad(s, 3) is s


# -- the miner --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def mined(k):
    return mine_hollow_crystal(k)


def ordered_bell(k):
    """a(k), the number of ordered set partitions of [k]."""
    a = [1]
    for m in range(1, k + 1):
        a.append(sum(math.comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[k]


def level(v):
    """The level c of coordinate v: c(c-1)/2 < v <= c(c+1)/2."""
    c = 1
    while c * (c + 1) // 2 < v:
        c += 1
    return c


@pytest.mark.parametrize("k", range(1, 7))
def test_mine_matches_the_recursive_oracle(k):
    # compared as lines: a failure then names the first differing line
    # instead of diffing two long strings
    assert dumps_st(mined(k)).splitlines() == dumps_st(recursive_miner(k)).splitlines()


def test_mine_base_case():
    c = mine_hollow_crystal(1)
    assert c.shape == (1,) and c.entries == {(1,): 1}


def test_mine_k2_matches_known_matrix():
    # width 3 matrix, margins both (1,0,0), entries sum to 1, no diagonal
    u = mine_hollow_crystal(2)
    expected = dense((3, 3), [0, 0, 1, 1, 0, -1, 0, 0, 0])
    assert u == expected


def test_mine_invariants():
    for k in (1, 2, 3, 4):
        c = mine_hollow_crystal(k)
        n = (k * k + k) // 2
        assert c.shape == (n,) * k
        assert is_affine(c)
        rep = is_crystal(c, k - 1)
        assert rep.is_crystal
        assert is_hollow(rep.shadow)


@pytest.mark.parametrize("k", range(1, 8))
def test_mine_support_is_the_ordered_bell_number_with_one_more_plus(k):
    h = mined(k)
    assert len(h.entries) == ordered_bell(k)
    assert sum(1 for v in h.entries.values() if v == 1) == (ordered_bell(k) + 1) // 2


@pytest.mark.parametrize("k", range(1, 8))
def test_mine_sign_counts_the_levels_of_the_index(k):
    for idx, v in mined(k).entries.items():
        assert v == (-1) ** (k - len({level(x) for x in idx}))


@pytest.mark.parametrize("k", range(1, 7))
def test_every_increasing_projection_is_the_smaller_hollow_crystal(k):
    n = (k * k + k) // 2
    for j in range(k):
        want = pad(mined(j), n - (j * j + j) // 2) if j else IntTensor((), {(): 1})
        for sel in increasing_tuples(k, j):
            assert project(mined(k), sel) == want, (k, sel)


def test_mine_rejects_bad_k():
    with pytest.raises(TensorError, match="^k must be >= 1$"):
        mine_hollow_crystal(0)


@pytest.mark.parametrize("k", [0, -1])
def test_fault_refuses_a_level_below_one(k):
    # a scalar: dimension 0, and no width to compare with (k^2+k)/2
    with pytest.raises(TensorError, match=f"^k must be >= 1, got {k}$"):
        cm.hollow_crystal_fault(IntTensor((), {(): 1}), k)


@pytest.mark.parametrize("k", [10, 1000])
def test_mine_refuses_k_above_9(k):
    with pytest.raises(TensorError, match=rf"^k = {k} is over the size budget k <= 9: H_k has "
                                          r"a\(k\) entries, 102,247,563 at k = 10$"):
        mine_hollow_crystal(k)


@pytest.mark.parametrize(
    "name, fake, reason",
    [
        ("total", lambda c: 2, "entries sum to 2, not 1"),
        ("is_crystal", lambda c, k: CrystalReport(False, k, None, ((1,), (2,))), "not a 2-crystal"),
        ("is_hollow", lambda t: False, "the 2-shadow has a tie"),
    ],
    ids=["total", "is_crystal", "is_hollow"],
)
def test_mine_checks_its_result_before_returning_it(monkeypatch, name, fake, reason):
    monkeypatch.setattr(cm, name, fake)
    with pytest.raises(AssertionError, match=reason):
        mine_hollow_crystal(3)


def deepest_stack(f, *args):
    """The most Python frames ``f(*args)`` has active at once."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return deepest


def test_mine_stack_depth_does_not_grow_with_k():
    assert deepest_stack(mine_hollow_crystal, 6) == deepest_stack(mine_hollow_crystal, 2)
    # the measure tells: the recursive oracle goes deeper as k grows
    assert deepest_stack(recursive_miner, 4) > deepest_stack(recursive_miner, 2)


def test_shadowed_miner():
    c = mine_hollow_shadowed_crystal(2, 4)
    assert c.shape == (3, 3, 3, 3)
    rep = is_crystal(c, 2)
    assert rep.is_crystal and is_hollow(rep.shadow) and is_affine(c)
    assert rep.shadow == mine_hollow_shadowed_crystal(2, 2)
    with pytest.raises(TensorError, match="^need 1 <= k <= q, got k=3, q=2$"):
        mine_hollow_shadowed_crystal(3, 2)


def test_width3_shadow_is_minimal_support():
    # the k=2 miner output has support 3; width 3 forces at least 3 cells
    # for a hollow affine tensor with vanishing-margin structure
    u = mine_hollow_crystal(2)
    assert len(support(u)) == 3
