"""Crystals, quartzes, and hollow crystals.

A cubical tensor is a k-crystal when its projections onto all strictly
increasing k-tuples of modes coincide; the common projection is its
k-shadow.  ``crystalise`` lifts a shadow to a crystal of higher dimension,
and quartzes are the +-1 "box" tensors whose projections onto fewer modes
vanish.  ``mine_hollow_crystal(k)`` emits the hollow affine (k-1)-crystal
H_k of dimension k and width (k^2+k)/2 in closed form: one +-1 entry per
ordered set partition of the positions [k].
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple, Optional

from . import refuse_over
from .tensor_core import (
    Index,
    IntTensor,
    TensorError,
    is_hollow,
    project,
    total,
)
from .shadow_realiser import _check_realise_reads, _realise, constant_system


class CrystalReport(NamedTuple):
    is_crystal: bool
    k: int
    shadow: Optional[IntTensor] = None
    failing_pair: Optional[tuple[Index, Index]] = None


def is_crystal(c: IntTensor, k: int) -> CrystalReport:
    """Compare all increasing k-projections of a cubical tensor.

    Reports the first mismatching pair (reference tuple (1..k), offending
    tuple) in lexicographic order.
    """
    if not c.is_cubical():
        raise TensorError(f"shape {c.shape} is not cubical")
    q = c.dim
    if not 0 <= k <= q:
        raise TensorError(f"need 0 <= k <= {q}, got {k}")
    base_sel = tuple(range(1, k + 1))
    base = project(c, base_sel)
    for i in itertools.combinations(range(1, q + 1), k):
        if project(c, i) != base:
            return CrystalReport(False, k, failing_pair=(base_sel, i))
    return CrystalReport(True, k, shadow=base)


# the most reads ``shadow`` (and so ``certificate_from_crystal``) lets
# ``is_crystal`` make on a tensor from outside, C(q,k) * (nnz * (1 + k // 4)
# + _TUPLE_READS): it projects the tensor onto every increasing k-tuple,
# reading each entry once at 1 + k // 4 reads, at a fixed cost of
# _TUPLE_READS reads a tuple.  crystalise(H_3, 12) at k = 3 (C(12,3) *
# (1,910 + 25) = 425,700 reads) takes 0.13 s, and an empty 18-dimensional
# tensor at k = 9 (1,215,500) 0.4 s; an empty 23-dimensional tensor at
# k = 11 (33,801,950) takes 9 to 12 s at 14 MB peak RSS.  The miner's own
# check of H_9 (9 * 7,087,262 reads) is over the budget, so ``is_crystal``
# itself takes none
_MAX_CRYSTAL_READS = 2 * 10**6
# one increasing k-tuple in reads, whatever the tensor holds: over five
# alternating runs, an empty 20-dimensional tensor at k = 10 took 6.0-9.5 us
# a tuple and the check of crystalise(H_3, 12) at k = 3 0.24-0.43 us a
# read, a median ratio of 24.7
_TUPLE_READS = 25


def shadow(c: IntTensor, k: int) -> IntTensor:
    """The k-shadow of a k-crystal; a check over ``_MAX_CRYSTAL_READS``
    reads is refused with ``TensorError`` before a tuple is listed."""
    # an entry of a k-tuple weighs ceil((k+1)/4) = 1 + k // 4 reads: a read
    # is an entry at k = 3, and an entry costs more as k grows, since its
    # key is a k-tuple.  Timed back to back with k = 3, seven times each,
    # ``shadow`` on the full cubes 2^12 and 3^9 (crystals at every level)
    # took a median 1.2-1.3 times as long an entry at k = 5, 1.3-1.4 at
    # k = 7, 2.2 at k = 8 and 1.6-1.9 at k = 9-11; projecting 200 entries
    # onto 2,000 k-tuples took 0.37 us an entry at q = 12, k = 3, 0.73 us
    # at q = 14, k = 7 and 0.69-0.92 us at q = 18-22, k = 9-11.  (k+1)/4 is
    # above each of these ratios
    q, nnz, w = c.dim, len(c.entries), 1 + k // 4
    reads = comb(q, k) * (nnz * w + _TUPLE_READS) if 0 <= k <= q else 0
    refuse_over(reads, _MAX_CRYSTAL_READS,
                f"checking the {k}-projections of {nnz} entries in q = {q} modes takes "
                f"C({q},{k})*({nnz}*{w}+{_TUPLE_READS}) = {reads} reads", TensorError)
    report = is_crystal(c, k)
    if not report.is_crystal:
        raise TensorError(f"not a {k}-crystal; projections differ at {report.failing_pair}")
    return report.shadow


def crystalise(s: IntTensor, q: int) -> IntTensor:
    """Realise the constant system {S_i = s}: a k-crystal of dimension q
    with k-shadow ``s`` (k = dimension of ``s``, which must be a
    (k-1)-crystal for the constant system to be realistic).  A lift over
    ``shadow_realiser._MAX_REALISE_READS`` reads is refused with
    ``TensorError`` before the system is built."""
    if not s.is_cubical():
        raise TensorError(f"shape {s.shape} is not cubical")
    k = s.dim
    if not 1 <= k <= q:
        raise TensorError(f"need 1 <= dim(s) <= q, got dim {k}, q {q}")
    nnz = len(s.entries)
    _check_realise_reads(q, k, nnz, f"lifting {nnz} entries of dimension {k} to q = {q}")
    rep = is_crystal(s, k - 1)
    if not rep.is_crystal:
        raise TensorError(
            f"shadow candidate is not a {k - 1}-crystal (mismatch at {rep.failing_pair})"
        )
    sys = constant_system(s, q)
    # The constant system over a (k-1)-crystal is realistic by construction,
    # so skip the compatibility sweep and sum the closed form directly.
    return _realise(sys)


def quartz(n: int, a: Index, b: Index) -> IntTensor:
    """The alternating-sign tensor on the box spanned by ``a`` and ``b``.

    Requires a_i != b_i in every coordinate, and n and every coordinate
    an ``int`` that is not a ``bool``; the 2^k box vertices carry
    (-1)^(number of b-coordinates used).
    """
    a, b = tuple(a), tuple(b)
    if not all(type(c) is int for c in (n, *a, *b)):
        raise TensorError(f"n and the corners must be integers, got n={n!r}, a={a}, b={b}")
    k = len(a)
    if len(b) != k:
        raise TensorError(f"corner tuples differ in length: {a} vs {b}")
    if k == 0:
        raise TensorError("quartz needs at least one mode")
    for i in range(k):
        if not (1 <= a[i] <= n and 1 <= b[i] <= n):
            raise TensorError(f"corner coordinate out of [1,{n}]")
        if a[i] == b[i]:
            raise TensorError(f"a and b agree in position {i + 1}")
    entries: dict[Index, int] = {}
    for z in itertools.product((0, 1), repeat=k):
        idx = tuple(b[i] if z[i] else a[i] for i in range(k))
        entries[idx] = -1 if sum(z) % 2 else 1
    return IntTensor._raw((n,) * k, entries)


def hollow_crystal_fault(c: IntTensor, k: int) -> Optional[str]:
    """Why ``c`` is not a hollow affine (k-1)-crystal of dimension k and
    width (k^2+k)/2, the miner's contract; None when it is one.  A level
    below 1 has no such crystal and is refused with TensorError."""
    if k < 1:
        raise TensorError(f"k must be >= 1, got {k}")
    if not c.is_cubical() or c.dim != k:
        return f"expected a cubical tensor of dimension {k}, got shape {c.shape}"
    if c.shape[0] != (k * k + k) // 2:
        return f"expected width {(k * k + k) // 2}, got {c.shape[0]}"
    if total(c) != 1:
        return f"entries sum to {total(c)}, not 1"
    rep = is_crystal(c, k - 1)
    if not rep.is_crystal:
        return f"not a {k - 1}-crystal; projections differ at {rep.failing_pair}"
    if not is_hollow(rep.shadow):
        return f"the {k - 1}-shadow has a tie"
    return None


# H_k has a(k) entries (the ordered Bell numbers): 7,087,261 at k = 9, which
# takes 99 s and 1.4 GB to emit and check, and 102,247,563 at k = 10.
_MAX_MINED_K = 9


def mine_hollow_crystal(k: int) -> IntTensor:
    """The hollow affine (k-1)-crystal H_k of dimension k and width (k^2+k)/2.

    **Closed form.**  Coordinate c(c-1)/2 + r, for 1 <= r <= c, is the r-th
    coordinate of level c.  Take an ordered set partition (B_1, ..., B_b) of
    [k], and let U_i = B_1 u ... u B_i and c_i = |U_i|.  Its index x puts at
    each position p in B_i the coordinate c_i(c_i-1)/2 + (rank of p in U_i),
    of level c_i, and H_k[x] = (-1)^(k-b).  H_k is the sum of these a(k)
    entries, one per ordered set partition; the partitions are walked on an
    explicit stack, block by block, with sets of positions as bitmasks.

    **Proof.**

    - *Distinct indices.*  The levels of x recover U_1, ..., U_b and so the
      partition; no two partitions share an index and nothing cancels.
    - *Hollow.*  Positions in different blocks get different levels, and
      positions in one block get different ranks.
    - *Affine.*  sum_b (-1)^(k-b) b! S(k, b) = 1.
    - *Lemma: for j < k, every increasing j-projection of H_k is H_j*
      (zero-padded; H_0 is the scalar 1).  The recursive construction,
      kept in the tests as the oracle, reads
      H_k = V - sum_d V[d] quartz(d, y), with V = crystalise(H_{k-1}, k),
      y = (n^+1, ..., n^+k) and n^ = (k^2-k)/2.  The j-projections of V
      are H_{k-1} for j = k-1 (its shadow), and for j < k-1 projections
      of H_{k-1}, so H_j by induction.  A quartz projects to 0 along any
      mode, so H_k has the same j-projections as V.
    - *The closed form is that construction, by induction on k.*  Expanding
      the quartzes, H_k = sum over nonempty Z in [k] of (-1)^(|Z|+1) E_Z,
      where E_Z puts n^+p at each p in Z and the projection of V onto the
      other positions there, which is H_{k-|Z|} as in the lemma.  The
      partitions with last block Z give exactly n^+p on Z, since level k
      has rank p in [k], and on [k] minus Z the closed form of dimension
      k-|Z| with the same sign.
    - *(k-1)-crystal.*  By the lemma at j = k-1, with hollow shadow H_{k-1}.

    The result is checked against ``hollow_crystal_fault`` before it is
    returned (AssertionError on a mismatch).  k above 9 is refused up front
    with TensorError: H_10 would hold 102,247,563 entries.
    """
    if k < 1:
        raise TensorError("k must be >= 1")
    if k > _MAX_MINED_K:
        raise TensorError(
            f"k = {k} is over the size budget k <= {_MAX_MINED_K}: "
            "H_k has a(k) entries, 102,247,563 at k = 10"
        )
    n = (k * k + k) // 2
    full = (1 << k) - 1
    members = [[p for p in range(k) if u >> p & 1] for u in range(full + 1)]
    entries: dict[Index, int] = {}
    stack = [(0, (0,) * k, 0)]  # (positions placed, their coordinates, blocks)
    while stack:
        placed, idx, b = stack.pop()
        if placed == full:
            entries[idx] = -1 if (k - b) % 2 else 1
            continue
        rest = full ^ placed
        z = rest
        while z:  # every nonempty set z of unplaced positions is a next block
            u = placed | z
            c = len(members[u])
            new = list(idx)
            for coord, p in enumerate(members[u], c * (c - 1) // 2 + 1):
                if z >> p & 1:
                    new[p] = coord
            stack.append((u, tuple(new), b + 1))
            z = (z - 1) & rest
    h = IntTensor._raw((n,) * k, entries)
    fault = hollow_crystal_fault(h, k)
    if fault is not None:
        raise AssertionError(f"closed form breaks the miner's contract: {fault}")
    return h


def mine_hollow_shadowed_crystal(k: int, q: int) -> IntTensor:
    """An affine k-crystal of dimension q and width (k^2+k)/2 whose
    k-shadow is hollow."""
    if not 1 <= k <= q:
        raise TensorError(f"need 1 <= k <= q, got k={k}, q={q}")
    return crystalise(mine_hollow_crystal(k), q)
