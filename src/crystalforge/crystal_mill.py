"""Crystals, quartzes, and the hollow-crystal miner.

A cubical tensor is a k-crystal when its projections onto all strictly
increasing k-tuples of modes coincide; the common projection is its
k-shadow.  Quartzes are the +-1 "box" tensors used to cancel ties without
disturbing shadows, and ``mine_hollow_crystal`` combines crystallisation,
zero-padding and quartz subtraction to produce a hollow affine
(k-1)-crystal of width (k^2+k)/2 in dimension k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .tensor_core import (
    Index,
    IntTensor,
    TensorError,
    project,
)
from .shadow_realiser import _realise, constant_system, increasing_tuples


class NotCubical(TensorError):
    pass


class BadDimension(TensorError):
    pass


class NotACrystal(TensorError):
    pass


class CoordinateClash(TensorError):
    pass


@dataclass(frozen=True)
class CrystalReport:
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
        raise NotCubical(f"shape {c.shape} is not cubical")
    q = c.dim
    if not 0 <= k <= q:
        raise BadDimension(f"need 0 <= k <= {q}, got {k}")
    base_sel = tuple(range(1, k + 1))
    base = project(c, base_sel)
    for i in increasing_tuples(q, k):
        if project(c, i) != base:
            return CrystalReport(False, k, failing_pair=(base_sel, i))
    return CrystalReport(True, k, shadow=base)


def shadow(c: IntTensor, k: int) -> IntTensor:
    report = is_crystal(c, k)
    if not report.is_crystal:
        raise NotACrystal(f"not a {k}-crystal; projections differ at {report.failing_pair}")
    return report.shadow


def crystalise(s: IntTensor, q: int) -> IntTensor:
    """Realise the constant system {S_i = s}: a k-crystal of dimension q
    with k-shadow ``s`` (k = dimension of ``s``, which must be a
    (k-1)-crystal for the constant system to be realistic)."""
    if not s.is_cubical():
        raise NotCubical(f"shape {s.shape} is not cubical")
    k = s.dim
    if not 1 <= k <= q:
        raise BadDimension(f"need 1 <= dim(s) <= q, got dim {k}, q {q}")
    rep = is_crystal(s, k - 1)
    if not rep.is_crystal:
        raise NotACrystal(
            f"shadow candidate is not a {k - 1}-crystal (mismatch at {rep.failing_pair})"
        )
    sys = constant_system(s, q)
    # The constant system over a (k-1)-crystal is realistic by construction,
    # so skip the compatibility sweep and sum the closed form directly.
    return _realise(sys)


def quartz(n: int, a: Index, b: Index) -> IntTensor:
    """The alternating-sign tensor on the box spanned by ``a`` and ``b``.

    Requires a_i != b_i in every coordinate; the 2^k box vertices carry
    (-1)^(number of b-coordinates used).
    """
    a, b = tuple(a), tuple(b)
    k = len(a)
    if len(b) != k:
        raise TensorError(f"corner tuples differ in length: {a} vs {b}")
    if k == 0:
        raise BadDimension("quartz needs at least one mode")
    for i in range(k):
        if not (1 <= a[i] <= n and 1 <= b[i] <= n):
            raise TensorError(f"corner coordinate out of [1,{n}]")
        if a[i] == b[i]:
            raise CoordinateClash(f"a and b agree in position {i + 1}")
    entries: dict[Index, int] = {}
    for z in itertools.product((0, 1), repeat=k):
        idx = tuple(b[i] if z[i] else a[i] for i in range(k))
        entries[idx] = -1 if sum(z) % 2 else 1
    return IntTensor._raw((n,) * k, entries)


def pad(c: IntTensor, layers: int) -> IntTensor:
    """Grow every mode by ``layers`` zero layers, keeping entries in place."""
    if not c.is_cubical():
        raise NotCubical(f"shape {c.shape} is not cubical")
    if layers < 0:
        raise BadDimension("layers must be >= 0")
    if c.dim == 0:
        return c
    w = c.shape[0] + layers
    return IntTensor._raw((w,) * c.dim, dict(c.entries))


def mine_hollow_crystal(k: int) -> IntTensor:
    """A hollow affine (k-1)-crystal of dimension k and width (k^2+k)/2.

    Recursive construction: crystallise the previous miner's output one
    dimension up, pad with k zero layers, then subtract one quartz per
    support cell, anchored at the fresh coordinates (n̂+1, ..., n), to
    relocate every tie into the hollow padding region.
    """
    if k < 1:
        raise BadDimension("k must be >= 1")
    if k == 1:
        return IntTensor._raw((1,), {(1,): 1})
    u = mine_hollow_crystal(k - 1)
    v = crystalise(u, k)
    n_hat = (k * k - k) // 2
    n = (k * k + k) // 2
    w = pad(v, k)
    y = tuple(range(n_hat + 1, n + 1))
    acc = dict(w.entries)
    for d, coeff in w.entries.items():
        # valid since d lives in [n̂]^k and y in (n̂, n]^k
        for idx, sgn in quartz(n, d, y).entries.items():
            s = acc.get(idx, 0) - coeff * sgn
            if s:
                acc[idx] = s
            else:
                acc.pop(idx, None)
    return IntTensor._raw((n,) * k, acc)


def mine_hollow_shadowed_crystal(k: int, q: int) -> IntTensor:
    """An affine k-crystal of dimension q and width (k^2+k)/2 whose
    k-shadow is hollow."""
    if not 1 <= k <= q:
        raise BadDimension(f"need 1 <= k <= q, got k={k}, q={q}")
    return crystalise(mine_hollow_crystal(k), q)
