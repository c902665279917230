"""Sparse exact-integer tensors with contraction, pushforward and projection.

A tensor here is a finitely supported map from a product of 1-based index
ranges ``[n1] x ... x [nq]`` to arbitrary-precision integers.  Everything else
in this package (crystals, shadow systems, certificates) is built on top of
the handful of operations in this module, so they are kept deliberately
small and purely functional: no operation mutates its arguments.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping

from . import Immutable

Shape = tuple[int, ...]
Index = tuple[int, ...]


class TensorError(ValueError):
    """A tensor, shadow system, crystal or certificate input the library
    refuses: out of range, malformed or over a size budget."""


class IntTensor(Immutable):
    """Immutable sparse integer tensor.

    ``shape`` is a tuple of positive mode widths (empty for scalars) and
    ``entries`` maps index tuples to nonzero integers.  Zero entries are
    never stored, so two tensors are equal iff shapes and entry maps are.
    A width, coordinate or value must be an ``int`` that is not a
    ``bool``; nothing is rounded.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape: Iterable[int], entries: Mapping[Index, int] | None = None):
        shape = tuple(shape)
        if not all(type(w) is int for w in shape):
            raise TensorError(f"widths must be integers, got {shape}")
        if any(w < 1 for w in shape):
            raise TensorError(f"widths must be positive, got {shape}")
        clean: dict[Index, int] = {}
        if entries:
            q = len(shape)
            for idx, val in entries.items():
                idx = tuple(idx)
                if type(val) is not int or not all(type(c) is int for c in idx):
                    raise TensorError(f"index {idx} and value {val!r} must be integers")
                if val == 0:
                    continue
                if len(idx) != q or any(not 1 <= c <= w for c, w in zip(idx, shape)):
                    raise TensorError(f"index {idx} invalid for shape {shape}")
                clean[idx] = val
        self._set(shape, clean)

    @classmethod
    def _raw(cls, shape: Shape, entries: dict[Index, int]) -> "IntTensor":
        # Internal fast path: caller guarantees validity and no zero values.
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "entries", entries)
        return t

    def __getitem__(self, idx: Index) -> int:
        return self.entries.get(tuple(idx), 0)

    def __hash__(self):
        return hash((self.shape, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        items = ", ".join(f"{i}: {v}" for i, v in sorted(self.entries.items())[:8])
        more = "..." if len(self.entries) > 8 else ""
        return f"IntTensor(shape={self.shape}, {{{items}{more}}})"

    @property
    def dim(self) -> int:
        return len(self.shape)

    def is_cubical(self) -> bool:
        return len(set(self.shape)) <= 1


def total(t: IntTensor) -> int:
    return sum(t.entries.values())


def is_affine(t: IntTensor) -> bool:
    """Entries sum to 1."""
    return total(t) == 1


def support(t: IntTensor) -> set[Index]:
    return set(t.entries)


def is_hollow(t: IntTensor) -> bool:
    """No support index carries a repeated coordinate."""
    return all(len(set(idx)) == len(idx) for idx in t.entries)


def contract(t: IntTensor, u: IntTensor, over: int) -> IntTensor:
    """Contract the trailing ``over`` modes of ``t`` with the leading ``over`` of ``u``.

    Entry (j, l) of the result is sum_k t(j, k) * u(k, l).  With two matrices
    and over=1 this is the ordinary matrix product; with over equal to both
    dimensions it is the full inner product (a scalar tensor).
    """
    qt, qu = len(t.shape), len(u.shape)
    if not 0 <= over <= min(qt, qu):
        raise TensorError(f"cannot contract over {over} modes of shapes {t.shape}, {u.shape}")
    a = qt - over
    if t.shape[a:] != u.shape[:over]:
        raise TensorError(
            f"shared modes disagree: {t.shape[a:]} vs {u.shape[:over]}"
        )
    by_head: dict[Index, list[tuple[Index, int]]] = {}
    for idx, v in u.entries.items():
        by_head.setdefault(idx[:over], []).append((idx[over:], v))
    out: dict[Index, int] = {}
    for idx, v in t.entries.items():
        for tail, w in by_head.get(idx[a:], ()):
            key = idx[:a] + tail
            s = out.get(key, 0) + v * w
            if s:
                out[key] = s
            else:
                del out[key]
    return IntTensor._raw(t.shape[:a] + u.shape[over:], out)


def _check_selector(sel: Iterable[int], q: int) -> tuple[int, ...]:
    sel = tuple(sel)
    if not all(type(m) is int for m in sel):
        raise TensorError(f"selector {sel} must hold integers")
    if any(not 1 <= m <= q for m in sel):
        raise TensorError(f"selector {sel} out of range for {q} modes")
    return sel


def pushforward(t: IntTensor, fn: Callable[[Index], Index], shape: Iterable[int]) -> IntTensor:
    """Push ``t`` forward along the index map ``fn`` into a tensor of ``shape``.

    Entry i of the result is the sum of the entries of ``t`` at all indices
    j with fn(j) = i; sums that cancel to zero are dropped.  ``fn`` must
    return index tuples inside ``shape``: they are not checked here, so a
    caller mapping through outside data validates that data first.
    """
    out: dict[Index, int] = {}
    for idx, v in t.entries.items():
        key = fn(idx)
        s = out.get(key, 0) + v
        if s:
            out[key] = s
        else:
            del out[key]
    return IntTensor._raw(tuple(shape), out)


def project(t: IntTensor, sel: Iterable[int]) -> IntTensor:
    """Project ``t`` onto the modes selected by ``sel`` (1-based, may repeat;
    each an ``int`` that is not a ``bool``).

    Entry i of the result is the sum of all entries of ``t`` whose index j
    satisfies j_sel = i.  A permutation selector is a reflection (generalized
    transpose); the empty selector yields the scalar total.
    """
    sel = _check_selector(sel, len(t.shape))
    pos = tuple(m - 1 for m in sel)
    # itemgetter of two or more positions returns a tuple but of one a bare
    # coordinate, so one mode, and no mode, take a slice of the index
    if len(pos) > 1:
        key_of = itemgetter(*pos)
    elif pos:
        key_of = itemgetter(slice(pos[0], pos[0] + 1))
    else:
        key_of = itemgetter(slice(0))
    return pushforward(t, key_of, tuple(t.shape[m] for m in pos))


# ---------------------------------------------------------------------------
# .st serialization: a tiny line-oriented text format.
#
#   st 1
#   dims <q>
#   widths <n1> ... <nq>
#   entries <m>
#   <i1> ... <iq> <value>      (m lines, lexicographically sorted)
# ---------------------------------------------------------------------------


def dumps_st(t: IntTensor) -> str:
    lines = ["st 1", f"dims {len(t.shape)}"]
    lines.append(("widths " + " ".join(str(w) for w in t.shape)) if t.shape else "widths")
    items = sorted(t.entries.items())
    lines.append(f"entries {len(items)}")
    for idx, val in items:
        lines.append(" ".join(str(c) for c in idx + (val,)))
    return "\n".join(lines) + "\n"


def loads_st(text: str) -> IntTensor:
    if not isinstance(text, str):
        raise TensorError(f".st payload must be a string, got {type(text).__name__}")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def fail(msg: str):
        raise TensorError(msg)

    def numbers(toks: list[str]) -> list[int] | None:
        """The ints the tokens spell, or None unless each is canonical: ASCII
        ``-?(0|[1-9][0-9]*)``, so no ``+``, ``_``, leading 0 or ``-0``."""
        try:
            nums = list(map(int, toks))
        except ValueError:
            return None
        return nums if list(map(str, nums)) == toks else None

    def header(i: int, word: str, count: int) -> list[int]:
        """The ``count`` ints after ``word`` on header line ``i``."""
        toks = lines[i].split()
        nums = numbers(toks[1:]) if toks[:1] == [word] and len(toks) == count + 1 else None
        if nums is None:
            fail(f"bad {word} line: {lines[i]!r}")
        return nums

    if len(lines) < 4:
        fail("truncated .st payload")
    if lines[0].split() != ["st", "1"]:
        fail(f"bad magic line: {lines[0]!r}")
    (q,) = header(1, "dims", 1)
    if q < 0:
        fail("negative dims")
    shape = tuple(header(2, "widths", q))
    if any(x < 1 for x in shape):
        fail("widths must be positive")
    (count,) = header(3, "entries", 1)
    if count < 0 or len(lines) != 4 + count:
        fail(f"expected {count} entry lines, found {len(lines) - 4}")
    entries: dict[Index, int] = {}
    prev: Index | None = None
    for ln in lines[4:]:
        toks = ln.split()
        if len(toks) != q + 1:
            fail(f"bad entry line: {ln!r}")
        nums = numbers(toks)
        if nums is None:
            fail(f"bad entry line: {ln!r}")
        idx, val = tuple(nums[:q]), nums[q]
        if val == 0:
            fail(f"zero value stored at {idx}")
        if any(not 1 <= c <= wd for c, wd in zip(idx, shape)):
            fail(f"index {idx} out of range for widths {shape}")
        if prev is not None and not prev < idx:
            fail(f"entries not sorted/deduplicated at {idx}")
        prev = idx
        entries[idx] = val
    return IntTensor._raw(shape, entries)

