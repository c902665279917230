"""Systems of shadows: compatibility checking and constructive realisation.

A (p, n)-system assigns a p-dimensional tensor S_i to every strictly
increasing p-tuple i of modes of a target shape n.  The system is
*realistic* when any two shadows agree on every common sub-projection, and
*realisable* when a single tensor C of shape n has all the S_i as its
increasing p-projections.  The two notions coincide, and ``realise``
constructs a witness by nested induction: first on p, then on the total
width sum.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Mapping

from .tensor_core import (
    Index,
    IntTensor,
    Shape,
    TensorError,
    dumps_st,
    loads_st,
    project,
    sub,
)


class NotRealistic(TensorError):
    """Raised by ``realise`` when the compatibility equations fail.

    Carries the first violated quadruple (i, j, r, s) in lexicographic order.
    """

    def __init__(self, quadruple):
        self.quadruple = quadruple
        super().__init__(f"shadow system is not realistic; first violation at {quadruple}")


def increasing_tuples(q: int, p: int) -> list[Index]:
    """All strictly increasing p-tuples over [q], in lexicographic order."""
    return [tuple(c) for c in itertools.combinations(range(1, q + 1), p)]


@dataclass(frozen=True)
class ShadowSystem:
    p: int
    shape: Shape
    shadows: Mapping[Index, IntTensor]

    def __post_init__(self):
        q = len(self.shape)
        if not 1 <= self.p <= q:
            raise TensorError(f"need 1 <= p <= q, got p={self.p}, q={q}")
        object.__setattr__(self, "shape", tuple(self.shape))
        shadows = dict(self.shadows)
        expected = increasing_tuples(q, self.p)
        if set(shadows) != set(expected):
            missing = sorted(set(expected) - set(shadows))
            extra = sorted(set(shadows) - set(expected))
            raise TensorError(f"shadow keys wrong: missing={missing}, extra={extra}")
        for i in expected:
            want = tuple(self.shape[m - 1] for m in i)
            if shadows[i].shape != want:
                raise TensorError(f"shadow {i} has shape {shadows[i].shape}, expected {want}")
        object.__setattr__(self, "shadows", shadows)

    def shadow_at(self, sel: Index) -> IntTensor:
        """Shadow for an arbitrary (possibly non-increasing) injective tuple.

        Only increasing tuples are stored; other orderings are answered by
        reflecting the stored shadow.
        """
        return _reflect(self.shadows, sel)


def _reflect(shadows: Mapping[Index, IntTensor], sel: Index) -> IntTensor:
    """The shadow on the injective mode tuple ``sel``: the stored shadow on
    its sorted form, with its modes reordered to follow ``sel``."""
    key = tuple(sorted(sel))
    return project(shadows[key], tuple(key.index(m) + 1 for m in sel))


def constant_system(s: IntTensor, q: int) -> ShadowSystem:
    """The system assigning the same cubical tensor to every increasing tuple."""
    if not s.is_cubical() or s.dim == 0:
        raise TensorError("constant systems need a cubical tensor of dimension >= 1")
    p = s.dim
    width = s.shape[0]
    return ShadowSystem(p, (width,) * q, {i: s for i in increasing_tuples(q, p)})


def is_realistic(sys: ShadowSystem, witness: bool = False):
    """Check all pairwise compatibility equations.

    Shadows i and j must agree on every common (p-1)-tuple of modes:
    project(S_i, r) == project(S_j, s) whenever i∘r == j∘s.  Two distinct
    shadows share at most one such tuple, so the projections are bucketed
    by their tuple of modes and each bucket is compared against its first
    member.

    Returns True/False; with ``witness=True`` returns (ok, quadruple) where
    the quadruple (i, j, r, s) is the first violation in lexicographic order
    (None when realistic).
    """
    subsel = increasing_tuples(sys.p, sys.p - 1)
    buckets: dict[Index, list[tuple[Index, Index, IntTensor]]] = {}
    for i in increasing_tuples(len(sys.shape), sys.p):
        for r in subsel:
            modes = tuple(i[x - 1] for x in r)
            buckets.setdefault(modes, []).append((i, r, project(sys.shadows[i], r)))
    first = None
    for members in buckets.values():
        # members are in increasing i, so the bucket's least violation pairs
        # its first member with the first member that disagrees with it
        i, r, head = members[0]
        for j, s, t in members[1:]:
            if t != head:
                if first is None or (i, j, r, s) < first:
                    first = (i, j, r, s)
                break
    ok = first is None
    return (ok, first) if witness else ok


def verify_realisation(c: IntTensor, sys: ShadowSystem) -> bool:
    if c.shape != sys.shape:
        return False
    return all(project(c, i) == sys.shadows[i] for i in increasing_tuples(len(sys.shape), sys.p))


def realise(sys: ShadowSystem) -> IntTensor:
    """Construct a tensor whose increasing p-projections are the given shadows.

    Raises NotRealistic (with the first violated quadruple) when the system
    fails the compatibility check.  The construction is deterministic; the
    only free choice is the mode-rotation tie-break documented in
    ``_realise``.
    """
    ok, quad = is_realistic(sys, witness=True)
    if not ok:
        raise NotRealistic(quad)
    return _realise(sys.p, sys.shape, dict(sys.shadows))


def _slice_last(t: IntTensor, coord: int) -> IntTensor:
    """Fix the last mode at ``coord`` and drop it."""
    return IntTensor._raw(
        t.shape[:-1], {idx[:-1]: v for idx, v in t.entries.items() if idx[-1] == coord}
    )


def _truncate_last(t: IntTensor) -> IntTensor:
    """Drop the final coordinate of the last mode (width shrinks by one)."""
    w = t.shape[-1]
    return IntTensor._raw(
        t.shape[:-1] + (w - 1,), {idx: v for idx, v in t.entries.items() if idx[-1] < w}
    )


def _permute_shadows(p, shape, shadows, perm):
    """Relabel modes: new mode m corresponds to old mode perm[m-1]."""
    q = len(shape)
    new_shape = tuple(shape[perm[m] - 1] for m in range(q))
    new_shadows = {}
    for i_new in increasing_tuples(q, p):
        new_shadows[i_new] = _reflect(shadows, tuple(perm[m - 1] for m in i_new))
    return new_shape, new_shadows


def _realise(p: int, shape: Shape, shadows: dict[Index, IntTensor]) -> IntTensor:
    """Realise a realistic (p, shape)-system.

    The rotate step, the p = 1 peel and the tilde step each reduce the same
    p-system by one unit of width; they run as a loop that records how to
    rebuild the larger tensor, and the records are applied in reverse once
    the base case is reached.  Only the hat system of the general step
    recurses, on p - 1, so the recursion depth is at most q.
    """
    undo: list[tuple] = []
    while True:
        q = len(shape)

        # A (q, n)-system is its own realisation.
        if p == q:
            c = shadows[tuple(range(1, q + 1))]
            break

        # Base of the width induction: a single cell, value shared by all
        # shadows.
        if all(w == 1 for w in shape):
            any_shadow = shadows[tuple(range(1, p + 1))]
            v = any_shadow.entries.get((1,) * p, 0)
            c = IntTensor._raw(shape, {(1,) * q: v} if v else {})
            break

        # The induction step peels the last mode, so rotate a mode of width
        # >= 2 into last position when needed.  Tie-break: the highest-index
        # wide mode.
        if shape[-1] < 2:
            t = max(m for m in range(1, q + 1) if shape[m - 1] >= 2)
            perm = list(range(1, q + 1))
            perm[t - 1], perm[q - 1] = perm[q - 1], perm[t - 1]
            perm = tuple(perm)
            shape, shadows = _permute_shadows(p, shape, shadows, perm)
            # A transposition is its own inverse, so the same selector
            # undoes it.
            undo.append(("rotate", perm))
            continue

        nq = shape[-1]

        if p == 1:
            # Peel the final value of the last mode's shadow into the corner
            # cell and compensate the other shadows at their own final
            # coordinate.
            sq = shadows[(q,)]
            ell = sq.entries.get((nq,), 0)
            new_shadows: dict[Index, IntTensor] = {}
            for m in range(1, q):
                sm = shadows[(m,)]
                ent = dict(sm.entries)
                at = (shape[m - 1],)
                v = ent.get(at, 0) - ell
                if v:
                    ent[at] = v
                else:
                    ent.pop(at, None)
                new_shadows[(m,)] = IntTensor._raw(sm.shape, ent)
            new_shadows[(q,)] = _truncate_last(sq)
            # the all-max corner index equals the shape tuple
            undo.append(("place", shape, {shape: ell} if ell else {}))
            shape, shadows = shape[:-1] + (nq - 1,), new_shadows
            continue

        # General step (2 <= p < q, nq >= 2): split off the final slice of
        # the last mode.  The hat system prescribes that slice via the
        # shadows that use mode q; the tilde system is what remains after
        # subtracting it.
        hat_shadows = {
            i: _slice_last(shadows[i + (q,)], nq) for i in increasing_tuples(q - 1, p - 1)
        }
        chat = _realise(p - 1, shape[:-1], hat_shadows)
        til_shadows: dict[Index, IntTensor] = {}
        for i in increasing_tuples(q, p):
            if i[-1] == q:
                til_shadows[i] = _truncate_last(shadows[i])
            else:
                til_shadows[i] = sub(shadows[i], project(chat, i))
        undo.append(("place", shape, {idx + (nq,): v for idx, v in chat.entries.items()}))
        shape, shadows = shape[:-1] + (nq - 1,), til_shadows

    for step in reversed(undo):
        if step[0] == "rotate":
            c = project(c, step[1])
        else:
            _, full_shape, cells = step
            out = dict(c.entries)
            out.update(cells)
            c = IntTensor._raw(full_shape, out)
    return c


# ---------------------------------------------------------------------------
# JSON interchange:
#   {"p": int, "widths": [...], "shadows": [{"axes": [...], "tensor": ...}]}
# where "tensor" is either an inline .st payload or a path (relative to the
# JSON file) of a .st file.
# ---------------------------------------------------------------------------


def system_to_json(sys: ShadowSystem) -> str:
    blobs = [
        {"axes": list(i), "tensor": dumps_st(sys.shadows[i])}
        for i in increasing_tuples(len(sys.shape), sys.p)
    ]
    return json.dumps(
        {"p": sys.p, "widths": list(sys.shape), "shadows": blobs}, indent=2
    ) + "\n"


def system_from_json(text: str, base_dir: str | None = None) -> ShadowSystem:
    try:
        doc = json.loads(text)
        p = int(doc["p"])
        shape = tuple(int(w) for w in doc["widths"])
        shadows = {}
        for blob in doc["shadows"]:
            axes = tuple(int(a) for a in blob["axes"])
            payload = blob["tensor"]
            if "\n" in payload:
                shadows[axes] = loads_st(payload)
            else:
                path = payload if base_dir is None else os.path.join(base_dir, payload)
                with open(path, "r", encoding="utf-8") as fh:
                    shadows[axes] = loads_st(fh.read())
    except (KeyError, TypeError, ValueError) as exc:
        raise TensorError(f"bad shadow-system JSON: {exc}") from exc
    return ShadowSystem(p, shape, shadows)
