"""Systems of shadows: compatibility checking and constructive realisation.

A (p, n)-system assigns a p-dimensional tensor S_i to every strictly
increasing p-tuple i of modes of a target shape n = (n_1, ..., n_q).  The
system is *realistic* when any two shadows agree on every common
sub-projection, and *realisable* when a single tensor C of shape n has all
the S_i as its increasing p-projections.  The two notions coincide, and
``realise`` constructs a witness in closed form:

    C = sum over T ⊆ [q] with |T| <= p of
        (-1)^(p-|T|) * binom(q-|T|-1, p-|T|) * E_T(pi_T)

Here pi_T is the projection onto the modes T of any shadow S_i with T ⊆ i,
and E_T places the entries of pi_T on the modes in T with every other mode
m at its last coordinate n_m (the *corner*).  When |T| = p the coefficient
is 1; when p = q only T = [q] is left and the shadow itself comes back.
Every entry of C has at most p coordinates off the corner.

Proof.  pi_T is well defined: any two p-sets containing T are joined by a
chain of p-sets containing T in which neighbours share p - 1 modes, and
neighbouring shadows agree on those, hence on T.  Split each mode's
Z^(n_m) as span(delta_(n_m)) ⊕ {zero-sum vectors}.  For S ⊆ [q] with
|S| <= p let C_S = sum over T ⊆ S of (-1)^(|S|-|T|) E_T(pi_T), the
Möbius inverse of E_T(pi_T) = sum over S ⊆ T of C_S.  C_S sits at the
corner off S, and it is zero-sum along every m in S: summing mode m out
of E_T(pi_T) and of E_(T+m)(pi_(T+m)) (m not in T) gives the same
tensor, because pi_T is a projection of pi_(T+m), and the two carry
opposite signs.  Let C = sum of C_S over |S| <= p.  Projecting onto an
increasing p-tuple i sums out the modes off i, which kills every C_S with
S ⊄ i, so the projection of C is that of sum over S ⊆ i of C_S =
E_i(pi_i), which is S_i.  Collecting the terms of C by T (p < q), the
coefficient of E_T(pi_T) with |T| = t is
sum_(j=0..p-t) (-1)^j binom(q-t, j) = (-1)^(p-t) binom(q-t-1, p-t).  All
coefficients are integers, so C is an integer tensor.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Mapping, Optional

from . import Immutable, int_args, json_int, json_keys, json_once, refuse_over
from .tensor_core import (
    Index,
    IntTensor,
    Shape,
    TensorError,
    dumps_st,
    loads_st,
    project,
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


class ShadowSystem(Immutable):
    """Immutable system of shadows: one tensor per increasing p-tuple of
    the q = len(shape) modes, of the widths those modes select.  p and
    each width must be an ``int`` that is not a ``bool``."""

    __slots__ = ("p", "shape", "shadows")

    def __init__(self, p: int, shape: Shape, shadows: Mapping[Index, IntTensor]):
        """Refuse keys other than the C(q,p) increasing p-tuples over [q]
        without listing those: each key must be one, and then their
        number must be C(q,p)."""
        shape = tuple(shape)
        int_args(TensorError, p=p)
        if not all(type(w) is int for w in shape):
            raise TensorError(f"widths must be integers, got {shape}")
        q = len(shape)
        if not 1 <= p <= q:
            raise TensorError(f"need 1 <= p <= q, got p={p}, q={q}")
        shadows = dict(shadows)
        extra = sorted(i for i in shadows if not (
            len(i) == p and 1 <= i[0] and i[-1] <= q and all(a < b for a, b in zip(i, i[1:]))))
        count = math.comb(q, p)
        if extra or len(shadows) != count:
            # the keys are distinct, so the first missing tuple is among
            # the first len(shadows) + 1 in lexicographic order
            first = next((i for i in itertools.combinations(range(1, q + 1), p)
                          if i not in shadows), None)
            raise TensorError(
                f"shadow keys wrong: {count - len(shadows) + len(extra)} of the C({q},{p}) = "
                f"{count} increasing tuples missing, first missing={first}, extra={extra}"
            )
        for i in sorted(shadows):
            want = tuple(shape[m - 1] for m in i)
            if shadows[i].shape != want:
                raise TensorError(f"shadow {i} has shape {shadows[i].shape}, expected {want}")
        self._set(p, shape, shadows)


def constant_system(s: IntTensor, q: int) -> ShadowSystem:
    """The system assigning the same cubical tensor to every increasing tuple."""
    if not s.is_cubical() or s.dim == 0:
        raise TensorError("constant systems need a cubical tensor of dimension >= 1")
    p = s.dim
    width = s.shape[0]
    return ShadowSystem(p, (width,) * q, {i: s for i in increasing_tuples(q, p)})


def is_realistic(sys: ShadowSystem) -> tuple[bool, Optional[tuple]]:
    """Check all pairwise compatibility equations.

    Shadows i and j must agree on every common (p-1)-tuple of modes:
    project(S_i, r) == project(S_j, s) whenever i∘r == j∘s.  Two distinct
    shadows share at most one such tuple, so the projections are bucketed
    by their tuple of modes and each bucket is compared against its first
    member.

    Returns (ok, quadruple), where the quadruple (i, j, r, s) is the first
    violation in lexicographic order (None when realistic).
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
    return first is None, first


def verify_realisation(c: IntTensor, sys: ShadowSystem) -> bool:
    if c.shape != sys.shape:
        return False
    return all(project(c, i) == sys.shadows[i] for i in increasing_tuples(len(sys.shape), sys.p))


def realise(sys: ShadowSystem) -> IntTensor:
    """Construct a tensor whose increasing p-projections are the given shadows.

    Raises NotRealistic (with the first violated quadruple) when the system
    fails the compatibility check.  The tensor is the closed-form sum of
    the module docstring, a function of the shadows alone.  A realistic
    system whose sum takes over ``_MAX_REALISE_READS`` reads is refused
    with TensorError before it is summed.
    """
    ok, quad = is_realistic(sys)
    if not ok:
        raise NotRealistic(quad)
    q, nnz = len(sys.shape), max(len(s.entries) for s in sys.shadows.values())
    _check_realise_reads(q, sys.p, nnz, f"realising {len(sys.shadows)} shadows of dimension "
                                        f"{sys.p} and at most {nnz} entries on q = {q} modes")
    return _realise(sys)


# the most reads ``_realise`` makes, C(q,p) * (nnz+1) * sum over t <= p of
# C(q,t) for shadows of at most nnz entries: the realisation has at most
# nnz entries from each of the sum's projections, and the final check
# projects it C(q,p) times.  A width-400 line of 400 entries lifted to
# q = 70 (1,992,970 reads) takes 1.0 s at 31 MB peak RSS, and H_3 to q = 13
# (1,513,512) 0.3 s; H_3 to q = 20 (20,003,400) took 4.4 s, and to q = 2000
# ran out of memory
_MAX_REALISE_READS = 2 * 10**6


def _check_realise_reads(q: int, p: int, nnz: int, what: str) -> None:
    """Refuse, with TensorError naming ``what``, a realisation of a
    (p, q)-system with at most ``nnz`` entries per shadow that takes more
    than ``_MAX_REALISE_READS`` reads.  At p = q the shadow comes back as
    it is, with no reads."""
    if p < q:
        reads = math.comb(q, p) * (nnz + 1) * sum(math.comb(q, t) for t in range(p + 1))
        refuse_over(reads, _MAX_REALISE_READS, f"{what} takes {reads} reads", TensorError)


def _coefficient(q: int, p: int, t: int) -> int:
    """The coefficient of E_T(pi_T) for |T| = t in the realisation of a
    (p, q)-system, t <= p < q: (-1)^(p-t) * binom(q-t-1, p-t)."""
    return (-1) ** (p - t) * math.comb(q - t - 1, p - t)


def _realise(sys: ShadowSystem) -> IntTensor:
    """Realise a realistic (p, shape)-system by the inclusion-exclusion sum
    of the module docstring.  Each pi_T is projected from one pi of the
    next size up; there is no recursion, so the depth is 1 at any width.
    The result is checked against every shadow before it is returned
    (AssertionError on a mismatch).
    """
    p, shape, shadows = sys.p, sys.shape, sys.shadows
    q = len(shape)
    if p == q:
        return shadows[tuple(range(1, q + 1))]
    pi: dict[Index, IntTensor] = {i: shadows[i] for i in increasing_tuples(q, p)}
    for t in range(p, 0, -1):
        for up in increasing_tuples(q, t):
            for x in range(t):
                low = up[:x] + up[x + 1:]
                if low not in pi:
                    pi[low] = project(pi[up], [y for y in range(1, t + 1) if y != x + 1])
    out: dict[Index, int] = {}
    for modes, s in pi.items():
        coeff = _coefficient(q, p, len(modes))
        for idx, v in s.entries.items():
            # E_T: the entry sits at idx on the modes in T, at the corner elsewhere
            key = list(shape)
            for m, x in zip(modes, idx):
                key[m - 1] = x
            key = tuple(key)
            total = out.get(key, 0) + coeff * v
            if total:
                out[key] = total
            else:
                del out[key]
    c = IntTensor._raw(tuple(shape), out)
    if not verify_realisation(c, sys):
        raise AssertionError("realisation does not reproduce its shadows")
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
    """The shadow system of a JSON document.  A repeated key, or a key
    other than ``p``, ``widths`` and ``shadows`` (``axes`` and ``tensor``
    in a shadow), is refused with the other format faults: a
    ``TensorError`` starting ``bad shadow-system JSON``.  The keys are
    checked after everything else is read."""
    try:
        doc = json.loads(text, object_pairs_hook=json_once)
        p = json_int(doc["p"])
        shape = tuple(json_int(w) for w in doc["widths"])
        shadows = {}
        for blob in doc["shadows"]:
            axes = tuple(json_int(a) for a in blob["axes"])
            if axes in shadows:
                raise ValueError(f"duplicate shadow for axes {axes}")
            payload = blob["tensor"]
            if "\n" in payload:
                shadows[axes] = loads_st(payload)
            else:
                path = payload if base_dir is None else os.path.join(base_dir, payload)
                with open(path, "r", encoding="utf-8") as fh:
                    shadows[axes] = loads_st(fh.read())
        json_keys(doc, {"p", "widths", "shadows"})
        for blob in doc["shadows"]:
            json_keys(blob, {"axes", "tensor"})
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise TensorError(f"bad shadow-system JSON: {exc}") from exc
    return ShadowSystem(p, shape, shadows)
