"""Answer checks that share no code with crystalforge.

Tensors are plain ``{index tuple: int}`` dicts parsed from ``.st`` text
here; a projection is a short sum over entries; homomorphisms are found
by brute force.  Every check runs outside the timed span of an operation.
"""

from __future__ import annotations

import itertools
import json


def parse_st(text: str) -> tuple[tuple[int, ...], dict]:
    lines = text.split("\n")
    widths = tuple(int(w) for w in lines[2].split()[1:])
    count = int(lines[3].split()[1])
    entries = {}
    for ln in lines[4 : 4 + count]:
        nums = [int(x) for x in ln.split()]
        entries[tuple(nums[:-1])] = nums[-1]
    return widths, entries


def format_st(widths, entries: dict) -> str:
    lines = ["st 1", f"dims {len(widths)}", " ".join(["widths", *map(str, widths)])]
    items = sorted((i, v) for i, v in entries.items() if v)
    lines.append(f"entries {len(items)}")
    lines += [" ".join(map(str, (*i, v))) for i, v in items]
    return "\n".join(lines) + "\n"


def projection(entries: dict, sel) -> dict:
    """Sum entries over all indices with the same coordinates at ``sel``
    (1-based modes); zero sums are dropped."""
    out: dict = {}
    for idx, v in entries.items():
        key = tuple(idx[m - 1] for m in sel)
        out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def increasing(q: int, p: int):
    return list(itertools.combinations(range(1, q + 1), p))


def realises(widths, entries, want_widths, shadows: dict) -> bool:
    """Every increasing projection named in ``shadows`` matches it."""
    return tuple(widths) == tuple(want_widths) and all(
        projection(entries, sel) == s for sel, s in shadows.items()
    )


def is_hollow_affine_crystal(widths, entries, k: int) -> bool:
    """Mined-crystal contract: dimension k, width (k^2+k)/2, entries sum to
    1, all increasing (k-1)-projections equal and free of ties."""
    n = (k * k + k) // 2
    if tuple(widths) != (n,) * k or sum(entries.values()) != 1:
        return False
    sels = increasing(k, k - 1)
    base = projection(entries, sels[0])
    if any(projection(entries, s) != base for s in sels[1:]):
        return False
    return all(len(set(i)) == len(i) for i in base)


def has_hom(n: int, edges, m: int, t_edges) -> bool:
    t = set(map(tuple, t_edges))
    return any(
        all((f[u - 1], f[v - 1]) in t for u, v in edges)
        for f in itertools.product(range(1, m + 1), repeat=n)
    )


def clique_edges(n: int) -> list:
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]


def digraph_doc(text: str) -> tuple[int, list]:
    doc = json.loads(text)
    return doc["vertices"], [tuple(e) for e in doc["edges"]]
