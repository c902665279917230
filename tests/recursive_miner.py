"""The recursive hollow-crystal miner, kept as the oracle for the closed
form in ``crystal_mill.mine_hollow_crystal``.

It builds H_k from H_{k-1} through ``crystalise`` and ``quartz`` from
``crystal_mill`` and its own ``pad``, so it also exercises the shadow
realiser that ``crystalise`` calls.
"""

from crystalforge.crystal_mill import crystalise, quartz
from crystalforge.tensor_core import IntTensor, TensorError


def pad(c, layers):
    """Grow every mode by ``layers`` zero layers, keeping entries in place."""
    if not c.is_cubical():
        raise TensorError(f"shape {c.shape} is not cubical")
    if layers < 0:
        raise TensorError("layers must be >= 0")
    if c.dim == 0:
        return c
    w = c.shape[0] + layers
    return IntTensor._raw((w,) * c.dim, dict(c.entries))


def recursive_miner(k):
    """The recursive construction the closed form replaced, kept as the
    oracle: crystallise H_{k-1} one dimension up, pad with k zero layers,
    then subtract one quartz per support cell, anchored at the fresh
    coordinates (n̂+1, ..., n), to relocate every tie into the padding."""
    if k < 1:
        raise TensorError("k must be >= 1")
    if k == 1:
        return IntTensor._raw((1,), {(1,): 1})
    u = recursive_miner(k - 1)
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
