"""The uniform relaxation witness of the fooling chain and its support
check against a certificate.  No library code calls them yet; they move
back into ``certificate_desk`` when the BA side of that chain does, and
until then ``cert`` calls need not load ``fractions``.

``uniform_qconv_map`` maps each instance vertex tuple to the uniform
distribution on the template value tuples pattern-equivalent to it;
``check_refinement`` asks that a certificate's supports lie inside it.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from crystalforge.certificate_desk import ZaffCertificate
from crystalforge.digraph_lab import Digraph, refines
from crystalforge.tensor_core import Index, TensorError


@dataclass(frozen=True)
class QconvMap:
    k: int
    n: int
    xi: Mapping[Index, dict]  # x-tuple -> {a-tuple: positive Fraction}


def uniform_qconv_map(x_graph: Digraph, n: int, k: int) -> QconvMap:
    """The uniform relaxation witness: each image is the uniform
    distribution on the value tuples pattern-equivalent to its vertex
    tuple, with mass 1 / (n falling-factorial |x|)."""
    if k > n:
        raise TensorError(f"need k <= n, got k={k}, n={n}")
    if not x_graph.is_loopless():
        raise TensorError("instance digraph must be loopless")
    xi: dict[Index, dict] = {}
    for x in itertools.product(range(1, x_graph.vertex_count + 1), repeat=k):
        d = len(set(x))
        count = math.factorial(n) // math.factorial(n - d)
        mass = Fraction(1, count)
        img = {}
        for a in itertools.product(range(1, n + 1), repeat=k):
            if refines(x, a) and refines(a, x):
                img[a] = mass
        xi[x] = img
    return QconvMap(k, n, xi)


def check_refinement(zeta: ZaffCertificate, xi: QconvMap) -> bool:
    """Support inclusion supp(zeta(x)) <= supp(xi(x)) for every x."""
    if zeta.k != xi.k or zeta.template.vertex_count != xi.n:
        raise TensorError("certificate and rational map disagree on k or n")
    for x, t in zeta.zeta.items():
        pos = xi.xi[x]
        if any(a not in pos for a in t.entries):
            return False
    return True
