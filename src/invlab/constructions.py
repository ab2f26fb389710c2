"""Explicit witness constructions for dijoins and tournament extensions."""

from __future__ import annotations

from .decycling import (
    Certificate,
    certificate_error,
    family_certificate,
    is_decycling_family,
    is_decycling_matrix,
    matrix_to_family,
)
from .digraph import (
    OrientedGraph,
    Tournament,
    VertexFamily,
    invert,
    transitive_tournament,
)
from .gf2 import SymMatGF2, rank


def compose_dijoin_family(
    D1: OrientedGraph,
    family1: VertexFamily,
    D2: OrientedGraph,
    cert2: Certificate,
) -> VertexFamily:
    """Decycling family for dijoin(D1, D2) with len(family1) + rank sets.

    family1 must decycle D1 (say with L sets).  cert2 supplies either a
    family for D2 (then the result simply concatenates, shifted) or a
    zero-diagonal decycling matrix B of even rank k for D2, in which case B
    factors into k+1 characteristic vectors y with 1.y = y.y = 0 and the
    combined family is

        Y_1 u X_1, ..., Y_{k+1} u X_1, X_2, ..., X_L.

    With a minimum-rank cert2 the result witnesses
    inv(dijoin) <= inv(D1) + tmr(D2).
    """
    if not is_decycling_family(D1, family1):
        raise ValueError("family1 does not decycle the first operand")
    err = certificate_error(D2, cert2)
    if err is not None:
        raise ValueError(f"second certificate fails its check: {err}")
    n1 = D1.n
    n = n1 + D2.n
    if cert2.kind == "family":
        shifted = [frozenset(v + n1 for v in s) for s in cert2.payload.sets]
        return VertexFamily(n, tuple(family1.sets) + tuple(shifted))
    B = cert2.payload
    if any(B.diagonal()) or rank(B) == 0:
        raise ValueError(
            "matrix certificate must be a nonzero zero-diagonal decycling matrix"
        )
    if family1.m == 0:
        # the union layout needs an X_1; with an empty family the bound
        # inv(dijoin) <= tmr(D2) would contradict subgraph monotonicity
        raise ValueError("the zero-diagonal case needs a nonempty family for D1")
    f2 = matrix_to_family(B)  # rank(B) + 1 sets, all characteristic dots even
    first = family1.sets[0]
    merged = [frozenset(v + n1 for v in s) | first for s in f2.sets]
    return VertexFamily(n, tuple(merged) + tuple(family1.sets[1:]))


def block_diag_certificate(
    D1: Tournament, A: SymMatGF2, D2: Tournament, B: SymMatGF2
) -> SymMatGF2:
    """Block-diagonal decycling matrix for dijoin(D1, D2).

    Cross arcs stay untouched, so the blocks decycle independently and the
    rank is rank(A) + rank(B); with minimum-rank inputs this witnesses
    tmr(dijoin) <= tmr(D1) + tmr(D2).
    """
    if not is_decycling_matrix(D1, A):
        raise ValueError("A is not a decycling matrix for the first operand")
    if not is_decycling_matrix(D2, B):
        raise ValueError("B is not a decycling matrix for the second operand")
    return SymMatGF2.block_diag(A, B)


def extend_to_tournament(D: OrientedGraph, family: VertexFamily) -> Tournament:
    """Tournament on V(D) containing D that the family still decycles.

    Complete the inverted graph to the transitive tournament along the
    family certificate's order (its lexicographically least topological
    order), and invert the family back.  family_certificate raises when the
    family does not decycle D.  The output contains D, so whenever the
    family is optimal for D the extension has the same inversion number.
    """
    order = family_certificate(D, family).order
    return invert(transitive_tournament(order), family)
