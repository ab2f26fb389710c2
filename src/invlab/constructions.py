"""Explicit witness constructions for dijoins and tournament extensions."""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Sequence

from .decycling import (
    Certificate,
    certificate_error,
    family_certificate,
    is_decycling_family,
    matrix_to_family,
)
from .digraph import (
    OrientedGraph,
    Tournament,
    VertexFamily,
    invert,
    transitive_tournament,
)
from .gf2 import rank


def join_family(families: Sequence[VertexFamily]) -> VertexFamily:
    """A family that decycles njoin(D_1, ..., D_k), from families F_i that decycle each D_i.

    Each F_i is shifted by the vertices before D_i.  An F_i with an odd
    number of sets, each vertex in an even number of them (a zero-diagonal
    gram matrix, as check_trichotomy's minimum family of a gap class has),
    is merged: the first set X built so far gives way to F_i's sets, each
    unioned with X.  The merges follow every other F_i, which is appended;
    when nothing else is nonempty, the first mergeable F_i is appended as it
    is.  A merge gives each vertex of X an odd number of sets in place of X
    and each vertex of D_i an even number shared with X, so no dot product
    changes parity.  The gram matrix is therefore block diagonal with the
    F_i's grams as blocks: no cross arc flips, and cross arcs run forward in
    join order, so the family decycles the join whenever each F_i decycles
    D_i, and its gram rank is the sum of theirs.
    """
    n, built, merged = 0, [], []
    for f in families:
        sets = [frozenset(v + n for v in s) for s in f.sets]
        n += f.n
        if f.m % 2 and not reduce(xor, f.sets):
            merged.append(sets)
        else:
            built += sets
    for sets in merged:
        built = [s | built[0] for s in sets] + built[1:] if built else sets
    return VertexFamily(n, tuple(built))


def compose_dijoin_family(
    D1: OrientedGraph,
    family1: VertexFamily,
    D2: OrientedGraph,
    cert2: Certificate,
) -> VertexFamily:
    """join_family of family1 and cert2's family: a decycling family for dijoin(D1, D2).

    family1 must decycle D1.  cert2 supplies either a family for D2 or a
    nonzero zero-diagonal decycling matrix B of D2, whose rank k is then
    even; B factors into k+1 characteristic vectors y with 1.y = y.y = 0
    (matrix_to_family), which join_family merges into family1's first set.
    With a minimum family1 and a minimum-rank B the result witnesses
    inv(dijoin) <= inv(D1) + tmr(D2).
    """
    if not is_decycling_family(D1, family1):
        raise ValueError("family1 does not decycle the first operand")
    err = certificate_error(D2, cert2)
    if err is not None:
        raise ValueError(f"second certificate fails its check: {err}")
    if cert2.kind == "family":
        return join_family([family1, cert2.payload])
    B = cert2.payload
    if any(B.diagonal()) or rank(B) == 0:
        raise ValueError(
            "matrix certificate must be a nonzero zero-diagonal decycling matrix"
        )
    if family1.m == 0:
        # the merge needs a set of D1; with an empty family the bound
        # inv(dijoin) <= tmr(D2) would contradict subgraph monotonicity
        raise ValueError("the zero-diagonal case needs a nonempty family for D1")
    return join_family([family1, matrix_to_family(B)])


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
