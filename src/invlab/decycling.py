"""Decycling predicates and the family <-> matrix conversions.

A family decycles a graph when inverting it leaves no directed cycle.  For
tournaments the same information can be carried by a symmetric GF(2) matrix
whose off-diagonal 1-entries mark the arcs to flip; the gram matrix of a
family's characteristic vectors is always such a matrix, and the symmetric
factorization takes a matrix back to a family.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .digraph import (
    OrientedGraph,
    Tournament,
    UsageError,
    VertexFamily,
    _flip,
    _topological_order_or_none,
    invert,
    is_acyclic,
)
from .gf2 import MatGF2, SymMatGF2, factor_symmetric, gram, rank

CERTIFICATE_SCHEMA = "invlab.certificate/1"


class Certificate(NamedTuple):
    """Witness that a claimed inv or tmr value is attained.

    kind "family" carries a VertexFamily with value = number of sets;
    kind "matrix" carries a SymMatGF2 with value = its rank.  `order` is the
    acyclic vertex order after applying the payload: the unique topological
    order for tournaments, the lexicographically least one otherwise.
    """

    kind: str
    payload: Union[VertexFamily, SymMatGF2]
    value: int
    order: tuple[int, ...]

    def to_json_dict(self) -> dict:
        out = {"schema": CERTIFICATE_SCHEMA, "kind": self.kind, "value": self.value}
        if self.kind == "family":
            out["family"] = self.payload.to_lists()
            out["n"] = self.payload.n
        else:
            out["matrix"] = self.payload.to_lists()
        out["order"] = list(self.order)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        """Parse certificate JSON; UsageError names a missing or malformed field or unknown kind."""
        if not isinstance(data, dict):
            raise UsageError("certificate JSON must be an object")
        kind = data.get("kind")
        if kind not in ("family", "matrix"):
            raise UsageError(f"certificate field 'kind' must be 'family' or 'matrix', got {kind!r}")

        def field(name, parse):
            if name not in data:
                raise UsageError(f"{kind} certificate is missing the field {name!r}")
            try:
                return parse(data[name])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"{kind} certificate field {name!r} is malformed: {exc}") from None

        if kind == "family":
            sets = field("family", lambda x: _json_rows(x, _json_int))
        else:
            payload = field("matrix", lambda x: SymMatGF2.from_rows(_json_rows(x, _json_bit)))
        value = field("value", _json_int)
        order = field("order", lambda o: tuple(_json_int(v) for v in _json_list(o)))
        if kind == "family":
            # read last, so a certificate malformed elsewhere names that field
            payload = field("n", lambda x: VertexFamily.from_sets(_json_int(x), sets))
        return cls(kind, payload, value, order)


def _json_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_list(x) -> list:
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {x!r}")
    return x


def _json_bit(x) -> int:
    if _json_int(x) not in (0, 1):
        raise ValueError(f"expected 0 or 1, got {x!r}")
    return x


def _json_rows(x, item) -> list[list[int]]:
    return [[item(v) for v in _json_list(row)] for row in _json_list(x)]


def is_decycling_family(D: OrientedGraph, family: VertexFamily) -> bool:
    """True iff inverting the family leaves D acyclic."""
    return is_acyclic(invert(D, family))


def apply_matrix(T: Tournament, M: SymMatGF2) -> Tournament:
    """Flip exactly the arcs v_i v_j with m_ij = 1; diagonal entries are inert."""
    if not isinstance(T, OrientedGraph) or not T.is_tournament:
        raise TypeError("decycling matrices are defined for tournaments only")
    if M.n != T.n:
        raise ValueError(f"matrix of size {M.n}, tournament on {T.n}")
    return _flip(T, M.rows)


def is_decycling_matrix(T: Tournament, M: SymMatGF2) -> bool:
    """True iff flipping the off-diagonal 1-entries makes T acyclic.

    The diagonal never touches the flipped graph (no loops) but does count
    toward the matrix rank.
    """
    return is_acyclic(apply_matrix(T, M))


def family_to_matrix(family: VertexFamily) -> SymMatGF2:
    """Gram matrix of the family's characteristic vectors; `invert` flips D by its rows."""
    return gram(MatGF2(family.n, family.m, family.char_vectors()))


def matrix_to_family(M: SymMatGF2) -> VertexFamily:
    """A family whose gram matrix is M, via the symmetric factorization.

    Set X_i collects the vertices whose factor row has bit i set, so the
    family has rank(M) sets, or rank(M) + 1 when M is nonzero with an
    all-zero diagonal (and then rank(M) is even).
    """
    X = factor_symmetric(M)
    sets = [
        frozenset(v for v in range(M.n) if (X.rows[v] >> i) & 1) for i in range(X.ncols)
    ]
    return VertexFamily(M.n, tuple(sets))


def family_certificate(D: OrientedGraph, family: VertexFamily) -> Certificate:
    """Certificate that |family| inversions decycle D; raises if they do not."""
    order = _topological_order_or_none(invert(D, family))
    if order is None:
        raise ValueError("family does not decycle the graph")
    return Certificate("family", family, family.m, order)


def matrix_certificate(T: Tournament, M: SymMatGF2) -> Certificate:
    """Certificate that M is a decycling matrix of its rank; raises otherwise."""
    order = _topological_order_or_none(apply_matrix(T, M))
    if order is None:
        raise ValueError("matrix does not decycle the tournament")
    return Certificate("matrix", M, rank(M), order)


# each certificate kind: its issuer, its payload type, and what its value counts
_ISSUERS = {
    "family": (family_certificate, VertexFamily, "number of sets"),
    "matrix": (matrix_certificate, SymMatGF2, "matrix rank"),
}


def certificate_error(D: OrientedGraph, cert: Certificate) -> str | None:
    """None when the certificate replays on D; otherwise the first mismatch.

    The payload is issued again by family_certificate or matrix_certificate,
    whichever issues its kind, and the issued value and order are compared
    with the claimed ones, so issuing and checking share one replay.  The
    issuer's refusal (wrong size, a matrix on a non-tournament, a payload
    that does not decycle) is returned as the mismatch.
    """
    if cert.kind not in _ISSUERS:
        return f"unknown certificate kind {cert.kind!r}"
    issue, payload_type, measure = _ISSUERS[cert.kind]
    if not isinstance(cert.payload, payload_type):
        return f"{cert.kind} certificate does not carry a {payload_type.__name__}"
    try:
        issued = issue(D, cert.payload)
    except (TypeError, ValueError) as exc:
        return str(exc)
    if issued.value != cert.value:
        return f"claimed value {cert.value} but the {measure} is {issued.value}"
    if issued.order != cert.order:
        return f"replayed order {issued.order} differs from recorded {cert.order}"
    return None
