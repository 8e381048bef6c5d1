"""Clique sums and linking criteria for the glued result.

A clique sum glues two graphs along complete subgraphs of the same
order t, merging the identified vertices. The shared clique becomes a
vertex cut of the sum whenever both sides keep private vertices, and
contraction against such a cut decides intrinsic linking: the sum of
two linklessly embeddable graphs links exactly when two or three
components of the cut complement contract, together with the cut, onto
a K7 minus a triangle. Contracted components are pairwise nonadjacent,
so seven vertices arise only from a clique of order five with two
components or order four with three; sums of linkless graphs over
smaller cliques stay linkless, and sums over order six or more are
always linked because they contain K6.

Maximality criteria refine the test per clique order. Over an edge,
the sum of two maximal graphs is maximal exactly when the edge is
non-triangular on at least one side. Over a triangle that is a minimal
cut, some side must make every induced tetrahedron over that triangle
strongly separating. Over a tetrahedron serving as a minimal cut,
neither side may separate it strongly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import GraphError
from .graph import (
    Edge,
    Graph,
    VertexCut,
    build_graph,
    connected_components,
    induced_subgraph,
    is_triangular_edge,
    vertex_connectivity,
)

__all__ = [
    "CliqueSumSpec", "clique_sum", "hls_clique_sum_is_il",
    "is_strongly_separating", "k2_sum_maxnil_predicate",
    "k3_sum_maxnil_predicate", "k4_sum_maxnil_predicate",
    "decompose_at_cut", "induced_clique_or_c4_subgraph",
]

CutLike = Union[VertexCut, Iterable[int]]


def _cut_vertices(g: Graph, s: CutLike) -> Tuple[int, ...]:
    verts = tuple(sorted(s.vertices if isinstance(s, VertexCut) else s))
    for v in verts:
        g._check_vertex(v)
    if len(set(verts)) != len(verts):
        raise GraphError(f"cut {verts} repeats a vertex")
    return verts


def _require_clique(g: Graph, verts: Sequence[int], what: str) -> None:
    for a, b in itertools.combinations(verts, 2):
        if not g.has_edge(a, b):
            raise GraphError(f"{what} {tuple(verts)} is not a clique: "
                             f"({a}, {b}) missing")


@dataclass(frozen=True)
class CliqueSumSpec:
    """Two graphs plus a clique identification of order one to five.

    ``identification`` pairs a clique of the left graph with one of the
    right, in order; both vertex lists must induce complete subgraphs.
    Order six and up is refused outright since any such sum contains K6
    and is therefore linked.
    """

    left: Graph
    right: Graph
    identification: Tuple[Tuple[int, int], ...]

    def __init__(self, left: Graph, right: Graph,
                 identification: Union[Mapping[int, int], Iterable[Tuple[int, int]]]):
        if isinstance(identification, Mapping):
            pairs = tuple(sorted(identification.items()))
        else:
            pairs = tuple((a, b) for a, b in identification)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "identification", pairs)
        t = len(pairs)
        if not 1 <= t <= 5:
            raise GraphError(f"clique sums are defined for order 1..5, got {t}")
        lefts = [a for a, _ in pairs]
        rights = [b for _, b in pairs]
        if len(set(lefts)) != t or len(set(rights)) != t:
            raise GraphError("identification is not a bijection")
        for v in lefts:
            left._check_vertex(v)
        for v in rights:
            right._check_vertex(v)
        _require_clique(left, lefts, "left identification")
        _require_clique(right, rights, "right identification")

    @property
    def order(self) -> int:
        return len(self.identification)


def clique_sum(spec: CliqueSumSpec) -> Graph:
    """Glue the two graphs, keeping left vertex ids.

    Private right vertices are appended after the left graph in
    ascending order. Labels carry over from both sides, the left graph
    winning any clash.
    """
    left, right = spec.left, spec.right
    to_left = {b: a for a, b in spec.identification}
    lift = dict(to_left)
    nxt = left.n
    for v in range(right.n):
        if v not in lift:
            lift[v] = nxt
            nxt += 1
    edges = set(left.edges)
    for (u, v) in right.edges:
        a, b = lift[u], lift[v]
        edges.add((a, b) if a < b else (b, a))
    labels = dict(left.label_map())
    for v, name in right.label_map().items():
        labels.setdefault(lift[v], name)
    return build_graph(nxt, sorted(edges), labels or None)


def _components_against(g: Graph, cut: Sequence[int]) -> List[Tuple[frozenset, frozenset]]:
    """Components of g minus the cut, by lowest vertex, each with its cut attachment."""
    out = []
    for comp in connected_components(g, cut):
        verts = frozenset(comp)
        out.append((verts, frozenset(c for c in cut if g.neighbors(c) & verts)))
    return out


def hls_clique_sum_is_il(g: Graph, s: CutLike) -> bool:
    """Linking verdict for a graph split by a clique cut.

    Valid when both sides of the cut are linklessly embeddable. The
    test contracts each chosen component to one node adjacent to
    exactly the cut vertices its component touches; chosen nodes are
    pairwise nonadjacent since no edge leaves a component. Seven
    vertices holding a K7 minus a triangle then need either a 5-clique
    with two components or a 4-clique with three, and the subgraph
    exists exactly when the non-edges of the contracted graph touch at
    most three vertices.
    """
    cut = _cut_vertices(g, s)
    _require_clique(g, cut, "cut")
    comps = _components_against(g, cut)
    if len(comps) < 2:
        raise GraphError(f"{cut} does not disconnect the graph")
    cutset = set(cut)
    if len(cut) == 5:
        for (_, att1), (_, att2) in itertools.combinations(comps, 2):
            if len((cutset - att1) | (cutset - att2)) <= 1:
                return True
    if len(cut) == 4:
        for chosen in itertools.combinations(comps, 3):
            if all(att == frozenset(cut) for _, att in chosen):
                return True
    return False


def is_strongly_separating(g: Graph, t: CutLike) -> bool:
    """At least two components of g minus t see every vertex of t."""
    quad = _cut_vertices(g, t)
    if len(quad) != 4:
        raise GraphError(f"expected four vertices, got {quad}")
    _require_clique(g, quad, "tetrahedron")
    full = sum(1 for _, att in _components_against(g, quad)
               if att == frozenset(quad))
    return full >= 2


def _tetrahedra_over(g: Graph, tri: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Induced K4 completions of a triangle: its common neighbors."""
    x, y, z = tri
    apexes = g.neighbors(x) & g.neighbors(y) & g.neighbors(z)
    return tuple(tuple(sorted((x, y, z, t))) for t in sorted(apexes))


def _check_summands(summands: Sequence[Graph], strict: bool) -> None:
    if not strict:
        return
    from .linking import is_maxnil
    for i, g in enumerate(summands, start=1):
        report = is_maxnil(g)
        if report.maxnil_status != "maxnil":
            raise GraphError(f"summand {i} is not maximal linklessly embeddable")


def k2_sum_maxnil_predicate(g1: Graph, e1: Edge, g2: Graph, e2: Edge,
                            strict: bool = False) -> bool:
    """Maximality of the sum of two maximal graphs over an edge.

    Holds exactly when the glued edge is non-triangular in at least one
    summand. Callers certify maxnility of the summands; ``strict``
    re-verifies it here.
    """
    _check_summands((g1, g2), strict)
    for g, e in ((g1, e1), (g2, e2)):
        if not g.has_edge(*e):
            raise GraphError(f"({e[0]}, {e[1]}) is not an edge of the summand")
    return (not is_triangular_edge(g1, e1)) or (not is_triangular_edge(g2, e2))


def k3_sum_maxnil_predicate(g1: Graph, d1: Sequence[int], g2: Graph, d2: Sequence[int],
                            strict: bool = False) -> bool:
    """Maximality of the sum of two maximal graphs over a triangle.

    Requires the identified triangle to be a minimal vertex cut of the
    sum. Holds exactly when, in at least one summand, every induced
    tetrahedron over the designated triangle is strongly separating;
    a summand with no such tetrahedron satisfies that vacuously.
    ``strict`` additionally re-certifies the summands and requires the
    sum to have vertex connectivity exactly three.
    """
    t1, t2 = tuple(d1), tuple(d2)
    spec = CliqueSumSpec(g1, g2, tuple(zip(t1, t2)))
    if spec.order != 3:
        raise GraphError(f"expected triangles, got orders {len(t1)} and {len(t2)}")
    _check_summands((g1, g2), strict)
    g = clique_sum(spec)
    cut = frozenset(t1)
    if not _is_minimal_cut(g, cut):
        raise GraphError("the identified triangle is not a minimal vertex "
                         "cut of the sum; the criterion does not apply")
    if strict and vertex_connectivity(g) != 3:
        raise GraphError("strict mode requires the sum to be exactly "
                         "3-connected")
    for side, tri in ((g1, t1), (g2, t2)):
        if all(is_strongly_separating(side, quad)
               for quad in _tetrahedra_over(side, tri)):
            return True
    return False


def k4_sum_maxnil_predicate(g1: Graph, s1: Sequence[int], g2: Graph, s2: Sequence[int],
                            strict: bool = False) -> bool:
    """Maximality of the sum of two maximal graphs over a tetrahedron.

    Requires the identified K4 to be a minimal vertex cut of the sum.
    Holds exactly when the tetrahedron is strongly separating in
    neither summand.
    """
    q1, q2 = tuple(s1), tuple(s2)
    spec = CliqueSumSpec(g1, g2, tuple(zip(q1, q2)))
    if spec.order != 4:
        raise GraphError(f"expected K4s, got orders {len(q1)} and {len(q2)}")
    _check_summands((g1, g2), strict)
    g = clique_sum(spec)
    if not _is_minimal_cut(g, frozenset(q1)):
        raise GraphError("the identified K4 is not a minimal vertex cut "
                         "of the sum; the criterion does not apply")
    return not (is_strongly_separating(g1, q1) or is_strongly_separating(g2, q2))


def _is_minimal_cut(g: Graph, cut: frozenset) -> bool:
    if len(connected_components(g, cut)) < 2:
        return False
    for r in range(1, len(cut)):
        for sub in itertools.combinations(sorted(cut), r):
            if len(connected_components(g, sub)) > 1:
                return False
    return True


def decompose_at_cut(g: Graph, s: CutLike) -> List[Graph]:
    """One piece per component of g minus the cut, cut included.

    Pieces are induced subgraphs, ordered by their smallest private
    vertex, with labels preserved.
    """
    cut = _cut_vertices(g, s)
    comps = _components_against(g, cut)
    if len(comps) < 2:
        raise GraphError(f"{cut} does not disconnect the graph")
    return [induced_subgraph(g, sorted(verts | set(cut)))
            for verts, _ in comps]


def induced_clique_or_c4_subgraph(g: Graph, s: CutLike) -> bool:
    """Whether the induced subgraph on s is complete or fits inside C4.

    The shapes a minimal 4-cut may induce in a maximal linklessly
    embeddable graph: anything else holds a triangle or a claw, and
    either contradicts maximality.
    """
    verts = _cut_vertices(g, s)
    sub = induced_subgraph(g, verts)
    k = sub.n
    if sub.m == k * (k - 1) // 2:
        return True
    # subgraph of a 4-cycle: at most four vertices, no triangle, max degree 2
    if k > 4 or any(sub.degree(v) > 2 for v in range(k)):
        return False
    comps = connected_components(sub)
    cycles = sum(1 for comp in comps
                 if all(sub.degree(v) == 2 for v in comp))
    paths_len = sum(len(comp) for comp in comps
                    if not all(sub.degree(v) == 2 for v in comp))
    if cycles > 1 or (cycles == 1 and len(comps) > 1):
        return False
    if cycles == 1:
        return k == 4
    return paths_len <= 4
