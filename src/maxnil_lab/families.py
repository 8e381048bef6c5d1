"""Constructors for the maximal linklessly embeddable graph families.

Edge lists transcribed from drawings are frozen as constants and every
constructor re-runs its cheap structural self-checks: vertex and edge
counts, triangle-freeness, contraction identities, planarity of the
parts that must be planar. A failed self-check raises instead of
patching the transcription, since a silent fix would certify the wrong
graph.

The families:

* the Jørgensen graph (two apexes over a prism, 3n-3 edges) and its
  subdivision family J_i;
* the 10-vertex graph G obtained from it by splitting two prism
  vertices, and its 3n-5 subdivision family G_i;
* the triangle-free circulant Q(13,3) meeting the 2n lower bound with
  equality, its degree-2 extensions up to 39 vertices, the chains H_k
  of Q copies glued along an edge, and the resulting n-vertex graphs
  with 2n + 3*ceil((n-3)/36) - 3 edges;
* the order-7 clique sum of two K6-minus-an-edge over K5;
* an 11-vertex graph built over a 9-vertex plane triangulation that is
  maximal linklessly embeddable yet not maximal K6-minor-free, and its
  retriangulation family.

Bound bookkeeping is exact: ratios and the 25n/12 - 1/4 target are
fractions, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence

from .canon import canonical_form
from .cliquesum import CliqueSumSpec, clique_sum
from .embedding import is_planar
from .errors import ConfigurationError, GraphError
from .graph import (
    Edge,
    Graph,
    add_edge,
    build_graph,
    circulant_graph,
    complete_graph,
    contract_edge,
    delete_edge,
    delete_vertex,
    non_triangular_edges,
    subdivide_edge,
)

__all__ = [
    "FamilyParams", "BoundsRow", "jorgensen_graph", "jorgensen_family",
    "graph_g", "family_3n5", "q13_3", "q_extension", "h_k",
    "theorem_main_graph", "k5_sum_example", "fig7_graph", "fig7_family",
    "bounds_table", "build_family", "FAMILY_IDS",
]

# Two apexes u, v joined to every vertex of a prism; 8 vertices, 21
# edges. The prism triangles are xta and yzb, matched by xy, zt, ab.
_J_LABELS = {0: "u", 1: "v", 2: "x", 3: "y", 4: "z", 5: "t", 6: "a", 7: "b"}
_J_PRISM_EDGES = ((2, 3), (2, 5), (2, 6), (3, 4), (3, 7), (4, 5),
                  (4, 7), (5, 6), (6, 7))
# the subdivision family grows along xy, inserting each new vertex next to y
_J_SUBDIVIDED_EDGE = (2, 3)

# The 10-vertex, 25-edge graph obtained from the Jørgensen graph by
# splitting a into the edge ad and b into the edge bc. The apexes lose
# full coverage in the process: u misses a and c, v misses d and b.
_G_LABELS = {0: "u", 1: "v", 2: "x", 3: "t", 4: "z", 5: "y",
             6: "a", 7: "d", 8: "c", 9: "b"}
_G_EDGES = (
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (0, 9),
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 8),
    (2, 3), (2, 5), (2, 6), (3, 4), (3, 7), (4, 5), (4, 8),
    (5, 9), (6, 7), (6, 8), (6, 9), (7, 8), (8, 9),
)
_G_SUBDIVIDED_EDGE = (2, 5)  # xy

# A 9-vertex plane triangulation drawn as three nested triangles: abc
# in the middle, an outer ring 3,4,5 and an inner ring efg, with the
# two bands fully triangulated. abc separates the rings, which is what
# makes its completion by the apex strongly separating; efg bounds a
# face, leaving a disk to retriangulate for the family.
_FIG7_LABELS = {0: "a", 1: "b", 2: "c", 6: "e", 7: "f", 8: "g",
                9: "v", 10: "w"}
_FIG7_TRIANGULATION = (
    (0, 1), (1, 2), (0, 2),
    (3, 4), (4, 5), (3, 5),
    (6, 7), (7, 8), (6, 8),
    (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3),
    (0, 6), (1, 6), (1, 7), (2, 7), (2, 8), (0, 8),
)

def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise ConfigurationError(f"transcription self-check failed: {what}")


def jorgensen_graph() -> Graph:
    """Two apex vertices over a prism: 8 vertices, 21 edges."""
    apex = [(p, w) for p in (0, 1) for w in range(2, 8)]
    g = build_graph(8, list(_J_PRISM_EDGES) + apex, _J_LABELS)
    _expect((g.n, g.m) == (8, 21), "Jørgensen graph counts")
    _expect(not g.has_edge(0, 1), "apexes must be nonadjacent")
    return g


def jorgensen_family(i: int = 0) -> Graph:
    """J_i: i subdivisions along xy, every new vertex joined to u and v."""
    if i < 0:
        raise ConfigurationError(f"subdivision count must be nonnegative, got {i}")
    g = jorgensen_graph()
    x, y = _J_SUBDIVIDED_EDGE
    prev = x
    for j in range(1, i + 1):
        g, z = subdivide_edge(g, (prev, y))
        g = add_edge(add_edge(g, (0, z)), (1, z))
        g = Graph(g.n, g.edges, {**g.label_map(), z: f"z{j}"})
        prev = z
    assert (g.n, g.m) == (8 + i, 3 * (8 + i) - 3)
    return g


def graph_g() -> Graph:
    """The 10-vertex, 25-edge base of the 3n-5 family.

    Construction re-checks that contracting ad and bc gives back the
    Jørgensen graph, that bd is a non-edge (its addition is the one
    augmentation not visible through that contraction), and that xy is
    present for the subdivision family.
    """
    g = build_graph(10, _G_EDGES, _G_LABELS)
    _expect((g.n, g.m) == (10, 25), "graph G counts")
    a, d = g.vertex_by_label("a"), g.vertex_by_label("d")
    c, b = g.vertex_by_label("c"), g.vertex_by_label("b")
    folded = contract_edge(g, (a, d))
    # after dropping vertex 7, the former c and b slide down by one
    folded = contract_edge(folded, (c - 1, b - 1))
    _expect(canonical_form(folded) == canonical_form(jorgensen_graph()),
            "contracting ad and bc must give the Jørgensen graph")
    _expect(not g.has_edge(b, d), "bd must be a non-edge")
    _expect(g.has_edge(*_G_SUBDIVIDED_EDGE), "xy must be an edge")
    return g


def family_3n5(i: int = 0) -> Graph:
    """G_i: subdivide xy, then repeatedly the edge at y, joining u and v."""
    if i < 0:
        raise ConfigurationError(f"subdivision count must be nonnegative, got {i}")
    g = graph_g()
    x, y = _G_SUBDIVIDED_EDGE
    prev = x
    for j in range(1, i + 1):
        g, z = subdivide_edge(g, (prev, y))
        g = add_edge(add_edge(g, (0, z)), (1, z))
        g = Graph(g.n, g.edges, {**g.label_map(), z: f"z{j}"})
        prev = z
    assert (g.n, g.m) == (10 + i, 25 + 3 * i)
    return g


def q13_3() -> Graph:
    """The circulant on 13 vertices with jumps 1 and 3."""
    g = circulant_graph(13, (1, 3))
    _expect((g.n, g.m) == (13, 26), "Q(13,3) counts")
    _expect(len(non_triangular_edges(g)) == g.m, "Q(13,3) must be triangle free")
    return g


def _add_degree2(g: Graph, chosen: Sequence[Edge], where: str) -> Graph:
    seen = set()
    for e in chosen:
        u, v = e
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"edge ({u}, {v}) chosen twice for {where}")
        seen.add(key)
        if not g.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge of {where}")
    for (u, v) in chosen:
        w = g.n
        g = Graph(g.n + 1, g.edges + ((u, w), (v, w)), g.label_map() or None)
    return g


def q_extension(n: int, edges: Optional[Sequence[Edge]] = None) -> Graph:
    """Q(13,3) with n-13 degree-2 vertices along distinct edges.

    Equivalent to clique sums with disjoint triangles over the chosen
    edges; defaults to the lexicographically first edges. Past 39
    vertices every edge is already in a triangle and the construction
    stops producing maximal graphs, so larger n is refused.
    """
    if not 13 <= n <= 39:
        raise ConfigurationError(f"extension order must lie in 13..39, got {n}")
    q = q13_3()
    chosen = tuple(edges) if edges is not None else tuple(sorted(q.edges))[:n - 13]
    if len(chosen) != n - 13:
        raise GraphError(f"need {n - 13} edges, got {len(chosen)}")
    g = _add_degree2(q, chosen, "Q(13,3)")
    assert (g.n, g.m) == (n, 2 * n)
    return g


def h_k(k: int, edges: Optional[Sequence[Edge]] = None) -> Graph:
    """k copies of Q(13,3) glued along one identified edge.

    ``edges`` picks the glued edge in each copy (default (0, 1) in
    all). Every edge of the result is non-triangular, which is what
    lets degree-2 extensions continue past one copy.
    """
    if k < 1:
        raise ConfigurationError(f"copy count must be at least 1, got {k}")
    q = q13_3()
    chosen = list(edges) if edges is not None else [(0, 1)] * k
    if len(chosen) != k:
        raise GraphError(f"need one glued edge per copy, got {len(chosen)} for {k}")
    for e in chosen:
        if not q.has_edge(*e):
            raise GraphError(f"({e[0]}, {e[1]}) is not an edge of Q(13,3)")
    a, b = chosen[0]
    g = q
    for e in chosen[1:]:
        g = clique_sum(CliqueSumSpec(g, q, {a: e[0], b: e[1]}))
    assert (g.n, g.m) == (11 * k + 2, 25 * k + 1)
    return g


def theorem_main_graph(n: int) -> Graph:
    """An n-vertex maximal linklessly embeddable graph with few edges.

    Uses k = ceil((n-3)/36) chained copies of Q(13,3) and tops up to n
    vertices with degree-2 additions along distinct edges, for
    2n + 3k - 3 edges, strictly below 25n/12 - 1/4.
    """
    if n < 13:
        raise ConfigurationError(f"the construction needs n >= 13, got {n}")
    k = -((3 - n) // 36)  # ceil((n-3)/36)
    base = h_k(k)
    extra = n - (11 * k + 2)
    g = _add_degree2(base, tuple(sorted(base.edges))[:extra], f"H_{k}")
    assert (g.n, g.m) == (n, 2 * n + 3 * k - 3)
    assert Fraction(g.m) < Fraction(25 * n, 12) - Fraction(1, 4)
    return g


def k5_sum_example() -> Graph:
    """Two copies of K6 minus an edge glued over their shared K5.

    Seven vertices, 18 edges; the two private vertices a and b miss
    different clique vertices, and removing u leaves a maximal planar
    graph, which the construction re-checks.
    """
    left = delete_edge(complete_graph(6), (0, 5))
    right = delete_edge(complete_graph(6), (1, 5))
    g = clique_sum(CliqueSumSpec(left, right, {v: v for v in range(5)}))
    g = Graph(g.n, g.edges, {0: "x", 1: "y", 2: "z", 3: "t", 4: "u",
                             5: "a", 6: "b"})
    _expect((g.n, g.m) == (7, 18), "K5 sum example counts")
    cone_base = delete_vertex(g, g.vertex_by_label("u"))
    _expect(is_planar(cone_base) and cone_base.m == 3 * cone_base.n - 6,
            "removing u must leave a maximal planar graph")
    return g


def _fig7_triangulation() -> Graph:
    h = build_graph(9, _FIG7_TRIANGULATION,
                    {v: name for v, name in _FIG7_LABELS.items() if v < 9})
    _expect((h.n, h.m) == (9, 21), "9-vertex triangulation counts")
    _expect(is_planar(h) and h.m == 3 * h.n - 6,
            "the base must be a plane triangulation")
    abc = [0, 1, 2]
    _expect(not any(set(abc) <= h.neighbors(w) for w in range(3, 9)),
            "no triangulation vertex may see all of a, b, c")
    return h


def fig7_graph() -> Graph:
    """The triangulation plus an apex v over everything and w over abc."""
    h = _fig7_triangulation()
    edges = list(h.edges) + [(w, 9) for w in range(9)] + [(0, 10), (1, 10), (2, 10)]
    g = build_graph(11, edges, {**h.label_map(), 9: "v", 10: "w"})
    assert (g.n, g.m) == (11, 33)
    return g


def fig7_family(n: int) -> Graph:
    """Retriangulate the efg disk with n-11 vertices, each joined to v.

    New vertices fan along the fg edge: the first lands in the efg
    face, each later one in the face its predecessor left on fg.
    """
    if n < 11:
        raise ConfigurationError(f"the family starts at order 11, got {n}")
    g = fig7_graph()
    v = g.vertex_by_label("v")
    e, f, gg = (g.vertex_by_label(x) for x in ("e", "f", "g"))
    prev = e
    for j in range(1, n - 10):
        t = g.n
        new_edges = [(prev, t), (f, t), (gg, t), (v, t)]
        g = Graph(g.n + 1, g.edges + tuple(new_edges),
                  {**g.label_map(), t: f"t{j}"})
        prev = t
    assert (g.n, g.m) == (n, 33 + 4 * (n - 11))
    return g


class Family(NamedTuple):
    """One family: its CLI name, parameter flag and default, and builder."""

    cli_name: str
    flag: Optional[str]  # CLI flag of the parameter, None when it takes none
    default: Optional[int]  # CLI value when the flag is left out
    build: Callable[[int], Graph]  # ignores its argument when flag is None


# the one registry of the families, keyed by FamilyParams id
FAMILIES = {
    "jorgensen_i": Family("jorgensen", "i", 0, jorgensen_family),
    "g3n5_i": Family("g3n5", "i", 0, family_3n5),
    "q13_3": Family("q13-3", None, None, lambda _: q13_3()),
    "q_extension_n": Family("q-extension", "n", None, q_extension),
    "h_k": Family("h-k", "k", None, h_k),
    "theorem_main_n": Family("theorem-main", "n", None, theorem_main_graph),
    "fig6": Family("fig6", None, None, lambda _: k5_sum_example()),
    "fig7_n": Family("fig7", "n", 11, fig7_family),
}

FAMILY_IDS = tuple(FAMILIES)


@dataclass(frozen=True)
class FamilyParams:
    """A family id plus its integer parameter (0 when the id takes none)."""

    family: str
    index: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_IDS:
            raise ConfigurationError(
                f"unknown family {self.family!r}; choose from {', '.join(FAMILY_IDS)}")
        if self.index < 0:
            raise ConfigurationError("family index must be nonnegative")
        if self.index and FAMILIES[self.family].flag is None:
            raise ConfigurationError(
                f"family {self.family!r} takes no index, got {self.index}")


def build_family(params: FamilyParams) -> Graph:
    """Dispatch a FamilyParams to its constructor."""
    return FAMILIES[params.family].build(params.index)


@dataclass(frozen=True)
class BoundsRow:
    """Edge-count bookkeeping for one graph, all exact rationals."""

    n: int
    m: int
    ratio: Fraction
    aires: int       # 2n lower bound for maximal linkless graphs, n >= 5
    mader: int       # 4n - 10, above which a K6 minor is forced
    target: Fraction  # 25n/12 - 1/4

    @property
    def within_bounds(self) -> bool:
        return self.aires <= self.m <= self.mader

    @property
    def below_target(self) -> bool:
        return Fraction(self.m) < self.target


def bounds_table(graphs: Iterable[Graph]) -> List[BoundsRow]:
    rows = []
    for g in graphs:
        rows.append(BoundsRow(
            n=g.n,
            m=g.m,
            ratio=Fraction(g.m, g.n) if g.n else Fraction(0),
            aires=2 * g.n,
            mader=4 * g.n - 10,
            target=Fraction(25 * g.n, 12) - Fraction(1, 4),
        ))
    return rows
