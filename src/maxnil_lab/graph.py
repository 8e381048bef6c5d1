"""Simple-graph values and elementary transformations.

Vertices are dense integers 0..n-1, so a graph is fully described by its
order and edge set. Optional string labels attach figure-style names
(u, v, x, ...) to vertex ids and follow them through every operation:
deletions reindex densely, a contraction keeps the surviving endpoint's
label, and vertices created by subdivision or splitting start unnamed.

Every operation returns a fresh Graph. Values are immutable, hashable by
structure (labels are decoration and excluded from equality), and safe
to share between threads or to send to worker processes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import GraphError

Edge = Tuple[int, int]


class Graph:
    __slots__ = ("n", "_edges", "_adj", "_labels")

    def __init__(self, n: int, edges: Iterable[Edge] = (), labels: Optional[Mapping[int, str]] = None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise GraphError(f"order must be a nonnegative integer, got {n!r}")
        self.n = n
        adj = [set() for _ in range(n)]
        seen = set()
        for e in edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            ne = (u, v) if u < v else (v, u)
            if ne in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(ne)
            adj[u].add(v)
            adj[v].add(u)
        self._edges = frozenset(seen)
        self._adj = tuple(frozenset(s) for s in adj)
        if labels is None:
            self._labels = None
        else:
            lab: list = [None] * n
            used = set()
            for vtx, name in dict(labels).items():
                if not (isinstance(vtx, int) and 0 <= vtx < n):
                    raise GraphError(f"label for unknown vertex {vtx!r}")
                if name in used:
                    raise GraphError(f"duplicate label {name!r}")
                used.add(name)
                lab[vtx] = name
            self._labels = tuple(lab)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(sorted((len(s) for s in self._adj), reverse=True))

    def non_edges(self) -> Tuple[Edge, ...]:
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if v not in self._adj[u]:
                    out.append((u, v))
        return tuple(out)

    def label(self, v: int) -> Optional[str]:
        self._check_vertex(v)
        return self._labels[v] if self._labels is not None else None

    def label_map(self) -> dict:
        if self._labels is None:
            return {}
        return {v: name for v, name in enumerate(self._labels) if name is not None}

    def vertex_by_label(self, name: str) -> int:
        if self._labels is not None and name in self._labels:
            return self._labels.index(name)
        raise GraphError(f"no vertex labeled {name!r}")

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.n):
            raise GraphError(f"vertex {v!r} is not in 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Graph, (self.n, self.edges, self.label_map() or None))


def build_graph(order: int, edges: Iterable[Edge] = (), labels: Optional[Mapping[int, str]] = None) -> Graph:
    """Construct a simple graph, rejecting loops, duplicates and bad ids."""
    return Graph(order, edges, labels)


def _carry_labels(g: Graph, keep: Sequence[int]) -> Optional[dict]:
    old = g.label_map()
    if not old:
        return None
    out = {}
    for new_id, old_id in enumerate(keep):
        if old_id in old:
            out[new_id] = old[old_id]
    return out or None


def deletion_mapping(n: int, removed: Iterable[int]) -> dict:
    """Old id to new id map after deleting ``removed`` and reindexing densely."""
    gone = set(removed)
    mapping = {}
    nxt = 0
    for v in range(n):
        if v not in gone:
            mapping[v] = nxt
            nxt += 1
    return mapping


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for (u, v) in g.edges if u in pos and v in pos]
    return Graph(len(keep), edges, _carry_labels(g, keep))


def delete_vertices(g: Graph, vertices: Iterable[int]) -> Graph:
    gone = set(vertices)
    for v in gone:
        g._check_vertex(v)
    return induced_subgraph(g, (v for v in range(g.n) if v not in gone))


def delete_vertex(g: Graph, v: int) -> Graph:
    return delete_vertices(g, (v,))


def add_edge(g: Graph, e: Edge) -> Graph:
    u, v = e
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) is already present")
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    return Graph(g.n, g.edges + ((u, v),), g.label_map() or None)


def delete_edge(g: Graph, e: Edge) -> Graph:
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) is not in the graph")
    ne = (u, v) if u < v else (v, u)
    return Graph(g.n, tuple(x for x in g.edges if x != ne), g.label_map() or None)


def contract_edge(g: Graph, e: Edge) -> Graph:
    """Merge the endpoints of e into the smaller id, collapsing duplicates.

    The larger endpoint disappears and remaining vertices reindex densely,
    so contracting the last-numbered vertex leaves other ids untouched.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) is not in the graph")
    s, t = (u, v) if u < v else (v, u)
    edges = set()
    for (a, b) in g.edges:
        a2 = s if a == t else a
        b2 = s if b == t else b
        if a2 == b2:
            continue
        edges.add((a2, b2) if a2 < b2 else (b2, a2))
    merged = Graph(g.n, sorted(edges), g.label_map() or None)
    return delete_vertex(merged, t)


def subdivide_edge(g: Graph, e: Edge) -> Tuple[Graph, int]:
    """Replace e by a length-2 path through a fresh vertex; returns (graph, new id)."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) is not in the graph")
    ne = (u, v) if u < v else (v, u)
    w = g.n
    edges = tuple(x for x in g.edges if x != ne) + ((u, w), (v, w))
    return Graph(g.n + 1, edges, g.label_map() or None), w


def split_vertex(g: Graph, v: int, side_a: Iterable[int], side_b: Iterable[int],
                 shared: Iterable[int] = ()) -> Graph:
    """Replace v by an adjacent pair v, v' dividing its neighborhood.

    side_a stays on v, side_b moves to the new vertex v' = n, and shared
    vertices attach to both. Contracting the new edge vv' recovers g.
    """
    g._check_vertex(v)
    nbrs = g.neighbors(v)
    sa = set(side_a) | set(shared)
    sb = set(side_b) | set(shared)
    for w in sa | sb:
        if w not in nbrs:
            raise GraphError(f"vertex {w} is not a neighbor of {v}")
    if sa | sb != set(nbrs):
        missing = sorted(set(nbrs) - (sa | sb))
        raise GraphError(f"split sides do not cover the neighborhood of {v}: missing {missing}")
    new = g.n
    edges = [x for x in g.edges if v not in x]
    edges += [(min(v, w), max(v, w)) for w in sorted(sa)]
    edges += [(w, new) for w in sorted(sb)]
    edges.append((v, new))
    return Graph(g.n + 1, edges, g.label_map() or None)


def triangle_to_y(g: Graph, triangle: Sequence[int]) -> Graph:
    """The delta-to-Y move: remove a triangle, join a new vertex to its corners."""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)):
        raise GraphError(f"vertices {tuple(triangle)} do not induce a triangle")
    drop = {tuple(sorted(p)) for p in ((a, b), (b, c), (a, c))}
    w = g.n
    edges = tuple(x for x in g.edges if x not in drop) + tuple((v, w) for v in sorted((a, b, c)))
    return Graph(g.n + 1, edges, g.label_map() or None)


def y_to_triangle(g: Graph, center: int) -> Graph:
    """The Y-to-delta move: remove a degree-3 vertex, pairwise join its neighbors.

    Edges already present between the neighbors are kept as they are, which
    collapses the duplicates the move would otherwise create.
    """
    if g.degree(center) != 3:
        raise GraphError(f"vertex {center} has degree {g.degree(center)}, not 3")
    nbrs = sorted(g.neighbors(center))
    edges = set(g.edges)
    for p, q in itertools.combinations(nbrs, 2):
        edges.add((p, q))
    return delete_vertex(Graph(g.n, sorted(edges), g.label_map() or None), center)


def permute_vertices(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel so that old vertex i becomes perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of the vertex ids")
    edges = [(perm[u], perm[v]) for (u, v) in g.edges]
    old = g.label_map()
    labels = {perm[v]: name for v, name in old.items()} if old else None
    return Graph(g.n, edges, labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    off = g.n
    edges = list(g.edges) + [(u + off, v + off) for (u, v) in h.edges]
    labels = {}
    labels.update(g.label_map())
    for v, name in h.label_map().items():
        if name in labels.values():
            raise GraphError(f"duplicate label {name!r} in disjoint union")
        labels[v + off] = name
    return Graph(g.n + h.n, edges, labels or None)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def neighbor_masks(g: Graph) -> Tuple[int, ...]:
    """Each vertex's neighbourhood as a bitmask of vertex ids."""
    return tuple(sum(1 << w for w in nbrs) for nbrs in g._adj)


def components(mask: int, adj: Sequence[int]) -> List[int]:
    """Vertex masks of the components induced on mask, by lowest vertex.

    ``adj[v]`` is the neighbourhood mask of v, as ``neighbor_masks``
    builds it; neighbours outside mask are ignored.
    """
    comps = []
    rem = mask
    while rem:
        comp = frontier = rem & -rem
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def connected_components(g: Graph, removed: Iterable[int] = ()) -> Tuple[Tuple[int, ...], ...]:
    """Sorted vertex tuples of the components of g minus ``removed``.

    Components come by lowest vertex, in g's vertex ids.
    """
    return tuple(tuple(bits(c)) for c in components(_kept(g, removed), neighbor_masks(g)))


def _kept(g: Graph, removed: Iterable[int]) -> int:
    mask = (1 << g.n) - 1
    for v in removed:
        g._check_vertex(v)
        mask &= ~(1 << v)
    return mask


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def _disconnects(g: Graph, adj: Sequence[int], cut: Iterable[int]) -> bool:
    return len(components(_kept(g, cut), adj)) > 1


@dataclass(frozen=True)
class VertexCut:
    vertices: frozenset
    minimal: bool


def vertex_connectivity(g: Graph) -> int:
    """Size of a smallest disconnecting set; n-1 for complete graphs.

    Brute force over vertex subsets, fine for the orders handled here.
    """
    if g.n == 0:
        return 0
    if not is_connected(g):
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    adj = neighbor_masks(g)
    for k in range(1, g.n - 1):
        for cut in itertools.combinations(range(g.n), k):
            if _disconnects(g, adj, cut):
                return k
    return g.n - 1


def minimal_vertex_cuts(g: Graph, k: int) -> Tuple[VertexCut, ...]:
    """All size-k cuts none of whose proper subsets disconnect the graph."""
    if k >= g.n:
        raise GraphError(f"cut size {k} must be smaller than the order {g.n}")
    adj = neighbor_masks(g)
    out = []
    for cut in itertools.combinations(range(g.n), k):
        if not _disconnects(g, adj, cut):
            continue
        if any(_disconnects(g, adj, sub) for r in range(1, k)
               for sub in itertools.combinations(cut, r)):
            continue
        out.append(VertexCut(frozenset(cut), True))
    return tuple(out)


def is_triangular_edge(g: Graph, e: Edge) -> bool:
    """True when the endpoints of e share a neighbor."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) is not in the graph")
    return bool(g.neighbors(u) & g.neighbors(v))


def non_triangular_edges(g: Graph) -> Tuple[Edge, ...]:
    return tuple(e for e in g.edges if not is_triangular_edge(g, e))


def is_triangular_graph(g: Graph) -> bool:
    return all(is_triangular_edge(g, e) for e in g.edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"a path needs at least 1 vertex, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite(*sizes: int) -> Graph:
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [range(bounds[i], bounds[i + 1]) for i in range(len(sizes))]
    edges = []
    for i, j in itertools.combinations(range(len(parts)), 2):
        edges.extend((u, v) for u in parts[i] for v in parts[j])
    return Graph(bounds[-1], edges)


def circulant_graph(n: int, jumps: Sequence[int]) -> Graph:
    edges = set()
    for j in jumps:
        if not 1 <= j <= n // 2:
            raise GraphError(f"jump {j} is not in 1..{n // 2}")
        for i in range(n):
            a, b = i, (i + j) % n
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))
