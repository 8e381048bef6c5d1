"""Combinatorial plane embeddings and a two-pole separation test.

A rotation system records, for every vertex of an embedded planar
graph, the clockwise cyclic order of its neighbors. Faces are orbits
of directed edges under "arrive at v, leave along the neighbor that
follows the arrival vertex clockwise", so each directed edge lies on
exactly one face and bridges show up twice on the same walk. Euler's
relation, checked per connected component, validates the structure.

Planarity is decided in house, by path addition (G. Demoucron,
Y. Malgrange and R. Pertuiset, "Graphes planaires : reconnaissance et
construction de représentations planaires topologiques", Revue
française de recherche opérationnelle 8, 1964). Each block is drawn on
its own: a cycle first, then one path at a time through a face holding
every attachment of the path's fragment, a fragment with only one such
face first. A fragment with none proves the block nonplanar. The
blocks' neighbour orders are joined at the cut vertices. The test is
quadratic in the order, which suits the small graphs handled here
(``BENCH_22.json`` compares it with a linear-time test). Every planar
answer is replayed: ``planar_embedding`` returns only a rotation that
``RotationSystem`` has traced and Euler-checked, raising GraphError
otherwise, also under ``python -O``, and ``is_planar`` asks for that
drawing. So the two-apex certificate and the families' planarity
checks rest on a checked drawing. A nonplanar answer carries no
certificate; it only withholds the two-apex certificate.

Sides of a cycle are computed without coordinates. Two faces lie in
the same region of a cycle C exactly when they share an edge off C;
flooding from the designated outer face yields the outside region, the
rest is the inside, and a vertex inherits the region of the faces
around it. Vertices of other components count as outside.

The separation test takes a graph with two distinguished nonadjacent
poles u and v, an embedding of everything else, and asks that every
cycle C own a side X with X together with C meeting every u-v path.
A graph passing the test embeds linklessly: u goes above the plane, v
below, straight edges down to their neighbors, and every two-component
link is then split by panels. The test is sufficient, not necessary,
so a False is silence rather than a linking certificate.

The parity decider is exact. It fixes one drawing of the whole graph
and asks, as a linear system over GF(2), for crossing changes between
disjoint edges that make every pair of disjoint cycles link evenly.
Such changes exist exactly when the graph is nIL; the returned set is
a certificate that an independent replay over all cycle pairs checks.
When they do not exist, the equations that sum to 0 = 1 name disjoint
cycle pairs whose linking parities add up to odd in every embedding,
a certificate of intrinsic linking with a replay of its own.
"""

from __future__ import annotations

from operator import itemgetter, xor
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import GraphError, UndecidedError
from .graph import (
    Edge,
    Graph,
    bits,
    components,
    connected_components,
    delete_vertices,
    deletion_mapping,
    neighbor_masks,
)

__all__ = [
    "RotationSystem", "CycleSide", "is_planar", "planar_embedding",
    "enumerate_cycles", "cycle_sides", "lemma21_condition",
    "certify_nil_via_lemma21", "linkless_clasps", "verify_linkless_certificate",
    "linked_certificate", "verify_linked_certificate",
    "rotation_to_text", "rotation_from_text",
]

# simple-cycle enumeration cap; overflow raises UndecidedError. The
# parity system asks only for chordless short cycles, and counts only
# those it asks for before its first 0 = 1: a nIL host overflows only
# with more chordless short cycles than the cap, and an IL host only
# when it needs more of them
CYCLE_CAP = 10 ** 6


class RotationSystem:
    """Clockwise neighbor orders plus the face structure they induce.

    ``rotation`` maps every vertex to a tuple holding each neighbor
    exactly once, and names no vertex outside 0..n-1; ``faces`` are
    tuples of directed edges; ``outer_face`` indexes the face drawn
    unbounded. Components other than the outer face's get their own
    outer face, chosen as the face at their smallest directed edge.
    """

    def __init__(self, host: Graph, rotation: Dict[int, Sequence[int]],
                 outer_face: Optional[int] = None):
        self.host = host
        for v in rotation:
            if not (isinstance(v, int) and 0 <= v < host.n):
                raise GraphError(f"rotation names vertex {v!r}, which the host does not have")
        rot = {}
        for v in range(host.n):
            order = tuple(rotation.get(v, ()))
            if sorted(order) != sorted(host.neighbors(v)):
                raise GraphError(
                    f"rotation at vertex {v} is not a permutation of its neighbors")
            rot[v] = order
        self.rotation = rot
        self._succ = {}
        for v, order in rot.items():
            deg = len(order)
            for i, u in enumerate(order):
                self._succ[(v, u)] = order[(i + 1) % deg]
        self.faces = self._trace_faces()
        self._face_of_dart = {}
        for fi, face in enumerate(self.faces):
            for dart in face:
                self._face_of_dart[dart] = fi
        self._check_euler()
        if outer_face is None:
            outer_face = self._face_of_dart[min(self._face_of_dart)] if self.faces else 0
        if self.faces and not 0 <= outer_face < len(self.faces):
            raise GraphError(f"outer face {outer_face} out of range")
        self.outer_face = outer_face

    def _trace_faces(self) -> Tuple[Tuple[Edge, ...], ...]:
        darts = [(u, v) for (u, v) in self.host.edges] + \
                [(v, u) for (u, v) in self.host.edges]
        left = set(darts)
        faces = []
        for start in sorted(darts):
            if start not in left:
                continue
            walk = []
            cur = start
            while cur in left:
                left.remove(cur)
                walk.append(cur)
                u, v = cur
                cur = (v, self._succ[(v, u)])
            if cur != start:
                raise GraphError("face walk does not close; rotation is inconsistent")
            faces.append(tuple(walk))
        return tuple(faces)

    def _check_euler(self) -> None:
        comps = connected_components(self.host)
        comp_of = {v: comp[0] for comp in comps for v in comp}
        counts = {comp[0]: [len(comp), 0, 0] for comp in comps}
        for (u, v) in self.host.edges:
            counts[comp_of[u]][1] += 1
        for face in self.faces:
            counts[comp_of[face[0][0]]][2] += 1
        for root, (nv, ne, nf) in counts.items():
            if ne == 0:
                continue
            if nv - ne + nf != 2:
                raise GraphError(
                    f"component of vertex {root} fails the Euler check: "
                    f"{nv} - {ne} + {nf} != 2")
        self._comp_of = comp_of

    def component_outer_face(self, v: int) -> int:
        """The outer face used for vertex v's component."""
        root = self._comp_of[v]
        if self.faces and self._comp_of[self.faces[self.outer_face][0][0]] == root:
            return self.outer_face
        best = None
        for dart, fi in self._face_of_dart.items():
            if self._comp_of[dart[0]] == root and (best is None or dart < best[0]):
                best = (dart, fi)
        if best is None:
            raise GraphError(f"vertex {v} lies in a component with no faces")
        return best[1]


class CycleSide:
    """The two vertex regions a cycle cuts out of an embedding."""

    def __init__(self, cycle: Tuple[int, ...], inside: frozenset, outside: frozenset):
        self.cycle = cycle
        self.inside = inside
        self.outside = outside

    def __repr__(self) -> str:
        return (f"CycleSide(cycle={self.cycle}, inside={sorted(self.inside)}, "
                f"outside={sorted(self.outside)})")


def is_planar(g: Graph) -> bool:
    return planar_embedding(g) is not None


def planar_embedding(g: Graph) -> Optional[RotationSystem]:
    """A rotation system for g from the planarity test, or None.

    The rotation passes ``RotationSystem``'s face tracing and Euler
    check before it is returned, so every planar answer is replayed.
    """
    rotation = _plane_rotation(g)
    return None if rotation is None else RotationSystem(g, rotation)


def _plane_rotation(g: Graph) -> Optional[Dict[int, List[int]]]:
    """Neighbour orders of a plane drawing of g, or None if g is not planar.

    Each block is drawn by ``_block_rotation``, and the orders of the
    blocks at a cut vertex are concatenated.
    """
    adj = neighbor_masks(g)
    rotation: Dict[int, List[int]] = {v: [] for v in range(g.n)}
    for block in _blocks(adj):
        orders = _block_rotation(adj, block)
        if orders is None:
            return None
        for v, order in orders.items():
            rotation[v] += order
    return rotation


def _blocks(adj: Sequence[int]) -> List[int]:
    """Vertex masks of the blocks, by Hopcroft and Tarjan's depth-first search.

    Isolated vertices lie in no block.
    """
    depth = [-1] * len(adj)
    low = [0] * len(adj)
    blocks = []
    for root, nbrs in enumerate(adj):
        if depth[root] >= 0 or not nbrs:
            continue
        depth[root] = 0
        path = [root]
        todo = [(root, bits(nbrs))]
        while todo:
            v, rest = todo[-1]
            for w in rest:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    path.append(w)
                    todo.append((w, bits(adj[w])))
                    break
                low[v] = min(low[v], depth[w])
            else:
                todo.pop()
                if todo:
                    u = todo[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= depth[u]:
                        block = 1 << u
                        while not block >> v & 1:
                            block |= 1 << path.pop()
                        blocks.append(block)
    return blocks


def _block_rotation(adj: Sequence[int], block: int) -> Optional[Dict[int, List[int]]]:
    """Neighbour orders of a plane drawing of one block, or None.

    Path addition (Demoucron, Malgrange and Pertuiset): faces are
    oriented vertex cycles, every directed edge on exactly one, and each
    step draws a path of a fragment (a chord, or a component of the
    undrawn vertices with its edges to the drawing) through a face
    holding all the fragment's attachments, splitting that face in two.
    A fragment with no such face proves the block nonplanar; a fragment
    with exactly one goes first, and then every choice keeps a planar
    block drawable.
    """
    verts = list(bits(block))
    if len(verts) == 2:
        a, b = verts
        return {a: [b], b: [a]}
    nb = {v: adj[v] & block for v in verts}
    left = sum(x.bit_count() for x in nb.values()) // 2
    if left > 3 * len(verts) - 6:
        return None
    # the first cycle: a, a neighbour b, and a shortest path avoiding a
    # from b to another neighbour of a
    a = verts[0]
    b = (nb[a] & -nb[a]).bit_length() - 1
    prev = {b: a}
    queue = [b]
    for v in queue:
        if v != b and nb[a] >> v & 1:
            break
        for w in bits(nb[v] & ~(1 << a)):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [v]
    while path[-1] != a:
        path.append(prev[path[-1]])
    faces = [path, path[::-1]]
    done = {v: 0 for v in verts}  # drawn neighbours of each vertex
    for u, v in zip(path, path[1:] + path[:1]):
        done[u] |= 1 << v
        done[v] |= 1 << u
    drawn = sum(1 << v for v in path)
    on = {v: 0b11 if drawn >> v & 1 else 0 for v in verts}  # mask of faces at v
    chords = set()
    fresh = path
    left -= len(path)
    while left:
        for x in fresh:
            for w in bits(nb[x] & drawn & ~done[x]):
                chords.add((x, w) if x < w else (w, x))
        choice = None
        for att, piece in _fragments(nb, block, drawn, chords):
            fits = -1
            for v in bits(att):
                fits &= on[v]
            if not fits:
                return None
            single = not fits & (fits - 1)
            if choice is None or single:
                choice = (att, piece, (fits & -fits).bit_length() - 1)
                if single:
                    break
        att, piece, fi = choice
        path = _fragment_path(nb, att, piece) if piece else list(bits(att))
        # one side runs the face from path[0] to path[-1] and the path
        # back, the other the face on from path[-1] and the path forward
        face = faces[fi]
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        for v in face:
            on[v] &= ~(1 << fi)
        faces[fi] = face[:j + 1] + path[-2:0:-1]
        faces.append(face[j:] + path[:-1])
        for k in (fi, len(faces) - 1):
            for v in faces[k]:
                on[v] |= 1 << k
        for u, v in zip(path, path[1:]):
            done[u] |= 1 << v
            done[v] |= 1 << u
            drawn |= 1 << v
        chords.discard((path[0], path[1]))  # a chord, once drawn
        fresh = path[1:-1]
        left -= len(path) - 1
    # in a face ... u, v, w ..., w follows u in the order around v
    succ = {}
    for face in faces:
        for i, v in enumerate(face):
            succ[v, face[i - 1]] = face[(i + 1) % len(face)]
    orders = {}
    for v in verts:
        order = [(nb[v] & -nb[v]).bit_length() - 1]
        nxt = succ[v, order[0]]
        while nxt != order[0]:
            order.append(nxt)
            nxt = succ[v, nxt]
        orders[v] = order
    return orders


def _fragments(nb: Dict[int, int], block: int, drawn: int, chords):
    """(attachments, vertex mask) of each fragment of the drawn subgraph.

    A chord comes with mask 0, a component of the undrawn vertices with
    its mask. Chords come first: the caller stops at the first fragment
    with one admissible face.
    """
    for v, w in chords:
        yield 1 << v | 1 << w, 0
    for comp in components(block & ~drawn, nb):
        att = 0
        for v in bits(comp):
            att |= nb[v]
        yield att & drawn, comp


def _fragment_path(nb: Dict[int, int], att: int, comp: int) -> List[int]:
    """A path through a component fragment between two of its attachments."""
    a = (att & -att).bit_length() - 1
    start = (nb[a] & comp & -(nb[a] & comp)).bit_length() - 1
    prev = {start: a}
    queue = [start]
    for v in queue:
        ends = nb[v] & att & ~(1 << a)
        if ends:
            path = [(ends & -ends).bit_length() - 1, v]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in bits(nb[v] & comp):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise RuntimeError("a fragment of a block has fewer than two attachments")


def enumerate_cycles(g: Graph, cap: Optional[int] = None, max_len: Optional[int] = None,
                     by_length: bool = False, chordless: bool = False
                     ) -> Union[Tuple[Tuple[int, ...], ...], Iterator[Tuple[int, ...]]]:
    """Every simple cycle, once up to rotation and reflection.

    Cycles come out with their smallest vertex first and the smaller of
    the two possible direction-defining neighbors second, in ascending
    DFS order. With ``max_len`` set, only cycles of at most that many
    vertices are listed. More than ``cap`` cycles, ``CYCLE_CAP`` as it
    stands at the call when unset, raises UndecidedError.

    With ``by_length`` set, an iterator replaces the tuple. It yields
    the cycles shortest first, each length in DFS order, which is the
    stable sort of the tuple by length. A length's cycles are generated
    only once the shorter ones are used up, and the cap counts the
    cycles yielded: the error comes only when the one past it is asked
    for.

    With ``chordless`` set, only cycles without a chord (an edge of g
    between two vertices of the cycle that are not consecutive on it)
    are generated, in the same order: the output is the chordless part
    of the output without it, and the cap counts chordless cycles only.
    """
    limit = g.n if max_len is None else max_len
    if cap is None:
        cap = CYCLE_CAP
    if by_length:
        return _cycle_walk(g, [(k, k) for k in range(3, limit + 1)], cap, chordless)
    return tuple(_cycle_walk(g, [(3, limit)], cap, chordless))


def _cycle_walk(g: Graph, spans: Sequence[Tuple[int, int]], cap: int,
                chordless: bool) -> Iterator[Tuple[int, ...]]:
    """The cycles of each span (shortest, longest) of lengths in turn.

    Within a span, ``enumerate_cycles``' DFS order: each root's paths
    grow through larger vertices, in ascending order, and a path's
    cycle comes before those of its extensions. A path grows to a vertex
    only if the vertex lies close enough to the root, among the
    vertices above it, to close a cycle of at most ``longest``
    vertices; that prunes subtrees without such cycles, so no order
    changes. With ``chordless`` set, a vertex joins the path only when
    it has no neighbour on it but the last vertex and the root, and a
    vertex after the second that neighbours the root only closes the
    cycle: every other path ends in chorded cycles alone, and every
    chordless cycle's path passes both tests, so the walk visits a
    subtree of the same tree in the same order. One root's cycles of a
    span are listed before the first of them is yielded, but more than
    ``cap`` cycles raise UndecidedError only once the cycle past the cap
    is asked for.
    """
    nbrs = [sorted(g.neighbors(v)) for v in range(g.n)]
    adj = neighbor_masks(g)
    views = []
    for root in range(g.n):
        # dist: BFS distances from root through the vertices above it
        dist = {root: 0}
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w > root and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        views.append((dist, {v: [w for w in nbrs[v] if w in dist] for v in queue}))
    count = 0

    def grow(last: int, inner: int) -> None:
        # inner: mask of the path's vertices other than the root and last
        room = longest - len(path)
        for w in up[last]:
            if w == root:
                if len(path) >= shortest and path[1] < path[-1]:
                    batch.append(tuple(path))
                    if count + len(batch) > cap:
                        raise UndecidedError(
                            f"more than {cap} cycles; raise the cap to enumerate")
                if chordless and len(path) > 2:
                    return  # each extension has the chord from last to root
            elif w not in on_path and dist[w] <= room and not (chordless and adj[w] & inner):
                path.append(w)
                on_path.add(w)
                grow(w, inner if last == root else inner | 1 << last)
                on_path.remove(w)
                path.pop()

    for shortest, longest in spans:
        for root, (dist, up) in enumerate(views):
            batch: List[Tuple[int, ...]] = []
            path = [root]
            on_path = {root}
            try:
                grow(root, 0)
            except UndecidedError:
                # the cycles within the cap still come, so the error
                # reaches only a caller that asks for the one past it
                yield from batch[:cap - count]
                raise
            count += len(batch)
            yield from batch


def _require_cycle(g: Graph, cycle: Sequence[int]) -> Tuple[int, ...]:
    cyc = tuple(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise GraphError(f"{cyc} is not a simple cycle")
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(a, b):
            raise GraphError(f"{cyc} is not a cycle: missing edge ({a}, {b})")
    return cyc


def cycle_sides(emb: RotationSystem, cycle: Sequence[int]) -> CycleSide:
    """Split the embedded vertices into the two regions of a cycle.

    The outside is the region holding the component's outer face, and
    vertices of other components always land outside.
    """
    g = emb.host
    cyc = _require_cycle(g, cycle)
    cedges = set()
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        cedges.add((a, b) if a < b else (b, a))
    root = emb._comp_of[cyc[0]]
    comp_faces = [fi for fi, face in enumerate(emb.faces)
                  if emb._comp_of[face[0][0]] == root]
    # regions: faces of the cycle's component, fused across non-cycle edges
    region = {fi: None for fi in comp_faces}
    outer = emb.component_outer_face(cyc[0])
    for seed, tag in ((outer, "out"), (None, "in")):
        if seed is None:
            rest = [fi for fi in comp_faces if region[fi] is None]
            if not rest:
                break
            seed = rest[0]
        stack = [seed]
        region[seed] = tag
        while stack:
            fi = stack.pop()
            for (u, v) in emb.faces[fi]:
                e = (u, v) if u < v else (v, u)
                if e in cedges:
                    continue
                twin = emb._face_of_dart[(v, u)]
                if region[twin] is None:
                    region[twin] = tag
                    stack.append(twin)
    if any(tag is None for tag in region.values()):
        raise GraphError(f"{cyc} does not cut its component into two regions")
    inside, outside = set(), set()
    cset = set(cyc)
    for v in range(g.n):
        if v in cset:
            continue
        if emb._comp_of[v] != root or g.degree(v) == 0:
            outside.add(v)
            continue
        w = min(g.neighbors(v))
        tag = region[emb._face_of_dart[(v, w)]]
        (outside if tag == "out" else inside).add(v)
    return CycleSide(cyc, frozenset(inside), frozenset(outside))


def _separates(g: Graph, u: int, v: int, removed: set) -> bool:
    return not any(u in comp and v in comp for comp in connected_components(g, removed))


def lemma21_condition(g: Graph, u: int, v: int, emb: RotationSystem) -> bool:
    """Every cycle owns a side whose closure meets every u-v path.

    ``emb`` embeds g minus the poles, in deleted labels. True means
    placing u above the drawing and v below yields a linkless
    embedding; False only means this drawing gives no certificate.
    """
    if g.has_edge(u, v):
        raise GraphError("the poles must be nonadjacent")
    rest = delete_vertices(g, [u, v])
    if emb.host != rest:
        raise GraphError("embedding host is not the graph minus the poles")
    mapping = deletion_mapping(g.n, [u, v])
    inv = {new: old for old, new in mapping.items()}
    for cyc in enumerate_cycles(rest):
        sides = cycle_sides(emb, cyc)
        closure = {inv[w] for w in cyc}
        ok = False
        for x in (sides.inside, sides.outside):
            removed = closure | {inv[w] for w in x}
            if _separates(g, u, v, removed):
                ok = True
                break
        if not ok:
            return False
    return True


def certify_nil_via_lemma21(g: Graph, u: int, v: int,
                            emb: Optional[RotationSystem] = None) -> bool:
    """Try to certify linkless embeddability from a planar drawing.

    Uses the supplied rotation system, else the canonical embedding of
    g minus the poles. False when that graph is not planar or when the
    drawing at hand fails the cycle condition.
    """
    if g.has_edge(u, v):
        raise GraphError("the poles must be nonadjacent")
    if emb is None:
        emb = planar_embedding(delete_vertices(g, [u, v]))
        if emb is None:
            return False
    return lemma21_condition(g, u, v, emb)


Clasp = Tuple[Edge, Edge]
CyclePair = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _chords_cross(e: Edge, f: Edge) -> bool:
    """Chords between points 0..n-1 placed in order on a circle cross.

    The four endpoints must be distinct.
    """
    a, b = e
    return (a < f[0] < b) != (a < f[1] < b)


def linkless_clasps(g: Graph) -> Optional[Tuple[Clasp, ...]]:
    """Clasps that make every disjoint cycle pair link evenly, or None.

    The reference drawing puts the vertices on a circle in index order,
    draws edges as straight chords and passes the lower-indexed edge
    over at each crossing. A clasp (e, f) is a crossing change between
    disjoint edges e and f; it flips the linking parity of every pair
    of disjoint cycles through e and f. Every embedding's mod-2 linking
    function is that of the drawing plus a set of clasps, so the
    returned set exists exactly when g embeds with every disjoint pair
    linking evenly, which holds exactly when g is nIL.

    One unknown per pair of disjoint edges; one equation per chordless
    cycle C of at most n/2 vertices against each fundamental cycle of
    g - V(C). Of two disjoint cycles one has at most n/2 vertices, and
    linking parity is additive in either cycle, so the equations of
    every short cycle imply the rest. The cycles C are generated one
    length at a time, shortest first and each length in
    ``enumerate_cycles``' order, as the elimination asks for them, and
    each one's equations follow the order of the non-tree edges closing
    its fundamental cycles.

    A chorded cycle would add no equation. If C has a chord uv, then
    C = C1 + C2 mod 2, C1 and C2 the two cycles through uv, both
    shorter than C and both avoiding every cycle F that C avoids. A
    row is bilinear in its pair of cycles and the chord's terms cancel
    mod 2, so R(C, F) = R(C1, F) + R(C2, F), right-hand sides included.
    F is a sum of fundamental cycles of g - V(Ci), so R(Ci, F) is a sum
    of Ci's rows, which come earlier in by-length order; by induction
    on length they are sums of chordless cycles' rows. So a chorded
    cycle's rows reduce to 0 = 0 and create no pivot: the chordless
    system has the same pivots, the same stopping equation, the same
    clasps and the same odd-sum certificates as the full one.

    Short cycles carry the Conway-Gordon-Sachs obstructions, so an IL
    host reaches 0 = 1 after few equations and generates no further
    cycle; the order changes no verdict. More than ``CYCLE_CAP``
    chordless cycles generated before that stop raise UndecidedError,
    so a nIL host with more chordless short cycles than the cap always
    does, and an IL host only when it needs more. Before returning, the
    solution is substituted into every equation, built a second time
    from the cycles generated, and a failure raises RuntimeError. None
    of this work counts against a caller's search budget.
    """
    return _solve_parity(g, certify=False)[0]


def linked_certificate(g: Graph) -> Optional[Tuple[CyclePair, ...]]:
    """Disjoint cycle pairs whose linking parities sum to odd, or None.

    Solves the system of ``linkless_clasps``; None means it is
    consistent, so g is nIL. Otherwise the elimination has summed
    equations to 0 = 1, and the pairs (C, F) of those equations are
    returned, C a short cycle and F a fundamental cycle of g - V(C).
    In every embedding their linking parities add up to odd, so some
    pair links oddly and g is IL; ``verify_linked_certificate`` checks
    that without the solver. Raises UndecidedError like
    ``linkless_clasps``.
    """
    return _solve_parity(g, certify=True)[1]


def _forest_parents(nbrs: List[List[int]], on: set) -> Dict[int, int]:
    """Parent of every vertex off ``on`` in a BFS spanning forest, roots -1.

    Vertices come in BFS order, so each parent comes before its child.
    """
    parent: Dict[int, int] = {}
    for root in range(len(nbrs)):
        if root in on or root in parent:
            continue
        parent[root] = -1
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w not in on and w not in parent:
                    parent[w] = v
                    queue.append(w)
    return parent


def _fundamental_cycle(parent: Dict[int, int], u: int, v: int) -> Tuple[int, ...]:
    """The cycle the non-tree edge uv closes with the forest's paths."""
    up = [u]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    depth = {w: i for i, w in enumerate(up)}
    down = [v]
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    return tuple(up[:depth[down[-1]] + 1] + down[-2::-1])


def _solve_parity(g: Graph, certify: bool) -> Tuple[Optional[Tuple[Clasp, ...]],
                                                     Optional[Tuple[CyclePair, ...]]]:
    """(clasps, None) when the parity system is consistent, else (None, pairs).

    ``pairs`` is the odd-sum certificate with ``certify`` set, else None;
    without it the elimination keeps no provenance.
    """
    edges = g.edges
    m = len(edges)
    eid: List[Dict[int, int]] = [{} for _ in range(g.n)]
    for k, (u, v) in enumerate(edges):
        eid[u][v] = eid[v][u] = k
    # table[i][j]: the bit of unknown {i, j} (bits from 1 up), plus bit 0,
    # the right-hand side, when edge i crosses over edge j
    clasps: List[Clasp] = []
    table = [[0] * m for _ in range(m)]
    for i, e in enumerate(edges):
        for j in range(i + 1, m):
            f = edges[j]
            if e[0] in f or e[1] in f:
                continue
            clasps.append((e, f))
            bit = 1 << len(clasps)
            table[i][j] = bit | _chords_cross(e, f)
            table[j][i] = bit
    nbrs = [sorted(g.neighbors(v)) for v in range(g.n)]
    ends = [1 << u | 1 << v for u, v in edges]
    # every short cycle generated so far, indexed by the equations
    cycles: List[Tuple[int, ...]] = []

    def generated():
        for cyc in enumerate_cycles(g, max_len=g.n // 2, by_length=True, chordless=True):
            cycles.append(cyc)
            yield cyc

    def equations(source):
        """(cycle index, closing edge index, row) of every equation."""
        for ci, cyc in enumerate(source):
            on = set(cyc)
            parent = _forest_parents(nbrs, on)
            on_mask = sum(1 << v for v in cyc)
            off = [k for k, mask in enumerate(ends) if not mask & on_mask]
            tree = {eid[p][w] for w, p in parent.items() if p >= 0}
            closing = [k for k in off if k not in tree]
            if not closing:
                continue  # g - V(C) is a forest
            # weight[f]: every unknown and over-crossing between C and an
            # edge f avoiding it, the only edges that enter its equations;
            # a cycle off C has 3 or more edges, so pick returns tuples
            pick = itemgetter(*off)
            ring = iter([eid[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1])])
            column = pick(table[next(ring)])
            for i in ring:
                column = map(xor, column, pick(table[i]))
            weight = dict(zip(off, column))
            # acc[v] sums the forest path to v, so each non-tree edge
            # closes a fundamental cycle summing to a row
            acc: Dict[int, int] = {}
            for w, p in parent.items():
                acc[w] = 0 if p < 0 else acc[p] ^ weight[eid[p][w]]
            for k in closing:
                u, v = edges[k]
                yield ci, k, acc[u] ^ acc[v] ^ weight[k]

    pivots: Dict[int, int] = {}
    # combos[top]: bit b set when pivot-creating equation b, counted in
    # creation order, is one of the equations that pivot row sums; kept
    # only with ``certify`` set
    combos: Dict[int, int] = {}
    sources: List[Tuple[int, int]] = []
    # the cycles are generated as the elimination asks for them, so an
    # IL host stops at its first 0 = 1
    for ci, k, row in equations(generated()):
        combo = 0
        while row > 1:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                if certify:
                    combos[top] = combo | 1 << len(sources)
                    sources.append((ci, k))
                break
            row ^= pivots[top]
            if certify:
                combo ^= combos[top]
        if row == 1:
            if not certify:
                return None, None
            summed = [s for b, s in enumerate(sources) if combo >> b & 1]
            return None, _cycle_pairs(cycles, edges, nbrs, summed + [(ci, k)])
    solution = _back_substitute(pivots)
    # rebuilt rather than kept, so memory stays that of the cycle list
    for _, _, row in equations(cycles):
        if (row & solution).bit_count() & 1:
            raise RuntimeError("linkless certificate fails one of its equations")
    return tuple(c for k, c in enumerate(clasps, start=1) if solution >> k & 1), None


def _cycle_pairs(cycles, edges, nbrs, sources) -> Tuple[CyclePair, ...]:
    """The (C, F) pair of each equation (cycle index, closing edge index)."""
    parents: Dict[int, Dict[int, int]] = {}
    pairs = []
    for ci, k in sources:
        if ci not in parents:
            parents[ci] = _forest_parents(nbrs, set(cycles[ci]))
        pairs.append((cycles[ci], _fundamental_cycle(parents[ci], *edges[k])))
    return tuple(pairs)


def _back_substitute(pivots: Dict[int, int]) -> int:
    """A solution of the echelon rows, bit 0 set, free unknowns zero.

    Every row then has an even number of set bits in common with it.
    """
    solution = 1
    for top in sorted(pivots):
        if (pivots[top] & solution).bit_count() & 1:
            solution |= 1 << top
    return solution


def verify_linkless_certificate(g: Graph, clasps: Sequence[Clasp]) -> bool:
    """Replay a clasp set against every pair of disjoint cycles of g.

    True when each pair links evenly in the reference drawing of
    ``linkless_clasps`` after the clasps' crossing changes, which
    proves g nIL. Independent of the solver: it lists all cycles,
    finds crossings by the interleaving of sorted chord ends, and
    counts those where the second cycle passes over, which has the
    parity of the first passing over, since two closed plane curves
    cross evenly. Clasps that are not pairs of disjoint edges of g make
    the answer False.
    """
    edges = g.edges
    rank = {e: i for i, e in enumerate(edges)}
    # odd[i][j]: edge j of the second cycle passes over edge i of the
    # first, or the pair is clasped, but not both
    odd = [[False] * len(edges) for _ in edges]
    for i, e in enumerate(edges):
        for j, f in enumerate(edges[:i]):
            if not set(e) & set(f):
                ends = sorted(e + f)
                odd[i][j] = (ends[0] in e) == (ends[2] in e)
    for pair in clasps:
        e, f = (tuple(sorted(x)) for x in pair)
        if e not in rank or f not in rank or set(e) & set(f):
            return False
        i, j = rank[e], rank[f]
        odd[i][j] = not odd[i][j]
        odd[j][i] = not odd[j][i]
    cycles = enumerate_cycles(g)
    rings = [[rank[tuple(sorted(p))] for p in zip(c, c[1:] + c[:1])] for c in cycles]
    # avoiding[v]: bitset of the cycles missing vertex v
    avoiding = [0] * g.n
    for k, cyc in enumerate(cycles):
        for v in set(range(g.n)).difference(cyc):
            avoiding[v] |= 1 << k
    for k, cyc in enumerate(cycles):
        later = -1 << (k + 1)
        for v in cyc:
            later &= avoiding[v]
        while later:
            low = later & -later
            other = rings[low.bit_length() - 1]
            later ^= low
            parity = False
            for i in rings[k]:
                row = odd[i]
                for j in other:
                    parity ^= row[j]
            if parity:
                return False
    return True


def verify_linked_certificate(g: Graph, pairs: Sequence[CyclePair]) -> bool:
    """Replay an odd-sum certificate; True proves g intrinsically linked.

    Each pair must be two vertex-disjoint simple cycles of g. In any
    embedding, the linking parity of such a pair (C, F) is the number of
    crossings where an edge of C passes over an edge of F in the
    reference drawing of ``linkless_clasps``, plus the number of clasps
    between an edge of C and an edge of F. When every edge pair (e, f)
    occurs in an even number of the pairs' products C x F, the clasps
    cancel from the sum over the pairs, whatever the embedding; an odd
    number of over-crossings then makes some pair link oddly in every
    embedding. Independent of the solver: it finds crossings by the
    interleaving of sorted chord ends and needs only that crossing
    changes between disjoint edges relate any two embeddings' linking
    parities.
    """
    rank = {e: i for i, e in enumerate(g.edges)}
    products = set()
    over = 0
    for pair in pairs:
        if len(pair) != 2:
            return False
        rings = []
        for cyc in pair:
            cyc = tuple(cyc)
            if len(cyc) < 3 or len(set(cyc)) != len(cyc):
                return False
            ring = [(a, b) if a < b else (b, a) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
            if any(e not in rank for e in ring):
                return False
            rings.append(ring)
        if set(pair[0]) & set(pair[1]):
            return False
        for e in rings[0]:
            for f in rings[1]:
                products ^= {(e, f) if rank[e] < rank[f] else (f, e)}
                ends = sorted(e + f)
                if rank[e] < rank[f] and (ends[0] in e) == (ends[2] in e):
                    over += 1
    return not products and over % 2 == 1


def rotation_to_text(emb: RotationSystem) -> str:
    """One line per vertex: ``v: clockwise neighbors``."""
    lines = []
    for v in range(emb.host.n):
        nbrs = " ".join(str(w) for w in emb.rotation[v])
        lines.append(f"{v}: {nbrs}".rstrip())
    return "\n".join(lines) + "\n"


def rotation_from_text(host: Graph, text: str) -> RotationSystem:
    rotation: Dict[int, Tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        try:
            v = int(head)
            order = tuple(int(tok) for tok in tail.split())
        except ValueError as exc:
            raise GraphError(f"rotation line {lineno} is malformed: {raw!r}") from exc
        if v in rotation:
            raise GraphError(f"vertex {v} appears twice (line {lineno})")
        rotation[v] = order
    return RotationSystem(host, rotation)
