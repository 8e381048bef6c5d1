"""Canonical labeling, isomorphism and automorphisms for small graphs.

The canonical form is the lexicographically least adjacency encoding
over the leaves of a search tree: equitable color refinement, then
individualization of each member of the first non-singleton class in
turn, so equal byte strings mean isomorphic graphs. A class whose every
permutation is an automorphism is cut to its first member c. Exhaustive
branching is fine at the orders handled here (n below ~40, and the
dense worst cases never exceed n = 10).

The search is also the package's one automorphism engine, as in nauty
(McKay and Piperno, "Practical graph isomorphism II", 2014): each leaf
of the least encoding gives the automorphism from the first such leaf's
labelling to its own, and each cut class the transpositions (c, w).
They generate the color-preserving group. An automorphism s maps the
first best leaf to a leaf of the uncut tree; at each cut class on the
way down, the transposition (c, s(v)) fixes the vertices above and
moves the path back onto c, so the corrected s ends on a visited best
leaf and is the automorphism recorded there. One search per graph and
coloring serves the form and the generators, from a bounded cache.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from .graph import Graph

Perm = Tuple[int, ...]


def _refine(adj: Sequence[frozenset], colors: list) -> list:
    n = len(adj)
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[sig[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _encode(g: Graph, inv: Sequence[int]) -> bytes:
    # one bit per pair of positions (inv[p] is at p), zero-padded to bytes
    word = 0
    for j in range(1, g.n):
        for i in range(j):
            word = word << 1 | (inv[i] in g._adj[inv[j]])
    pairs = g.n * (g.n - 1) // 2
    size = (pairs + 7) // 8
    return bytes([g.n]) + (word << (8 * size - pairs)).to_bytes(size, "big")


def _interchangeable(adj: Sequence[frozenset], cell: list) -> bool:
    # every permutation of the cell is an automorphism: the members share
    # one outside neighborhood and induce a complete or an empty subgraph
    members = set(cell)
    outside = adj[cell[0]] - members
    inner = len(adj[cell[0]] & members)
    if inner not in (0, len(cell) - 1):
        return False
    for v in cell[1:]:
        if adj[v] - members != outside or len(adj[v] & members) != inner:
            return False
    return True


@lru_cache(maxsize=1024)
def _search(g: Graph, coloring: Tuple[int, ...]) -> Tuple[bytes, Tuple[Perm, ...]]:
    best: list = [None, None]  # least encoding, labelling of its first leaf
    leaves: list = []
    swaps: list = []

    def visit(colors: list) -> None:
        colors = _refine(g._adj, colors)
        cells: dict = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            # a discrete coloring is a labelling: colors[v] = position of v
            inv = sorted(range(g.n), key=colors.__getitem__)
            enc = _encode(g, inv)
            if best[0] is None or enc < best[0]:
                best[:] = enc, colors
                leaves.clear()
            elif enc == best[0]:
                leaves.append(tuple(inv[p] for p in best[1]))
            return
        if _interchangeable(g._adj, target):
            for w in target[1:]:
                swap = list(range(g.n))
                swap[target[0]], swap[w] = w, target[0]
                swaps.append(tuple(swap))
            target = target[:1]
        for v in target:
            child = [2 * c for c in colors]
            child[v] -= 1
            visit(child)

    visit(list(coloring))
    form = best[0]
    classes = sorted(set(coloring))
    if len(classes) > 1:
        # every leaf orders positions by initial class, so this rank
        # string is the same for all of them and separates colorings
        # whose classes differ in size or order
        rank = {c: i for i, c in enumerate(classes)}
        inv = sorted(range(g.n), key=best[1].__getitem__)
        form += bytes(rank[coloring[v]] for v in inv)
    return form, tuple(dict.fromkeys(leaves + swaps))


def _colored_search(g: Graph, colors: Optional[Sequence[int]]) -> Tuple[bytes, Tuple[Perm, ...]]:
    init = tuple(colors) if colors is not None else (0,) * g.n
    if len(init) != g.n:
        raise ValueError(f"expected {g.n} colors, got {len(init)}")
    return _search(g, init)


def canonical_form(g: Graph, colors: Optional[Sequence[int]] = None) -> bytes:
    """Canonical byte string; equal strings iff isomorphic.

    ``colors`` is an optional initial partition (smaller color first);
    two colored graphs get the same form iff an isomorphism maps each
    color class onto the class of the same rank. With two or more
    classes the form ends with that rank for each canonical position;
    an uncolored or one-class form is the adjacency encoding alone.
    """
    return _colored_search(g, colors)[0]


def automorphism_generators(g: Graph, colors: Optional[Sequence[int]] = None) -> Tuple[Perm, ...]:
    """Generators p (v -> p[v]) of the color-preserving automorphism group."""
    return _colored_search(g, colors)[1]


def automorphism_group(g: Graph, colors: Optional[Sequence[int]] = None,
                       limit: Optional[int] = None) -> Optional[Tuple[Perm, ...]]:
    """Every color-preserving automorphism of g, in lexicographic order,
    or None once there turn out to be more than ``limit``."""
    group = {tuple(range(g.n))}
    kept: list = []
    for gen in automorphism_generators(g, colors):
        if gen in group:
            continue
        # only a generator the group so far misses is closed in
        kept.append(gen)
        grown = list(group)
        while grown:
            grown = {tuple(a[x] for x in s) for a in grown for s in kept} - group
            group |= grown
            if limit is not None and len(group) > limit:
                return None
    return tuple(sorted(group))


def orbit_representatives(points: Sequence[Hashable], gens: Sequence[Perm],
                          image: Callable[[Perm, Hashable], Hashable]) -> Dict:
    """The smallest member of its orbit under the group that ``gens``
    generates acting by ``image(p, x)``, for each point in input order."""
    parent = {x: x for x in points}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in gens:
        for x in points:
            a, b = root(x), root(image(p, x))
            parent[max(a, b)] = min(a, b)
    return {x: root(x) for x in points}


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return canonical_form(g1) == canonical_form(g2)


def automorphism_orbits(g: Graph) -> Tuple[int, ...]:
    """Orbit representative (smallest member) for each vertex."""
    reps = orbit_representatives(range(g.n), automorphism_generators(g), lambda p, v: p[v])
    return tuple(reps.values())
