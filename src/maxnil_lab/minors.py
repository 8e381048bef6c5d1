"""Minor containment with certificates.

A pattern P is a minor of a host H iff H carries disjoint connected
branch sets, one per pattern vertex, with a host edge between the two
sets of every pattern edge.

``find_minor`` grows branch sets by connector paths: it seeds one
pattern vertex, then repeatedly picks an unwitnessed pattern edge with a
seeded endpoint and branches over all chordless free paths that either
join the two fragments or found the missing one, splitting each path
prefix/suffix between the two classes. Restricting to chordless
connectors is complete: any valid connector inside a model shortcuts
down to a chordless one that stays inside the same two branch sets.

Pruning uses the free-vertex components: every unwitnessed pair of
seeded fragments needs a free component adjacent to both, every unseeded
pattern vertex needs a free component adjacent to all of its seeded
neighbors, and adjacent unseeded vertices must share a feasible
component. Connector enumeration is confined to the components that can
actually reach the goal.

A state with zero slack, as many free vertices as unseeded pattern
vertices, is already fixed up to a bijection: each free vertex becomes
the whole branch set of one unseeded vertex, and no seeded fragment
grows. It is refuted when a pending edge joins two seeded fragments,
when an unseeded vertex has no free vertex adjacent to all of its
seeded neighbors, or when arc consistency along the pattern edges
between unseeded vertices empties one of these candidate sets. Most
zero-slack states fail this test, so it runs before any other list of
the state is built. It cuts only subtrees without a model and leaves
the search order as it is, so the first model found does not change.

The free components and their neighborhoods are kept per free-vertex
mask, since many states share one, and the feasibility sets are
bitmasks of component indices. The first seed is
restricted to host orbit representatives, which is sound because any
model maps to an equivalent one along an automorphism. States are keyed
by their fragment tuple, minimized over a group of host automorphisms
times a group of pattern automorphisms, and failed states are memoized;
this collapses the many connector orders that converge on the same
partial model and the assignments that differ only by a symmetry of
either side. Each group is the whole automorphism group of its graph
when that has at most ``_GROUP_LIMIT`` elements, and otherwise the
pointwise stabiliser of a vertex prefix (``_key_group``). Because both
are groups, every state of an orbit gets the same key, so a failure is
never searched again under another symmetry, and keying by a group
that contains another never visits more nodes. Both groups and the
first seed's orbits come from ``canon``'s canonical search, and the
symmetry data behind the keys is built once per graph. Keys are tuples
of plain integers: each fragment's images under the host automorphisms
are ORed together from its vertices' images and kept per fragment, with
the least image and the host automorphisms that attain it. A complete
pattern such as K6 takes every order of its fragments, so its key is
the least sorted row;
for other patterns the least row over the pattern permutations is built
one position at a time, with the permutations still tied kept as a
bitmask. The row's all-zero prefix and the columns read after it depend
only on which fragments are nonempty and are kept per occupancy mask.
A bitmask of tied permutations is a coset of a stabiliser, which reads
only a few columns at each later position, so those columns are kept
per position and mask, and a tied candidate scans only them.

Each fragment's neighbourhood mask travels with the state: a move
updates only the fragments it changes, the two that a connector split
grows or the one that a fresh seed founds, and restores them when it is
undone.

Everything is deterministic: goals are chosen fail-first with fixed tie
breaks, vertices ascend, path enumeration is lexicographic. ``budget``
bounds the number of search steps (state expansions plus path
extensions) and turns exhaustion into UndecidedError instead of a wrong
answer.

``contraction_probe`` is no search: it contracts edges greedily toward
a complete graph and may miss one that is there. It spends no budget;
``linking.has_k6_minor`` runs it before any search and replays its model.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import or_
from typing import Dict, Optional, Tuple

from .canon import automorphism_group, automorphism_orbits
from .errors import UndecidedError
from .formats import graph6_decode, graph6_encode
from .graph import Edge, Graph, bits, complete_graph, components, neighbor_masks

__all__ = ["MinorModel", "find_minor", "contraction_probe", "verify_minor_model",
           "model_to_json_dict", "model_from_json_dict"]


@dataclass(frozen=True, eq=False)
class MinorModel:
    """Witness that ``pattern`` is a minor of a host graph.

    branch_sets maps each pattern vertex to its host vertex set and
    edge_witnesses maps each pattern edge (i, j) with i < j to a host
    edge (a, b) with a in the branch set of i and b in that of j.
    """

    branch_sets: Dict[int, frozenset]
    edge_witnesses: Dict[Edge, Edge]
    pattern: Optional[Graph] = field(default=None, compare=False)


def verify_minor_model(host: Graph, pattern: Graph, model: MinorModel) -> bool:
    """Check every invariant of the model, independent of any search."""
    try:
        if set(model.branch_sets) != set(range(pattern.n)):
            return False
        used: set = set()
        for p, bs in model.branch_sets.items():
            if not bs:
                return False
            for v in bs:
                if not (isinstance(v, int) and 0 <= v < host.n) or v in used:
                    return False
                used.add(v)
            # connectivity of the branch set inside the host
            bs = set(bs)
            seen = {min(bs)}
            queue = [min(bs)]
            while queue:
                v = queue.pop()
                for w in host.neighbors(v):
                    if w in bs and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if seen != bs:
                return False
        for (i, j) in pattern.edges:
            if (i, j) not in model.edge_witnesses:
                return False
            a, b = model.edge_witnesses[(i, j)]
            if a not in model.branch_sets[i] or b not in model.branch_sets[j]:
                return False
            if not host.has_edge(a, b):
                return False
        return True
    except Exception:
        return False


def model_to_json_dict(model: MinorModel) -> dict:
    out = {
        "branch_sets": {str(p): sorted(bs) for p, bs in sorted(model.branch_sets.items())},
        "edge_witnesses": {f"{i}-{j}": list(model.edge_witnesses[(i, j)])
                           for (i, j) in sorted(model.edge_witnesses)},
    }
    if model.pattern is not None:
        out["pattern"] = graph6_encode(model.pattern)
    return out


def model_from_json_dict(d: dict) -> MinorModel:
    branch = {int(p): frozenset(vs) for p, vs in d["branch_sets"].items()}
    wit = {}
    for key, (a, b) in d["edge_witnesses"].items():
        i, j = key.split("-")
        wit[(int(i), int(j))] = (a, b)
    pat = graph6_decode(d["pattern"]) if "pattern" in d else None
    return MinorModel(branch, wit, pat)


# automorphism groups of at most this many elements key the search's
# states whole; a larger group is cut down to a stabiliser subgroup
_GROUP_LIMIT = 512


@lru_cache(maxsize=256)
def _key_group(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    """The automorphism group that keys the branch-set search's states.

    The whole automorphism group when it has at most ``_GROUP_LIMIT``
    elements, else the pointwise stabiliser of the shortest vertex
    prefix 0..k-1 (colored apart) that has at most that many. Either is
    a group, so a state's key is the least image over its whole orbit.
    """
    k = 0
    while True:
        group = automorphism_group(g, list(range(k)) + [k] * (g.n - k), _GROUP_LIMIT)
        if group is not None:
            return group
        k += 1


@lru_cache(maxsize=256)
def _vertex_images(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    """Entry v holds the bit of v's image under each ``_key_group`` element."""
    group = _key_group(g)
    return tuple(tuple(1 << perm[v] for perm in group) for v in range(g.n))


@lru_cache(maxsize=256)
def _pattern_reads(g: Graph) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """``_key_group`` of a pattern as bitmasks, and the mask of all of it.

    reads[d][c] has bit k set when the k-th permutation reads column c
    at position d.
    """
    group = _key_group(g)
    reads = [[0] * g.n for _ in range(g.n)]
    for k, perm in enumerate(group):
        for d, c in enumerate(perm):
            reads[d][c] |= 1 << k
    return tuple(map(tuple, reads)), (1 << len(group)) - 1


class _Search:
    def __init__(self, host: Graph, pattern: Graph, budget: Optional[int]):
        self.host = host
        self.pattern = pattern
        self.adj = neighbor_masks(host)
        self.pedges = pattern.edges
        self.pdeg = [pattern.degree(v) for v in range(pattern.n)]
        self.budget = budget
        self.nodes = 0
        # pattern neighbors per vertex, for the feasibility prunes
        self.pnbrs = [sorted(pattern.neighbors(v)) for v in range(pattern.n)]
        self.failed: set = set()
        self.memo_hits = 0
        self.complete_pattern = pattern.m == pattern.n * (pattern.n - 1) // 2
        # symmetry data for state keys, built once per graph: each host
        # vertex's images under the host group and, unless the pattern
        # is complete, the pattern group as bitmasks
        self.vimages = _vertex_images(host)
        self.no_images = (0,) * len(_key_group(host))
        if not self.complete_pattern:
            self.reads, self.all_perms = _pattern_reads(pattern)
        self.pmask = neighbor_masks(pattern)
        self._nbr_cache: Dict[int, int] = {}
        self._comp_cache: Dict[int, tuple] = {}
        self._image_cache: Dict[int, tuple] = {}
        self._link_cache: Dict[int, tuple] = {}
        self._first_cache: Dict[int, tuple] = {}
        self._col_cache = [{} for _ in range(pattern.n)]

    def _state_key(self, frags: list) -> tuple:
        # the least row of the state over the host group x the pattern
        # group: both are groups, so every state of one orbit gets the
        # same key. Row h holds each fragment's image under host
        # automorphism h.
        cache = self._image_cache
        entries = [cache.get(f) or self._images(f) for f in frags]
        if self.complete_pattern:
            # every order of a complete pattern's fragments is a pattern
            # automorphism, so the least row of host h is sorted
            return tuple(min(map(sorted, zip(*[e[0] for e in entries]))))
        return self._least_row(frags, entries)

    def _images(self, frag: int) -> tuple:
        # the fragment mapped along every host automorphism of the key,
        # its least image and the hosts that attain it; few distinct
        # fragments recur across states, so _state_key keeps them
        images = self.no_images
        for v in bits(frag):
            images = tuple(map(or_, images, self.vimages[v]))
        least = min(images)
        got = (images, least, [h for h, x in enumerate(images) if x == least])
        if len(self._image_cache) < 100_000:
            self._image_cache[frag] = got
        return got

    def _first_columns(self, occupied: int) -> tuple:
        # the row's all-zero prefix and the columns read right after it
        # depend only on which fragments are nonempty: empty fragments
        # map to 0 under every host automorphism, so while the prefix is
        # all 0 one mask of tied permutations serves every host
        got = self._first_cache.get(occupied)
        if got is None:
            n = len(self.reads)
            perms = self.all_perms
            for d in range(n):
                reads = self.reads[d]
                empty = 0
                cols = []
                for c in range(n):
                    if reads[c] & perms:
                        if occupied >> c & 1:
                            cols.append((c, perms & reads[c]))
                        else:
                            empty |= reads[c]
                if not empty:
                    break
                perms &= empty
            else:
                d, cols = n, []
            got = (d, cols)
            if len(self._first_cache) < 100_000:
                self._first_cache[occupied] = got
        return got

    def _columns(self, d: int, mask: int) -> tuple:
        # the columns that the permutations of mask read at position d;
        # a mask of tied permutations is a coset, which reads only a few
        got = tuple(c for c, m in enumerate(self.reads[d]) if m & mask)
        if len(self._col_cache[d]) < 10_000:
            self._col_cache[d][mask] = got
        return got

    def _least_row(self, frags: list, entries: list) -> tuple:
        # lexicographically least row (image of fragment perm[d] at
        # position d) over host automorphisms and pattern permutations,
        # built one position at a time. A candidate is a host with the
        # bitmask of permutations whose rows tie the least prefix so far.
        n = len(frags)
        occupied = 0
        for c, f in enumerate(frags):
            if f:
                occupied |= 1 << c
        z, firsts = self._first_columns(occupied)
        if z == n:
            return (0,) * n
        # the first nonempty position splits the candidates by host;
        # distinct nonempty fragments have distinct images
        least = min([entries[c][1] for c, _ in firsts])
        cands = [(h, m) for c, m in firsts if entries[c][1] == least
                 for h in entries[c][2]]
        row = [0] * z
        row.append(least)
        images = [e[0] for e in entries]
        for d in range(z + 1, n):
            known = self._col_cache[d]
            reads = self.reads[d]
            least = None
            tied = []
            for h, mask in cands:
                low = None
                for c in known.get(mask) or self._columns(d, mask):
                    x = images[c][h]
                    if low is None or x < low:
                        low, keep = x, reads[c] & mask
                    elif x == low:
                        keep |= reads[c] & mask
                if least is None or low < least:
                    least, tied = low, [(h, keep)]
                elif low == least:
                    tied.append((h, keep))
            row.append(least)
            cands = tied
        return tuple(row)

    def _tick(self) -> None:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise UndecidedError(
                f"minor search exhausted its node budget of {self.budget}")

    def run(self) -> Optional[list]:
        frags = [0] * self.pattern.n
        free = (1 << self.host.n) - 1
        return self._solve(frags, free, [0] * self.pattern.n)

    def _nbrmask(self, mask: int) -> int:
        got = self._nbr_cache.get(mask)
        if got is None:
            out = 0
            for v in bits(mask):
                out |= self.adj[v]
            if len(self._nbr_cache) < 1_000_000:
                self._nbr_cache[mask] = out
            return out
        return got

    def _components(self, free: int) -> tuple:
        # the components of the free vertices and their neighborhoods;
        # many states share one free mask, so they are kept per mask
        got = self._comp_cache.get(free)
        if got is None:
            comps = components(free, self.adj)
            got = (comps, [self._nbrmask(c) for c in comps])
            if len(self._comp_cache) < 200_000:
                self._comp_cache[free] = got
        return got

    def _solve(self, frags: list, free: int, nb: list) -> Optional[list]:
        # nb[p] is the neighbourhood of fragment p, 0 when it is empty;
        # each caller updates the entries its move changes
        self._tick()
        slack = free.bit_count() - frags.count(0)
        if slack < 0:
            return None
        # most zero-slack states die here, before any list is built
        if slack == 0 and self._zero_slack_refuted(frags, free, nb):
            return None
        # an edge is pending until both ends are seeded and adjacent
        pending = [idx for idx, (i, j) in enumerate(self.pedges) if not nb[i] & frags[j]]
        unseeded = [p for p, f in enumerate(frags) if not f]
        if not pending and not unseeded:
            return list(frags)
        if not self._feasible(frags, free, pending, unseeded):
            return None
        # only states that survive the cheap verdicts and must branch
        # pay for a canonical key and a slot in the failure memo
        key = self._state_key(frags)
        if key in self.failed:
            self.memo_hits += 1
            return None
        got = self._branch(frags, free, nb, pending, unseeded)
        if got is None and len(self.failed) < 2_000_000:
            self.failed.add(key)
        return got

    def _zero_slack_refuted(self, frags: list, free: int, nb: list) -> bool:
        # as many free vertices as unseeded pattern vertices: each free
        # vertex is the whole branch set of one unseeded vertex, and
        # every seeded fragment is final. A pattern edge between two
        # seeded fragments must already be witnessed.
        for i, j in self.pedges:
            if frags[i] and frags[j] and not nb[i] & frags[j]:
                return True
        # candidate vertices of each unseeded vertex: free vertices
        # adjacent to all of its seeded neighbors
        dom = [0] * len(frags)
        left = 0
        for q, f in enumerate(frags):
            if f:
                continue
            d = free
            for s in self.pnbrs[q]:
                if frags[s]:
                    d &= nb[s]
            if not d:
                return True
            dom[q] = d
            left |= 1 << q
        # arc consistency along pattern edges between unseeded vertices:
        # a candidate of q needs a host neighbor among r's candidates
        arcs = self._unseeded_links(left)[0]
        adj = self.adj
        changed = True
        while changed:
            changed = False
            for q, r in arcs:
                reach = 0
                m = dom[r]
                while m:
                    low = m & -m
                    reach |= adj[low.bit_length() - 1]
                    m ^= low
                d = dom[q] & reach
                if d != dom[q]:
                    if not d:
                        return True
                    dom[q] = d
                    changed = True
        return False

    def _branch(self, frags: list, free: int, nb: list, pending: list,
                unseeded: list) -> Optional[list]:
        both, one = [], []
        for idx in pending:
            i, j = self.pedges[idx]
            seeded = (frags[i] != 0) + (frags[j] != 0)
            if seeded == 2:
                both.append(idx)
            elif seeded == 1:
                one.append(idx)
        contacts = {}
        for idx in both + one:
            for p in self.pedges[idx]:
                if frags[p] and p not in contacts:
                    contacts[p] = (nb[p] & free).bit_count()
        if both:
            # fail-first: connect the most constrained fragment pair
            def both_key(idx):
                i, j = self.pedges[idx]
                ci, cj = contacts[i], contacts[j]
                return (min(ci, cj), ci + cj, idx)
            i, j = self.pedges[min(both, key=both_key)]
            if contacts[j] < contacts[i]:
                i, j = j, i
            return self._connect(frags, free, nb, i, j)
        if one:
            # seed the unseeded endpoint that is already pinned down by
            # the most seeded neighbors, then the tightest fragment
            def one_key(idx):
                i, j = self.pedges[idx]
                u = j if frags[i] else i
                pinned = sum(1 for k in self.pnbrs[u] if frags[k])
                return (-pinned, contacts[i if frags[i] else j], idx)
            i, j = self.pedges[min(one, key=one_key)]
            if not frags[i]:
                i, j = j, i
            return self._connect_seed(frags, free, nb, i, j, len(unseeded))
        # no pending edge touches a seeded vertex: seed a fresh one
        pick = max(unseeded, key=lambda p: (self.pdeg[p], -p))
        empty_state = all(f == 0 for f in frags)
        if empty_state:
            reps = automorphism_orbits(self.host)
            candidates = [v for v in range(self.host.n) if reps[v] == v and free >> v & 1]
        else:
            candidates = list(bits(free))
        for v in candidates:
            frags[pick] = 1 << v
            nb[pick] = self.adj[v]
            got = self._solve(frags, free & ~(1 << v), nb)
            if got:
                return got
            frags[pick] = 0
            nb[pick] = 0
        return None

    def _feasible(self, frags, free, pending, unseeded) -> bool:
        comps, cadj = self._components(free)
        # sets of free components as bitmasks of component indices:
        # those adjacent to each seeded fragment, and those that can
        # hold each unseeded vertex's branch set
        touch = [0] * len(frags)
        for p, f in enumerate(frags):
            if f:
                got = 0
                for ci, cn in enumerate(cadj):
                    if cn & f:
                        got |= 1 << ci
                touch[p] = got
        # _solve checked that free has a vertex for every unseeded
        # pattern vertex, so there is a component whenever one is unseeded
        feasible = [(1 << len(comps)) - 1] * len(frags)
        left = 0
        for p in unseeded:
            left |= 1 << p
            ok = feasible[p]
            for q in self.pnbrs[p]:
                if frags[q]:
                    ok &= touch[q]
            if not ok:
                return False
            feasible[p] = ok
        for idx in pending:
            i, j = self.pedges[idx]
            if frags[i] and frags[j] and not touch[i] & touch[j]:
                return False
        # adjacent unseeded branch sets grow inside free vertices, so a
        # connected group of unseeded pattern vertices must fit together
        # into a single free component feasible for every one of them
        for members, size in self._unseeded_links(left)[1]:
            inter = -1
            for p in members:
                inter &= feasible[p]
            if not inter:
                return False
            if max(comps[ci].bit_count() for ci in bits(inter)) < size:
                return False
        return True

    def _unseeded_links(self, left: int) -> tuple:
        # per mask of unseeded pattern vertices: the pattern edges among
        # them as arcs (q, r) both ways, and their connected groups of at
        # least two vertices as member lists with their sizes
        got = self._link_cache.get(left)
        if got is None:
            arcs = [(q, r) for q in bits(left) for r in self.pnbrs[q] if left >> r & 1]
            groups = [(tuple(bits(grp)), grp.bit_count())
                      for grp in components(left, self.pmask) if grp.bit_count() > 1]
            got = (arcs, groups)
            if len(self._link_cache) < 100_000:
                self._link_cache[left] = got
        return got

    def _connect(self, frags, free, nb, i, j) -> Optional[list]:
        # all chordless free paths from fragment i to fragment j
        fi, fj = frags[i], frags[j]
        start = nb[i] & free
        end_zone = nb[j] & free
        if not start or not end_zone:
            return None
        # only components touching both fragments can carry a connector
        allowed = 0
        for c in self._components(free)[0]:
            if c & start and c & end_zone:
                allowed |= c
        start &= allowed
        limit = free.bit_count() - frags.count(0)

        def extend(path_masks, path, last):
            self._tick()
            if self.adj[last] & fj:
                got = self._apply(frags, free, nb, i, j, path)
                if got:
                    return got
                return None
            if len(path) >= limit:
                return None
            pm = path_masks
            before_last = pm & ~(1 << last)
            for w in bits(self.adj[last] & free & ~pm):
                if self.adj[w] & before_last:
                    continue  # chord back into the path
                if self.adj[w] & fi:
                    continue  # only the first path vertex may touch fragment i
                path.append(w)
                got = extend(pm | 1 << w, path, w)
                if got:
                    return got
                path.pop()
            return None

        for v1 in bits(start):
            got = extend(1 << v1, [v1], v1)
            if got:
                return got
        return None

    def _split_masks(self, path) -> tuple:
        # the path's vertex mask and the neighbourhood of each suffix
        # path[s:], for s = 0..len(path)
        adj = self.adj
        mask = 0
        tails = [0] * (len(path) + 1)
        for s in range(len(path) - 1, -1, -1):
            mask |= 1 << path[s]
            tails[s] = tails[s + 1] | adj[path[s]]
        return mask, tails

    def _apply(self, frags, free, nb, i, j, path) -> Optional[list]:
        # fragment i takes the prefix path[:s] and j the suffix
        mask, tails = self._split_masks(path)
        nfree = free & ~mask
        old_i, old_j = frags[i], frags[j]
        nb_i, nb_j = nb[i], nb[j]
        pre = head = 0
        for s in range(len(path) + 1):
            if s:
                pre |= 1 << path[s - 1]
                head |= self.adj[path[s - 1]]
            frags[i] = old_i | pre
            frags[j] = old_j | (mask ^ pre)
            nb[i] = nb_i | head
            nb[j] = nb_j | tails[s]
            got = self._solve(frags, nfree, nb)
            if got:
                return got
        frags[i], frags[j] = old_i, old_j
        nb[i], nb[j] = nb_i, nb_j
        return None

    def _connect_seed(self, frags, free, nb, i, j, n_unseeded) -> Optional[list]:
        # paths from fragment i whose suffix founds the branch set of j
        fi = frags[i]
        start = nb[i] & free
        if not start:
            return None
        # the new branch set stays inside its free component forever, so
        # that component must reach every already seeded neighbor of j
        seeded_others = [frags[k] for k in self.pnbrs[j] if k != i and frags[k]]
        allowed = 0
        for c, cn in zip(*self._components(free)):
            if c & start and all(cn & fk for fk in seeded_others):
                allowed |= c
        start &= allowed
        limit = free.bit_count() - (n_unseeded - 1)

        def extend(path_masks, path, last):
            self._tick()
            got = self._apply_seed(frags, free, nb, i, j, path)
            if got:
                return got
            if len(path) >= limit:
                return None
            pm = path_masks
            before_last = pm & ~(1 << last)
            for w in bits(self.adj[last] & free & ~pm):
                if self.adj[w] & before_last:
                    continue
                if self.adj[w] & fi:
                    continue
                path.append(w)
                got = extend(pm | 1 << w, path, w)
                if got:
                    return got
                path.pop()
            return None

        for v1 in bits(start):
            got = extend(1 << v1, [v1], v1)
            if got:
                return got
        return None

    def _apply_seed(self, frags, free, nb, i, j, path) -> Optional[list]:
        # fragment i takes the prefix path[:s] and the suffix founds j
        mask, tails = self._split_masks(path)
        nfree = free & ~mask
        old_i = frags[i]
        nb_i = nb[i]
        pre = head = 0
        for s in range(len(path)):
            if s:
                pre |= 1 << path[s - 1]
                head |= self.adj[path[s - 1]]
            frags[i] = old_i | pre
            frags[j] = mask ^ pre
            nb[i] = nb_i | head
            nb[j] = tails[s]
            got = self._solve(frags, nfree, nb)
            if got:
                return got
        frags[i], frags[j] = old_i, 0
        nb[i], nb[j] = nb_i, 0
        return None


def _model_from_frags(host: Graph, pattern: Graph, frags: list) -> MinorModel:
    branch = {p: frozenset(bits(frags[p])) for p in range(pattern.n)}
    witnesses = {}
    adj = neighbor_masks(host)
    for (i, j) in pattern.edges:
        found = None
        for a in sorted(branch[i]):
            hit = adj[a] & frags[j]
            if hit:
                found = (a, (hit & -hit).bit_length() - 1)
                break
        witnesses[(i, j)] = found
    return MinorModel(branch, witnesses, pattern)


# hosts of at most this many edges also get every pair of edges forced
# before the greedy runs of the contraction probe
_PROBE_PAIR_EDGES = 40


def contraction_probe(host: Graph, k: int) -> Optional[MinorModel]:
    """A K_k model of host found by greedy contraction, or None.

    Each run contracts some forced edges, then greedily the edge whose
    contraction loses the fewest edges (itself and one per common
    neighbour), smallest first on ties, until k vertices are left; it
    hits when those are pairwise adjacent. The runs force no edge, then
    each single edge, then, on hosts of at most ``_PROBE_PAIR_EDGES``
    edges, each pair of edges. None proves nothing, and the model is not
    verified here: a caller counts a hit only once ``verify_minor_model``
    replays it. No budget is spent.
    """
    need = k * (k - 1) // 2
    if host.n < k or host.m < need:
        return None
    adj = neighbor_masks(host)
    edges = host.edges
    forced = itertools.chain([()], ((e,) for e in edges),
                             itertools.combinations(edges, 2)
                             if host.m <= _PROBE_PAIR_EDGES else ())
    for fixed in forced:
        frags = _contract_greedily(adj, host.m, fixed, k, need)
        if frags is not None:
            return _model_from_frags(host, complete_graph(k), frags)
    return None


def _contract_greedily(adj: Tuple[int, ...], m: int, fixed, k: int, need: int) -> Optional[list]:
    """Branch sets of a K_k reached by one probe run, or None.

    The edges in ``fixed`` are contracted first, in host labels. A run
    stops as soon as fewer than ``need`` edges would be left on k
    vertices, since every contraction loses at least one.
    """
    adj = list(adj)
    frags = [1 << v for v in range(len(adj))]
    alive = (1 << len(adj)) - 1
    count = len(adj)
    fixed = iter(fixed)
    while m - (count - k) >= need:
        if count == k:
            return [frags[r] for r in bits(alive)]
        forced = next(fixed, None)
        if forced is not None:
            u, v = sorted(next(r for r in bits(alive) if frags[r] >> a & 1) for a in forced)
        else:
            # the first edge losing no more than itself cannot be beaten
            best = (len(adj), 0, 0)
            for x in bits(alive):
                for y in bits(adj[x] >> (x + 1) << (x + 1)):
                    common = (adj[x] & adj[y]).bit_count()
                    if common < best[0]:
                        best = (common, x, y)
                if best[0] == 0:
                    break
            _, u, v = best
        # v merges into u
        m -= 1 + (adj[u] & adj[v]).bit_count()
        bu, bv = 1 << u, 1 << v
        for w in bits(adj[v] & ~bu):
            adj[w] = adj[w] & ~bv | bu
        adj[u] = (adj[u] | adj[v]) & ~(bu | bv)
        frags[u] |= frags[v]
        alive &= ~bv
        count -= 1
    return None


def find_minor(host: Graph, pattern: Graph, budget: Optional[int] = None) -> Optional[MinorModel]:
    """Search for a minor model of pattern in host.

    Returns a verified MinorModel, or None when no model exists. With a
    budget, raises UndecidedError once that many search nodes have been
    expanded. Deterministic for fixed inputs.
    """
    if pattern.n == 0:
        return MinorModel({}, {}, pattern)
    if pattern.n > host.n or pattern.m > host.m:
        return None
    # nested connector DFS plus one solve level per absorbed vertex
    need = 4 * host.n * max(1, pattern.m) + 100
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)
    search = _Search(host, pattern, budget)
    frags = search.run()
    if frags is None:
        return None
    model = _model_from_frags(host, pattern, frags)
    if not verify_minor_model(host, pattern, model):
        raise RuntimeError("branch-set witness does not replay against its host")
    return model
