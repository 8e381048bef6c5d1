"""Intrinsic linking, maxnility and K6-minor maximality with certificates.

A graph is intrinsically linked (IL) iff it contains a member of the
Petersen family as a minor, the seven graphs reachable from K6 by
triangle-Y exchanges. The family is generated here by closing {K6}
under both moves, where the Y-to-triangle direction is applied only at
degree-3 vertices with independent neighborhoods (the exact inverse of
the triangle-to-Y move, so edge counts never collapse).

The IL test tries family members smallest first, K6 leading, and
short-circuits on a hit. Members are first probed under a small node
budget, then any that came back undecided are re-run exhaustively; this
staging changes which witness is found, never the verdict, and is
deterministic. Only lists of more than one pattern are staged: a lone
pattern's probe runs the same search as its rerun, so the K6 test
searches exhaustively at once.

Two sound steps keep the branch-set search off easy hosts. Since
every family member is 3-connected, a host splitting at an adjacent
cut pair {u, v} contains a member iff one of the split sides (each
keeping u, v and the edge uv) does: branch sets of a 3-connected
pattern cannot straddle a 2-cut, and a fragment poking through {u, v}
prunes back to its own side. Sums over an identified edge therefore
decompose into their parts.

The second decides linklessness by linear algebra over GF(2)
(``embedding.linkless_clasps``) on every host the component and
cut-pair splits leave open, before the branch-set search runs. It is
the one nIL decider: a nIL verdict rests on it and on the cut-pair
split alone. Conway and Gordon ("Knots and links in spatial graphs",
1983) and Sachs (1983) show that every embedding of a family member
has two disjoint cycles with odd linking number, and so has every
embedding of a graph with such a minor. Robertson, Seymour and Thomas ("Sachs'
linkless embedding conjecture", JCTB 64, 1995) show that a graph with
no such minor embeds linklessly. So a host is nIL exactly when some
embedding makes every disjoint cycle pair link evenly, which is a
solvable linear system. When the system is consistent the host has no
family member and no K6 minor, and no search runs. In the IL and K6
tests an inconsistent system only means the host is IL: the search
still runs, to find the witness or, for K6, to decide. The system is
built from chordless short cycles only, since a chorded cycle's
equations sum those of shorter cycles. A host whose system asks for
more than ``embedding.CYCLE_CAP`` of them goes to the search as well:
any nIL host with that many, since its system lists them all, and an
IL host only if it needs that many before its first 0 = 1, whether or
not the host is apex. No verdict is cached, so each one depends only on
the host, the patterns and the budget.

One K6 test, ``has_k6_minor``, serves every caller, K6-maximality's
base test and scan included. It first deletes, while there is one, a
vertex whose neighbours form a clique of at most 4 vertices, which
keeps the K6 verdict (Tarjan, "Decomposition by clique separators",
1985). On what is left the contraction probe
(``minors.contraction_probe``) contracts greedily down to 6 vertices,
spending no budget; on a miss the cut-pair split, the parity system
and the search decide.

Every host the splits and the parity system leave open goes to the
one branch-set search, ``minors.find_minor``, whatever its size. So
every witness comes in one format, and a budget always counts
branch-set search nodes. A
model found in a piece (a component, a cut-pair side, the K6 test's
reduced host) or by the probe is relabelled into the host and
replayed: a search model that does not replay raises RuntimeError,
also under ``python -O``, and a probe model that does not is a miss.

Maxnility and K6-maximality scan one non-edge per orbit of Aut(G),
the smallest one, in lexicographic order: adding two edges of one orbit
gives isomorphic hosts, so one search decides the whole orbit, and the
smallest failing representative is the smallest failing edge. Orbits
are exact, read off the automorphism generators of one canonical search
of G. The K6-maximality scan runs the K6 test on each representative.
The maxnility scan decides them without the branch-set search, since
reports carry no witness per added edge. A host splitting at an
adjacent cut pair is decided side by side, each side by its own,
smaller parity system; any other host is its own one side. A
consistent system on every side means G+e is nIL, so G is not maxnil.
An inconsistent one comes with an odd-sum certificate
(``embedding.linked_certificate``): disjoint cycle pairs whose linking
parities add up to odd in every embedding. Relabelled into G+e, it is
replayed against the whole host by
``embedding.verify_linked_certificate``, without the solver, and one
that does not replay raises RuntimeError, also under ``python -O``.
Only a host whose system asks for more than ``embedding.CYCLE_CAP``
chordless short cycles goes to the search, straight away. A budget
applies to the search of each representative, so a scan that the parity system
or the probe settles spends none of it. A parallel mode may partition
the representatives across processes; results are combined so the
reported failing edge is the smallest one regardless of scheduling.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .canon import automorphism_generators, canonical_form, orbit_representatives
from .embedding import (
    CyclePair,
    linked_certificate,
    linkless_clasps,
    verify_linked_certificate,
)
from .errors import UndecidedError
from .formats import graph6_encode
from .graph import (
    Edge,
    Graph,
    add_edge,
    bits,
    complete_graph,
    components,
    connected_components,
    induced_subgraph,
    neighbor_masks,
    triangle_to_y,
    y_to_triangle,
)
from .minors import (
    MinorModel,
    contraction_probe,
    find_minor,
    model_to_json_dict,
    verify_minor_model,
)

# node budget for the first, cheap probe of each family member
_STAGE_BUDGET = 20000

_PETERSEN: Optional[Tuple[Graph, ...]] = None


def petersen_family() -> Tuple[Graph, ...]:
    """The seven forbidden minors for linkless embedding, K6 first."""
    global _PETERSEN
    if _PETERSEN is not None:
        return _PETERSEN
    seen = {}
    queue = [complete_graph(6)]
    seen[canonical_form(queue[0])] = queue[0]
    while queue:
        g = queue.pop()
        moves = []
        for tri in _triangles(g):
            moves.append(triangle_to_y(g, tri))
        for v in range(g.n):
            nbrs = sorted(g.neighbors(v))
            if len(nbrs) == 3 and not any(
                    g.has_edge(a, b) for a in nbrs for b in nbrs if a < b):
                moves.append(y_to_triangle(g, v))
        for h in moves:
            key = canonical_form(h)
            if key not in seen:
                seen[key] = h
                queue.append(h)
    members = sorted(seen.values(), key=lambda g: (g.n, canonical_form(g)))
    _PETERSEN = tuple(members)
    return _PETERSEN


def _triangles(g: Graph):
    for u, v in g.edges:
        for w in sorted(g.neighbors(u) & g.neighbors(v)):
            if w > v:
                yield (u, v, w)


def _lift_model(host: Graph, verts: list, model: MinorModel, what: str) -> MinorModel:
    """A piece's model relabelled by ``verts`` and replayed against host."""
    branch = {p: frozenset(verts[v] for v in bs) for p, bs in model.branch_sets.items()}
    wit = {e: (verts[a], verts[b]) for e, (a, b) in model.edge_witnesses.items()}
    lifted = MinorModel(branch, wit, model.pattern)
    if not verify_minor_model(host, model.pattern, lifted):
        raise RuntimeError(f"{what} witness does not replay against its host")
    return lifted


def _cut_pair_sides(g: Graph) -> Optional[list]:
    """Sides of g at its first adjacent cut pair, or None if it has none.

    The cut pair is the first edge whose ends disconnect g. Each side is
    a sorted vertex list of one component left by the pair, plus both
    ends; sides come by their lowest vertex off the pair.
    """
    adj = neighbor_masks(g)
    everything = (1 << g.n) - 1
    for (u, v) in g.edges:
        cut = 1 << u | 1 << v
        comps = components(everything & ~cut, adj)
        if len(comps) > 1:
            return [list(bits(comp | cut)) for comp in comps]
    return None


def _search_any_minor(g: Graph, patterns, budget: Optional[int]) -> Optional[MinorModel]:
    """First listed pattern occurring as a minor of g, with its model.

    Every pattern must be intrinsically linked and 3-connected, as the
    Petersen family and K6 are. Connected components are searched one
    by one in vertex order. Each is split at an adjacent cut pair, and
    a side without one goes to the linking parity decider; a host the
    decider shows nIL has none of the patterns. What is left goes to the
    branch-set search, pattern by pattern, at any size. A budget caps
    the nodes of each branch-set search strictly and exhaustion
    propagates.
    Hosts decided by the splits or the parity decider spend no budget,
    at any size, and their own work is not counted against it: the
    parity decider runs unbudgeted on every host that reaches it, IL or not, bounded
    only by ``embedding.CYCLE_CAP``, which counts the chordless short
    cycles it generates before its first 0 = 1 (all of them on a nIL
    host).
    """
    pieces, what = connected_components(g), "component"
    if len(pieces) <= 1:
        patterns = [p for p in patterns if p.n <= g.n and p.m <= g.m]
        if not patterns:
            return None
        pieces, what = _cut_pair_sides(g), "cut-pair"
        if pieces is None:
            try:
                if linkless_clasps(g) is not None:
                    return None
            except UndecidedError:
                pass  # over the cycle cap before any 0 = 1; the search decides
            return _search_patterns(g, patterns, budget)
    for verts in pieces:
        model = _search_any_minor(induced_subgraph(g, verts), patterns, budget)
        if model is not None:
            return _lift_model(g, verts, model, what)
    return None


def _search_patterns(g: Graph, patterns, budget: Optional[int]) -> Optional[MinorModel]:
    """The branch-set search of g for the first listed pattern it contains."""
    # a lone pattern's probe would run the same deterministic search as
    # its exhaustive rerun, so only lists of several patterns are staged
    if budget is not None or len(patterns) == 1:
        for pat in patterns:
            model = find_minor(g, pat, budget=budget)
            if model is not None:
                return model
        return None
    undecided = []
    for pat in patterns:
        try:
            model = find_minor(g, pat, budget=_STAGE_BUDGET)
        except UndecidedError:
            undecided.append(pat)
            continue
        if model is not None:
            return model
    for pat in undecided:
        model = find_minor(g, pat)
        if model is not None:
            return model
    return None


def is_intrinsically_linked(g: Graph, budget: Optional[int] = None) -> Tuple[bool, Optional[MinorModel]]:
    """IL verdict with a Petersen-family minor model as the witness.

    With ``budget`` set, every underlying search is capped at that many
    nodes and exhaustion raises UndecidedError instead of guessing.
    Hosts decided by the linking parity decider spend no budget, at any
    size, so every nIL graph it settles comes back nIL under any budget.
    The budget counts branch-set search nodes only: the parity decider
    runs unbudgeted, IL host or not, before the search of every host
    that the component and cut-pair splits leave open, bounded only by
    ``embedding.CYCLE_CAP``, which counts the chordless short cycles it
    generates before its first 0 = 1.
    The outcome depends only on ``g`` and ``budget``.
    """
    model = _petersen_minor(g, budget)
    return (model is not None), model


def _petersen_minor(g: Graph, budget: Optional[int]) -> Optional[MinorModel]:
    """Witness of the IL test."""
    # every family member has 15 edges and at least 6 vertices
    if g.m < 15 or g.n < 6:
        return None
    return _search_any_minor(g, petersen_family(), budget)


def has_k6_minor(g: Graph, budget: Optional[int] = None) -> Tuple[bool, Optional[MinorModel]]:
    """K6-minor verdict with a minor model as the witness.

    The one K6 test, K6-maximality's too. Its contraction probe and,
    since K6 is IL, the linking parity decider spend no budget, at any
    size; ``budget`` caps the branch-set search nodes of the other
    hosts as in ``is_intrinsically_linked``.
    """
    model = _k6_minor(g, budget)
    return (model is not None), model


def _k6_minor(g: Graph, budget: Optional[int]) -> Optional[MinorModel]:
    """Witness of the K6 test."""
    # K6 has 15 edges
    if g.m < 15 or g.n < 6:
        return None
    verts = _k6_core(g)
    core = induced_subgraph(g, verts)
    model = contraction_probe(core, 6)
    if model is not None:
        try:
            return _lift_model(g, verts, model, "probe")
        except RuntimeError:
            pass  # the probe guarantees nothing: a model that does not replay is a miss
    model = _search_any_minor(core, [complete_graph(6)], budget)
    return None if model is None else _lift_model(g, verts, model, "core")


@dataclass
class VerificationReport:
    """Outcome of an IL, maxnil or K6-maximality certification."""

    subject: Graph
    il_status: str  # "IL" | "nIL"
    il_witness: Optional[MinorModel] = None
    maxnil_status: Optional[str] = None  # "maxnil" | "not-maxnil"
    maxnil_failing_edge: Optional[Edge] = None
    k6_has_minor: Optional[bool] = None
    k6_witness: Optional[MinorModel] = None
    k6_maximal_status: Optional[str] = None  # "maximal" | "not-maximal"
    k6_failing_edge: Optional[Edge] = None
    elapsed_ms: float = 0.0

    @property
    def n(self) -> int:
        return self.subject.n

    @property
    def m(self) -> int:
        return self.subject.m

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "subject": graph6_encode(self.subject),
            "n": self.n,
            "m": self.m,
            "il_status": self.il_status,
            "il_witness": model_to_json_dict(self.il_witness) if self.il_witness else None,
            "maxnil_status": self.maxnil_status,
            "maxnil_failing_edge": list(self.maxnil_failing_edge) if self.maxnil_failing_edge else None,
            "k6_has_minor": self.k6_has_minor,
            "k6_witness": model_to_json_dict(self.k6_witness) if self.k6_witness else None,
            "k6_maximal_status": self.k6_maximal_status,
            "k6_failing_edge": list(self.k6_failing_edge) if self.k6_failing_edge else None,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_elapsed: bool = True, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(include_elapsed), sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":"))


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("MAXNIL_LAB_THREADS", "1")))
    except ValueError:
        return 1


def _linked_pairs(g: Graph) -> Optional[Tuple[CyclePair, ...]]:
    """Odd-sum certificate of g from the parity system, or None if g is nIL.

    A host splitting at an adjacent cut pair is IL iff one of its sides
    is, so the sides' smaller systems are solved instead. Sides keep
    the host's vertex order, so a side's certificate, relabelled, has
    the same crossings in the host's reference drawing. Raises
    UndecidedError when a system asks for more than
    ``embedding.CYCLE_CAP`` chordless short cycles.
    """
    sides = _cut_pair_sides(g)
    if sides is None:
        return linked_certificate(g)
    for verts in sides:
        pairs = _linked_pairs(induced_subgraph(g, verts))
        if pairs is not None:
            return tuple(tuple(tuple(verts[w] for w in cyc) for cyc in pair) for pair in pairs)
    return None


def _augmentation_is_linked(aug: Graph, budget: Optional[int]) -> bool:
    """IL verdict for a scan host, without the branch-set search if it can.

    An IL verdict must replay its odd-sum certificate against the whole
    host; a certificate that does not raises RuntimeError, also under
    ``python -O``. A host whose system asks for more than
    ``embedding.CYCLE_CAP`` chordless short cycles goes straight to the
    branch-set search, which would otherwise follow a second generation
    of the same cycles.
    """
    try:
        pairs = _linked_pairs(aug)
    except UndecidedError:
        return _search_patterns(aug, petersen_family(), budget) is not None
    if pairs is None:
        return False
    if not verify_linked_certificate(aug, pairs):
        raise RuntimeError("odd-sum certificate does not replay against its host")
    return True


def _k6_core(g: Graph) -> list:
    """Vertices of g left by deleting simplicial vertices of degree <= 4.

    A vertex whose neighbours form a clique of at most 4 vertices is
    deleted, repeatedly, which keeps the K6-minor verdict: it cannot be
    a branch set of K6 alone, and dropping it from a larger branch set
    keeps that set connected (its neighbours there are adjacent) and
    each edge at it witnessed by an edge at one of those neighbours. A
    deletable vertex stays deletable as others go, so the order does
    not matter. A K5 neighbourhood is kept: with the vertex it is K6.
    """
    keep = set(range(g.n))
    shrunk = True
    while shrunk:
        shrunk = False
        for v in sorted(keep):
            nbrs = sorted(g.neighbors(v) & keep)
            if len(nbrs) <= 4 and all(g.has_edge(a, b) for i, a in enumerate(nbrs)
                                      for b in nbrs[i + 1:]):
                keep.remove(v)
                shrunk = True
    return sorted(keep)


def _scan_chunk(args) -> Tuple[str, Optional[Edge]]:
    g, edges, budget, k6_mode = args
    for e in edges:
        aug = add_edge(g, e)
        try:
            if k6_mode:
                hit = _k6_minor(aug, budget) is not None
            else:
                hit = _augmentation_is_linked(aug, budget)
        except UndecidedError:
            return ("undecided", e)
        if not hit:
            return ("fail", e)
    return ("ok", None)


def _non_edge_orbits(g: Graph) -> Dict[Edge, Edge]:
    """Smallest member of its Aut(g) orbit, for each non-edge of g.

    The orbits are exact, those of the group that one canonical search
    of g generates.
    """
    return orbit_representatives(g.non_edges(), automorphism_generators(g),
                                 lambda p, e: tuple(sorted((p[e[0]], p[e[1]]))))


def _scan_augmentations(g: Graph, threads: int, budget: Optional[int],
                        k6_mode: bool) -> Optional[Edge]:
    """Smallest non-edge whose addition stays minor-free, or None.

    Only the smallest non-edge of each Aut(g) orbit is added and
    searched, in lexicographic order; the others give isomorphic hosts.
    A budget caps the search of each representative, and if an earlier
    representative would have raised UndecidedError before any failure
    in the sequential scan, that error is raised.
    """
    reps = [e for e, rep in _non_edge_orbits(g).items() if e == rep]
    if not reps:
        return None
    if threads <= 1:
        result = _scan_chunk((g, reps, budget, k6_mode))
    else:
        chunks = [reps[i::threads] for i in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            events = list(pool.map(_scan_chunk, [(g, c, budget, k6_mode)
                                                     for c in chunks if c]))
        hits = [(e, kind) for kind, e in events if e is not None]
        if not hits:
            return None
        e, kind = min(hits)
        result = (kind, e)
    kind, e = result
    if kind == "undecided":
        raise UndecidedError(
            f"augmentation by edge {e} exceeded the node budget")
    return e if kind == "fail" else None


def is_maxnil(g: Graph, threads: Optional[int] = None, budget: Optional[int] = None) -> VerificationReport:
    """Certify that g is nIL and that every edge addition is IL."""
    t0 = time.perf_counter()
    threads = _default_threads() if threads is None else max(1, threads)
    witness = _petersen_minor(g, budget)
    il = witness is not None
    report = VerificationReport(subject=g, il_status="IL" if il else "nIL", il_witness=witness)
    if il:
        report.maxnil_status = "not-maxnil"
    else:
        failing = _scan_augmentations(g, threads, budget, False)
        if failing is None:
            report.maxnil_status = "maxnil"
        else:
            report.maxnil_status = "not-maxnil"
            report.maxnil_failing_edge = failing
    report.elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return report


def is_maximal_k6_minor_free(g: Graph, threads: Optional[int] = None,
                             budget: Optional[int] = None) -> VerificationReport:
    """Certify that g has no K6 minor and every edge addition creates one."""
    t0 = time.perf_counter()
    threads = _default_threads() if threads is None else max(1, threads)
    il_witness = _petersen_minor(g, budget)
    il = il_witness is not None
    # K6 is IL, so a nIL graph has no K6 minor
    witness = _k6_minor(g, budget) if il else None
    report = VerificationReport(subject=g, il_status="IL" if il else "nIL", il_witness=il_witness,
                                k6_has_minor=witness is not None, k6_witness=witness)
    if witness is not None:
        report.k6_maximal_status = "not-maximal"
    else:
        failing = _scan_augmentations(g, threads, budget, True)
        if failing is None:
            report.k6_maximal_status = "maximal"
        else:
            report.k6_maximal_status = "not-maximal"
            report.k6_failing_edge = failing
    report.elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return report
