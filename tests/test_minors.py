import itertools
import random

import networkx as nx
import numpy as np
import pytest

from maxnil_lab import families
from maxnil_lab.errors import UndecidedError
from maxnil_lab.graph import (
    Graph,
    build_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    path_graph,
    subdivide_edge,
)
from maxnil_lab.linking import petersen_family
from maxnil_lab.minors import (
    MinorModel,
    _automorphisms,
    _bits,
    _free_components,
    _mask_tables,
    _Search,
    find_minor,
    model_from_json_dict,
    model_to_json_dict,
    verify_minor_model,
)

K5 = complete_graph(5)
K33 = complete_multipartite(3, 3)


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def nx_planar(g):
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges)
    return nx.check_planarity(h)[0]


def test_identity_model():
    k6 = complete_graph(6)
    model = find_minor(k6, k6)
    assert model is not None
    assert verify_minor_model(k6, k6, model)
    assert all(len(bs) == 1 for bs in model.branch_sets.values())


def test_no_k5_or_k33_in_planar():
    planar = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (2, 4), (0, 4)])
    assert nx_planar(planar)
    assert find_minor(planar, K5) is None
    assert find_minor(planar, K33) is None


def test_k6_in_k7():
    model = find_minor(complete_graph(7), complete_graph(6))
    assert model is not None and verify_minor_model(complete_graph(7), complete_graph(6), model)


def test_subdivision_keeps_minor():
    g = complete_graph(5)
    for _ in range(4):
        g, _ = subdivide_edge(g, g.edges[0])
    model = find_minor(g, K5)
    assert model is not None and verify_minor_model(g, K5, model)


def test_petersen_contains_k33_but_not_k5_subgraph_sense():
    # Petersen graph: vertices are 2-subsets of a 5-set, disjointness adjacency
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(pairs, 2)
             if not set(a) & set(b)]
    petersen = build_graph(10, edges)
    assert petersen.m == 15
    for pat in (K5, K33):
        model = find_minor(petersen, pat)
        assert model is not None and verify_minor_model(petersen, pat, model)


def test_wagner_equivalence_with_planarity():
    # planar iff no K5 minor and no K33 minor, checked against networkx
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(4, 9)
        g = random_graph(n, rng.uniform(0.3, 0.8), rng)
        mine = find_minor(g, K5) is None and find_minor(g, K33) is None
        assert mine == nx_planar(g)


def test_disconnected_pattern_and_host():
    two_tris = disjoint_union(cycle_graph(3), cycle_graph(3))
    host = disjoint_union(cycle_graph(5), cycle_graph(4))
    model = find_minor(host, two_tris)
    assert model is not None and verify_minor_model(host, two_tris, model)
    assert find_minor(cycle_graph(6), two_tris) is None


def test_absence_answers():
    assert find_minor(path_graph(3), cycle_graph(3)) is None
    assert find_minor(cycle_graph(4), complete_graph(4)) is None
    assert find_minor(complete_graph(4), complete_graph(5)) is None


def test_empty_pattern():
    model = find_minor(complete_graph(3), Graph(0))
    assert model is not None and verify_minor_model(complete_graph(3), Graph(0), model)


def test_determinism():
    host = random_graph(9, 0.5, random.Random(5))
    a = find_minor(host, K33)
    b = find_minor(host, K33)
    assert a is not None
    assert a.branch_sets == b.branch_sets and a.edge_witnesses == b.edge_witnesses


def test_verify_rejects_bad_models():
    k4 = complete_graph(4)
    good = find_minor(k4, cycle_graph(3))
    assert verify_minor_model(k4, cycle_graph(3), good)
    overlapping = MinorModel({0: frozenset({0, 1}), 1: frozenset({1}), 2: frozenset({2})},
                             dict(good.edge_witnesses))
    assert not verify_minor_model(k4, cycle_graph(3), overlapping)
    path_host = path_graph(4)
    disconnected = MinorModel({0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})},
                              {(0, 1): (0, 1), (0, 2): (3, 2), (1, 2): (1, 2)})
    assert not verify_minor_model(path_host, cycle_graph(3), disconnected)
    missing_witness = MinorModel({0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})},
                                 {(0, 1): (0, 1), (1, 2): (1, 2)})
    assert not verify_minor_model(k4, cycle_graph(3), missing_witness)
    empty_set = MinorModel({0: frozenset(), 1: frozenset({1}), 2: frozenset({2})},
                           dict(good.edge_witnesses))
    assert not verify_minor_model(k4, cycle_graph(3), empty_set)


def test_budget_exhaustion():
    # a search this tiny budget cannot finish: K6 in a 14-vertex expander-ish host
    rng = random.Random(8)
    host = random_graph(14, 0.25, rng)
    with pytest.raises(UndecidedError):
        find_minor(host, complete_graph(6), budget=3)


def test_model_json_round_trip():
    k6 = complete_graph(6)
    model = find_minor(complete_graph(7), k6)
    d = model_to_json_dict(model)
    back = model_from_json_dict(d)
    assert back.branch_sets == model.branch_sets
    assert {k: tuple(v) for k, v in back.edge_witnesses.items()} == \
        {k: tuple(v) for k, v in model.edge_witnesses.items()}
    assert back.pattern == k6


def test_minor_of_dense_random_hosts():
    rng = random.Random(77)
    for _ in range(20):
        g = random_graph(10, 0.85, rng)
        model = find_minor(g, complete_graph(5))
        # dense 10-vertex graphs essentially always have a K5 minor; verify when found
        if model is not None:
            assert verify_minor_model(g, K5, model)


def numpy_state_key(search):
    """Reference: the state key computed in numpy for every search.

    Host automorphisms map fragments through byte lookup tables, a
    complete pattern's rows are sorted, pattern automorphisms permute
    columns, and the key is the bytes of the lexicographically least row.
    """
    host, pattern = search.host, search.pattern
    complete = pattern.m == pattern.n * (pattern.n - 1) // 2
    hauts = _automorphisms(host, 512)
    hlut = None
    if len(hauts) > 1:
        step = max(1, len(hauts) // 32)
        hlut = np.array([_mask_tables(perm, host.n) for perm in hauts[::step][:32]],
                        dtype=np.uint64)
    nblocks = (host.n + 7) // 8
    pperms = None
    if not complete:
        pauts = _automorphisms(pattern, 512)
        if len(pauts) > 1:
            cap = max(1, 2048 // (1 if hlut is None else len(hlut)))
            step = max(1, (len(pauts) + cap - 1) // cap)
            pperms = np.array(pauts[::step][:cap], dtype=np.intp)
    per = max(1, 64 // host.n)
    packing = [range(lo, min(lo + per, pattern.n)) for lo in range(0, pattern.n, per)]

    def key(frags):
        if hlut is None and pperms is None:
            return tuple(sorted(frags)) if complete else tuple(frags)
        arr = np.array(frags, dtype=np.uint64)
        if hlut is None:
            rows = arr[None, :]
        else:
            idx = (arr & np.uint64(255)).astype(np.intp)
            rows = hlut[:, 0, idx]
            for b in range(1, nblocks):
                idx = (arr >> np.uint64(8 * b) & np.uint64(255)).astype(np.intp)
                rows = rows | hlut[:, b, idx]
        if complete:
            rows = np.sort(rows, axis=1)
        elif pperms is not None:
            rows = rows[:, pperms].reshape(-1, arr.size)
        if rows.shape[0] == 1:
            return rows[0].tobytes()
        shift = np.uint64(host.n)
        cand = None
        for group in packing:
            word = rows[:, group[0]] if cand is None else rows[cand, group[0]]
            for c in group[1:]:
                word = word << shift | (rows[:, c] if cand is None else rows[cand, c])
            keep = word == word.min()
            cand = np.flatnonzero(keep) if cand is None else cand[keep]
            if cand.size == 1:
                break
        return rows[cand[0]].tobytes()

    return key


def reference_feasible(search, frags, free, pending, unseeded):
    # reference: the pruning with Python sets and components recomputed
    # at every call
    comps = _free_components(free, search.adj)
    cadj = [search._nbrmask(c) for c in comps]
    feasible_comps = {}
    for p in unseeded:
        seeded_nbrs = [q for q in search.pnbrs[p] if frags[q]]
        if seeded_nbrs:
            ok = {ci for ci, cn in enumerate(cadj)
                  if all(cn & frags[q] for q in seeded_nbrs)}
            if not ok:
                return False
        else:
            ok = set(range(len(comps)))
        feasible_comps[p] = ok
    for idx in pending:
        i, j = search.pedges[idx]
        fi, fj = frags[i], frags[j]
        if fi and fj and not any(cn & fi and cn & fj for cn in cadj):
            return False
    left = sum(1 << p for p in unseeded)
    while left:
        grp = frontier = left & -left
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= search.pmask[v]
            grow &= left & ~grp
            grp |= grow
            frontier = grow
        left &= ~grp
        members = list(_bits(grp))
        if len(members) == 1:
            continue
        inter = set.intersection(*(feasible_comps[p] for p in members))
        if not inter or max(bin(comps[ci]).count("1") for ci in inter) < len(members):
            return False
    return True


class ReferenceSearch(_Search):
    """The branch-set search with the reference key and pruning."""

    def __init__(self, host, pattern, budget):
        super().__init__(host, pattern, budget)
        self.reference_key = numpy_state_key(self)

    def _state_key(self, frags):
        return self.reference_key(frags)

    def _feasible(self, frags, free, pending, unseeded):
        return reference_feasible(self, frags, free, pending, unseeded)


def random_states(host, pattern, rng, count):
    # disjoint fragments, some left empty, plus their images under host
    # automorphisms and pattern relabellings, so equal keys occur
    hauts = _automorphisms(host, 512)
    pauts = _automorphisms(pattern, 512)
    states = []
    for _ in range(count):
        frags = [0] * pattern.n
        for v in range(host.n):
            p = rng.randrange(2 * pattern.n)
            if p < pattern.n:
                frags[p] |= 1 << v
        for p in rng.sample(range(pattern.n), rng.randrange(pattern.n)):
            frags[p] = 0
        states.append(frags)
        h = rng.choice(hauts)
        moved = [sum(1 << h[v] for v in _bits(f)) for f in frags]
        states.append(moved)
        q = rng.choice(pauts)
        states.append([moved[q[c]] for c in range(pattern.n)])
    return states


def test_state_keys_match_numpy_reference():
    q, j5 = families.q13_3(), families.jorgensen_family(5)
    petersen = next(p for p in petersen_family() if p.n == 10)
    rng = random.Random(2024)
    for host, pattern in ((q, complete_graph(6)), (j5, complete_graph(6)), (q, petersen)):
        search = _Search(host, pattern, None)
        reference = numpy_state_key(search)
        states = random_states(host, pattern, rng, 300)
        new = [search._state_key(list(f)) for f in states]
        ref = [reference(list(f)) for f in states]
        # the two keys induce the same classes: equal exactly together
        assert len(set(new)) == len(set(ref)) == len(set(zip(new, ref)))
        assert len(set(ref)) < len(states)
        full = (1 << host.n) - 1
        for _ in range(200):
            free = rng.getrandbits(host.n) & full
            comps, nbrs = search._components(free)
            assert comps == _free_components(free, search.adj)
            assert nbrs == [search._nbrmask(c) for c in comps]
            assert search._components(free) is search._components(free)


def test_search_nodes_match_reference():
    # the same nodes and failure memo as the numpy key and set pruning:
    # complete, symmetric and asymmetric patterns, symmetric and
    # asymmetric hosts, refutations and hits
    family = petersen_family()
    asymmetric_host = Graph(10, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 8), (2, 3),
                                 (2, 4), (2, 7), (3, 5), (3, 7), (3, 9), (4, 8), (5, 8)])
    asymmetric_pattern = Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5),
                                   (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5),
                                   (4, 6)])
    assert len(_automorphisms(asymmetric_host)) == len(_automorphisms(asymmetric_pattern)) == 1
    j1, j2, j3 = (families.jorgensen_family(i) for i in (1, 2, 3))
    cases = [(j2, complete_graph(6)), (j1, family[1]), (j1, family[4]), (j3, family[6]),
             (asymmetric_host, complete_graph(6)), (j1, asymmetric_pattern)]
    for host, pattern in cases:
        new, ref = _Search(host, pattern, None), ReferenceSearch(host, pattern, None)
        got, want = new.run(), ref.run()
        assert got == want
        assert (new.nodes, len(new.failed)) == (ref.nodes, len(ref.failed)), (host.n, pattern.n)
