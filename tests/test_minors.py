import itertools
import random

import networkx as nx
import numpy as np
import pytest

from maxnil_lab import families
from maxnil_lab.canon import automorphism_group
from maxnil_lab.errors import UndecidedError
from maxnil_lab.graph import (
    Graph,
    bits,
    build_graph,
    complete_graph,
    complete_multipartite,
    components,
    cycle_graph,
    disjoint_union,
    path_graph,
    permute_vertices,
    subdivide_edge,
)
from maxnil_lab.linking import petersen_family
from maxnil_lab.minors import (
    MinorModel,
    _GROUP_LIMIT,
    _key_group,
    _model_from_frags,
    _Search,
    contraction_probe,
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


def test_contraction_probe_models_replay_and_agree_with_the_search():
    # every model the probe returns replays, and a hit means the exact
    # search finds the clique too; a miss proves nothing either way
    rng = random.Random(1107)
    k6 = complete_graph(6)
    outcomes = {"hit": 0, "miss": 0}
    for trial in range(60):
        host = random_graph(7 + trial % 6, rng.uniform(0.45, 0.9), rng)
        model = contraction_probe(host, 6)
        outcomes["miss" if model is None else "hit"] += 1
        if model is not None:
            assert verify_minor_model(host, k6, model)
            assert find_minor(host, k6) is not None
    assert outcomes["hit"] >= 20 and outcomes["miss"] >= 10
    assert contraction_probe(K33, 3) is not None
    assert contraction_probe(K5, 6) is None


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


def whole_group(g):
    """Every automorphism of g, listed by networkx, in lexicographic order."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return sorted(tuple(m[v] for v in range(g.n)) for m in matcher.isomorphisms_iter())


def key_group(g):
    # the whole group, which the search keys by when it is small enough
    group = whole_group(g)
    assert len(group) <= _GROUP_LIMIT
    return group


def image(frag, perm):
    return sum(1 << perm[v] for v in bits(frag))


def numpy_state_key(search):
    """Reference: the state key computed in numpy for every search.

    Fragments are mapped along each host automorphism bit by bit, a
    complete pattern's rows are sorted, pattern automorphisms permute
    columns, and the key is the bytes of the lexicographically least row.
    Both groups are listed by networkx, whole.
    """
    host, pattern = search.host, search.pattern
    complete = pattern.m == pattern.n * (pattern.n - 1) // 2
    targets = np.uint64(1) << np.array(key_group(host), dtype=np.uint64)
    vertices = np.arange(host.n, dtype=np.uint64)
    pperms = None if complete else np.array(key_group(pattern), dtype=np.intp)
    per = max(1, 64 // host.n)
    packing = [range(lo, min(lo + per, pattern.n)) for lo in range(0, pattern.n, per)]

    def key(frags):
        arr = np.array(frags, dtype=np.uint64)
        # member[c, v] is 1 when host vertex v lies in fragment c
        member = arr[:, None] >> vertices & np.uint64(1)
        rows = (member[None, :, :] * targets[:, None, :]).sum(axis=2, dtype=np.uint64)
        if complete:
            rows = np.sort(rows, axis=1)
        else:
            rows = rows[:, pperms].reshape(-1, arr.size)
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
    comps = components(free, search.adj)
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
            for v in bits(frontier):
                grow |= search.pmask[v]
            grow &= left & ~grp
            grp |= grow
            frontier = grow
        left &= ~grp
        members = list(bits(grp))
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


def kneser_5_2():
    # the Petersen graph as the Kneser graph: 2-subsets of 0..4, adjacent
    # when disjoint, in lexicographic order
    pairs = list(itertools.combinations(range(5), 2))
    return Graph(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                      if not set(pairs[a]) & set(pairs[b])])


def random_states(host, pattern, rng, count):
    # disjoint fragments, some left empty, plus their images under host
    # automorphisms and pattern relabellings, so equal keys occur
    hauts = whole_group(host)
    pauts = whole_group(pattern)
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
        moved = [image(f, h) for f in frags]
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
            assert comps == components(free, search.adj)
            assert nbrs == [search._nbrmask(c) for c in comps]
            assert search._components(free) is search._components(free)


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return permute_vertices(g, perm)


def reference_cases():
    # complete, symmetric and asymmetric patterns, symmetric and
    # asymmetric hosts, refutations and hits
    family = petersen_family()
    asymmetric_host = Graph(10, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 8), (2, 3),
                                 (2, 4), (2, 7), (3, 5), (3, 7), (3, 9), (4, 8), (5, 8)])
    asymmetric_pattern = Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5),
                                   (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5),
                                   (4, 6)])
    assert len(whole_group(asymmetric_host)) == len(whole_group(asymmetric_pattern)) == 1
    j1, j2, j3 = (families.jorgensen_family(i) for i in (1, 2, 3))
    petersen = next(p for p in family if p.n == 10)
    return [(j2, complete_graph(6)), (j1, family[1]), (j1, family[4]), (j3, family[6]),
            (asymmetric_host, complete_graph(6)), (j1, asymmetric_pattern),
            (kneser_5_2(), complete_multipartite(3, 3, 1)),
            (relabelled(families.q13_3(), 26), petersen)]


def test_search_nodes_match_reference():
    # the same nodes and failure memo as the numpy key and set pruning
    for host, pattern in reference_cases():
        new, ref = _Search(host, pattern, None), ReferenceSearch(host, pattern, None)
        got, want = new.run(), ref.run()
        assert got == want
        assert ((new.nodes, len(new.failed), new.memo_hits)
                == (ref.nodes, len(ref.failed), ref.memo_hits)), (host.n, pattern.n)


class MaskCheckedSearch(_Search):
    """The branch-set search, checking the neighbour masks of every node."""

    def _solve(self, frags, free, nb):
        assert nb == [self._nbrmask(f) if f else 0 for f in frags], (frags, nb)
        return super()._solve(frags, free, nb)


def test_neighbour_masks_follow_every_move():
    # each move updates only the masks of the fragments it changes; at
    # every node they must equal the masks computed from scratch
    petersen = next(p for p in petersen_family() if p.n == 10)
    for host, pattern in reference_cases() + [(families.q13_3(), petersen)]:
        search = MaskCheckedSearch(host, pattern, None)
        got = search.run()
        assert got is None or verify_minor_model(
            host, pattern, _model_from_frags(host, pattern, got))
        assert search.nodes > 0


def zero_slack_state(host, pattern, rng):
    # connected fragments grown at random for some pattern vertices,
    # leaving exactly as many free host vertices as unseeded ones
    k = pattern.n
    adj = [sum(1 << w for w in host.neighbors(v)) for v in range(host.n)]
    unseeded = rng.randrange(min(k, 5) + 1)
    seeded = rng.sample(range(k), k - unseeded)
    frags = [0] * k
    free = (1 << host.n) - 1
    for p, v in zip(seeded, rng.sample(range(host.n), len(seeded))):
        frags[p] = 1 << v
        free &= ~(1 << v)
    while free.bit_count() > unseeded:
        grow = [(p, w) for p in seeded for w in bits(free) if adj[w] & frags[p]]
        if not grow:
            return None
        p, w = rng.choice(grow)
        frags[p] |= 1 << w
        free &= ~(1 << w)
    return frags, free


def completes(host, pattern, frags, free):
    # brute force: some bijection from the unseeded pattern vertices to
    # the free host vertices completes a model around the fixed fragments
    unseeded = [p for p, f in enumerate(frags) if not f]
    for image in itertools.permutations(bits(free)):
        full = list(frags)
        for p, v in zip(unseeded, image):
            full[p] = 1 << v
        if verify_minor_model(host, pattern, _model_from_frags(host, pattern, full)):
            return True
    return False


def test_zero_slack_refutation_is_sound():
    # every zero-slack state the check refutes has no completion, found
    # by trying every bijection onto the free vertices
    rng = random.Random(909)
    patterns = [complete_graph(6)] + list(petersen_family()[1:])
    refuted = completed = 0
    for _ in range(400):
        pattern = rng.choice(patterns)
        n = rng.randrange(max(7, pattern.n), 12)
        host = random_graph(n, rng.uniform(0.3, 0.8), rng)
        state = zero_slack_state(host, pattern, rng)
        if state is None:
            continue
        frags, free = state
        search = _Search(host, pattern, None)
        nb = [search._nbrmask(f) if f else 0 for f in frags]
        if search._zero_slack_refuted(frags, free, nb):
            refuted += 1
            assert not completes(host, pattern, frags, free), (host.edges, frags)
        elif completes(host, pattern, frags, free):
            completed += 1
    assert refuted > 100 and completed > 0, (refuted, completed)


def test_q13_petersen_refutation_node_count():
    # the zero-slack check and orbit-exact keys prune about two thirds
    # of the nodes of this refutation
    petersen = next(p for p in petersen_family() if p.n == 10)
    search = _Search(families.q13_3(), petersen, None)
    assert search.run() is None
    assert (search.nodes, len(search.failed), search.memo_hits) == (59_958, 5_660, 2_125)


def test_no_state_carries_over_between_searches():
    # caches live per graph or per search, so running another search in
    # between moves no count of a repeated one
    petersen = next(p for p in petersen_family() if p.n == 10)
    q = families.q13_3()

    def run(host):
        search = _Search(host, petersen, None)
        return search.run(), (search.nodes, len(search.failed), search.memo_hits)

    first = run(q)
    assert run(relabelled(q, 7))[0] is None
    third = run(q)
    assert third[0] is None
    assert third == first


def test_state_keys_are_orbit_exact():
    # a state and its image under any automorphism of either side share
    # one key, because the search keys by whole groups
    petersen = next(p for p in petersen_family() if p.n == 10)
    rng = random.Random(25)
    for host, pattern in ((families.q13_3(), petersen),
                          (kneser_5_2(), complete_multipartite(3, 3, 1))):
        search = _Search(host, pattern, None)
        hauts, pauts = whole_group(host), whole_group(pattern)
        assert len(hauts) > 1 and len(pauts) > 1
        for frags in random_states(host, pattern, rng, 10)[::3]:
            key = search._state_key(frags)
            for h in hauts:
                assert search._state_key([image(f, h) for f in frags]) == key
            for q in pauts:
                assert search._state_key([frags[q[c]] for c in range(pattern.n)]) == key


def test_state_keys_of_edge_case_states_match_numpy_reference():
    # the all-empty root state, which the search keys, states with one
    # nonempty fragment and states with every fragment nonempty, each
    # keyed by a fresh search and by one whose caches are warm
    petersen = next(p for p in petersen_family() if p.n == 10)
    rng = random.Random(2026)
    for host, pattern in ((families.q13_3(), petersen),
                          (kneser_5_2(), complete_multipartite(3, 3, 1))):
        k = pattern.n
        states = [[0] * k]
        for c in range(k):
            frags = [0] * k
            frags[c] = rng.getrandbits(host.n) or 1
            states.append(frags)
        for _ in range(10):
            order = rng.sample(range(host.n), host.n)
            frags = [1 << v for v in order[:k]]
            for v in order[k:]:
                p = rng.randrange(2 * k)
                if p < k:
                    frags[p] |= 1 << v
            states.append(frags)
        warm = _Search(host, pattern, None)
        reference = numpy_state_key(warm)
        for frags in states + states[::-1]:
            fresh = _Search(host, pattern, None)
            for search in (fresh, warm):
                key = search._state_key(list(frags))
                assert np.array(key, dtype=np.uint64).tobytes() == reference(frags), frags
        assert warm._state_key([0] * k) == (0,) * k


def test_automorphisms_list_the_whole_group_in_order():
    rng = random.Random(2026)
    graphs = [next(p for p in petersen_family() if p.n == 10), kneser_5_2(),
              families.q13_3(), families.jorgensen_family(5)]
    graphs += [random_graph(rng.randrange(6, 10), rng.uniform(0.25, 0.75), rng)
               for _ in range(20)]
    for g in graphs:
        assert list(automorphism_group(g)) == whole_group(g)
    # above the limit the closure stops and says so
    k44 = complete_multipartite(4, 4)
    assert len(whole_group(k44)) == 1_152
    assert automorphism_group(k44, limit=_GROUP_LIMIT) is None
    assert list(automorphism_group(k44, limit=1_152)) == whole_group(k44)


def test_key_group_of_a_large_group_is_a_prefix_stabiliser():
    # K_{4,4} has 1,152 automorphisms; those fixing vertex 0 are 144
    host = complete_multipartite(4, 4)
    group = whole_group(host)
    assert len(group) > _GROUP_LIMIT
    want = [p for p in group if p[0] == 0]
    assert list(_key_group(host)) == want
    # closed under composition, so a group
    members = set(want)
    assert all(tuple(a[b[v]] for v in range(host.n)) in members for a in want for b in want)
    assert list(_key_group(families.q13_3())) == whole_group(families.q13_3())
