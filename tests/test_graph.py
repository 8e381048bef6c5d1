import itertools
import random

import networkx as nx
import pytest

from maxnil_lab.errors import GraphError
from maxnil_lab.graph import (
    Graph,
    add_edge,
    bits,
    build_graph,
    circulant_graph,
    complete_graph,
    complete_multipartite,
    components,
    connected_components,
    contract_edge,
    cycle_graph,
    delete_edge,
    delete_vertex,
    deletion_mapping,
    disjoint_union,
    induced_subgraph,
    is_connected,
    is_triangular_edge,
    is_triangular_graph,
    minimal_vertex_cuts,
    neighbor_masks,
    non_triangular_edges,
    path_graph,
    permute_vertices,
    split_vertex,
    subdivide_edge,
    triangle_to_y,
    vertex_connectivity,
    y_to_triangle,
)

TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])


def brute_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    ge = set(g.edges)
    for perm in itertools.permutations(range(h.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in ge for u, v in h.edges):
            return True
    return False


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def test_build_counts():
    k6 = complete_graph(6)
    assert (k6.n, k6.m) == (6, 15)
    assert (TRIANGLE.n, TRIANGLE.m) == (3, 3)
    assert TRIANGLE.degree_sequence() == (2, 2, 2)


def test_build_rejects_bad_input():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match="duplicate edge"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError, match="duplicate label"):
        build_graph(2, [(0, 1)], labels={0: "u", 1: "u"})


def test_edge_count_is_half_degree_sum():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(8, 0.4, rng)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_structural_equality_ignores_labels():
    a = build_graph(2, [(0, 1)], labels={0: "u"})
    b = build_graph(2, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a.label(0) == "u" and b.label(0) is None


def test_delete_edge_vertex():
    k6 = complete_graph(6)
    assert delete_edge(k6, (0, 1)).m == 14
    assert delete_vertex(k6, 3) == complete_graph(5)
    assert delete_vertex(TRIANGLE, 2) == build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        delete_edge(TRIANGLE, (0, 0))
    with pytest.raises(GraphError):
        delete_vertex(TRIANGLE, 5)


def test_deletion_keeps_labels_on_survivors():
    g = build_graph(4, [(0, 1), (2, 3)], labels={0: "u", 3: "t"})
    h = delete_vertex(g, 1)
    assert h.label_map() == {0: "u", 2: "t"}
    assert deletion_mapping(4, [1]) == {0: 0, 2: 1, 3: 2}


def test_contract_edge():
    assert contract_edge(TRIANGLE, (0, 1)) == build_graph(2, [(0, 1)])
    k4 = complete_graph(4)
    assert contract_edge(k4, (1, 2)) == complete_graph(3)
    with pytest.raises(GraphError):
        contract_edge(k4, (4, 5))
    # order drops by one even when duplicates collapse
    c4 = cycle_graph(4)
    g = contract_edge(c4, (0, 1))
    assert (g.n, g.m) == (3, 3)


def test_subdivide_edge():
    p, w = subdivide_edge(build_graph(2, [(0, 1)]), (0, 1))
    assert w == 2 and p == build_graph(3, [(0, 2), (1, 2)])
    g, w = subdivide_edge(TRIANGLE, (0, 2))
    assert (g.n, g.m) == (4, 4)
    assert not g.has_edge(0, 2) and g.has_edge(0, w) and g.has_edge(2, w)


def test_split_vertex_basics():
    # splitting a degree-2 vertex with singleton sides lengthens a path
    p3 = path_graph(3)
    g = split_vertex(p3, 1, [0], [2])
    assert brute_isomorphic(g, path_graph(4))
    with pytest.raises(GraphError, match="cover"):
        split_vertex(p3, 1, [0], [])
    with pytest.raises(GraphError, match="not a neighbor"):
        split_vertex(p3, 1, [0], [1])


def test_split_contract_round_trip_exhaustive_small():
    # every graph on up to 5 vertices, every vertex, sampled side choices
    rng = random.Random(2024)
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            for v in range(n):
                nbrs = sorted(g.neighbors(v))
                for _ in range(2):
                    sa = [w for w in nbrs if rng.random() < 0.5]
                    sb = [w for w in nbrs if w not in sa]
                    sh = [w for w in nbrs if rng.random() < 0.3]
                    split = split_vertex(g, v, sa, sb, shared=sh)
                    back = contract_edge(split, (v, g.n))
                    assert brute_isomorphic(back, g)


def test_split_contract_round_trip_sampled_n6():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(6, 0.5, rng)
        v = rng.randrange(6)
        nbrs = sorted(g.neighbors(v))
        sa = [w for w in nbrs if rng.random() < 0.5]
        sb = [w for w in nbrs if w not in sa]
        back = contract_edge(split_vertex(g, v, sa, sb), (v, 6))
        assert brute_isomorphic(back, g)


def test_delta_y_moves():
    k4 = complete_graph(4)
    g = triangle_to_y(k4, (0, 1, 2))
    assert (g.n, g.m) == (5, 6)
    # the inverse move at the created vertex restores the original
    assert brute_isomorphic(y_to_triangle(g, 4), k4)
    with pytest.raises(GraphError, match="triangle"):
        triangle_to_y(cycle_graph(4), (0, 1, 2))
    with pytest.raises(GraphError, match="degree"):
        y_to_triangle(cycle_graph(4), 0)


def test_y_to_triangle_collapses_duplicates():
    # center's neighbors already pairwise adjacent: edge count drops by 3
    k4 = complete_graph(4)
    g = y_to_triangle(k4, 3)
    assert g == complete_graph(3)


def test_delta_y_round_trip_sampled():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(7, 0.5, rng)
        tris = [t for t in itertools.combinations(range(7), 3)
                if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2]) and g.has_edge(t[0], t[2])]
        if not tris:
            continue
        t = tris[rng.randrange(len(tris))]
        h = triangle_to_y(g, t)
        assert h.m == g.m and h.n == g.n + 1
        assert brute_isomorphic(y_to_triangle(h, g.n), g)


def test_connectivity():
    assert vertex_connectivity(complete_graph(6)) == 5
    two_tris = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert vertex_connectivity(two_tris) == 1
    assert vertex_connectivity(cycle_graph(5)) == 2
    assert vertex_connectivity(disjoint_union(TRIANGLE, TRIANGLE)) == 0
    assert vertex_connectivity(path_graph(2)) == 1
    assert vertex_connectivity(complete_graph(1)) == 0


def test_minimal_vertex_cuts():
    two_tris = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    cuts1 = minimal_vertex_cuts(two_tris, 1)
    assert [sorted(c.vertices) for c in cuts1] == [[2]]
    # size-2 subsets containing the cut vertex are not minimal
    assert all(2 not in c.vertices for c in minimal_vertex_cuts(two_tris, 2))
    c5_cuts = minimal_vertex_cuts(cycle_graph(5), 2)
    # every nonadjacent pair of C5 is a minimal 2-cut
    assert len(c5_cuts) == 5
    with pytest.raises(GraphError):
        minimal_vertex_cuts(TRIANGLE, 3)


def test_triangular_edges():
    k6 = complete_graph(6)
    assert is_triangular_graph(k6)
    assert all(is_triangular_edge(k6, e) for e in k6.edges)
    c5 = cycle_graph(5)
    assert non_triangular_edges(c5) == c5.edges
    assert not is_triangular_graph(c5)
    with pytest.raises(GraphError):
        is_triangular_edge(c5, (0, 2))


def test_components_and_union():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert connected_components(g) == ((0, 1, 2), (3, 4))
    assert not is_connected(g)
    assert is_connected(TRIANGLE)


def test_components_match_networkx():
    # components of g minus a random removed set, as vertex tuples and
    # as masks, against networkx on the same vertices, including the
    # empty and one-vertex graphs and removed sets that take everything
    rng = random.Random(23)
    cases = [(Graph(0), ()), (Graph(1), ()), (Graph(1), (0,))]
    for _ in range(400):
        n = rng.randint(0, 16)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                      if rng.random() < rng.choice((0.1, 0.2, 0.4))])
        cases.append((g, rng.sample(range(n), rng.randint(0, n))))
    for g, removed in cases:
        ref = nx.Graph(g.edges)
        ref.add_nodes_from(range(g.n))
        ref.remove_nodes_from(removed)
        want = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
        assert connected_components(g, removed) == tuple(want)
        kept = sum(1 << v for v in range(g.n) if v not in removed)
        masks = components(kept, neighbor_masks(g))
        assert [tuple(bits(c)) for c in masks] == want
    assert list(bits(0b101001)) == [0, 3, 5]
    assert neighbor_masks(path_graph(3)) == (0b010, 0b101, 0b010)
    with pytest.raises(GraphError):
        connected_components(TRIANGLE, [3])


def test_permute_and_induced():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], labels={0: "a", 3: "d"})
    h = permute_vertices(g, [3, 2, 1, 0])
    assert h.edges == ((0, 1), (1, 2), (2, 3))
    assert h.label_map() == {3: "a", 0: "d"}
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub == path_graph(3)


def test_constructors():
    assert complete_multipartite(3, 3, 1).degree_sequence() == (6, 4, 4, 4, 4, 4, 4)
    q = circulant_graph(13, (1, 3))
    assert (q.n, q.m) == (13, 26)
    assert q.degree_sequence() == (4,) * 13
    assert cycle_graph(6) == circulant_graph(6, (1,))
    with pytest.raises(GraphError):
        circulant_graph(5, (3,))


def test_add_edge_rejects_existing():
    with pytest.raises(GraphError, match="already present"):
        add_edge(TRIANGLE, (0, 1))
    g = add_edge(cycle_graph(4), (0, 2))
    assert g.m == 5


def test_pickle_round_trip():
    import pickle

    g = build_graph(4, [(0, 1), (2, 3)], labels={0: "u"})
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.label_map() == {0: "u"}
