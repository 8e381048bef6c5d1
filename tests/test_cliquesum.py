"""Clique sum construction, the contraction linking test, and sum maximality."""

import itertools

import pytest

from maxnil_lab.canon import canonical_form
from maxnil_lab.cliquesum import (
    CliqueSumSpec,
    clique_sum,
    decompose_at_cut,
    hls_clique_sum_is_il,
    induced_clique_or_c4_subgraph,
    is_strongly_separating,
    k2_sum_maxnil_predicate,
    k3_sum_maxnil_predicate,
    k4_sum_maxnil_predicate,
)
from maxnil_lab.errors import GraphError
from maxnil_lab.graph import (
    build_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    delete_edge,
    path_graph,
)
from maxnil_lab.linking import is_intrinsically_linked, is_maxnil


def k6_minus() -> "Graph":
    return delete_edge(complete_graph(6), (4, 5))


def q13() -> "Graph":
    return circulant_graph(13, (1, 3))


def test_spec_validation():
    tri = complete_graph(3)
    with pytest.raises(GraphError):
        CliqueSumSpec(tri, tri, {})
    with pytest.raises(GraphError):
        CliqueSumSpec(tri, tri, {0: 0, 1: 0})
    with pytest.raises(GraphError):
        CliqueSumSpec(path_graph(3), tri, {0: 0, 2: 1})
    k7 = complete_graph(7)
    with pytest.raises(GraphError):
        CliqueSumSpec(k7, k7, {v: v for v in range(6)})


def test_two_triangles_over_an_edge():
    tri = complete_graph(3)
    s = clique_sum(CliqueSumSpec(tri, tri, {0: 0, 1: 1}))
    assert (s.n, s.m) == (4, 5)
    assert s.has_edge(0, 1)
    assert not s.has_edge(2, 3)


def test_sum_arithmetic():
    import random
    rng = random.Random(7)
    for _ in range(15):
        t = rng.randrange(1, 6)
        n1 = rng.randrange(t + 1, t + 5)
        n2 = rng.randrange(t + 1, t + 5)
        needed = list(itertools.combinations(range(t), 2))
        e1 = set(needed)
        e2 = set(needed)
        for g_edges, n in ((e1, n1), (e2, n2)):
            for a in range(n):
                for b in range(a + 1, n):
                    if (a, b) not in g_edges and rng.random() < 0.5:
                        g_edges.add((a, b))
        g1 = build_graph(n1, sorted(e1))
        g2 = build_graph(n2, sorted(e2))
        s = clique_sum(CliqueSumSpec(g1, g2, {v: v for v in range(t)}))
        assert s.n == n1 + n2 - t
        assert s.m == g1.m + g2.m - t * (t - 1) // 2


def test_degree_two_extensions_of_q():
    # four triangles glued over distinct edges, one at a time
    g = q13()
    base_m = g.m
    for i, e in enumerate(g.edges[:4]):
        spec = CliqueSumSpec(g, complete_graph(3), {e[0]: 0, e[1]: 1})
        g = clique_sum(spec)
        assert (g.n, g.m) == (14 + i, base_m + 2 * (i + 1))
    assert (g.n, g.m) == (17, 34)


def test_chain_of_q_copies_along_one_edge():
    q = q13()
    h = q
    for k in range(2, 5):
        h = clique_sum(CliqueSumSpec(h, q, {0: 0, 1: 1}))
        assert (h.n, h.m) == (11 * k + 2, 25 * k + 1)


def test_labels_carry_with_left_priority():
    g1 = build_graph(3, [(0, 1), (1, 2), (0, 2)], {0: "x", 1: "y", 2: "a"})
    g2 = build_graph(3, [(0, 1), (1, 2), (0, 2)], {0: "p", 1: "q", 2: "b"})
    s = clique_sum(CliqueSumSpec(g1, g2, {0: 0, 1: 1}))
    assert s.label(0) == "x" and s.label(1) == "y"
    assert s.label(2) == "a" and s.label(3) == "b"


def test_hls_needs_a_clique_cut():
    with pytest.raises(GraphError):
        hls_clique_sum_is_il(cycle_graph(5), (0, 2))
    with pytest.raises(GraphError):
        hls_clique_sum_is_il(complete_graph(4), (0, 1))


def test_hls_small_cliques_never_link():
    q = q13()
    tri = complete_graph(3)
    s = clique_sum(CliqueSumSpec(q, tri, {0: 0, 1: 1}))
    assert not hls_clique_sum_is_il(s, (0, 1))
    s2 = clique_sum(CliqueSumSpec(k6_minus(), tri, {0: 0, 1: 1}))
    assert not hls_clique_sum_is_il(s2, (0, 1))
    il, _ = is_intrinsically_linked(s2)
    assert not il
    s3 = clique_sum(CliqueSumSpec(k6_minus(), k6_minus(), {0: 0, 1: 1, 2: 2}))
    assert not hls_clique_sum_is_il(s3, (0, 1, 2))
    il, _ = is_intrinsically_linked(s3)
    assert not il


def test_hls_three_full_components_over_k4():
    k4 = complete_graph(4)
    g = build_graph(7, list(k4.edges) + [(v, a) for v in (4, 5, 6) for a in range(4)])
    assert hls_clique_sum_is_il(g, (0, 1, 2, 3))
    il, model = is_intrinsically_linked(g)
    assert il and model is not None


def test_hls_five_clique_two_apexes():
    k5e = list(itertools.combinations(range(5), 2))
    # both apexes missing the same clique vertex: linked
    same = build_graph(7, k5e + [(5, a) for a in range(4)] + [(6, a) for a in range(4)])
    assert hls_clique_sum_is_il(same, tuple(range(5)))
    il, _ = is_intrinsically_linked(same)
    assert il
    # apexes missing different clique vertices: linkless
    diff = build_graph(7, k5e + [(5, a) for a in (1, 2, 3, 4)] + [(6, a) for a in (0, 2, 3, 4)])
    assert not hls_clique_sum_is_il(diff, tuple(range(5)))
    il, _ = is_intrinsically_linked(diff)
    assert not il


def test_strongly_separating_cases():
    k4 = complete_graph(4)
    two_apexes = build_graph(6, list(k4.edges) +
                             [(4, a) for a in range(4)] + [(5, a) for a in range(4)])
    assert is_strongly_separating(two_apexes, (0, 1, 2, 3))
    pendant = build_graph(5, list(k4.edges) + [(4, 0)])
    assert not is_strongly_separating(pendant, (0, 1, 2, 3))
    # the deleted-edge pair of K6 minus an edge forms two full components
    assert is_strongly_separating(k6_minus(), (0, 1, 2, 3))
    # keeping one endpoint of the deleted edge inside leaves one component
    assert not is_strongly_separating(k6_minus(), (0, 1, 2, 4))
    with pytest.raises(GraphError):
        is_strongly_separating(pendant, (0, 1, 2))
    with pytest.raises(GraphError):
        is_strongly_separating(cycle_graph(5), (0, 1, 2, 3))


def test_k2_predicate():
    q = q13()
    tri = complete_graph(3)
    assert k2_sum_maxnil_predicate(q, (0, 1), tri, (0, 1))
    assert not k2_sum_maxnil_predicate(k6_minus(), (0, 1), k6_minus(), (0, 1))
    with pytest.raises(GraphError):
        k2_sum_maxnil_predicate(q, (0, 2), tri, (0, 1))


def test_strict_mode_recertifies_the_summands():
    # K3 is maxnil vacuously, so strict mode lets the sum through
    tri = complete_graph(3)
    assert not k2_sum_maxnil_predicate(tri, (0, 1), tri, (0, 1), strict=True)
    # adding the missing edge to a 3-vertex path leaves it nIL
    with pytest.raises(GraphError, match="summand 2"):
        k2_sum_maxnil_predicate(tri, (0, 1), path_graph(3), (0, 1), strict=True)


def test_k2_predicate_matches_direct_certification():
    s = clique_sum(CliqueSumSpec(k6_minus(), k6_minus(), {0: 0, 1: 1}))
    report = is_maxnil(s)
    assert report.il_status == "nIL"
    assert report.maxnil_status == "not-maxnil"


def test_k3_predicate_false_when_both_sides_have_loose_tetrahedra():
    # over {0,1,2} both copies keep the non-separating completion by 4
    left, right = k6_minus(), k6_minus()
    assert not k3_sum_maxnil_predicate(left, (0, 1, 2), right, (0, 1, 2))
    s = clique_sum(CliqueSumSpec(left, right, {0: 0, 1: 1, 2: 2}))
    report = is_maxnil(s)
    assert report.maxnil_status == "not-maxnil"


def test_k3_predicate_vacuous_side_counts_as_satisfied():
    # no common neighbor of the prism triangle, so the condition is vacuous
    prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])
    assert k3_sum_maxnil_predicate(prism, (0, 1, 2), complete_graph(4), (0, 1, 2))


def test_k3_predicate_demands_a_minimal_cut():
    # a pendant off vertex 0 makes {0} a cut by itself
    left = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    with pytest.raises(GraphError):
        k3_sum_maxnil_predicate(left, (0, 1, 2), complete_graph(4), (0, 1, 2))


def test_k4_predicate_and_certification():
    left, right = k6_minus(), k6_minus()
    # K4 holding one endpoint of each missing edge: one leftover component
    assert k4_sum_maxnil_predicate(left, (0, 1, 2, 4), right, (0, 1, 2, 4))
    good = clique_sum(CliqueSumSpec(left, right, {v: v for v in (0, 1, 2, 4)}))
    report = is_maxnil(good)
    assert report.maxnil_status == "maxnil"
    # K4 avoiding the missing edge: strongly separating on both sides
    assert not k4_sum_maxnil_predicate(left, (0, 1, 2, 3), right, (0, 1, 2, 3))
    bad = clique_sum(CliqueSumSpec(left, right, {v: v for v in range(4)}))
    il, model = is_intrinsically_linked(bad)
    assert il and model is not None
    assert is_maxnil(bad).maxnil_status == "not-maxnil"


def test_decompose_at_cut():
    tri = complete_graph(3)
    s = clique_sum(CliqueSumSpec(tri, tri, {0: 0, 1: 1}))
    pieces = decompose_at_cut(s, (0, 1))
    assert [canonical_form(p) for p in pieces] == [canonical_form(tri)] * 2
    with pytest.raises(GraphError):
        decompose_at_cut(complete_graph(4), (0, 1))


def test_decompose_chain_of_q_copies():
    q = q13()
    h2 = clique_sum(CliqueSumSpec(q, q, {0: 0, 1: 1}))
    pieces = decompose_at_cut(h2, (0, 1))
    assert len(pieces) == 2
    assert all(canonical_form(p) == canonical_form(q) for p in pieces)


def test_clique_or_c4_shapes():
    q = q13()
    # neighborhood of a vertex in the circulant: discrete four vertices
    assert induced_clique_or_c4_subgraph(q, sorted(q.neighbors(0)))
    wheel = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                            (0, 4), (1, 4), (2, 4), (3, 4)])
    assert induced_clique_or_c4_subgraph(wheel, (0, 1, 2, 3))
    assert induced_clique_or_c4_subgraph(complete_graph(5), range(4))
    assert induced_clique_or_c4_subgraph(path_graph(4), range(4))
    claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not induced_clique_or_c4_subgraph(claw, range(4))
    tri_plus = build_graph(4, [(0, 1), (1, 2), (0, 2)])
    assert not induced_clique_or_c4_subgraph(tri_plus, range(4))
