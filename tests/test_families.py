"""Family constructors: counts, self-checks, contraction identities.

The tests pin the structural facts (edge formulas, fold identities,
designated non-edges); of the certifications of whole families, only
those of J_1-J_3 and Q(13,3) are fast enough to run here.
"""

import pytest
from fractions import Fraction

from maxnil_lab.canon import canonical_form
from maxnil_lab.errors import ConfigurationError, GraphError
from maxnil_lab.families import (
    FAMILIES,
    FamilyParams,
    bounds_table,
    build_family,
    family_3n5,
    fig7_family,
    fig7_graph,
    graph_g,
    h_k,
    jorgensen_family,
    jorgensen_graph,
    k5_sum_example,
    q13_3,
    q_extension,
    theorem_main_graph,
)
from maxnil_lab.graph import (
    contract_edge,
    delete_vertex,
    delete_vertices,
    is_triangular_graph,
    non_triangular_edges,
)
from maxnil_lab.embedding import is_planar
from maxnil_lab.linking import is_intrinsically_linked, is_maxnil
from maxnil_lab.minors import verify_minor_model


def test_jorgensen_counts():
    g = jorgensen_graph()
    assert (g.n, g.m) == (8, 21)
    assert not g.has_edge(0, 1)
    # both apexes cover the whole prism
    assert g.neighbors(0) == set(range(2, 8))
    assert g.neighbors(1) == set(range(2, 8))
    for i in range(6):
        ji = jorgensen_family(i)
        assert (ji.n, ji.m) == (8 + i, 3 * (8 + i) - 3)


def test_jorgensen_family_labels_chain():
    j3 = jorgensen_family(3)
    zs = [j3.vertex_by_label(f"z{k}") for k in (1, 2, 3)]
    y = j3.vertex_by_label("y")
    x = j3.vertex_by_label("x")
    assert j3.has_edge(x, zs[0])
    assert j3.has_edge(zs[0], zs[1])
    assert j3.has_edge(zs[1], zs[2])
    assert j3.has_edge(zs[2], y)
    for z in zs:
        assert j3.has_edge(0, z) and j3.has_edge(1, z)


def test_jorgensen_base_certified_maxnil():
    rep = is_maxnil(jorgensen_graph())
    assert rep.il_status == "nIL"
    assert rep.maxnil_status == "maxnil"


def test_jorgensen_family_certified_maxnil():
    for i in (1, 2, 3):
        rep = is_maxnil(jorgensen_family(i))
        assert rep.maxnil_status == "maxnil", f"J_{i}"


def test_graph_g_structure():
    g = graph_g()
    assert (g.n, g.m) == (10, 25)
    b, d = g.vertex_by_label("b"), g.vertex_by_label("d")
    assert not g.has_edge(b, d)
    assert not g.has_edge(0, 1)
    # the fold back to the Jørgensen graph is re-checked by the
    # constructor; pin it here against an independently built target
    a = g.vertex_by_label("a")
    c = g.vertex_by_label("c")
    folded = contract_edge(g, tuple(sorted((a, d))))
    lo, hi = sorted((c, b))
    folded = contract_edge(folded, (lo - (1 if d < lo else 0),
                                    hi - (1 if d < hi else 0)))
    assert canonical_form(folded) == canonical_form(jorgensen_graph())


def test_g_family_counts():
    for i in range(5):
        gi = family_3n5(i)
        assert (gi.n, gi.m) == (10 + i, 25 + 3 * i)
        assert gi.m == 3 * gi.n - 5


def test_g_family_folds_back_to_base():
    # contracting the whole subdivision chain into x recovers G exactly,
    # with nothing left over
    base = canonical_form(graph_g())
    for i in (1, 2, 3):
        gi = family_3n5(i)
        for k in range(1, i + 1):
            x = gi.vertex_by_label("x")
            z = gi.vertex_by_label(f"z{k}")
            gi = contract_edge(gi, tuple(sorted((x, z))))
        assert canonical_form(gi) == base
        assert (gi.n, gi.m) == (10, 25)


def test_g_family_members_are_linked():
    # Subdividing xy and joining the new vertex to u and v creates a
    # forbidden minor, so the family leaves the linkless class at i=1.
    # Each verdict is backed by an independently verified witness, and
    # later members inherit the minor through the contraction chain.
    for i in (1, 2, 3):
        gi = family_3n5(i)
        il, model = is_intrinsically_linked(gi)
        assert il, f"G_{i}"
        assert verify_minor_model(gi, model.pattern, model), f"G_{i}"


def test_q13_3_structure():
    q = q13_3()
    assert (q.n, q.m) == (13, 26)
    assert not is_triangular_graph(q)
    assert len(non_triangular_edges(q)) == q.m
    assert all(len(q.neighbors(v)) == 4 for v in range(13))


def test_q13_3_certified_maxnil():
    rep = is_maxnil(q13_3())
    assert rep.il_status == "nIL"
    assert rep.maxnil_status == "maxnil"


def test_q_extension_counts_and_saturation():
    for n in (14, 20, 39):
        g = q_extension(n)
        assert (g.n, g.m) == (n, 2 * n)
    assert is_triangular_graph(q_extension(39))
    assert not is_triangular_graph(q_extension(38))


def test_q_extension_rejects_bad_requests():
    with pytest.raises(ConfigurationError):
        q_extension(12)
    with pytest.raises(ConfigurationError):
        q_extension(40)
    with pytest.raises(GraphError):
        q_extension(15, edges=[(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        q_extension(14, edges=[(0, 2)])  # a jump-2 chord is not an edge
    with pytest.raises(GraphError):
        q_extension(15, edges=[(0, 1)])  # wrong count


def test_h_k_counts():
    assert canonical_form(h_k(1)) == canonical_form(q13_3())
    for k in (2, 3):
        g = h_k(k)
        assert (g.n, g.m) == (11 * k + 2, 25 * k + 1)
    with pytest.raises(ConfigurationError):
        h_k(0)
    with pytest.raises(GraphError):
        h_k(2, edges=[(0, 1)])
    with pytest.raises(GraphError):
        h_k(2, edges=[(0, 2), (0, 1)])


def test_h_k_stays_triangle_free():
    g = h_k(2)
    assert len(non_triangular_edges(g)) == g.m


def test_theorem_main_exact_counts():
    for n in range(13, 51):
        g = theorem_main_graph(n)
        k = -((3 - n) // 36)
        assert (g.n, g.m) == (n, 2 * n + 3 * k - 3)
        assert Fraction(g.m) < Fraction(25 * n, 12) - Fraction(1, 4)
    with pytest.raises(ConfigurationError):
        theorem_main_graph(12)


def test_k5_sum_example_shape():
    g = k5_sum_example()
    assert (g.n, g.m) == (7, 18)
    a, b = g.vertex_by_label("a"), g.vertex_by_label("b")
    assert not g.has_edge(a, b)
    # the two private vertices miss different clique vertices
    assert g.neighbors(a) != g.neighbors(b)
    cone = delete_vertex(g, g.vertex_by_label("u"))
    assert is_planar(cone) and cone.m == 3 * cone.n - 6


def test_fig7_graph_shape():
    g = fig7_graph()
    assert (g.n, g.m) == (11, 33)
    v, w = g.vertex_by_label("v"), g.vertex_by_label("w")
    assert g.neighbors(w) == {0, 1, 2}
    assert g.neighbors(v) == set(range(9))
    # a, b, c separate the triangulation
    rest = delete_vertices(delete_vertices(g, [v, w]), [0, 1, 2])
    comp_count = 0
    seen = set()
    for s in range(rest.n):
        if s in seen:
            continue
        comp_count += 1
        stack = [s]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(rest.neighbors(c) - seen)
    assert comp_count >= 2


def test_fig7_family_counts():
    for n in (11, 12, 13, 14):
        g = fig7_family(n)
        assert (g.n, g.m) == (n, 33 + 4 * (n - 11))
    with pytest.raises(ConfigurationError):
        fig7_family(10)


def test_bounds_table_rows():
    rows = bounds_table([q13_3()])
    (row,) = rows
    assert row.m == row.aires == 26
    assert row.ratio == Fraction(2)
    assert row.within_bounds
    rows = bounds_table(theorem_main_graph(n) for n in range(13, 51))
    assert all(r.below_target for r in rows)
    assert all(r.within_bounds for r in rows)


def test_build_family_dispatch():
    assert build_family(FamilyParams("q13_3")).n == 13
    assert build_family(FamilyParams("jorgensen_i", 2)).n == 10
    assert build_family(FamilyParams("g3n5_i", 1)).n == 11
    assert build_family(FamilyParams("h_k", 2)).n == 24
    assert build_family(FamilyParams("theorem_main_n", 14)).n == 14
    assert build_family(FamilyParams("fig6")).n == 7
    assert build_family(FamilyParams("fig7_n", 12)).n == 12
    with pytest.raises(ConfigurationError):
        FamilyParams("unknown_family")
    with pytest.raises(ConfigurationError):
        FamilyParams("q13_3", -1)


def test_family_params_reject_an_index_the_family_does_not_take():
    # a family without a parameter must not quietly drop a nonzero one
    for fid, fam in FAMILIES.items():
        if fam.flag is None:
            assert build_family(FamilyParams(fid)).n > 0
            with pytest.raises(ConfigurationError, match="takes no index"):
                FamilyParams(fid, 3)
        else:
            FamilyParams(fid, 3)
