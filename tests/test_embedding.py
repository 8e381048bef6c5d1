"""Rotation systems, cycle enumeration, sides, and the pole separation test."""

import itertools
import random

import networkx as nx
import pytest

from maxnil_lab import embedding
from maxnil_lab.embedding import (
    RotationSystem,
    certify_nil_via_lemma21,
    cycle_sides,
    enumerate_cycles,
    is_planar,
    lemma21_condition,
    linked_certificate,
    linkless_clasps,
    planar_embedding,
    rotation_from_text,
    rotation_to_text,
    verify_linked_certificate,
    verify_linkless_certificate,
)
from maxnil_lab.errors import GraphError, UndecidedError
from maxnil_lab.families import (
    family_3n5,
    fig7_family,
    fig7_graph,
    graph_g,
    h_k,
    jorgensen_family,
    jorgensen_graph,
    k5_sum_example,
    q13_3,
    theorem_main_graph,
)
from maxnil_lab.graph import (
    Graph,
    add_edge,
    build_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    delete_vertex,
    delete_vertices,
    disjoint_union,
    path_graph,
    permute_vertices,
)
from maxnil_lab.linking import is_intrinsically_linked, petersen_family


def nx_of(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def euler_ok(emb: RotationSystem) -> bool:
    # constructor already enforces this; recompute from scratch anyway
    g = emb.host
    comps = list(nx.connected_components(nx_of(g)))
    for comp in comps:
        ne = sum(1 for (a, b) in g.edges if a in comp)
        if ne == 0:
            continue
        nf = sum(1 for face in emb.faces if face[0][0] in comp)
        if len(comp) - ne + nf != 2:
            return False
    return True


def test_planarity_basics():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_multipartite(3, 3))
    assert is_planar(build_graph(0, []))


def maximal_planar(n: int, rng: random.Random) -> Graph:
    """A plane triangulation on n >= 3 vertices: stacked, then edges flipped."""
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    for _ in range(2 * n):
        # faces (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)
        k = rng.randrange(len(faces))
        a, b, c = faces[k]
        l = next(i for i, f in enumerate(faces) if (b, a) in zip(f, f[1:] + f[:1]))
        d = next(x for x in faces[l] if x not in (a, b))
        edges = {frozenset(p) for f in faces for p in zip(f, f[1:] + f[:1])}
        if c != d and frozenset((c, d)) not in edges:
            faces[k], faces[l] = (a, d, c), (d, b, c)
    edges = {tuple(sorted(p)) for f in faces for p in zip(f, f[1:] + f[:1])}
    return build_graph(n, sorted(edges))


def test_planarity_agrees_with_networkx():
    # networkx's planarity test is the reference, and every planar
    # answer's rotation passes the face tracing and Euler check again
    rng = random.Random(20261020)

    def checked(g: Graph) -> bool:
        emb = planar_embedding(g)
        assert (emb is not None) == nx.check_planarity(nx_of(g))[0] == is_planar(g)
        if emb is not None:
            assert euler_ok(emb)
            assert RotationSystem(g, emb.rotation).faces == emb.faces
        return emb is not None

    answers = []
    for trial in range(700):
        n = 1 + trial % 14
        p = 0.2 + 0.6 * rng.random()
        answers.append(checked(build_graph(n, [(a, b) for a in range(n)
                                               for b in range(a + 1, n) if rng.random() < p])))
    assert 200 <= sum(answers) <= 600
    triangulations = [maximal_planar(n, rng) for n in range(3, 25) for _ in range(4)]
    assert all([checked(t) for t in triangulations])
    assert not any([checked(add_edge(t, rng.choice(t.non_edges())))
                    for t in triangulations if t.n > 4])
    named = [jorgensen_family(i) for i in range(7)] + [graph_g(), k5_sum_example(), q13_3(),
                                                      h_k(2)]
    named += [theorem_main_graph(n) for n in range(13, 25)]
    answers = [checked(delete_vertex(g, v)) for g in named for v in range(g.n)]
    assert 0 < sum(answers) < len(answers)


def test_embedding_face_counts():
    emb = planar_embedding(complete_graph(4))
    assert len(emb.faces) == 4
    assert all(len(face) == 3 for face in emb.faces)
    assert euler_ok(emb)
    assert planar_embedding(complete_graph(5)) is None
    # every directed edge on exactly one face
    darts = [d for face in emb.faces for d in face]
    assert len(darts) == len(set(darts)) == 12


def test_tree_embedding_single_face():
    emb = planar_embedding(path_graph(5))
    assert len(emb.faces) == 1
    assert len(emb.faces[0]) == 8


def test_cycle_enumeration_small():
    assert enumerate_cycles(cycle_graph(3)) == ((0, 1, 2),)
    assert enumerate_cycles(cycle_graph(6)) == ((0, 1, 2, 3, 4, 5),)
    assert enumerate_cycles(path_graph(4)) == ()
    assert len(enumerate_cycles(complete_graph(4))) == 7


def test_cycle_enumeration_matches_reference_counts():
    rng = random.Random(411)
    for trial in range(20):
        n = rng.randrange(4, 9)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.45]
        g = build_graph(n, edges)
        mine = enumerate_cycles(g)
        ref = {frozenset(c) for c in nx.simple_cycles(nx_of(g))}
        assert len(mine) == len(list(nx.simple_cycles(nx_of(g))))
        assert {frozenset(c) for c in mine} <= ref
        # canonical presentation: min vertex first, smaller neighbor second
        for c in mine:
            assert c[0] == min(c) and c[1] < c[-1]
        assert len(set(mine)) == len(mine)


def test_cycle_cap_raises():
    with pytest.raises(UndecidedError):
        enumerate_cycles(complete_graph(9), cap=100)


def test_cycle_cap_default_is_read_at_call_time(monkeypatch):
    # the enumerator's default cap follows a later change of CYCLE_CAP,
    # so the certificate replay and lemma 21 obey it as the solve does
    assert len(enumerate_cycles(complete_graph(5))) == 37
    monkeypatch.setattr(embedding, "CYCLE_CAP", 2)
    with pytest.raises(UndecidedError):
        enumerate_cycles(complete_graph(5))


def test_facial_cycle_has_empty_side():
    emb = planar_embedding(complete_graph(4))
    empty_sides = 0
    for cyc in enumerate_cycles(complete_graph(4)):
        sides = cycle_sides(emb, cyc)
        assert sides.inside | sides.outside == frozenset(range(4)) - set(cyc)
        assert not sides.inside & sides.outside
        if not sides.inside or (not sides.outside and len(cyc) < 4):
            empty_sides += 1
    # the four triangles of K4 are all facial in any embedding
    assert empty_sides >= 4


def test_cycle_sides_nested_rings():
    # two concentric triangles joined by a matching: the prism
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)])
    emb = planar_embedding(g)
    for cyc in ((0, 1, 2), (3, 4, 5)):
        sides = cycle_sides(emb, cyc)
        other = {0, 1, 2, 3, 4, 5} - set(cyc)
        # one triangle separates the drawing from the other triangle
        assert sides.inside in (frozenset(), frozenset(other))
        assert sides.inside | sides.outside == other


def test_cycle_sides_quadrilateral_split():
    # wheel on 4 spokes: hub 0, rim 1..4
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                        (1, 2), (2, 3), (3, 4), (1, 4)])
    emb = planar_embedding(g)
    sides = cycle_sides(emb, (1, 2, 3, 4))
    assert {sides.inside, sides.outside} == {frozenset({0}), frozenset()}
    # a cycle through the hub puts the two leftover rim vertices apart
    sides = cycle_sides(emb, (0, 2, 3))
    assert sides.inside | sides.outside == {1, 4}


def test_cycle_sides_other_component_is_outside():
    g = disjoint_union(complete_graph(4), cycle_graph(3))
    emb = planar_embedding(g)
    sides = cycle_sides(emb, (4, 5, 6))
    assert sides.inside == frozenset()
    assert sides.outside == frozenset({0, 1, 2, 3})


def test_cycle_sides_rejects_non_cycles():
    emb = planar_embedding(complete_graph(4))
    with pytest.raises(GraphError):
        cycle_sides(emb, (0, 1))
    with pytest.raises(GraphError):
        cycle_sides(emb, (0, 1, 2, 1))
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        cycle_sides(planar_embedding(g), (0, 1, 2, 3))


def test_rotation_validation():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        RotationSystem(g, {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2, 0)})
    with pytest.raises(GraphError):
        RotationSystem(g, {0: (1, 3, 2), 1: (0, 2), 2: (1, 3), 3: (2, 0)})


def test_rotation_euler_rejects_nonplanar_rotation():
    # K4 with both orders at vertex 0 flipped relative to a plane drawing
    # still embeds (in some surface), but a genus-1 rotation of K5 cannot
    # pass the sphere check
    k5 = complete_graph(5)
    rotation = {v: tuple(w for w in range(5) if w != v) for v in range(5)}
    with pytest.raises(GraphError):
        RotationSystem(k5, rotation)


def test_rotation_text_round_trip():
    g = complete_graph(4)
    emb = planar_embedding(g)
    text = rotation_to_text(emb)
    back = rotation_from_text(g, text)
    assert back.rotation == emb.rotation
    assert back.faces == emb.faces
    with pytest.raises(GraphError):
        rotation_from_text(g, "0: 1 2 3\n0: 3 2 1\n")
    with pytest.raises(GraphError):
        rotation_from_text(g, "zero: 1 2 3\n")


def test_pole_condition_requires_matching_host():
    g = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                        (2, 3), (3, 4)])
    wrong = planar_embedding(complete_graph(3))
    with pytest.raises(GraphError):
        lemma21_condition(g, 0, 1, wrong)
    with pytest.raises(GraphError):
        certify_nil_via_lemma21(complete_graph(4), 0, 1)


def test_pole_condition_positive_cases():
    # triangle core: the only cycle is facial on both sides
    g = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                        (2, 3), (2, 4), (3, 4)])
    assert certify_nil_via_lemma21(g, 0, 1)
    il, _ = is_intrinsically_linked(g)
    assert not il

    # complete tripartite 2+2+3, poles being one of the 2-parts
    g = complete_multipartite(2, 2, 3)
    assert certify_nil_via_lemma21(g, 0, 1)
    il, _ = is_intrinsically_linked(g)
    assert not il


def test_pole_condition_false_on_linked_graphs():
    # a certificate would contradict intrinsic linking, so every linked
    # graph with planar pole complement must come back False
    checked = 0
    for member in petersen_family():
        for u in range(member.n):
            for v in range(u + 1, member.n):
                if member.has_edge(u, v):
                    continue
                rest = delete_vertices(member, [u, v])
                if not is_planar(rest):
                    continue
                assert not certify_nil_via_lemma21(member, u, v)
                checked += 1
        if checked >= 12:
            break
    assert checked >= 12


def test_pole_condition_sound_on_random_graphs():
    rng = random.Random(20260822)
    agreements = 0
    for trial in range(40):
        n = rng.randrange(6, 10)
        p = 0.35 + 0.05 * (trial % 5)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = build_graph(n, edges)
        if g.has_edge(0, 1):
            continue
        if certify_nil_via_lemma21(g, 0, 1):
            il, _ = is_intrinsically_linked(g)
            assert not il
            agreements += 1
    assert agreements >= 10


def test_two_apex_certificate_survives_relabelling():
    # G - u - v has more than one plane drawing for J_1-J_6, so the
    # certificate must not hang on the one the planarity test returns;
    # G_1 and G_2 are IL, and no drawing certifies them
    for g, want in [(jorgensen_family(i), True) for i in range(7)] + \
            [(graph_g(), True), (family_3n5(1), False), (family_3n5(2), False)]:
        rng = random.Random(f"relabel {g.n} {g.m}")
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permute_vertices(g, perm)
            u, v = h.vertex_by_label("u"), h.vertex_by_label("v")
            assert certify_nil_via_lemma21(h, u, v) == want


def test_disconnected_pole_complement():
    # poles joined to two disjoint triangles; every cycle is facial
    tri = [(2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (5, 7)]
    poles = [(0, w) for w in range(2, 8)] + [(1, w) for w in range(2, 8)]
    g = build_graph(8, tri + poles)
    assert certify_nil_via_lemma21(g, 0, 1)
    il, _ = is_intrinsically_linked(g)
    assert not il


def random_host(rng: random.Random) -> Graph:
    n = rng.randrange(6, 11)
    p = rng.uniform(0.35, 0.8)
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                           if rng.random() < p])


def toggle_one_clasp(g: Graph, clasps):
    """The clasp set with one clasp on a disjoint cycle pair toggled."""
    cycles = enumerate_cycles(g)
    c1, c2 = next((a, b) for a in cycles for b in cycles if not set(a) & set(b))
    pair = frozenset((tuple(sorted(c1[:2])), tuple(sorted(c2[:2]))))
    kept = {frozenset(c) for c in clasps}
    return [tuple(sorted(c)) for c in kept ^ {pair}]


def test_cycle_enumeration_length_bound():
    g = complete_graph(6)
    every = enumerate_cycles(g)
    for bound in (3, 4, 5):
        assert enumerate_cycles(g, max_len=bound) == tuple(
            c for c in every if len(c) <= bound)
    assert enumerate_cycles(g, max_len=2) == ()


def test_parity_decider_agrees_with_minor_engine_on_random_hosts():
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(200):
        g = random_host(rng)
        il, _ = is_intrinsically_linked(g)
        clasps = linkless_clasps(g)
        assert (clasps is None) == il
        if clasps is not None:
            assert verify_linkless_certificate(g, clasps)
        pairs = linked_certificate(g)
        assert (pairs is not None) == il
        if pairs is not None:
            assert verify_linked_certificate(g, pairs)
        verdicts.append(il)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_parity_decider_rejects_every_petersen_family_member():
    for member in petersen_family():
        assert linkless_clasps(member) is None


def test_parity_decider_certifies_named_nil_graphs():
    hosts = [jorgensen_family(i) for i in range(7)]
    hosts += [graph_g(), k5_sum_example(), fig7_graph(), q13_3()]
    for g in hosts:
        clasps = linkless_clasps(g)
        assert clasps is not None
        assert verify_linkless_certificate(g, clasps)
        assert not verify_linkless_certificate(g, toggle_one_clasp(g, clasps))


def test_parity_decider_rejects_named_il_graphs():
    q = q13_3()
    assert len(q.non_edges()) == 52
    for e in q.non_edges():
        assert linkless_clasps(add_edge(q, e)) is None
    assert linkless_clasps(family_3n5(1)) is None


def test_parity_decider_agrees_with_two_apex_certificate():
    rng = random.Random(4141)
    hosts = [jorgensen_family(i) for i in range(4)] + [graph_g(), fig7_graph()]
    hosts += [random_host(rng) for _ in range(40)]
    certified = 0
    for g in hosts:
        for u, v in g.non_edges():
            if is_planar(delete_vertices(g, [u, v])) and certify_nil_via_lemma21(g, u, v):
                assert linkless_clasps(g) is not None
                certified += 1
                break
    assert certified >= 16


def test_linkless_certificate_rejects_malformed_clasps():
    g = q13_3()
    assert verify_linkless_certificate(g, [])
    e, f = g.edges[0], g.edges[1]
    assert set(e) & set(f)
    assert not verify_linkless_certificate(g, [(e, f)])
    assert not verify_linkless_certificate(g, [((0, 2), g.edges[-1])])



def test_parity_decider_orders_cycles_shortest_first():
    # certificate pairs come in equation order, and the equations take
    # their short cycles C shortest first
    q = q13_3()
    for g in (complete_graph(8), add_edge(q, q.non_edges()[0])):
        lengths = {len(c) for c in enumerate_cycles(g, max_len=g.n // 2)}
        assert len(lengths) >= 2
        sizes = [len(c) for c, _ in linked_certificate(g)]
        assert sizes == sorted(sizes) and sizes[0] == min(lengths)


def test_cycles_by_length_are_the_stable_sort_of_the_short_cycles():
    # the parity system takes its cycles C from the by-length iterator;
    # that it yields the stable sort of the DFS order by length keeps
    # every equation, and so every certificate, in its old place
    q = q13_3()
    rng = random.Random(2024)
    hosts = [jorgensen_graph(), graph_g(), q, add_edge(q, q.non_edges()[0]),
             add_edge(q, q.non_edges()[-1]), complete_graph(7)]
    hosts += [random_host(rng) for _ in range(40)]
    for g in hosts:
        short = enumerate_cycles(g, max_len=g.n // 2)
        lazy = enumerate_cycles(g, max_len=g.n // 2, by_length=True)
        assert not isinstance(lazy, tuple)
        assert tuple(lazy) == tuple(sorted(short, key=len))
        assert tuple(enumerate_cycles(g, by_length=True)) == tuple(
            sorted(enumerate_cycles(g), key=len))
    assert list(enumerate_cycles(path_graph(5), by_length=True)) == []


def test_cycle_cap_counts_the_cycles_generated_before_the_stop(monkeypatch):
    # an IL host stops at its first 0 = 1, so a cap above the cycles it
    # needs but below its short-cycle count still yields a certificate;
    # a nIL host must list every short cycle and still overflows
    q = q13_3()
    aug = add_edge(q, (0, 5))
    j5 = jorgensen_family(5)
    want = linked_certificate(aug)
    cap = 60
    assert len(enumerate_cycles(aug, max_len=aug.n // 2)) > cap
    assert len(enumerate_cycles(j5, max_len=j5.n // 2)) > cap
    monkeypatch.setattr(embedding, "CYCLE_CAP", cap)
    pairs = linked_certificate(aug)
    assert pairs == want and verify_linked_certificate(aug, pairs)
    assert linkless_clasps(aug) is None
    with pytest.raises(UndecidedError):
        linkless_clasps(j5)
    with pytest.raises(UndecidedError):
        linked_certificate(j5)
    lazy = enumerate_cycles(j5, cap=cap, by_length=True)
    assert len([c for _, c in zip(range(cap), lazy)]) == cap
    with pytest.raises(UndecidedError):
        next(lazy)


def has_chord(g: Graph, cyc) -> bool:
    k = len(cyc)
    return any(g.has_edge(cyc[i], cyc[j])
               for i in range(k) for j in range(i + 2, k) if (i, j) != (0, k - 1))


def test_chordless_walk_is_the_chordless_part_of_the_by_length_order(monkeypatch):
    # the parity system takes only chordless cycles C; the walk must
    # generate exactly those, in the order the full walk lists them
    assert enumerate_cycles(cycle_graph(6), chordless=True) == ((0, 1, 2, 3, 4, 5),)
    assert enumerate_cycles(complete_graph(4), chordless=True) == (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert len(enumerate_cycles(complete_multipartite(3, 3), chordless=True)) == 9
    assert list(enumerate_cycles(path_graph(5), by_length=True, chordless=True)) == []
    q = q13_3()
    rng = random.Random(28)
    hosts = [jorgensen_family(i) for i in (0, 3, 5, 6)]
    hosts += [graph_g(), k5_sum_example(), q, add_edge(q, q.non_edges()[0]),
              complete_graph(7), fig7_family(12), theorem_main_graph(16)]
    hosts += [random_host(rng) for _ in range(40)]
    for g in hosts:
        full = enumerate_cycles(g, max_len=g.n // 2)
        lazy = enumerate_cycles(g, max_len=g.n // 2, by_length=True, chordless=True)
        assert not isinstance(lazy, tuple)
        assert tuple(lazy) == tuple(c for c in sorted(full, key=len) if not has_chord(g, c))
        assert enumerate_cycles(g, max_len=g.n // 2, chordless=True) == tuple(
            c for c in full if not has_chord(g, c))
    # the cap counts the chordless cycles generated: J_5 has 1,193
    # short cycles, of which 72 are chordless
    j5 = jorgensen_family(5)
    want = tuple(enumerate_cycles(j5, max_len=j5.n // 2, by_length=True, chordless=True))
    assert len(want) == 72
    for cap in (1, 30, 71, 72):
        monkeypatch.setattr(embedding, "CYCLE_CAP", cap)
        lazy = enumerate_cycles(j5, max_len=j5.n // 2, by_length=True, chordless=True)
        assert tuple(itertools.islice(lazy, cap)) == want[:cap]
        if cap < len(want):
            with pytest.raises(UndecidedError):
                next(lazy)
        else:
            assert next(lazy, None) is None


def every_short_cycle(monkeypatch) -> list:
    """Make the parity solve take every short cycle, chorded or not.

    Returns the list that records each call's ``chordless`` request.
    """
    asked = []
    walk = embedding.enumerate_cycles

    def chorded_too(g, *args, chordless=False, **kwargs):
        asked.append(chordless)
        return walk(g, *args, **kwargs)

    monkeypatch.setattr(embedding, "enumerate_cycles", chorded_too)
    return asked


def parity_corpus(bases, rng, randoms):
    """Each base, every base plus one edge, and ``randoms`` random hosts."""
    hosts = []
    for g in bases:
        hosts.append(g)
        hosts += [add_edge(g, e) for e in g.non_edges()]
    for _ in range(randoms):
        n = rng.randrange(6, 13)
        p = rng.uniform(0.3, 0.8)
        hosts.append(build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                     if rng.random() < p]))
    return hosts


def parity_outcome(g: Graph):
    """(linkless_clasps, linked_certificate) of g, solving a nIL system
    twice but an IL one once, since its clasp set is None."""
    pairs = linked_certificate(g)
    return (linkless_clasps(g) if pairs is None else None), pairs


def assert_chorded_cycles_add_no_equation(monkeypatch, hosts):
    got = [parity_outcome(g) for g in hosts]
    with monkeypatch.context() as patch:
        asked = every_short_cycle(patch)
        full = [parity_outcome(g) for g in hosts]
    assert asked and all(asked)
    assert got == full
    for g, (clasps, pairs) in zip(hosts, got):
        assert (clasps is None) != (pairs is None)
        if clasps is None:
            assert verify_linked_certificate(g, pairs)
        else:
            assert verify_linkless_certificate(g, clasps)


def test_chorded_cycles_add_no_equation(monkeypatch):
    # a chorded cycle's rows sum rows of two shorter cycles, so the
    # chordless system has the same pivots, stop, clasps and
    # certificates as the full one; every clasp set replays against
    # all cycle pairs, not only the chordless ones
    bases = [jorgensen_family(i) for i in range(7)]
    bases += [graph_g(), k5_sum_example(), q13_3(), fig7_family(12)]
    hosts = parity_corpus(bases, random.Random(2801), 100)
    assert len(hosts) == 404
    assert sum(linkless_clasps(g) is not None for g in hosts) >= 30
    assert_chorded_cycles_add_no_equation(monkeypatch, hosts)


@pytest.mark.slow
def test_chorded_cycles_add_no_equation_on_the_theorem_graphs(monkeypatch):
    # theorem_main_graph(16) and (20) with every added edge and 300 more
    # random hosts, whose full systems take seconds
    hosts = parity_corpus([theorem_main_graph(16), theorem_main_graph(20)],
                          random.Random(2802), 300)
    assert len(hosts) == 540
    assert_chorded_cycles_add_no_equation(monkeypatch, hosts)


def certificate_mutations(g: Graph, pairs):
    """Named corruptions of an odd-sum certificate, none of which replays."""
    c, f = pairs[0]
    meeting = next(x for x in enumerate_cycles(g) if set(x) & set(c))
    rest = pairs[1:]
    yield "a dropped pair", rest
    yield "a duplicated pair", pairs + pairs[:1]
    yield "F meeting C", ((c, meeting),) + rest
    yield "a closed walk repeating a vertex", ((c, f + f[:1]),) + rest
    yield "a path of two vertices", ((c, f[:2]),) + rest
    yield "a single cycle", ((c,),) + rest
    yield "no pair at all", ()


def test_linked_certificate_replays_and_rejects_mutations():
    rng = random.Random(20261019)
    checked = 0
    for base in (jorgensen_family(1), graph_g(), q13_3(), fig7_graph()):
        assert linked_certificate(base) is None
        e1, e2 = rng.sample(base.non_edges(), 2)
        host, other = add_edge(base, e1), add_edge(base, e2)
        pairs = linked_certificate(host)
        assert verify_linked_certificate(host, pairs)
        # the base is nIL, so no certificate may replay against it, and
        # one from another augmentation uses an edge the host lacks
        assert not verify_linked_certificate(base, pairs)
        assert not verify_linked_certificate(other, pairs)
        for what, bad in certificate_mutations(host, pairs):
            assert not verify_linked_certificate(host, bad), what
            assert not verify_linked_certificate(base, bad), what
            checked += 1
    assert checked == 28


def test_linked_certificate_rejects_meeting_cycles():
    # two triangles through vertex 0 whose chords cross three times:
    # listed both ways round, their products cancel and the crossings
    # where one passes over the other add up to odd, yet K5 is nIL
    k5 = complete_graph(5)
    c, f = (0, 2, 4), (0, 3, 1)
    assert linked_certificate(k5) is None
    assert not verify_linked_certificate(k5, [(c, f), (f, c)])


def test_linked_certificate_needs_every_pair():
    # every pair's clasp products are nonempty, so dropping any one of
    # them leaves an uncancelled clasp
    q = q13_3()
    host = add_edge(q, q.non_edges()[0])
    pairs = linked_certificate(host)
    assert len(pairs) >= 6
    for i in range(len(pairs)):
        assert not verify_linked_certificate(host, pairs[:i] + pairs[i + 1:])


def test_linked_certificate_of_every_petersen_family_member():
    for member in petersen_family():
        pairs = linked_certificate(member)
        assert verify_linked_certificate(member, pairs)
