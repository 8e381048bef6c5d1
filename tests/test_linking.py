"""Oracle tests for the Petersen family and the linking deciders.

Family membership is cross-checked against independently built graphs
(complete multipartite, Kneser) and against a second closure variant.
Verdicts on small graphs are either forced by edge counts or verified
through explicit minor models.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

import maxnil_lab
from maxnil_lab import embedding, linking
from maxnil_lab.canon import canonical_form, is_isomorphic
from maxnil_lab.cliquesum import CliqueSumSpec, clique_sum
from maxnil_lab.errors import UndecidedError
from maxnil_lab.families import (
    fig7_family,
    graph_g,
    jorgensen_family,
    jorgensen_graph,
    q13_3,
    theorem_main_graph,
)
from maxnil_lab.formats import graph6_decode
from maxnil_lab.graph import (
    Graph,
    add_edge,
    build_graph,
    circulant_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    delete_edge,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    path_graph,
    permute_vertices,
    triangle_to_y,
    vertex_connectivity,
    y_to_triangle,
)
from maxnil_lab.linking import (
    has_k6_minor,
    is_intrinsically_linked,
    is_maximal_k6_minor_free,
    is_maxnil,
    petersen_family,
)
from maxnil_lab.minors import MinorModel, contraction_probe, find_minor, verify_minor_model


def kneser_5_2() -> Graph:
    """Petersen graph as the Kneser graph of disjoint 2-subsets of a 5-set."""
    pairs = list(itertools.combinations(range(5), 2))
    edges = [(i, j) for i, j in itertools.combinations(range(10), 2)
             if not set(pairs[i]) & set(pairs[j])]
    return build_graph(10, edges)


def test_family_shape():
    fam = petersen_family()
    assert len(fam) == 7
    assert sorted(g.n for g in fam) == [6, 7, 7, 8, 8, 9, 10]
    assert all(g.m == 15 for g in fam)
    assert is_isomorphic(fam[0], complete_graph(6))
    keys = {canonical_form(g) for g in fam}
    assert len(keys) == 7
    assert canonical_form(complete_multipartite(3, 3, 1)) in keys
    assert canonical_form(kneser_5_2()) in keys
    # the cut-pair split in the IL and K6 tests relies on this
    assert all(vertex_connectivity(g) >= 3 for g in fam)


def test_family_closure_with_collapsing_moves_is_identical():
    # allowing the Y move at degree-3 vertices whose neighbors are already
    # adjacent (which would drop parallel edges) must not enlarge the family
    seen = {}
    queue = [complete_graph(6)]
    seen[canonical_form(queue[0])] = queue[0]
    while queue:
        g = queue.pop()
        moves = []
        for u, v in g.edges:
            for w in sorted(g.neighbors(u) & g.neighbors(v)):
                if w > v:
                    moves.append(triangle_to_y(g, (u, v, w)))
        for v in range(g.n):
            if g.degree(v) == 3:
                moves.append(y_to_triangle(g, v))
        for h in moves:
            key = canonical_form(h)
            if key not in seen:
                seen[key] = h
                queue.append(h)
    assert set(seen) == {canonical_form(g) for g in petersen_family()}


def test_family_is_an_antichain_under_minors():
    fam = petersen_family()
    for p, q in itertools.permutations(fam, 2):
        assert find_minor(q, p) is None


def test_k6_is_il_with_verified_witness():
    il, model = is_intrinsically_linked(complete_graph(6))
    assert il
    assert verify_minor_model(complete_graph(6), model.pattern, model)


def test_k6_minus_edge_is_nil():
    g = delete_edge(complete_graph(6), (0, 1))
    assert is_intrinsically_linked(g) == (False, None)


def test_k7_minus_triangle_is_il():
    g = complete_graph(7)
    for e in ((0, 1), (0, 2), (1, 2)):
        g = delete_edge(g, e)
    il, model = is_intrinsically_linked(g)
    assert il
    assert verify_minor_model(g, model.pattern, model)


def test_k44_is_il_and_one_edge_short_of_a_member():
    k44 = complete_multipartite(4, 4)
    keys = {canonical_form(p) for p in petersen_family()}
    assert canonical_form(delete_edge(k44, k44.edges[0])) in keys
    il, model = is_intrinsically_linked(k44)
    assert il
    assert verify_minor_model(k44, model.pattern, model)


def test_petersen_graph_witnesses_itself():
    il, model = is_intrinsically_linked(kneser_5_2())
    assert il
    assert model.pattern.n == 10


def test_low_order_shortcuts():
    assert is_intrinsically_linked(complete_graph(5)) == (False, None)
    assert is_intrinsically_linked(build_graph(0, [])) == (False, None)
    big_sparse = cycle_graph(20)
    assert is_intrinsically_linked(big_sparse) == (False, None)


def test_il_is_minor_monotone_spot_checks():
    assert is_intrinsically_linked(complete_graph(7))[0]
    padded = disjoint_union(complete_graph(6), path_graph(3))
    il, model = is_intrinsically_linked(padded)
    assert il
    assert verify_minor_model(padded, model.pattern, model)


def test_budget_propagates():
    # Q(13,3) is nIL, so the linking-parity shortcut decides it without
    # any search and spends no budget
    q = circulant_graph(13, (1, 3))
    assert is_intrinsically_linked(q, budget=1) == (False, None)
    # adding an edge makes it IL, and the branch-set search for its
    # witness runs out
    with pytest.raises(UndecidedError):
        is_intrinsically_linked(add_edge(q, q.non_edges()[0]), budget=1)
    # the budget counts branch-set search nodes on every host, small
    # ones too: the search for the Petersen graph's own witness takes
    # 2,027 nodes on this labelling
    with pytest.raises(UndecidedError):
        is_intrinsically_linked(kneser_5_2(), budget=1)
    # a hit reached within the budget is still returned
    il, model = is_intrinsically_linked(kneser_5_2(), budget=3000)
    assert il
    assert model.pattern.n == 10
    assert verify_minor_model(kneser_5_2(), model.pattern, model)


def test_budget_exhaustion_does_not_depend_on_earlier_certifications():
    # unbudgeted certifications run first; a budgeted one still spends
    # its budget wherever the branch-set search must run, and only there
    q = circulant_graph(13, (1, 3))
    want = is_maxnil(q)
    assert want.maxnil_status == "maxnil"
    want_k6 = is_maximal_k6_minor_free(q)
    assert want_k6.k6_maximal_status == "maximal"
    # the maxnil scan settles every Q(13,3)+e by the parity system, and
    # the K6 scan every Q(13,3)+e by a replayed contraction probe model;
    # neither spends budget
    assert is_maxnil(q, budget=1).to_dict(include_elapsed=False) == \
        want.to_dict(include_elapsed=False)
    assert is_maximal_k6_minor_free(q, budget=1).to_dict(include_elapsed=False) == \
        want_k6.to_dict(include_elapsed=False)
    # the Petersen graph is IL, and the search of its base runs out
    petersen = kneser_5_2()
    assert is_maximal_k6_minor_free(petersen).k6_maximal_status == "not-maximal"
    with pytest.raises(UndecidedError):
        is_maximal_k6_minor_free(petersen, budget=1)
    # K_{3,3,1} minus an edge at its degree-6 vertex is nIL; its first
    # scan host, +(0, 1), is IL without a K6 minor, so the probe misses
    # and the K6 search must refute K6 inside the scan, and runs out
    h = graph6_decode("F]~Hg")
    aug = add_edge(h, (0, 1))
    assert is_intrinsically_linked(aug)[0] and has_k6_minor(aug) == (False, None)
    assert is_maximal_k6_minor_free(h).k6_failing_edge == (0, 1)
    with pytest.raises(UndecidedError, match=r"edge \(0, 1\)"):
        is_maximal_k6_minor_free(h, budget=1)


def test_parity_decider_settles_small_nil_hosts_without_budget():
    # the parity decider settles J's nIL base without spending budget,
    # and the maxnility scan settles each orbit representative J+e by
    # the parity system too, so a one-node budget is never reached
    j = jorgensen_graph()
    assert is_intrinsically_linked(j, budget=1) == (False, None)
    assert is_maxnil(j, budget=1).maxnil_status == "maxnil"


def test_dense_fig7_member_is_nil_by_its_chordless_system():
    # 20 vertices and 69 edges, not apex and without an adjacent cut
    # pair: the parity system decides it from its 99 chordless short
    # cycles, where listing all of them took minutes
    g = fig7_family(20)
    assert (g.n, g.m) == (20, 69)
    assert is_intrinsically_linked(g) == (False, None)


def test_maxnil_scan_keeps_the_budget_when_the_parity_system_overflows(monkeypatch):
    # a scan host with too many cycles goes to the full IL test, whose
    # branch-set search for the witness of Q(13,3)+e runs out at one node
    def overflowing(g):
        raise UndecidedError("more than CYCLE_CAP cycles")

    monkeypatch.setattr(linking, "linked_certificate", overflowing)
    with pytest.raises(UndecidedError):
        is_maxnil(q13_3(), budget=1)


def test_small_hosts_reach_no_minor_search(monkeypatch):
    # J_2 and G are nIL with at most 12 vertices: the parity decider
    # settles them, so neither test runs the branch-set search
    calls = []

    def recording_find_minor(g, pattern, budget=None):
        calls.append(g)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    for g in (jorgensen_family(2), graph_g()):
        assert g.n <= 12
        assert is_intrinsically_linked(g) == (False, None)
        assert has_k6_minor(g) == (False, None)
    assert calls == []


def test_maxnil_scan_reaches_no_minor_search(monkeypatch):
    # every orbit representative G+e of these scans is IL, and the
    # parity system decides it with a certificate, so no branch-set
    # search runs at all
    calls = []

    def recording_find_minor(g, pattern, budget=None):
        calls.append(g)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    for g in [jorgensen_family(i) for i in range(3)] + [graph_g(), q13_3()]:
        assert is_maxnil(g).maxnil_status == "maxnil"
    assert calls == []


def test_maxnil_scan_replays_every_certificate(monkeypatch):
    # every IL verdict of the scan comes from a certificate that replays
    replayed = []

    def recording_verify(g, pairs):
        ok = embedding.verify_linked_certificate(g, pairs)
        replayed.append(ok)
        return ok

    monkeypatch.setattr(linking, "verify_linked_certificate", recording_verify)
    reps = [e for e, rep in linking._non_edge_orbits(q13_3()).items() if e == rep]
    assert is_maxnil(q13_3()).maxnil_status == "maxnil"
    assert replayed == [True] * len(reps)


def test_maxnil_scan_rejects_a_certificate_that_does_not_replay(monkeypatch):
    def dropping_one(g):
        pairs = embedding.linked_certificate(g)
        return pairs[1:] if pairs else pairs

    monkeypatch.setattr(linking, "linked_certificate", dropping_one)
    with pytest.raises(RuntimeError, match="odd-sum certificate"):
        is_maxnil(jorgensen_graph())


def test_k6_minus_edge_is_maxnil():
    report = is_maxnil(delete_edge(complete_graph(6), (0, 1)))
    assert report.il_status == "nIL"
    assert report.maxnil_status == "maxnil"
    assert report.maxnil_failing_edge is None
    assert (report.n, report.m) == (6, 14)


def test_k5_is_maxnil_vacuously():
    report = is_maxnil(complete_graph(5))
    assert report.il_status == "nIL"
    assert report.maxnil_status == "maxnil"


def test_c5_is_not_maxnil():
    report = is_maxnil(cycle_graph(5))
    assert report.maxnil_status == "not-maxnil"
    assert report.maxnil_failing_edge == (0, 2)


def test_il_graph_is_not_maxnil():
    report = is_maxnil(complete_graph(6))
    assert report.il_status == "IL"
    assert report.maxnil_status == "not-maxnil"
    assert report.maxnil_failing_edge is None


def test_parallel_scan_matches_sequential():
    for g in (cycle_graph(5), delete_edge(complete_graph(6), (0, 1))):
        seq = is_maxnil(g, threads=1).to_dict(include_elapsed=False)
        par = is_maxnil(g, threads=2).to_dict(include_elapsed=False)
        assert seq == par


def test_k6_maximality_reports():
    near = delete_edge(complete_graph(6), (0, 1))
    report = is_maximal_k6_minor_free(near)
    assert report.k6_has_minor is False
    assert report.k6_maximal_status == "maximal"

    report = is_maximal_k6_minor_free(complete_graph(6))
    assert report.k6_has_minor is True
    assert report.k6_maximal_status == "not-maximal"
    assert verify_minor_model(complete_graph(6), report.k6_witness.pattern, report.k6_witness)

    report = is_maximal_k6_minor_free(cycle_graph(6))
    assert report.k6_maximal_status == "not-maximal"
    assert report.k6_failing_edge == (0, 2)


def test_k6_maximality_reuses_the_nil_verdict(monkeypatch):
    # K6 is IL, so a nIL base has no K6 minor and the K6 test is only
    # run on the augmented hosts; the reports are the ones computed
    # when the base was searched for K6 as well
    near = delete_edge(complete_graph(6), (0, 1))
    want = {
        "J": ("G^vnMs", 8, 21, "maximal", None),
        "G": ("I^vjCdJ`g", 10, 25, "maximal", None),
        "C5": ("Dhc", 5, 5, "not-maximal", [0, 2]),
        "K6-e": ("E^~w", 6, 14, "maximal", None),
    }
    bases = {"J": jorgensen_graph(), "G": graph_g(), "C5": cycle_graph(5), "K6-e": near}
    real = linking._k6_minor
    for name, g in bases.items():
        def guarded(h, budget, apex=None, base=g):
            assert h != base, "K6 test run on a nIL base"
            return real(h, budget, apex)

        with monkeypatch.context() as m:
            m.setattr(linking, "_k6_minor", guarded)
            got = is_maximal_k6_minor_free(g, threads=1).to_dict(include_elapsed=False)
        subject, n, m_, status, failing = want[name]
        assert got == {
            "subject": subject, "n": n, "m": m_, "il_status": "nIL", "il_witness": None,
            "maxnil_status": None, "maxnil_failing_edge": None,
            "k6_has_minor": False, "k6_witness": None,
            "k6_maximal_status": status, "k6_failing_edge": failing,
        }


def test_report_json_is_stable_without_elapsed():
    g = delete_edge(complete_graph(6), (0, 1))
    a = is_maxnil(g)
    b = is_maxnil(g)
    assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)
    assert a.elapsed_ms >= 0.0
    payload = json.loads(a.to_json())
    assert payload["il_status"] == "nIL"
    assert payload["maxnil_status"] == "maxnil"
    assert "elapsed_ms" in payload
    assert "elapsed_ms" not in json.loads(a.to_json(include_elapsed=False))


def test_has_k6_minor_in_supergraphs():
    has, model = has_k6_minor(complete_graph(8))
    assert has
    assert verify_minor_model(complete_graph(8), model.pattern, model)
    assert has_k6_minor(kneser_5_2()) == (False, None)


def test_dense_small_host_finds_k6_within_a_small_budget():
    # K12 contains K6 as a subgraph, so the search for a K6 model
    # should end within a few dozen nodes, not after a walk over
    # contractions of the whole host
    host = complete_graph(12)
    has, model = has_k6_minor(host, budget=50)
    assert has
    assert verify_minor_model(host, model.pattern, model)


# the reduced host of theorem_main_graph(24) + (13, 20): no simplicial
# vertex, not apex, no cut pair, IL by the parity decider, and the
# contraction probe misses its K6 minor
PROBE_MISS_K6 = "NlSggSD?kAgDgDo?E?G"


def test_single_pattern_search_skips_the_staged_probe(monkeypatch):
    # the K6 test reaches the branch-set search on this host: one
    # exhaustive call, whose model is the witness
    host = graph6_decode(PROBE_MISS_K6)
    assert contraction_probe(host, 6) is None
    budgets = []

    def recording_find_minor(g, pattern, budget=None):
        budgets.append(budget)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    has, model = has_k6_minor(host)
    assert has and budgets == [None]
    want = find_minor(host, complete_graph(6))
    assert model.branch_sets == want.branch_sets
    assert model.edge_witnesses == want.edge_witnesses


def test_apex_graphs_are_not_linked():
    # 3x3 grid plus a vertex joined to every grid vertex: removing the
    # apex leaves the planar grid, so the graph embeds linklessly even
    # though it clears the edge-count shortcut
    grid_edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                grid_edges.append((v, v + 1))
            if r < 2:
                grid_edges.append((v, v + 3))
    apex = Graph(10, grid_edges + [(v, 9) for v in range(9)])
    assert apex.m == 21
    il, witness = is_intrinsically_linked(apex)
    assert (il, witness) == (False, None)
    assert has_k6_minor(apex) == (False, None)


def test_apex_scan_hosts_are_settled_by_the_apex_test(monkeypatch):
    # the 3x3 grid with a vertex joined to all grid vertices but 0: the
    # grid plus (0, 2) stays planar, so that first representative is an
    # apex host, settled without the parity system
    grid_edges = [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)]
    g = Graph(10, grid_edges + [(v, 9) for v in range(1, 9)])
    assert linking._is_apex(g)
    solved = []

    def recording_certificate(h):
        solved.append(h)
        return embedding.linked_certificate(h)

    monkeypatch.setattr(linking, "linked_certificate", recording_certificate)
    report = is_maxnil(g)
    assert (report.maxnil_status, report.maxnil_failing_edge) == ("not-maxnil", (0, 2))
    assert is_intrinsically_linked(add_edge(g, (0, 2))) == (False, None)
    assert solved == []


def test_non_apex_scans_run_the_apex_test_on_the_base_only(monkeypatch):
    # adding an edge keeps a non-apex graph non-apex, so no scan host
    # of J is tested for apexness
    tested = []

    def recording_is_apex(h):
        tested.append(h)
        return is_apex(h)

    is_apex = linking._is_apex
    monkeypatch.setattr(linking, "_is_apex", recording_is_apex)
    j = jorgensen_graph()
    # the base IL test and the scan share one apex test of J
    assert is_maxnil(j).maxnil_status == "maxnil"
    assert tested == [j]
    # the K6 scan too: the contraction probe settles every J+e, so no
    # reduced host reaches the K6 test's own apex test either
    tested.clear()
    assert is_maximal_k6_minor_free(j).k6_maximal_status == "maximal"
    assert tested == [j]


def test_k6_certification_tests_an_il_base_for_apexness_once(monkeypatch):
    # the base IL test and the base K6 test share one apex test of an
    # IL base: the probe settles K7, and the Petersen graph is its own
    # K6 core, so its search reuses the answer once the probe misses
    tested = []

    def recording_is_apex(h):
        tested.append(h)
        return is_apex(h)

    is_apex = linking._is_apex
    monkeypatch.setattr(linking, "_is_apex", recording_is_apex)
    k7 = complete_graph(7)
    assert is_maximal_k6_minor_free(k7).k6_maximal_status == "not-maximal"
    assert tested == [k7]
    tested.clear()
    petersen = graph6_decode("I@QFCpSJ?")
    report = is_maximal_k6_minor_free(petersen)
    assert (report.il_status, report.k6_has_minor) == ("IL", False)
    # its scan then has hosts to test, but the base is tested once
    assert tested.count(petersen) == 1


def test_k6_scan_hosts_are_not_tested_for_apexness(monkeypatch):
    # a scan host is not apex: its base is not, or the scan's apex rule
    # has just said so. The Petersen graph's scan host +(0, 1) misses the
    # probe with nothing deleted, and still only the base is tested
    tested = []

    def recording_is_apex(h):
        tested.append(h)
        return is_apex(h)

    is_apex = linking._is_apex
    monkeypatch.setattr(linking, "_is_apex", recording_is_apex)
    petersen = graph6_decode("I@QFCpSJ?")
    report = is_maximal_k6_minor_free(petersen, threads=1)
    assert report.k6_maximal_status == "not-maximal"
    assert tested == [petersen]


def test_k6_scan_counts_only_probe_models_that_replay(monkeypatch):
    # a probe that returns a model which does not replay is a miss, and
    # the branch-set search decides: the reports stay those of the real
    # probe, and so do the direct K6 verdicts
    k6 = complete_graph(6)
    bogus = MinorModel({i: frozenset({i}) for i in range(6)},
                       {e: e for e in k6.edges}, k6)
    cases = [jorgensen_graph(), delete_edge(jorgensen_graph(), (0, 2))]
    want = [is_maximal_k6_minor_free(g).to_dict(include_elapsed=False) for g in cases]
    assert [w["k6_maximal_status"] for w in want] == ["maximal", "not-maximal"]
    j = jorgensen_graph()
    hosts = [add_edge(j, j.non_edges()[0]), kneser_5_2(), graph_g()]
    want_k6 = [has_k6_minor(h)[0] for h in hosts]
    assert want_k6 == [True, False, False]
    # only an IL host reaches the search; G is settled nIL by parity
    il = [is_intrinsically_linked(h)[0] for h in hosts]
    assert il == [True, True, False]
    decided = []
    searched = []

    k6_minor = linking._k6_minor

    def recording_k6(h, budget, apex=None):
        decided.append(h)
        return k6_minor(h, budget, apex)

    def recording_find_minor(g, pattern, budget=None):
        searched.append(g)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "contraction_probe", lambda g, k: bogus)
    monkeypatch.setattr(linking, "_k6_minor", recording_k6)
    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    for g, report in zip(cases, want):
        decided.clear()
        assert is_maximal_k6_minor_free(g).to_dict(include_elapsed=False) == report
        assert decided
    for h, has, reached in zip(hosts, want_k6, il):
        assert not verify_minor_model(h, k6, bogus)
        searched.clear()
        got, model = has_k6_minor(h)
        assert got == has
        assert model is None or verify_minor_model(h, k6, model)
        assert bool(searched) == reached


def test_simplicial_deletion_keeps_the_k6_verdict():
    # a vertex over a clique of at most 4 vertices is deleted, one over
    # a K5 is kept, and the reduced host has a K6 minor iff the host has:
    # the K6 test deletes such vertices itself, so both verdicts are
    # checked against the branch-set search on the whole host
    rng = random.Random(20261107)
    kept = {True: 0, False: 0}
    verdicts = []
    for trial in range(48):
        n = 7 + trial % 6
        size = 2 + trial % 4
        edges = {(a, b) for a in range(n - 1) for b in range(a + 1, n - 1)
                 if rng.random() < rng.uniform(0.3, 0.7)}
        clique = sorted(rng.sample(range(n - 1), size))
        edges |= set(itertools.combinations(clique, 2))
        g = Graph(n, sorted(edges | {(v, n - 1) for v in clique}))
        core = linking._k6_core(g)
        assert (n - 1 in core) == (size == 5)
        kept[len(core) == n] += 1
        has = find_minor(g, complete_graph(6)) is not None
        assert has_k6_minor(g)[0] == has
        assert has_k6_minor(induced_subgraph(g, core))[0] == has
        verdicts.append(has)
    assert linking._k6_core(complete_graph(6)) == list(range(6))
    assert linking._k6_core(delete_edge(complete_graph(6), (0, 1))) == []
    assert kept[False] >= 20 and verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_scan_splits_hosts_at_adjacent_cut_pairs(monkeypatch):
    # theorem_main_graph(14) is Q(13,3) with a degree-2 vertex, here
    # relabelled to vertex 0 so that its side comes first and the IL
    # side's certificate needs relabelling: the parity system sees the
    # sides of each cut pair, never a host that has one, and each scan
    # verdict is that of the full IL test
    g = permute_vertices(theorem_main_graph(14), [v + 1 for v in range(13)] + [0])
    assert g.degree(0) == 2
    for h in (g, delete_edge(g, g.edges[-1])):
        solved = []

        def recording_certificate(side):
            solved.append(side)
            return embedding.linked_certificate(side)

        monkeypatch.setattr(linking, "linked_certificate", recording_certificate)
        split = 0
        for e in h.non_edges()[::7]:
            aug = add_edge(h, e)
            solved.clear()
            got = linking._augmentation_is_linked(aug, None)
            assert got == is_intrinsically_linked(aug)[0]
            assert solved and all(linking._cut_pair_sides(s) is None for s in solved)
            split += any(s.n < aug.n for s in solved)
            pairs = linking._linked_pairs(aug)
            assert (pairs is not None) == got
            assert not got or embedding.verify_linked_certificate(aug, pairs)
        assert split >= 5


def test_apex_euler_filter_matches_the_unfiltered_definition():
    # the filter only skips deletions that Euler's bound already shows
    # nonplanar, so the verdict is that of testing every vertex
    rng = random.Random(20261019)
    verdicts = []
    for trial in range(150):
        n = trial % 5 if trial < 25 else rng.randrange(5, 11)
        p = rng.uniform(0.3, 0.95)
        g = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                            if rng.random() < p])
        want = g.n == 0 or any(embedding.is_planar(delete_vertex(g, v))
                               for v in range(g.n))
        assert linking._is_apex(g) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_edge_sum_decomposes_to_sides():
    # two K6 minus an edge sharing the edge (2,3): both sides are nIL
    # and the whole stays nIL; gluing K6 itself onto a triangle instead
    # gives an IL graph whose witness lives inside the K6 side
    near = delete_edge(complete_graph(6), (0, 1))
    lift = {0: 6, 1: 7, 2: 2, 3: 3, 4: 8, 5: 9}
    both = Graph(10, sorted(set(near.edges)
                            | {tuple(sorted((lift[a], lift[b])))
                               for (a, b) in near.edges}))
    assert both.m == 2 * near.m - 1
    il, _ = is_intrinsically_linked(both)
    assert il is False

    # gluing over a nonadjacent pair instead loses the protection: the
    # second side contracts onto the missing edge and K6 reappears
    fused = Graph(10, sorted(set(near.edges)
                             | {(a + 4 if a > 1 else a, b + 4 if b > 1 else b)
                                for (a, b) in near.edges}))
    il, model = is_intrinsically_linked(fused)
    assert il is True
    assert verify_minor_model(fused, model.pattern, model)

    k6_tail = Graph(7, list(complete_graph(6).edges) + [(4, 6), (5, 6)])
    il, model = is_intrinsically_linked(k6_tail)
    assert il is True
    assert verify_minor_model(k6_tail, model.pattern, model)
    assert model.pattern.n == 6
    assert all(6 not in bs for bs in model.branch_sets.values())


def test_cut_pair_sides_match_the_definition():
    # the first edge in g.edges order whose ends disconnect g, its sides
    # the components left by the pair, each with both ends, by lowest
    # vertex; None when no edge disconnects g
    rng = random.Random(29)
    hosts = [Graph(0), Graph(2, [(0, 1)]), complete_graph(5), cycle_graph(5),
             theorem_main_graph(14), disjoint_union(complete_graph(4), complete_graph(3))]
    for _ in range(300):
        n = rng.randint(3, 12)
        hosts.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < rng.choice((0.25, 0.4, 0.6))]))
    split = 0
    for g in hosts:
        want = None
        for u, v in g.edges:
            rest = nx.Graph(g.edges)
            rest.add_nodes_from(range(g.n))
            rest.remove_nodes_from((u, v))
            comps = sorted(nx.connected_components(rest), key=min)
            if len(comps) > 1:
                want = [sorted(c | {u, v}) for c in comps]
                break
        assert linking._cut_pair_sides(g) == want
        split += want is not None
    assert 50 <= split <= len(hosts) - 50


def test_cycle_cap_overflow_falls_back_to_the_search(monkeypatch):
    # with a tiny cycle cap the parity decider gives up on every host,
    # and the search decides with the same verdicts and witnesses
    q = q13_3()
    j5 = jorgensen_family(5)
    cases = [(is_intrinsically_linked, add_edge(q, q.non_edges()[0])),
             (has_k6_minor, graph6_decode(PROBE_MISS_K6)),
             (has_k6_minor, j5)]
    want = [decide(g) for decide, g in cases]
    assert want[2] == (False, None)
    monkeypatch.setattr(embedding, "CYCLE_CAP", 2)
    with pytest.raises(UndecidedError):
        embedding.linkless_clasps(j5)
    searched = []

    def recording_find_minor(g, pattern, budget=None):
        searched.append(g)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    for (decide, g), (il, model) in zip(cases, want):
        got_il, got = decide(g)
        assert got_il == il and g in searched
        if model is None:
            assert got is None
        else:
            assert got.pattern == model.pattern
            assert got.branch_sets == model.branch_sets
            assert got.edge_witnesses == model.edge_witnesses


def test_scan_host_over_the_cycle_cap_enumerates_its_cycles_once(monkeypatch):
    # a scan host with too many cycles goes straight to the search,
    # not to a full IL test that would enumerate them again
    q = q13_3()
    aug = add_edge(q, q.non_edges()[0])
    monkeypatch.setattr(embedding, "CYCLE_CAP", 2)
    enumerated = []
    enumerate_cycles = embedding.enumerate_cycles

    def recording_enumerate(g, *args, **kwargs):
        enumerated.append(g)
        return enumerate_cycles(g, *args, **kwargs)

    monkeypatch.setattr(embedding, "enumerate_cycles", recording_enumerate)
    assert linking._augmentation_is_linked(aug, None)
    assert enumerated == [aug]


def test_cycle_cap_overflow_in_the_scan_falls_back_to_the_search(monkeypatch):
    # with a tiny cycle cap the scan cannot use the parity system, and
    # the full IL test decides each representative, through the search,
    # with the same reports
    cases = [jorgensen_graph(), delete_edge(jorgensen_graph(), (0, 2))]
    want = [is_maxnil(g).to_dict(include_elapsed=False) for g in cases]
    assert [w["maxnil_status"] for w in want] == ["maxnil", "not-maxnil"]
    monkeypatch.setattr(embedding, "CYCLE_CAP", 2)
    searched = []

    def recording_find_minor(g, pattern, budget=None):
        searched.append(g)
        return find_minor(g, pattern, budget=budget)

    monkeypatch.setattr(linking, "find_minor", recording_find_minor)
    for g, report in zip(cases, want):
        searched.clear()
        assert is_maxnil(g).to_dict(include_elapsed=False) == report
        assert searched


def test_refutation_survives_relabeling():
    # an isomorphic relabeling must come back nIL just as fast: the
    # parity decider settles it without any search, cached or not
    q = circulant_graph(13, (1, 3))
    assert is_intrinsically_linked(q) == (False, None)
    perm = [(5 * v + 2) % 13 for v in range(13)]
    relabeled = Graph(13, sorted(tuple(sorted((perm[a], perm[b]))) for (a, b) in q.edges))
    assert is_isomorphic(q, relabeled)
    t0 = time.perf_counter()
    assert is_intrinsically_linked(relabeled) == (False, None)
    assert time.perf_counter() - t0 < 5.0


def test_engines_agree_on_random_hosts():
    # dual route: the per-member branch-set search against the full
    # decider pipeline, across a spread of random 8-vertex hosts
    import random


    rng = random.Random(20260822)
    fam = petersen_family()
    for trial in range(12):
        n = 8
        density = 0.35 + 0.05 * (trial % 6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < density]
        g = Graph(n, edges)
        direct = None
        for p in fam:
            if p.n <= g.n and p.m <= g.m:
                direct = find_minor(g, p)
                if direct is not None:
                    break
        il, witness = is_intrinsically_linked(g)
        assert il == (direct is not None)
        if il:
            assert verify_minor_model(g, witness.pattern, witness)


def brute_force_scan(g, threads, budget, k6_mode, base_apex):
    # every non-edge in lexicographic order, no symmetry reduction
    decide = has_k6_minor if k6_mode else is_intrinsically_linked
    for e in g.non_edges():
        if not decide(add_edge(g, e), budget=budget)[0]:
            return e
    return None


def orbit_scan_cases():
    near = delete_edge(complete_graph(6), (4, 5))
    cases = [cycle_graph(5), clique_sum(CliqueSumSpec(near, near, {0: 0, 1: 1}))]
    # random maxnil graphs, saturated greedily in a seeded edge order,
    # and each with one edge deleted, so that some scans fail late
    rng = random.Random(4242)
    for n in (7, 8, 8):
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        g = Graph(n, [])
        for e in pairs:
            if not is_intrinsically_linked(add_edge(g, e))[0]:
                g = add_edge(g, e)
        cases += [g, delete_edge(g, rng.choice(g.edges))]
    return cases


def test_orbit_scan_matches_brute_force_scan(monkeypatch):
    for g in orbit_scan_cases():
        for certify in (is_maxnil, is_maximal_k6_minor_free):
            with monkeypatch.context() as m:
                m.setattr(linking, "_scan_augmentations", brute_force_scan)
                want = certify(g, threads=1).to_dict(include_elapsed=False)
            for threads in (1, 2):
                assert certify(g, threads=threads).to_dict(include_elapsed=False) == want


def test_non_edge_orbit_representatives():
    for g in orbit_scan_cases():
        reps = linking._non_edge_orbits(g)
        assert list(reps) == list(g.non_edges())
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        auts = list(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        for (u, v), rep in reps.items():
            # the smallest image of the pair under the full automorphism group
            assert rep == min(tuple(sorted((a[u], a[v]))) for a in auts)
            assert reps[rep] == rep


def test_witness_replay_runs_under_optimize():
    # a corrupted model must still be caught when asserts are stripped
    script = """
from maxnil_lab import embedding, linking, minors
from maxnil_lab.errors import GraphError
from maxnil_lab.graph import Graph, circulant_graph, complete_graph, disjoint_union, path_graph
from maxnil_lab.minors import MinorModel

assert False, "asserts are not stripped"

def corrupting(fn):
    def wrapped(*args):
        model = fn(*args)
        branch = dict(model.branch_sets)
        branch[0] = frozenset()
        return MinorModel(branch, model.edge_witnesses, model.pattern)
    return wrapped

k6, k7 = complete_graph(6), complete_graph(7)
k6_tail = Graph(7, list(k6.edges) + [(4, 6), (5, 6)])
# linking builds a MinorModel only when it lifts a piece's model into its host
cases = [
    (minors, "_model_from_frags", lambda: minors.find_minor(k7, k6)),
    (linking, "MinorModel",
     lambda: linking.is_intrinsically_linked(disjoint_union(path_graph(3), k6))),
    (linking, "MinorModel", lambda: linking.is_intrinsically_linked(k6_tail)),
    # vertex 6 is simplicial, so the K6 test works on the K6 core; a
    # corrupted probe model is a miss, a corrupted search model raises
    (linking, "MinorModel", lambda: linking.has_k6_minor(k6_tail)),
]
for module, name, run in cases:
    original = getattr(module, name)
    setattr(module, name, corrupting(original))
    try:
        run()
    except RuntimeError as exc:
        print(exc)
    setattr(module, name, original)

# a parity solution with one pivot unknown flipped fails a pivot row,
# so it fails one of the equations that row sums
original = embedding._back_substitute
embedding._back_substitute = lambda pivots: original(pivots) ^ (1 << min(pivots))
try:
    linking.is_intrinsically_linked(circulant_graph(13, (1, 3)))
except RuntimeError as exc:
    print(exc)
embedding._back_substitute = original

# an odd-sum certificate with one pair dropped no longer replays
original = embedding.linked_certificate
linking.linked_certificate = lambda g: original(g)[1:]
try:
    linking.is_maxnil(circulant_graph(13, (1, 3)))
except RuntimeError as exc:
    print(exc)
linking.linked_certificate = original

# a planar answer needs a drawing that passes the Euler check: K4 with
# the order around vertex 0 reversed has 2 faces, not 4
original = embedding._plane_rotation

def reversing_at_0(g):
    rotation = original(g)
    rotation[0][:2] = rotation[0][1::-1]
    return rotation

embedding._plane_rotation = reversing_at_0
try:
    embedding.is_planar(complete_graph(4))
except GraphError as exc:
    print(exc)
embedding._plane_rotation = original
"""
    src = os.path.dirname(os.path.dirname(maxnil_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "branch-set witness does not replay against its host",
        "component witness does not replay against its host",
        "cut-pair witness does not replay against its host",
        "core witness does not replay against its host",
        "linkless certificate fails one of its equations",
        "odd-sum certificate does not replay against its host",
        "component of vertex 0 fails the Euler check: 4 - 6 + 2 != 2",
    ]
