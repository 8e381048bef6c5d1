import itertools
import json
import os
import random
import subprocess
import sys

import maxnil_lab
from maxnil_lab.canon import (
    automorphism_generators,
    automorphism_group,
    automorphism_orbits,
    canonical_form,
    is_isomorphic,
    orbit_representatives,
)
from maxnil_lab.graph import (
    Graph,
    build_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    permute_vertices,
)

# number of isomorphism classes of simple graphs on n = 1..6 vertices
ISO_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def brute_isomorphic(g, h):
    if g.n != h.n or g.m != h.m:
        return False
    ge = set(g.edges)
    for perm in itertools.permutations(range(h.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in ge for u, v in h.edges):
            return True
    return False


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def test_iso_class_counts():
    for n, expect in ISO_CLASS_COUNTS.items():
        forms = {canonical_form(g) for g in all_graphs(n)}
        assert len(forms) == expect, f"n={n}"


def test_permuted_copies_are_isomorphic():
    k6 = complete_graph(6)
    assert is_isomorphic(k6, permute_vertices(k6, [3, 1, 5, 0, 2, 4]))
    rng = random.Random(11)
    for n in (5, 6, 7):
        for _ in range(30):
            g = random_graph(n, rng.random(), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(permute_vertices(g, perm))


def test_distinguishes_non_isomorphic():
    assert not is_isomorphic(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))
    assert not is_isomorphic(path_graph(4), disjoint_union(path_graph(3), path_graph(1)))


def test_agrees_with_brute_force():
    for n in (3, 4):
        graphs = list(all_graphs(n))
        for g, h in itertools.combinations(graphs[:: max(1, len(graphs) // 40)], 2):
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)
    rng = random.Random(23)
    for n in (5, 6, 7):
        for _ in range(40):
            g = random_graph(n, 0.5, rng)
            h = random_graph(n, 0.5, rng)
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)


def test_regular_pairs_same_degrees():
    # C6 vs K33: both 2- and 3-regular pairs that refinement alone cannot split
    k33 = build_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    two_tris = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert not is_isomorphic(cycle_graph(6), two_tris)
    prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(k33, prism)
    mobius = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)])
    assert is_isomorphic(k33, mobius)


def test_empty_and_tiny():
    assert canonical_form(Graph(0)) == b"\x00"
    assert canonical_form(Graph(1)) != canonical_form(Graph(2))
    assert is_isomorphic(path_graph(1), Graph(1))


def test_colors_constrain_isomorphism():
    p3 = path_graph(3)
    mid, end = [0, 1, 0], [1, 0, 0]
    assert canonical_form(p3, mid) != canonical_form(p3, end)
    assert canonical_form(p3, end) == canonical_form(permute_vertices(p3, [2, 1, 0]), [0, 0, 1])


def brute_colored_form(g, colors):
    """Least (rank string, edge list) over all relabellings."""
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    best = None
    for p in itertools.permutations(range(g.n)):
        ranks = [None] * g.n
        for v in range(g.n):
            ranks[p[v]] = rank[colors[v]]
        key = (ranks, sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
        best = key if best is None or key < best else best
    return best


def test_colored_forms_tell_class_sizes_and_order_apart():
    # equal adjacency encodings, but the color classes differ in size
    # or in order, so no color-preserving isomorphism exists
    assert canonical_form(Graph(2), [0, 0]) != canonical_form(Graph(2), [0, 1])
    p3 = path_graph(3)
    assert canonical_form(p3, [0, 0, 1]) != canonical_form(p3, [1, 1, 0])
    assert canonical_form(p3, [1, 1, 0]) == canonical_form(p3, [0, 1, 1])
    assert canonical_form(p3, [0, 0, 1]) == canonical_form(p3, [3, 3, 7])
    # an uncolored or one-class form is the adjacency encoding alone
    for g in (Graph(2), p3, circulant_graph(13, [1, 3])):
        assert canonical_form(g, [5] * g.n) == canonical_form(g)
        assert len(canonical_form(g)) == 1 + (g.n * (g.n - 1) // 2 + 7) // 8
    # same form iff same brute-force colored form, on every labelled
    # graph of at most 4 vertices under every coloring with 3 colors
    for n in range(1, 5):
        forms = {}
        for g in all_graphs(n):
            for colors in itertools.product(range(3), repeat=n):
                forms.setdefault(canonical_form(g, colors), set()).add(
                    repr(brute_colored_form(g, colors)))
        assert all(len(brute) == 1 for brute in forms.values())
        assert len({b for brute in forms.values() for b in brute}) == len(forms)


def test_automorphism_orbits():
    assert automorphism_orbits(complete_graph(5)) == (0,) * 5
    assert automorphism_orbits(cycle_graph(6)) == (0,) * 6
    assert automorphism_orbits(path_graph(3)) == (0, 1, 0)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert automorphism_orbits(star) == (0, 1, 1, 1)
    # brute-force cross-check on sampled graphs
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(6, 0.5, rng)
        reps = automorphism_orbits(g)
        perms = [p for p in itertools.permutations(range(6))
                 if all(g.has_edge(p[u], p[v]) for u, v in g.edges)]
        for u in range(6):
            orbit = {p[u] for p in perms}
            assert reps[u] == min(min(orbit), reps[u])
            for v in orbit:
                assert reps[v] == reps[u]


def brute_group(g, colors):
    edges = set(g.edges)
    return [p for p in itertools.permutations(range(g.n))
            if all(colors[p[v]] == colors[v] for v in range(g.n))
            and all(tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges)]


def test_generators_generate_the_colored_group_of_every_small_graph():
    # every labelled graph on at most 5 vertices, uncolored and under a
    # seeded random coloring
    rng = random.Random(27)
    for n in range(1, 6):
        for g in all_graphs(n):
            for colors in ([0] * n, [rng.randrange(3) for _ in range(n)]):
                edges = set(g.edges)
                for p in automorphism_generators(g, colors):
                    assert sorted(p) == list(range(n))
                    assert all(colors[p[v]] == colors[v] for v in range(n))
                    assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
                assert list(automorphism_group(g, colors)) == brute_group(g, colors)


SYMMETRY_SCRIPT = """
import json, sys
from maxnil_lab.canon import automorphism_generators, canonical_form, orbit_representatives
from maxnil_lab.graph import circulant_graph
g = circulant_graph(13, [1, 3])
colors = json.loads(sys.argv[1])
reps = orbit_representatives(range(g.n), automorphism_generators(g, colors), lambda p, v: p[v])
print(canonical_form(g, colors).hex(), list(reps.values()))
"""


def test_cached_search_does_not_leak_between_colorings():
    # one graph uncolored, with two marked vertices, then uncolored
    # again, in one process; each answer is that of a fresh process
    g = circulant_graph(13, [1, 3])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maxnil_lab.__file__)))
    marked = [0] * g.n
    marked[0] = marked[5] = 1
    answers = []
    for colors in (None, marked, None):
        reps = orbit_representatives(range(g.n), automorphism_generators(g, colors),
                                     lambda p, v: p[v])
        answers.append(f"{canonical_form(g, colors).hex()} {list(reps.values())}")
        fresh = subprocess.run([sys.executable, "-c", SYMMETRY_SCRIPT, json.dumps(colors)], env=env,
                               capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.strip() == answers[-1]
    # the marks split the vertex orbit, which the uncolored search keeps whole
    assert answers[0] == answers[2] != answers[1]
    assert automorphism_orbits(g) == (0,) * g.n
