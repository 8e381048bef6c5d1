"""The benchmark's workloads: seeded inputs, timed operations, checks.

Every input graph is relabelled by a permutation drawn from
``random.Random(f"{seed}:{round}")``, in the fixed order in which the
graphs are listed below; augmentation samples are drawn from the same
generator afterwards. The same seed and round give the same inputs, and
each round of a run draws new relabellings. Labels travel with ``permute_vertices``, so the apex pair of
a two-apex certificate is found again by its label after relabelling.

Expected verdicts come from the paper and from checks made apart from
the minor search, never from a stored copy of an earlier run:

* J_i, G and fig6 are maxnil, the paper's theorems; their nIL half is
  re-proved by the two-apex certificate (``certify_nil_via_lemma21``)
  or, for fig6, by planarity after deleting the apex u.
* J is maximal K6-minor-free, Jørgensen's theorem. For G the same
  verdict is proved afresh in every run: its nIL certificate excludes a
  K6 minor, and a replayed K6 witness in each of its augmentations shows
  maximality.
* Q(13,3) is maxnil, the paper's theorem, so every Q(13,3)+e is IL and
  Q(13,3) has neither a K6 nor a Petersen minor.
* A nIL graph has no K6 minor, since K6 is intrinsically linked.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from maxnil_lab import families, linking, minors
from maxnil_lab.embedding import certify_nil_via_lemma21, is_planar
from maxnil_lab.graph import (
    Graph,
    add_edge,
    complete_graph,
    delete_vertex,
    non_triangular_edges,
    permute_vertices,
)
from maxnil_lab.minors import MinorModel, verify_minor_model

WORKLOADS = ("paper-small", "q13-augment", "refute-13")

# re-decided augmentations per maxnil input of paper-small
SAMPLE_PER_GRAPH = 3


@dataclass
class Op:
    """One timed call into a layer plus the checks its result must pass.

    ``run`` looks the function up on its module at call time, so a traced
    round sees the call through the tracer's wrapper. ``check`` receives
    the result after the timed region and returns a list of problems,
    empty when it passes.
    """

    name: str
    module: object
    attr: str
    args: tuple
    check: Callable[[object], List[str]]
    kwargs: dict = field(default_factory=dict)

    def run(self):
        return getattr(self.module, self.attr)(*self.args, **self.kwargs)


# ---------------------------------------------------------------- checks


def replay_problems(host: Graph, model: Optional[MinorModel], pattern: Graph,
                    what: str) -> List[str]:
    """Problems with a witness, replayed against its own host."""
    if model is None:
        return [f"{what}: no witness returned"]
    if not verify_minor_model(host, pattern, model):
        return [f"{what}: witness does not replay against its host"]
    return []


def family_pattern(model: Optional[MinorModel], family) -> Optional[Graph]:
    """The Petersen-family member a witness claims, if it is one."""
    if model is None or model.pattern is None:
        return None
    for p in family:
        if p == model.pattern:
            return p
    return None


def il_witness_problems(host: Graph, il: bool, model: Optional[MinorModel],
                        family, what: str) -> List[str]:
    """An IL verdict must hold and carry a replayable family witness."""
    if not il:
        return [f"{what}: decided nIL, expected IL"]
    pattern = family_pattern(model, family)
    if pattern is None:
        return [f"{what}: witness pattern is not a Petersen-family member"]
    return replay_problems(host, model, pattern, what)


def k6_witness_problems(host: Graph, has: bool, model: Optional[MinorModel],
                        what: str) -> List[str]:
    if not has:
        return [f"{what}: no K6 minor found, expected one"]
    return replay_problems(host, model, complete_graph(6), what)


def nil_certificate_problems(g: Graph, kind: str, what: str) -> List[str]:
    """The nIL proof made apart from the minor search."""
    if kind == "two-apex":
        u, v = g.vertex_by_label("u"), g.vertex_by_label("v")
        if not certify_nil_via_lemma21(g, u, v):
            return [f"{what}: two-apex certificate failed at poles u, v"]
        return []
    if not is_planar(delete_vertex(g, g.vertex_by_label("u"))):
        return [f"{what}: deleting the apex u leaves a nonplanar graph"]
    return []


def edge_count_problems(g: Graph, expected: int, what: str) -> List[str]:
    if g.m != expected:
        return [f"{what}: {g.m} edges, the paper gives {expected}"]
    return []


def q13_problems(q: Graph) -> List[str]:
    problems = edge_count_problems(q, 26, "Q(13,3)")
    if len(non_triangular_edges(q)) != q.m:
        problems.append("Q(13,3): not triangle-free")
    if len(q.non_edges()) != 52:
        problems.append(f"Q(13,3): {len(q.non_edges())} non-edges, expected 52")
    return problems


def maxnil_report_problems(report, what: str) -> List[str]:
    if report.il_status != "nIL" or report.maxnil_status != "maxnil":
        return [f"{what}: verdict {report.il_status}/{report.maxnil_status}, "
                "the paper proves nIL/maxnil"]
    return []


def k6_report_problems(report, what: str) -> List[str]:
    problems = []
    if report.k6_has_minor is not False:
        problems.append(f"{what}: K6 minor reported in a nIL graph")
    if report.k6_maximal_status != "maximal":
        problems.append(f"{what}: verdict {report.k6_maximal_status}, expected maximal")
    return problems


def refutation_problems(reported: bool, what: str) -> List[str]:
    if reported:
        return [f"{what}: minor reported, but the graph is nIL"]
    return []


def _k6_reported(result) -> bool:
    has, model = result
    return has or model is not None


# ---------------------------------------------------------------- inputs


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute_vertices(g, perm)


def build(name: str, seed: int, round_index: int = 0,
          span=lambda _label: nullcontext()) -> List[Op]:
    """The workload's operations on its relabelled inputs.

    ``span(label)`` is a context manager factory; the traced run passes
    one that times the Petersen closure and the family constructors.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{seed}:{round_index}")
    with span("setup.petersen_family"):
        family = linking.petersen_family()
    if name == "paper-small":
        return _paper_small(rng, family, span)
    if name == "q13-augment":
        return _q13_augment(rng, family, span)
    return _refute_13(rng, family, span)


def _paper_small(rng, family, span) -> List[Op]:
    with span("setup.families"):
        bases = {"J_0": families.jorgensen_family(0),
                 "J_1": families.jorgensen_family(1),
                 "J_2": families.jorgensen_family(2),
                 "G": families.graph_g(),
                 "fig6": families.k5_sum_example()}
    graphs = {k: _relabel(g, rng) for k, g in bases.items()}
    edges = {k: 3 * g.n - 3 for k, g in graphs.items() if k.startswith("J_")}
    edges.update({"G": 3 * graphs["G"].n - 5, "fig6": 18})
    cert = {k: "two-apex" for k in graphs}
    cert["fig6"] = "apex"
    samples = {k: rng.sample(g.non_edges(), SAMPLE_PER_GRAPH) for k, g in graphs.items()}

    def maxnil_check(k):
        g = graphs[k]

        def check(report):
            problems = edge_count_problems(g, edges[k], k)
            problems += nil_certificate_problems(g, cert[k], k)
            problems += maxnil_report_problems(report, k)
            for e in samples[k]:
                host = add_edge(g, e)
                il, model = linking.is_intrinsically_linked(host)
                problems += il_witness_problems(host, il, model, family, f"{k}+{e}")
            return problems
        return check

    def k6_check(k):
        g = graphs[k]

        def check(report):
            problems = k6_report_problems(report, k)
            problems += nil_certificate_problems(g, cert[k], k)
            # a replayed K6 witness in every augmentation proves
            # maximality apart from the scan that claimed it
            for e in g.non_edges():
                host = add_edge(g, e)
                has, model = linking.has_k6_minor(host)
                problems += k6_witness_problems(host, has, model, f"{k}+{e}")
            return problems
        return check

    ops = [Op(f"is_maxnil({k})", linking, "is_maxnil", (g,), maxnil_check(k), {"threads": 1})
           for k, g in graphs.items()]
    ops += [Op(f"is_maximal_k6_minor_free({k})", linking, "is_maximal_k6_minor_free",
               (graphs[k],), k6_check(k), {"threads": 1})
            for k in ("J_0", "G")]
    return ops


def _q13_augment(rng, family, span) -> List[Op]:
    with span("setup.families"):
        base = families.q13_3()
    q = _relabel(base, rng)
    q_problems = q13_problems(q)
    ops = []
    # each host gets a relabelling of its own, which averages the search's
    # sensitivity to vertex order over 52 draws instead of one
    for e in q.non_edges():
        host = _relabel(add_edge(q, e), rng)
        what = f"Q(13,3)+{e}"

        def check(result, host=host, what=what):
            il, model = result
            return q_problems + il_witness_problems(host, il, model, family, what)
        ops.append(Op(f"is_intrinsically_linked({what})", linking,
                      "is_intrinsically_linked", (host,), check))
    return ops


def _refute_13(rng, family, span) -> List[Op]:
    with span("setup.families"):
        bases = {"Q(13,3)": families.q13_3(),
                 "J_5": families.jorgensen_family(5),
                 "J_6": families.jorgensen_family(6)}
    graphs = {k: _relabel(g, rng) for k, g in bases.items()}
    petersen = next(p for p in family if p.n == 10)
    q_problems = q13_problems(graphs["Q(13,3)"])

    def j_check(k):
        g = graphs[k]

        def check(found):
            problems = edge_count_problems(g, 3 * g.n - 3, k)
            problems += nil_certificate_problems(g, "two-apex", k)
            return problems + refutation_problems(_k6_reported(found), k)
        return check

    ops = [Op("has_k6_minor(Q(13,3))", linking, "has_k6_minor", (graphs["Q(13,3)"],),
              lambda found: q_problems + refutation_problems(_k6_reported(found), "Q(13,3)"))]
    ops += [Op(f"has_k6_minor({k})", linking, "has_k6_minor", (graphs[k],), j_check(k))
            for k in ("J_5", "J_6")]
    ops.append(Op("find_minor(Q(13,3), Petersen)", minors, "find_minor",
                  (graphs["Q(13,3)"], petersen),
                  lambda found: q_problems + refutation_problems(found is not None,
                                                                 "Q(13,3) Petersen")))
    return ops


# ------------------------------------------------------------- self-test


def selftest_problems() -> List[str]:
    """Show that the checks above reject a broken witness or verdict.

    Runs on J plus its first non-edge, an IL host that the partition
    lattice decides in milliseconds. Returns what the checks failed to
    reject, empty when every corruption was caught.
    """
    family = linking.petersen_family()
    j = families.jorgensen_graph()
    host = add_edge(j, j.non_edges()[0])
    il, model = linking.is_intrinsically_linked(host)
    missed = [f"self-test: genuine witness rejected: {p}"
              for p in il_witness_problems(host, il, model, family, "J+e")]
    # drop the host endpoint of one edge witness from its branch set
    (i, _), (a, _) = next(iter(sorted(model.edge_witnesses.items())))
    branch = dict(model.branch_sets)
    branch[i] = branch[i] - {a}
    broken = MinorModel(branch, model.edge_witnesses, model.pattern)
    if not il_witness_problems(host, True, broken, family, "J+e"):
        missed.append("self-test: witness with a vertex removed was accepted")
    flipped = linking.VerificationReport(subject=j, il_status="nIL",
                                         maxnil_status="not-maxnil",
                                         k6_has_minor=False,
                                         k6_maximal_status="not-maximal")
    if not maxnil_report_problems(flipped, "J"):
        missed.append("self-test: flipped maxnil verdict was accepted")
    if not k6_report_problems(flipped, "J"):
        missed.append("self-test: flipped K6-maximality verdict was accepted")
    if not il_witness_problems(host, False, model, family, "J+e"):
        missed.append("self-test: flipped IL verdict was accepted")
    if not refutation_problems(_k6_reported((True, None)), "J+e"):
        missed.append("self-test: a minor reported in a nIL graph was accepted")
    return missed
