"""Outside-in spans around the calls into each layer of maxnil_lab.

Nothing inside the package is changed. ``Tracer.install`` replaces, for
the length of a traced round, the module attributes through which one
layer calls another:

* the functions that ``linking`` imports from ``minors``, ``canon`` and
  ``graph`` (found by their ``__module__``, so a new import is covered);
* ``linking``'s own deciders ``is_intrinsically_linked`` and
  ``has_k6_minor``, which its added-edge scan calls through the module;
* the ``automorphism_orbits`` that ``minors`` imports from ``canon``;
* ``networkx.check_planarity``, which the apex shortcut calls;
* the workload's own top-level calls: ``linking.is_maxnil``,
  ``linking.is_maximal_k6_minor_free`` and ``minors.find_minor``.

The set-up steps get spans from ``Tracer.span``, in a layer of their
own, ``setup``. Each span records its name, layer, start, end, parent
and outcome, in memory; ``write`` stores them when the round ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List

import networkx

from maxnil_lab import linking, minors

# modules whose functions linking imports and calls across the boundary
CALLEES = ("maxnil_lab.minors", "maxnil_lab.canon", "maxnil_lab.graph")

# per-layer metrics, with their units, in the order they are reported
METRICS = {
    "minors.lattice_calls": "count",
    "minors.lattice_s": "s",
    "minors.lattice_undecided": "count",
    "minors.find_minor_calls": "count",
    "minors.find_minor_s": "s",
    "minors.find_minor_hit_ratio": "ratio",
    "minors.find_minor_undecided": "count",
    "minors.verify_calls": "count",
    "minors.verify_s": "s",
    "canon.canonical_form_calls": "count",
    "canon.canonical_form_s": "s",
    "canon.orbits_calls": "count",
    "canon.orbits_s": "s",
    "graph.calls": "count",
    "graph.s": "s",
    "linking.planarity_calls": "count",
    "linking.planarity_s": "s",
    "linking.self_s": "s",
    "linking.decisions": "count",
    "linking.augmented_hosts": "count",
    "linking.petersen_s": "s",
    "families.build_s": "s",
    "trace.certify_s": "s",
}


class Tracer:
    def __init__(self):
        # one list per span: name, layer, start, end, parent index, outcome
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; its layer is the name's prefix."""
        idx = self._open(name)
        outcome = "none"
        try:
            yield
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            self._close(idx, outcome)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span whose outcome says what it returned."""
        idx = self._open(name)
        outcome = "error"
        try:
            result = fn(*args, **kwargs)
            outcome = "none" if result is None else "value"
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            self._close(idx, outcome)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, name.split(".")[0], time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, outcome: str) -> None:
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter()
        self.spans[idx][5] = outcome

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, traced)

    def install(self) -> None:
        for attr, value in sorted(vars(linking).items()):
            module = getattr(value, "__module__", None)
            if callable(value) and not isinstance(value, type) and module in CALLEES:
                self._patch(linking, attr, f"{module.split('.')[-1]}.{attr}")
        for attr in ("is_intrinsically_linked", "has_k6_minor", "is_maxnil",
                     "is_maximal_k6_minor_free"):
            self._patch(linking, attr, f"linking.{attr}")
        self._patch(minors, "automorphism_orbits", "canon.automorphism_orbits")
        self._patch(minors, "find_minor", "minors.find_minor")
        self._patch(networkx, "check_planarity", "planarity.check_planarity")

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for name, layer, start, end, parent, outcome in self.spans:
                out.write(json.dumps({"name": name, "layer": layer, "start": start,
                                      "end": end, "parent": parent,
                                      "outcome": outcome}) + "\n")

    def summary(self, certify_s: float) -> Dict[str, float]:
        """The per-layer metrics of this round, from its spans."""
        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        outcomes: Dict[tuple, int] = {}
        layer_calls: Dict[str, int] = {}
        layer_total: Dict[str, float] = {}
        self_time: Dict[str, float] = {}
        for name, layer, start, end, parent, outcome in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            outcomes[name, outcome] = outcomes.get((name, outcome), 0) + 1
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_total[layer] = layer_total.get(layer, 0.0) + dur
            self_time[layer] = self_time.get(layer, 0.0) + dur
            if parent >= 0:
                parent_layer = self.spans[parent][1]
                self_time[parent_layer] = self_time.get(parent_layer, 0.0) - dur
        find_calls = calls.get("minors.find_minor", 0)
        return {
            "minors.lattice_calls": calls.get("minors.lattice_search", 0),
            "minors.lattice_s": total.get("minors.lattice_search", 0.0),
            "minors.lattice_undecided": outcomes.get(("minors.lattice_search", "UndecidedError"), 0),
            "minors.find_minor_calls": find_calls,
            "minors.find_minor_s": total.get("minors.find_minor", 0.0),
            "minors.find_minor_hit_ratio":
                outcomes.get(("minors.find_minor", "value"), 0) / find_calls if find_calls else 0.0,
            "minors.find_minor_undecided": outcomes.get(("minors.find_minor", "UndecidedError"), 0),
            "minors.verify_calls": calls.get("minors.verify_minor_model", 0),
            "minors.verify_s": total.get("minors.verify_minor_model", 0.0),
            "canon.canonical_form_calls": calls.get("canon.canonical_form", 0),
            "canon.canonical_form_s": total.get("canon.canonical_form", 0.0),
            "canon.orbits_calls": calls.get("canon.automorphism_orbits", 0),
            "canon.orbits_s": total.get("canon.automorphism_orbits", 0.0),
            "graph.calls": layer_calls.get("graph", 0),
            "graph.s": layer_total.get("graph", 0.0),
            "linking.planarity_calls": calls.get("planarity.check_planarity", 0),
            "linking.planarity_s": total.get("planarity.check_planarity", 0.0),
            "linking.self_s": self_time.get("linking", 0.0),
            "linking.decisions": calls.get("linking.is_intrinsically_linked", 0)
            + calls.get("linking.has_k6_minor", 0),
            "linking.augmented_hosts": calls.get("graph.add_edge", 0),
            "linking.petersen_s": total.get("setup.petersen_family", 0.0),
            "families.build_s": total.get("setup.families", 0.0),
            "trace.certify_s": certify_s,
        }
