"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function the pipeline calls with a
wrapper, at the place its caller looks the name up: ``construct`` imported
``bridges``, ``components``, ``partition_at_bridge``,
``two_edge_disjoint_paths`` and ``require_2_edge_connected`` by name, and
``connectivity`` calls its own ``bridges`` and ``components``, so both module
namespaces are patched; ``contract`` and ``delete_vertex`` are patched on
``Multigraph``. Per-edge calls such as ``endpoints`` are left alone, because
wrapping them would cost more than the work they do.

A span is (name, start, end, parent index). Spans stay in memory until the
traced pass ends; ``layer_metrics`` derives every per-layer figure from them
plus the counters the wrappers keep.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from sixflow import connectivity, construct, fileio, flows, tutte
from sixflow.multigraph import Multigraph


def _add_m(key):
    def post(counts, args, result):
        counts[key] += args[0].m
    return post


def _add_len(key, of_result=False):
    def post(counts, args, result):
        counts[key] += len(result if of_result else args[0])
    return post


def _solve_post(counts, args, result):
    steps = result[1].steps
    counts["construct.input_edges"] += args[0].m
    counts["construct.instances"] += len(steps)
    counts["construct.depth_max"] = max(counts["construct.depth_max"], result[1].depth)
    for step in steps:
        if isinstance(step, construct.CutStep):
            counts["construct.cut_steps"] += 1
        elif isinstance(step, construct.BridgelessStep):
            counts["construct.bridgeless_steps"] += 1
        else:
            counts["construct.base_loop_edges"] += step.loop_edges


# (owner, attribute, span name, counter hook run after the call)
TARGETS = (
    (fileio, "parse_graph", "fileio.parse_graph", _add_len("fileio.bytes_in")),
    (fileio, "parse_flow", "fileio.parse_flow", _add_len("fileio.bytes_in")),
    (fileio, "flow_matches_graph", "fileio.match", None),
    (fileio, "build_flow_document", "fileio.format", None),
    (fileio, "format_flow", "fileio.format", _add_len("fileio.bytes_out", of_result=True)),
    (construct, "solve", "construct.solve", _solve_post),
    (construct, "require_2_edge_connected", "connectivity.check", None),
    (construct, "bridges", "connectivity.bridges", _add_m("connectivity.bridges_edges")),
    (connectivity, "bridges", "connectivity.bridges", _add_m("connectivity.bridges_edges")),
    (construct, "components", "connectivity.components", None),
    (connectivity, "components", "connectivity.components", None),
    (construct, "partition_at_bridge", "connectivity.partition", None),
    (construct, "two_edge_disjoint_paths", "connectivity.paths", None),
    (Multigraph, "contract", "multigraph.contract", _add_m("multigraph.contract_edges")),
    (Multigraph, "delete_vertex", "multigraph.delete_vertex",
     _add_m("multigraph.delete_vertex_edges")),
    (tutte, "group_flow_to_z6", "tutte.z6", None),
    (tutte, "group_flow_to_integer_flow", "tutte.convert", None),
    (flows, "verify_flow", "flows.verify", _add_m("flows.verify_edges")),
    (flows, "zero_edge", "flows.verify", None),
    (flows, "rooted_violation", "flows.verify", _add_m("flows.verify_edges")),
    (flows, "k_flow_violation", "flows.verify", _add_m("flows.verify_edges")),
)


COUNTERS = (
    "construct.input_edges", "construct.instances", "construct.depth_max",
    "construct.cut_steps", "construct.bridgeless_steps", "construct.base_loop_edges",
    "multigraph.contract_edges", "multigraph.delete_vertex_edges",
    "connectivity.bridges_edges", "tutte.rounds", "fileio.bytes_in", "fileio.bytes_out",
    "flows.verify_edges",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = True  # when False, wrappers call straight through
        self._open: list[int] = []
        self._saved: list = []

    def call(self, name, fn, args, kwargs=None, post=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        if not self.active:
            return fn(*args, **(kwargs or {}))
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.spans[idx] = (name, t0, perf_counter(), parent)
            self._open.pop()
        if post is not None:
            post(self.counts, args, result)
        return result

    def _wrap(self, name, fn, post):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)
        return wrapper

    def _convert_with_rounds(self, fn):
        # tutte.rounds comes from the public ``stats`` argument.
        def convert(g, phi, stats=None):
            stats = {} if stats is None else stats
            out = fn(g, phi, stats)
            self.counts["tutte.rounds"] += stats["augmentation_rounds"]
            return out
        return convert

    def install(self):
        for owner, attr, name, post in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name == "tutte.convert":
                fn = self._convert_with_rounds(fn)
            setattr(owner, attr, self._wrap(name, fn, post))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, counts, wall):
    """Per-layer figures from the spans of one traced pass.

    ``<name>_s`` is the inclusive time of the outermost spans with that
    name, so a call nested in another traced call (bridges inside the
    2-edge-connectivity check) counts in both, and a name nested in itself
    (two ``flows.verify`` functions) counts once. ``<layer>.self_s`` is the
    layer's span time minus the time of the wrapped calls made inside it.
    ``trace.accounted_frac`` is the sum of every span's self time over the
    traced wall time: near 1 when the spans cover the timed work.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent < 0 or spans[parent][0] != name:
            total[name] += t1 - t0
        self_time[_layer(name)] += t1 - t0 - child[i]
        calls[name] += 1
    names = {target[2] for target in TARGETS} | {"bench.instance"}
    out = {f"{name}_{kind}": 0 for name in names for kind in ("s", "calls")}
    out.update({f"{_layer(name)}.self_s": 0.0 for name in names})
    out.update({key: 0 for key in COUNTERS})
    out.update({f"{name}_s": t for name, t in total.items()})
    out.update({f"{name}_calls": c for name, c in calls.items()})
    out.update({f"{layer}.self_s": t for layer, t in self_time.items()})
    out.update(counts)
    instance_edges = counts["multigraph.delete_vertex_edges"] + counts["construct.base_loop_edges"]
    out["construct.instance_edges"] = instance_edges
    out["construct.edge_amplification"] = instance_edges / max(1, counts["construct.input_edges"])
    out["trace.wall_s"] = wall
    out["trace.accounted_frac"] = sum(self_time.values()) / wall
    return out
