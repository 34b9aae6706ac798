"""In-memory spans around turanlab's public functions, and the per-layer metrics.

`Tracer.install` replaces each target function with a recording wrapper at
every turanlab module that holds it (the defining module and every module
that imported the name), and each target method on its class.  A wrapper
records only while a job is running, so the benchmark's own output checks
between jobs go unrecorded.  A call nested directly inside a span of the
same name (`is_cancellative` -> `cancellative_witness`) is folded into it.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter


def _pair_link_evals(h) -> int:
    """Sum over shadow pairs T of d(T)^2: the (T, u, v) triples a pair-link certificate visits."""
    deg: Counter = Counter()
    for e in h.edges:
        low = e
        while low:
            b = low & -low
            deg[e ^ b] += 1
            low ^= b
    return sum(d * d for d in deg.values())


def _cut_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return "search.cut_" + mode


def _count_nodes(counts, args, kwargs, rec) -> None:
    counts["search.nodes"] += rec.nodes_explored
    counts["search.searches"] += 1


def _count_pair_links(counts, args, kwargs, report) -> None:
    counts["checkers.pair_link_evals"] += _pair_link_evals(args[0])


def _count_loaded(counts, args, kwargs, h) -> None:
    counts["hypergraph.load_edges"] += h.size


def _count_rows(counts, args, kwargs, rows) -> None:
    counts["stability.scan_rows"] += len(rows)


def _count_hits(counts, args, kwargs, entry) -> None:
    counts["cache.hits"] += entry is not None


# (module, attribute path, span name or name function, counter hook)
TARGETS = [
    ("turanlab.canonical", "canonical_code", "canonical.code", None),
    ("turanlab.search", "extremal_number", "search.extremal_number", _count_nodes),
    ("turanlab.search", "KFreeState.addable", "search.kfree_state.addable", None),
    ("turanlab.search", "KFreeState.add", "search.kfree_state.update", None),
    ("turanlab.search", "KFreeState.remove", "search.kfree_state.update", None),
    ("turanlab.search", "max_ell_cut", _cut_name, None),
    ("turanlab.checkers", "_CancellativeState.addable", "checkers.cancellative_state.addable", None),
    ("turanlab.checkers", "_CancellativeState.add", "checkers.cancellative_state.update", None),
    ("turanlab.checkers", "_CancellativeState.remove", "checkers.cancellative_state.update", None),
    ("turanlab.checkers", "is_cancellative", "checkers.cancellative", None),
    ("turanlab.checkers", "cancellative_witness", "checkers.cancellative", None),
    ("turanlab.checkers", "inequality2_certificate", "checkers.inequality2", _count_pair_links),
    ("turanlab.checkers", "mantel_link_bound", "checkers.mantel_link", _count_pair_links),
    ("turanlab.checkers", "fisher_ryan_certificate", "checkers.other_certs", None),
    ("turanlab.checkers", "link_count_identity", "checkers.other_certs", None),
    ("turanlab.checkers", "theorem13_certificate", "checkers.other_certs", None),
    ("turanlab.checkers", "links_triangle_free", "checkers.other_certs", None),
    ("turanlab.checkers", "neighborhoods_independent", "checkers.other_certs", None),
    ("turanlab.hypergraph", "load_hypergraph", "hypergraph.load", _count_loaded),
    ("turanlab.hypergraph", "count_cliques", "hypergraph.clique", None),
    ("turanlab.hypergraph", "contains_clique", "hypergraph.clique", None),
    ("turanlab.hypergraph", "auxiliary_graph", "hypergraph.aux_graph", None),
    ("turanlab.stability", "extract_partition_cancellative", "stability.cancellative", None),
    ("turanlab.stability", "extract_partition_kfree", "stability.kfree", None),
    ("turanlab.stability", "bipartite_distance_analysis", "stability.bipartite", None),
    ("turanlab.stability", "extract_partition_generalized", "stability.generalized", None),
    ("turanlab.stability", "epsilon_delta_scan", "stability.scan", _count_rows),
    ("turanlab.partitions", "bad_edges", "partitions.bad_edges", None),
    ("turanlab.constructions", "turan_hypergraph", "constructions.generate", None),
    ("turanlab.constructions", "perturb", "constructions.generate", None),
    ("turanlab.constructions", "random_triangle_free_near_bipartite", "constructions.generate", None),
    ("turanlab.constructions", "random_maximal_cancellative", "constructions.generate", None),
    ("turanlab.cache", "cache_lookup", "cache.lookup", _count_hits),
    ("turanlab.cache", "cache_store", "cache.store", None),
]

ROOT = "cli.run"


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, job id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self.missing: list[str] = []

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            if parent >= 0 and tracer.spans[parent][0] == span_name:
                return fn(*args, **kwargs)
            rec = [span_name, 0.0, 0.0, parent, tracer.job]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target; names the program no longer has are listed in `missing`."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "turanlab" or k.startswith("turanlab.")]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(name, original, hook)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def run_job(self, job_id: int, fn, *args):
        """Call fn as the root span of one job."""
        self.job = job_id
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.job = None

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans: list[list], counts: Counter, factors: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Every `_s` metric is self time in
    reference seconds (each span scaled by its job's speed factor, see
    speed.py), so together with cli.self_s they add up to the pass's job time."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    generate_s = 0.0
    for name, start, end, parent, job in spans:
        duration = (end - start) * factors[job]
        calls[name] += 1
        self_s[name] += duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        if name == "constructions.generate":
            while parent >= 0 and spans[parent][0] != "stability.scan":
                parent = spans[parent][3]
            if parent >= 0:
                generate_s += duration  # a leaf: its duration is its self time
    code_calls = calls["canonical.code"]
    load_s = self_s["hypergraph.load"]
    return {
        "canonical.code_calls": code_calls,
        "canonical.code_s": self_s["canonical.code"],
        "canonical.us_per_code": 1e6 * self_s["canonical.code"] / code_calls if code_calls else 0.0,
        "search.nodes": counts["search.nodes"],
        "search.new_class_ratio": (
            (counts["search.nodes"] - counts["search.searches"]) / code_calls if code_calls else 0.0
        ),
        "search.self_s": self_s["search.extremal_number"],
        "search.kfree_state.addable_calls": calls["search.kfree_state.addable"],
        "search.kfree_state.addable_s": self_s["search.kfree_state.addable"],
        "search.kfree_state.update_s": self_s["search.kfree_state.update"],
        "search.cut_calls": calls["search.cut_exact"] + calls["search.cut_local"],
        "search.cut_exact_s": self_s["search.cut_exact"],
        "search.cut_local_s": self_s["search.cut_local"],
        "checkers.cancellative_state.addable_calls": calls["checkers.cancellative_state.addable"],
        "checkers.cancellative_state.addable_s": self_s["checkers.cancellative_state.addable"],
        "checkers.cancellative_state.update_s": self_s["checkers.cancellative_state.update"],
        "checkers.cancellative_calls": calls["checkers.cancellative"],
        "checkers.cancellative_s": self_s["checkers.cancellative"],
        "checkers.inequality2_self_s": self_s["checkers.inequality2"],
        "checkers.mantel_link_self_s": self_s["checkers.mantel_link"],
        "checkers.other_certs_s": self_s["checkers.other_certs"],
        "checkers.pair_link_evals": counts["checkers.pair_link_evals"],
        "hypergraph.load_s": load_s,
        "hypergraph.load_edges_per_s": counts["hypergraph.load_edges"] / load_s if load_s else 0.0,
        "hypergraph.clique_calls": calls["hypergraph.clique"],
        "hypergraph.clique_s": self_s["hypergraph.clique"],
        "hypergraph.aux_graph_s": self_s["hypergraph.aux_graph"],
        "stability.cancellative_self_s": self_s["stability.cancellative"],
        "stability.kfree_self_s": self_s["stability.kfree"],
        "stability.bipartite_self_s": self_s["stability.bipartite"],
        "stability.generalized_self_s": self_s["stability.generalized"],
        "stability.scan_rows": counts["stability.scan_rows"],
        "stability.scan_s": self_s["stability.scan"],
        "partitions.bad_edges_s": self_s["partitions.bad_edges"],
        "constructions.generate_s": generate_s,
        "cache.lookups": calls["cache.lookup"],
        "cache.hits": counts["cache.hits"],
        "cache.lookup_s": self_s["cache.lookup"],
        "cache.store_s": self_s["cache.store"],
        "cli.self_s": self_s[ROOT],
    }


COUNTERS = [
    "canonical.code_calls",
    "search.nodes",
    "search.kfree_state.addable_calls",
    "search.cut_calls",
    "checkers.cancellative_state.addable_calls",
    "checkers.cancellative_calls",
    "checkers.pair_link_evals",
    "hypergraph.clique_calls",
    "stability.scan_rows",
    "cache.lookups",
    "cache.hits",
]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
