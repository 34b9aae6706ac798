"""Partition extractors, the clique-removal pipeline, and the bipartite-distance analyzer.

The cancellative extractor follows the constructive proof chain: a shadow
pair T with maximal normalized co-link mass, a pair (u, v) in N(T)^2 with
the largest pair link, then `lemma25_pair` on that pair link L: its
max-degree-sum edge {x, y} gives V2 = N_L(x), V3 = N_L(y), V1 = the rest.
Every structural fact the chain relies on (link avoids N(T), V2 and V3
disjoint and independent) is asserted on the way out, so a bad input
cannot produce a quietly wrong report.  All selections break ties
deterministically, making witness chains reproducible.  The co-link mass
and the pair links come from the checkers' incidence index, in exact
integers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .checkers import _cancellative_index, is_k_free
from .constructions import perturb, random_triangle_free_near_bipartite, turan_count, turan_hypergraph
from .hypergraph import (
    Hypergraph,
    auxiliary_graph,
    contains_clique,
    count_cliques,
    iter_bits,
    iter_cliques,
    mask_of,
    vertices_of,
)
from .partitions import Partition, bad_edges
from .search import EXACT_CUT_CEILING, max_ell_cut, vertex_move_optimal


@dataclass
class StabilityReport:
    """Measured edge deficit vs bad-edge fraction for an extracted partition."""

    n: int
    r: int
    edges: int
    target: int  # the extremal edge (or clique) count the deficit is measured against
    epsilon: float
    delta: float
    bad_edge_count: int
    partition: Partition
    witness_chain: Optional[dict] = None
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "edges": self.edges,
            "target": self.target,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "bad_edges": self.bad_edge_count,
            "blocks": [list(b) for b in self.partition.blocks],
            "witness_chain": self.witness_chain,
            "degenerate": self.degenerate,
        }


@dataclass
class BipartiteDistanceReport:
    """Two-block cut structure of a triangle-free graph with certified bounds."""

    n: int
    edges: int
    epsilon: float
    delta: float
    partition: Partition
    bad_edge_list: list[tuple[int, ...]]
    missing_pairs: list[tuple[int, int]]
    missing_count: int
    b1_internal: int
    b2_internal: int
    max_internal_degree: int  # Delta on the heavy side
    case: int
    matching: list[tuple[int, int]]
    verified: dict[str, bool]
    notes: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": self.edges,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "blocks": [list(b) for b in self.partition.blocks],
            "bad_edges": len(self.bad_edge_list),
            "missing_pairs": self.missing_count,
            "b1_internal": self.b1_internal,
            "b2_internal": self.b2_internal,
            "max_internal_degree": self.max_internal_degree,
            "case": self.case,
            "matching_size": len(self.matching),
            "verified": self.verified,
            "notes": self.notes,
        }


def _cut_mode(n: int) -> str:
    return "exact" if n <= EXACT_CUT_CEILING else "local"


def extract_partition_kfree(h: Hypergraph, ell: int, seed: int = 0) -> StabilityReport:
    """Partition a pair-cover-free r-graph via the best ell-cut of its auxiliary graph."""
    if not is_k_free(h, ell):
        raise ValueError("input is not free of the pair-cover family for this ell")
    g = auxiliary_graph(h)
    part, _ = max_ell_cut(g, ell, mode=_cut_mode(h.n), seed=seed)
    bad = bad_edges(h, part)
    target = turan_count(h.n, h.r, ell)
    eps = 1.0 - h.size / target if target else 0.0
    return StabilityReport(
        n=h.n,
        r=h.r,
        edges=h.size,
        target=target,
        epsilon=eps,
        delta=len(bad) / h.n**h.r,
        bad_edge_count=len(bad),
        partition=part,
    )


def extract_partition_cancellative(h: Hypergraph) -> StabilityReport:
    """Recover a near-tripartition of a cancellative 3-graph with a witness chain."""
    ix = _cancellative_index(h, "the cancellative extractor", "input is not cancellative")
    if h.size == 0:
        raise ValueError("empty shadow: the extractor needs at least one edge")
    n = h.n
    sizes = ix.size

    # (i) T maximizing  4 * mass / (d^2 (n-d)^2), where mass is the sum of
    # |L(u, v)| over (u, v) in N(T)^2; ties by larger d then lex T, so the
    # shadow pairs go in lexicographic vertex order and earlier wins final ties
    order = sorted(range(len(ix.ts)), key=lambda i: vertices_of(ix.ts[i]))
    best_i = None
    best_num = best_den = best_d = 0
    for i in order:
        vs = list(iter_bits(ix.nbr[i]))
        d = len(vs)
        mass = sum(sum(map(sizes[u].__getitem__, vs)) for u in vs)
        num, den = 4 * mass, d * d * (n - d) * (n - d)
        if best_i is None or num * best_den > best_num * den or (
            num * best_den == best_num * den and d > best_d
        ):
            best_i, best_num, best_den, best_d = i, num, den, d
    t_mask = ix.ts[best_i]
    nbrs = [b + 1 for b in iter_bits(ix.nbr[best_i])]
    d_t = len(nbrs)
    score = Fraction(best_num, best_den) if best_den else Fraction(0)

    # (ii) ordered pair (u, v) in N(T)^2 with the largest pair link, lex ties
    best_pair = None
    best_size = -1
    for u in nbrs:
        for v in nbrs:
            size = sizes[u - 1][v - 1]
            if size > best_size:
                best_size = size
                best_pair = (u, v)
    u, v = best_pair

    # (iii) the pair link as a graph, then lemma25_pair: its max-degree-sum
    # edge {x, y} with V2 = N_L(x) and V3 = N_L(y)
    link_graph = ix.link(u - 1, v - 1)
    assert len(link_graph) == best_size, "pair-link recount must match the co-link table"
    support = 0
    for a in link_graph:
        support |= a
    assert support & ix.nbr[best_i] == 0, "pair link must avoid N(T) in a cancellative graph"

    x, y, nx, ny = lemma25_pair(Hypergraph(n, 2, tuple(link_graph)))
    v2, v3 = sorted(nx), sorted(ny)

    v2_mask, v3_mask = mask_of(v2), mask_of(v3)
    assert v2_mask & v3_mask == 0, "V2 and V3 must be disjoint (link graph is triangle-free)"
    for blk in (v2_mask, v3_mask):
        for e in h.edges:
            assert (e & blk).bit_count() < 2, "V2 and V3 must be independent in H"
    v1 = [w for w in range(1, n + 1) if not ((1 << (w - 1)) & (v2_mask | v3_mask))]
    part = Partition(n, (tuple(v1), tuple(v2), tuple(v3)))

    bad = bad_edges(h, part)
    target = turan_count(n, 3, 3)
    chain = {
        "T": vertices_of(t_mask),
        "T_degree": d_t,
        "T_neighborhood": nbrs,
        "score": float(score),
        "pair": [u, v],
        "pair_link_size": best_size,
        "edge": [x, y],
    }
    return StabilityReport(
        n=n,
        r=3,
        edges=h.size,
        target=target,
        epsilon=1.0 - h.size / target,
        delta=len(bad) / n**3,
        bad_edge_count=len(bad),
        partition=part,
        witness_chain=chain,
    )


def lemma25_pair(g: Hypergraph) -> tuple[int, int, frozenset[int], frozenset[int]]:
    """Max-degree-sum edge of a triangle-free graph, with disjoint neighborhoods.

    Postconditions asserted: the two neighborhoods are disjoint and
    n (d(x) + d(y)) >= 4 |E| (the averaging bound).
    """
    if g.r != 2:
        raise ValueError("lemma25_pair expects a graph (r = 2)")
    if contains_clique(g, 3):
        raise ValueError("input graph must be triangle-free")
    if not g.edges:
        raise ValueError("input graph has no edges")
    adj = g.adjacency
    best = None
    best_sum = -1
    for e in g.edges:
        i, j = sorted(b + 1 for b in iter_bits(e))
        s = adj[i - 1].bit_count() + adj[j - 1].bit_count()
        if s > best_sum or (s == best_sum and (i, j) < best):
            best_sum = s
            best = (i, j)
    xe, ye = best
    nx = frozenset(b + 1 for b in iter_bits(adj[xe - 1]))
    ny = frozenset(b + 1 for b in iter_bits(adj[ye - 1]))
    assert not (nx & ny), "neighborhoods of an edge are disjoint in a triangle-free graph"
    assert g.n * best_sum >= 4 * g.size, "averaging bound must hold for the chosen edge"
    return xe, ye, nx, ny


def greedy_clique_removal(g: Hypergraph, ell: int) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Delete max-multiplicity edges until no (ell+1)-clique remains.

    Each round deletes the pair lying in the most remaining K_{ell+1}, the
    lowest pair on ties.  The cliques are listed once: deleting an edge never
    creates a clique, so the cliques left after a round are exactly the
    listed ones through no deleted pair.  A round drops the cliques through
    its victim and subtracts their pairs from the load table, so the table
    always holds the positive loads of the remaining cliques.
    """
    if g.r != 2:
        raise ValueError("greedy_clique_removal expects a graph (r = 2)")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    cliques = [vertices_of(c) for c in iter_cliques(g.adjacency, (1 << g.n) - 1, ell + 1)]
    load = Counter(p for cl in cliques for p in itertools.combinations(cl, 2))
    removed: list[tuple[int, int]] = []
    while load:
        a, b = victim = min(load, key=lambda p: (-load[p], p))
        load -= Counter(p for cl in cliques if a in cl and b in cl for p in itertools.combinations(cl, 2))
        cliques = [cl for cl in cliques if a not in cl or b not in cl]
        removed.append(victim)
    return Hypergraph(g.n, 2, tuple(set(g.edges) - {mask_of(p) for p in removed})), removed


def extract_partition_generalized(
    g: Hypergraph, ell: int, r: int, seed: int = 0
) -> StabilityReport:
    """Clique-removal pipeline: make G K_{ell+1}-free greedily, cut, recount on G.

    The deficit is measured on r-clique counts of the cleaned graph against
    the balanced complete ell-partite count; bad edges are counted on the
    original graph, in line with the pipeline's conclusion being about G.
    """
    if g.r != 2:
        raise ValueError("extract_partition_generalized expects a graph (r = 2)")
    if not (ell >= r >= 3):
        raise ValueError(f"need ell >= r >= 3, got ell = {ell}, r = {r}")
    cleaned, removed = greedy_clique_removal(g, ell)
    kr = count_cliques(cleaned, r)
    target = turan_count(g.n, r, ell)
    part, _ = max_ell_cut(cleaned, ell, mode=_cut_mode(g.n), seed=seed)
    bad = bad_edges(g, part)
    return StabilityReport(
        n=g.n,
        r=2,
        edges=g.size,
        target=target,
        epsilon=1.0 - kr / target if target else 0.0,
        delta=len(bad) / g.n**2,
        bad_edge_count=len(bad),
        partition=part,
        witness_chain={"removed_edges": [list(p) for p in removed], "clique_count": kr},
    )


def bipartite_distance_analysis(g: Hypergraph, seed: int = 0) -> BipartiteDistanceReport:
    """Two-block distance structure of a triangle-free graph.

    Verifies, per run: (a) the cut is vertex-move-optimal, (b) the missing
    cross pairs dominate the square of the heavy side's max internal degree,
    (c) the greedy-matching bound on missing pairs, and (d) the counting cap
    |M| <= (epsilon + delta) n^2.  The case label records which side of the
    internal-degree dichotomy the instance falls on.
    """
    if g.r != 2:
        raise ValueError("bipartite_distance_analysis expects a graph (r = 2)")
    if contains_clique(g, 3):
        raise ValueError("input graph must be triangle-free")
    n = g.n
    part, _ = max_ell_cut(g, 2, mode=_cut_mode(n), seed=seed)

    adj = g.adjacency
    masks = part.block_masks()
    internal = [0, 0]
    for e in g.edges:
        for k in (0, 1):
            if e & masks[k] == e:
                internal[k] += 1
    if internal[1] > internal[0]:
        part = Partition(n, (part.blocks[1], part.blocks[0]))
        masks = part.block_masks()
        internal = [internal[1], internal[0]]

    move_optimal = vertex_move_optimal(g, part)
    assert move_optimal, "maxant cut must be vertex-move-optimal"

    v1, v2 = part.blocks
    m1, m2 = masks
    bad = bad_edges(g, part)
    b_count = len(bad)
    cross = g.size - b_count
    missing_list = [
        (u, w) for u in v1 for w in v2 if not adj[u - 1] & (1 << (w - 1))
    ]
    missing = len(missing_list)
    assert missing == len(v1) * len(v2) - cross
    eps = 0.25 - g.size / (n * n)
    delta = b_count / (n * n)

    d1 = {w: (adj[w - 1] & m1).bit_count() for w in v1}
    d2 = {w: (adj[w - 1] & m2).bit_count() for w in v1}
    big = max(d1.values(), default=0)
    vstar = min((w for w in v1 if d1[w] == big), default=None)

    verified: dict[str, bool] = {}
    verified["a_per_vertex_move_optimal"] = move_optimal

    if vstar is not None and big > 0:
        n1 = adj[vstar - 1] & m1
        n2 = adj[vstar - 1] & m2
        no_edge_between = all(
            not (adj[b] & n2) for b in iter_bits(n1)
        )
        verified["b_neighborhood_product_missing"] = no_edge_between
        verified["b_missing_ge_delta_sq"] = missing >= d1[vstar] * d2[vstar] >= big * big
    else:
        verified["b_neighborhood_product_missing"] = True
        verified["b_missing_ge_delta_sq"] = missing >= 0

    # greedy matching inside the heavy side's bad edges, lexicographic order
    b1_edges = sorted(vertices_of(e) for e in bad if e & m1 == e)
    used = 0
    matching: list[tuple[int, int]] = []
    for a, b in b1_edges:
        am, bm = 1 << (a - 1), 1 << (b - 1)
        if used & (am | bm):
            continue
        matching.append((a, b))
        used |= am | bm
    bound_sum = 0
    pair_ok = True
    for a, b in matching:
        da = (adj[a - 1] & m2).bit_count()
        db = (adj[b - 1] & m2).bit_count()
        if da + db > len(v2):
            pair_ok = False
        bound_sum += 2 * len(v2) - da - db
    verified["c_matched_degrees_fit"] = pair_ok
    verified["c_missing_ge_matching_bound"] = missing >= bound_sum >= len(matching) * len(v2)
    verified["d_missing_le_eps_plus_delta"] = 4 * missing <= n * n - 4 * g.size + 4 * b_count

    case = 1 if big**3 >= b_count * n else 2
    return BipartiteDistanceReport(
        n=n,
        edges=g.size,
        epsilon=eps,
        delta=delta,
        partition=part,
        bad_edge_list=[vertices_of(e) for e in bad],
        missing_pairs=missing_list,
        missing_count=missing,
        b1_internal=internal[0],
        b2_internal=internal[1],
        max_internal_degree=big,
        case=case,
        matching=matching,
        verified=verified,
        notes={
            "case1_bound": "implemented as |M| >= Delta^2 via the neighborhood product; "
            "the (Delta*n)^2 reading is dimensionally inconsistent with that argument"
        },
    )


# ---------------------------------------------------------------------------
# epsilon-delta scan


@dataclass(frozen=True)
class ScanRow:
    n: int
    seed: int
    epsilon: float
    delta: float
    bad_edges: int
    case: str


def epsilon_delta_scan(
    kind: str,
    ns: list[int],
    params: list[float],
    seeds: list[int],
    ell: int = 3,
    noise: int = 0,
) -> list[ScanRow]:
    """Measured (epsilon, delta) table; rows are deterministic under seeds.

    kind 'cancellative' and 'kfree' perturb the balanced transversal
    3-graph by the given delete fractions; 'triangle-free' drives the
    bipartite-distance analyzer over generator outputs at the given
    epsilon targets.
    """
    if kind not in ("cancellative", "kfree", "triangle-free"):
        raise ValueError(f"unknown scan kind {kind!r}")

    rows = []
    for p, n, s in itertools.product(params, ns, seeds):
        if kind == "triangle-free":
            g = random_triangle_free_near_bipartite(n, p, noise, s)
            rep = bipartite_distance_analysis(g, seed=s)
            rows.append(ScanRow(n, s, rep.epsilon, rep.delta, len(rep.bad_edge_list), str(rep.case)))
        else:
            h = perturb(turan_hypergraph(n, 3, 3), p, 0, s)
            if kind == "cancellative":
                rep2 = extract_partition_cancellative(h)
            else:
                rep2 = extract_partition_kfree(h, ell, seed=s)
            rows.append(ScanRow(n, s, rep2.epsilon, rep2.delta, rep2.bad_edge_count, ""))
    return rows
