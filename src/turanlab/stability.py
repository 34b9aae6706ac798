"""Partition extractors, the clique-removal pipeline, and the bipartite-distance analyzer.

Every extractor reports through one measurement: epsilon = 1 - count/target,
how far the measured count falls below the extremal one, and delta = bad/n^r,
the share of edges the extracted partition leaves bad.  The inputs need
n >= 1; an empty vertex set is a precondition error.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .checkers import _cancellative_index, _Incidence, is_k_free
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


def _require_vertices(n: int) -> None:
    if n < 1:
        raise ValueError(f"the stability measures need n >= 1, got n = {n}")


def _measure(
    h: Hypergraph, part: Partition, bad: list[int], count: int, target: int, chain: Optional[dict] = None
) -> StabilityReport:
    """The (epsilon, delta) report of a partition of h: count against target, bad edges over n^r."""
    _require_vertices(h.n)
    return StabilityReport(
        n=h.n,
        r=h.r,
        edges=h.size,
        target=target,
        epsilon=1.0 - count / target if target else 0.0,
        delta=len(bad) / h.n**h.r,
        bad_edge_count=len(bad),
        partition=part,
        witness_chain=chain,
    )


def extract_partition_kfree(h: Hypergraph, ell: int, seed: int = 0) -> StabilityReport:
    """Partition a pair-cover-free r-graph via the best ell-cut of its auxiliary graph."""
    if not is_k_free(h, ell):
        raise ValueError("input is not free of the pair-cover family for this ell")
    part, _ = max_ell_cut(auxiliary_graph(h), ell, mode=_cut_mode(h.n), seed=seed)
    return _measure(h, part, bad_edges(h, part), h.size, turan_count(h.n, h.r, ell))


def extract_partition_cancellative(h: Hypergraph) -> StabilityReport:
    """Recover a near-tripartition of a cancellative 3-graph with a witness chain."""
    ix = _cancellative_index(h, "the cancellative extractor", "input is not cancellative")
    if h.size == 0:
        raise ValueError("empty shadow: the extractor needs at least one edge")
    n, col = h.n, ix.col

    # (i) T maximizing  4 * mass / (d^2 (n-d)^2), where mass is the sum of
    # |L(u, v)| over (u, v) in N(T)^2; ties by larger d then lex T, so the
    # shadow pairs go in lexicographic vertex order and earlier wins final ties;
    # ts ascends by the larger vertex, so a stable sort by the smaller one is lex
    masses = _colink_masses(ix)
    order = sorted(range(len(ix.ts)), key=lambda i: ix.ts[i] & -ix.ts[i])
    best_i = None
    best_num = best_den = best_d = 0
    for i in order:
        d = ix.nbr[i].bit_count()
        num, den = 4 * masses[i], d * d * (n - d) * (n - d)
        if best_i is None or num * best_den > best_num * den or (
            num * best_den == best_num * den and d > best_d
        ):
            best_i, best_num, best_den, best_d = i, num, den, d
    nbrs = [b + 1 for b in iter_bits(ix.nbr[best_i])]
    score = Fraction(best_num, best_den) if best_den else Fraction(0)

    # (ii) ordered pair (u, v) in N(T)^2 with the largest pair link; max keeps
    # the first maximal pair, so ties go lex
    u, v = max(itertools.product(nbrs, repeat=2), key=lambda p: (col[p[0] - 1] & col[p[1] - 1]).bit_count())

    # (iii) the pair link as a graph, then lemma25_pair: its max-degree-sum
    # edge {x, y} with V2 = N_L(x) and V3 = N_L(y)
    link_graph = ix.link(u - 1, v - 1)
    support = 0
    for a in link_graph:
        support |= a
    assert support & ix.nbr[best_i] == 0, "pair link must avoid N(T) in a cancellative graph"

    x, y, nx, ny = lemma25_pair(Hypergraph(n, 2, tuple(link_graph)))
    v2, v3 = sorted(nx), sorted(ny)

    v2_mask, v3_mask = mask_of(v2), mask_of(v3)
    assert v2_mask & v3_mask == 0, "V2 and V3 must be disjoint (link graph is triangle-free)"
    v1 = [w for w in range(1, n + 1) if not ((1 << (w - 1)) & (v2_mask | v3_mask))]
    part = Partition(n, (tuple(v1), tuple(v2), tuple(v3)))
    bad = bad_edges(h, part)
    for e in bad:  # two vertices in V2 or in V3 make an edge bad
        for blk in (v2_mask, v3_mask):
            assert (e & blk).bit_count() < 2, "V2 and V3 must be independent in H"

    chain = {
        "T": vertices_of(ix.ts[best_i]),
        "T_degree": len(nbrs),
        "T_neighborhood": nbrs,
        "score": float(score),
        "pair": [u, v],
        "pair_link_size": len(link_graph),
        "edge": [x, y],
    }
    return _measure(h, part, bad, h.size, turan_count(n, 3, 3), chain)


def _colink_masses(ix: _Incidence) -> list[int]:
    """mass[i] = the sum of |L(u, v)| over (u, v) in N(ts[i])^2.

    Only the vertices on an edge have a nonempty link, and only they lie in
    some N(T); the k-th of them, v, gets field k.  Row u of the pair-link
    sizes |L(u, v)| = popcount(col[u] & col[v]) is packed into
    R[u] = sum of |L(u, v)| 2^(w k) with w = (n^2 |shadow|).bit_length() + 1.
    Summing R[u] over u in N(T) adds the rows field by field, and masking
    with the all-ones fields of the v in N(T) keeps the terms of the mass.
    Every field, and the mass itself, is at most n^2 |shadow| < 2^w - 1, so
    no field carries and, since 2^w = 1 modulo 2^w - 1, the masked sum taken
    mod 2^w - 1 is exactly the sum of its fields: the mass.

    The sums over N(T) are read from tables, four vertices at a time (the
    lookup-table method of Arlazarov, Dinic, Kronrod and Faradzev): hex
    digit j of N(T).to_bytes(nb, "little").hex() picks the precomputed sum of
    R over the vertices it names among its four, and a matching entry of
    their field masks.  A table holds only the digits made of linked
    vertices, the others never occurring, so the groups of four with no
    linked vertex share one table holding "0".
    """
    n = ix.n
    w = (n * n * len(ix.ts)).bit_length() + 1
    ones = (1 << w) - 1
    nb = (n + 7) >> 3
    col = ix.col
    linked = [v for v in range(n) if col[v]]
    packed = [0] * (8 * nb)
    field = packed[:]
    for k, v in enumerate(linked):
        field[v] = ones << (w * k)
    for u in linked:
        cu = col[u]
        packed[u] = sum((cu & col[v]).bit_count() << (w * k) for k, v in enumerate(linked))
    hex_digits = "0123456789abcdef"
    zero = {"0": 0}
    row_tables, mask_tables = [], []
    for j in range(2 * nb):
        # digit j of the hex string: the high nibble of byte j >> 1 first
        base = 4 * (j ^ 1)
        live = sum(1 << i for i in range(4) if field[base + i])
        if not live:
            row_tables.append(zero)
            mask_tables.append(zero)
            continue
        rows, masks = {"0": 0}, {"0": 0}
        for d in range(1, 16):
            if d & ~live:
                continue
            low = (d & -d).bit_length() - 1
            prev, digit = hex_digits[d & (d - 1)], hex_digits[d]
            rows[digit] = rows[prev] + packed[base + low]
            masks[digit] = masks[prev] | field[base + low]
        row_tables.append(rows)
        mask_tables.append(masks)
    masses = []
    for m in ix.nbr:
        digits = m.to_bytes(nb, "little").hex()
        total = sum(map(dict.__getitem__, row_tables, digits))
        masses.append((total & sum(map(dict.__getitem__, mask_tables, digits))) % ones)
    return masses


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
    listed ones through no deleted pair.  A round drops the live cliques
    through its victim, found from a pair -> clique index, and lowers the
    loads of their pairs, so the load table always holds the positive loads
    of the remaining cliques.
    """
    if g.r != 2:
        raise ValueError("greedy_clique_removal expects a graph (r = 2)")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    cliques = [vertices_of(c) for c in iter_cliques(g.adjacency, (1 << g.n) - 1, ell + 1)]
    through: dict[tuple[int, int], list[int]] = {}
    for k, cl in enumerate(cliques):
        for p in itertools.combinations(cl, 2):
            through.setdefault(p, []).append(k)
    load = {p: len(ks) for p, ks in through.items()}
    alive = [True] * len(cliques)
    removed: list[tuple[int, int]] = []
    while load:
        victim = min(load, key=lambda p: (-load[p], p))
        for k in through[victim]:
            if alive[k]:
                alive[k] = False
                for p in itertools.combinations(cliques[k], 2):
                    load[p] -= 1
                    if not load[p]:
                        del load[p]
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
    chain = {"removed_edges": [list(p) for p in removed], "clique_count": kr}
    return _measure(g, part, bad_edges(g, part), kr, target, chain)


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
    _require_vertices(n)
    part, _ = max_ell_cut(g, 2, mode=_cut_mode(n), seed=seed)

    adj = g.adjacency
    bad = bad_edges(g, part)
    masks = part.block_masks()
    # with two blocks every bad edge lies inside exactly one of them
    internal = [sum(e & m == e for e in bad) for m in masks]
    if internal[1] > internal[0]:
        part = Partition(n, part.blocks[::-1])
        masks.reverse()
        internal.reverse()

    move_optimal = vertex_move_optimal(g, part)
    assert move_optimal, "maxant cut must be vertex-move-optimal"

    v1, v2 = part.blocks
    m1, m2 = masks
    b_count = len(bad)
    missing = sum((m2 & ~adj[u - 1]).bit_count() for u in v1)
    assert missing == len(v1) * len(v2) - (g.size - b_count)

    d1 = {w: (adj[w - 1] & m1).bit_count() for w in v1}
    big = max(d1.values(), default=0)
    vstar = min((w for w in v1 if d1[w] == big), default=None)

    verified = {"a_per_vertex_move_optimal": move_optimal}
    if vstar is not None and big > 0:
        n1 = adj[vstar - 1] & m1
        n2 = adj[vstar - 1] & m2
        verified["b_neighborhood_product_missing"] = all(not (adj[b] & n2) for b in iter_bits(n1))
        verified["b_missing_ge_delta_sq"] = missing >= d1[vstar] * n2.bit_count() >= big * big
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

    return BipartiteDistanceReport(
        n=n,
        edges=g.size,
        epsilon=0.25 - g.size / (n * n),
        delta=b_count / (n * n),
        partition=part,
        bad_edge_list=[vertices_of(e) for e in bad],
        missing_count=missing,
        b1_internal=internal[0],
        b2_internal=internal[1],
        max_internal_degree=big,
        case=1 if big**3 >= b_count * n else 2,
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
    bases: dict[int, Hypergraph] = {}  # T3(n), built on first use
    for p, n, s in itertools.product(params, ns, seeds):
        if kind == "triangle-free":
            g = random_triangle_free_near_bipartite(n, p, noise, s)
            rep = bipartite_distance_analysis(g, seed=s)
            rows.append(ScanRow(n, s, rep.epsilon, rep.delta, len(rep.bad_edge_list), str(rep.case)))
        else:
            if n not in bases:
                bases[n] = turan_hypergraph(n, 3, 3)
            h = perturb(bases[n], p, 0, s)
            if kind == "cancellative":
                rep2 = extract_partition_cancellative(h)
            else:
                rep2 = extract_partition_kfree(h, ell, seed=s)
            rows.append(ScanRow(n, s, rep2.epsilon, rep2.delta, rep2.bad_edge_count, ""))
    return rows
