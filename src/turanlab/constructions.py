"""Named extremal constructions and seeded instance generators.

The balanced partition, the transversal hypergraph on it and its edge
count are the reference objects everything else is measured against; the generators produce the
near-extremal and adversarial inputs the stability extractors and the
certificate property runs consume.  Every randomized generator takes an
explicit seed and is a deterministic function of (parameters, seed).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .checkers import _CancellativeState
from .hypergraph import Hypergraph, all_r_subsets, contains_clique, iter_bits, mask_of


def balanced_partition(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """Split [n] into ell blocks of consecutive labels, sizes differing by at most one, larger first."""
    if ell < 1:
        raise ValueError(f"need at least one block, got ell = {ell}")
    small, extra = divmod(n, ell)
    blocks = []
    start = 1
    for i in range(ell):
        size = small + (1 if i < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


def turan_count(n: int, r: int, ell: int) -> int:
    """Edge count of the balanced transversal r-graph: e_r of the block sizes."""
    if r < 2 or ell < r:
        raise ValueError(f"need ell >= r >= 2, got r = {r}, ell = {ell}")
    if n < 0:
        raise ValueError("n must be >= 0")
    sizes = [len(b) for b in balanced_partition(n, ell)]
    # elementary symmetric polynomial e_r(sizes) via the product expansion
    coeffs = [1] + [0] * r
    for s in sizes:
        for k in range(min(r, len(coeffs) - 1), 0, -1):
            coeffs[k] += coeffs[k - 1] * s
    return coeffs[r]


def turan_hypergraph(n: int, r: int, ell: int) -> Hypergraph:
    """All r-sets meeting each block of the canonical balanced partition at most once."""
    if r < 2 or ell < r:
        raise ValueError(f"need ell >= r >= 2, got r = {r}, ell = {ell}")
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = balanced_partition(n, ell)
    edges = []
    for chosen in itertools.combinations(range(ell), r):
        pools = [blocks[i] for i in chosen]
        if any(not p for p in pools):
            continue
        for combo in itertools.product(*pools):
            edges.append(mask_of(combo))
    h = Hypergraph(n, r, tuple(edges))
    assert h.size == turan_count(n, r, ell)
    return h


def perturb(
    h: Hypergraph,
    delete_fraction: float,
    add_count: int,
    seed: int,
    keep_cancellative: bool = False,
) -> Hypergraph:
    """Delete a fraction of edges, then add absent r-sets, deterministically.

    floor(delete_fraction * |H|) uniformly chosen edges go first; add_count
    uniformly chosen absent r-sets follow.  With keep_cancellative (r = 3
    only), an addition that would break cancellativity is rejected (and
    retried with fresh draws until the pool is exhausted).  A remainder that
    is not cancellative gets no additions: none could make it cancellative.
    """
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1], got {delete_fraction}")
    if add_count < 0:
        raise ValueError("add_count must be >= 0")
    if keep_cancellative and h.r != 3:
        raise ValueError(f"keep_cancellative applies to 3-graphs only, got r = {h.r}")
    rng = random.Random(seed)
    edges = list(h.edges)
    kill = int(delete_fraction * len(edges))
    doomed = set(rng.sample(range(len(edges)), kill)) if kill else set()
    kept = [e for i, e in enumerate(edges) if i not in doomed]
    if add_count:
        present = set(kept)
        absent = [e for e in all_r_subsets(h.n, h.r) if e not in present]
        rng.shuffle(absent)
        if keep_cancellative:
            state = _CancellativeState(h.n)
            # addable is exact on a cancellative set, so all of kept passes iff it is one
            whole = len(list(_cancellative_additions(state, kept))) == len(kept)
            absent = _cancellative_additions(state, absent) if whole else []
        kept += itertools.islice(absent, add_count)
    return Hypergraph(h.n, h.r, tuple(kept))


def _cancellative_additions(state: _CancellativeState, edges: list[int]) -> Iterator[int]:
    """The edges, in order, that keep the state's 3-graph cancellative, each added as it passes."""
    for e in edges:
        if state.addable(e):
            state.add(e)
            yield e


def random_maximal_cancellative(n: int, seed: int) -> Hypergraph:
    """Greedy cancellative 3-graph over a seeded random 3-set order; maximal."""
    triples = all_r_subsets(n, 3)
    random.Random(seed).shuffle(triples)
    return Hypergraph(n, 3, tuple(_cancellative_additions(_CancellativeState(n), triples)))


def random_triangle_free_near_bipartite(n: int, epsilon: float, noise: int, seed: int) -> Hypergraph:
    """Seeded triangle-free graph with about (1/4 - epsilon) n^2 edges.

    Starts from the complete balanced bipartite graph; `noise` attempts to
    plant a same-side edge, paying for it by deleting the cross edges that
    would close a triangle; finally trims random cross edges down to the
    target count.  noise = 0 keeps the graph bipartite, and epsilon = 0
    with even n returns the complete balanced bipartite graph itself.
    """
    target = round((0.25 - epsilon) * n * n)
    left = list(range(1, (n + 1) // 2 + 1))
    right = list(range(len(left) + 1, n + 1))
    if target > len(left) * len(right):
        raise ValueError(
            f"target edge count {target} exceeds the bipartite maximum {len(left) * len(right)}"
        )
    if target < 0:
        raise ValueError("epsilon is too large: negative target edge count")
    rng = random.Random(seed)
    adj = [0] * (n + 1)

    def has_edge(u: int, v: int) -> bool:
        return bool(adj[u] & (1 << (v - 1)))

    def add_edge(u: int, v: int) -> None:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)

    def del_edge(u: int, v: int) -> None:
        adj[u] &= ~(1 << (v - 1))
        adj[v] &= ~(1 << (u - 1))

    edge_count = 0
    for u in left:
        for v in right:
            add_edge(u, v)
            edge_count += 1

    sides = [left, right]
    for _ in range(noise):
        side = sides[rng.randrange(2)]
        if len(side) < 2:
            continue
        u, v = rng.sample(side, 2)
        if has_edge(u, v):
            continue
        common = adj[u] & adj[v]
        cost = common.bit_count()
        if edge_count - cost + 1 < target:
            continue  # cannot pay for this internal edge and still hit the target
        for b in iter_bits(common):
            w = b + 1
            if rng.randrange(2):
                del_edge(u, w)
            else:
                del_edge(v, w)
            edge_count -= 1
        add_edge(u, v)
        edge_count += 1

    cross = [(u, v) for u in left for v in right if has_edge(u, v)]
    rng.shuffle(cross)
    while edge_count > target and cross:
        u, v = cross.pop()
        if has_edge(u, v):
            del_edge(u, v)
            edge_count -= 1

    edges = []
    for v in range(1, n + 1):
        for b in iter_bits(adj[v]):
            u = b + 1
            if u > v:
                edges.append(mask_of((v, u)))
    g = Hypergraph(n, 2, tuple(edges))
    assert not contains_clique(g, 3), "generator must stay triangle-free"
    return g
