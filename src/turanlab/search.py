"""Exhaustive extremal-number search and exact/local multiway cuts.

The extremal search grows predicate-satisfying edge sets from the empty
graph one edge at a time.  A branch dies when current-size +
addable-candidates cannot reach the best value found so far (addable-count
is a valid bound because a hereditary predicate's violations are permanent
under further additions).  Ties at the optimum survive the strict prune, so
the extremal class count comes out exact.

Near the root the search works one isomorphism class at a time.  It
branches on one addable edge per twin orbit, keeps a child G+e only if e
has the largest `edge_invariants` value among the edges of G+e, and
canonicalizes and memoizes the survivors.  The filter loses no class: H is
reached from H-e for an edge e of H with the largest invariant, and H-e
satisfies the predicate with a bound at least that of H.  Once a node has
at most LABELED_TAIL addable edges, its subtree goes to plain labeled
subset branch and bound, which costs far less per node than a canonical
labelling.

The predicates are a fixed set, `PREDICATES`: "cancellative" (3-graphs in
which no edge contains the symmetric difference of two others), "k-free"
(r-graphs whose pair-cover graph is K_{ell+1}-free, for a given ell >= r)
and "triangle-free" (graphs).  All three are hereditary, which the
addable-count bound needs.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .canonical import _twin_classes, canonical_code
from .checkers import _CancellativeState
from .constructions import turan_count
from .hypergraph import Hypergraph, all_r_subsets, iter_bits, iter_cliques
from .partitions import Partition

DEFAULT_GUARDS = {2: 10, 3: 8}

PREDICATES = ("cancellative", "k-free", "triangle-free")
_UNIFORMITY = {"cancellative": 3, "triangle-free": 2}  # "k-free" takes any r

# Bump whenever a change to the search can change what it reports for some
# (predicate, n, r, ell): result-cache entries of another version are misses.
SEARCH_VERSION = 3

# A node with at most this many addable edges hands its subtree to the labeled
# branch and bound.
LABELED_TAIL = 16

NODE_BUDGET = 50_000_000
# Extremal classes kept as witnesses; past this many, cap_hit is set.
WITNESS_CAP = 1000


def edge_invariants(n: int, edges: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """Per edge f, sorted (deg(b), nd(b)) over the vertices b of f.

    deg is the vertex degree and nd(b) sums, over the edges through b, the
    degree sums of those edges.  A relabeling permutes the list with the edges.
    """
    members = [tuple(iter_bits(e)) for e in edges]
    deg = [0] * n
    for mem in members:
        for b in mem:
            deg[b] += 1
    nd = [0] * n
    for mem in members:
        w = 0
        for b in mem:
            w += deg[b]
        for b in mem:
            nd[b] += w
    return [tuple(sorted([(deg[b], nd[b]) for b in mem])) for mem in members]


# ---------------------------------------------------------------------------
# Hereditary predicates with incremental add/remove/addable


class KFreeState:
    """Auxiliary graph stays K_{ell+1}-free; pair coverage counts track removal."""

    def __init__(self, n: int, r: int, ell: int) -> None:
        if ell < r:
            raise ValueError(f"need ell >= r, got ell = {ell}, r = {r}")
        self.n = n
        self.r = r
        self.ell = ell
        self.adj = [0] * n
        self.pair_cov: dict[tuple[int, int], int] = {}

    def _pairs(self, e: int) -> list[tuple[int, int]]:
        return list(itertools.combinations(list(iter_bits(e)), 2))

    def addable(self, e: int) -> bool:
        if self.r == 2:
            lo = e & -e
            i, j = lo.bit_length() - 1, (e ^ lo).bit_length() - 1
            if self.pair_cov.get((i, j)):
                return True
            common = self.adj[i] & self.adj[j]
            if self.ell == 2:
                return common == 0
            return next(iter_cliques(self.adj, common, self.ell - 1), None) is None
        pairs = self._pairs(e)
        new = [(i, j) for i, j in pairs if not self.pair_cov.get((i, j))]
        if not new:
            return True
        adj2 = list(self.adj)
        for i, j in pairs:
            adj2[i] |= 1 << j
            adj2[j] |= 1 << i
        for i, j in new:
            if next(iter_cliques(adj2, adj2[i] & adj2[j], self.ell - 1), None) is not None:
                return False
        return True

    def add(self, e: int) -> None:
        for i, j in self._pairs(e):
            c = self.pair_cov.get((i, j), 0)
            self.pair_cov[(i, j)] = c + 1
            if c == 0:
                self.adj[i] |= 1 << j
                self.adj[j] |= 1 << i

    def remove(self, e: int) -> None:
        for i, j in self._pairs(e):
            c = self.pair_cov[(i, j)] - 1
            self.pair_cov[(i, j)] = c
            if c == 0:
                self.adj[i] &= ~(1 << j)
                self.adj[j] &= ~(1 << i)


@dataclass
class ExtremalRecord:
    n: int
    r: int
    predicate: str
    ell: Optional[int]
    value: int
    extremal_classes: int
    witnesses: list[Hypergraph]
    nodes_explored: int
    runtime: float
    complete: bool
    cap_hit: bool = False


def check_request(r: int, predicate: str, ell: Optional[int]) -> None:
    """Raise ValueError unless (r, predicate, ell) names a search; ell belongs to k-free alone."""
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    if predicate == "k-free" and ell is None:
        raise ValueError(f"predicate {predicate!r} requires ell")
    if predicate != "k-free" and ell is not None:
        raise ValueError(f"predicate {predicate!r} takes no ell, got ell = {ell}")
    if r != _UNIFORMITY.get(predicate, r):
        raise ValueError(f"predicate {predicate!r} does not apply to r = {r}")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")


def extremal_number(
    n: int,
    r: int,
    predicate: str,
    ell: Optional[int] = None,
    allow_large: bool = False,
    node_budget: int = NODE_BUDGET,
) -> ExtremalRecord:
    """Exact maximum edge count over all r-graphs on [n] satisfying the predicate.

    Budget exhaustion (more than node_budget nodes) is reported via
    complete=False, never as a value.  Raises ValueError on a non-positive
    budget, on a request `check_request` rejects or above the feasibility guard.
    """
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
    check_request(r, predicate, ell)
    guard = DEFAULT_GUARDS.get(r, 8)
    if n > guard and not allow_large:
        raise ValueError(
            f"n = {n} exceeds the feasibility guard {guard} for r = {r} (pass allow_large to override)"
        )

    t0 = time.perf_counter()
    if predicate == "cancellative":
        state = _CancellativeState(n)
    else:
        state = KFreeState(n, r, ell if predicate == "k-free" else 2)
    candidates = all_r_subsets(n, r)
    cur: list[int] = []
    visited: set[tuple[int, ...]] = set()
    best = 0
    best_codes: set[tuple[int, ...]] = {()}
    nodes = 0
    exhausted = False
    cap_hit = False

    def record_tie(code: Optional[tuple[int, ...]]) -> None:
        nonlocal cap_hit
        if code is None:
            code = canonical_code(n, cur)
        if len(best_codes) < WITNESS_CAP:
            best_codes.add(code)
        elif code not in best_codes:
            cap_hit = True

    def note_state(code: Optional[tuple[int, ...]]) -> None:
        nonlocal best, cap_hit
        m = len(cur)
        if m > best:
            best = m
            best_codes.clear()
            cap_hit = False
            record_tie(code)
        elif m == best:
            record_tie(code)

    def push(e: int) -> None:
        cur.append(e)
        state.add(e)

    def pop(e: int) -> None:
        state.remove(e)
        cur.pop()

    def dfs(code: tuple[int, ...], addable: list[int]) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(cur) + len(addable) < best:
            return
        note_state(code)
        if len(addable) <= LABELED_TAIL:
            extend_labeled(addable)
            return
        # one representative extension per twin-orbit of addable edges;
        # products of twin swaps fix the current graph, so orbit-mates
        # produce isomorphic children
        twin = _twin_classes(n, cur)
        reps: dict[tuple[int, ...], int] = {}
        for e in addable:
            key = tuple(sorted(twin[b] for b in iter_bits(e)))
            reps.setdefault(key, e)
        m = len(cur)
        for e in reps.values():
            # canonical-parent filter: keep G+e only if e has the largest
            # invariant in it; G+e is still reached by dropping such an edge
            inv = edge_invariants(n, cur + [e])
            if inv[-1] < max(inv):
                continue
            push(e)
            child_addable = [f for f in addable if f != e and state.addable(f)]
            if m + 1 + len(child_addable) >= best:
                child = canonical_code(n, cur)
                if child not in visited:
                    visited.add(child)
                    dfs(child, child_addable)
            pop(e)
            if exhausted:
                return

    def extend_labeled(rem: list[int]) -> None:
        """Every labeled extension of cur by edges of rem, in rem order."""
        nonlocal nodes, exhausted
        m = len(cur)
        for i, e in enumerate(rem):
            if m + (len(rem) - i) < best:
                break
            push(e)
            new_rem = [f for f in rem[i + 1 :] if state.addable(f)]
            if m + 1 + len(new_rem) >= best:
                nodes += 1
                if nodes > node_budget:
                    exhausted = True
                else:
                    note_state(None)
                    extend_labeled(new_rem)
            pop(e)
            if exhausted:
                return

    visited.add(())
    dfs((), [e for e in candidates if state.addable(e)])
    runtime = time.perf_counter() - t0
    witnesses = [Hypergraph(n, r, code) for code in sorted(best_codes)]
    return ExtremalRecord(
        n=n,
        r=r,
        predicate=predicate,
        ell=ell,
        value=best,
        extremal_classes=len(best_codes),
        witnesses=witnesses,
        nodes_explored=nodes,
        runtime=runtime,
        complete=not exhausted,
        cap_hit=cap_hit,
    )


# ---------------------------------------------------------------------------
# Multiway cuts


EXACT_CUT_CEILING = 20
LOCAL_RESTARTS = 32


def _block_masks(assign: list[int], ell: int) -> list[int]:
    bm = [0] * ell
    for v, k in enumerate(assign):
        bm[k] |= 1 << v
    return bm


def _cut_value(adj: list[int], assign: list[int], bm: list[int], nedges: int) -> int:
    internal = sum((adj[v] & bm[k]).bit_count() for v, k in enumerate(assign))
    return nedges - internal // 2


def _descend(adj: list[int], assign: list[int], bm: list[int]) -> None:
    """Strict single-vertex-move hill climbing; never empties a block.

    bm[k] is always the set of v with assign[v] == k: a move updates two
    masks in place, so later vertices in the same sweep see it.
    """
    improved = True
    while improved:
        improved = False
        for v, av in enumerate(adj):
            counts = [(av & m).bit_count() for m in bm]
            low = min(counts)
            cur = assign[v]
            if low < counts[cur]:
                tgt = counts.index(low)
                bm[cur] ^= 1 << v
                bm[tgt] |= 1 << v
                assign[v] = tgt
                improved = True


def _fill_empty_blocks(adj: list[int], assign: list[int], bm: list[int]) -> None:
    """Move highest-internal-degree vertices into empty blocks (never lowers the cut)."""
    if len(assign) < len(bm):
        return
    while 0 in bm:
        # n >= ell, so while a block is empty another holds at least two vertices
        sizes = [m.bit_count() for m in bm]
        v = max(
            (v for v, k in enumerate(assign) if sizes[k] >= 2),
            key=lambda v: (adj[v] & bm[assign[v]]).bit_count(),
        )
        empty = bm.index(0)
        bm[assign[v]] ^= 1 << v
        bm[empty] |= 1 << v
        assign[v] = empty


def _greedy_assign(adj: list[int], n: int, ell: int) -> list[int]:
    assign = [0] * n
    bm = [0] * ell  # the vertices placed so far
    for v in range(n):
        counts = [(adj[v] & m).bit_count() for m in bm]
        k = counts.index(min(counts))
        assign[v] = k
        bm[k] |= 1 << v
    return assign


def _local_cut(adj: list[int], n: int, ell: int, nedges: int, seed: int) -> tuple[list[int], int]:
    rng = random.Random(seed)
    best_assign: Optional[list[int]] = None
    best_cut = -1
    for restart in range(LOCAL_RESTARTS):
        if restart == 0:
            assign = _greedy_assign(adj, n, ell)
        else:
            assign = [rng.randrange(ell) for _ in range(n)]
        bm = _block_masks(assign, ell)
        _descend(adj, assign, bm)
        _fill_empty_blocks(adj, assign, bm)
        _descend(adj, assign, bm)
        cut = _cut_value(adj, assign, bm, nedges)
        if cut > best_cut:
            best_cut = cut
            best_assign = assign
    assert best_assign is not None
    return best_assign, best_cut


def _exact_cut(adj: list[int], n: int, ell: int, nedges: int, seed: int) -> tuple[list[int], int]:
    """Branch and bound over block assignments with canonical block introduction.

    bm[b] holds the assigned vertices of block b and placed their union, both
    updated in place: placing v in b gains its edges to placed minus those to
    bm[b], and an unassigned v adds at most its edges to placed minus its
    fewest to one block.  The k unplaced vertices add at most the edges among
    them, and at most t_2(k, ell), since k vertices in ell blocks cross no
    more pairs than the balanced split does.  The bound prunes only branches
    that cannot beat the incumbent strictly, so the cap changes no result.
    """
    seed_assign, seed_cut = _local_cut(adj, n, ell, nedges, seed)

    # static max-adjacency order so constraints bite early; lowest vertex on ties
    order: list[int] = []
    placed = 0
    for _ in range(n):
        v = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count()),
        )
        order.append(v)
        placed |= 1 << v
    suffix_pairs = [0] * (n + 1)
    later = 0
    for i in range(n - 1, -1, -1):
        suffix_pairs[i] = suffix_pairs[i + 1] + (adj[order[i]] & later).bit_count()
        later |= 1 << order[i]
    suffix_cap = [min(pairs, turan_count(n - i, 2, ell)) for i, pairs in enumerate(suffix_pairs)]

    assign = [-1] * n
    bm = [0] * ell
    placed = 0
    best_cut = seed_cut
    best_assign = list(seed_assign)

    def bound(idx: int) -> int:
        opt = suffix_cap[idx]
        for j in range(idx, n):
            av = adj[order[j]]
            opt += (av & placed).bit_count() - min((av & m).bit_count() for m in bm)
        return opt

    def rec(idx: int, cross: int, used: int) -> None:
        nonlocal best_cut, best_assign, placed
        if idx == n:
            if cross > best_cut:
                best_cut = cross
                best_assign = list(assign)
            return
        if cross + bound(idx) <= best_cut:
            return
        v = order[idx]
        av, vb = adj[v], 1 << v
        to_placed = (av & placed).bit_count()
        placed |= vb
        for b in range(min(used + 1, ell)):
            assign[v] = b
            gained = to_placed - (av & bm[b]).bit_count()
            bm[b] |= vb
            rec(idx + 1, cross + gained, max(used, b + 1))
            bm[b] ^= vb
        placed ^= vb
        assign[v] = -1

    rec(0, 0, 0)
    # best_assign is a maximum cut: the fill moves only vertices with no neighbour in
    # their block, and no single-vertex move can raise the cut, so no descent follows
    final = list(best_assign)
    bm = _block_masks(final, ell)
    _fill_empty_blocks(adj, final, bm)
    cut = _cut_value(adj, final, bm, nedges)
    assert cut >= best_cut
    return final, cut


def max_ell_cut(
    g: Hypergraph,
    ell: int,
    mode: str = "exact",
    seed: int = 0,
) -> tuple[Partition, int]:
    """Best ell-way cut of a graph: exact branch and bound, or local search.

    Local mode guarantees a vertex-move-optimal partition: for every vertex
    the internal degree is at most its degree into any other block.  Both
    modes keep one vertex mask per block beside the assignment: bm[k] is
    always the set of v with assign[v] == k, so a vertex's degree into block
    k is one popcount, (adj[v] & bm[k]).bit_count().
    """
    if g.r != 2:
        raise ValueError("max_ell_cut expects a graph (r = 2)")
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if mode not in ("exact", "local"):
        raise ValueError(f"unknown mode {mode!r}")
    adj = g.adjacency
    if mode == "exact":
        if g.n > EXACT_CUT_CEILING:
            raise ValueError(f"exact mode supports n <= {EXACT_CUT_CEILING}, got {g.n}")
        assign, cut = _exact_cut(adj, g.n, ell, g.size, seed)
    else:
        assign, cut = _local_cut(adj, g.n, ell, g.size, seed)
    blocks: list[list[int]] = [[] for _ in range(ell)]
    for v0, b in enumerate(assign):
        blocks[b].append(v0 + 1)
    part = Partition(g.n, tuple(tuple(b) for b in blocks))
    return part, cut


def vertex_move_optimal(g: Hypergraph, part: Partition) -> bool:
    """Every vertex's internal degree is <= its degree into each other block."""
    adj = g.adjacency
    idx = part.block_index()
    masks = part.block_masks()
    for v, av in enumerate(adj):
        own = (av & masks[idx[v]]).bit_count()
        if any((av & m).bit_count() < own for m in masks):
            return False
    return True
