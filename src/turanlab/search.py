"""Exhaustive extremal-number search and exact/local multiway cuts.

The extremal search grows predicate-satisfying edge sets from the empty
graph one edge at a time.  A branch dies when current-size +
addable-candidates cannot reach the best value found so far (addable-count
is a valid bound because a hereditary predicate's violations are permanent
under further additions).  The bound also subtracts what the predicate
state's `lost(addable, slack)` returns: a lower bound on the addable edges
that every valid completion leaves out.  For graphs, `KFreeState` packs
copies of K_{ell+1} in cur + addable that share no addable edge, each of
which costs a completion one edge; this is the MaxSAT-style bound of Li and
Quan (AAAI 2010) for maximum clique, applied to the forbidden copies.  It is
built only when the slack, current-size + addable-count - best, is below
half the addable count, and stops once it exceeds the slack.  The r >= 3
and cancellative states return 0.  Ties at the optimum survive the strict
prune, so the extremal class count comes out exact.

The walk is one recursive closure, `dfs`.  On entry a node is counted,
checked against the node budget and recorded in the class tally.  A node
with at most `state.tail` addable edges, a size each predicate state
chooses, takes its labeled children: cur + e for each addable e in turn,
keeping only the later edges, far cheaper per node than class work.  Above
that the node works one isomorphism class at a time: one addable edge per
twin orbit, and a child G+e is kept only if e has the largest invariant
among the edges of G+e, the sorted list of its vertices' colours (degree,
and the degree sums of the edges through the vertex).  The filter loses no
class: H is reached from H-e for an edge e of H with the largest
invariant, and H-e satisfies the predicate with a bound at least that of
H.  One rule, `child`, bounds every child in both branches: it re-tests
the candidate edges after the push, drops the child once more of them
have failed than its slack, then asks `lost`.  A child whose slack is
negative before any test ends its parent's loop, as best only rises.

A repeated class is rejected by a direct isomorphism test, not by a
canonical code (McKay's invariant-first isomorph rejection).  The visited
set is keyed by a hash of the child's sorted vertex colours and keeps, per
key, the labeled edge tuple of the first graph of each class seen under it;
a child is expanded iff `_isomorphic` maps it onto none of them.  That test
compares the sorted vertex colours, then backtracks over colour-preserving
vertex maps with the adjacency rule of VF2 (Cordella et al., 2004).
Isomorphic graphs share a key, so the key only decides which graphs are
compared, never what a class is.  The class tally keeps the sorted edge
tuple of each labeled graph with the best edge count so far, in a set
emptied whenever the best count rises; once the walk ends, each graph left
in it gets one canonical code, and the sorted codes are the classes.

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
from math import comb
from dataclasses import dataclass
from typing import Optional, Sequence

from .canonical import _twin_classes, canonical_code
from .checkers import UNBOUNDED_TAIL, _CancellativeState
from .constructions import turan_count
from .hypergraph import Hypergraph, PairCover, all_r_subsets, has_clique, iter_bits, iter_cliques, vertices_of
from .partitions import Partition

# The largest n searched without allow_large: 8 for cancellative, and for
# k-free (triangle-free is r = ell = 2) GUARDS[r][ell - r], the last entry
# standing for every larger ell - r; an r not listed takes the smallest bound
# listed.  Each bound was timed (README): an admitted shape takes at most about
# 30 s, and one vertex more took close to a minute or longer, or stopped
# unfinished at a node budget.  For r >= 3, k-free prunes less as ell grows.
# An ell >= n forbids nothing and takes C(n, r) + 1 nodes, so it passes the
# guard whatever n; MAX_DEPTH still bounds it.
GUARDS = {2: (12, 10), 3: (8, 7, 6), 4: (8, 7, 7, 6), 5: (8, 8, 7), 6: (8,)}

PREDICATES = ("cancellative", "k-free", "triangle-free")
_UNIFORMITY = {"cancellative": 3, "triangle-free": 2}  # "k-free" takes any r

# Bump whenever a change to the search can change what it reports for some
# (predicate, n, r, ell): result-cache entries of another version are misses.
SEARCH_VERSION = 7

NODE_BUDGET = 50_000_000
# The walk recurses once per edge it adds, so a search has at most this many
# candidate r-sets: under Python's default recursion limit of 1000 that leaves
# room for the caller's frames and the clique tests below the deepest node.
MAX_DEPTH = 800
# Extremal classes kept as witnesses, the smallest codes; past this many,
# cap_hit is set.
WITNESS_CAP = 1000


def _colours(n: int, mems: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Per vertex b, (deg(b), nd(b)) for the edges with vertex lists mems.

    deg is the vertex degree and nd(b) sums, over the edges through b, the
    degree sums of those edges.  A relabeling permutes the list with the vertices.
    """
    deg = [0] * n
    for mem in mems:
        for b in mem:
            deg[b] += 1
    nd = [0] * n
    for mem in mems:
        w = 0
        for b in mem:
            w += deg[b]
        for b in mem:
            nd[b] += w
    return list(zip(deg, nd))


def _child_invariants(
    n: int, cur: Sequence[int], e: int, members: dict[int, tuple[int, ...]]
) -> Optional[list[tuple[int, int]]]:
    """The vertex colours of cur + [e], or None if some edge of cur has a
    larger invariant than e.

    The invariant of an edge f is the sorted list of the colours of its
    vertices; a relabeling permutes the list with the edges.  Edges are
    compared in order and the first one that beats e ends the call.
    members[f] is the tuple of vertex bits of f.
    """
    mems = [members[f] for f in cur]
    mems.append(members[e])
    colour = _colours(n, mems)
    top = sorted([colour[b] for b in mems[-1]])
    for mem in mems:
        if sorted([colour[b] for b in mem]) > top:
            return None
    return colour


def _class_key(colour: list[tuple[int, int]]) -> int:
    """Visited-set key of a graph from its vertex colours: equal for
    isomorphic graphs, and a plain int so the visited set holds no key tuples."""
    return hash(tuple(sorted(colour)))


def _isomorphic(
    n: int,
    a: Sequence[int],
    colour_a: list[tuple[int, int]],
    adj_a: Sequence[int],
    b: Sequence[int],
    members: dict[int, tuple[int, ...]],
) -> bool:
    """Whether the r-graphs a and b on [n] are isomorphic; colour_a is
    `_colours` of a and adj_a its pair-cover adjacency, which the search
    already has for a child (the filter's colours and the predicate state).

    A vertex of a may only map to a vertex of b with the same colour.  The
    vertices of a with an edge are placed in one fixed order: most placed
    pair-cover neighbours first, then the smallest colour cell, then the
    lowest label.  A candidate image must be unused and see the used images
    exactly as the vertex sees the placed vertices (the adjacency rule of
    VF2), and each edge of a whose vertices are all placed must map onto an
    edge of b.  Isolated vertices pair up in any order, so they are never
    placed.
    """
    if len(a) != len(b):
        return False
    mems_a = [members[e] for e in a]
    mems_b = [members[e] for e in b]
    colour_b = _colours(n, mems_b)
    if sorted(colour_a) != sorted(colour_b):
        return False
    # adj_b[w] also holds w itself when w has an edge, but a candidate w is
    # never in used, the one mask it meets
    adj_b = [0] * n
    for mem, e in zip(mems_b, b):
        for w in mem:
            adj_b[w] |= e
    cell: dict[tuple[int, int], int] = {}
    for w, c in enumerate(colour_b):
        cell[c] = cell.get(c, 0) | 1 << w

    # level k places order[k]; nbrs[k] are its placed neighbours, cands[k]
    # its colour cell in b, done[k] the edges of a it completes
    order: list[int] = []
    left = [v for v in range(n) if adj_a[v]]
    placed = 0
    while left:
        v = max(left, key=lambda v: ((adj_a[v] & placed).bit_count(), -cell[colour_a[v]].bit_count(), -v))
        left.remove(v)
        order.append(v)
        placed |= 1 << v
    at = {v: k for k, v in enumerate(order)}
    nbrs = [[u for u in iter_bits(adj_a[v]) if at[u] < k] for k, v in enumerate(order)]
    cands = [cell[colour_a[v]] for v in order]
    done: list[list[tuple[int, ...]]] = [[] for _ in order]
    if mems_a and len(mems_a[0]) > 2:  # for graphs the adjacency rule checks every edge
        for mem in mems_a:
            done[max(at[u] for u in mem)].append(mem)
    b_edges = set(b)
    img = [0] * n

    def place(k: int, used: int) -> bool:
        if k == len(order):
            return True
        want = 0
        for u in nbrs[k]:
            want |= img[u]
        v = order[k]
        free = cands[k] & ~used
        while free:
            low = free & -free
            free ^= low
            if adj_b[low.bit_length() - 1] & used != want:
                continue
            img[v] = low
            if all(sum([img[u] for u in mem]) in b_edges for mem in done[k]) and place(k + 1, used | low):
                return True
        return False

    found = place(0, 0)
    del place  # the recursive closure holds itself: break the cycle now
    return found


# ---------------------------------------------------------------------------
# Hereditary predicates with incremental add/remove/addable and the bound
# lost; each state keeps adj, the pair-cover adjacency the repeat test reads
# for the child


class KFreeState(PairCover):
    """The pair-cover graph stays K_{ell+1}-free (ell >= r, see `check_request`).

    A K_{ell+1} of cur + e that cur lacks meets e in some S, |S| >= 2, and its other
    ell + 1 - |S| vertices are a clique of cur among the common neighbours of S off e;
    conversely such a clique and S span a K_{ell+1}.  plan[e] holds each S (as vertex
    bits) with that clique size; as cur is K_{ell+1}-free, e is addable iff no S has one.
    """

    def __init__(self, n: int, r: int, ell: int) -> None:
        super().__init__(n)
        self.plan = {
            e: [(s, ell + 1 - len(s)) for k in range(2, r + 1) for s in itertools.combinations(iter_bits(e), k)]
            for e in all_r_subsets(n, r)
        }
        # for graphs, `lost` packs copies of K_{ell+1}: ends[e] holds the two
        # vertices of e as indices and as bits, and a copy through e is e plus
        # a clique of ell - 1 vertices
        self.ends: Optional[dict[int, tuple[int, int, int, int]]] = None
        if r == 2:
            self.ends = {}
            for e in self.plan:
                a, b = iter_bits(e)
                self.ends[e] = (a, b, 1 << a, 1 << b)
        self.ell = ell
        # A node with at most tail addable edges goes to the labeled branch and
        # bound.  With the packing (r = 2) that search prunes hard, and class
        # branching pays only near the root: a sweep of tails (README) ran
        # fastest at C(n, 2) - 1 for ell >= 3, one class step at the root, and
        # near C(n, 2) - n for triangles.  Without a bound (r >= 3) the tail
        # stays short, unless ell >= n: then nothing is forbidden, the first
        # labeled path reaches the complete r-graph, and every later child
        # fails its bound.
        edges = len(self.plan)
        self.tail = edges - (n if ell == 2 and n > 2 else 1) if r == 2 or ell >= n else UNBOUNDED_TAIL

    def addable(self, e: int) -> bool:
        adj = self.adj
        for s, size in self.plan[e]:
            cand = ~e
            for b in s:
                cand &= adj[b]
            if has_clique(adj, cand, size):
                return False
        return True

    def lost(self, addable: list[int], slack: int) -> int:
        """A lower bound on the edges of addable that every K_{ell+1}-free F with
        cur <= F <= cur + addable leaves out; counting stops once it exceeds slack.

        addable holds edges that are each addable to cur.  For graphs the bound is
        a greedy packing of copies of K_{ell+1} in G = cur + addable that share no
        addable edge, since F misses an edge of each copy.  Each edge {a, b} of
        addable still in G in turn takes the first (ell - 1)-clique of G among the
        common neighbours of a and b; the copy counts, and its addable edges leave
        G while the cur edges stay.  A copy holds at least two addable edges, as cur
        plus any one of them is K_{ell+1}-free, so the packing never exceeds
        len(addable) // 2 and is not built when slack reaches that.  For r >= 3
        the bound is 0.
        """
        ends = self.ends
        if ends is None or slack >= len(addable) // 2:
            return 0
        cur = self.adj
        adj = cur[:]
        for f in addable:
            a, b, lo, hi = ends[f]
            adj[a] |= hi
            adj[b] |= lo
        size = self.ell - 1
        count = 0
        for f in addable:
            a, b, lo, hi = ends[f]
            if not adj[a] & hi:
                continue
            clique = next(iter_cliques(adj, adj[a] & adj[b], size), None)
            if clique is None:
                continue
            count += 1
            if count > slack:
                break
            # the copy's addable edges leave G: keep only the cur pairs inside it
            copy = clique | f
            rest = copy
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                adj[v] &= cur[v] | ~copy
        return count


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


def check_request(n: int, r: int, predicate: str, ell: Optional[int], node_budget: int = NODE_BUDGET) -> None:
    """Raise ValueError unless (n, r, predicate, ell) names a search with a positive
    node budget and at most MAX_DEPTH candidate edges; ell belongs to k-free alone."""
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
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
    if ell is not None and ell < r:
        raise ValueError(f"need ell >= r, got ell = {ell}, r = {r}")
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if comb(n, r) > MAX_DEPTH:
        raise ValueError(f"n = {n}, r = {r} gives {comb(n, r)} candidate edges, above the search depth limit {MAX_DEPTH}")


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
    complete=False, never as a value.  Raises ValueError on a request
    `check_request` rejects or above the feasibility guard.
    """
    check_request(n, r, predicate, ell, node_budget)
    bounds = (8,) if predicate == "cancellative" else GUARDS.get(r, (min(map(min, GUARDS.values())),))
    guard = bounds[min((ell or r) - r, len(bounds) - 1)]
    shape = f"r = {r}" if ell is None else f"r = {r}, ell = {ell}"
    if n > guard and not allow_large and (ell is None or ell < n):
        raise ValueError(f"n = {n} exceeds the feasibility guard {guard} for {shape} (pass allow_large to override)")

    t0 = time.perf_counter()
    if predicate == "cancellative":
        state = _CancellativeState(n)
    else:
        state = KFreeState(n, r, ell if predicate == "k-free" else 2)
    cur: list[int] = []
    members = {e: tuple(iter_bits(e)) for e in all_r_subsets(n, r)}
    # _class_key -> the classes seen under it, each as the labeled edge tuple
    # of its first graph
    visited: dict[int, list[tuple[int, ...]]] = {}
    best = 0
    # the sorted labeled edges of each graph with best edges, coded after the walk
    best_graphs: set[tuple[int, ...]] = {()}
    nodes = 0
    exhausted = False
    addable, lost, add, remove, tail = state.addable, state.lost, state.add, state.remove, state.tail

    def child(cands: list[int], slack: int) -> Optional[list[int]]:
        """The edges of cands addable to cur, or None once the child cur fails
        its bound; slack is len(cur) + len(cands) - best."""
        kept = []
        for f in cands:
            if addable(f):
                kept.append(f)
            else:
                slack -= 1
                if slack < 0:
                    return None
        return kept if lost(kept, slack) <= slack else None

    def dfs(rem: list[int]) -> None:
        """Expand the node cur, whose addable edges are rem; its caller checked its bound."""
        nonlocal nodes, exhausted, best
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        m = len(cur)
        if m >= best:
            if m > best:
                best = m
                best_graphs.clear()
            best_graphs.add(tuple(sorted(cur)))
        if len(rem) <= tail:
            # every labeled extension, in rem order: cur + e keeps the later edges
            for i, e in enumerate(rem):
                slack = m + len(rem) - i - best
                if slack < 0:
                    return
                cur.append(e)
                add(e)
                sub = child(rem[i + 1 :], slack)
                if sub is not None:
                    dfs(sub)
                remove(e)
                cur.pop()
                if exhausted:
                    return
            return
        # one representative extension per twin-orbit of addable edges;
        # products of twin swaps fix the current graph, so orbit-mates
        # produce isomorphic children
        twin = _twin_classes(n, cur)
        reps: dict[tuple[int, ...], tuple[int, int]] = {}
        for i, e in enumerate(rem):
            reps.setdefault(tuple(sorted([twin[b] for b in members[e]])), (i, e))
        for i, e in reps.values():
            slack = m + len(rem) - best
            # canonical-parent filter: keep G+e only if e has the largest
            # invariant in it; G+e is still reached by dropping such an edge
            colour = _child_invariants(n, cur, e, members)
            if colour is None:
                continue
            cur.append(e)
            add(e)
            sub = child(rem[:i] + rem[i + 1 :], slack)
            if sub is not None:
                # a child is new iff it is isomorphic to no class under its key
                seen = visited.setdefault(_class_key(colour), [])
                if not any(_isomorphic(n, cur, colour, state.adj, rep, members) for rep in seen):
                    seen.append(tuple(cur))
                    dfs(sub)
            remove(e)
            cur.pop()
            if exhausted:
                return

    dfs([e for e in members if addable(e)])
    # the recursive closure holds itself, and with it every table of this call,
    # until the next cycle collection; break the cycle now
    del dfs
    codes = set()
    for graph in best_graphs:
        codes.add(canonical_code(n, graph))
    kept = sorted(codes)[:WITNESS_CAP]
    return ExtremalRecord(
        n=n,
        r=r,
        predicate=predicate,
        ell=ell,
        value=best,
        extremal_classes=len(kept),
        witnesses=[Hypergraph(n, r, code) for code in kept],
        nodes_explored=nodes,
        runtime=time.perf_counter() - t0,
        complete=not exhausted,
        cap_hit=len(codes) > WITNESS_CAP,
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
        if 0 in bm:  # else the refill is a no-op and no single move helps
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
    return Partition(g.n, tuple(map(vertices_of, _block_masks(assign, ell)))), cut


def vertex_move_optimal(g: Hypergraph, part: Partition) -> bool:
    """Every vertex's internal degree is <= its degree into each other block."""
    adj = g.adjacency
    idx = part.block_index()
    masks = part.masks
    for v, av in enumerate(adj):
        own = (av & masks[idx[v]]).bit_count()
        if any((av & m).bit_count() < own for m in masks):
            return False
    return True
