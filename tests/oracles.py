"""Definitional oracles the fast paths are compared against.

Each function here computes a quantity straight from its definition: vertex
links and shadow neighbourhoods from the edge list, subgraph containment by
backtracking, isomorphism by comparing canonical codes, the edge invariants
of a whole graph, the minimal pair covers by exhaustive cover search, the
text format line by line and the `Hypergraph` checks edge by edge.  The
program itself never calls them; the tests use them as the reference that
the incidence index, the auxiliary-graph shortcut, the search and its
early-exit invariant filter, the cuts, the streaming parser, the bulk
constructor checks and the per-block bad-edge pass must agree with.
The index's bulk build is checked against per-incidence builders that
visit each u in N(T) one bit at a time, and its one cancellativity test, an
AND of two link masks per shadow pair, against the per-vertex partner rule
and the per-T witness scan it replaced.
The search's cancellative state, which flips per-vertex link bits, is
checked against the co-link counting state it replaced, and its k-free
state, one clique test per subset of the new edge, against the state with
separate paths for graphs and for r >= 3 that it replaced.  The k-free
state's packing bound (`KFreeState.lost`) is checked against the fewest
addable edges a K_{ell+1}-free completion must leave out, found by trying
every completion.  The near-bipartite generator, which keeps 0-based vertex
bits, is checked against the label-based generator it replaced.
"""

import itertools
import math
import random
from collections import Counter

from turanlab.canonical import canonical_code
from turanlab.hypergraph import Hypergraph, PairCover, has_clique, iter_bits, mask_of, vertices_of


def link_sets(h):
    """links[v-1] = set of (r-1)-set masks A with A + {v} an edge.

    The pair link L(u, v) is links[u-1] & links[v-1], so L(u, u) = L({u}).
    """
    links = [set() for _ in range(h.n)]
    for e in h.edges:
        for v in vertices_of(e):
            links[v - 1].add(e ^ (1 << (v - 1)))
    return links


def adjacency_by_iter_bits(h):
    """`Hypergraph.adjacency` in its earlier form: one `iter_bits` generator per edge."""
    adj = [0] * h.n
    for e in h.edges:
        for b in iter_bits(e):
            adj[b] |= e
    return tuple(m & ~(1 << b) for b, m in enumerate(adj))


def shadow_neighborhoods(h):
    """Shadow mask T -> sorted 1-based labels of N(T) = {v : T + {v} an edge}."""
    out = {}
    for e in h.edges:
        for v in vertices_of(e):
            out.setdefault(e ^ (1 << (v - 1)), []).append(v)
    return {t: sorted(vs) for t, vs in out.items()}


def _degrees(h):
    return [sum(e >> b & 1 for e in h.edges) for b in range(h.n)]


def is_subgraph(f, h):
    """True iff some injective vertex map sends every edge of F onto an edge of H.

    Backtracking over F's vertices in decreasing-degree order, pruning
    candidates whose H-degree is below the F-degree.
    """
    if f.r != h.r:
        raise ValueError(f"uniformity mismatch: {f.r} vs {h.r}")
    if not f.edges:
        return True
    fdeg, hdeg = _degrees(f), _degrees(h)
    active = [v for v in range(1, f.n + 1) if fdeg[v - 1]]
    if len(active) > h.n:
        return False
    order = sorted(active, key=lambda v: -fdeg[v - 1])
    pos = {v: k for k, v in enumerate(order)}
    # F-edges become checkable once their last vertex (in `order`) is mapped
    edges_by_last = [[] for _ in order]
    for e in f.edges:
        edges_by_last[max(pos[v] for v in vertices_of(e))].append(vertices_of(e))
    h_edges = set(h.edges)
    mapping = {}
    used = [False] * (h.n + 1)

    def place(k):
        if k == len(order):
            return True
        v = order[k]
        for img in range(1, h.n + 1):
            if used[img] or hdeg[img - 1] < fdeg[v - 1]:
                continue
            mapping[v] = img
            used[img] = True
            if all(mask_of(mapping[x] for x in fe) in h_edges for fe in edges_by_last[k]) and place(k + 1):
                return True
            used[img] = False
            del mapping[v]
        return False

    return place(0)


def are_isomorphic(a, b):
    return (a.n, a.r, canonical_code(a.n, a.edges)) == (b.n, b.r, canonical_code(b.n, b.edges))


def edge_invariants(n, edges):
    """Per edge f, sorted (deg(b), nd(b)) over the vertices b of f, for the
    whole edge list: what the search's canonical-parent filter compares.

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


def permute_hypergraph(h, perm):
    """Relabel with perm[v-1] = new label of vertex v (a bijection on 1..n)."""
    if sorted(perm) != list(range(1, h.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return Hypergraph(h.n, h.r, tuple(mask_of(perm[b] for b in iter_bits(e)) for e in h.edges))


def uniqueness_check(record, target):
    """True iff the search found exactly one extremal class, isomorphic to target."""
    if not record.complete:
        raise ValueError("uniqueness_check requires a complete search record")
    return record.extremal_classes == 1 and not record.cap_hit and are_isomorphic(record.witnesses[0], target)


def crossing_count(g, part):
    """Edges of a graph with endpoints in two different blocks."""
    idx = part.block_index()
    return sum(idx[(e & -e).bit_length() - 1] != idx[e.bit_length() - 1] for e in g.edges)


def k_family(r, ell, max_vertices=None):
    """Minimal r-graphs covering every pair of some (ell+1)-set, up to isomorphism.

    Any member of the pair-cover family with at most C(ell+1, 2) edges
    contains one of these minimal covers as a subgraph, so subgraph tests
    against this tuple decide freeness; that is all the cross-validation
    of the auxiliary-graph shortcut needs.  Guarded to small (r, ell)
    because members are found by exhaustive cover search.  Members come
    out in canonical code order.  ell < r is allowed here (a single
    r-edge can cover a small set's pairs on its own).

    max_vertices truncates the family to members on at most that many
    vertices, which is sound for freeness tests on hosts of that size and
    keeps the bigger (r, ell) enumerations tractable.
    """
    if r < 2 or ell < 2:
        raise ValueError(f"need r >= 2 and ell >= 2, got r = {r}, ell = {ell}")
    if ell > 4 or r > 4:
        raise ValueError("k_family enumeration is guarded to ell <= 4, r <= 4")
    s = ell + 1
    pairs = list(itertools.combinations(range(1, s + 1), 2))
    pair_masks = [mask_of(p) for p in pairs]
    all_covered = (1 << len(pairs)) - 1
    fresh_cap = (r - 2) * len(pairs)
    if max_vertices is not None:
        fresh_cap = min(fresh_cap, max(0, max_vertices - s))

    found = {}
    seen_states = set()

    def rec(edges, covered, fresh_used):
        if covered == all_covered:
            g = _embed_on_own_support(tuple(sorted(edges)), r)
            found.setdefault((g.n, canonical_code(g.n, g.edges)), g)
            return
        if len(edges) >= len(pairs):
            return
        state = (frozenset(edges), covered)
        if state in seen_states:
            return
        seen_states.add(state)
        idx = next(i for i in range(len(pairs)) if not covered & (1 << i))
        pair = pairs[idx]
        # extras come from the (ell+1)-set or fresh labels introduced in order
        others = [v for v in range(1, s + 1) if v not in pair]
        allowed_fresh = min(fresh_used + (r - 2), fresh_cap)
        pool = others + list(range(s + 1, s + 1 + allowed_fresh))
        for extra in itertools.combinations(pool, r - 2):
            new = sorted(v for v in extra if v > s + fresh_used)
            if new != list(range(s + 1 + fresh_used, s + 1 + fresh_used + len(new))):
                continue  # fresh labels must appear consecutively
            e = mask_of(pair + extra)
            if e in edges:
                continue
            gained = covered
            for i, pm in enumerate(pair_masks):
                if not gained & (1 << i) and pm & e == pm:
                    gained |= 1 << i
            edges.append(e)
            rec(edges, gained, fresh_used + len(new))
            edges.pop()

    rec([], 0, 0)

    minimal = []
    for key in sorted(found, key=lambda k: (len(found[k].edges), k)):
        g = found[key]
        if any(is_subgraph(kept, g) for _, kept in minimal):
            continue
        minimal.append((key, g))
    return tuple(g for _, g in sorted(minimal))


def _embed_on_own_support(edges, r):
    """Relabel an edge-mask tuple onto 1..|support| and wrap as a Hypergraph."""
    used = 0
    for e in edges:
        used |= e
    relabel = {old: new for new, old in enumerate(iter_bits(used))}
    out = [sum(1 << relabel[b] for b in iter_bits(e)) for e in edges]
    return Hypergraph(used.bit_count(), r, tuple(sorted(out)))


def columns_by_bit(ix):
    """col[u] = the mask of shadow indices i with u in N(ts[i]), one incidence at a time."""
    col = [0] * ix.n
    for i, m in enumerate(ix.nbr):
        for u in iter_bits(m):
            col[u] |= 1 << i
    return col


def partners_by_bit(ix):
    """partners[u] = the union of N(T) over the T with u in N(T), one incidence at a time."""
    partners = [0] * ix.n
    for m in ix.nbr:
        for u in iter_bits(m):
            partners[u] |= m
    return partners


def partner_covered_by_bit(ix):
    """The per-vertex rule: some x has a pair-cover neighbour among its
    partners, so an edge meets some N(T) in two vertices (not cancellative)."""
    return any(a & p for a, p in zip(ix.adj, partners_by_bit(ix)))


def first_witness_by_scan(ix):
    """The first violating (A, B, C) found by scanning the shadow pairs T in
    index order, each N(T) for the first x < y with {x, y} covered, and for
    C the lowest edge covering {x, y}; None if cancellative."""
    for t, m in zip(ix.ts, ix.nbr):
        for x in iter_bits(m):
            hit = ix.adj[x] & m & ~((2 << x) - 1)
            if hit:
                y = hit & -hit
                w = ix.nbrs[x * ix.n + y.bit_length() - 1]
                c = (1 << x) | y | (w & -w)
                return (vertices_of(t | (1 << x)), vertices_of(t | y), vertices_of(c))
    return None


def neighborhoods_independent_by_pair(ix):
    """No x in any N(T) has a pair-cover neighbor in N(T), tested per (T, x)."""
    return not any(ix.adj[x] & m for m in ix.nbr for x in iter_bits(m))


def mantel_caps_by_incidence(ix):
    """4|L(u)| <= (n - d(T))^2 for every T and u in N(T), tested per (T, u)."""
    return all(4 * ix.col[u].bit_count() <= (ix.n - m.bit_count()) ** 2 for m in ix.nbr for u in iter_bits(m))


def colink_masses(h):
    """The sum of |L(u, v)| over (u, v) in N(T)^2 for each shadow pair T, in
    ascending mask order, with each pair link intersected from the vertex links."""
    links, sh = link_sets(h), shadow_neighborhoods(h)
    return [sum(len(links[u - 1] & links[v - 1]) for u in sh[t] for v in sh[t]) for t in sorted(sh)]


def hypergraph_fault(n, r, edges):
    """The message `Hypergraph(n, r, edges)` raises, or None if it accepts.

    The first failing check wins: n, then r, then each edge in the given
    order against its sign, the range 1..n, the size r and the edges before it.
    """
    if n < 0:
        return f"vertex count must be >= 0, got {n}"
    if r < 2:
        return f"uniformity must be >= 2, got {r}"
    full = (1 << n) - 1
    seen = set()
    for e in edges:
        if e < 0:
            return f"edge mask {e} is negative"
        if e & ~full:
            return f"edge {vertices_of(e)} uses labels above n={n}"
        if e.bit_count() != r:
            return f"edge {vertices_of(e)} has {e.bit_count()} vertices, expected r={r}"
        if e in seen:
            return f"duplicate edge {vertices_of(e)}"
        seen.add(e)
    return None


def parse_hypergraph_by_line(text):
    """The text format read one line at a time, every check on every line."""
    header = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'n r'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: header must be two integers") from None
            continue
        n, r = header
        try:
            labels = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: edge labels must be integers") from None
        if len(labels) != r:
            raise ValueError(f"line {lineno}: expected {r} labels, got {len(labels)}")
        if len(set(labels)) != r:
            raise ValueError(f"line {lineno}: repeated vertex in edge")
        if any(v < 1 or v > n for v in labels):
            raise ValueError(f"line {lineno}: label out of range 1..{n}")
        m = mask_of(labels)
        if m in seen:
            raise ValueError(f"line {lineno}: duplicate edge {sorted(labels)}")
        seen.add(m)
        edges.append(m)
    if header is None:
        raise ValueError("missing 'n r' header line")
    return Hypergraph(header[0], header[1], tuple(edges))


def bad_edges_by_edge(h, part):
    """Edges with at least two vertices in one block, tested edge by edge."""
    masks = [mask_of(blk) for blk in part.blocks]
    out = []
    for e in h.edges:
        if any((e & bm).bit_count() >= 2 for bm in masks):
            out.append(e)
    return out


def random_triangle_free_near_bipartite_by_label(n, epsilon, noise, seed):
    """The near-bipartite generator on 1-based labels, with an (n+1)-slot
    adjacency and separate has/add/delete helpers; same draws, same output."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    target = round((0.25 - epsilon) * n * n)
    left = list(range(1, (n + 1) // 2 + 1))
    right = list(range(len(left) + 1, n + 1))
    if target > len(left) * len(right):
        raise ValueError(f"target edge count {target} exceeds the bipartite maximum {len(left) * len(right)}")
    if target < 0:
        raise ValueError("epsilon is too large: negative target edge count")
    rng = random.Random(seed)
    adj = [0] * (n + 1)

    def has_edge(u, v):
        return bool(adj[u] & (1 << (v - 1)))

    def add_edge(u, v):
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)

    def del_edge(u, v):
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
        if edge_count - common.bit_count() + 1 < target:
            continue
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

    edges = [mask_of((v, b + 1)) for v in range(1, n + 1) for b in iter_bits(adj[v]) if b + 1 > v]
    return Hypergraph(n, 2, tuple(edges))


class CancellativeStateByColink(PairCover):
    """Incrementally maintained cancellativity of a growing/shrinking 3-graph.

    Beside the pair-cover graph of `PairCover`, tracks for the current edge set:
      nbrs[T]      -- N(T) as a vertex mask, for T in the shadow (0 once T
                      has left it)
      colink[P]    -- number of shadow pairs T with both ends of P in N(T)

    A triple E is addable iff no pair of E is co-neighbored (would become
    A (+) B inside E) and, for every pair T of E with new vertex w, no
    existing x in N(T) has the pair {w, x} covered (would give
    E (+) (T+{x}) inside a covering edge), that is adj[w] & N(T) == 0.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.colink: Counter = Counter()
        self.nbrs: dict[int, int] = {}

    def addable(self, e: int) -> bool:
        x = e & -e
        y = (e ^ x) & -(e ^ x)
        z = e ^ x ^ y
        if self.colink.get(y | z) or self.colink.get(x | z) or self.colink.get(x | y):
            return False
        adj, nbrs = self.adj, self.nbrs
        return not (
            adj[x.bit_length() - 1] & nbrs.get(y | z, 0)
            or adj[y.bit_length() - 1] & nbrs.get(x | z, 0)
            or adj[z.bit_length() - 1] & nbrs.get(x | y, 0)
        )

    def add(self, e: int) -> None:
        super().add(e)
        for w in iter_bits(e):
            t = e ^ (1 << w)
            cur = self.nbrs.get(t, 0)
            for b in iter_bits(cur):
                self.colink[(1 << w) | (1 << b)] += 1
            self.nbrs[t] = cur | 1 << w

    def remove(self, e: int) -> None:
        super().remove(e)
        for w in iter_bits(e):
            t = e ^ (1 << w)
            cur = self.nbrs[t] ^ 1 << w
            self.nbrs[t] = cur
            for b in iter_bits(cur):
                self.colink[(1 << w) | (1 << b)] -= 1


class KFreeStateByNewPairs(PairCover):
    """The pair-cover graph of r-edges stays K_{ell+1}-free, ell >= r.

    For a graph, e = {i, j} is addable iff the common neighbours of i and j
    hold no K_{ell-1} (none at all for ell = 2).  For r >= 3, e is addable
    iff no pair {i, j} of e that cur leaves uncovered has ell - 1 common
    neighbours forming a clique in a copy of the adjacency with e's pairs
    added.
    """

    def __init__(self, n: int, r: int, ell: int) -> None:
        if ell < r:
            raise ValueError(f"need ell >= r, got ell = {ell}, r = {r}")
        super().__init__(n)
        self.r = r
        self.ell = ell

    def addable(self, e: int) -> bool:
        adj = self.adj
        if self.r == 2:
            lo = e & -e
            common = adj[lo.bit_length() - 1] & adj[(e ^ lo).bit_length() - 1]
            if self.ell == 2:
                return common == 0
            return not has_clique(adj, common, self.ell - 1)
        new = [(i, j) for i, j in itertools.combinations(iter_bits(e), 2) if not adj[i] >> j & 1]
        if not new:
            return True
        adj2 = list(adj)
        for b in iter_bits(e):
            adj2[b] |= e ^ (1 << b)
        return not any(has_clique(adj2, adj2[i] & adj2[j], self.ell - 1) for i, j in new)


def fewest_left_out(n, ell, cur, addable):
    """The fewest edges of addable that a K_{ell+1}-free graph F with
    cur <= F <= cur + addable leaves out, trying the drop sets by size."""
    for k in range(len(addable) + 1):
        for drop in itertools.combinations(addable, k):
            adj = [0] * n
            for e in cur + [f for f in addable if f not in drop]:
                for b in iter_bits(e):
                    adj[b] |= e ^ (1 << b)
            if not has_clique(adj, (1 << n) - 1, ell + 1):
                return k
    raise AssertionError("cur itself holds a K_{ell+1}")
