"""Definitional oracles the fast paths are compared against.

Each function here computes a quantity straight from its definition: vertex
links and shadow neighbourhoods from the edge list, subgraph containment by
backtracking, isomorphism by comparing canonical codes, the minimal pair
covers by exhaustive cover search.  The program itself never calls them;
the tests use them as the reference that the incidence index, the
auxiliary-graph shortcut, the search and the cuts must agree with.
"""

import itertools

from turanlab.canonical import canonical_code
from turanlab.hypergraph import Hypergraph, iter_bits, mask_of, vertices_of


def link_sets(h):
    """links[v-1] = set of (r-1)-set masks A with A + {v} an edge.

    The pair link L(u, v) is links[u-1] & links[v-1], so L(u, u) = L({u}).
    """
    links = [set() for _ in range(h.n)]
    for e in h.edges:
        for v in vertices_of(e):
            links[v - 1].add(e ^ (1 << (v - 1)))
    return links


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
