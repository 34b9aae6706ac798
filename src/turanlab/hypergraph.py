"""Core uniform-hypergraph representation and neighborhood machinery.

Vertices are the labels 1..n.  Edges are stored as integer bitmasks
(bit v-1 set iff vertex v lies in the edge), which gives O(1)
subset/superset tests in the search-heavy modules; Python integers make
the same encoding work for any n.

A Hypergraph with r = 2 is an ordinary graph, and the graph-specific
helpers (clique counting, the auxiliary graph) live here as well because
the auxiliary-graph reductions keep crossing between the two worlds.  Every
one of them reads `Hypergraph.adjacency`, derived once per instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit *indices* (0-based) of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertex set {1, ..., n}.

    edges holds one bitmask per edge, sorted ascending, no duplicates.
    Instances are immutable and safe to share across threads; the one cache,
    `adjacency`, is filled on first read and depends only on the edges.
    """

    n: int
    r: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        full = (1 << self.n) - 1
        seen = set()
        for e in self.edges:
            if e & ~full:
                raise ValueError(f"edge {vertices_of(e)} uses labels above n={self.n}")
            if e.bit_count() != self.r:
                raise ValueError(
                    f"edge {vertices_of(e)} has {e.bit_count()} vertices, expected r={self.r}"
                )
            if e in seen:
                raise ValueError(f"duplicate edge {vertices_of(e)}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, r, tuple(mask_of(e) for e in edges))

    @property
    def size(self) -> int:
        """Number of edges, |H|."""
        return len(self.edges)

    def edge_sets(self) -> list[frozenset[int]]:
        return [frozenset(vertices_of(e)) for e in self.edges]

    def edge_set(self) -> frozenset[int]:
        """Edges as a frozenset of masks, for O(1) membership tests."""
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """adjacency[b] = mask of the vertices sharing an edge with vertex bit b.

        For r = 2 this is the graph's adjacency, for r >= 3 that of the
        pair-cover (auxiliary) graph.  Built in one pass over the edges.
        """
        adj = [0] * self.n
        for e in self.edges:
            for b in iter_bits(e):
                adj[b] |= e
        return tuple(m & ~(1 << b) for b, m in enumerate(adj))

    def vertex_degrees(self) -> list[int]:
        """deg[v-1] = number of edges containing vertex v."""
        deg = [0] * self.n
        for e in self.edges:
            for b in iter_bits(e):
                deg[b] += 1
        return deg


def all_r_subsets(n: int, r: int) -> list[int]:
    """Masks of every r-subset of [n], in colex order (= ascending masks)."""
    return sorted(mask_of(c) for c in itertools.combinations(range(1, n + 1), r))


def shadow(h: Hypergraph) -> frozenset[int]:
    """All (r-1)-sets contained in some edge, as masks."""
    out = set()
    for e in h.edges:
        for b in iter_bits(e):
            out.add(e ^ (1 << b))
    return frozenset(out)


def link(h: Hypergraph, s: Iterable[int]) -> frozenset[int]:
    """Link L(S): shadow elements A with A + {x} an edge for every x in S.

    S is given by 1-based labels; repeated labels collapse, so the
    ordered-pair convention L(u, u) = L({u}) falls out of set semantics.
    """
    smask = mask_of(s)
    if smask == 0:
        raise ValueError("link requires a nonempty vertex set")
    edge_set = h.edge_set()
    out = set()
    for a in shadow(h):
        if all((a | (1 << b)) in edge_set for b in iter_bits(smask)):
            out.add(a)
    return frozenset(out)


def link_pair(h: Hypergraph, u: int, v: int) -> frozenset[int]:
    """L(u, v) with the L(u, u) = L({u}) convention."""
    return link(h, (u, v))


def neighborhood(h: Hypergraph, t: Iterable[int]) -> frozenset[int]:
    """N(T) = {v : T + {v} in H} for an (r-1)-set T, as 1-based labels."""
    tmask = mask_of(t)
    if tmask.bit_count() != h.r - 1:
        raise ValueError(
            f"neighborhood requires |T| = r-1 = {h.r - 1}, got {tmask.bit_count()}"
        )
    out = []
    for e in h.edges:
        if e & tmask == tmask:
            out.append((e ^ tmask).bit_length())  # single remaining bit
    return frozenset(out)


def degree(h: Hypergraph, t: Iterable[int]) -> int:
    """d(T) = |N(T)|."""
    return len(neighborhood(h, t))


def auxiliary_graph(h: Hypergraph) -> Hypergraph:
    """The graph on [n] whose edges are the pairs covered by some edge of H."""
    # each pair once, from its upper end c: the masks come out ascending
    pairs = ((1 << b) | (1 << c) for c, m in enumerate(h.adjacency) for b in iter_bits(m & ((1 << c) - 1)))
    return Hypergraph(h.n, 2, tuple(pairs))


def iter_cliques(adj: Sequence[int], cand: int, size: int) -> Iterator[int]:
    """Every size-clique inside the vertex mask cand, as a vertex mask.

    adj[b] is the neighbour mask of vertex bit b (see Hypergraph.adjacency).
    Cliques come in lexicographic order of their sorted vertices, and the
    one clique of size 0 is the empty mask.  Each vertex taken narrows the
    candidates to its neighbours above it; a branch stops once fewer
    candidates remain than vertices are still needed.
    """
    if size == 0:
        yield 0
        return
    if cand.bit_count() < size:
        return
    while cand:
        low = cand & -cand
        cand ^= low
        if size == 1:
            yield low
            continue
        for rest in iter_cliques(adj, cand & adj[low.bit_length() - 1], size - 1):
            yield low | rest


def count_cliques(g: Hypergraph, i: int) -> int:
    """Exact number of i-cliques of a graph.

    k_1 counts every vertex, isolated ones included; k_2 = |E|.  No
    sampling anywhere, the inequality certificates need exact values.
    """
    if g.r != 2:
        raise ValueError("clique counting expects a graph (r = 2)")
    if i < 1:
        raise ValueError(f"clique size must be >= 1, got {i}")
    return sum(1 for _ in iter_cliques(g.adjacency, (1 << g.n) - 1, i))


def contains_clique(g: Hypergraph, q: int) -> bool:
    """True iff the graph has at least one q-clique (early exit)."""
    if g.r != 2:
        raise ValueError("clique search expects a graph (r = 2)")
    if q < 1:
        raise ValueError(f"clique size must be >= 1, got {q}")
    return next(iter_cliques(g.adjacency, (1 << g.n) - 1, q), None) is not None


def is_subgraph(f: Hypergraph, h: Hypergraph) -> bool:
    """True iff some injective vertex map sends every edge of F into an edge of H.

    Backtracking over F's vertices in decreasing-degree order, pruning
    candidates whose H-degree is below the F-degree.
    """
    if f.r != h.r:
        raise ValueError(f"uniformity mismatch: {f.r} vs {h.r}")
    active = [v for v, d in enumerate(f.vertex_degrees(), start=1) if d > 0]
    if not f.edges:
        return True
    if len(active) > h.n:
        return False
    fdeg = f.vertex_degrees()
    hdeg = h.vertex_degrees()
    order = sorted(active, key=lambda v: -fdeg[v - 1])
    pos = {v: k for k, v in enumerate(order)}
    # F-edges become checkable once their last vertex (in `order`) is mapped
    edges_by_last = [[] for _ in order]
    for e in f.edges:
        last = max(pos[v] for v in vertices_of(e))
        edges_by_last[last].append(vertices_of(e))
    h_edge_set = h.edge_set()
    mapping: dict[int, int] = {}
    used = [False] * (h.n + 1)

    def place(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for img in range(1, h.n + 1):
            if used[img] or hdeg[img - 1] < fdeg[v - 1]:
                continue
            mapping[v] = img
            used[img] = True
            ok = True
            for fe in edges_by_last[k]:
                m = mask_of(mapping[x] for x in fe)
                if m not in h_edge_set:
                    ok = False
                    break
            if ok and place(k + 1):
                return True
            used[img] = False
            del mapping[v]
        return False

    return place(0)


# ---------------------------------------------------------------------------
# Shared text format:  '#' comment lines, a header line "n r", then one
# edge per line as r space-separated 1-based labels.


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the shared text format.  Duplicate edges are a parse error."""
    header: Optional[tuple[int, int]] = None
    edges: list[int] = []
    seen: set[int] = set()
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


def format_hypergraph(h: Hypergraph, comment: Optional[str] = None) -> str:
    """Serialize to the shared text format (stable order)."""
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"{h.n} {h.r}")
    for e in h.edges:
        lines.append(" ".join(str(v) for v in vertices_of(e)))
    return "\n".join(lines) + "\n"


def load_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def save_hypergraph(path: str, h: Hypergraph, comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h, comment))
