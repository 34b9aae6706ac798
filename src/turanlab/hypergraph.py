"""Core uniform-hypergraph representation, graph cliques and the text format.

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


def all_r_subsets(n: int, r: int) -> list[int]:
    """Masks of every r-subset of [n], in colex order (= ascending masks)."""
    return sorted(mask_of(c) for c in itertools.combinations(range(1, n + 1), r))


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
