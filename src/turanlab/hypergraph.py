"""Core uniform-hypergraph representation, graph cliques and the text format.

Vertices are the labels 1..n.  Edges are stored as integer bitmasks
(bit v-1 set iff vertex v lies in the edge), which gives O(1)
subset/superset tests in the search-heavy modules; Python integers make
the same encoding work for any n.

A Hypergraph with r = 2 is an ordinary graph, and the graph-specific
helpers (clique counting, the auxiliary graph) live here as well because
the auxiliary-graph reductions keep crossing between the two worlds.  The
pair-cover (auxiliary) graph comes in two forms, both vertex masks: the
static `Hypergraph.adjacency`, derived once per instance and read by every
graph helper here, and the incremental `PairCover`, which counts the current
edges over each pair {j, k}, j < k, at slot j*n + k; `KFreeState` builds on
it, and the 3-graph index and cancellative state keep N(T) at the same slots.

The constructor checks all edges from one sort, and `parse_hypergraph`
reads the text in one pass that keeps no list of lines or rows; both walk
their inputs one item at a time only to phrase an error.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


def mask_of(vertices: Iterable[int], n: Optional[int] = None) -> int:
    """Bitmask of a set of 1-based vertex labels; a label below 1 is a
    ValueError naming it and the range 1..n (n as given, else "n")."""
    m = 0
    v = 1
    try:
        for v in vertices:
            m |= 1 << (v - 1)
    except ValueError:
        if v >= 1:
            raise
        raise ValueError(f"label {v} out of range 1..{'n' if n is None else n}") from None
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a nonnegative bitmask, one step per set bit."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit *indices* (0-based) of a nonnegative mask, ascending."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
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
        # one sort decides every edge at once: in range iff the ends are,
        # distinct iff strictly ascending
        edges = sorted(self.edges)
        if edges and not (
            edges[0] >= 0
            and not edges[-1] >> self.n
            and set(map(int.bit_count, edges)) == {self.r}
            and all(map(operator.lt, edges, itertools.islice(edges, 1, None)))
        ):
            raise ValueError(_edge_fault(self.n, self.r, self.edges))
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, r, tuple(mask_of(e, n) for e in edges))

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


def _edge_fault(n: int, r: int, edges: Iterable[int]) -> str:
    """Why the first faulty edge, in the given order, is rejected: a
    negative mask, a label above n, a size other than r, or a repeat."""
    seen = set()
    for e in edges:
        if e < 0:
            return f"edge mask {e} is negative"
        if e >> n:
            return f"edge {vertices_of(e)} uses labels above n={n}"
        if e.bit_count() != r:
            return f"edge {vertices_of(e)} has {e.bit_count()} vertices, expected r={r}"
        if e in seen:
            return f"duplicate edge {vertices_of(e)}"
        seen.add(e)
    raise AssertionError("no faulty edge")


class PairCover:
    """The pair-cover graph of a changing edge set, updated one edge at a time.

    adj holds the masks `Hypergraph.adjacency` gives for the current edges, and
    cov[j*n + k] the number of them over the pair {j, k}, j < k; remove clears
    a pair's bits only when its count reaches 0.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj = [0] * n
        self.cov = [0] * (n * n)

    def add(self, e: int) -> None:
        adj, cov, n = self.adj, self.cov, self.n
        # each pair once, as its low bit lo and a higher bit hi of e
        while e:
            lo = e & -e
            e ^= lo
            j = lo.bit_length() - 1
            rest = e
            while rest:
                hi = rest & -rest
                rest ^= hi
                k = hi.bit_length() - 1
                cov[j * n + k] += 1
                adj[j] |= hi
                adj[k] |= lo

    def remove(self, e: int) -> None:
        adj, cov, n = self.adj, self.cov, self.n
        while e:
            lo = e & -e
            e ^= lo
            j = lo.bit_length() - 1
            rest = e
            while rest:
                hi = rest & -rest
                rest ^= hi
                k = hi.bit_length() - 1
                s = j * n + k
                cov[s] -= 1
                if not cov[s]:
                    adj[j] ^= hi
                    adj[k] ^= lo


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
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        if size == 1:
            yield low
            continue
        for rest in iter_cliques(adj, cand & adj[low.bit_length() - 1], size - 1):
            yield low | rest


def has_clique(adj: Sequence[int], cand: int, size: int) -> bool:
    """Whether some size-clique lies inside the vertex mask cand.

    The recursion of `iter_cliques`, returning at the first clique it finds
    with no generator frames; the empty clique makes size 0 always true.
    """
    if size < 2:
        return size == 0 or (size == 1 and cand != 0)
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        if has_clique(adj, cand & adj[low.bit_length() - 1], size - 1):
            return True
    return False


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
    return has_clique(g.adjacency, (1 << g.n) - 1, q)


# ---------------------------------------------------------------------------
# Shared text format:  '#' comment lines, a header line "n r", then one
# edge per line as r space-separated 1-based labels.

_WINDOW = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), split one window of about _WINDOW characters at
    a time.  Each window ends just after a newline, which ends a line
    whatever precedes it, so the windows split into the same lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _WINDOW) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _content(raw: str) -> list[str]:
    """The fields of a line once its '#' comment is cut off."""
    return raw.split("#", 1)[0].split()


def _edge_line(parts: list[str], lineno: int, n: int, r: int, bits: dict[str, int]) -> int:
    """The mask of one edge line's fields, checked label by label; records
    each label's text in bits."""
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
    for p, v in zip(parts, labels):
        bits[p] = 1 << (v - 1)
    return mask_of(labels)


def _raise_first_duplicate(text: str, edges: list[int]) -> None:
    """Raise the parse error for the first edge line that repeats an earlier
    one, if any; edges holds the masks of the edge lines read so far."""
    seen: set[int] = set()
    for index, e in enumerate(edges):
        if e in seen:
            break
        seen.add(e)
    else:
        return
    # the header is the first line with content, edge line i the (i + 2)-th
    content = (k for k, raw in enumerate(_lines(text), start=1) if _content(raw))
    lineno = next(itertools.islice(content, index + 1, None))
    raise ValueError(f"line {lineno}: duplicate edge {list(vertices_of(e))}")


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the shared text format.  Duplicate edges are a parse error.

    One pass over the lines.  A line whose fields are r label texts met
    before, naming r distinct vertices, costs a split, a length test and r
    table lookups; any other line (the first use of a label, a comment, a
    blank line, a fault) is checked label by label.  Duplicates are found
    by the constructor's sort.  Errors name the first faulty line.
    """
    lines = enumerate(_lines(text), start=1)
    for lineno, raw in lines:
        parts = _content(raw)
        if parts:
            break
    else:
        raise ValueError("missing 'n r' header line")
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: header must be 'n r'")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {lineno}: header must be two integers") from None
    # bits[label text] = the vertex bit of every label read so far
    bits: dict[str, int] = {}
    get = bits.get
    width = r if r > 0 else -1  # no fast line can be blank
    edges: list[int] = []
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) == width:
            m = 0
            for p in parts:
                m += get(p, 0)
            # an unknown label adds nothing and a repeated bit carries, so
            # the sum has r bits iff the labels are r known distinct vertices
            if m.bit_count() == r:
                edges.append(m)
                continue
        parts = _content(raw)
        if not parts:
            continue
        try:
            edges.append(_edge_line(parts, lineno, n, r, bits))
        except ValueError:
            _raise_first_duplicate(text, edges)
            raise
    try:
        return Hypergraph(n, r, tuple(edges))
    except ValueError:
        _raise_first_duplicate(text, edges)
        raise


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
