"""Structural predicates and inequality certificates for concrete instances.

Certificates never return a bare boolean: they carry every intermediate
quantity so a failed run is inspectable, and every comparison is decided in
exact integer or rational arithmetic so a pass is a pass; the floats in a
report (`lhs_float`, the fractional-power clique `chain`) are for reading
only.  Empty-shadow inputs short-circuit to a vacuous pass flagged in the
report.

Every 3-graph check reads one incidence index (`_Incidence`), built from
the edges: which vertices lie in N(T) for each shadow pair T, and from it
the vertex links and the pair-cover adjacency.  The index refuses an input
with r != 3, so that precondition of every 3-graph check is stated once.
The index fills the input's `Hypergraph.adjacency` if it is not yet read.
After one pass over the edges the index is built in bulk: the vertex links
are the bit-matrix transpose of the N(T) masks, done with bytes
operations, so nothing walks the incidences u in N(T) one at a time, and
a pair link L(u, v) is the AND of two link masks.  A 3-graph is
cancellative, and its neighborhoods are independent, iff no covered pair
{x, y} has L(x) and L(y) meeting: one AND per shadow pair
(`_first_witness`).  A certificate that needs a cancellative input shares
one index with its precondition (`_cancellative_index`): the index is
built once, tested for cancellativity, then read by the certificate.  The
index and the incremental search state both keep N(T) for the pair
{j, k}, j < k, at slot j*n + k.

The pair-link certificate (`mantel_link_bound`) is decided by its
precondition and one cap test.  On a cancellative input the vertex set of
each link L(u) misses N(T) for every T in L(u), and L(u) is triangle-free
(`links_triangle_free`); L(u, v) is a subgraph of L(u), so every triple
(T, u, v) passes the first two tests.  The Mantel cap 4|L(u)| <= (n - d(T))^2
then follows from Mantel's theorem and is checked per vertex.  Nothing
scans the triples (T, u, v).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .hypergraph import Hypergraph, contains_clique, count_cliques, has_clique, has_clique_bound_first, iter_bits, vertices_of


@dataclass
class CertificateReport:
    """Named inequality check with all intermediate quantities.

    holds reflects the named comparison; witness is present iff holds is
    False; vacuous marks empty-shadow short-circuits.
    """

    name: str
    quantities: dict = field(default_factory=dict)
    holds: bool = True
    witness: Optional[object] = None
    vacuous: bool = False

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "quantities": self.quantities,
            "witness": self.witness,
        }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Cancellativity


# The search hands a node with at most `tail` addable edges to its labeled
# branch and bound.  A predicate state with no bound of its own (its lost is
# always 0) takes this many: a longer labeled tail only walks more nodes (README).
UNBOUNDED_TAIL = 16


class _CancellativeState:
    """Incrementally maintained cancellativity of a growing/shrinking 3-graph.

    Tracks for the current edge set, with the pair {j, k} (j < k) at index
    j*n + k:
      link[w]      -- the link of vertex w: bit j*n + k set iff {j, k, w}
                      is an edge
      nbrs[j*n+k]  -- N({j, k}) as a vertex mask
      adj[w]       -- the pair-cover neighbours of w, as `PairCover.adj`: a
                      pair is covered iff its N mask is nonzero

    A triple E is addable iff no pair {a, b} of E is co-neighbored, that is
    link[a] & link[b] == 0 (else E contains A (+) B for edges A, B through a
    common pair T), and, for every pair T of E with new vertex w, no existing
    x in N(T) has the pair {w, x} covered (would give E (+) (T+{x}) inside a
    covering edge), that is adj[w] & N(T) == 0.  An edge toggles one bit in
    each of three links and three neighborhoods, then sets each of its three
    pairs in adj iff that pair's neighborhood is nonempty, so adding and
    removing are the same update.  Bit positions are pair indices, not pair
    masks, so a link has n^2 bits, not 2^n.
    """

    tail = UNBOUNDED_TAIL

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj = [0] * n
        self.link = [0] * n
        self.nbrs = [0] * (n * n)

    def addable(self, e: int) -> bool:
        x = e & -e
        y = (e ^ x) & -(e ^ x)
        i, j, k = x.bit_length() - 1, y.bit_length() - 1, (e ^ x ^ y).bit_length() - 1
        link = self.link
        li, lj, lk = link[i], link[j], link[k]
        if li & lj or li & lk or lj & lk:
            return False
        adj, nbrs, n = self.adj, self.nbrs, self.n
        return not (adj[i] & nbrs[j * n + k] or adj[j] & nbrs[i * n + k] or adj[k] & nbrs[i * n + j])

    def lost(self, addable: list[int], slack: int) -> int:
        """0: a cancellative completion is bounded by the addable count alone."""
        return 0

    def _flip(self, e: int) -> None:
        x = e & -e
        y = (e ^ x) & -(e ^ x)
        z = e ^ x ^ y
        i, j, k = x.bit_length() - 1, y.bit_length() - 1, z.bit_length() - 1
        link, nbrs, adj, n = self.link, self.nbrs, self.adj, self.n
        link[i] ^= 1 << (j * n + k)
        link[j] ^= 1 << (i * n + k)
        link[k] ^= 1 << (i * n + j)
        jk = nbrs[j * n + k] = nbrs[j * n + k] ^ x
        ik = nbrs[i * n + k] = nbrs[i * n + k] ^ y
        ij = nbrs[i * n + j] = nbrs[i * n + j] ^ z
        # a pair of e is covered iff its neighborhood is nonempty
        adj[i] = adj[i] & ~(y | z) | (y if ij else 0) | (z if ik else 0)
        adj[j] = adj[j] & ~(x | z) | (x if ij else 0) | (z if jk else 0)
        adj[k] = adj[k] & ~(x | y) | (x if ik else 0) | (y if jk else 0)

    add = remove = _flip


def _first_witness(ix: _Incidence) -> Optional[tuple]:
    """The first violating (A, B, C) of a 3-graph, read off its index, or None.

    A (+) B inside C needs A = T + x and B = T + y for a shadow pair T, with
    the pair {x, y} covered by C: T lies in L(x) and L(y) for a shadow pair
    {x, y}.  So the OR of col[x] & col[y] over the shadow slots x*n + y
    marks the shadow indices of exactly the violating T, and the 3-graph is
    cancellative iff it is 0.  The witness takes the lowest such T, the
    first x < y in N(T) with y in adj[x], and for C the lowest edge
    covering {x, y}, read off slot x*n + y.
    """
    n, col = ix.n, ix.col
    bad = 0
    for s in ix.nbrs:
        x, y = divmod(s, n)
        bad |= col[x] & col[y]
    if not bad:
        return None
    i = (bad & -bad).bit_length() - 1
    t, m = ix.ts[i], ix.nbr[i]
    for x in iter_bits(m):
        hit = ix.adj[x] & m & ~((2 << x) - 1)
        if hit:
            break
    y = hit & -hit
    w = ix.nbrs[x * n + y.bit_length() - 1]
    c = (1 << x) | y | (w & -w)
    return (vertices_of(t | (1 << x)), vertices_of(t | y), vertices_of(c))


def cancellative_witness(h: Hypergraph) -> Optional[tuple]:
    """A violating (A, B, C) with A (+) B inside C, or None if cancellative."""
    return _first_witness(_Incidence(h))


def is_cancellative(h: Hypergraph) -> bool:
    """No three distinct edges A, B, C with the symmetric difference of A, B inside C."""
    return cancellative_witness(h) is None


def is_k_free(h: Hypergraph, ell: int) -> bool:
    """Freeness of the pair-cover family: no K_{ell+1} in the auxiliary
    graph, by the colouring bound, else the clique search."""
    if ell < h.r:
        raise ValueError(f"need ell >= r, got ell = {ell}, r = {h.r}")
    return not has_clique_bound_first(h.adjacency, (1 << h.n) - 1, ell + 1)


def links_triangle_free(h: Hypergraph) -> bool:
    """Every vertex link of a 3-graph is triangle-free (a cancellativity consequence).

    A triangle {a, b, c} in L(u) puts a and c in N({u, b}) with {a, c}
    covered, so only a non-cancellative input (`_first_witness`) can have
    one; only those walk the links; vertex a of L(u) has the neighbours
    N({u, a}).
    """
    ix = _Incidence(h)
    n, nbrs = ix.n, ix.nbrs
    return _first_witness(ix) is None or not any(
        has_clique({a: nbrs[min(a, u) * n + max(a, u)] for a in iter_bits(vs)}, vs, 3) for u, vs in enumerate(ix.adj)
    )


def neighborhoods_independent(h: Hypergraph) -> bool:
    """No edge meets any shadow neighborhood N(T) in two or more vertices.

    An edge meets N(T) twice exactly when it covers a pair {x, y} inside
    N(T), that is when T lies in L(x) and L(y) for a covered pair {x, y}:
    the violation of cancellativity `_first_witness` looks for.
    """
    return _first_witness(_Incidence(h)) is None


# ---------------------------------------------------------------------------
# The incidence index every 3-graph reader works from


# _BIT_DIGITS[k] translates a byte to ASCII '1' or '0' by its bit k
_BIT_DIGITS = [bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8)]


class _Incidence:
    """The relation u in N(T) of a 3-graph, over its shadow pairs T.

    Vertices are 0-based bit indices u, v:
      nbrs    -- N({j, k}) at slot j*n + k (j < k), for the shadow pairs
                 alone, the pairs some edge covers (r = 3)
      adj[u]  -- the pair-cover (auxiliary graph) adjacency mask of u, which
                 is also the vertex set of the link L(u)
      ts[i]   -- the shadow pairs as ascending masks (upper vertex first)
      nbr[i]  -- N(ts[i]), read off nbrs
      col[u]  -- L(u) as a mask over shadow indices (bit i iff u in N(ts[i]))
    so the pair link L(u, v) is col[u] & col[v], with L(u, u) = L(u); no
    table over all n^2 vertex pairs is kept.  Since L(u, v) is a subgraph
    of L(u), a property that passes to subgraphs holds for every pair link
    once it holds for the vertex links.

    Past the one pass over the edges that fills nbrs, nothing visits the
    incidences u in N(T) one at a time.  The columns are the transpose of
    the bit matrix whose rows are nbr: the rows go into one byte array, last
    row first, nb = ceil(n / 8) bytes each, so byte u >> 3 of every row is
    the slice rows[u >> 3 :: nb], highest shadow index first.  Translating
    that slice to ASCII '0'/'1' by bit u & 7 spells col[u] in base 2, which
    `int(., 2)` reads in linear time.
    """

    def __init__(self, h: Hypergraph) -> None:
        if h.r != 3:
            raise ValueError(f"the 3-graph checks expect r = 3, got r = {h.r}")
        n = self.n = h.n
        nbrs = defaultdict(int)
        for e in h.edges:
            x = e & -e
            y = (e ^ x) & -(e ^ x)
            z = e ^ x ^ y
            i, j, k = x.bit_length() - 1, y.bit_length() - 1, z.bit_length() - 1
            nbrs[j * n + k] |= x
            nbrs[i * n + k] |= y
            nbrs[i * n + j] |= z
        self.nbrs = nbrs = dict(nbrs)  # a read of a pair off the shadow raises
        adj = self.adj = [0] * n
        for s in nbrs:
            j, k = divmod(s, n)
            adj[j] |= 1 << k
            adj[k] |= 1 << j
        h.cache_adjacency(tuple(adj))
        # ascending masks: upper vertex k first, then its lower partners j
        self.ts, self.nbr = [], []
        for k, m in enumerate(adj):
            low = m & ((1 << k) - 1)
            while low:
                b = low & -low
                low ^= b
                self.ts.append(b | 1 << k)
                self.nbr.append(nbrs[(b.bit_length() - 1) * n + k])
        nb = (n + 7) >> 3
        rows = bytearray()
        for m in reversed(self.nbr):
            rows += m.to_bytes(nb, "little")
        self.col = [int(rows[u >> 3 :: nb].translate(_BIT_DIGITS[u & 7]) or b"0", 2) for u in range(n)]


def _cancellative_index(h: Hypergraph) -> _Incidence:
    """The incidence index of h, after its cancellativity precondition; the
    check reads the same index the caller goes on to read, so it is built
    once.  The test is `_first_witness`, one AND of two link masks per
    shadow pair.
    """
    ix = _Incidence(h)
    if _first_witness(ix) is not None:
        raise ValueError("precondition failed: input is not cancellative")
    return ix


def _vacuous(name: str, n: int) -> CertificateReport:
    """The report of a certificate on an empty shadow."""
    return CertificateReport(
        name=name, quantities={"n": n, "edges": 0, "shadow": 0}, holds=True, vacuous=True
    )


# ---------------------------------------------------------------------------
# Certificates


def fisher_ryan_certificate(g: Hypergraph, ell: int) -> CertificateReport:
    """Clique-count chain: the normalized i-clique densities are monotone.

    c_i = (k_i / C(ell, i))^(1/i) must satisfy c_ell <= ... <= c_1 for a
    K_{ell+1}-free graph (k_i = 0 gives c_i = 0).  Each step c_{i+1} <= c_i
    is decided exactly, in integers, as
    (k_{i+1} / C(ell, i+1))^i <= (k_i / C(ell, i))^(i+1); the float chain
    is reported for reading only.  A K_{ell+1} in the input is a
    precondition failure.
    """
    if g.r != 2:
        raise ValueError("fisher_ryan_certificate expects a graph (r = 2)")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if contains_clique(g, ell + 1):
        raise ValueError(f"precondition failed: graph contains K_{ell + 1}")
    ks = [count_cliques(g, i) for i in range(1, ell + 1)]
    cs = [0.0 if k == 0 else (k / comb(ell, i)) ** (1.0 / i) for i, k in enumerate(ks, start=1)]
    holds = True
    witness = None
    for i in range(ell - 1, 0, -1):  # compare c_{i+1} <= c_i, indices 1-based
        k_hi, k_lo = ks[i], ks[i - 1]
        if k_hi**i * comb(ell, i) ** (i + 1) > k_lo ** (i + 1) * comb(ell, i + 1) ** i:
            holds = False
            witness = {"i": i + 1, "c_i": cs[i], "c_prev": cs[i - 1]}
            break
    return CertificateReport(
        name="fisher-ryan",
        quantities={"n": g.n, "ell": ell, "clique_counts": ks, "chain": cs},
        holds=holds,
        witness=witness,
    )


def link_count_identity(h: Hypergraph) -> CertificateReport:
    """Each ordered pair lies in exactly |L(u, v)| of the neighborhoods N(T).

    The left side is tallied from the neighborhood masks N(T): counts[u]
    packs one field of w bits per vertex v, and each T adds 1 to field v of
    counts[u] for all u, v in N(T).  A field counts at most len(ts) pairs,
    so it never carries.  The right side is popcount(col[u] & col[v]) over
    the link masks, so the two sides really are computed along different
    paths.  Holds for every 3-graph, cancellative or not.  A vertex on no
    edge lies in no N(T) and has an empty link, so both sides of its pairs
    are 0 and only the pairs of the other vertices are compared, in the
    same (u, v) order.
    """
    ix = _Incidence(h)
    w = len(ix.ts).bit_length()
    unit = [1 << (w * v) for v in range(h.n)]
    counts = [0] * h.n
    for m in ix.nbr:
        vs = list(iter_bits(m))
        spread = sum(map(unit.__getitem__, vs))
        for u in vs:
            counts[u] += spread
    ones = (1 << w) - 1
    col = ix.col
    mismatch = None
    for u, v in itertools.product([u for u, a in enumerate(ix.adj) if a], repeat=2):
        lhs = counts[u] >> (w * v) & ones
        rhs = (col[u] & col[v]).bit_count()
        if lhs != rhs:
            mismatch = {"u": u + 1, "v": v + 1, "containment_count": lhs, "link_size": rhs}
            break
    return CertificateReport(
        name="link-count",
        quantities={
            "n": h.n,
            "edges": h.size,
            "shadow": len(ix.ts),
            "ordered_pairs_checked": h.n * h.n,
        },
        holds=mismatch is None,
        witness=mismatch,
    )


def inequality2_certificate(h: Hypergraph) -> CertificateReport:
    """Reciprocal pair-link sum over shadow neighborhoods vs n^2 - 2|shadow|.

    The sum of 1/|L(u, v)| over T in the shadow and ordered (u, v) in
    N(T)^2 is an integer: (u, v) lies in N(T)^2 for exactly the |L(u, v)|
    pairs T of L(u, v), so each ordered pair with L(u, v) nonempty adds 1.
    lhs counts those pairs off the link masks: each u with L(u) nonempty
    once, and each u < v with col[u] & col[v] != 0 twice.
    """
    ix = _cancellative_index(h)
    if not ix.ts:
        return _vacuous("inequality2", h.n)
    links = [c for c in ix.col if c]
    lhs = Fraction(len(links) + 2 * sum(1 for a, b in itertools.combinations(links, 2) if a & b))
    rhs = h.n * h.n - 2 * len(ix.ts)
    holds = lhs <= rhs
    return CertificateReport(
        name="inequality2",
        quantities={
            "n": h.n,
            "edges": h.size,
            "shadow": len(ix.ts),
            "lhs": _frac_str(lhs),
            "lhs_float": float(lhs),
            "rhs": rhs,
        },
        holds=holds,
        witness=None if holds else {"lhs": _frac_str(lhs), "rhs": rhs},
    )


def theorem13_certificate(h: Hypergraph) -> CertificateReport:
    """Shadow-ratio chain bounding a cancellative 3-graph's size.

    With z = (3|H|/|shadow|) / (n - 3|H|/|shadow|), certifies the full
    chain down to 27|H| <= n^3 plus the sharp balanced-partition bound
    |H| <= t_3(n, 3); all comparisons in exact rationals.
    """
    degrees = [m.bit_count() for m in _cancellative_index(h).nbr]
    if not degrees:
        return _vacuous("theorem13", h.n)
    from .constructions import turan_count

    n = h.n
    m = h.size
    s = len(degrees)
    degree_sum = sum(degrees)
    checks: dict[str, bool] = {}
    checks["degree_sum_is_3_edges"] = degree_sum == 3 * m

    q = Fraction(3 * m, s)
    z = q / (n - q)
    hist_d: Counter = Counter(degrees)
    mantel_sum = sum(
        (cnt * Fraction(4 * d * d, (n - d) ** 2) for d, cnt in sorted(hist_d.items())),
        Fraction(0),
    )
    rhs = n * n - 2 * s
    checks["mantel_sum_le_rhs"] = mantel_sum <= rhs
    jensen_lhs = 4 * z * z * s
    checks["jensen_step"] = jensen_lhs <= mantel_sum
    checks["shadow_bound"] = s <= Fraction(n * n, 1) / (2 * (2 * z * z + 1))
    size_bound = z * n**3 / (6 * (z + 1) * (2 * z * z + 1))
    checks["size_bound"] = m <= size_bound
    checks["cube_bound"] = 27 * m <= n**3
    t3 = turan_count(n, 3, 3)
    checks["turan_bound"] = m <= t3
    holds = all(checks.values())
    failed = sorted(k for k, v in checks.items() if not v)
    return CertificateReport(
        name="theorem13",
        quantities={
            "n": n,
            "edges": m,
            "shadow": s,
            "z": _frac_str(z),
            "z_float": float(z),
            "mantel_sum": _frac_str(mantel_sum),
            "rhs": rhs,
            "size_bound_float": float(size_bound),
            "turan_value": t3,
            "checks": {k: bool(v) for k, v in checks.items()},
        },
        holds=holds,
        witness=None if holds else {"failed_checks": failed},
    )


def _mantel_caps_hold(ix: _Incidence) -> bool:
    """4|L(u)| <= (n - d(T))^2 for every vertex u and every T in L(u).

    The cap is smallest for the largest d(T) over T in L(u): that is the
    largest d whose mask of shadow indices with d(T) = d meets col[u].
    """
    n = ix.n
    by_degree: dict[int, int] = {}
    for i, m in enumerate(ix.nbr):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    degrees = sorted(by_degree.items(), reverse=True)
    return all(
        not c or 4 * c.bit_count() <= (n - next(d for d, m in degrees if m & c)) ** 2 for c in ix.col
    )


def mantel_link_bound(h: Hypergraph) -> CertificateReport:
    """Pair links avoid N(T), stay triangle-free, and obey the Mantel cap.

    For every T in the shadow and ordered (u, v) in N(T)^2: the vertex set
    of L(u, v) misses N(T), L(u, v) is triangle-free, and
    4|L(u, v)| <= (n - d(T))^2.  The input must be cancellative, and on
    such an input the first two hold for L(u) and so for its subgraph
    L(u, v) (module docstring); Mantel's theorem then gives the third,
    which is still checked per vertex (`_mantel_caps_hold`) and raises
    AssertionError if it ever fails.  The report counts the sum of d(T)^2
    triples as checked and the largest |L(u)| as the largest pair link,
    since |L(u, v)| <= |L(u)| and every (T, u, u) with u in N(T) is a
    triple.
    """
    ix = _cancellative_index(h)
    if not ix.ts:
        return _vacuous("mantel-link", h.n)
    if not _mantel_caps_hold(ix):
        raise AssertionError("mantel-link: a link of a cancellative input exceeds its Mantel cap")
    return CertificateReport(
        name="mantel-link",
        quantities={
            "n": h.n,
            "edges": h.size,
            "shadow": len(ix.ts),
            "pairs_checked": sum(m.bit_count() ** 2 for m in ix.nbr),
            "max_pair_link": max(c.bit_count() for c in ix.col),
        },
    )
