"""Core hypergraph machinery against definition-level oracles."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab import hypergraph
from turanlab.checkers import is_k_free
from turanlab.hypergraph import (
    Hypergraph,
    PairCover,
    all_r_subsets,
    auxiliary_graph,
    contains_clique,
    has_clique,
    count_cliques,
    format_hypergraph,
    iter_bits,
    iter_cliques,
    mask_of,
    parse_hypergraph,
    vertices_of,
)
from turanlab.constructions import perturb, turan_hypergraph

from oracles import adjacency_by_edge, adjacency_by_iter_bits, hypergraph_fault, is_subgraph, link_sets, parse_hypergraph_by_line, shadow_neighborhoods


def edge_sets(masks):
    return sorted(vertices_of(m) for m in masks)


def random_hypergraph(n, r, p, rng):
    edges = [m for m in all_r_subsets(n, r) if rng.random() < p]
    return Hypergraph(n, r, tuple(edges))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 3, [(1, 2, 4)])  # label out of range
    with pytest.raises(ValueError):
        Hypergraph(4, 3, (mask_of((1, 2)),))  # wrong edge size
    with pytest.raises(ValueError):
        Hypergraph(4, 3, (mask_of((1, 2, 3)), mask_of((1, 2, 3))))  # duplicate
    with pytest.raises(ValueError):
        Hypergraph(4, 1, ())  # uniformity too small


def test_negative_masks_raise():
    # a negative mask has infinitely many set bits: the walk would never end
    with pytest.raises(ValueError, match="mask -1 is negative"):
        list(itertools.islice(iter_bits(-1), 5))
    with pytest.raises(ValueError, match="mask -6 is negative"):
        vertices_of(-6)
    assert list(iter_bits(0)) == [] and vertices_of(0) == ()


def test_labels_below_one_raise():
    with pytest.raises(ValueError, match=r"^label 0 out of range 1\.\.3$"):
        Hypergraph.from_edges(3, 3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"^label -2 out of range 1\.\.5$"):
        Hypergraph.from_edges(5, 2, [(1, 2), (4, -2)])
    with pytest.raises(ValueError, match=r"^label 0 out of range 1\.\.n$"):
        mask_of((3, 0))
    assert mask_of((1, 3)) == 0b101


def test_shadow_examples():
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    assert edge_sets(shadow_neighborhoods(h)) == [(1, 2), (1, 3), (2, 3)]
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4)])
    assert edge_sets(shadow_neighborhoods(h)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert shadow_neighborhoods(Hypergraph(4, 3, ())) == {}


def test_shadow_matches_direct_expansion():
    rng = random.Random(11)
    for _ in range(30):
        n, r = rng.choice([(6, 2), (7, 3), (8, 4)])
        h = random_hypergraph(n, r, 0.25, rng)
        expected = set()
        for e in h.edges:
            for a in itertools.combinations(vertices_of(e), r - 1):
                expected.add(a)
        assert set(edge_sets(shadow_neighborhoods(h))) == expected


def test_link_examples():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4)])
    links = link_sets(h)
    assert edge_sets(links[2] & links[3]) == [(1, 2)]
    h1 = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    assert edge_sets(link_sets(h1)[0]) == [(2, 3)]
    h2 = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    assert link_sets(h2)[3] == set()


def test_link_pair_diagonal_convention():
    h = Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 2, 4), (1, 4, 5)])
    links = link_sets(h)
    edges = set(h.edges)
    # definition: L(u, v) holds the shadow sets A with A + {u} and A + {v} both
    # edges, which for u = v is the vertex link L({u})
    for u, v in itertools.product(range(1, h.n + 1), repeat=2):
        expected = {a for a in shadow_neighborhoods(h) if {a | 1 << (u - 1), a | 1 << (v - 1)} <= edges}
        assert links[u - 1] & links[v - 1] == expected
    assert links[0] == {mask_of((2, 3)), mask_of((2, 4)), mask_of((4, 5))}


def test_neighborhood_examples():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4)])
    nbrs = shadow_neighborhoods(h)
    assert nbrs[mask_of((1, 2))] == [3, 4]
    assert nbrs[mask_of((1, 3))] == [2]
    assert mask_of((3, 4)) not in nbrs


def test_degree_sum_identity():
    rng = random.Random(5)
    for _ in range(40):
        n, r = rng.choice([(7, 2), (8, 3), (9, 4), (12, 3)])
        h = random_hypergraph(n, r, 0.2, rng)
        nbrs = shadow_neighborhoods(h)
        edges = set(h.edges)
        for t, labels in nbrs.items():
            assert labels == [v for v in range(1, n + 1) if not t >> (v - 1) & 1 and t | 1 << (v - 1) in edges]
        assert sum(len(labels) for labels in nbrs.values()) == r * h.size


def test_auxiliary_graph():
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    g = auxiliary_graph(h)
    assert edge_sets(g.edges) == [(1, 2), (1, 3), (2, 3)]
    t = turan_hypergraph(6, 3, 3)
    g = auxiliary_graph(t)
    # complete 3-partite on the canonical blocks, nothing else
    blocks = [(1, 2), (3, 4), (5, 6)]
    expected = set()
    for b1, b2 in itertools.combinations(blocks, 2):
        for u in b1:
            for v in b2:
                expected.add(tuple(sorted((u, v))))
    assert set(edge_sets(g.edges)) == expected
    assert auxiliary_graph(Hypergraph(5, 3, ())).edges == ()


def pair_cover_oracle(h):
    """Reference pair-cover graph: every 2-subset of every edge, into a set, sorted."""
    pairs = set()
    for e in h.edges:
        for i, j in itertools.combinations(list(iter_bits(e)), 2):
            pairs.add((1 << i) | (1 << j))
    return Hypergraph(h.n, 2, tuple(sorted(pairs)))


def graph_adjacency_oracle(g):
    """adj[v-1] = neighbours of v, read off the edge list of a graph."""
    adj = [0] * g.n
    for e in g.edges:
        i, j = iter_bits(e)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def test_adjacency_examples():
    h = Hypergraph.from_edges(5, 3, [(1, 2, 3), (3, 4, 5)])
    assert [vertices_of(m) for m in h.adjacency] == [(2, 3), (1, 3), (1, 2, 4, 5), (3, 5), (3, 4)]
    assert Hypergraph(3, 2, ()).adjacency == (0, 0, 0)
    # read once, then served from the instance; equality and hashing ignore it
    assert h.adjacency is h.adjacency
    fresh = Hypergraph(h.n, h.r, h.edges)
    assert fresh == h and hash(fresh) == hash(h) and "adjacency" not in vars(fresh)
    # an adjacency derived elsewhere fills an empty cache as given, and
    # never replaces a cached one
    fresh.cache_adjacency((0,) * fresh.n)
    assert fresh.adjacency == (0,) * fresh.n and fresh == h
    h.cache_adjacency((0,) * h.n)
    assert h.adjacency == adjacency_by_edge(h)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 9), st.data())
def test_adjacency_matches_iter_bits_form(r, extra, data):
    # random r-graphs, with isolated vertices among the n = r + extra, against
    # the per-edge loop and the one-generator-per-edge form before it
    n = r + extra
    edges = data.draw(st.sets(st.sampled_from(all_r_subsets(n, r)), max_size=12))
    h = Hypergraph(n, r, tuple(sorted(edges)))
    assert h.adjacency == adjacency_by_edge(h) == adjacency_by_iter_bits(h)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.data())
def test_adjacency_matches_per_edge_loop_up_to_r6(r, data):
    # r = 2..6: sparse draws keep at most 12 edges on n = r..r + 9 vertices;
    # dense ones, on n = r..r + 5, keep each r-set with probability p, up to
    # all of them, so that runs of more than one edge sharing their top
    # vertices occur at every nesting level
    if data.draw(st.booleans()):
        n = r + data.draw(st.integers(0, 9))
        edges = data.draw(st.sets(st.sampled_from(all_r_subsets(n, r)), max_size=12))
    else:
        n = r + data.draw(st.integers(0, 5))
        p = data.draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = [e for e in all_r_subsets(n, r) if rng.random() < p]
    h = Hypergraph(n, r, tuple(sorted(edges)))
    assert h.adjacency == adjacency_by_edge(h) == adjacency_by_iter_bits(h)


def test_adjacency_on_turan_and_auxiliary_inputs():
    # every vertex count and edge set the run walk meets at its edges: no
    # vertices, no edges, T_3(n) and its auxiliary graph up to n = 30, and
    # the complete r-graph, where every run at every level holds several edges
    assert Hypergraph(0, 3, ()).adjacency == ()
    assert Hypergraph(7, 4, ()).adjacency == (0,) * 7
    for n in range(1, 31):
        for h in (turan_hypergraph(n, 3, 3), auxiliary_graph(turan_hypergraph(n, 3, 3))):
            assert h.adjacency == adjacency_by_edge(h), (n, h.r)
    for r in range(2, 7):
        full = Hypergraph(r + 3, r, tuple(all_r_subsets(r + 3, r)))
        assert full.adjacency == adjacency_by_edge(full) == tuple(((1 << r + 3) - 1) ^ (1 << b) for b in range(r + 3))


def count_cliques_oracle(g, i):
    adj = {v: set() for v in range(1, g.n + 1)}
    for e in g.edges:
        u, v = vertices_of(e)
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for combo in itertools.combinations(range(1, g.n + 1), i):
        if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
            total += 1
    return total


def test_count_cliques_examples():
    k4 = Hypergraph.from_edges(4, 2, itertools.combinations(range(1, 5), 2))
    assert count_cliques(k4, 3) == 4
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert count_cliques(c5, 2) == 5
    assert count_cliques(c5, 3) == 0
    k222 = auxiliary_graph(turan_hypergraph(6, 3, 3))
    assert count_cliques(k222, 3) == 8
    # k_1 counts all vertices, isolated included; k_2 is the edge count
    g = Hypergraph.from_edges(6, 2, [(1, 2)])
    assert count_cliques(g, 1) == 6
    assert count_cliques(g, 2) == 1
    with pytest.raises(ValueError):
        count_cliques(g, 0)


def test_count_cliques_against_oracle():
    rng = random.Random(3)
    pick = random.Random(5)
    for _ in range(25):
        n = rng.randint(4, 9)
        g = random_hypergraph(n, 2, 0.45, rng)
        for i in range(1, 6):
            assert count_cliques(g, i) == count_cliques_oracle(g, i)
        # iter_cliques lists the same cliques in lexicographic order, and
        # restricted to a candidate mask it stays inside it
        edges = set(g.edges)
        for i in range(0, 5):
            brute = [
                c for c in itertools.combinations(range(1, n + 1), i)
                if all(mask_of(p) in edges for p in itertools.combinations(c, 2))
            ]
            full = (1 << n) - 1
            assert [vertices_of(c) for c in iter_cliques(g.adjacency, full, i)] == brute
            cand = pick.getrandbits(n)
            inside = [vertices_of(c) for c in iter_cliques(g.adjacency, cand, i)]
            assert inside == [c for c in brute if mask_of(c) & cand == mask_of(c)]


def test_has_clique_matches_first_clique():
    # the early-exit test against the first clique iter_cliques lists, on
    # random graphs and candidate masks, for every size 0..n + 1
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_hypergraph(n, 2, rng.random(), rng)
        for cand in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(4)]:
            for size in range(n + 2):
                want = next(iter_cliques(g.adjacency, cand, size), None) is not None
                assert has_clique(g.adjacency, cand, size) == want, (g, cand, size)


def test_contains_clique():
    k4 = Hypergraph.from_edges(4, 2, itertools.combinations(range(1, 5), 2))
    assert contains_clique(k4, 4)
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert not contains_clique(c5, 3)
    assert not contains_clique(Hypergraph(4, 2, ()), 2)
    rng = random.Random(9)
    for _ in range(25):
        g = random_hypergraph(rng.randint(4, 9), 2, 0.4, rng)
        for q in range(2, 6):
            assert contains_clique(g, q) == (count_cliques_oracle(g, q) > 0)


def test_colouring_bound_agrees_with_search_and_counts():
    # the whole-graph clique questions against the plain search and the
    # brute-force count, for every size 0..7; a colouring into fewer than q
    # classes must never hide a q-clique
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(0, 9)
        g = random_hypergraph(n, 2, rng.random(), rng)
        full = (1 << n) - 1
        for q in range(8):
            want = count_cliques_oracle(g, q) > 0 if q else True
            assert has_clique(g.adjacency, full, q) == want, (g, q)
            if hypergraph._fewer_colours(g.adjacency, full, q):
                assert not want, (g, q)
            if q >= 1:
                assert contains_clique(g, q) == want, (g, q)
            if q >= 3:
                assert is_k_free(g, q - 1) == (not want), (g, q)
    for _ in range(40):
        h = random_hypergraph(rng.randint(3, 8), 3, rng.random(), rng)
        aux = auxiliary_graph(h)
        for q in range(4, 8):
            assert is_k_free(h, q - 1) == (count_cliques_oracle(aux, q) == 0) == (not contains_clique(aux, q))


def test_colouring_bound_decides_multipartite_and_defers_on_planted_cliques(monkeypatch):
    searched = []  # the sizes of every search call, recursive ones included

    def spy(adj, cand, size, real=hypergraph.has_clique):
        searched.append(size)
        return real(adj, cand, size)

    monkeypatch.setattr(hypergraph, "has_clique", spy)
    rng = random.Random(23)
    for ell in range(1, 7):
        # complete ell-partite graphs on shuffled labels: greedy colouring
        # finds the ell parts, so K_{ell+1} is refused with no search
        n = rng.randint(ell, 12)
        side = [rng.randrange(ell) for _ in range(n)]
        side[:ell] = range(ell)
        rng.shuffle(side)
        g = Hypergraph.from_edges(n, 2, [(u + 1, v + 1) for u, v in itertools.combinations(range(n), 2) if side[u] != side[v]])
        searched.clear()
        assert not contains_clique(g, ell + 1)
        assert (ell + 1 < 3 or is_k_free(g, ell)) and searched == []
        assert contains_clique(g, ell) and count_cliques_oracle(g, ell) > 0
    for q in range(3, 7):
        # a planted q-clique, or an odd cycle for q = 3, needs q colours, so
        # the search decides
        n = q + 4
        base = random_hypergraph(n, 2, 0.3, rng)
        planted = Hypergraph(n, 2, tuple(sorted(set(base.edges) | set(all_r_subsets(q, 2)))))
        searched.clear()
        assert contains_clique(planted, q) and searched[0] == q
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    searched.clear()
    assert not contains_clique(c5, 3) and is_k_free(c5, 2) and searched.count(3) == 2


def test_is_subgraph():
    f = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    h = Hypergraph.from_edges(6, 3, [(4, 5, 6)])
    assert is_subgraph(f, h)
    two = Hypergraph.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)])
    one = Hypergraph.from_edges(6, 3, [(1, 2, 3)])
    assert not is_subgraph(two, one)
    assert is_subgraph(turan_hypergraph(6, 3, 3), turan_hypergraph(9, 3, 3))
    with pytest.raises(ValueError):
        is_subgraph(Hypergraph(3, 2, ()), h)


def test_is_subgraph_respects_structure():
    # a path does not contain a triangle
    p4 = Hypergraph.from_edges(4, 2, [(1, 2), (2, 3), (3, 4)])
    k3 = Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)])
    assert not is_subgraph(k3, p4)
    assert is_subgraph(p4, Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5)]))


def test_text_format_round_trip():
    t = turan_hypergraph(7, 3, 3)
    text = format_hypergraph(t, comment="balanced transversal")
    back = parse_hypergraph(text)
    assert back == t
    assert text.startswith("# balanced transversal\n7 3\n")


@st.composite
def hypergraphs(draw):
    n, r = draw(st.integers(0, 12)), draw(st.integers(2, 4))
    cands = all_r_subsets(n, r)
    chosen = draw(st.integers(0, (1 << len(cands)) - 1))
    return Hypergraph(n, r, tuple(e for i, e in enumerate(cands) if chosen >> i & 1))


@settings(max_examples=100, deadline=None)
@given(hypergraphs(), st.one_of(st.none(), st.lists(st.text(), min_size=2, max_size=4).map("\n".join)))
def test_text_format_round_trip_random(h, comment):
    assert parse_hypergraph(format_hypergraph(h, comment)) == h


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_adjacency_and_auxiliary_graph_match_oracle(h):
    oracle = pair_cover_oracle(h)
    g = auxiliary_graph(h)
    assert g == oracle
    assert h.adjacency == graph_adjacency_oracle(oracle) == g.adjacency
    if h.r == 2:
        assert g == h


def test_pair_cover_keeps_a_shared_pair():
    for r in (3, 4):
        a, b = mask_of(range(1, r + 1)), mask_of([1, 2, *range(r + 1, 2 * r - 1)])
        pc = PairCover(2 * r)
        pc.add(a)
        pc.add(b)
        pc.remove(a)
        # {1, 2} is still covered by b; a's other pairs are gone
        assert list(pc.adj) == list(Hypergraph(2 * r, r, (b,)).adjacency)
        assert pc.adj[0] >> 1 & 1 and pc.cov[1] == 1  # {1, 2} at slot 0*n + 1
        assert sum(pc.cov) == math.comb(r, 2)
        pc.remove(b)
        assert pc.adj == [0] * (2 * r) and not any(pc.cov)


# each step adds the i-th r-set (mod their count) or removes the i-th current
# edge (mod their count); a removed edge may be added again
@settings(max_examples=150, deadline=None)
@given(
    st.integers(4, 9),
    st.sampled_from([2, 3, 4]),
    st.lists(st.tuples(st.sampled_from(["add", "add", "remove"]), st.integers(0, 1000)), max_size=40),
)
def test_pair_cover_matches_static_adjacency(n, r, steps):
    pc = PairCover(n)
    current = []
    cands = all_r_subsets(n, r)
    for op, i in steps:
        if op == "remove":
            if not current:
                continue
            pc.remove(current.pop(i % len(current)))
        else:
            e = cands[i % len(cands)]
            if e in current:
                continue
            pc.add(e)
            current.append(e)
        assert list(pc.adj) == list(Hypergraph(n, r, tuple(current)).adjacency)
    # cov[j*n + k] counts the current edges over {j, k}, j < k; other slots stay 0
    assert pc.cov == [
        sum(e >> j & e >> k & 1 for e in current) if j < k else 0 for j in range(n) for k in range(n)
    ]


def test_text_format_tolerance_and_errors():
    h = parse_hypergraph("# comment\n\n  4 3  \n 3 2 1 # trailing\n1   2 4\n")
    assert h.n == 4 and h.size == 2
    with pytest.raises(ValueError, match="duplicate"):
        parse_hypergraph("3 3\n1 2 3\n3 2 1\n")
    with pytest.raises(ValueError):
        parse_hypergraph("3 3\n1 2\n")
    with pytest.raises(ValueError):
        parse_hypergraph("1 2 3\n")
    with pytest.raises(ValueError):
        parse_hypergraph("")
    with pytest.raises(ValueError):
        parse_hypergraph("3 3\n1 2 5\n")


# line breaks splitlines() knows, headers that are bad or absent, fields
# int() rejects, and label spellings int() accepts
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
BAD_HEADERS = ["", "# 3 3", "3", "3 3 3", "a 3", "3 b", "-1 3", "4 1", "4 0", "2 3", "007 +3"]
NOT_INTEGERS = ["x", "1.5", "1e3", "--2", "0x3", "#"]
SPELLINGS = [
    lambda v: "00" + v,
    lambda v: "+" + v,
    lambda v: v.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda v: v.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
]


def _mutate(lines, n, kind, i, j):
    """Apply one edit to a list of lines: i picks the line, j the variant."""
    if not lines:
        return
    k = i % len(lines)
    tokens = lines[k].split()
    if kind == "comment":
        lines.insert(k, "# a comment 1 2 3")
    elif kind == "trailing":
        lines[k] += " # 1 2"
    elif kind == "blank":
        lines.insert(k, ["", "  ", "\t"][j % 3])
    elif kind == "header":
        lines[0] = BAD_HEADERS[j % len(BAD_HEADERS)]
    elif kind == "duplicate":
        lines.insert(k, lines[j % len(lines)])
    elif kind == "tabs":
        lines[k] = "\t" + " \t ".join(tokens) + "  "
    elif tokens:
        t = j % len(tokens)
        if kind == "drop_label":
            del tokens[t]
        elif kind == "add_label":
            tokens.insert(t, str(j % (n + 2)))
        elif kind == "not_integer":
            tokens[t] = NOT_INTEGERS[j % len(NOT_INTEGERS)]
        elif kind == "out_of_range":
            tokens[t] = ["0", str(n + 1), "-1"][j % 3]
        elif kind == "repeat":
            tokens[t] = tokens[(t + 1) % len(tokens)]
        elif kind == "respell":
            tokens[t] = SPELLINGS[j % len(SPELLINGS)](tokens[t])
        lines[k] = " ".join(tokens)


MUTATIONS = [
    "comment", "trailing", "blank", "header", "duplicate", "tabs",
    "drop_label", "add_label", "not_integer", "out_of_range", "repeat", "respell",
]


@st.composite
def edge_list_texts(draw):
    h = draw(hypergraphs())
    lines = format_hypergraph(h).splitlines()
    edits = draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 999), st.integers(0, 999)), max_size=5))
    for kind, i, j in edits:
        _mutate(lines, h.n, kind, i, j)
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, breaks))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_parse_matches_line_by_line_oracle(text):
    assert _outcome(parse_hypergraph, text) == _outcome(parse_hypergraph_by_line, text)


@settings(max_examples=200, deadline=None)
@given(st.text("ab \n\r\x0b\x85\u2028", max_size=40), st.integers(1, 8))
def test_lines_are_splitlines_across_windows(text, window):
    saved = hypergraph._WINDOW
    hypergraph._WINDOW = window
    try:
        assert list(hypergraph._lines(text)) == text.splitlines()
    finally:
        hypergraph._WINDOW = saved


@st.composite
def edge_tuples(draw):
    n, r = draw(st.integers(-1, 7)), draw(st.integers(1, 4))
    mask = st.integers(-3, (1 << (max(n, 0) + 2)) - 1)
    good = all_r_subsets(n, r) if n > 0 else []
    if good:
        mask = st.one_of(st.sampled_from(good), mask)
    return n, r, tuple(draw(st.lists(mask, max_size=10)))


@settings(max_examples=400, deadline=None)
@given(edge_tuples())
def test_constructor_matches_per_edge_oracle(case):
    n, r, edges = case
    want = hypergraph_fault(n, r, edges)
    if want is None:
        assert Hypergraph(n, r, edges).edges == tuple(sorted(edges))
    else:
        with pytest.raises(ValueError) as exc:
            Hypergraph(n, r, edges)
        assert str(exc.value) == want


def test_parse_peak_memory_not_above_line_by_line_oracle():
    # holding every line, or a row of labels per line, would peak above the oracle
    text = format_hypergraph(perturb(turan_hypergraph(120, 3, 3), 0.03, 0, 11))
    parsed, peaks = [], []
    for parse in (parse_hypergraph, parse_hypergraph_by_line):
        tracemalloc.start()
        try:
            parsed.append(parse(text))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert parsed[0] == parsed[1] and parsed[0].size > 60_000
    assert peaks[0] <= peaks[1], peaks
