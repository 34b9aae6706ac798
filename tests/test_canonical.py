"""Canonical-form exactness: relabel invariance and class separation."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab.canonical import canonical_code
from turanlab.constructions import turan_hypergraph
from turanlab.hypergraph import Hypergraph, all_r_subsets, mask_of
from turanlab.search import edge_invariants

from oracles import are_isomorphic, permute_hypergraph


def test_relabel_invariance_100_permutations():
    rng = random.Random(42)
    graphs = [
        turan_hypergraph(6, 3, 3),
        turan_hypergraph(8, 2, 2),
        Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
        Hypergraph.from_edges(7, 3, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (1, 6, 7)]),
    ]
    for h in graphs:
        base = canonical_code(h.n, h.edges)
        for _ in range(100):
            p = list(range(1, h.n + 1))
            rng.shuffle(p)
            assert canonical_code(h.n, permute_hypergraph(h, p).edges) == base


def test_distinguishes_known_pairs():
    k3 = Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)])
    p3 = Hypergraph.from_edges(3, 2, [(1, 2), (2, 3)])
    assert not are_isomorphic(k3, p3)
    # same edge count, non-isomorphic: two sharing triples vs two disjoint ones
    h1 = Hypergraph.from_edges(6, 3, [(1, 2, 3), (1, 2, 4)])
    h2 = Hypergraph.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert not are_isomorphic(h1, h2)


def test_two_edge_3graphs_on_4_vertices_form_one_class():
    # hand-enumeration oracle: any two distinct triples of [4] share two
    # vertices, so there is exactly one isomorphism class
    codes = set()
    for a, b in itertools.combinations(all_r_subsets(4, 3), 2):
        codes.add(canonical_code(4, (a, b)))
    assert len(codes) == 1


def test_code_equality_iff_isomorphic_exhaustive_small():
    # all graphs on 4 labeled vertices: codes partition them into the known
    # 11 isomorphism classes
    pairs = all_r_subsets(4, 2)
    codes = set()
    for bits in range(1 << 6):
        edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
        codes.add(canonical_code(4, edges))
    assert len(codes) == 11


def test_code_separates_same_degree_sequence():
    # C6 vs two disjoint triangles: both 2-regular on 6 vertices
    c6 = Hypergraph.from_edges(6, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    tt = Hypergraph.from_edges(6, 2, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert not are_isomorphic(c6, tt)


def test_from_code_reconstructs_class():
    h = Hypergraph.from_edges(6, 3, [(1, 3, 5), (2, 4, 6), (1, 2, 3)])
    code = canonical_code(6, h.edges)
    rebuilt = Hypergraph(6, 3, code)
    assert are_isomorphic(h, rebuilt)
    assert canonical_code(6, rebuilt.edges) == code


def _nx_graph(h):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, h.n + 1))
    for e in h.edges:
        u, v = (b.bit_length() for b in (e & -e, e ^ (e & -e)))
        g.add_edge(u, v)
    return g


def _nx_incidence(h):
    # 3-graphs compare via their vertex/edge incidence bigraphs
    import networkx as nx

    g = nx.Graph()
    for v in range(1, h.n + 1):
        g.add_node(("v", v), kind="v")
    for i, e in enumerate(h.edges):
        g.add_node(("e", i), kind="e")
        m = e
        while m:
            low = m & -m
            g.add_edge(("e", i), ("v", low.bit_length()))
            m ^= low
    return g


def test_cross_validated_against_networkx_graphs():
    import networkx as nx

    rng = random.Random(77)
    pairs_checked = agreements = 0
    for _ in range(120):
        n = rng.randint(4, 8)
        masks = [mask_of(c) for c in itertools.combinations(range(1, n + 1), 2)]
        e1 = tuple(m for m in masks if rng.random() < 0.4)
        e2 = tuple(m for m in masks if rng.random() < 0.4)
        h1, h2 = Hypergraph(n, 2, e1), Hypergraph(n, 2, e2)
        ours = are_isomorphic(h1, h2)
        theirs = nx.is_isomorphic(_nx_graph(h1), _nx_graph(h2))
        assert ours == theirs
        pairs_checked += 1
        agreements += ours == theirs
    assert pairs_checked == agreements == 120


def test_cross_validated_against_networkx_3graphs():
    import networkx as nx

    rng = random.Random(78)
    for _ in range(60):
        n = rng.randint(4, 7)
        masks = all_r_subsets(n, 3)
        e1 = tuple(m for m in masks if rng.random() < 0.3)
        h1 = Hypergraph(n, 3, e1)
        # a relabeled copy must agree both ways
        p = list(range(1, n + 1))
        rng.shuffle(p)
        h2 = permute_hypergraph(h1, p)
        assert are_isomorphic(h1, h2)
        assert nx.is_isomorphic(
            _nx_incidence(h1), _nx_incidence(h2), node_match=lambda a, b: a["kind"] == b["kind"]
        )
        # and a random second graph must agree on the verdict
        e3 = tuple(m for m in masks if rng.random() < 0.3)
        h3 = Hypergraph(n, 3, e3)
        ours = are_isomorphic(h1, h3)
        theirs = len(e1) == len(e3) and nx.is_isomorphic(
            _nx_incidence(h1), _nx_incidence(h3), node_match=lambda a, b: a["kind"] == b["kind"]
        )
        assert ours == theirs, (h1.edges, h3.edges)


def test_unlabeled_graph_census_on_5_vertices():
    # dedup every labeled graph on [5]; the unlabeled count is 34
    pairs = all_r_subsets(5, 2)
    codes = set()
    for bits in range(1 << 10):
        edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
        codes.add(canonical_code(5, edges))
    assert len(codes) == 34


# ---------------------------------------------------------------------------
# Property tests: random r-graphs (r in {2, 3}, n <= 8) under random relabelings


def _closure(edges, sigma):
    """Smallest edge set containing edges that the vertex permutation sigma maps onto itself."""
    out, todo = set(), list(edges)
    while todo:
        e = todo.pop()
        if e not in out:
            out.add(e)
            todo.append(mask_of(sigma[v - 1] for v in range(1, len(sigma) + 1) if e >> (v - 1) & 1))
    return out


@st.composite
def relabeled_hypergraphs(draw):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 8))
    cands = all_r_subsets(n, r)
    if draw(st.booleans()):
        chosen = draw(st.integers(0, (1 << len(cands)) - 1))
        edges = {e for i, e in enumerate(cands) if chosen >> i & 1}
    else:
        # a few edges closed under a random permutation, such as C3 + C4: symmetric
        # inputs whose refined colour classes are not orbits, so the labelling must branch
        edges = _closure(draw(st.lists(st.sampled_from(cands), max_size=3)), draw(st.permutations(range(1, n + 1))))
    return Hypergraph(n, r, tuple(edges)), draw(st.permutations(range(1, n + 1)))


@settings(max_examples=300, deadline=None)
@given(relabeled_hypergraphs())
def test_canonical_code_invariant_under_random_relabeling(case):
    h, perm = case
    assert canonical_code(h.n, permute_hypergraph(h, perm).edges) == canonical_code(h.n, h.edges)


@settings(max_examples=80, deadline=None)
@given(relabeled_hypergraphs())
def test_edge_invariants_follow_relabeling(case):
    # the search's canonical-parent filter is sound only if each edge keeps its invariant
    h, perm = case
    moved = permute_hypergraph(h, perm)
    by_edge = dict(zip(moved.edges, edge_invariants(moved.n, moved.edges)))
    for e, inv in zip(h.edges, edge_invariants(h.n, h.edges)):
        image = mask_of(perm[v - 1] for v in range(1, h.n + 1) if e >> (v - 1) & 1)
        assert by_edge[image] == inv
