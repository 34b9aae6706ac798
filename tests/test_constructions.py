"""Constructions: balanced transversal objects and seeded generators."""

import itertools
import math
import random

import pytest

from turanlab.canonical import canonical_code
from turanlab.checkers import is_cancellative, is_k_free
from turanlab.constructions import (
    balanced_partition,
    perturb,
    random_maximal_cancellative,
    random_triangle_free_near_bipartite,
    turan_count,
    turan_hypergraph,
)
from turanlab.hypergraph import (
    Hypergraph,
    all_r_subsets,
    auxiliary_graph,
    contains_clique,
    mask_of,
    vertices_of,
)
from turanlab.checkers import _CancellativeState

from oracles import are_isomorphic, is_subgraph, k_family


def test_balanced_partition_shapes():
    bp = balanced_partition(7, 3)
    assert [len(b) for b in bp] == [3, 2, 2]
    assert bp[0] == (1, 2, 3)
    bp = balanced_partition(9, 3)
    assert [len(b) for b in bp] == [3, 3, 3]
    bp = balanced_partition(2, 3)
    assert [len(b) for b in bp] == [1, 1, 0]


def test_turan_count_examples():
    assert turan_count(7, 3, 3) == 12  # 3*2*2
    assert turan_count(5, 2, 2) == 6  # Mantel floor(25/4)
    assert turan_count(7, 3, 4) == 20  # e_3(2,2,2,1)
    assert turan_count(9, 3, 3) == 27
    assert turan_count(6, 3, 3) == 8
    for n in (3, 4, 5, 6, 7):
        assert turan_count(n, 3, 3) == [1, 2, 4, 8, 12][n - 3]
    with pytest.raises(ValueError):
        turan_count(5, 3, 2)


def test_turan_count_closed_forms():
    # ell >= n: every r-set is transversal
    for n in range(1, 8):
        for r in (2, 3):
            if r <= n:
                assert turan_count(n, r, n) == math.comb(n, r)
    # ell | n: C(ell, r) * (n/ell)^r
    for n, r, ell in [(9, 3, 3), (12, 3, 3), (12, 3, 4), (10, 2, 2), (12, 2, 3)]:
        assert turan_count(n, r, ell) == math.comb(ell, r) * (n // ell) ** r
    # elementary symmetric oracle by direct expansion
    for n, r, ell in [(7, 3, 3), (8, 3, 4), (11, 2, 4)]:
        sizes = [len(b) for b in balanced_partition(n, ell)]
        direct = sum(
            math.prod(combo) for combo in itertools.combinations(sizes, r)
        )
        assert turan_count(n, r, ell) == direct


def test_turan_hypergraph_examples():
    assert turan_hypergraph(6, 3, 3).size == 8
    assert turan_hypergraph(9, 3, 3).size == 27
    k22 = turan_hypergraph(4, 2, 2)
    assert k22.size == 4
    assert sorted(vertices_of(e) for e in k22.edges) == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_turan_hypergraph_matches_count_everywhere():
    for n in range(1, 13):
        for r, ell in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            assert turan_hypergraph(n, r, ell).size == turan_count(n, r, ell)


def test_turan_is_cancellative_and_free():
    for n in range(3, 13):
        t = turan_hypergraph(n, 3, 3)
        assert is_cancellative(t)
        assert is_k_free(t, 3)
    for n, r, ell in [(8, 2, 3), (10, 3, 4), (9, 2, 2)]:
        assert is_k_free(turan_hypergraph(n, r, ell), ell)


def test_k_family_small_cases():
    fam22 = k_family(2, 2)
    assert len(fam22) == 1
    k3 = Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)])
    assert are_isomorphic(fam22[0], k3)
    fam32 = k_family(3, 2)
    assert len(fam32) == 1
    assert fam32[0].size == 1 and fam32[0].n == 3


def _k33_member_oracle():
    """Independent generation of the minimal (3,3) pair covers.

    Structured route: every 3-edge is either a triple inside the 4-set or a
    4-set pair plus an outside vertex, with outside vertices shared freely;
    enumerate all combinations directly and dedupe up to isomorphism.
    """
    s_triples = list(itertools.combinations(range(1, 5), 3))
    s_pairs = list(itertools.combinations(range(1, 5), 2))
    found = {}
    for triple_bits in range(1 << 4):
        triples = [t for i, t in enumerate(s_triples) if triple_bits >> i & 1]
        covered = {p for t in triples for p in itertools.combinations(t, 2)}
        rest = [p for p in s_pairs if p not in covered]
        # assign outside vertices to the remaining pairs: every set partition
        def partitions(items):
            if not items:
                yield []
                return
            first, tail = items[0], items[1:]
            for part in partitions(tail):
                for i in range(len(part)):
                    yield part[:i] + [[first] + part[i]] + part[i + 1 :]
                yield [[first]] + part

        for grouping in partitions(rest):
            edges = [mask_of(t) for t in triples]
            nxt = 5
            for group in grouping:
                for p in group:
                    edges.append(mask_of(p + (nxt,)))
                nxt += 1
            support = 0
            for e in edges:
                support |= e
            nverts = support.bit_count()
            # relabel onto 1..nverts
            relabel = {}
            idx = 0
            m = support
            while m:
                low = m & -m
                relabel[low.bit_length() - 1] = idx
                idx += 1
                m ^= low
            normed = []
            for e in edges:
                out = 0
                mm = e
                while mm:
                    low = mm & -mm
                    out |= 1 << relabel[low.bit_length() - 1]
                    mm ^= low
                normed.append(out)
            g = Hypergraph(nverts, 3, tuple(sorted(normed)))
            found[(nverts, canonical_code(nverts, g.edges))] = g
    # minimality: drop members containing another member as a subgraph
    keys = sorted(found, key=lambda k: (len(found[k].edges), k))
    minimal = []
    for k in keys:
        g = found[k]
        if any(is_subgraph(m, g) for m in minimal):
            continue
        minimal.append(g)
    return minimal


def test_k_family_33_member_count_cross_checked():
    fam = k_family(3, 3)
    oracle = _k33_member_oracle()
    assert len(fam) == len(oracle) == 4
    for m in fam:
        assert any(are_isomorphic(m, o) for o in oracle)


def test_k_family_members_cover_a_set():
    for r, ell in [(2, 2), (2, 3), (3, 3)]:
        for m in k_family(r, ell):
            assert m.size <= math.comb(ell + 2, 2)
            covered_sets = 0
            for s in itertools.combinations(range(1, m.n + 1), ell + 1):
                if all(
                    any(mask_of(p) & e == mask_of(p) for e in m.edges)
                    for p in itertools.combinations(s, 2)
                ):
                    covered_sets += 1
            assert covered_sets >= 1


def test_perturb_examples():
    t = turan_hypergraph(9, 3, 3)
    assert perturb(t, 0.0, 0, seed=1) == t
    assert perturb(t, 1.0, 0, seed=1).size == 0
    assert perturb(t, 0.1, 0, seed=7).size == 25  # floor(0.1 * 27) = 2 deleted
    assert perturb(t, 0.1, 0, seed=7) == perturb(t, 0.1, 0, seed=7)
    assert perturb(t, 0.1, 0, seed=7) != perturb(t, 0.1, 0, seed=8)
    with pytest.raises(ValueError):
        perturb(t, 1.5, 0, seed=1)


def test_perturb_additions():
    t = turan_hypergraph(6, 3, 3)
    grown = perturb(t, 0.0, 3, seed=2)
    assert grown.size == t.size + 3
    assert set(t.edges) <= set(grown.edges)
    # cancellativity-preserving additions never break the predicate
    safe = perturb(t, 0.2, 5, seed=3, keep_cancellative=True)
    assert is_cancellative(safe)


def test_perturb_keep_cancellative_needs_a_3_graph(monkeypatch):
    k222 = auxiliary_graph(turan_hypergraph(6, 3, 3))
    assert (k222.size, perturb(k222, 0.0, 3, seed=1).size) == (12, 15)  # without the flag, any pair goes in
    # rejected before any random draw
    monkeypatch.setattr(random, "Random", None)
    with pytest.raises(ValueError, match="3-graphs only, got r = 2"):
        perturb(k222, 0.0, 3, seed=1, keep_cancellative=True)


def _perturb_keep_cancellative_oracle(h, delete_fraction, add_count, seed):
    """keep_cancellative perturb that builds and checks a new graph per candidate."""
    rng = random.Random(seed)
    edges = list(h.edges)
    kill = int(delete_fraction * len(edges))
    doomed = set(rng.sample(range(len(edges)), kill)) if kill else set()
    kept = [e for i, e in enumerate(edges) if i not in doomed]
    if add_count:
        absent = [e for e in all_r_subsets(h.n, 3) if e not in set(kept)]
        rng.shuffle(absent)
        added = 0
        for e in absent:
            if added == add_count:
                break
            if is_cancellative(Hypergraph(h.n, 3, tuple(kept + [e]))):
                kept.append(e)
                added += 1
    return Hypergraph(h.n, 3, tuple(kept))


def test_perturb_keep_cancellative_matches_rebuild_oracle():
    k4 = Hypergraph.from_edges(6, 3, itertools.combinations(range(1, 5), 3))  # K_4^(3): not cancellative
    assert not is_cancellative(k4)
    # a non-cancellative remainder gets no additions
    assert perturb(k4, 0.0, 5, seed=1, keep_cancellative=True) == k4
    # deleting two of the four triples leaves a cancellative graph, which grows
    grown = perturb(k4, 0.5, 3, seed=1, keep_cancellative=True)
    assert grown.size == 5 and is_cancellative(grown)
    bases = [k4, turan_hypergraph(7, 3, 3), turan_hypergraph(9, 3, 3), random_maximal_cancellative(8, 2)]
    rng = random.Random(11)
    bases += [Hypergraph(8, 3, tuple(e for e in all_r_subsets(8, 3) if rng.random() < p)) for p in (0.05, 0.2)]
    for base in bases:
        for frac, add, seed in itertools.product((0.0, 0.3, 0.7), (0, 2, 6), (0, 5)):
            assert perturb(base, frac, add, seed, keep_cancellative=True) == _perturb_keep_cancellative_oracle(
                base, frac, add, seed
            )


def test_random_maximal_cancellative():
    single = random_maximal_cancellative(3, seed=0)
    assert single.size == 1
    for seed in range(5):
        h = random_maximal_cancellative(9, seed=seed)
        assert is_cancellative(h)
        assert h.size <= 27  # the proven extremal ceiling
        # maximality: no absent triple is addable
        state = _CancellativeState(9)
        for e in h.edges:
            state.add(e)
        for e in all_r_subsets(9, 3):
            if e not in h.edges:
                assert not state.addable(e)
    assert random_maximal_cancellative(8, 4) == random_maximal_cancellative(8, 4)


def test_triangle_free_generator():
    g = random_triangle_free_near_bipartite(12, 0.0, 0, seed=1)
    assert g.size == 36  # exactly complete balanced bipartite at eps = 0
    left = set(range(1, 7))
    for e in g.edges:
        vs = set(vertices_of(e))
        assert len(vs & left) == 1
    g = random_triangle_free_near_bipartite(12, 0.05, 0, seed=1)
    assert g.size == round((0.25 - 0.05) * 144)
    for seed in range(6):
        g = random_triangle_free_near_bipartite(14, 0.03, 10, seed=seed)
        assert not contains_clique(g, 3)
        assert g.size == round((0.25 - 0.03) * 196)
    with pytest.raises(ValueError):
        random_triangle_free_near_bipartite(10, -0.5, 0, seed=1)  # target above max


def test_generator_determinism():
    a = random_triangle_free_near_bipartite(16, 0.02, 8, seed=9)
    b = random_triangle_free_near_bipartite(16, 0.02, 8, seed=9)
    assert a == b
