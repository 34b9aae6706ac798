"""Stability extractors: recovery on exact instances, recounts, and the analyzer."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turanlab.stability as stability_mod
from turanlab.checkers import _Incidence, is_k_free
from turanlab.cli import run
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
    iter_bits,
    iter_cliques,
    mask_of,
    save_hypergraph,
    vertices_of,
)
from turanlab.partitions import Partition, bad_edges
from turanlab.stability import (
    _colink_masses,
    bipartite_distance_analysis,
    epsilon_delta_scan,
    extract_partition_cancellative,
    extract_partition_generalized,
    extract_partition_kfree,
    greedy_clique_removal,
    lemma25_pair,
)

from oracles import bad_edges_by_edge, colink_masses


def canonical_tripartition(n):
    return {frozenset(b) for b in balanced_partition(n, 3)}


def test_cancellative_extractor_recovers_tripartition():
    for n in range(6, 22):
        rep = extract_partition_cancellative(turan_hypergraph(n, 3, 3))
        assert rep.bad_edge_count == 0
        assert rep.delta == 0.0
        assert set(map(frozenset, rep.partition.blocks)) == canonical_tripartition(n)
        assert not rep.degenerate


def test_cancellative_extractor_single_triple():
    rep = extract_partition_cancellative(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    assert rep.bad_edge_count == 0
    assert sorted(len(b) for b in rep.partition.blocks) == [1, 1, 1]
    # the pair link always contains T itself, so the chain never degenerates
    assert not rep.degenerate
    assert rep.witness_chain["pair_link_size"] >= 1


def test_cancellative_extractor_preconditions():
    with pytest.raises(ValueError):
        extract_partition_cancellative(Hypergraph(4, 3, ()))
    # the message every cancellative precondition gives
    with pytest.raises(ValueError, match="^precondition failed: input is not cancellative$"):
        extract_partition_cancellative(
            Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
        )


def test_cancellative_extractor_asserts_independent_blocks(monkeypatch, tmp_path, capsys):
    # V2 = {1, 4} holds two vertices of the edge {1, 4, 7} of T3(9)
    monkeypatch.setattr(stability_mod, "lemma25_pair", lambda g: (1, 2, frozenset({1, 4}), frozenset({2, 5})))
    h = turan_hypergraph(9, 3, 3)
    with pytest.raises(AssertionError, match="V2 and V3 must be independent in H"):
        extract_partition_cancellative(h)
    path = tmp_path / "t9.txt"
    save_hypergraph(str(path), h)
    assert run(["stability", "cancellative", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "violation: V2 and V3 must be independent in H\n"


def test_stability_measures_need_vertices():
    for call in (
        lambda: extract_partition_kfree(Hypergraph(0, 3, ()), 3),
        lambda: extract_partition_generalized(Hypergraph(0, 2, ()), 3, 3),
        lambda: bipartite_distance_analysis(Hypergraph(0, 2, ())),
    ):
        with pytest.raises(ValueError, match="need n >= 1, got n = 0"):
            call()


def test_cancellative_extractor_perturbed_recount():
    for seed in (1, 7, 23):
        h = perturb(turan_hypergraph(12, 3, 3), 0.1, 0, seed=seed)
        rep = extract_partition_cancellative(h)
        recount = len(bad_edges(h, rep.partition))
        assert recount == rep.bad_edge_count
        assert rep.delta == recount / 12**3
        assert rep.epsilon == 1.0 - h.size / turan_count(12, 3, 3)


def test_colink_masses_match_vertex_link_oracle():
    rng = random.Random(97)
    inputs = [perturb(turan_hypergraph(30, 3, 3), 0.05, 0, 3), turan_hypergraph(12, 3, 3)]
    for _ in range(80):
        n, p = rng.randint(3, 11), rng.uniform(0.05, 1)
        inputs.append(Hypergraph(n, 3, tuple(m for m in all_r_subsets(n, 3) if rng.random() < p)))
    for h in inputs:
        ix = _Incidence(h)
        assert _colink_masses(ix) == colink_masses(h)


def test_colink_masses_exceed_a_single_field():
    # in K_12^(3) every mass is 10 * 55 + 90 * 45 = 4600, while a field of
    # one packed column sum needs only w = (n |shadow|).bit_length() = 10
    # bits; the reduction mod 2^w - 1 must use a w that holds the whole mass
    h = Hypergraph.from_edges(12, 3, itertools.combinations(range(1, 13), 3))
    ix = _Incidence(h)
    assert (h.n * len(ix.ts)).bit_length() == 10
    assert _colink_masses(ix) == colink_masses(h) == [4600] * 66


def test_kfree_extractor():
    for n in (9, 12, 21):
        h = turan_hypergraph(n, 3, 3)
        rep = extract_partition_kfree(h, 3, seed=5)
        assert rep.bad_edge_count == 0
        assert rep.delta == 0.0
    # deletions cannot create bad edges under an exact cut
    h = perturb(turan_hypergraph(9, 3, 3), 0.1, 0, seed=7)
    rep = extract_partition_kfree(h, 3, seed=0)
    assert rep.bad_edge_count == 0
    with pytest.raises(ValueError):
        extract_partition_kfree(
            Hypergraph.from_edges(4, 3, list(itertools.combinations(range(1, 5), 3))), 3
        )


def test_kfree_extractor_planted_triple_paths():
    from turanlab.checkers import is_k_free

    # two deletions cannot pay for a within-block triple at n = 9: every
    # within-block pair completes a forbidden 4-set, so the precondition trips
    t = turan_hypergraph(9, 3, 3)
    kept = tuple(e for e in t.edges if e not in (t.edges[0], t.edges[5]))
    h = Hypergraph(9, 3, kept + (mask_of((1, 2, 4)),))
    assert not is_k_free(h, 3)
    with pytest.raises(ValueError):
        extract_partition_kfree(h, 3, seed=2)

    # stripping vertex 1 down to the planted triple keeps freeness; the
    # exact cut may then reassign vertex 1 so even the planted triple ends
    # up transversal -- the recount, not a fixed count, is the contract
    t6 = turan_hypergraph(6, 3, 3)
    doomed = {mask_of(e) for e in [(1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6)]}
    kept6 = tuple(e for e in t6.edges if e not in doomed)
    h6 = Hypergraph(6, 3, kept6 + (mask_of((1, 2, 4)),))
    assert is_k_free(h6, 3)
    rep = extract_partition_kfree(h6, 3, seed=2)
    assert rep.bad_edge_count == len(bad_edges(h6, rep.partition)) <= 1


def test_chosen_shadow_pair_score_near_extremal():
    # with k of 8000 edges deleted, eps = k/8000 and the maximizing T must
    # reach normalized co-link mass >= 1 - 100*eps
    base = turan_hypergraph(60, 3, 3)
    for k, seed in [(1, 3), (4, 5), (8, 11)]:
        h = perturb(base, k / 8000 + 1e-12, 0, seed=seed)
        assert h.size == 8000 - k
        rep = extract_partition_cancellative(h)
        eps = 1.0 - h.size / 8000
        assert rep.witness_chain["score"] >= 1.0 - 100.0 * eps - 1e-9


def test_lemma25_pair_examples():
    k33 = Hypergraph.from_edges(6, 2, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    x, y, nx, ny = lemma25_pair(k33)
    assert len(nx) + len(ny) == 6
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    x, y, nx, ny = lemma25_pair(c5)
    assert len(nx) + len(ny) == 4
    star = Hypergraph.from_edges(6, 2, [(1, v) for v in range(2, 7)])
    x, y, nx, ny = lemma25_pair(star)
    assert len(nx) + len(ny) == 6
    with pytest.raises(ValueError):
        lemma25_pair(Hypergraph(4, 2, ()))
    with pytest.raises(ValueError):
        lemma25_pair(Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)]))


def test_greedy_clique_removal():
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    cleaned, removed = greedy_clique_removal(c5, 3)
    assert removed == [] and cleaned == c5
    k4 = Hypergraph.from_edges(4, 2, itertools.combinations(range(1, 5), 2))
    cleaned, removed = greedy_clique_removal(k4, 3)
    assert len(removed) == 1
    assert not contains_clique(cleaned, 4)
    two_k4 = Hypergraph.from_edges(
        8,
        2,
        list(itertools.combinations(range(1, 5), 2)) + list(itertools.combinations(range(5, 9), 2)),
    )
    cleaned, removed = greedy_clique_removal(two_k4, 3)
    assert len(removed) == 2
    assert not contains_clique(cleaned, 4)


def greedy_clique_removal_oracle(g, ell):
    """Reference greedy removal: a new graph and its adjacency every round."""
    edges = set(g.edges)
    removed = []
    full = (1 << g.n) - 1
    while True:
        cur = Hypergraph(g.n, 2, tuple(sorted(edges)))
        adj = [0] * g.n
        for e in cur.edges:
            i, j = iter_bits(e)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        cliques = [vertices_of(c) for c in iter_cliques(adj, full, ell + 1)]
        if not cliques:
            return cur, removed
        load = {}
        for cl in cliques:
            for p in itertools.combinations(sorted(cl), 2):
                load[p] = load.get(p, 0) + 1
        victim = min(load, key=lambda p: (-load[p], p))
        edges.discard(mask_of(victim))
        removed.append(victim)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.sampled_from([0.3, 0.6, 0.8, 1.0]), st.integers(2, 4), st.integers(0, 2**32))
def test_greedy_clique_removal_matches_rebuild_oracle(n, density, ell, seed):
    rng = random.Random(seed)
    g = Hypergraph(n, 2, tuple(m for m in all_r_subsets(n, 2) if rng.random() < density))
    cleaned, removed = greedy_clique_removal(g, ell)
    want, want_removed = greedy_clique_removal_oracle(g, ell)
    assert removed == want_removed
    assert cleaned == want
    assert cleaned.adjacency == want.adjacency and not contains_clique(cleaned, ell + 1)


def test_greedy_clique_removal_index_matches_rebuild_oracle_on_turan_plus_edges():
    # many cliques share each added edge, so loads tie and fall over many rounds
    base = turan_hypergraph(24, 2, 3)
    rng = random.Random(5)
    absent = sorted(set(all_r_subsets(24, 2)) - set(base.edges))
    g = Hypergraph(24, 2, base.edges + tuple(rng.sample(absent, 30)))
    for ell in (2, 3):
        cleaned, removed = greedy_clique_removal(g, ell)
        want, want_removed = greedy_clique_removal_oracle(g, ell)
        assert removed == want_removed and cleaned == want
    assert len(removed) > 10


def test_greedy_clique_removal_rejects_ell_below_one(monkeypatch):
    k3 = Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)])
    cleaned, removed = greedy_clique_removal(k3, 1)  # K_2 = an edge: every edge goes
    assert cleaned.size == 0 and removed == [(1, 2), (1, 3), (2, 3)]
    # rejected before any clique listing
    monkeypatch.setattr(stability_mod, "iter_cliques", None)
    for ell in (0, -1):
        with pytest.raises(ValueError, match="ell must be >= 1"):
            greedy_clique_removal(k3, ell)


def test_generalized_pipeline():
    g = auxiliary_graph(turan_hypergraph(12, 3, 3))
    rep = extract_partition_generalized(g, 3, 3, seed=1)
    assert rep.epsilon == 0.0
    assert rep.bad_edge_count == 0
    assert rep.witness_chain["removed_edges"] == []
    # one internal edge: at most one bad edge after the cut
    g2 = Hypergraph(12, 2, g.edges + (mask_of((1, 2)),))
    rep = extract_partition_generalized(g2, 3, 3, seed=1)
    assert rep.bad_edge_count <= 1
    empty = Hypergraph(8, 2, ())
    rep = extract_partition_generalized(empty, 3, 3, seed=1)
    assert rep.epsilon == 1.0 and rep.delta == 0.0
    with pytest.raises(ValueError):
        extract_partition_generalized(g, 3, 2, seed=1)


def test_bipartite_distance_k55():
    k55 = Hypergraph.from_edges(10, 2, [(u, v) for u in range(1, 6) for v in range(6, 11)])
    rep = bipartite_distance_analysis(k55, seed=0)
    assert not rep.bad_edge_list
    assert rep.missing_count == 0
    assert rep.epsilon == 0.0 and rep.delta == 0.0
    assert all(rep.verified.values())


def test_bipartite_distance_c5():
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    rep = bipartite_distance_analysis(c5, seed=0)
    assert len(rep.bad_edge_list) == 1  # exact 2-cut is 4 of 5 edges
    sizes = sorted(len(b) for b in rep.partition.blocks)
    assert sizes == [2, 3]
    # the operation's own arithmetic: missing = |V1||V2| - crossing
    assert rep.missing_count == 6 - 4
    assert all(rep.verified.values())
    with pytest.raises(ValueError):
        bipartite_distance_analysis(
            Hypergraph.from_edges(3, 2, [(1, 2), (1, 3), (2, 3)]), seed=0
        )


def test_bipartite_distance_generator_instances():
    for seed in range(6):
        g = random_triangle_free_near_bipartite(24, 0.02, 12, seed=seed)
        rep = bipartite_distance_analysis(g, seed=seed)
        assert all(rep.verified.values()), rep.verified
        assert rep.case in (1, 2)
        # measured quantities recompute from the partition
        assert len(rep.bad_edge_list) == len(bad_edges(g, rep.partition))
        assert rep.delta == len(rep.bad_edge_list) / (24 * 24)


def test_scan_rows():
    rows = epsilon_delta_scan("cancellative", [9, 12], [0.0, 0.1], [1, 2])
    assert len(rows) == 8
    zero = [r for r in rows if r.epsilon == 0.0]
    assert zero and all(r.delta == 0.0 and r.bad_edges == 0 for r in zero)
    again = epsilon_delta_scan("cancellative", [9, 12], [0.0, 0.1], [1, 2])
    assert rows == again
    tri = epsilon_delta_scan("triangle-free", [16], [0.02], [3, 4], noise=8)
    assert len(tri) == 2 and all(r.case in ("1", "2") for r in tri)
    kf = epsilon_delta_scan("kfree", [9], [0.1], [5])
    assert len(kf) == 1 and kf[0].case == ""
    with pytest.raises(ValueError):
        epsilon_delta_scan("nope", [9], [0.1], [5])


# ---------------------------------------------------------------------------
# Exact stability oracle: the fewest bad edges over all 3-partitions


def min_bad_3partition(h):
    """Fewest bad edges of a 3-graph over all 3-partitions of [n].

    Empty blocks are allowed; they never lower the minimum, as moving a
    vertex out of a shared block into an empty one makes no edge bad.

    Vertices are placed in label order and blocks are opened in order, so
    each partition is visited once up to block names.  An edge is judged
    when its largest vertex is placed; a branch stops once it has as many
    bad edges as the best complete partition so far.
    """
    closing = [[] for _ in range(h.n)]
    for e in h.edges:
        a, b, c = iter_bits(e)
        closing[c].append((a, b))
    best = h.size + 1
    assign = [0] * h.n

    def rec(v, used, bad):
        nonlocal best
        if bad >= best:
            return
        if v == h.n:
            best = bad
            return
        for k in range(min(used + 1, 3)):
            assign[v] = k
            newly = sum(1 for a, b in closing[v] if k in (assign[a], assign[b]) or assign[a] == assign[b])
            rec(v + 1, max(used, k + 1), bad + newly)

    rec(0, 0, 0)
    return best


@st.composite
def graphs_and_partitions(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    edges = draw(st.sets(st.sampled_from(all_r_subsets(n, r))))
    k = draw(st.integers(2, min(4, n)))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    blocks = tuple(tuple(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
    return Hypergraph(n, r, tuple(edges)), Partition(n, blocks)


@settings(max_examples=200, deadline=None)
@given(graphs_and_partitions())
def test_bad_edges_matches_per_edge_oracle(case):
    h, part = case
    assert bad_edges(h, part) == bad_edges_by_edge(h, part)


@st.composite
def labeled_partitions(draw):
    # the first min(n, k) labels drawn open one block each, so a block is
    # empty only when n < k; labels within a block come in drawn order
    n = draw(st.integers(0, 9))
    k = draw(st.integers(1, 4))
    labels = draw(st.permutations(range(1, n + 1)))
    rest = max(n - k, 0)
    assign = [*range(min(n, k)), *draw(st.lists(st.integers(0, k - 1), min_size=rest, max_size=rest))]
    return n, [[v for v, b in zip(labels, assign) if b == c] for c in range(k)]


@settings(max_examples=200, deadline=None)
@given(labeled_partitions())
def test_partition_masks_and_index_match_blocks(case):
    n, blocks = case
    part = Partition(n, tuple(map(tuple, blocks)))
    assert part.blocks == tuple(tuple(sorted(blk)) for blk in blocks)
    assert part.masks == tuple(mask_of(blk) for blk in blocks)
    assert part.block_index() == [next(b for b, blk in enumerate(blocks) if v in blk) for v in range(1, n + 1)]


def test_partition_label_below_one_raises():
    with pytest.raises(ValueError, match=r"^label 0 out of range 1\.\.3$"):
        Partition(3, ((0, 1), (2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_min_bad_3partition_matches_enumeration(n, density, seed):
    rng = random.Random(seed)
    h = Hypergraph(n, 3, tuple(e for e in all_r_subsets(n, 3) if rng.random() < density))
    every = (
        Partition(n, tuple(tuple(v + 1 for v in range(n) if a[v] == k) for k in range(3)))
        for a in itertools.product(range(3), repeat=n)
        if n < 3 or len(set(a)) == 3
    )
    want = min((len(bad_edges(h, part)) for part in every), default=0)
    assert min_bad_3partition(h) == want


def _stability_oracle_rows(inputs):
    """(optimum, cancellative extractor's bad count, k-free extractor's or None) per input.

    Asserts, for each extractor: delta <= epsilon in integers, that is
    bad * t_3(n) <= (t_3(n) - |H|) * n^3, and that no 3-partition beats the
    optimum.  The k-free extractor runs where its precondition holds.
    """
    rows = []
    for h in inputs:
        t3 = turan_count(h.n, 3, 3)
        opt = min_bad_3partition(h)
        canc = extract_partition_cancellative(h).bad_edge_count
        kfree = extract_partition_kfree(h, 3, seed=h.n).bad_edge_count if is_k_free(h, 3) else None
        for bad in (canc, kfree):
            if bad is not None:
                assert bad * t3 <= (t3 - h.size) * h.n**3
                assert opt <= bad
        rows.append((opt, canc, kfree))
    return rows


def _gap_record(rows):
    """(inputs, not 3-partite, cancellative gaps, k-free runs, k-free gaps)."""
    return (
        len(rows),
        sum(opt > 0 for opt, _, _ in rows),
        sum(canc > opt for opt, canc, _ in rows),
        sum(kfree is not None for _, _, kfree in rows),
        sum(kfree is not None and kfree > opt for opt, _, kfree in rows),
    )


# The recorded extractor-versus-optimum gaps, as _gap_record tuples.  They pin
# today's extractors: a sharper extractor changes them, and must say so.
# random_maximal_cancellative(n, seed), n = 7..9, seeds 0..11
RMC_GAPS = (36, 22, 19, 27, 1)
# perturb(T_3(n), 0.7, 4, seed, keep_cancellative=True), n = 7..10, seeds 0..3
PERTURBED_GAPS = (16, 8, 9, 11, 3)


def test_stability_oracle_random_maximal_cancellative():
    rows = _stability_oracle_rows(
        [random_maximal_cancellative(n, seed) for n in (7, 8, 9) for seed in range(12)]
    )
    assert _gap_record(rows) == RMC_GAPS
    _stability_oracle_rows([random_maximal_cancellative(10, seed) for seed in range(3)])


def test_stability_oracle_perturbed_keep_cancellative():
    rows = _stability_oracle_rows(
        [
            perturb(turan_hypergraph(n, 3, 3), 0.7, 4, seed, keep_cancellative=True)
            for n in (7, 8, 9, 10)
            for seed in range(4)
        ]
    )
    assert _gap_record(rows) == PERTURBED_GAPS
