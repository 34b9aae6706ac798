"""Predicates and inequality certificates on spec instances and random runs."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab import checkers, stability
from turanlab.checkers import (
    _CancellativeState,
    _first_witness,
    _mantel_caps_hold,
    _Incidence,
    cancellative_witness,
    fisher_ryan_certificate,
    inequality2_certificate,
    is_cancellative,
    is_k_free,
    link_count_identity,
    links_triangle_free,
    mantel_link_bound,
    neighborhoods_independent,
    theorem13_certificate,
)
from turanlab.constructions import (
    perturb,
    random_maximal_cancellative,
    random_triangle_free_near_bipartite,
    turan_hypergraph,
)
from turanlab.hypergraph import (
    Hypergraph,
    PairCover,
    all_r_subsets,
    auxiliary_graph,
    contains_clique,
    has_clique,
    iter_bits,
    mask_of,
    vertices_of,
)
from turanlab.stability import (
    _colink_masses,
    bipartite_distance_analysis,
    extract_partition_cancellative,
    extract_partition_kfree,
    greedy_clique_removal,
    lemma25_pair,
)

from oracles import (
    CancellativeStateByColink,
    colink_masses,
    columns_by_bit,
    first_witness_by_scan,
    is_subgraph,
    k_family,
    link_sets,
    mantel_caps_by_incidence,
    neighborhoods_independent_by_pair,
    partner_covered_by_bit,
    permute_hypergraph,
    shadow_neighborhoods,
)


def random_hypergraph(n, r, p, rng):
    return Hypergraph(n, r, tuple(m for m in all_r_subsets(n, r) if rng.random() < p))


def all_cancellative_on_5():
    triples = all_r_subsets(5, 3)
    out = []
    for bits in range(1 << len(triples)):
        edges = tuple(t for i, t in enumerate(triples) if bits >> i & 1)
        h = Hypergraph(5, 3, edges)
        if is_cancellative(h):
            out.append(h)
    return out


def test_is_cancellative_examples():
    bad = Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
    w = cancellative_witness(bad)
    assert w is not None
    a, b, c = (set(t) for t in w)
    assert (a ^ b) <= c
    assert is_cancellative(turan_hypergraph(6, 3, 3))
    assert is_cancellative(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    with pytest.raises(ValueError):
        is_cancellative(Hypergraph.from_edges(3, 2, [(1, 2)]))
    with pytest.raises(ValueError):
        is_cancellative(Hypergraph.from_edges(4, 4, [(1, 2, 3, 4)]))


def test_cancellative_equals_neighborhoods_independent():
    # the witness instance has 3, 4 co-neighbored at T = {1,2} and covered by an edge
    bad = Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
    assert not neighborhoods_independent(bad)
    # exhaustive on 5 vertices, then random at larger n
    for h in all_cancellative_on_5():
        assert neighborhoods_independent(h)
    rng = random.Random(17)
    checked_diff = 0
    for _ in range(300):
        h = random_hypergraph(rng.randint(4, 9), 3, rng.uniform(0.05, 0.3), rng)
        assert is_cancellative(h) == neighborhoods_independent(h)
        checked_diff += 1
    assert checked_diff == 300


def test_cancellative_implies_links_triangle_free():
    lemma_instance = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert not links_triangle_free(lemma_instance)  # triangle in the link of 1
    assert links_triangle_free(Hypergraph(4, 3, ()))
    rng = random.Random(23)
    for _ in range(200):
        h = random_hypergraph(rng.randint(4, 9), 3, rng.uniform(0.05, 0.3), rng)
        if is_cancellative(h):
            assert links_triangle_free(h)


def test_is_k_free_examples():
    t9 = turan_hypergraph(9, 3, 3)
    assert is_k_free(t9, 3)
    # adding any absent triple creates a forbidden configuration
    present = set(t9.edges)
    for e in all_r_subsets(9, 3):
        if e not in present:
            assert not is_k_free(Hypergraph(9, 3, t9.edges + (e,)), 3)
    single = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    assert is_k_free(single, 3)


def is_k_free_direct(h, members):
    """Cross-validation path: embed the minimal pair-cover members directly."""
    return not any(is_subgraph(f, h) for f in members)


def test_is_k_free_cross_validation():
    rng = random.Random(31)
    members = k_family(3, 3)
    for _ in range(120):
        n = rng.randint(4, 7)
        h = random_hypergraph(n, 3, rng.uniform(0.05, 0.35), rng)
        assert is_k_free(h, 3) == is_k_free_direct(h, members)
    # ell = 4 on hosts up to 6 vertices, against the capped family
    members = k_family(3, 4, max_vertices=6)
    for _ in range(60):
        h = random_hypergraph(6, 3, rng.uniform(0.1, 0.5), rng)
        assert is_k_free(h, 4) == is_k_free_direct(h, members)


def test_is_k_free_matches_pair_coverage_scan():
    # independent oracle: an (ell+1)-set with all pairs covered
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(5, 7)
        ell = rng.choice([3, 4])
        h = random_hypergraph(n, 3, rng.uniform(0.1, 0.5), rng)
        covered_somewhere = False
        for s in itertools.combinations(range(1, n + 1), ell + 1):
            if all(
                any(mask_of(p) & e == mask_of(p) for e in h.edges)
                for p in itertools.combinations(s, 2)
            ):
                covered_somewhere = True
                break
        assert is_k_free(h, ell) == (not covered_somewhere)


def test_fisher_ryan_examples():
    for ell in (2, 3, 4):
        kl = Hypergraph.from_edges(ell, 2, itertools.combinations(range(1, ell + 1), 2))
        rep = fisher_ryan_certificate(kl, ell)
        assert rep.holds
        assert all(abs(c - 1.0) < 1e-12 for c in rep.quantities["chain"])
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    rep = fisher_ryan_certificate(c5, 2)
    assert rep.holds
    assert abs(rep.quantities["chain"][1] - math.sqrt(5)) < 1e-12
    assert abs(rep.quantities["chain"][0] - 2.5) < 1e-12
    k222 = auxiliary_graph(turan_hypergraph(6, 3, 3))
    rep = fisher_ryan_certificate(k222, 3)
    assert rep.holds
    assert all(abs(c - 2.0) < 1e-12 for c in rep.quantities["chain"])
    # K_{m,m,m} with ell = 3: k = (3m, 3m^2, m^3), so c_1 = c_2 = c_3 = m
    # exactly and every step of the chain is decided at equality
    for m in range(1, 8):
        rep = fisher_ryan_certificate(turan_hypergraph(3 * m, 2, 3), 3)
        assert rep.holds and rep.witness is None
        assert rep.quantities["clique_counts"] == [3 * m, 3 * m * m, m**3]
    k4 = Hypergraph.from_edges(4, 2, itertools.combinations(range(1, 5), 2))
    with pytest.raises(ValueError):
        fisher_ryan_certificate(k4, 3)


def test_fisher_ryan_random_free_graphs():
    rng = random.Random(41)
    for _ in range(150):
        ell = rng.choice([2, 3, 4])
        n = rng.randint(4, 12)
        g = random_hypergraph(n, 2, rng.uniform(0.2, 0.6), rng)
        gfree, _ = greedy_clique_removal(g, ell)
        rep = fisher_ryan_certificate(gfree, ell)
        assert rep.holds, rep.quantities


def test_link_count_identity():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4)])
    rep = link_count_identity(h)
    assert rep.holds
    rng = random.Random(43)
    for _ in range(250):
        h = random_hypergraph(rng.randint(3, 9), 3, rng.uniform(0.05, 0.5), rng)
        assert link_count_identity(h).holds


def test_inequality2_tight_single_triple():
    h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    rep = inequality2_certificate(h)
    assert rep.holds
    assert rep.quantities["lhs"] == "3/1"
    assert rep.quantities["rhs"] == 3


def test_inequality2_on_structured_and_random():
    assert inequality2_certificate(turan_hypergraph(6, 3, 3)).holds
    assert inequality2_certificate(turan_hypergraph(9, 3, 3)).holds
    for seed in range(5):
        h = random_maximal_cancellative(9, seed)
        assert inequality2_certificate(h).holds
    with pytest.raises(ValueError):
        inequality2_certificate(
            Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5)])
        )
    rep = inequality2_certificate(Hypergraph(4, 3, ()))
    assert rep.holds and rep.vacuous


def test_theorem13_certificate():
    t9 = turan_hypergraph(9, 3, 3)
    rep = theorem13_certificate(t9)
    assert rep.holds
    # hand oracle: 3|H|/|shadow| = 3, so z = 3/(9-3) = 1/2, where
    # z/(6(z+1)(2z^2+1)) attains its maximum 1/27 and the size bound is tight
    assert rep.quantities["z"] == "1/2"
    assert rep.quantities["size_bound_float"] == 27.0
    assert rep.quantities["edges"] == 27 == (9 // 3) ** 3
    single = theorem13_certificate(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    assert single.holds
    assert single.quantities["z"] == "1/2"
    for seed in range(4):
        assert theorem13_certificate(random_maximal_cancellative(8, seed)).holds
    rep = theorem13_certificate(Hypergraph(3, 3, ()))
    assert rep.holds and rep.vacuous


def test_mantel_link_bound(monkeypatch):
    t9 = turan_hypergraph(9, 3, 3)
    rep = mantel_link_bound(t9)
    assert rep.holds
    assert rep.quantities["max_pair_link"] == 9  # (n - d)^2 / 4 = 9, attained
    single = mantel_link_bound(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
    assert single.holds
    assert single.quantities["max_pair_link"] == 1
    assert mantel_link_bound(Hypergraph(4, 3, ())).vacuous
    for seed in range(4):
        assert mantel_link_bound(random_maximal_cancellative(8, seed)).holds
    # the cap test is an explicit raise, kept under python -O
    monkeypatch.setattr(checkers, "_mantel_caps_hold", lambda ix: False)
    with pytest.raises(AssertionError, match="Mantel cap"):
        mantel_link_bound(t9)


def test_certificates_on_all_cancellative_5_vertex():
    for h in all_cancellative_on_5():
        assert inequality2_certificate(h).holds
        assert theorem13_certificate(h).holds
        assert mantel_link_bound(h).holds


def test_witness_present_iff_fails():
    good = inequality2_certificate(turan_hypergraph(6, 3, 3))
    assert good.holds and good.witness is None
    bad_links = Hypergraph.from_edges(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    w = cancellative_witness(bad_links)
    assert w is not None


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 8),
    # each step adds the i-th triple (mod their count) or removes the i-th current edge
    st.lists(st.tuples(st.sampled_from(["add", "add", "add", "remove"]), st.integers(0, 1000)), max_size=40),
)
def test_incremental_state_matches_direct_checker(n, steps):
    index = {mask_of(p): (p[0] - 1) * n + p[1] - 1 for p in itertools.combinations(range(1, n + 1), 2)}

    def assert_tables_match(state, current):
        # per-vertex link masks (bit j*n + k for the pair {j, k}, j < k), N(T)
        # masks by pair index, positive co-link counts and the pair-cover
        # adjacency the state reads off the N(T) masks, recomputed from the edges
        h = Hypergraph(n, 3, tuple(current))
        sh = shadow_neighborhoods(h)
        nbrs = [0] * (n * n)
        for t, vs in sh.items():
            nbrs[index[t]] = mask_of(vs)
        assert state.nbrs == nbrs
        assert state.adj == list(h.adjacency)
        assert state.link == [sum(1 << index[t] for t in lk) for lk in link_sets(h)]
        colink = Counter(mask_of(p) for vs in sh.values() for p in itertools.combinations(vs, 2))
        counts = Counter(
            {(1 << a) | (1 << b): (state.link[a] & state.link[b]).bit_count() for a, b in itertools.combinations(range(n), 2)}
        )
        assert +counts == colink

    state = _CancellativeState(n)
    current = []
    cands = all_r_subsets(n, 3)
    for op, i in steps:
        if op == "remove":
            if current:
                victim = current[i % len(current)]
                state.remove(victim)
                current.remove(victim)
                assert_tables_match(state, current)
            continue
        e = cands[i % len(cands)]
        if e in current:
            continue
        ok = state.addable(e)
        direct = is_cancellative(Hypergraph(n, 3, tuple(current + [e])))
        assert ok == direct, (n, current, e)
        if ok:
            state.add(e)
            current.append(e)
            assert_tables_match(state, current)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 9),
    # each step adds the i-th triple (mod their count) when it is addable, or
    # removes the i-th current edge
    st.lists(st.tuples(st.sampled_from(["add", "add", "add", "remove"]), st.integers(0, 1000)), max_size=40),
)
def test_link_state_matches_colink_oracle(n, steps):
    # the link-bit state answers addable as the co-link counting state it
    # replaced, for every triple after every step
    from turanlab.checkers import _CancellativeState

    state, oracle = _CancellativeState(n), CancellativeStateByColink(n)
    cands = all_r_subsets(n, 3)
    current = []

    def assert_same_answers():
        assert [state.addable(t) for t in cands] == [oracle.addable(t) for t in cands], (n, current)

    assert_same_answers()
    for op, i in steps:
        if op == "remove":
            if not current:
                continue
            victim = current.pop(i % len(current))
            state.remove(victim)
            oracle.remove(victim)
        else:
            e = cands[i % len(cands)]
            if e in current or not oracle.addable(e):
                continue
            state.add(e)
            oracle.add(e)
            current.append(e)
        assert_same_answers()


# ---------------------------------------------------------------------------
# Differential tests: the per-(T, u, v) paths and the separate link and
# neighborhood tables the incidence index replaced (`link_sets` and
# `shadow_neighborhoods` in oracles.py), kept as oracles.


def _pair_cover_oracle(h):
    """Reference pair cover: every 2-subset of every edge, into a set, sorted."""
    return sorted({mask_of(p) for e in h.edges for p in itertools.combinations(vertices_of(e), 2)})


def oracle_cancellative_witness(h):
    """Group the edges by the pairs they cover; two edges A, B sharing a pair
    violate cancellativity with the first edge C covering the pair A (+) B."""
    by_pair = {}
    for e in h.edges:
        for a, b in itertools.combinations(vertices_of(e), 2):
            by_pair.setdefault(mask_of((a, b)), []).append(e)
    for _, group in sorted(by_pair.items()):
        for a, b in itertools.combinations(group, 2):
            for c in by_pair.get(a ^ b, ()):
                return (vertices_of(a), vertices_of(b), vertices_of(c))
    return None


def _link_row(ix, u):
    """row[a] = N({u, a}) read off the index's slot min * n + max, 0 off the
    shadow: the adjacency of the graph L(u)."""
    return [ix.nbrs.get(min(u, a) * ix.n + max(u, a), 0) for a in range(ix.n)]


def _pair_link_size(links, u, v):
    """|L(u, v)| from the vertex links, with |L(u, u)| = |L(u)|."""
    if u == v:
        return len(links[u - 1])
    a, b = links[u - 1], links[v - 1]
    if len(a) > len(b):
        a, b = b, a
    return sum(1 for x in a if x in b)


def _report(name, quantities, witness):
    return {
        "name": name,
        "holds": witness is None,
        "vacuous": False,
        "quantities": quantities,
        "witness": witness,
    }


def oracle_inequality2(h):
    sh = shadow_neighborhoods(h)
    links = link_sets(h)
    hist = Counter()
    for t in sorted(sh):
        for u in sh[t]:
            for v in sh[t]:
                hist[_pair_link_size(links, u, v)] += 1
    lhs = sum((Fraction(c, size) for size, c in sorted(hist.items())), Fraction(0))
    rhs = h.n * h.n - 2 * len(sh)
    lhs_str = f"{lhs.numerator}/{lhs.denominator}"
    quantities = {"n": h.n, "edges": h.size, "shadow": len(sh), "lhs": lhs_str,
                  "lhs_float": float(lhs), "rhs": rhs}
    return _report("inequality2", quantities, None if lhs <= rhs else {"lhs": lhs_str, "rhs": rhs})


def oracle_mantel_link(h):
    sh = shadow_neighborhoods(h)
    links = link_sets(h)
    checked = max_link = 0
    witness = None
    has_triangle = {}
    for t in sorted(sh):
        nmask = mask_of(sh[t])
        cap = (h.n - len(sh[t])) ** 2
        for u, v in itertools.product(sh[t], repeat=2):
            lg = frozenset(links[u - 1] if u == v else links[u - 1] & links[v - 1])
            checked += 1
            max_link = max(max_link, len(lg))
            where = {"T": vertices_of(t), "pair": [u, v]}
            if lg not in has_triangle:
                has_triangle[lg] = contains_clique(Hypergraph(h.n, 2, tuple(lg)), 3)
            if any(a & nmask for a in lg):
                witness = {"kind": "link_meets_neighborhood", **where}
            elif has_triangle[lg]:
                witness = {"kind": "link_not_triangle_free", **where}
            elif 4 * len(lg) > cap:
                witness = {"kind": "mantel_cap", **where, "link_size": len(lg), "cap": cap / 4}
            if witness:
                break
        if witness:
            break
    quantities = {"n": h.n, "edges": h.size, "shadow": len(sh),
                  "pairs_checked": checked, "max_pair_link": max_link}
    return _report("mantel-link", quantities, witness)


def oracle_link_count(h):
    counts = Counter()
    for nbrs in shadow_neighborhoods(h).values():
        for u, v in itertools.product(nbrs, repeat=2):
            counts[(u, v)] += 1
    links = link_sets(h)
    witness = None
    for u, v in itertools.product(range(1, h.n + 1), repeat=2):
        lhs, rhs = counts.get((u, v), 0), _pair_link_size(links, u, v)
        if lhs != rhs:
            witness = {"u": u, "v": v, "containment_count": lhs, "link_size": rhs}
            break
    quantities = {"n": h.n, "edges": h.size, "shadow": len(shadow_neighborhoods(h)),
                  "ordered_pairs_checked": h.n * h.n}
    return _report("link-count", quantities, witness)


def oracle_neighborhoods_independent(h):
    for t in shadow_neighborhoods(h):
        nmask = 0
        for e in h.edges:
            if e & t == t:
                nmask |= e ^ t
        for e in h.edges:
            if (e & nmask).bit_count() >= 2:
                return False
    return True


def cancellative_samples():
    """Random maximal cancellative 3-graphs (n <= 9) with and without a
    deletion perturbation, then perturbed T_3(30)."""
    out = []
    for seed in range(12):
        h = random_maximal_cancellative(5 + seed % 5, seed)
        out += [h, perturb(h, 0.2, 0, seed)]
    out.append(perturb(turan_hypergraph(30, 3, 3), 0.05, 0, 3))
    return out


def test_inequality2_and_mantel_link_match_oracles():
    for h in cancellative_samples():
        assert inequality2_certificate(h).to_json_dict() == oracle_inequality2(h)
        assert mantel_link_bound(h).to_json_dict() == oracle_mantel_link(h)


def test_mantel_link_holds_on_every_admitted_input():
    # every input is either refused by the cancellative precondition or
    # passes, with the oracle's per-(T, u, v) report; cancellativity is
    # hereditary, so edge subsets of a maximal cancellative 3-graph are admitted
    rng = random.Random(89)
    inputs = [random_hypergraph(rng.randint(3, 9), 3, rng.uniform(0.03, 0.5), rng) for _ in range(200)]
    for seed in range(150):
        h = random_maximal_cancellative(rng.randint(3, 9), seed)
        inputs.append(Hypergraph(h.n, 3, tuple(e for e in h.edges if rng.random() < 0.7)))
    outcomes = Counter()
    for h in inputs:
        if not h.edges:
            continue
        try:
            report = mantel_link_bound(h).to_json_dict()
        except ValueError as exc:
            assert str(exc) == "precondition failed: input is not cancellative"
            assert oracle_cancellative_witness(h) is not None
            outcomes["refused"] += 1
        else:
            assert report == oracle_mantel_link(h) and report["holds"]
            outcomes["holds"] += 1
    assert outcomes["refused"] >= 50 and outcomes["holds"] >= 50, outcomes


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
    st.integers(0, 2**16), st.permutations(range(1, n + 1)))))
def test_mantel_link_quantities_relabeling_invariant(case):
    seed, perm = case
    h = random_maximal_cancellative(len(perm), seed)
    relabeled = Hypergraph.from_edges(h.n, 3, ([perm[v - 1] for v in vertices_of(e)] for e in h.edges))
    keys = ("pairs_checked", "max_pair_link")
    got, want = mantel_link_bound(relabeled).quantities, mantel_link_bound(h).quantities
    assert [got[k] for k in keys] == [want[k] for k in keys]


def test_cancellative_callers_build_the_index_once(monkeypatch):
    # the cancellativity precondition and the caller's own reads share one index
    builds = []

    class CountingIncidence(_Incidence):
        def __init__(self, h):
            builds.append(h)
            super().__init__(h)

    monkeypatch.setattr(checkers, "_Incidence", CountingIncidence)
    # a module that imported the class by name would build uncounted copies
    monkeypatch.setattr(stability, "_Incidence", CountingIncidence, raising=False)
    h = perturb(turan_hypergraph(12, 3, 3), 0.1, 0, 5)
    for call in (
        inequality2_certificate,
        theorem13_certificate,
        mantel_link_bound,
        extract_partition_cancellative,
    ):
        builds.clear()
        call(h)
        assert len(builds) == 1, call.__name__


def test_graph_callers_derive_adjacency_once(monkeypatch):
    # every clique query, cut and Lemma 2.5 step reads the input's one cached adjacency
    builds, graphs = [], []
    derive, post_init = Hypergraph.adjacency.func, Hypergraph.__post_init__

    def counting_adjacency(self):
        builds.append(self)
        return derive(self)

    def counting_post_init(self):
        post_init(self)
        if self.r == 2:
            graphs.append(self)

    counted = cached_property(counting_adjacency)
    counted.__set_name__(Hypergraph, "adjacency")
    monkeypatch.setattr(Hypergraph, "adjacency", counted)
    monkeypatch.setattr(Hypergraph, "__post_init__", counting_post_init)

    def run(call, h, *args, **kwargs):
        h = Hypergraph(h.n, h.r, h.edges)  # a copy with nothing cached yet
        builds.clear()
        graphs.clear()
        call(h, *args, **kwargs)
        return sum(b == h for b in builds), len(graphs)

    h = perturb(turan_hypergraph(12, 3, 3), 0.1, 0, 5)
    assert run(is_k_free, h, 3) == (1, 0)
    derived, aux_built = run(extract_partition_kfree, h, 3, seed=1)
    assert derived == 1 and aux_built <= 1
    k4_free = auxiliary_graph(turan_hypergraph(9, 3, 3))
    assert run(fisher_ryan_certificate, k4_free, 3)[0] == 1
    triangle_free = random_triangle_free_near_bipartite(16, 0.02, 8, 3)
    assert run(lemma25_pair, triangle_free)[0] == 1
    assert run(bipartite_distance_analysis, triangle_free, seed=3)[0] == 1


def test_failing_certificates_match_oracles(monkeypatch):
    # without the cancellative precondition inequality2 can fail; its
    # report must still agree with the oracle
    monkeypatch.setattr(checkers, "_first_witness", lambda ix: None)
    rng = random.Random(61)
    failed_inequality = 0
    for _ in range(150):
        h = random_hypergraph(rng.randint(4, 9), 3, rng.uniform(0.1, 0.7), rng)
        if not h.edges:
            continue
        ineq = inequality2_certificate(h).to_json_dict()
        assert ineq == oracle_inequality2(h)
        failed_inequality += not ineq["holds"]
    assert failed_inequality > 0


def test_link_count_and_neighborhoods_match_oracles():
    rng = random.Random(67)
    for _ in range(200):
        h = random_hypergraph(rng.randint(3, 10), 3, rng.uniform(0.05, 0.5), rng)
        assert link_count_identity(h).to_json_dict() == oracle_link_count(h)
        assert neighborhoods_independent(h) == oracle_neighborhoods_independent(h)


def test_pair_link_table_matches_per_pair_links():
    rng = random.Random(71)
    for _ in range(60):
        h = random_hypergraph(rng.randint(3, 9), 3, rng.uniform(0.05, 0.6), rng)
        ix = _Incidence(h)
        links = link_sets(h)
        for u, v in itertools.product(range(1, h.n + 1), repeat=2):
            lg = links[u - 1] if u == v else links[u - 1] & links[v - 1]
            assert (ix.col[u - 1] & ix.col[v - 1]).bit_count() == _pair_link_size(links, u, v) == len(lg)
            assert [ix.ts[i] for i in iter_bits(ix.col[u - 1] & ix.col[v - 1])] == sorted(lg)
            # N({u, a}) & N({v, a}), read off the slots, is the adjacency of L(u, v)
            link_graph = Hypergraph(h.n, 2, tuple(lg))
            assert [a & b for a, b in zip(_link_row(ix, u - 1), _link_row(ix, v - 1))] == list(link_graph.adjacency)
            if u == v:
                assert has_clique(_link_row(ix, u - 1), ix.adj[u - 1], 3) == contains_clique(link_graph, 3)


def test_incidence_index_matches_oracles():
    rng = random.Random(79)
    for _ in range(120):
        h = random_hypergraph(rng.randint(0, 10), 3, rng.uniform(0.05, 0.6), rng)
        ix = _Incidence(h)
        sh = shadow_neighborhoods(h)
        links = link_sets(h)
        pairs = _pair_cover_oracle(h)
        assert ix.ts == sorted(sh) == pairs
        assert ix.nbr == [mask_of(sh[t]) for t in ix.ts]
        # the table holds each shadow pair {u, v}, u < v, at slot u*n + v, and nothing else
        assert ix.nbrs == {(u - 1) * h.n + v - 1: mask_of(sh[t]) for t in sh for u, v in [vertices_of(t)]}
        adj = [0] * h.n
        for p in pairs:
            u, v = vertices_of(p)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        assert ix.adj == adj
        for u in range(h.n):
            assert [ix.ts[i] for i in range(len(ix.ts)) if ix.col[u] >> i & 1] == sorted(links[u])
            assert has_clique(_link_row(ix, u), ix.adj[u], 3) == contains_clique(
                Hypergraph(h.n, 2, tuple(links[u])), 3
            )
        assert [[(a & b).bit_count() for b in ix.col] for a in ix.col] == [
            [_pair_link_size(links, u, v) for v in range(1, h.n + 1)] for u in range(1, h.n + 1)
        ]


def test_incidence_refuses_a_non_3_graph():
    # the index states the r = 3 precondition of every 3-graph reader; a 4-graph
    # would index its 3-sets, a graph would shift by a negative count
    readers = (
        _Incidence,
        cancellative_witness,
        is_cancellative,
        links_triangle_free,
        neighborhoods_independent,
        link_count_identity,
        inequality2_certificate,
        theorem13_certificate,
        mantel_link_bound,
        extract_partition_cancellative,
    )
    for h in (
        Hypergraph.from_edges(4, 2, [(1, 2), (2, 3)]),
        Hypergraph.from_edges(6, 4, [(1, 2, 3, 4), (1, 2, 3, 5), (3, 4, 5, 6)]),
    ):
        for read in readers:
            with pytest.raises(ValueError, match=f"^the 3-graph checks expect r = 3, got r = {h.r}$"):
                read(h)


@st.composite
def three_graphs_with_isolated_vertices(draw):
    """A 3-graph on n <= 12 vertices whose edges span a random m of them, so
    n - m stay isolated: random (mostly not cancellative when dense) or
    maximal cancellative on the m, then relabeled."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        edges = random_hypergraph(m, 3, draw(st.sampled_from((0.05, 0.2, 0.6))), random.Random(seed)).edges
    else:
        edges = random_maximal_cancellative(m, seed).edges if m else ()
    return permute_hypergraph(Hypergraph(n, 3, edges), draw(st.permutations(range(1, n + 1))))


@settings(max_examples=150, deadline=None)
@given(three_graphs_with_isolated_vertices())
def test_state_index_and_pair_cover_share_the_pair_slots(h):
    # the search state, grown one edge at a time, the 3-graph index and the
    # pair-cover counts address the pair {j, k}, j < k, at the same slot j*n + k
    state, cover = _CancellativeState(h.n), PairCover(h.n)
    for e in h.edges:
        state.add(e)
        cover.add(e)
    ix = _Incidence(h)
    assert state.nbrs == [ix.nbrs.get(s, 0) for s in range(h.n * h.n)]
    assert state.adj == ix.adj == cover.adj
    assert [s for s, c in enumerate(cover.cov) if c] == sorted(ix.nbrs)


def test_cancellative_witness_matches_by_pair_oracle():
    rng = random.Random(83)
    violated = 0
    for _ in range(400):
        h = random_hypergraph(rng.randint(3, 10), 3, rng.uniform(0.02, 0.4), rng)
        w = cancellative_witness(h)
        assert w == oracle_cancellative_witness(h)
        violated += w is not None
    for h in cancellative_samples():
        assert cancellative_witness(h) is None and oracle_cancellative_witness(h) is None
    assert 100 < violated < 400


@st.composite
def small_three_graphs(draw):
    """A 3-graph on 1..20 vertices (n = 8, 9, 16 and 17 straddle the byte
    boundaries of the bulk build) and a relabeling of it: random edge sets
    of any density, mostly not cancellative when dense, or maximal
    cancellative ones, kept whole or thinned."""
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("random", "cancellative", "thinned")))
    if kind == "random":
        p = draw(st.sampled_from((0.0, 0.01, 0.05, 0.2, 0.6, 1.0)))
        h = random_hypergraph(n, 3, p, random.Random(seed))
    else:
        h = random_maximal_cancellative(n, seed)
        if kind == "thinned":
            h = perturb(h, 0.2, 0, seed)
    return h, draw(st.permutations(range(1, n + 1)))


def _check_bulk_index(h):
    ix = _Incidence(h)
    assert ix.col == columns_by_bit(ix)
    assert _colink_masses(ix) == colink_masses(h)
    assert _mantel_caps_hold(ix) == mantel_caps_by_incidence(ix)
    independent = neighborhoods_independent(h)
    assert independent == neighborhoods_independent_by_pair(ix) == oracle_neighborhoods_independent(h)
    witness = cancellative_witness(h)
    assert witness == _first_witness(ix) == oracle_cancellative_witness(h)
    assert is_cancellative(h) == (witness is None) == independent
    assert links_triangle_free(h) == all(
        not contains_clique(Hypergraph(h.n, 2, tuple(lk)), 3) for lk in link_sets(h)
    )


@settings(max_examples=150, deadline=None)
@given(small_three_graphs())
def test_bulk_index_matches_per_incidence_oracles(case):
    h, perm = case
    _check_bulk_index(h)
    _check_bulk_index(permute_hypergraph(h, perm))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 20])
def test_bulk_index_on_empty_and_single_edge_inputs(n):
    _check_bulk_index(Hypergraph(n, 3, ()))
    if n >= 3:
        for edge in ((1, 2, 3), (n - 2, n - 1, n)):
            _check_bulk_index(Hypergraph.from_edges(n, 3, [edge]))


@settings(max_examples=150, deadline=None)
@given(small_three_graphs())
def test_shadow_pair_test_matches_per_vertex_rule_and_scan(case):
    # cancellative iff no covered pair {x, y} has L(x) and L(y) meeting: the
    # OR of col[x] & col[y] over the covered pairs marks exactly the T whose
    # N(T) holds a covered pair, and its lowest T gives the scan's witness
    h, perm = case
    for g in (h, permute_hypergraph(h, perm)):
        ix = _Incidence(g)
        meet = 0
        for x, y in itertools.combinations(range(g.n), 2):
            if ix.adj[x] >> y & 1:
                meet |= ix.col[x] & ix.col[y]
        scanned = [any(ix.adj[x] & m for x in iter_bits(m)) for m in ix.nbr]
        assert meet == sum(1 << i for i, hit in enumerate(scanned) if hit)
        witness = _first_witness(ix)
        assert witness == first_witness_by_scan(ix) == oracle_cancellative_witness(g)
        assert (witness is None) == (meet == 0) == (not partner_covered_by_bit(ix))


def _sparse_input():
    """n = 2000 with 50 random 3-edges, 146 of the vertices on an edge."""
    rng = random.Random(2000)
    edges = set()
    while len(edges) < 50:
        edges.add(tuple(sorted(rng.sample(range(1, 2001), 3))))
    return Hypergraph.from_edges(2000, 3, sorted(edges))


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_input_checks_take_no_vertex_pair_table():
    # the cancellativity test and inequality2 pay for the shadow pairs, not
    # for the n^2 vertex pairs (a table of |L(u, v)| over all of them peaks at
    # 32.3 MB on this input)
    h = _sparse_input()
    assert is_cancellative(h) and inequality2_certificate(h).holds
    for check in (is_cancellative, inequality2_certificate):
        peak = _peak_bytes(check, h)
        assert peak < 2_000_000, (check.__name__, peak)


def test_sparse_input_colink_masses_take_tables_for_linked_vertices_only():
    # tables for every group of four vertices, and fields for every vertex,
    # peaked at 37.1 MB on this input; the masses are those of the oracle
    h = _sparse_input()
    ix = _Incidence(h)
    assert _colink_masses(ix) == colink_masses(h)
    peak = _peak_bytes(_colink_masses, ix)
    assert peak < 2_000_000, peak


def test_mantel_caps_per_vertex_match_per_incidence_oracle():
    # on a cancellative input the caps follow from Mantel's theorem, so the
    # per-vertex degree masks are compared where caps fail as well
    rng = random.Random(101)
    verdicts = Counter()
    for _ in range(300):
        h = random_hypergraph(rng.randint(3, 20), 3, rng.uniform(0.01, 0.9), rng)
        ix = _Incidence(h)
        holds = _mantel_caps_hold(ix)
        assert holds == mantel_caps_by_incidence(ix)
        verdicts[holds] += 1
    assert verdicts[True] > 30 and verdicts[False] > 30, verdicts


def test_bulk_index_never_walks_the_incidences(monkeypatch):
    # building the index and the co-link masses, and the shadow-pair
    # predicates on a passing input, take no per-incidence iter_bits loop
    calls = []

    def counting_iter_bits(mask):
        calls.append(mask)
        return iter_bits(mask)

    monkeypatch.setattr(checkers, "iter_bits", counting_iter_bits)
    monkeypatch.setattr(stability, "iter_bits", counting_iter_bits)
    h = turan_hypergraph(60, 3, 3)
    _colink_masses(_Incidence(h))
    assert is_cancellative(h) and neighborhoods_independent(h) and links_triangle_free(h)
    assert mantel_link_bound(h).holds
    assert len(calls) < h.n, len(calls)


def test_links_triangle_free_matches_contains_clique():
    rng = random.Random(73)
    for _ in range(400):
        h = random_hypergraph(rng.randint(0, 10), 3, rng.uniform(0.05, 0.6), rng)
        assert links_triangle_free(h) == all(
            not contains_clique(Hypergraph(h.n, 2, tuple(lk)), 3) for lk in link_sets(h)
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
    st.integers(0, 2**16), st.permutations(range(1, n + 1)))))
def test_inequality2_lhs_relabeling_invariant(case):
    seed, perm = case
    h = random_maximal_cancellative(len(perm), seed)
    relabeled = Hypergraph.from_edges(h.n, 3, ([perm[v - 1] for v in vertices_of(e)] for e in h.edges))
    assert (
        inequality2_certificate(relabeled).quantities["lhs"]
        == inequality2_certificate(h).quantities["lhs"]
    )
