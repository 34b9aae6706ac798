"""Extremal search against brute-force oracles, and the multiway cuts."""

import gc
import hashlib
import itertools
import random
import sys
import time
from collections import Counter
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turanlab.search as search_mod
from turanlab.canonical import canonical_code
from turanlab.cli import run
from turanlab.checkers import is_cancellative, is_k_free
from turanlab.constructions import turan_count, turan_hypergraph
from turanlab.hypergraph import (
    Hypergraph,
    PairCover,
    all_r_subsets,
    contains_clique,
    iter_bits,
    mask_of,
)
from turanlab.partitions import Partition
from turanlab.search import check_request, extremal_number, max_ell_cut, vertex_move_optimal

from oracles import (
    KFreeStateByNewPairs,
    crossing_count,
    edge_invariants,
    fewest_left_out,
    permute_hypergraph,
    uniqueness_check,
)


def brute_force(n, r, keep):
    """Exhaustive maximum + extremal class count over all r-graphs on [n]."""
    cands = all_r_subsets(n, r)
    best, codes = 0, {()}
    for bits in range(1 << len(cands)):
        edges = tuple(t for i, t in enumerate(cands) if bits >> i & 1)
        h = Hypergraph(n, r, edges)
        if keep(h):
            if len(edges) > best:
                best, codes = len(edges), set()
            if len(edges) == best:
                codes.add(canonical_code(n, edges))
    return best, len(codes)


def test_search_matches_brute_force_cancellative():
    for n in (3, 4, 5):
        value, classes = brute_force(n, 3, is_cancellative)
        rec = extremal_number(n, 3, "cancellative")
        assert rec.value == value == turan_count(n, 3, 3)
        assert rec.extremal_classes == classes
        assert rec.complete


def test_search_matches_brute_force_triangle_free():
    for n in (3, 4, 5):
        value, classes = brute_force(n, 2, lambda h: not contains_clique(h, 3))
        rec = extremal_number(n, 2, "triangle-free")
        assert rec.value == value == n * n // 4
        assert rec.extremal_classes == classes


def test_search_matches_brute_force_kfree():
    value, classes = brute_force(5, 3, lambda h: is_k_free(h, 3))
    rec = extremal_number(5, 3, "k-free", ell=3)
    assert (rec.value, rec.extremal_classes) == (value, classes)
    value2, classes2 = brute_force(5, 2, lambda h: is_k_free(h, 3))
    rec2 = extremal_number(5, 2, "k-free", ell=3)
    assert (rec2.value, rec2.extremal_classes) == (value2, classes2)


def test_spec_value_examples():
    assert extremal_number(6, 3, "cancellative").value == 8
    assert extremal_number(5, 2, "triangle-free").value == 6
    assert extremal_number(7, 3, "k-free", ell=3).value == 12


def test_monotone_in_n():
    values = [extremal_number(n, 3, "cancellative").value for n in range(3, 8)]
    assert values == sorted(values)
    assert values == [1, 2, 4, 8, 12]


def test_witnesses_satisfy_predicate():
    rec = extremal_number(6, 3, "cancellative")
    for w in rec.witnesses:
        assert is_cancellative(w)
        assert w.size == rec.value
    rec = extremal_number(7, 2, "triangle-free")
    for w in rec.witnesses:
        assert not contains_clique(w, 3)
    # pairwise distinct classes
    codes = {w.edges for w in rec.witnesses}
    assert len(codes) == rec.extremal_classes


def test_value_independent_of_labeled_tail(monkeypatch):
    for n, r, predicate in ((6, 3, "cancellative"), (6, 2, "triangle-free")):
        search = partial(extremal_number, n, r, predicate)
        base = _outcome(search())
        for tail in (0, 3, 8, comb(n, r)):
            assert _with_tail(monkeypatch, tail, search) == base, (predicate, tail)


def test_budget_exhaustion_is_incomplete():
    rec = extremal_number(7, 3, "cancellative", node_budget=10)
    assert not rec.complete
    with pytest.raises(ValueError):
        uniqueness_check(rec, turan_hypergraph(7, 3, 3))
    with pytest.raises(ValueError, match="node budget must be positive"):
        extremal_number(5, 3, "cancellative", node_budget=0)



def _guard(r, ell):
    bounds = search_mod.GUARDS[r]
    return bounds[min(ell - r, len(bounds) - 1)]


def test_nothing_forbidden_takes_one_labeled_path():
    # with ell >= n no K_{ell+1} fits on n vertices: the answer is every r-set, one
    # class, and after one class step at the root the first labeled path reaches
    # it, so every later child fails its bound
    for r in range(2, 7):
        for n in range(r, 13):
            for ell in {max(n, r), n + 3}:
                if n > _guard(r, ell):
                    continue
                rec = extremal_number(n, r, "k-free", ell=ell)
                assert rec.complete and rec.value == comb(n, r), (n, r, ell)
                assert [set(w.edges) for w in rec.witnesses] == [set(all_r_subsets(n, r))], (n, r, ell)
                assert rec.nodes_explored <= comb(n, r) + 1, (n, r, ell, rec.nodes_explored)
    # above the guard, where the old tail walked the ties at the optimum
    rec = extremal_number(7, 3, "k-free", 12, allow_large=True)
    assert (rec.value, rec.extremal_classes, rec.nodes_explored, rec.complete) == (35, 1, 36, True)


def test_search_depth_limit(capsys):
    # the walk recurses once per edge it adds: C(n, r) above MAX_DEPTH is refused
    # before any walk, and the largest admitted searches run to the bottom
    limit = search_mod.MAX_DEPTH
    assert comb(40, 2) <= limit < comb(41, 2) and comb(17, 3) <= limit < comb(18, 3)
    for n, r in ((41, 2), (46, 2), (18, 3)):
        message = f"n = {n}, r = {r} gives {comb(n, r)} candidate edges, above the search depth limit {limit}"
        with pytest.raises(ValueError, match=message):
            check_request(n, r, "k-free", n + 4)
        with pytest.raises(ValueError, match=message):
            extremal_number(n, r, "k-free", n + 4, allow_large=True)
    for n, r in ((40, 2), (17, 3)):
        rec = extremal_number(n, r, "k-free", n, allow_large=True)
        assert rec.complete and rec.value == comb(n, r) and rec.nodes_explored == comb(n, r) + 1
    argv = ["search", "--n", "46", "--r", "2", "--predicate", "k-free", "--ell", "50", "--allow-large", "--no-cache"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n = 46, r = 2 ") and f"depth limit {limit}" in err

def test_feasibility_guard(capsys):
    with pytest.raises(ValueError):
        extremal_number(13, 2, "triangle-free")
    with pytest.raises(ValueError):
        extremal_number(9, 3, "cancellative")
    # k-free is keyed by r and ell - r, and for r >= 3 tightens as ell grows; one
    # vertex above each bound, every shape timed with ell < n took close to a minute
    # or longer, or stopped at a node budget; an r not listed falls to 6
    refused = (
        (11, 2, 3, 10), (11, 2, 4, 10), (11, 2, 5, 10), (11, 2, 6, 10), (9, 3, 3, 8), (8, 3, 4, 7), (7, 3, 5, 6),
        (9, 4, 4, 8), (8, 4, 5, 7), (8, 4, 6, 7), (8, 4, 7, 6), (8, 7, 7, 6),
    )
    for n, r, ell, guard in refused:
        with pytest.raises(ValueError, match=f"n = {n} exceeds the feasibility guard {guard} for r = {r}, ell = {ell}"):
            extremal_number(n, r, "k-free", ell=ell)
        assert not extremal_number(n, r, "k-free", ell=ell, allow_large=True, node_budget=1).complete
    # a budget of one node admits a request without running it; the benchmark's
    # four searches among them
    admitted = (
        (10, 2, 4), (10, 2, 12), (7, 3, 4), (10, 2, 3), (12, 2, 2), (8, 3, 3), (6, 3, 9), (8, 4, 4), (7, 4, 6),
        (6, 4, 9), (8, 5, 6), (7, 5, 9), (8, 6, 12), (7, 2, 3), (7, 3, 3),
    )
    for n, r, ell in admitted:
        assert not extremal_number(n, r, "k-free", ell=ell, node_budget=1).complete
    # an ell >= n forbids nothing and takes C(n, r) + 1 nodes, so it passes the
    # guard whatever n
    for n, r, ell, nodes in ((7, 3, 8, 36), (7, 4, 7, 36), (8, 5, 9, 57), (7, 7, 7, 2)):
        rec = extremal_number(n, r, "k-free", ell=ell)
        assert (rec.value, rec.extremal_classes, rec.nodes_explored, rec.complete) == (nodes - 1, 1, nodes, True)
    for n, r, predicate in ((12, 2, "triangle-free"), (8, 3, "cancellative")):
        assert not extremal_number(n, r, predicate, node_budget=1).complete
    argv = ["search", "--n", "11", "--r", "2", "--predicate", "k-free", "--ell", "4", "--no-cache"]
    assert run(argv) == 2
    assert "feasibility guard 10 for r = 2, ell = 4" in capsys.readouterr().err
    assert run(argv + ["--allow-large", "--budget", "1"]) == 3
    argv = ["search", "--n", "11", "--r", "2", "--predicate", "k-free", "--ell", "3", "--no-cache"]
    assert run(argv) == 2
    assert "feasibility guard 10 for r = 2, ell = 3" in capsys.readouterr().err
    assert run(argv + ["--allow-large", "--budget", "1"]) == 3


def test_uniqueness_check():
    rec = extremal_number(6, 3, "cancellative")
    assert uniqueness_check(rec, turan_hypergraph(6, 3, 3))
    # relabeled target still matches
    assert uniqueness_check(rec, permute_hypergraph(turan_hypergraph(6, 3, 3), [3, 1, 6, 2, 5, 4]))
    wrong = Hypergraph.from_edges(6, 3, [(1, 2, 3)])
    assert not uniqueness_check(rec, wrong)
    rec2 = extremal_number(4, 2, "triangle-free")
    assert uniqueness_check(rec2, turan_hypergraph(4, 2, 2))


class _AtMostEdges:
    """A trivially hereditary predicate state: at most limit edges."""

    tail = 16

    def __init__(self, limit=2):
        self.count = 0
        self.limit = limit

    def addable(self, e):
        return self.count < self.limit

    def lost(self, addable, slack):
        return 0

    def add(self, e):
        self.count += 1

    def remove(self, e):
        self.count -= 1


def test_custom_predicate_and_witness_cap(monkeypatch):
    # a stand-in state with two extremal classes drives the search past a cap of 1
    monkeypatch.setattr(search_mod, "_CancellativeState", lambda n: _AtMostEdges())
    rec = extremal_number(5, 3, "cancellative")
    assert rec.value == 2
    assert rec.extremal_classes == 2  # two triples on [5] share one vertex or two
    assert not rec.cap_hit
    # three triples on [5] fall into more classes than a cap of 2 keeps: the
    # capped run keeps the two smallest canonical codes, and says it was capped
    codes = sorted({canonical_code(5, g) for g in itertools.combinations(all_r_subsets(5, 3), 3)})
    assert len(codes) >= 3
    monkeypatch.setattr(search_mod, "_CancellativeState", lambda n: _AtMostEdges(3))
    full = extremal_number(5, 3, "cancellative")
    assert (full.value, full.extremal_classes, full.cap_hit) == (3, len(codes), False)
    assert [w.edges for w in full.witnesses] == codes
    monkeypatch.setattr(search_mod, "WITNESS_CAP", 2)
    capped = extremal_number(5, 3, "cancellative")
    assert capped.value == 3
    assert capped.cap_hit
    assert capped.extremal_classes == 2  # truncated, and flagged as such
    assert [w.edges for w in capped.witnesses] == codes[:2]
    assert capped.nodes_explored == full.nodes_explored


# an interleaved add/remove sequence: each step adds the i-th candidate edge
# (mod their count) or removes the i-th current edge (mod their count)
STATE_STEPS = st.lists(st.tuples(st.sampled_from(["add", "add", "add", "remove"]), st.integers(0, 1000)), max_size=40)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 7),
    st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (4, 6)]),
    STATE_STEPS,
)
def test_kfree_state_matches_direct_checker(n, shape, steps):
    # the one clique test per subset of e against the state it replaced and
    # the direct checker, for every absent r-set after every step
    from turanlab.search import KFreeState

    r, ell = shape
    state, oracle = KFreeState(n, r, ell), KFreeStateByNewPairs(n, r, ell)
    current = []
    cands = all_r_subsets(n, r)

    def assert_same_answers():
        for f in cands:
            if f not in current:
                direct = is_k_free(Hypergraph(n, r, tuple(current + [f])), ell)
                assert state.addable(f) == oracle.addable(f) == direct, (n, r, ell, current, f)

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


def test_unknown_predicate_and_missing_ell():
    with pytest.raises(ValueError):
        extremal_number(5, 3, "no-such-predicate")
    with pytest.raises(ValueError):
        extremal_number(5, 3, "k-free")
    # ell belongs to k-free alone
    with pytest.raises(ValueError, match="takes no ell"):
        extremal_number(5, 3, "cancellative", ell=3)
    with pytest.raises(ValueError, match="takes no ell"):
        extremal_number(5, 2, "triangle-free", ell=2)
    # r < 2 is rejected with the request, not when the first witness is built
    with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
        check_request(5, 1, "k-free", 2)


# ---------------------------------------------------------------------------
# The default search (canonical-parent filter, twin-orbit branching, labeled
# tail) against a tail of C(n, r), plain labeled branch and bound from the root.

ORACLE_CASES = (
    [(n, 2, "triangle-free", None) for n in range(2, 8)]
    + [(n, 2, "k-free", ell) for n in range(2, 8) for ell in (2, 3, 4)]
    + [(n, 3, "cancellative", None) for n in range(3, 7)]
    + [(n, 3, "k-free", ell) for n in range(3, 7) for ell in (3, 4)]
)
# graph searches with an own tail above 16: the default search branches on
# classes near the root, then runs a labeled tail longer than any the r = 2
# ORACLE_CASES reach (C(7, 2) = 21 pairs)
ABOVE_TAIL_CASES = [(9, 2, "triangle-free", None), (8, 2, "k-free", 3)]


def _outcome(rec):
    assert rec.complete and not rec.cap_hit
    return rec.value, rec.extremal_classes, [w.edges for w in rec.witnesses]


def _with_tail(monkeypatch, tail, search, report=_outcome):
    """report of search with the predicate state's labeled tail set to tail
    (None keeps the state's own).

    The state classes the search builds are wrapped: the state built must
    carry a tail, and exactly one must be built, so a patch that sets nothing
    fails here."""
    built = []

    def retailed(make):
        def build(*args):
            state = make(*args)
            assert isinstance(state.tail, int), state
            if tail is not None:
                state.tail = tail
            built.append(state)
            return state

        return build

    with monkeypatch.context() as m:
        for name in ("KFreeState", "_CancellativeState"):
            m.setattr(search_mod, name, retailed(getattr(search_mod, name)))
        got = report(search())
    assert len(built) == 1, built
    return got


def _fast_paths(monkeypatch, search):
    """Outcomes of the default search and of the filter kept on down to the leaves."""
    return [_with_tail(monkeypatch, None, search), _with_tail(monkeypatch, 0, search)]


def test_default_search_matches_labeled_oracle(monkeypatch):
    # the state's own tail, no tail, the old fixed tail of 16 and plain labeled
    # branch and bound give the same value, classes and witnesses.  Above 16 the
    # graph states' own tail lies strictly between 16 and C(n, 2), and each tail
    # walks its own number of nodes: the tail the state carries is the one the
    # walk reads
    from turanlab.search import KFreeState

    for case in ORACLE_CASES + ABOVE_TAIL_CASES:
        n, r, predicate, ell = case
        search = partial(extremal_number, n, r, predicate, ell=ell)
        runs = [
            _with_tail(monkeypatch, tail, search, lambda rec: (_outcome(rec), rec.nodes_explored))
            for tail in (None, 0, 16, comb(n, r))
        ]
        assert [outcome for outcome, _ in runs] == [runs[-1][0]] * 4, case
        if case in ABOVE_TAIL_CASES:
            assert 16 < KFreeState(n, r, ell or 2).tail < comb(n, r), case
            assert len({nodes for _, nodes in runs}) == 4, (case, runs)
    assert KFreeState(9, 3, 3).tail == search_mod._CancellativeState(9).tail == 16



BUDGETS = (1, 2, 5, 50, 500)
# per case, the values and nodes_explored at each of BUDGETS, and the first 12
# hex digits of the sha256 of the repr of the five witness lists, recorded at
# commit 642a6bb, when the labeled tail was a recursive closure of its own
BUDGET_RUNS = {
    (2, 2, "triangle-free", None): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "197a5c989beb"),
    (3, 2, "triangle-free", None): ((0, 1, 2, 2, 2), (2, 3, 3, 3, 3), "6fbd2a0af4e1"),
    (4, 2, "triangle-free", None): ((0, 1, 3, 4, 4), (2, 3, 6, 7, 7), "9c9c0e55396e"),
    (5, 2, "triangle-free", None): ((0, 1, 4, 6, 6), (2, 3, 6, 22, 22), "9fdb5e02ddb5"),
    (6, 2, "triangle-free", None): ((0, 1, 4, 9, 9), (2, 3, 6, 51, 61), "6c8152ec4edd"),
    (7, 2, "triangle-free", None): ((0, 1, 4, 12, 12), (2, 3, 6, 51, 201), "7c9ef6687d64"),
    (2, 2, "k-free", 2): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "197a5c989beb"),
    (2, 2, "k-free", 3): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "197a5c989beb"),
    (2, 2, "k-free", 4): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "197a5c989beb"),
    (3, 2, "k-free", 2): ((0, 1, 2, 2, 2), (2, 3, 3, 3, 3), "6fbd2a0af4e1"),
    (3, 2, "k-free", 3): ((0, 1, 3, 3, 3), (2, 3, 4, 4, 4), "b6f5e0f6cbb9"),
    (3, 2, "k-free", 4): ((0, 1, 3, 3, 3), (2, 3, 4, 4, 4), "b6f5e0f6cbb9"),
    (4, 2, "k-free", 2): ((0, 1, 3, 4, 4), (2, 3, 6, 7, 7), "9c9c0e55396e"),
    (4, 2, "k-free", 3): ((0, 1, 4, 5, 5), (2, 3, 6, 16, 16), "b4406dcde10d"),
    (4, 2, "k-free", 4): ((0, 1, 4, 6, 6), (2, 3, 6, 7, 7), "2840468331e7"),
    (5, 2, "k-free", 2): ((0, 1, 4, 6, 6), (2, 3, 6, 22, 22), "9fdb5e02ddb5"),
    (5, 2, "k-free", 3): ((0, 1, 4, 8, 8), (2, 3, 6, 51, 56), "939b69aea05b"),
    (5, 2, "k-free", 4): ((0, 1, 4, 9, 9), (2, 3, 6, 46, 46), "e295a9b2f12c"),
    (6, 2, "k-free", 2): ((0, 1, 4, 9, 9), (2, 3, 6, 51, 61), "6c8152ec4edd"),
    (6, 2, "k-free", 3): ((0, 1, 4, 12, 12), (2, 3, 6, 51, 124), "cb85254332e4"),
    (6, 2, "k-free", 4): ((0, 1, 4, 13, 13), (2, 3, 6, 51, 223), "e2a298aba21b"),
    (7, 2, "k-free", 2): ((0, 1, 4, 12, 12), (2, 3, 6, 51, 201), "7c9ef6687d64"),
    (7, 2, "k-free", 3): ((0, 1, 4, 16, 16), (2, 3, 6, 51, 501), "b25244f33599"),
    (7, 2, "k-free", 4): ((0, 1, 4, 18, 18), (2, 3, 6, 51, 501), "67a69ca8153a"),
    (3, 3, "cancellative", None): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "dfb450d97a8f"),
    (4, 3, "cancellative", None): ((0, 1, 2, 2, 2), (2, 3, 6, 10, 10), "a60b5b4b8c11"),
    (5, 3, "cancellative", None): ((0, 1, 3, 4, 4), (2, 3, 6, 51, 57), "503894164ffc"),
    (6, 3, "cancellative", None): ((0, 1, 4, 8, 8), (2, 3, 6, 51, 57), "6bf21853c9b3"),
    (3, 3, "k-free", 3): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "dfb450d97a8f"),
    (3, 3, "k-free", 4): ((0, 1, 1, 1, 1), (2, 2, 2, 2, 2), "dfb450d97a8f"),
    (4, 3, "k-free", 3): ((0, 1, 2, 2, 2), (2, 3, 6, 10, 10), "a60b5b4b8c11"),
    (4, 3, "k-free", 4): ((0, 1, 4, 4, 4), (2, 3, 5, 5, 5), "a6e8f6d267fc"),
    (5, 3, "k-free", 3): ((0, 1, 3, 4, 4), (2, 3, 6, 51, 57), "503894164ffc"),
    (5, 3, "k-free", 4): ((0, 1, 4, 7, 7), (2, 3, 6, 51, 79), "09204851e899"),
    (6, 3, "k-free", 3): ((0, 1, 4, 8, 8), (2, 3, 6, 51, 57), "6bf21853c9b3"),
    (6, 3, "k-free", 4): ((0, 1, 4, 12, 12), (2, 3, 6, 51, 501), "f86c748e3ab8"),
    (9, 2, "triangle-free", None): ((0, 1, 4, 18, 20), (2, 3, 6, 51, 501), "6859760a1d56"),
    (8, 2, "k-free", 3): ((0, 1, 4, 20, 21), (2, 3, 6, 51, 501), "1a93e4c7f2a7"),
}


def test_budget_stops_match_the_recorded_walk():
    # a stop at the budget leaves the value and witnesses of the graphs tied at
    # the best so far; several stops fall in a graph state's labeled branch (its
    # own tail starts below the root), so each names the node the walk stopped at
    assert set(BUDGET_RUNS) == set(ORACLE_CASES + ABOVE_TAIL_CASES)
    for case, (values, nodes, digest) in BUDGET_RUNS.items():
        n, r, predicate, ell = case
        recs = [extremal_number(n, r, predicate, ell=ell, node_budget=budget) for budget in BUDGETS]
        assert tuple(rec.value for rec in recs) == values, case
        assert tuple(rec.nodes_explored for rec in recs) == nodes, case
        assert [rec.complete for rec in recs] == [k <= budget for k, budget in zip(nodes, BUDGETS)], case
        witnesses = repr([[w.edges for w in rec.witnesses] for rec in recs])
        assert hashlib.sha256(witnesses.encode()).hexdigest()[:12] == digest, case

class _BoundedDegree(PairCover):
    """A hereditary stand-in with several extremal classes: every vertex degree at most d.

    Like the real predicate states it keeps the pair-cover adjacency `adj`,
    which the search's repeat test reads, a bound `lost`, here 0, and a labeled
    tail."""

    tail = 16

    def __init__(self, n, d):
        super().__init__(n)
        self.d = d
        self.deg = Counter()

    def addable(self, e):
        return all(self.deg[b] < self.d for b in iter_bits(e))

    def lost(self, addable, slack):
        return 0

    def add(self, e):
        super().add(e)
        for b in iter_bits(e):
            self.deg[b] += 1

    def remove(self, e):
        super().remove(e)
        for b in iter_bits(e):
            self.deg[b] -= 1


class _DegreeExcess(_BoundedDegree):
    """`_BoundedDegree` with a bound that sees conflicts: a vertex with more addable
    edges than degree left loses the excess, and an edge left out serves r vertices."""

    def lost(self, addable, slack):
        if not addable:
            return 0
        through = Counter(b for e in addable for b in iter_bits(e))
        excess = sum(max(0, k - (self.d - self.deg[b])) for b, k in through.items())
        return -(-excess // addable[0].bit_count())


MANY_CLASSES = ((7, 2, 2, 2), (6, 2, 3, 2), (7, 2, 3, 4), (6, 3, 2, 2), (7, 3, 2, 6), (6, 3, 3, 4))


def _stand_in(monkeypatch, state):
    """Run every predicate on state(n, r) instead of its own state."""
    monkeypatch.setattr(search_mod, "_CancellativeState", lambda n: state(n, 3))
    monkeypatch.setattr(search_mod, "KFreeState", lambda n, r, ell: state(n, r))


def test_search_matches_labeled_oracle_on_many_classes(monkeypatch):
    # the three predicates have one extremal class each on the n above, so a lost
    # class shows only where there are several: cycles, cubic graphs, linear 3-graphs.
    # A bound that sees conflicts (`_DegreeExcess`) prunes nodes but no tie
    pruned = 0
    for n, r, d, classes in MANY_CLASSES:
        _stand_in(monkeypatch, lambda n, r, d=d: _BoundedDegree(n, d))
        predicate = "cancellative" if r == 3 else "triangle-free"
        search = partial(extremal_number, n, r, predicate)
        slow = _with_tail(monkeypatch, comb(n, r), search)
        assert slow[:2] == (n * d // r, classes)
        assert _fast_paths(monkeypatch, search) == [slow, slow], (n, r, d)
        nodes = search().nodes_explored
        _stand_in(monkeypatch, lambda n, r, d=d: _DegreeExcess(n, d))
        assert _fast_paths(monkeypatch, search) == [slow, slow], (n, r, d)
        pruned += nodes - search().nodes_explored
    assert pruned > 0


def _without_packing(monkeypatch, tail, search):
    """Outcome of search at labeled tail `tail` with `KFreeState.lost` at 0."""
    with monkeypatch.context() as m:
        m.setattr(search_mod.KFreeState, "lost", lambda self, addable, slack: 0)
        return _with_tail(m, tail, search)


def test_packing_bound_changes_no_outcome(monkeypatch):
    # plain labeled branch and bound, without the packing of forbidden cliques,
    # against the default search and the filter kept on down to the leaves, both
    # with it: ties at the optimum survive the bound, so no class is lost
    for n, r, predicate, ell in ORACLE_CASES:
        search = partial(extremal_number, n, r, predicate, ell=ell)
        plain = _without_packing(monkeypatch, comb(n, r), search)
        assert _fast_paths(monkeypatch, search) == [plain, plain], (n, r, predicate, ell)


def test_bound_comes_from_the_state_not_the_predicate_name(monkeypatch):
    # a state that admits every graph, run under the name "triangle-free": a
    # bound chosen by the name would pack triangles and stop short of C(n, 2)
    _stand_in(monkeypatch, lambda n, r: _BoundedDegree(n, n - 1))
    for n in range(2, 8):
        search = partial(extremal_number, n, 2, "triangle-free")
        outcomes = _fast_paths(monkeypatch, search) + [_with_tail(monkeypatch, comb(n, 2), search)]
        assert [o[:2] for o in outcomes] == [(comb(n, 2), 1)] * 3, n


def test_packing_bound_examples():
    from turanlab.search import KFreeState

    # K_4 and K_5 against triangles: the greedy packing finds 1 and 2 of the 2
    # and 4 edges that must go; slack >= len // 2 returns 0 at once
    assert [KFreeState(4, 2, 2).lost(all_r_subsets(4, 2), s) for s in range(5)] == [1, 1, 1, 0, 0]
    assert [KFreeState(5, 2, 2).lost(all_r_subsets(5, 2), s) for s in range(6)] == [1, 2, 2, 2, 2, 0]
    # ell = n - 1: the one K_n is the one copy
    assert [KFreeState(5, 2, 4).lost(all_r_subsets(5, 2), s) for s in range(6)] == [1, 1, 1, 1, 1, 0]
    # r >= 3 has no packing
    assert KFreeState(5, 3, 3).lost(all_r_subsets(5, 3), 0) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.sampled_from([2, 3, 4]), st.data())
def test_packing_bound_never_exceeds_the_fewest_left_out(n, ell, data):
    # a random K_{ell+1}-free cur and a random set of its addable edges, in a
    # random order: at every slack the bound is at most what every completion
    # leaves out, and at most one past the slack, where counting stops
    from turanlab.search import KFreeState

    pairs = data.draw(st.permutations(all_r_subsets(n, 2)))
    state = KFreeState(n, 2, ell)
    cur = []
    for e, take in zip(pairs, data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))):
        if take and state.addable(e):
            state.add(e)
            cur.append(e)
    free = [e for e in pairs if e not in cur and state.addable(e)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(free), max_size=len(free)))
    addable = [e for e, k in zip(free, keep) if k]
    fewest = fewest_left_out(n, ell, cur, addable)
    adj = list(state.adj)
    exceeded = []
    for slack in range(len(addable) + 1):
        got = state.lost(addable, slack)
        assert got <= min(fewest, slack + 1), (n, ell, cur, addable, slack)
        exceeded.append(got > slack)
    assert state.adj == adj
    # one packing, counted in a fixed order: a slack it exceeds, it exceeds below too
    assert exceeded == sorted(exceeded, reverse=True)


def _full_report(rec):
    return (
        rec.value,
        rec.extremal_classes,
        [w.edges for w in rec.witnesses],
        rec.nodes_explored,
        rec.complete,
        rec.cap_hit,
    )


def test_class_key_collisions_change_nothing(monkeypatch):
    # with one key for every graph each child is canonicalized and compared
    # against every class seen so far, so the key decides nothing
    cases = ((7, 2, "triangle-free", None), (6, 3, "cancellative", None), (6, 2, "k-free", 3), (6, 3, "k-free", 3))
    for tail in (None, 0):
        for n, r, predicate, ell in cases:
            search = partial(extremal_number, n, r, predicate, ell=ell)
            with monkeypatch.context() as m:
                want = _with_tail(m, tail, search, _full_report)
                m.setattr(search_mod, "_class_key", lambda colour: 0)
                got = _with_tail(m, tail, search, _full_report)
            assert got == want, (tail, n, r, predicate, ell)


def test_search_leaves_no_cycle_of_its_own():
    # the recursive closures would otherwise keep the visited set, the tally and
    # the predicate state alive until the next cycle collection
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        extremal_number(6, 3, "cancellative")
        gc.collect()
        leftovers = [f.__qualname__ for f in gc.garbage if type(f).__name__ == "function"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not [q for q in leftovers if q.startswith("extremal_number.")]


def test_canonical_call_counts(monkeypatch):
    # only the labeled graphs at the final best are canonicalized, once each,
    # after the walk; a repeated class is rejected by an isomorphism test against
    # the graph stored under its key.  While the walk coded every labeled graph
    # that tied the best so far, triangle-free n=8 took 28 calls and cancellative
    # n=7 26; before the isomorphism test the search also coded repeats, 140 and
    # 67; before the invariant-keyed visited set and the labeled memo, 230 and 113.
    # triangle-free n=8 took 7 calls at a labeled tail of 16, and takes 10 at its
    # own tail of 20, which reaches more labeled copies of the optimum
    calls = Counter()

    def spy(n, edges):
        calls[sys._getframe(1).f_code.co_name] += 1
        return canonical_code(n, edges)

    monkeypatch.setattr(search_mod, "canonical_code", spy)
    for n, r, predicate, want in ((8, 2, "triangle-free", 10), (7, 3, "cancellative", 10)):
        calls.clear()
        rec = extremal_number(n, r, predicate)
        assert rec.complete
        assert calls == {"extremal_number": want}, (predicate, n, calls)


def test_addable_call_counts(monkeypatch):
    # the labeled tail stops re-testing the later edges of a child once more of
    # them have failed than its bound can afford; before that it finished every
    # list, with 33,156 calls on triangle-free n=8 and 7,410 on cancellative n=7.
    # Since the graph searches also subtract a packing of forbidden cliques,
    # triangle-free n=8 takes 479 nodes and 9,851 calls, down from 2,270 and
    # 25,142; cancellative has no packing and stays at 383 and 6,089.  With a
    # labeled tail of C(8, 2) - 8 = 20 instead of 16, triangle-free n=8 walks 433
    # nodes with 11,629 calls: the longer tail tests more edges per node.  Since the
    # class steps above the tail also stop testing a child's edges once its bound
    # fails, cancellative n=7 takes 6,085 calls, not 6,089, with the same nodes
    calls = Counter()
    for cls in (search_mod.KFreeState, search_mod._CancellativeState):

        def spy(self, e, addable=cls.addable, name=cls.__name__):
            calls[name] += 1
            return addable(self, e)

        monkeypatch.setattr(cls, "addable", spy)
    for n, r, predicate, nodes, want in (
        (8, 2, "triangle-free", 433, {"KFreeState": 11629}),
        (7, 3, "cancellative", 383, {"_CancellativeState": 6085}),
    ):
        calls.clear()
        rec = extremal_number(n, r, predicate)
        assert rec.complete and rec.nodes_explored == nodes
        assert calls == want, (predicate, n, calls)


# ---------------------------------------------------------------------------
# The repeat test of the search: `_isomorphic` against canonical-code equality,
# and the early-exit filter `_child_invariants` against `edge_invariants`


def _members(n, r):
    return {e: tuple(iter_bits(e)) for e in all_r_subsets(n, r)}


def _isomorphic(n, a, b, members):
    # the child's colours and pair-cover adjacency, as the search passes them
    cover = PairCover(n)
    for e in a:
        cover.add(e)
    return search_mod._isomorphic(n, a, search_mod._colours(n, [members[e] for e in a]), cover.adj, b, members)


@st.composite
def graph_pairs(draw):
    """(n, r, a, b): an r-graph a on [n] whose edges span only its first k
    vertices, and b a relabeling of a, that relabeling with one edge moved, or
    another graph with as many edges on the same k vertices."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 10))
    k = draw(st.integers(r, n))
    cands = all_r_subsets(k, r)
    a = [e for e in cands if draw(st.integers(0, 3))]
    how = draw(st.sampled_from(["relabel", "move", "other"]))
    if how == "other":
        b = draw(st.permutations(cands))[: len(a)]
    else:
        b = list(a)
        if how == "move" and 0 < len(a) < len(cands):
            b.remove(draw(st.sampled_from(a)))
            b.append(draw(st.sampled_from([e for e in cands if e not in a])))
    perm = draw(st.permutations(range(1, n + 1)))
    b = permute_hypergraph(Hypergraph(n, r, tuple(b)), perm).edges
    return n, r, tuple(a), b


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_isomorphic_agrees_with_canonical_codes(case):
    n, r, a, b = case
    members = _members(n, r)
    want = canonical_code(n, a) == canonical_code(n, b)
    assert _isomorphic(n, a, b, members) == want
    assert _isomorphic(n, b, a, members) == want


def test_isomorphic_checks_edges_beyond_the_pair_cover():
    # non-isomorphic 3-graphs on [6] with equal edge counts, equal colour multisets
    # and isomorphic pair-cover graphs: only mapping edges onto edges tells them apart
    members = _members(6, 3)
    for a, b in (
        ([(1, 3, 5), (2, 4, 5), (1, 2, 6), (2, 3, 6), (3, 5, 6)], [(1, 2, 4), (2, 3, 4), (1, 5, 6), (2, 5, 6), (4, 5, 6)]),
        (
            [(1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 6), (2, 3, 6), (2, 4, 6), (3, 4, 6)],
            [(1, 2, 4), (1, 3, 4), (1, 2, 5), (1, 3, 5), (2, 4, 5), (3, 4, 5), (2, 3, 6)],
        ),
    ):
        a, b = [tuple(map(mask_of, x)) for x in (a, b)]
        assert canonical_code(6, a) != canonical_code(6, b)
        assert not _isomorphic(6, a, b, members)
        assert _isomorphic(6, a, permute_hypergraph(Hypergraph(6, 3, a), [4, 6, 1, 5, 2, 3]).edges, members)


def _random_regular(n, d, rng):
    """A d-regular graph on [n] from random stub pairings, retried until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(1 << u) | (1 << v) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == n * d // 2:
            return tuple(sorted(edges))


def test_isomorphic_on_regular_graphs():
    # every vertex of a regular graph has the same colour and every edge the same
    # invariant, so these pairs share a visited-set key and only the backtracking
    # decides them; the time bound is a loose guard against losing its pruning
    rng = random.Random(18)
    petersen = tuple(
        mask_of(p)
        for p in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
        + [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    )
    graphs = [petersen] + [_random_regular(10, d, rng) for d in (3, 4) for _ in range(24)]
    # relabeled copies put isomorphic pairs with different labels among them
    graphs += [permute_hypergraph(Hypergraph(10, 2, g), rng.sample(range(1, 11), 10)).edges for g in graphs[::4]]
    codes = [canonical_code(10, g) for g in graphs]
    assert len(set(codes)) > 20
    members = _members(10, 2)
    pairs = [
        (i, j)
        for i, j in itertools.combinations_with_replacement(range(len(graphs)), 2)
        if len(graphs[i]) == len(graphs[j])
    ]
    t0 = time.perf_counter()
    got = [_isomorphic(10, graphs[i], graphs[j], members) for i, j in pairs]
    elapsed = time.perf_counter() - t0
    assert got == [codes[i] == codes[j] for i, j in pairs]
    assert sum(got) > len(graphs) and len(got) - sum(got) > 500
    assert elapsed < 20, elapsed


@st.composite
def child_cases(draw):
    """(n, r, cur, e): edges cur of an r-graph on [n] in random order, and an edge e not in cur."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 9))
    cands = draw(st.permutations(all_r_subsets(n, r)))
    m = draw(st.integers(0, len(cands) - 1))
    return n, r, cands[:m], cands[m]


@settings(max_examples=200, deadline=None)
@given(child_cases())
def test_child_invariants_match_edge_invariants(case):
    n, r, cur, e = case
    edges = cur + [e]
    want = edge_invariants(n, edges)
    colour = search_mod._child_invariants(n, cur, e, _members(n, r))
    if want[-1] < max(want):
        assert colour is None
        return
    assert [tuple(sorted([colour[b] for b in iter_bits(f)])) for f in edges] == want
    deg = [sum(f >> x & 1 for f in edges) for x in range(n)]
    for b in range(n):
        through = [f for f in edges if f >> b & 1]
        assert colour[b] == (len(through), sum(deg[x] for f in through for x in iter_bits(f)))


# ---------------------------------------------------------------------------
# cuts


def cut_oracle(g, ell):
    """Exhaustive maximum ell-cut by direct assignment enumeration."""
    best = -1
    for assign in itertools.product(range(ell), repeat=g.n - 1):
        full = (0,) + assign
        part_blocks = [[] for _ in range(ell)]
        for v0, b in enumerate(full):
            part_blocks[b].append(v0 + 1)
        cut = 0
        for e in g.edges:
            u, v = [b.bit_length() for b in (e & -e, e ^ (e & -e))]
            if full[u - 1] != full[v - 1]:
                cut += 1
        best = max(best, cut)
    return best


def test_max_cut_examples():
    c5 = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    part, cut = max_ell_cut(c5, 2, "exact")
    assert cut == 4
    k222 = Hypergraph.from_edges(
        6, 2, [(u, v) for u, v in itertools.combinations(range(1, 7), 2) if (u - 1) // 2 != (v - 1) // 2]
    )
    part, cut = max_ell_cut(k222, 3, "exact")
    assert cut == 12
    assert crossing_count(k222, part) == 12  # zero internal edges
    petersen = Hypergraph.from_edges(
        10,
        2,
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10), (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)],
    )
    part, cut = max_ell_cut(petersen, 2, "exact")
    assert cut == cut_oracle(petersen, 2) == 12


@st.composite
def graphs_and_ell(draw):
    n = draw(st.integers(1, 9))
    cands = all_r_subsets(n, 2)
    chosen = draw(st.integers(0, (1 << len(cands)) - 1))
    g = Hypergraph(n, 2, tuple(e for i, e in enumerate(cands) if chosen >> i & 1))
    return g, draw(st.sampled_from([2, 3]))


@settings(max_examples=60, deadline=None)
@given(graphs_and_ell(), st.integers(0, 3))
def test_exact_cut_matches_oracle_random(case, seed):
    g, ell = case
    best = cut_oracle(g, ell)
    for mode in ("exact", "local"):
        part, cut = max_ell_cut(g, ell, mode, seed=seed)
        assert cut == best if mode == "exact" else cut <= best
        assert vertex_move_optimal(g, part)
        assert crossing_count(g, part) == cut
        if g.n >= ell:
            assert all(part.blocks)


def test_exact_cut_matches_oracle_large():
    rng = random.Random(7)
    for n, ell in ((9, 3), (10, 2), (10, 3)):
        edges = tuple(m for m in all_r_subsets(n, 2) if rng.random() < 0.45)
        g = Hypergraph(n, 2, edges)
        _, cut = max_ell_cut(g, ell, "exact", seed=2)
        assert cut == cut_oracle(g, ell)


def test_local_cut_vertex_move_optimal():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(6, 24)
        edges = tuple(m for m in all_r_subsets(n, 2) if rng.random() < 0.3)
        g = Hypergraph(n, 2, edges)
        for ell in (2, 3):
            part, cut = max_ell_cut(g, ell, "local", seed=3)
            assert vertex_move_optimal(g, part)
            assert crossing_count(g, part) == cut
            # exact mode never does worse where it applies
            if n <= 20:
                _, exact = max_ell_cut(g, ell, "exact", seed=3)
                assert exact >= cut


def test_cut_partition_shape():
    g = Hypergraph(5, 2, ())
    part, cut = max_ell_cut(g, 3, "exact")
    assert cut == 0
    assert sorted(v for b in part.blocks for v in b) == [1, 2, 3, 4, 5]
    assert all(b for b in part.blocks)  # no empty block at n >= ell
    with pytest.raises(ValueError):
        max_ell_cut(Hypergraph(25, 2, ()), 2, "exact")  # exact-mode size guard
    with pytest.raises(ValueError):
        max_ell_cut(g, 1, "local")


def test_exact_cut_dense_graphs():
    # the bound caps the cut among k unplaced vertices at t_2(k, ell); without
    # the cap K_16 at ell = 4 took over 40 s, with it each case takes milliseconds
    t0 = time.perf_counter()
    for n, want in ((14, 73), (16, 96)):
        part, cut = max_ell_cut(Hypergraph(n, 2, tuple(all_r_subsets(n, 2))), 4, "exact")
        assert cut == turan_count(n, 2, 4) == want
        sizes = sorted(map(len, part.blocks))
        assert sizes[-1] - sizes[0] <= 1
    rng = random.Random(1)
    g = Hypergraph(15, 2, tuple(m for m in all_r_subsets(15, 2) if rng.random() < 0.97))
    # blocks and cut as the uncapped bound returned them
    assert max_ell_cut(g, 4, "exact") == (
        Partition(15, ((1, 5, 10), (2, 6, 11, 14), (3, 7, 12, 15), (4, 8, 9, 13))),
        84,
    )
    assert time.perf_counter() - t0 < 5


def test_exact_cut_fills_empty_blocks_after_a_poor_seed(monkeypatch):
    # From an all-in-one-block seed the branch and bound ends on a maximum cut
    # with empty blocks, and only the fill makes the partition valid: every
    # maximum 3-cut of K_{1,4} plus an isolated vertex fits in two blocks, and
    # the first maximum 4-cut of K_{2,2} is {1, 2} | {3, 4}, which the two
    # fills must split without emptying a block
    star = Hypergraph.from_edges(6, 2, [(1, v) for v in range(2, 6)])
    k22 = Hypergraph.from_edges(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
    monkeypatch.setattr(search_mod, "_local_cut", lambda adj, n, ell, nedges, seed: ([0] * n, 0))
    for g, ell in ((star, 3), (k22, 4)):
        part, cut = max_ell_cut(g, ell, "exact")
        assert cut == cut_oracle(g, ell) == crossing_count(g, part) == 4
        assert all(part.blocks)
        assert vertex_move_optimal(g, part)


# The per-neighbour helpers that the block masks replaced, kept as differential
# oracles: same visiting order, (count, block) tie-break, restarts and RNG draws.


def _local_cut_oracle(adj, n, ell, nedges, seed):
    def cut_value(assign):
        internal = 0
        for v in range(n):
            for b in iter_bits(adj[v] & ~((1 << (v + 1)) - 1)):
                if assign[b] == assign[v]:
                    internal += 1
        return nedges - internal

    def descend(assign):
        improved = True
        while improved:
            improved = False
            for v in range(n):
                counts = [0] * ell
                for b in iter_bits(adj[v]):
                    counts[assign[b]] += 1
                tgt = min(range(ell), key=lambda k: (counts[k], k))
                if counts[tgt] < counts[assign[v]]:
                    assign[v] = tgt
                    improved = True

    def fill_empty_blocks(assign):
        while True:
            sizes = [0] * ell
            for b in assign:
                sizes[b] += 1
            try:
                empty = next(k for k in range(ell) if sizes[k] == 0 and n >= ell)
            except StopIteration:
                return
            best_v, best_gain = None, -1
            for v in range(n):
                if sizes[assign[v]] < 2:
                    continue
                gain = sum(1 for b in iter_bits(adj[v]) if assign[b] == assign[v])
                if gain > best_gain:
                    best_v, best_gain = v, gain
            if best_v is None:
                return
            assign[best_v] = empty

    def greedy_assign():
        assign = [0] * n
        for v in range(n):
            counts = [0] * ell
            for b in iter_bits(adj[v] & ((1 << v) - 1)):
                counts[assign[b]] += 1
            assign[v] = min(range(ell), key=lambda k: (counts[k], k))
        return assign

    rng = random.Random(seed)
    best_assign, best_cut = None, -1
    for restart in range(search_mod.LOCAL_RESTARTS):
        assign = greedy_assign() if restart == 0 else [rng.randrange(ell) for _ in range(n)]
        descend(assign)
        fill_empty_blocks(assign)
        descend(assign)
        cut = cut_value(assign)
        if cut > best_cut:
            best_assign, best_cut = assign, cut
    return best_assign, best_cut


def _vertex_move_optimal_oracle(g, part):
    adj = g.adjacency
    idx = part.block_index()
    ell = len(part.blocks)
    for v in range(g.n):
        counts = [0] * ell
        for b in iter_bits(adj[v]):
            counts[idx[b]] += 1
        own = counts[idx[v]]
        if any(counts[k] < own for k in range(ell)):
            return False
    return True


def _blocks(assign, ell):
    return tuple(tuple(v + 1 for v, k in enumerate(assign) if k == b) for b in range(ell))


def _exact_cut_counter_oracle(adj, n, ell, nedges, seed):
    """The exact cut on per-vertex counter tables that the block masks replaced.

    cnt[v][b] counts v's assigned neighbours in block b and d_assigned[v] all
    of them; both are updated along v's neighbour list on every placement.
    Same order, bound, branch order and seed as the mask version.
    """
    seed_assign, seed_cut = search_mod._local_cut(adj, n, ell, nedges, seed)
    order, placed = [], 0
    degs = [adj[v].bit_count() for v in range(n)]
    while len(order) < n:
        best_v, best_k = -1, (-1, -1)
        for v in range(n):
            if placed & (1 << v):
                continue
            k = ((adj[v] & placed).bit_count(), degs[v])
            if k > best_k:
                best_v, best_k = v, k
        order.append(best_v)
        placed |= 1 << best_v
    suffix_pairs = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        later = 0
        for j in range(i + 1, n):
            later |= 1 << order[j]
        suffix_pairs[i] = suffix_pairs[i + 1] + (adj[order[i]] & later).bit_count()

    assign = [-1] * n
    cnt = [[0] * ell for _ in range(n)]
    d_assigned = [0] * n
    best = [seed_cut, list(seed_assign)]

    def bound(idx):
        return suffix_pairs[idx] + sum(d_assigned[order[j]] - min(cnt[order[j]]) for j in range(idx, n))

    def rec(idx, cross, used):
        if idx == n:
            if cross > best[0]:
                best[:] = [cross, list(assign)]
            return
        if cross + bound(idx) <= best[0]:
            return
        v = order[idx]
        for b in range(min(used + 1, ell)):
            assign[v] = b
            gained = d_assigned[v] - cnt[v][b]
            for w in iter_bits(adj[v]):
                if assign[w] == -1:
                    cnt[w][b] += 1
                    d_assigned[w] += 1
            rec(idx + 1, cross + gained, max(used, b + 1))
            for w in iter_bits(adj[v]):
                if assign[w] == -1:
                    cnt[w][b] -= 1
                    d_assigned[w] -= 1
            assign[v] = -1

    rec(0, 0, 0)
    final = list(best[1])
    bm = search_mod._block_masks(final, ell)
    search_mod._fill_empty_blocks(adj, final, bm)
    return final, search_mod._cut_value(adj, final, bm, nedges)


@st.composite
def cut_instances(draw, max_n=40, ells=(2, 3, 4, 5)):
    """A graph whose last `isolated` vertices have no edge, and ell from ells (n < ell included)."""
    n = draw(st.integers(0, max_n))
    isolated = draw(st.integers(0, min(n, 1 + n // 4)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = tuple(m for m in all_r_subsets(n - isolated, 2) if rng.random() < density)
    return Hypergraph(n, 2, edges), draw(st.sampled_from(ells))


@settings(max_examples=120, deadline=None)
@given(cut_instances(), st.integers(0, 10**6))
def test_local_cut_matches_per_neighbour_oracle(case, seed):
    g, ell = case
    part, cut = max_ell_cut(g, ell, "local", seed=seed)
    assign, oracle_cut = _local_cut_oracle(g.adjacency, g.n, ell, g.size, seed)
    assert (part.blocks, cut) == (_blocks(assign, ell), oracle_cut)


@settings(max_examples=60, deadline=None)
@given(cut_instances(max_n=10), st.integers(0, 10**6))
def test_exact_cut_same_with_per_neighbour_seed(case, seed):
    # _exact_cut seeds its branch and bound from _local_cut, and keeps the seed on ties
    g, ell = case
    fast = max_ell_cut(g, ell, "exact", seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "_local_cut", _local_cut_oracle)
        assert max_ell_cut(g, ell, "exact", seed=seed) == fast


@settings(max_examples=80, deadline=None)
@given(cut_instances(max_n=12, ells=(2, 3, 4)), st.integers(0, 10**6))
def test_exact_cut_matches_counter_oracle(case, seed):
    g, ell = case
    part, cut = max_ell_cut(g, ell, "exact", seed=seed)
    assign, oracle_cut = _exact_cut_counter_oracle(g.adjacency, g.n, ell, g.size, seed)
    assert (part.blocks, cut) == (_blocks(assign, ell), oracle_cut)
    # the local seed is mostly optimal already; from an all-in-block-0 seed the
    # branch and bound itself finds the first maximum cut in its order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "_local_cut", lambda adj, n, ell, nedges, seed: ([0] * n, 0))
        part, cut = max_ell_cut(g, ell, "exact", seed=seed)
        assign, oracle_cut = _exact_cut_counter_oracle(g.adjacency, g.n, ell, g.size, seed)
    assert (part.blocks, cut) == (_blocks(assign, ell), oracle_cut)


@settings(max_examples=120, deadline=None)
@given(cut_instances(), st.integers(0, 10**6))
def test_vertex_move_optimal_matches_oracle(case, seed):
    g, ell = case
    rng = random.Random(seed)
    assign = [0] * g.n
    for i, v in enumerate(rng.sample(range(g.n), g.n)):
        assign[v] = i if i < ell else rng.randrange(ell)  # no empty block when n >= ell
    random_part = Partition(g.n, _blocks(assign, ell))
    local_part, _ = max_ell_cut(g, ell, "local", seed=seed)
    assert vertex_move_optimal(g, local_part)
    for part in (random_part, local_part):
        assert vertex_move_optimal(g, part) == _vertex_move_optimal_oracle(g, part)
