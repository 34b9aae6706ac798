"""Input checks of the library functions: each ill-formed argument is a ValueError naming it."""

import pytest

from turanlab.checkers import fisher_ryan_certificate, is_k_free
from turanlab.constructions import (
    balanced_partition,
    perturb,
    random_triangle_free_near_bipartite,
    turan_count,
    turan_hypergraph,
)
from turanlab.hypergraph import Hypergraph, contains_clique, count_cliques
from turanlab.partitions import Partition
from turanlab.search import check_request, max_ell_cut
from turanlab.stability import (
    bipartite_distance_analysis,
    extract_partition_generalized,
    greedy_clique_removal,
    lemma25_pair,
)

PATH = Hypergraph.from_edges(4, 2, [(1, 2), (2, 3), (3, 4)])
TRIPLES = Hypergraph.from_edges(5, 3, [(1, 2, 3), (3, 4, 5)])

# (call, the message it must raise); one row per check
REFUSALS = [
    (lambda: count_cliques(TRIPLES, 2), r"clique counting expects a graph \(r = 2\)"),
    (lambda: contains_clique(TRIPLES, 3), r"clique search expects a graph \(r = 2\)"),
    (lambda: contains_clique(PATH, 0), r"clique size must be >= 1, got 0"),
    (lambda: Partition(3, ((1, 2), (2, 3))), r"partition blocks must be disjoint"),
    (lambda: Partition(3, ((1,), (2,))), r"partition blocks must cover 1\.\.3"),
    (lambda: Partition(3, ((1, 2, 3), ())), r"empty block in a partition with n >= block count"),
    (lambda: Partition(3, ((1, 1, 2), (3,))), r"partition block \(1, 1, 2\) must hold distinct labels in 1\.\.3"),
    (lambda: Partition(3, ((1, 2, 4), (3,))), r"partition block \(1, 2, 4\) must hold distinct labels in 1\.\.3"),
    (lambda: balanced_partition(5, 0), r"need at least one block, got ell = 0"),
    (lambda: turan_count(-1, 2, 2), r"n must be >= 0"),
    (lambda: turan_hypergraph(5, 3, 2), r"need ell >= r >= 2, got r = 3, ell = 2"),
    (lambda: turan_hypergraph(0, 2, 2), r"n must be >= 1"),
    (lambda: perturb(PATH, 0.1, -1, 0), r"add_count must be >= 0"),
    (lambda: random_triangle_free_near_bipartite(4, 0.5, 0, 0), r"epsilon is too large: negative target edge count"),
    (lambda: fisher_ryan_certificate(PATH, 0), r"ell must be >= 1"),
    (lambda: is_k_free(TRIPLES, 2), r"need ell >= r, got ell = 2, r = 3"),
    (lambda: check_request(5, 3, "triangle-free", None), r"predicate 'triangle-free' does not apply to r = 3"),
    (lambda: max_ell_cut(TRIPLES, 2), r"max_ell_cut expects a graph \(r = 2\)"),
    (lambda: max_ell_cut(PATH, 2, mode="fast"), r"unknown mode 'fast'"),
    (lambda: lemma25_pair(TRIPLES), r"lemma25_pair expects a graph \(r = 2\)"),
    (lambda: greedy_clique_removal(TRIPLES, 2), r"greedy_clique_removal expects a graph \(r = 2\)"),
    (lambda: greedy_clique_removal(PATH, 0), r"ell must be >= 1"),
    (lambda: extract_partition_generalized(TRIPLES, 3, 3), r"extract_partition_generalized expects a graph \(r = 2\)"),
    (lambda: bipartite_distance_analysis(TRIPLES), r"bipartite_distance_analysis expects a graph \(r = 2\)"),
]


def test_input_checks_refuse_ill_formed_arguments():
    for call, message in REFUSALS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
