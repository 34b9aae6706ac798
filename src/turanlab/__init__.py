"""turanlab: exact extremal numbers, inequality certificates, and stability
partition extraction for small Turan-type hypergraph problems."""

__version__ = "0.1.0"

from .checkers import (
    CertificateReport,
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
from .constructions import (
    balanced_partition,
    perturb,
    random_maximal_cancellative,
    random_triangle_free_near_bipartite,
    turan_count,
    turan_hypergraph,
)
from .hypergraph import (
    Hypergraph,
    auxiliary_graph,
    contains_clique,
    count_cliques,
    format_hypergraph,
    load_hypergraph,
    parse_hypergraph,
    save_hypergraph,
)
from .partitions import Partition, bad_edges
from .search import ExtremalRecord, extremal_number, max_ell_cut, vertex_move_optimal
from .stability import (
    BipartiteDistanceReport,
    StabilityReport,
    bipartite_distance_analysis,
    epsilon_delta_scan,
    extract_partition_cancellative,
    extract_partition_generalized,
    extract_partition_kfree,
    greedy_clique_removal,
    lemma25_pair,
)
