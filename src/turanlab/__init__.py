"""turanlab: exact extremal numbers, inequality certificates, and stability
partition extraction for small Turan-type hypergraph problems."""

__version__ = "0.1.0"

from .canonical import CanonicalForm, are_isomorphic, canonical_form, permute_hypergraph
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
    BalancedPartition,
    ForbiddenFamily,
    balanced_partition,
    k_family,
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
    degree,
    format_hypergraph,
    is_subgraph,
    link,
    link_pair,
    load_hypergraph,
    neighborhood,
    parse_hypergraph,
    save_hypergraph,
    shadow,
)
from .partitions import Partition, bad_edges, crossing_count
from .search import (
    ExtremalRecord,
    extremal_number,
    max_ell_cut,
    uniqueness_check,
    vertex_move_optimal,
)
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
