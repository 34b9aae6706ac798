"""turanlab: exact extremal numbers, inequality certificates, and stability
partition extraction for small Turan-type hypergraph problems.

The public names below are re-exported lazily (PEP 562): `import turanlab`
loads no submodule, and the first use of a name imports the one module that
defines it, so a CLI call pays only for the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "CertificateReport",
            "cancellative_witness",
            "fisher_ryan_certificate",
            "inequality2_certificate",
            "is_cancellative",
            "is_k_free",
            "link_count_identity",
            "links_triangle_free",
            "mantel_link_bound",
            "neighborhoods_independent",
            "theorem13_certificate",
        ),
        "checkers",
    ),
    **dict.fromkeys(
        (
            "balanced_partition",
            "perturb",
            "random_maximal_cancellative",
            "random_triangle_free_near_bipartite",
            "turan_count",
            "turan_hypergraph",
        ),
        "constructions",
    ),
    **dict.fromkeys(
        (
            "Hypergraph",
            "auxiliary_graph",
            "contains_clique",
            "count_cliques",
            "format_hypergraph",
            "load_hypergraph",
            "parse_hypergraph",
            "save_hypergraph",
        ),
        "hypergraph",
    ),
    **dict.fromkeys(("Partition", "bad_edges"), "partitions"),
    **dict.fromkeys(("ExtremalRecord", "extremal_number", "max_ell_cut", "vertex_move_optimal"), "search"),
    **dict.fromkeys(
        (
            "BipartiteDistanceReport",
            "StabilityReport",
            "bipartite_distance_analysis",
            "epsilon_delta_scan",
            "extract_partition_cancellative",
            "extract_partition_generalized",
            "extract_partition_kfree",
            "greedy_clique_removal",
            "lemma25_pair",
        ),
        "stability",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # looked up on the submodule each time, not cached here, so a wrapper
    # installed on the submodule's attribute is what this name returns
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
