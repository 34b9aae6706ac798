"""Command-line surface tying the modules into one reproducible tool.

Exit codes: 0 ok/holds, 1 property violated, 2 usage or precondition
failure, 3 search budget exhausted.  Stdout carries only deterministic
JSON/CSV/text payloads; timestamps, runtimes, and digests go to the run
manifest on stderr (--manifest).  Randomized subcommands require an
explicit --seed; there is no time-derived default anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .cache import CacheEntry, RunManifest, cache_entries, cache_lookup, cache_store, resolve_cache_path
from .checkers import (
    CertificateReport,
    cancellative_witness,
    fisher_ryan_certificate,
    inequality2_certificate,
    is_k_free,
    link_count_identity,
    links_triangle_free,
    mantel_link_bound,
    neighborhoods_independent,
    theorem13_certificate,
)
from .constructions import (
    perturb,
    random_maximal_cancellative,
    random_triangle_free_near_bipartite,
    turan_hypergraph,
)
from .hypergraph import format_hypergraph, load_hypergraph, vertices_of
from .search import NODE_BUDGET, PREDICATES, check_request, extremal_number
from .stability import (
    bipartite_distance_analysis,
    epsilon_delta_scan,
    extract_partition_cancellative,
    extract_partition_generalized,
    extract_partition_kfree,
)

OK, VIOLATED, USAGE, BUDGET = 0, 1, 2, 3


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turanlab", description=__doc__)
    parser.add_argument("--manifest", action="store_true", help="emit a run manifest on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a named construction in the shared text format")
    csub = c.add_subparsers(dest="kind", required=True)

    ct = csub.add_parser("turan", help="balanced transversal r-graph")
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--r", type=int, required=True)
    ct.add_argument("--ell", type=int, required=True)
    ct.add_argument("--json", action="store_true")

    cc = csub.add_parser("random-cancellative", help="greedy maximal cancellative 3-graph")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--seed", type=int, required=True)
    cc.add_argument("--json", action="store_true")

    cf = csub.add_parser("triangle-free", help="near-bipartite triangle-free graph")
    cf.add_argument("--n", type=int, required=True)
    cf.add_argument("--epsilon", type=float, required=True)
    cf.add_argument("--noise", type=int, default=0)
    cf.add_argument("--seed", type=int, required=True)
    cf.add_argument("--json", action="store_true")

    cp = csub.add_parser("perturb", help="delete a fraction of edges then add absent r-sets")
    cp.add_argument("file")
    cp.add_argument("--delete-fraction", type=float, required=True)
    cp.add_argument("--add-count", type=int, default=0)
    cp.add_argument("--seed", type=int, required=True)
    cp.add_argument("--keep-cancellative", action="store_true")
    cp.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run a certificate or predicate check on a file")
    v.add_argument(
        "certificate",
        choices=[
            "fisher-ryan",
            "link-count",
            "inequality2",
            "theorem13",
            "mantel-link",
            "cancellative",
            "k-free",
            "links-triangle-free",
            "neighborhoods-independent",
        ],
    )
    v.add_argument("file")
    v.add_argument("--ell", type=int)

    s = sub.add_parser("search", help="exact extremal number by exhaustive search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--predicate", required=True, choices=PREDICATES)
    s.add_argument("--ell", type=int)
    s.add_argument("--budget", type=int, default=NODE_BUDGET)
    s.add_argument("--allow-large", action="store_true")
    s.add_argument("--cache", default=None)
    s.add_argument("--no-cache", action="store_true")
    s.add_argument("--force", action="store_true")

    st = sub.add_parser("stability", help="partition extraction / bipartite-distance analysis")
    st.add_argument("mode", choices=["cancellative", "kfree", "generalized", "bipartite"])
    st.add_argument("file")
    st.add_argument("--ell", type=int, default=3)
    st.add_argument("--r", type=int, default=3)
    st.add_argument("--seed", type=int, default=None)
    st.add_argument("--json", action="store_true")

    sc = sub.add_parser("scan", help="epsilon-delta table over a seeded instance grid (CSV)")
    sc.add_argument("--kind", required=True, choices=["cancellative", "kfree", "triangle-free"])
    sc.add_argument("--n", required=True, help="comma-separated n values")
    sc.add_argument("--params", required=True, help="comma-separated fractions / epsilon targets")
    sc.add_argument("--seeds", required=True, help="comma-separated seeds")
    sc.add_argument("--ell", type=int, default=3)
    sc.add_argument("--noise", type=int, default=0)

    ca = sub.add_parser("cache", help="inspect the result cache")
    casub = ca.add_subparsers(dest="action", required=True)
    cl = casub.add_parser("list")
    cl.add_argument("--cache", default=None)
    cg = casub.add_parser("get")
    cg.add_argument("--predicate", required=True)
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--r", type=int, required=True)
    cg.add_argument("--ell", type=int, default=None)
    cg.add_argument("--cache", default=None)

    return parser


def _construct_payload(args) -> tuple[str, int]:
    if args.kind == "turan":
        h = turan_hypergraph(args.n, args.r, args.ell)
        meta = {"kind": "turan", "n": args.n, "r": args.r, "ell": args.ell, "seed": None}
    elif args.kind == "random-cancellative":
        h = random_maximal_cancellative(args.n, args.seed)
        meta = {"kind": "random-cancellative", "n": args.n, "r": 3, "ell": None, "seed": args.seed}
    elif args.kind == "triangle-free":
        h = random_triangle_free_near_bipartite(args.n, args.epsilon, args.noise, args.seed)
        meta = {
            "kind": "triangle-free",
            "n": args.n,
            "r": 2,
            "ell": None,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "noise": args.noise,
        }
    else:  # perturb
        base = load_hypergraph(args.file)
        h = perturb(base, args.delete_fraction, args.add_count, args.seed, args.keep_cancellative)
        meta = {
            "kind": "perturb",
            "n": h.n,
            "r": h.r,
            "ell": None,
            "seed": args.seed,
            "delete_fraction": args.delete_fraction,
            "add_count": args.add_count,
        }
    text = format_hypergraph(h)
    if args.json:
        meta["edges"] = h.size
        meta["hypergraph"] = text
        return _json(meta), OK
    return text, OK


def _verify_payload(args) -> tuple[str, int]:
    h = load_hypergraph(args.file)
    name = args.certificate
    if name in ("fisher-ryan",):
        if args.ell is None:
            raise ValueError("fisher-ryan requires --ell")
        report = fisher_ryan_certificate(h, args.ell)
    elif name == "link-count":
        report = link_count_identity(h)
    elif name == "inequality2":
        report = inequality2_certificate(h)
    elif name == "theorem13":
        report = theorem13_certificate(h)
    elif name == "mantel-link":
        report = mantel_link_bound(h)
    elif name == "cancellative":
        w = cancellative_witness(h)
        report = CertificateReport(
            name="cancellative",
            quantities={"n": h.n, "edges": h.size},
            holds=w is None,
            witness=None if w is None else {"triple": [list(t) for t in w]},
        )
    elif name == "k-free":
        if args.ell is None:
            raise ValueError("k-free requires --ell")
        ok = is_k_free(h, args.ell)
        report = CertificateReport(
            name="k-free",
            quantities={"n": h.n, "edges": h.size, "ell": args.ell},
            holds=ok,
            witness=None if ok else {"reason": "auxiliary graph contains a forbidden clique"},
        )
    elif name == "links-triangle-free":
        ok = links_triangle_free(h)
        report = CertificateReport(
            name="links-triangle-free",
            quantities={"n": h.n, "edges": h.size},
            holds=ok,
            witness=None if ok else {"reason": "some vertex link contains a triangle"},
        )
    else:
        ok = neighborhoods_independent(h)
        report = CertificateReport(
            name="neighborhoods-independent",
            quantities={"n": h.n, "edges": h.size},
            holds=ok,
            witness=None if ok else {"reason": "some neighborhood meets an edge twice"},
        )
    return _json(report.to_json_dict()), OK if report.holds else VIOLATED


def _search_result(entry: CacheEntry) -> str:
    """A search result as printed, whether just computed or read from the cache."""
    return _json(
        {
            "predicate": entry.predicate,
            "n": entry.n,
            "r": entry.r,
            "ell": entry.ell,
            "value": entry.value,
            "extremal_classes": entry.extremal_classes,
            "complete": entry.complete,
            "cap_hit": bool(entry.stats.get("cap_hit", False)),
            "nodes_explored": entry.stats.get("nodes_explored"),
            "witnesses": entry.stats.get("witnesses", []),
        }
    )


def _search_payload(args) -> tuple[str, int]:
    # before the lookup: the key holds ell, so an ill-formed request could still hit
    check_request(args.r, args.predicate, args.ell)
    key = (args.predicate, args.n, args.r, args.ell)
    path = resolve_cache_path(args.cache)
    use_cache = not args.no_cache
    if use_cache and not args.force:
        hit = cache_lookup(path, key)
        if hit is not None:
            return _search_result(hit), OK
    rec = extremal_number(
        args.n, args.r, args.predicate, ell=args.ell, allow_large=args.allow_large, node_budget=args.budget
    )
    entry = CacheEntry(
        predicate=rec.predicate,
        n=rec.n,
        r=rec.r,
        ell=rec.ell,
        value=rec.value,
        extremal_classes=rec.extremal_classes,
        complete=rec.complete,
        tool_version=__version__,
        timestamp=time.time(),
        stats={
            "nodes_explored": rec.nodes_explored,
            "runtime": rec.runtime,
            "cap_hit": rec.cap_hit,
            "witnesses": [[list(vertices_of(e)) for e in w.edges] for w in rec.witnesses],
        },
    )
    if use_cache and rec.complete:
        if args.force:
            prior = cache_lookup(path, key)
            if prior is not None and prior.value != rec.value:
                raise AssertionError(
                    f"self-consistency tripwire: cached value {prior.value} != recomputed {rec.value}"
                )
        cache_store(path, entry)
    return _search_result(entry), OK if rec.complete else BUDGET


def _stability_payload(args) -> tuple[str, int]:
    h = load_hypergraph(args.file)
    needs_seed = args.mode in ("kfree", "generalized", "bipartite")
    if needs_seed and args.seed is None:
        raise ValueError(f"stability {args.mode} is randomized above the exact-cut ceiling; --seed is required")
    if args.mode == "cancellative":
        report = extract_partition_cancellative(h)
    elif args.mode == "kfree":
        report = extract_partition_kfree(h, args.ell, seed=args.seed)
    elif args.mode == "generalized":
        report = extract_partition_generalized(h, args.ell, args.r, seed=args.seed)
    else:
        rep = bipartite_distance_analysis(h, seed=args.seed)
        if args.json:
            return _json(rep.to_json_dict()), OK if all(rep.verified.values()) else VIOLATED
        lines = [
            f"n={rep.n} edges={rep.edges} epsilon={rep.epsilon!r} delta={rep.delta!r}",
            f"bad_edges={len(rep.bad_edge_list)} missing={rep.missing_count} "
            f"Delta={rep.max_internal_degree} case={rep.case}",
            "verified=" + ",".join(f"{k}:{str(v).lower()}" for k, v in sorted(rep.verified.items())),
        ]
        return "\n".join(lines) + "\n", OK if all(rep.verified.values()) else VIOLATED
    if args.json:
        return _json(report.to_json_dict()), OK
    line = (
        f"n={report.n} edges={report.edges} target={report.target} "
        f"epsilon={report.epsilon!r} delta={report.delta!r} bad_edges={report.bad_edge_count}"
    )
    return line + "\n", OK


def _scan_payload(args) -> tuple[str, int]:
    ns = _int_list(args.n)
    params = _float_list(args.params)
    rows = epsilon_delta_scan(args.kind, ns, params, _int_list(args.seeds), ell=args.ell, noise=args.noise)
    lines = ["n,seed,epsilon,delta,bad_edges,case"]
    for row in rows:
        lines.append(
            f"{row.n},{row.seed},{row.epsilon!r},{row.delta!r},{row.bad_edges},{row.case}"
        )
    return "\n".join(lines) + "\n", OK


def _cache_payload(args) -> tuple[str, int]:
    path = resolve_cache_path(args.cache)
    if args.action == "list":
        entries = cache_entries(path)
        return _json({"path": path, "entries": [e.to_json_dict() for e in entries]}), OK
    key = (args.predicate, args.n, args.r, args.ell)
    hit = cache_lookup(path, key)
    if hit is None:
        return _json({"path": path, "found": False}), VIOLATED
    return _json({"path": path, "found": True, "entry": hit.to_json_dict()}), OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `run` in this process.  Parsing leaves it as it
    was, and a new one per call would leave its reference cycles behind for
    the cyclic collector, which frees them late once the calls allocate little."""
    return build_parser()


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code and prints artifacts."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed a usage message
        code = exc.code
        return code if isinstance(code, int) else USAGE
    manifest = RunManifest(command=["turanlab", *argv]) if args.manifest else None
    try:
        if args.command == "construct":
            text, code = _construct_payload(args)
        elif args.command == "verify":
            text, code = _verify_payload(args)
        elif args.command == "search":
            text, code = _search_payload(args)
        elif args.command == "stability":
            text, code = _stability_payload(args)
        elif args.command == "scan":
            text, code = _scan_payload(args)
        else:
            text, code = _cache_payload(args)
        if manifest is not None:
            if getattr(args, "file", None) is not None:
                manifest.add_input_file(args.file)
            if args.command == "scan":
                manifest.seeds.extend(_int_list(args.seeds))
            elif getattr(args, "seed", None) is not None:
                manifest.seeds.append(args.seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return VIOLATED
    sys.stdout.write(text)
    if manifest is not None:
        manifest.add_output("stdout", text)
        print(json.dumps(manifest.to_json_dict(), sort_keys=False), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
