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
import importlib
import json
import sys
import time

from . import __version__

OK, VIOLATED, USAGE, BUDGET = 0, 1, 2, 3

# `search`'s predicates and default node budget, spelled here so that the
# parser loads no search code (a test pins them to turanlab.search)
PREDICATES = ("cancellative", "k-free", "triangle-free")
NODE_BUDGET = 50_000_000


def _lib(module: str):
    """The package's `module`, imported by the first call that runs it.

    The dispatch tables below look each check up on it at call time, not
    bound at import, so a subcommand loads only the modules it runs and a
    wrapper installed on a module attribute (perfbench/spans.py) sees every
    call."""
    return importlib.import_module(f"{__package__}.{module}")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _values(text: str, kind: type) -> list:
    """The comma-separated values of `text`, each read by `kind`."""
    return [kind(p) for p in text.split(",") if p.strip()]


def _ell(certificate: str, ell: int | None) -> int:
    """--ell, which `certificate` reads and so requires."""
    if ell is None:
        raise ValueError(f"{certificate} requires --ell")
    return ell


def _check(certificate: str, h, ok: bool, witness: dict | None, **quantities):
    """The CertificateReport of a yes/no check on hypergraph `h`, which
    carries `witness` when it fails."""
    return _lib("checkers").CertificateReport(
        name=certificate,
        quantities={"n": h.n, "edges": h.size, **quantities},
        holds=ok,
        witness=None if ok else witness,
    )


def _cancellative(certificate: str, h, ell: int | None):
    w = _lib("checkers").cancellative_witness(h)
    return _check(certificate, h, w is None, None if w is None else {"triple": [list(t) for t in w]})


# certificate -> its report of (certificate, hypergraph, --ell), in the order
# `verify --help` lists them
CERTIFICATES = {
    "fisher-ryan": lambda name, h, ell: _lib("checkers").fisher_ryan_certificate(h, _ell(name, ell)),
    "link-count": lambda name, h, ell: _lib("checkers").link_count_identity(h),
    "inequality2": lambda name, h, ell: _lib("checkers").inequality2_certificate(h),
    "theorem13": lambda name, h, ell: _lib("checkers").theorem13_certificate(h),
    "mantel-link": lambda name, h, ell: _lib("checkers").mantel_link_bound(h),
    "cancellative": _cancellative,
    "k-free": lambda name, h, ell: _check(
        name,
        h,
        _lib("checkers").is_k_free(h, _ell(name, ell)),
        {"reason": "auxiliary graph contains a forbidden clique"},
        ell=ell,
    ),
    "links-triangle-free": lambda name, h, ell: _check(
        name, h, _lib("checkers").links_triangle_free(h), {"reason": "some vertex link contains a triangle"}
    ),
    "neighborhoods-independent": lambda name, h, ell: _check(
        name, h, _lib("checkers").neighborhoods_independent(h), {"reason": "some neighborhood meets an edge twice"}
    ),
}

# stability mode -> its analysis of (hypergraph, args), in the order
# `stability --help` lists them
STABILITY_MODES = {
    "cancellative": lambda h, args: _lib("stability").extract_partition_cancellative(h),
    "kfree": lambda h, args: _lib("stability").extract_partition_kfree(h, args.ell, seed=args.seed),
    "generalized": lambda h, args: _lib("stability").extract_partition_generalized(
        h, args.ell, args.r, seed=args.seed
    ),
    "bipartite": lambda h, args: _lib("stability").bipartite_distance_analysis(h, seed=args.seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turanlab", description=__doc__)
    parser.add_argument("--manifest", action="store_true", help="emit a run manifest on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a named construction in the shared text format")
    csub = c.add_subparsers(dest="kind", required=True)

    # each construction's parser names its build, which reads the parsed args
    ct = csub.add_parser("turan", help="balanced transversal r-graph")
    ct.set_defaults(build=lambda a: _lib("constructions").turan_hypergraph(a.n, a.r, a.ell))
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--r", type=int, required=True)
    ct.add_argument("--ell", type=int, required=True)

    cc = csub.add_parser("random-cancellative", help="greedy maximal cancellative 3-graph")
    cc.set_defaults(build=lambda a: _lib("constructions").random_maximal_cancellative(a.n, a.seed))
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--seed", type=int, required=True)

    cf = csub.add_parser("triangle-free", help="near-bipartite triangle-free graph")
    cf.set_defaults(
        build=lambda a: _lib("constructions").random_triangle_free_near_bipartite(a.n, a.epsilon, a.noise, a.seed)
    )
    cf.add_argument("--n", type=int, required=True)
    cf.add_argument("--epsilon", type=float, required=True)
    cf.add_argument("--noise", type=int, default=0)
    cf.add_argument("--seed", type=int, required=True)

    cp = csub.add_parser("perturb", help="delete a fraction of edges then add absent r-sets")
    cp.set_defaults(
        build=lambda a: _lib("constructions").perturb(
            _lib("hypergraph").load_hypergraph(a.file), a.delete_fraction, a.add_count, a.seed, a.keep_cancellative
        )
    )
    cp.add_argument("file")
    cp.add_argument("--delete-fraction", type=float, required=True)
    cp.add_argument("--add-count", type=int, default=0)
    cp.add_argument("--seed", type=int, required=True)
    cp.add_argument("--keep-cancellative", action="store_true")
    for p in csub.choices.values():
        p.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run a certificate or predicate check on a file")
    v.add_argument("certificate", choices=CERTIFICATES)
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
    st.add_argument("mode", choices=STABILITY_MODES)
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
    casub.add_parser("list")
    cg = casub.add_parser("get")
    cg.add_argument("--predicate", required=True)
    cg.add_argument("--n", type=int, required=True)
    cg.add_argument("--r", type=int, required=True)
    cg.add_argument("--ell", type=int, default=None)
    for p in casub.choices.values():
        p.add_argument("--cache", default=None)

    return parser


def _construct_payload(args) -> tuple[str, int]:
    from .hypergraph import format_hypergraph

    h = args.build(args)
    text = format_hypergraph(h)
    if not args.json:
        return text, OK
    meta = {"kind": args.kind, "n": h.n, "r": h.r}
    meta.update(ell=getattr(args, "ell", None), seed=getattr(args, "seed", None))
    # the parameters of triangle-free and of perturb, in that order
    for extra in ("epsilon", "noise", "delete_fraction", "add_count"):
        if hasattr(args, extra):
            meta[extra] = getattr(args, extra)
    meta["edges"] = h.size
    meta["hypergraph"] = text
    return _json(meta), OK


def _verify_payload(args) -> tuple[str, int]:
    from .hypergraph import load_hypergraph

    h = load_hypergraph(args.file)
    report = CERTIFICATES[args.certificate](args.certificate, h, args.ell)
    return _json(report.to_json_dict()), OK if report.holds else VIOLATED


def _search_result(entry) -> str:
    """A search result as printed, from its CacheEntry, whether just computed
    or read from the cache."""
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
    from .cache import CacheEntry, cache_lookup, cache_store, resolve_cache_path
    from .hypergraph import vertices_of
    from .search import check_request, extremal_number

    # before the lookup: the key holds ell and no budget, so an ill-formed request could still hit
    check_request(args.n, args.r, args.predicate, args.ell, args.budget)
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
            if prior is not None and (prior.value, prior.extremal_classes) != (rec.value, rec.extremal_classes):
                raise AssertionError(
                    f"self-consistency tripwire: cached value {prior.value}, {prior.extremal_classes} classes"
                    f" != recomputed {rec.value}, {rec.extremal_classes} classes"
                )
        cache_store(path, entry)
    return _search_result(entry), OK if rec.complete else BUDGET


def _stability_payload(args) -> tuple[str, int]:
    from .hypergraph import load_hypergraph
    from .stability import BipartiteDistanceReport

    h = load_hypergraph(args.file)
    if args.mode != "cancellative" and args.seed is None:
        raise ValueError(f"stability {args.mode} is randomized above the exact-cut ceiling; --seed is required")
    report = STABILITY_MODES[args.mode](h, args)
    if isinstance(report, BipartiteDistanceReport):
        code = OK if all(report.verified.values()) else VIOLATED
        lines = [
            f"n={report.n} edges={report.edges} epsilon={report.epsilon!r} delta={report.delta!r}",
            f"bad_edges={len(report.bad_edge_list)} missing={report.missing_count} "
            f"Delta={report.max_internal_degree} case={report.case}",
            "verified=" + ",".join(f"{k}:{str(v).lower()}" for k, v in sorted(report.verified.items())),
        ]
    else:
        code = OK
        lines = [
            f"n={report.n} edges={report.edges} target={report.target} "
            f"epsilon={report.epsilon!r} delta={report.delta!r} bad_edges={report.bad_edge_count}"
        ]
    return (_json(report.to_json_dict()) if args.json else "\n".join(lines) + "\n"), code


def _scan_payload(args) -> tuple[str, int]:
    from .stability import epsilon_delta_scan

    ns = _values(args.n, int)
    params = _values(args.params, float)
    rows = epsilon_delta_scan(args.kind, ns, params, _values(args.seeds, int), ell=args.ell, noise=args.noise)
    lines = ["n,seed,epsilon,delta,bad_edges,case"]
    for row in rows:
        lines.append(
            f"{row.n},{row.seed},{row.epsilon!r},{row.delta!r},{row.bad_edges},{row.case}"
        )
    return "\n".join(lines) + "\n", OK


def _cache_payload(args) -> tuple[str, int]:
    from .cache import cache_entries, cache_lookup, resolve_cache_path

    path = resolve_cache_path(args.cache)
    if args.action == "list":
        entries = cache_entries(path)
        return _json({"path": path, "entries": [e.to_json_dict() for e in entries]}), OK
    key = (args.predicate, args.n, args.r, args.ell)
    hit = cache_lookup(path, key)
    if hit is None:
        return _json({"path": path, "found": False}), VIOLATED
    return _json({"path": path, "found": True, "entry": hit.to_json_dict()}), OK


# subcommand -> its payload of the parsed args: (stdout, exit code)
COMMANDS = {
    "construct": _construct_payload,
    "verify": _verify_payload,
    "search": _search_payload,
    "stability": _stability_payload,
    "scan": _scan_payload,
    "cache": _cache_payload,
}


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
    manifest = None
    if args.manifest:
        from .cache import RunManifest

        manifest = RunManifest(command=["turanlab", *argv])
    try:
        text, code = COMMANDS[args.command](args)
        if manifest is not None:
            if getattr(args, "file", None) is not None:
                manifest.add_input_file(args.file)
            if hasattr(args, "seeds"):
                manifest.seeds.extend(_values(args.seeds, int))
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
