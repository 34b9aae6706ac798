"""Workload definitions: seeded input files plus the CLI jobs that consume them.

Inputs are written by this module's own small generators, not by the
program's, so a change to turanlab's generators cannot change what the
benchmark feeds it.  Every job is a `turanlab` argv list plus the name of
the output check that applies to it (see worker.py).
"""

from __future__ import annotations

import itertools
import os
import random

# (argv tail, theorem that gives the value, extremal classes found at the seed
#  commit, from-scratch checker of the witnesses) for each exhaustive search case
SEARCH_CASES = [
    (["--n", "9", "--r", "2", "--predicate", "triangle-free"], "mantel", 1, ("k-free", 2)),
    (["--n", "7", "--r", "2", "--predicate", "k-free", "--ell", "3"], "turan", 1, ("k-free", 3)),
    (["--n", "8", "--r", "3", "--predicate", "cancellative"], "bollobas", 1, ("cancellative", None)),
    (["--n", "7", "--r", "3", "--predicate", "k-free", "--ell", "3"], "turan", 1, ("k-free", 3)),
]

CERTIFICATES = [
    ["cancellative"],
    ["theorem13"],
    ["link-count"],
    ["inequality2"],
    ["mantel-link"],
    ["neighborhoods-independent"],
    ["links-triangle-free"],
    ["k-free", "--ell", "3"],
]

WORKLOADS = ("search", "certify", "stability")


def turan_number(n: int, r: int, ell: int) -> int:
    """t_r(n, ell): r-sets meeting each of ell balanced parts at most once."""
    sizes = [n // ell + (1 if i < n % ell else 0) for i in range(ell)]
    total = 0
    for chosen in itertools.combinations(sizes, r):
        prod = 1
        for s in chosen:
            prod *= s
        total += prod
    return total


def expected_value(theorem: str, n: int, r: int, ell: int | None) -> int:
    if theorem == "mantel":
        return n * n // 4
    if theorem == "bollobas":
        return turan_number(n, 3, 3)
    return turan_number(n, r, ell)


# ---------------------------------------------------------------------------
# generators (edges are tuples of 1-based labels)


def _parts(n: int, k: int) -> list[list[int]]:
    small, extra = divmod(n, k)
    out, start = [], 1
    for i in range(k):
        size = small + (1 if i < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def perturbed_t3(n: int, fraction: float, rng: random.Random) -> list[tuple[int, ...]]:
    """Balanced complete 3-partite 3-graph with a random fraction of edges deleted."""
    edges = list(itertools.product(*_parts(n, 3)))
    doomed = set(rng.sample(range(len(edges)), int(fraction * len(edges))))
    return [e for i, e in enumerate(edges) if i not in doomed]


def auxiliary_pairs(edges: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Pairs covered by some edge."""
    return sorted({p for e in edges for p in itertools.combinations(sorted(e), 2)})


def near_bipartite(n: int, epsilon: float, noise: int, rng: random.Random) -> list[tuple[int, int]]:
    """Triangle-free graph with (1/4 - epsilon) n^2 edges near a balanced bipartite one.

    Each of `noise` attempts plants a same-side edge and pays for it by
    deleting the cross edges that would close a triangle, unless that would
    fall below the target; random cross edges are then trimmed to the target.
    """
    left, right = _parts(n, 2)
    target = round((0.25 - epsilon) * n * n)
    count = len(left) * len(right)
    adj = {v: set() for v in range(1, n + 1)}
    for u in left:
        for v in right:
            adj[u].add(v)
            adj[v].add(u)
    for _ in range(noise):
        u, v = rng.sample(rng.choice((left, right)), 2)
        common = adj[u] & adj[v]
        if v in adj[u] or count - len(common) + 1 < target:
            continue
        for w in sorted(common):
            x = rng.choice((u, v))
            adj[x].discard(w)
            adj[w].discard(x)
        adj[u].add(v)
        adj[v].add(u)
        count += 1 - len(common)
    cross = [(u, v) for u in left for v in right if v in adj[u]]
    rng.shuffle(cross)
    while count > target and cross:
        u, v = cross.pop()
        adj[u].discard(v)
        adj[v].discard(u)
        count -= 1
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def write_hypergraph(path: str, n: int, r: int, edges) -> dict:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {r}\n")
        fh.writelines(" ".join(map(str, e)) + "\n" for e in edges)
    return {"file": os.path.basename(path), "n": n, "r": r, "edges": len(edges)}


# ---------------------------------------------------------------------------
# job lists


def _job(name: str, argv: list[str], check: str, **extra) -> dict:
    return {"name": name, "argv": argv, "check": check, **extra}


def build(workload: str, seed: int, directory: str) -> tuple[list[dict], list[dict]]:
    """Write the workload's inputs under `directory`; return (jobs, input summaries).

    A search job's `--cache` path is filled in per pass by the worker.
    """
    rng = random.Random(seed)
    inputs: list[dict] = []

    def put(name: str, n: int, r: int, edges) -> str:
        path = os.path.join(directory, name)
        inputs.append(write_hypergraph(path, n, r, edges))
        return path

    jobs: list[dict] = []
    if workload == "search":
        for tail, theorem, classes, checker in SEARCH_CASES:
            argv = ["search", *tail]
            label = "search " + " ".join(tail[1::2])
            n, r = int(tail[1]), int(tail[3])
            ell = int(tail[tail.index("--ell") + 1]) if "--ell" in tail else None
            value = expected_value(theorem, n, r, ell)
            jobs.append(_job(label + " miss", argv, "search", value=value, classes=classes, checker=checker))
            jobs.append(_job(label + " hit", argv, "same_as_previous"))
    elif workload == "certify":
        h = perturbed_t3(45, 0.03, rng)
        t3 = put("t3_45.txt", 45, 3, h)
        aux = put("t3_45_aux.txt", 45, 2, auxiliary_pairs(h))
        for cert in CERTIFICATES:
            jobs.append(_job("verify " + " ".join(cert), ["verify", cert[0], t3, *cert[1:]], "holds"))
        jobs.append(_job("verify fisher-ryan", ["verify", "fisher-ryan", aux, "--ell", "3"], "holds"))
    elif workload == "stability":
        t3 = put("t3_120.txt", 120, 3, perturbed_t3(120, 0.03, rng))
        bip = put("bipartite_160.txt", 160, 2, near_bipartite(160, 0.02, 16, rng))
        aux = auxiliary_pairs(list(itertools.product(*_parts(45, 3))))
        present = set(aux)
        absent = [p for p in itertools.combinations(range(1, 46), 2) if p not in present]
        gen = put("t3_45_aux_planted.txt", 45, 2, sorted(aux + rng.sample(absent, 3)))
        s = [str(rng.randrange(1 << 20)) for _ in range(12)]
        jobs += [
            _job("stability cancellative", ["stability", "cancellative", t3, "--json"], "reference"),
            _job("stability kfree", ["stability", "kfree", t3, "--ell", "3", "--seed", s[0], "--json"], "reference"),
            _job("stability bipartite", ["stability", "bipartite", bip, "--seed", s[1], "--json"], "bipartite"),
            _job(
                "stability generalized",
                ["stability", "generalized", gen, "--ell", "3", "--r", "3", "--seed", s[2], "--json"],
                "reference",
            ),
        ]
        scans = [
            ("cancellative", "30,60", "0.01,0.05", []),
            ("kfree", "15,18", "0.01,0.05", []),
            ("triangle-free", "40,80", "0.01,0.03", ["--noise", "6"]),
        ]
        for i, (kind, ns, params, extra) in enumerate(scans):
            seeds = ",".join(s[3 + 3 * i : 6 + 3 * i])
            argv = ["scan", "--kind", kind, "--n", ns, "--params", params, "--seeds", seeds, *extra]
            jobs.append(_job("scan " + kind, argv, "scan", rows=2 * 2 * 3))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, inputs
