"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and grid here is pinned; the runtime budgets are
asserted, not aspirational.
"""

import random
import time

from turanlab.checkers import (
    fisher_ryan_certificate,
    inequality2_certificate,
    is_cancellative,
    link_count_identity,
    mantel_link_bound,
    theorem13_certificate,
)
from turanlab.cli import run as cli_run
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
    mask_of,
)
from turanlab.search import extremal_number
from turanlab.stability import (
    bipartite_distance_analysis,
    epsilon_delta_scan,
    extract_partition_cancellative,
    extract_partition_generalized,
    extract_partition_kfree,
    greedy_clique_removal,
)

from oracles import uniqueness_check

CANCELLATIVE_VALUES = {3: 1, 4: 2, 5: 4, 6: 8, 7: 12}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_cancellative_values():
    t0 = time.monotonic()
    for n, expected in CANCELLATIVE_VALUES.items():
        rec = extremal_number(n, 3, "cancellative")
        assert rec.complete
        assert rec.value == expected == turan_count(n, 3, 3), (n, rec.value)
    rec6 = extremal_number(6, 3, "cancellative")
    assert rec6.extremal_classes == 1
    assert uniqueness_check(rec6, turan_hypergraph(6, 3, 3))
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed <= 600,
        f"cancellative extremal numbers n=3..7 = {list(CANCELLATIVE_VALUES.values())}, "
        f"unique class at n=6 is the balanced transversal graph ({elapsed:.1f}s)",
    )


def test_criterion_2_exact_kfree_values():
    t0 = time.monotonic()
    for n in range(4, 8):
        rec = extremal_number(n, 3, "k-free", ell=3)
        assert rec.complete and rec.value == turan_count(n, 3, 3), (n, rec.value)
    for n in range(3, 11):
        rec = extremal_number(n, 2, "k-free", ell=2)
        assert rec.complete and rec.value == n * n // 4, (n, rec.value)
    elapsed = time.monotonic() - t0
    report(2, elapsed <= 600, f"pair-cover-free values match the balanced counts ({elapsed:.1f}s)")


def _all_cancellative_5():
    out = []
    for bits in range(1 << 10):
        triples = all_r_subsets(5, 3)
        edges = tuple(t for i, t in enumerate(triples) if bits >> i & 1)
        h = Hypergraph(5, 3, edges)
        if is_cancellative(h):
            out.append(h)
    return out


def test_criterion_3_certificate_suite():
    t0 = time.monotonic()
    violations = 0

    # (a) exhaustive cancellative 3-graphs on 5 vertices, all five certificates
    exhaustive = _all_cancellative_5()
    for h in exhaustive:
        if not link_count_identity(h).holds:
            violations += 1
        if not inequality2_certificate(h).holds:
            violations += 1
        if not theorem13_certificate(h).holds:
            violations += 1
        if not mantel_link_bound(h).holds:
            violations += 1
        g = auxiliary_graph(h)
        omega = 1
        while omega < g.n and contains_clique(g, omega + 1):
            omega += 1
        if not fisher_ryan_certificate(g, max(omega, 2)).holds:
            violations += 1

    # (b) 1000 seeded random instances per checker at n <= 12
    for seed in range(1000):
        rng = random.Random(seed)
        n = 4 + seed % 9  # 4..12
        ell = 2 + (seed // 9) % 3  # decorrelated from n
        edges = tuple(m for m in all_r_subsets(n, 2) if rng.random() < 0.45)
        g, _ = greedy_clique_removal(Hypergraph(n, 2, edges), ell)
        if not fisher_ryan_certificate(g, ell).holds:
            violations += 1
        triples = tuple(m for m in all_r_subsets(n, 3) if rng.random() < 0.25)
        if not link_count_identity(Hypergraph(n, 3, triples)).holds:
            violations += 1
        h = random_maximal_cancellative(4 + seed % 9, seed)
        h = perturb(h, (seed % 4) * 0.1, 0, seed)  # sub-maximal variety
        if not inequality2_certificate(h).holds:
            violations += 1
        if not theorem13_certificate(h).holds:
            violations += 1
        if not mantel_link_bound(h).holds:
            violations += 1
    elapsed = time.monotonic() - t0
    report(
        3,
        violations == 0 and elapsed <= 300,
        f"{len(exhaustive)} exhaustive + 5x1000 random certificate runs, "
        f"{violations} violations ({elapsed:.1f}s)",
    )


STABILITY_GRID = [(n, f) for n in (30, 45, 60) for f in (0.01, 0.03, 0.05)]


def test_criterion_4_cancellative_stability():
    t0 = time.monotonic()
    failures = 0
    runs = 0
    bases = {n: turan_hypergraph(n, 3, 3) for n in (30, 45, 60)}
    for n, f in STABILITY_GRID:
        for seed in range(20):
            h = perturb(bases[n], f, 0, seed)
            rep = extract_partition_cancellative(h)
            eps = 1.0 - h.size / turan_count(n, 3, 3)
            assert abs(rep.epsilon - eps) < 1e-12
            runs += 1
            if rep.delta > 100.0 * eps:
                failures += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        failures == 0 and elapsed <= 900,
        f"{runs} perturbed extractions, delta <= 100*epsilon throughout ({elapsed:.1f}s)",
    )


def test_criterion_5_kfree_stability():
    t0 = time.monotonic()
    failures = 0
    runs = 0
    bases = {n: turan_hypergraph(n, 3, 3) for n in (30, 45, 60)}
    for n, f in STABILITY_GRID:
        for seed in range(20):
            h = perturb(bases[n], f, 0, seed)
            rep = extract_partition_kfree(h, 3, seed=seed)
            eps = 1.0 - h.size / turan_count(n, 3, 3)
            runs += 1
            if rep.delta > eps:  # (r-2)! = 1 at r = 3
                failures += 1
    elapsed = time.monotonic() - t0
    report(
        5,
        failures == 0 and elapsed <= 900,
        f"{runs} perturbed extractions, delta <= epsilon throughout ({elapsed:.1f}s)",
    )


def test_criterion_6_exact_recovery():
    t0 = time.monotonic()
    for n in range(6, 31):
        h = turan_hypergraph(n, 3, 3)
        canc = extract_partition_cancellative(h)
        assert canc.delta == 0.0 and canc.bad_edge_count == 0, n
        canonical = {frozenset(b) for b in balanced_partition(n, 3)}
        assert set(map(frozenset, canc.partition.blocks)) == canonical, n
        kfree = extract_partition_kfree(h, 3, seed=0)
        assert kfree.delta == 0.0 and kfree.bad_edge_count == 0, n
    elapsed = time.monotonic() - t0
    report(6, True, f"delta = 0 and canonical tripartition on all exact inputs n=6..30 ({elapsed:.1f}s)")


def test_criterion_7_bipartite_analyzer():
    t0 = time.monotonic()
    eps_grid = [0.005, 0.01, 0.02, 0.035, 0.05]
    violations = 0
    runs = 0
    cases = {1: 0, 2: 0}
    for n in (20, 40):
        for eps in eps_grid:
            for seed in range(20):
                noise = (seed % 5) * n // 10
                g = random_triangle_free_near_bipartite(n, eps, noise, seed)
                rep = bipartite_distance_analysis(g, seed=seed)
                runs += 1
                cases[rep.case] += 1
                if not all(rep.verified.values()):
                    violations += 1
    assert runs == 200
    # the scan only emits the table; no limit claim is asserted
    rows = epsilon_delta_scan("triangle-free", [20], [0.01, 0.03], [1, 2, 3], noise=6)
    assert len(rows) == 6
    elapsed = time.monotonic() - t0
    report(
        7,
        violations == 0 and elapsed <= 600,
        f"200 analyzer runs, inequalities (a)-(d) all certified, case split {dict(cases)}, "
        f"scan emitted {len(rows)} rows ({elapsed:.1f}s)",
    )


def test_criterion_8_generalized_pipeline():
    t0 = time.monotonic()
    for n in (12, 18):
        base = auxiliary_graph(turan_hypergraph(n, 3, 3))
        third = n // 3
        planted = [
            (1, 2),
            (third + 1, third + 2),
            (2 * third + 1, 2 * third + 2),
        ]
        for k in range(0, 4):
            edges = base.edges + tuple(mask_of(p) for p in planted[:k])
            g = Hypergraph(n, 2, edges)
            rep = extract_partition_generalized(g, 3, 3, seed=k)
            assert rep.bad_edge_count <= k, (n, k, rep.bad_edge_count)
        # variant: two internal edges sharing a vertex inside one block
        g = Hypergraph(n, 2, base.edges + (mask_of((1, 2)), mask_of((1, 3))))
        rep = extract_partition_generalized(g, 3, 3, seed=9)
        assert rep.bad_edge_count <= 2
    elapsed = time.monotonic() - t0
    report(8, True, f"clique-removal pipeline keeps bad edges <= planted count ({elapsed:.1f}s)")


def test_criterion_9_thread_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    from turanlab.hypergraph import save_hypergraph

    path = str(tmp_path / "t12.txt")
    save_hypergraph(path, turan_hypergraph(12, 3, 3))

    def capture(args):
        code = cli_run(args)
        out = capsys.readouterr().out
        assert code == 0, args
        return out

    groups = []
    for _ in range(3):
        outs = [
            capture(["verify", "inequality2", path]),
            capture(["verify", "mantel-link", path]),
            capture(
                ["scan", "--kind", "cancellative", "--n", "15,30", "--params", "0.01,0.05",
                 "--seeds", "1,2,3,4,5"]
            ),
            capture(["search", "--n", "6", "--r", "3", "--predicate", "cancellative", "--no-cache"]),
            capture(["stability", "kfree", path, "--seed", "1", "--json"]),
            capture(["stability", "cancellative", path, "--json"]),
        ]
        groups.append(outs)
    ok = groups[0] == groups[1] == groups[2]
    elapsed = time.monotonic() - t0
    report(9, ok, f"representative reports byte-identical across three runs ({elapsed:.1f}s)")
