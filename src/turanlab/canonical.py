"""`canonical_code`: the exact isomorphism-class key of a small hypergraph.

The canonical code of an r-graph on [n] is the lexicographically smallest
sorted tuple of relabeled edge masks over all vertex relabelings, so equal
codes mean isomorphic and the code doubles as a total-order key.  The
search is an honest permutation branch-and-bound: iterated color
refinement narrows the candidate relabelings, assignment proceeds
position by position with prefix pruning against the best code so far,
and swap-twin vertices are collapsed to one branch.  Exponential in the
worst case, which is fine at the small-n scale this artifact works at.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .hypergraph import iter_bits


def _refine_colors(n: int, members: list[tuple[int, ...]], incident: list[list[int]]) -> list[int]:
    """Iterated vertex coloring by co-member color multisets (1-WL style)."""
    color = [0] * n
    ncolors = 1
    while True:
        sigs = []
        for v in range(n):
            edge_sigs = sorted(
                tuple(sorted(color[u] for u in members[ei] if u != v)) for ei in incident[v]
            )
            sigs.append((color[v], tuple(edge_sigs)))
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        color = [ranked[s] for s in sigs]
        if len(ranked) == ncolors:
            return color
        ncolors = len(ranked)


def _twin_classes(n: int, edges: Sequence[int]) -> list[int]:
    """twin[v] = smallest vertex whose transposition with v preserves the edge set."""
    edge_set = set(edges)
    twin = list(range(n))
    for u in range(n):
        if twin[u] != u:
            continue
        bu = 1 << u
        for w in range(u + 1, n):
            if twin[w] != w:
                continue
            bw = 1 << w
            ok = True
            for e in edges:
                has_u = bool(e & bu)
                has_w = bool(e & bw)
                if has_u == has_w:
                    continue
                if (e ^ bu ^ bw) not in edge_set:
                    ok = False
                    break
            if ok:
                twin[w] = u
    return twin


def canonical_code(n: int, edges: Sequence[int]) -> tuple[int, ...]:
    """Minimal relabeled edge-mask tuple; the isomorphism-class key for fixed (n, r)."""
    m = len(edges)
    if m == 0:
        return ()
    members = [tuple(iter_bits(e)) for e in edges]
    incident: list[list[int]] = [[] for _ in range(n)]
    for ei, mem in enumerate(members):
        for v in mem:
            incident[v].append(ei)
    base = _refine_colors(n, members, incident)
    twin = _twin_classes(n, edges)

    perm = [-1] * n  # vertex -> assigned position
    edge_posmask = [0] * m
    edge_remaining = [len(mem) for mem in members]
    cur: list[int] = []
    best: Optional[list[int]] = None

    def rec(k: int) -> None:
        nonlocal best
        if len(cur) == m:
            # all edges placed; remaining vertices are forced isolated
            if best is None or cur < best:
                best = cur.copy()
            return
        # cells over unassigned vertices, keyed by invariant data only
        groups: dict[tuple, list[int]] = {}
        for v in range(n):
            if perm[v] >= 0:
                continue
            touched = []
            untouched = 0
            for ei in incident[v]:
                pm = edge_posmask[ei]
                if pm:
                    touched.append((pm, edge_remaining[ei]))
                else:
                    untouched += 1
            key = (base[v], tuple(sorted(touched)), untouched)
            groups.setdefault(key, []).append(v)
        cell = groups[min(groups)]
        seen_twins = set()
        for v in cell:
            t = twin[v]
            if t in seen_twins:
                continue
            seen_twins.add(t)
            # assign v -> position k
            perm[v] = k
            completed = []
            for ei in incident[v]:
                edge_posmask[ei] |= 1 << k
                edge_remaining[ei] -= 1
                if edge_remaining[ei] == 0:
                    completed.append(edge_posmask[ei])
            completed.sort()
            cur.extend(completed)
            if best is None or cur <= best[: len(cur)]:
                rec(k + 1)
            del cur[len(cur) - len(completed) :]
            for ei in incident[v]:
                edge_posmask[ei] &= ~(1 << k)
                edge_remaining[ei] += 1
            perm[v] = -1

    rec(0)
    assert best is not None
    return tuple(best)
