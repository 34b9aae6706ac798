"""Vertex partitions and bad-edge accounting shared by cuts and extractors."""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypergraph import Hypergraph, iter_bits, mask_of, vertices_of


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint blocks covering [n]; empty blocks only when n < #blocks.

    blocks holds sorted 1-based labels, the form reports print; masks[k] is
    block k as a 0-based vertex bit mask, the form every computation reads.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        masks = tuple(mask_of(blk, self.n) for blk in self.blocks)
        seen = 0
        for blk, m in zip(self.blocks, masks):
            if m.bit_count() < len(blk) or m >> self.n:
                raise ValueError(f"partition block {tuple(blk)} must hold distinct labels in 1..{self.n}")
            if m & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= m
        if seen != (1 << self.n) - 1:
            raise ValueError(f"partition blocks must cover 1..{self.n}")
        if self.n >= len(masks) and 0 in masks:
            raise ValueError("empty block in a partition with n >= block count")
        object.__setattr__(self, "blocks", tuple(map(vertices_of, masks)))
        object.__setattr__(self, "masks", masks)

    def block_index(self) -> list[int]:
        """idx[b] = block number of vertex bit b."""
        idx = [-1] * self.n
        for k, m in enumerate(self.masks):
            for b in iter_bits(m):
                idx[b] = k
        return idx


def bad_edges(h: Hypergraph, part: Partition) -> list[int]:
    """Edges with at least two vertices in one block, as sorted masks.

    Both ends of a bad edge's in-block pair have an `h.adjacency` neighbour
    in their own block.  Only the edges with two such marked vertices take
    the per-block test; with none marked the edges are not read.
    """
    adj = h.adjacency
    marked = sum(1 << b for m in part.masks for b in iter_bits(m) if adj[b] & m)
    if not marked:
        return []
    edges = [e for e in h.edges if (e & marked).bit_count() > 1]
    per_block = [[e for e in edges if (e & bm).bit_count() > 1] for bm in part.masks]
    return sorted(set().union(*per_block))
