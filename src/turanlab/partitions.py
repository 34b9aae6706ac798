"""Vertex partitions and bad-edge accounting shared by cuts and extractors."""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph, mask_of


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint blocks covering [n]; empty blocks only when n < #blocks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = 0
        for blk in self.blocks:
            m = mask_of(blk, self.n)
            if m & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= m
        if seen != (1 << self.n) - 1:
            raise ValueError(f"partition blocks must cover 1..{self.n}")
        if self.n >= len(self.blocks) and any(not blk for blk in self.blocks):
            raise ValueError("empty block in a partition with n >= block count")
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks))

    def block_index(self) -> list[int]:
        """idx[v-1] = block number of vertex v."""
        idx = [-1] * self.n
        for b, blk in enumerate(self.blocks):
            for v in blk:
                idx[v - 1] = b
        return idx

    def block_masks(self) -> list[int]:
        return [mask_of(b) for b in self.blocks]


def bad_edges(h: Hypergraph, part: Partition) -> list[int]:
    """Edges with at least two vertices in one block, as sorted masks: one
    comprehension per block, merged."""
    edges = h.edges
    per_block = [[e for e in edges if (e & bm).bit_count() > 1] for bm in part.block_masks()]
    return sorted(set().union(*per_block))
