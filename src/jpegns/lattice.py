"""Macro-lattice partition of the 8x8 block grid.

Blocks are split into four macro-lattices by coordinate parity so that no
two blocks of the same lattice are 8-connected.  Lattices are embedded in
order; each block conditions only on neighbors from strictly earlier
lattices:

    lattice 1: (even row, even col)   no conditioning
    lattice 2: (odd,  odd)            diagonal neighbors (all lattice 1)
    lattice 3: (even, odd)            horizontal/vertical (lattices 1, 2)
    lattice 4: (odd,  even)           all 8 neighbors     (lattices 1-3)
"""

from dataclasses import dataclass

import numpy as np

from .pipeline import GRID_POS, NEIGHBOR_LABELS

# (row, col) offset of each named neighbor from the central block of the
# 3x3 grid; north is one block row up.
LABEL_OFFSETS = {lbl: (i - 1, j - 1) for lbl, (i, j) in GRID_POS.items()
                 if lbl != "C"}

_PARITY_TO_LATTICE = {(0, 0): 1, (1, 1): 2, (0, 1): 3, (1, 0): 4}


@dataclass(frozen=True)
class LatticeAssignment:
    """Partition of a blocks_h x blocks_w grid into macro-lattices 1..4."""

    blocks_w: int
    blocks_h: int
    assignment: np.ndarray
    block_lists: tuple  # block_lists[k-1] is the row-major list for lattice k

    def lattice_of(self, bi, bj):
        return int(self.assignment[bi, bj])


def tile(blocks_w, blocks_h):
    """2-periodic parity tiling of the block grid into four macro-lattices."""
    if blocks_w <= 0 or blocks_h <= 0:
        raise ValueError("block grid dimensions must be positive")
    bi = np.arange(blocks_h)[:, None] % 2
    bj = np.arange(blocks_w)[None, :] % 2
    assignment = np.empty((blocks_h, blocks_w), dtype=np.int8)
    for parity, lat in _PARITY_TO_LATTICE.items():
        assignment[(bi == parity[0]) & (bj == parity[1])] = lat
    lists = []
    for lat in (1, 2, 3, 4):
        rows, cols = np.nonzero(assignment == lat)
        lists.append(tuple(zip(rows.tolist(), cols.tolist())))
    return LatticeAssignment(
        blocks_w=blocks_w, blocks_h=blocks_h,
        assignment=assignment, block_lists=tuple(lists))


@dataclass(frozen=True)
class Neighborhood:
    """Conditioning neighborhood of one block.

    ``labels`` holds the neighbor names that actually exist in the grid, in
    the lattice's canonical order; ``neighbors`` the matching (row, col)
    block coordinates.  n_blocks counts the central block plus neighbors.
    """

    center: tuple
    lattice: int
    labels: tuple
    neighbors: tuple

    @property
    def n_blocks(self):
        return 1 + len(self.labels)


def neighborhood(assign, block):
    """Conditioning neighborhood for ``block``; off-grid neighbors are dropped."""
    bi, bj = block
    if not (0 <= bi < assign.blocks_h and 0 <= bj < assign.blocks_w):
        raise ValueError(f"block {block} outside the grid")
    lat = assign.lattice_of(bi, bj)
    labels = []
    coords = []
    for lbl in NEIGHBOR_LABELS[f"L{lat}"]:
        di, dj = LABEL_OFFSETS[lbl]
        ni, nj = bi + di, bj + dj
        if 0 <= ni < assign.blocks_h and 0 <= nj < assign.blocks_w:
            labels.append(lbl)
            coords.append((ni, nj))
    return Neighborhood(center=(bi, bj), lattice=lat,
                        labels=tuple(labels), neighbors=tuple(coords))
