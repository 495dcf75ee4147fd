"""Macro-lattice partition of the 8x8 block grid.

Blocks are split into four macro-lattices by coordinate parity so that no
two blocks of the same lattice are 8-connected.  Lattices are embedded in
order; each block conditions only on neighbors from strictly earlier
lattices, which ``neighborhood`` lists latest lattice first:

    lattice 1: (even row, even col)   no conditioning
    lattice 2: (odd,  odd)            NW, NE, SW, SE                (1)
    lattice 3: (even, odd)            N, S | W, E                   (2 | 1)
    lattice 4: (odd,  even)           NW, NE, SW, SE | W, E | N, S  (3 | 2 | 1)

So the embedder's joint of a block and its neighbors opens with blocks of
one lattice, whose cross-covariance tiles are exactly zero.  Lattice 4 has
a second unconnected level, W | E: each corner touches only two of W, E,
N and S, and none both W and E, so W and E stay unconnected once the
corners are factored (N and S do not: W touches both).
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .pipeline import GRID_POS, NEIGHBOR_LABELS

# (row, col) offset of each named neighbor from the central block of the
# 3x3 grid; north is one block row up.
LABEL_OFFSETS = {lbl: (i - 1, j - 1) for lbl, (i, j) in GRID_POS.items()
                 if lbl != "C"}

_PARITY_TO_LATTICE = {(0, 0): 1, (1, 1): 2, (0, 1): 3, (1, 0): 4}


def _factor_offsets(parity):
    """Neighbor offsets of the lattice with block parity ``parity``: its
    ``NEIGHBOR_LABELS``, stably sorted latest neighbor lattice first."""
    offsets = [LABEL_OFFSETS[lbl]
               for lbl in NEIGHBOR_LABELS[f"L{_PARITY_TO_LATTICE[parity]}"]]
    return tuple(sorted(offsets, key=lambda d: -_PARITY_TO_LATTICE[
        (parity[0] + d[0]) % 2, (parity[1] + d[1]) % 2]))


# Offsets of each lattice's conditioning neighbors, latest lattice first.
_FACTOR_OFFSETS = {lat: _factor_offsets(parity)
                   for parity, lat in _PARITY_TO_LATTICE.items()}


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
    """2-periodic parity tiling of the block grid into four macro-lattices.

    The grid dimensions are positive integers (``rng.check_int``,
    ValueError), stored as ints.
    """
    blocks_w = rng.check_int(blocks_w, "blocks_w", ValueError, 1)
    blocks_h = rng.check_int(blocks_h, "blocks_h", ValueError, 1)
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


def neighborhood(assign, block):
    """In-grid conditioning neighbors of ``block`` as (row, col) pairs,
    latest lattice first; off-grid neighbors are dropped."""
    bi, bj = block
    if not (0 <= bi < assign.blocks_h and 0 <= bj < assign.blocks_w):
        raise ValueError(f"block {block} outside the grid")
    return tuple((bi + di, bj + dj)
                 for di, dj in _FACTOR_OFFSETS[assign.lattice_of(bi, bj)]
                 if 0 <= bi + di < assign.blocks_h
                 and 0 <= bj + dj < assign.blocks_w)
