import numpy as np
import pytest

from jpegns.lattice import LABEL_OFFSETS, neighborhood, tile
from jpegns.pipeline import NEIGHBOR_LABELS


def test_two_by_two_one_block_per_lattice():
    assign = tile(2, 2)
    assert sorted(assign.assignment.ravel().tolist()) == [1, 2, 3, 4]


def test_large_grid_equal_split():
    assign = tile(64, 64)
    for lat in (1, 2, 3, 4):
        assert len(assign.block_lists[lat - 1]) == 1024


def test_no_eight_connected_pair_shares_a_lattice():
    assign = tile(6, 6)
    a = assign.assignment
    for bi in range(6):
        for bj in range(6):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == dj == 0:
                        continue
                    ni, nj = bi + di, bj + dj
                    if 0 <= ni < 6 and 0 <= nj < 6:
                        assert a[bi, bj] != a[ni, nj]


def test_partition_complete_and_disjoint():
    assign = tile(7, 5)
    seen = set()
    for lat in (1, 2, 3, 4):
        for blk in assign.block_lists[lat - 1]:
            assert blk not in seen
            seen.add(blk)
    assert len(seen) == 35


# Labels of an interior block's neighbors in factor order, latest lattice
# first; a stable sort of pipeline.NEIGHBOR_LABELS by the neighbor's lattice.
FACTOR_ORDER = {
    1: (),
    2: ("NW", "NE", "SW", "SE"),
    3: ("N", "S", "W", "E"),
    4: ("NW", "NE", "SW", "SE", "W", "E", "N", "S"),
}
# An interior block of each lattice on an 8x8 grid.
PROBES = {1: (2, 2), 2: (3, 3), 3: (2, 3), 4: (3, 2)}


def at(block, labels):
    """Coordinates of ``block``'s neighbors named by ``labels``."""
    return tuple((block[0] + LABEL_OFFSETS[lbl][0],
                  block[1] + LABEL_OFFSETS[lbl][1]) for lbl in labels)


def test_lattice1_has_no_neighbors():
    assign = tile(4, 4)
    assert assign.lattice_of(0, 0) == 1
    assert neighborhood(assign, (0, 0)) == ()


def test_interior_lattice4_has_eight_neighbors():
    assign = tile(6, 6)
    # (3, 2): odd row, even column -> lattice 4.  Corners (lattice 3), then
    # W and E (lattice 2), then N and S (lattice 1).
    assert assign.lattice_of(3, 2) == 4
    assert neighborhood(assign, (3, 2)) == (
        (2, 1), (2, 3), (4, 1), (4, 3), (3, 1), (3, 3), (2, 2), (4, 2))


def test_corner_lattice2_truncated():
    assign = tile(2, 2)
    assert assign.lattice_of(1, 1) == 2
    assert neighborhood(assign, (1, 1)) == ((0, 0),)


def test_neighbor_lists_per_lattice():
    assign = tile(8, 8)
    for lat, block in PROBES.items():
        assert assign.lattice_of(*block) == lat
        assert neighborhood(assign, block) == at(block, FACTOR_ORDER[lat])


@pytest.mark.parametrize("w,h", [(1, 1), (3, 4), (10, 10), (5, 9)])
def test_sequential_validity(w, h):
    # Every conditioning neighbor belongs to a strictly earlier lattice, and
    # lattices do not increase along the neighborhood.
    assign = tile(w, h)
    for bi in range(h):
        for bj in range(w):
            lat = assign.lattice_of(bi, bj)
            lats = [assign.lattice_of(*nb)
                    for nb in neighborhood(assign, (bi, bj))]
            assert all(n < lat for n in lats)
            assert lats == sorted(lats, reverse=True)


def test_edge_truncation_keeps_factor_order():
    # Off-grid neighbors drop out and the others keep their order.
    assign = tile(5, 7)
    for bi in range(7):
        for bj in range(5):
            lat = assign.lattice_of(bi, bj)
            expect = tuple((ni, nj) for ni, nj in at((bi, bj),
                                                     FACTOR_ORDER[lat])
                           if 0 <= ni < 7 and 0 <= nj < 5)
            assert neighborhood(assign, (bi, bj)) == expect


def test_neighbor_offsets_match_labels():
    # The factor order permutes the lattice's NEIGHBOR_LABELS.
    assign = tile(8, 8)
    for lat, block in PROBES.items():
        labels = NEIGHBOR_LABELS[f"L{lat}"]
        assert sorted(neighborhood(assign, block)) == sorted(at(block, labels))


def test_out_of_range_block_rejected():
    assign = tile(4, 4)
    with pytest.raises(ValueError):
        neighborhood(assign, (4, 0))


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        tile(0, 4)
