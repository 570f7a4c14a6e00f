"""Partitioning invariants of partition_hex and its row bands."""

import pytest

from repro.cellular.topology import HexTopology
from repro.simulation.spatial import partition_hex


def row_bands(topology, bands):
    """``[(start_row, end_row), ...]`` of the unweighted ``load`` plan."""
    plan = partition_hex(topology, bands)
    ranges = []
    for cells in plan.cells:
        rows = {topology.coordinates(cell)[0] for cell in cells}
        assert len(cells) == len(rows) * topology.cols  # full-width bands
        ranges.append((min(rows), max(rows) + 1))
    return ranges


class TestRowBands:
    def test_sizes_differ_by_at_most_one(self):
        topology = HexTopology(10, 4, wrap=True)
        for bands in range(1, 11):
            ranges = row_bands(topology, bands)
            sizes = [end - start for start, end in ranges]
            assert len(ranges) == bands
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == topology.rows

    def test_contiguous_and_ordered(self):
        topology = HexTopology(8, 3, wrap=True)
        ranges = row_bands(topology, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == topology.rows
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start

    def test_where_the_extra_rows_sit_is_pinned(self):
        # Each cut lands nearest an equal share of what remains; moving
        # the odd bands would move every saved plan's owner map.
        ranges = row_bands(HexTopology(10, 2, wrap=True), 4)
        assert [end - start for start, end in ranges] == [2, 3, 2, 3]

    def test_rejects_bad_band_counts(self):
        topology = HexTopology(4, 4, wrap=True)
        with pytest.raises(ValueError):
            partition_hex(topology, 0)
        with pytest.raises(ValueError):
            partition_hex(topology, 5)


class TestPartitionHex:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_every_cell_owned_exactly_once(self, shards):
        topology = HexTopology(8, 5, wrap=True)
        plan = partition_hex(topology, shards)
        seen = []
        for shard in range(plan.shards):
            seen.extend(plan.cells[shard])
        assert sorted(seen) == list(range(topology.num_cells))
        for cell in range(topology.num_cells):
            owner = plan.owner[cell]
            assert cell in plan.cells[owner]

    def test_bands_are_contiguous_rows(self):
        topology = HexTopology(8, 5, wrap=True)
        plan = partition_hex(topology, 3)
        for shard in range(plan.shards):
            rows = sorted({topology.coordinates(c)[0] for c in plan.cells[shard]})
            assert rows == list(range(rows[0], rows[-1] + 1))

    @pytest.mark.parametrize("wrap", [False, True])
    def test_neighbor_sets_preserved_across_cuts(self, wrap):
        """Partitioning never alters adjacency: every neighbor of every
        cell is owned by exactly one shard, and the cut edges recorded in
        ``plan.boundary`` are exactly the cross-owner adjacencies."""
        topology = HexTopology(6, 4, wrap=wrap)
        plan = partition_hex(topology, 3)
        cross = set()
        for cell in range(topology.num_cells):
            for neighbor in topology.neighbors(cell):
                owner, other = plan.owner[cell], plan.owner[neighbor]
                assert 0 <= other < plan.shards
                if owner != other:
                    cross.add((owner, other))
        recorded = {
            (source, target)
            for source, targets in enumerate(plan.boundary)
            for target in targets
        }
        assert recorded == cross
        for source, targets in enumerate(plan.boundary):
            for target, cells in targets.items():
                expected = [
                    cell
                    for cell in plan.cells[source]
                    if any(
                        plan.owner[neighbor] == target
                        for neighbor in topology.neighbors(cell)
                    )
                ]
                assert list(cells) == expected

    def test_wrap_routes_first_and_last_band_together(self):
        """On a torus, row 0 borders the last row, so shard 0 and the
        last shard must list each other as boundary peers."""
        topology = HexTopology(8, 4, wrap=True)
        plan = partition_hex(topology, 4)
        assert (plan.shards - 1) in plan.boundary[0]
        assert 0 in plan.boundary[plan.shards - 1]
        # Unwrapped, the same cut has no 0 <-> last adjacency.
        open_plan = partition_hex(HexTopology(8, 4, wrap=False), 4)
        assert (open_plan.shards - 1) not in open_plan.boundary[0]

    def test_boundary_cells_are_one_row_deep(self):
        """Hex adjacency spans at most one row, so every cross-shard
        edge starts in the first or last row of its band."""
        topology = HexTopology(8, 4, wrap=True)
        plan = partition_hex(topology, 4)
        bands = row_bands(topology, 4)
        for cell in range(topology.num_cells):
            owner = plan.owner[cell]
            row = topology.coordinates(cell)[0]
            start, end = bands[owner]
            for neighbor in topology.neighbors(cell):
                if plan.owner[neighbor] != owner:
                    assert row in (start, end - 1)
                    break


class TestLoadBalancedPlans:
    def _weights(self, topology, hot_rows, gain=9.0):
        weights = [1.0] * topology.num_cells
        for row in hot_rows:
            for col in range(topology.cols):
                weights[topology.cell_id(row, col)] = gain
        return weights

    @pytest.mark.parametrize("kind", ["load", "tiles"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_every_cell_owned_exactly_once(self, kind, shards):
        topology = HexTopology(8, 6, wrap=True)
        weights = self._weights(topology, hot_rows=(0, 1))
        plan = partition_hex(topology, shards, kind=kind, weights=weights)
        seen = []
        for shard in range(plan.shards):
            seen.extend(plan.cells[shard])
        assert sorted(seen) == list(range(topology.num_cells))
        for cell in range(topology.num_cells):
            assert cell in plan.cells[plan.owner[cell]]
        assert plan.kind == kind
        assert len(plan.loads) == shards

    @pytest.mark.parametrize("kind", ["load", "tiles"])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_boundary_matches_cross_owner_adjacency(self, kind, wrap):
        topology = HexTopology(8, 6, wrap=wrap)
        weights = self._weights(topology, hot_rows=(2, 3))
        plan = partition_hex(topology, 4, kind=kind, weights=weights)
        cross = set()
        for cell in range(topology.num_cells):
            for neighbor in topology.neighbors(cell):
                owner, other = plan.owner[cell], plan.owner[neighbor]
                if owner != other:
                    cross.add((owner, other))
        recorded = {
            (source, target)
            for source, targets in enumerate(plan.boundary)
            for target in targets
        }
        assert recorded == cross
        for source, targets in enumerate(plan.boundary):
            for target, cells in targets.items():
                expected = [
                    cell
                    for cell in plan.cells[source]
                    if any(
                        plan.owner[neighbor] == target
                        for neighbor in topology.neighbors(cell)
                    )
                ]
                assert list(cells) == expected

    def test_load_plan_shrinks_hot_bands(self):
        """Rows carrying 9x the weight get fewer rows per shard than a
        plain row count would give them."""
        topology = HexTopology(8, 6, wrap=True)
        weights = self._weights(topology, hot_rows=(0, 1), gain=9.0)
        plan = partition_hex(topology, 4, kind="load", weights=weights)
        rows_of_shard_0 = {
            topology.coordinates(cell)[0] for cell in plan.cells[0]
        }
        assert len(rows_of_shard_0) < 2  # unweighted bands are 2 rows each
        spread = max(plan.loads) / (sum(plan.loads) / len(plan.loads))
        uniform = partition_hex(topology, 4, kind="load")
        uniform_loads = [
            sum(weights[cell] for cell in uniform.cells[shard])
            for shard in range(4)
        ]
        uniform_spread = max(uniform_loads) / (
            sum(uniform_loads) / len(uniform_loads)
        )
        assert spread < uniform_spread

    def test_load_plan_uniform_weights_gives_near_equal_bands(self):
        topology = HexTopology(8, 5, wrap=True)
        load_plan = partition_hex(topology, 3, kind="load")
        sizes = [len(cells) for cells in load_plan.cells]
        assert max(sizes) - min(sizes) <= topology.cols
        assert sum(sizes) == topology.num_cells

    def test_tiles_factor_near_square(self):
        topology = HexTopology(8, 8, wrap=True)
        plan = partition_hex(topology, 4, kind="tiles")
        # 4 shards on 8x8 -> 2x2 tiles: each shard owns a 4x4 block.
        for shard in range(4):
            rows = {topology.coordinates(c)[0] for c in plan.cells[shard]}
            cols = {topology.coordinates(c)[1] for c in plan.cells[shard]}
            assert len(rows) == 4 and len(cols) == 4

    def test_tiles_rejects_impossible_factorisation(self):
        topology = HexTopology(4, 4, wrap=True)
        with pytest.raises(ValueError, match="tile"):
            partition_hex(topology, 7, kind="tiles")

    def test_rejects_unknown_kind_and_bad_weights(self):
        topology = HexTopology(4, 4, wrap=True)
        for unknown in ("spiral", "rows"):  # "rows" went with PR 24
            with pytest.raises(ValueError, match="kind"):
                partition_hex(topology, 2, kind=unknown)
        with pytest.raises(ValueError, match="weight"):
            partition_hex(
                topology, 2, kind="load", weights=[1.0] * 3
            )

    def test_empty_shard_is_rejected(self):
        topology = HexTopology(6, 4, wrap=True)
        with pytest.raises(ValueError):
            partition_hex(topology, 7, kind="load")


class TestWeightedBands:
    def test_all_zero_weights_fall_back_to_uniform(self):
        from repro.simulation.spatial import _weighted_bands

        ranges = _weighted_bands([0.0] * 8, 4)
        assert ranges == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_every_band_is_nonempty_and_contiguous(self):
        from repro.simulation.spatial import _weighted_bands

        weights = [100.0, 1.0, 1.0, 1.0, 1.0]
        ranges = _weighted_bands(weights, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(weights)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start
        assert all(end > start for start, end in ranges)

    def test_heavy_slots_get_narrow_bands(self):
        from repro.simulation.spatial import _weighted_bands

        weights = [8.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        ranges = _weighted_bands(weights, 4)
        sizes = [end - start for start, end in ranges]
        assert sizes[0] == 1  # one 8.0 slot is already a fair share

    def test_rejects_more_bands_than_slots(self):
        from repro.simulation.spatial import _weighted_bands

        with pytest.raises(ValueError):
            _weighted_bands([1.0, 1.0], 3)
