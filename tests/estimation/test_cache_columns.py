"""Round-trip tests for ``QuadrupletCache.export_columns``/``preload``.

The durable state store serializes each cell's quadruplet history as
these record-order columns, so export → preload must be a lossless
round trip for every cache configuration: finite and infinite
``T_int``, birth-cell (``prev = None``) pairs, and re-capping to a
smaller ``N_quad``.
"""

import pytest

from repro.estimation.cache import CacheConfig, QuadrupletCache


def record(cache, time, prev, next_cell, sojourn):
    cache.record(time, prev, next_cell, sojourn)


class TestExportColumns:
    def test_empty_cache_exports_nothing(self):
        assert QuadrupletCache().export_columns() == {}

    def test_single_pair(self):
        cache = QuadrupletCache()
        record(cache, 10.0, 1, 2, 3.5)
        record(cache, 20.0, 1, 2, 4.5)
        assert cache.export_columns() == {
            (1, 2): ([10.0, 20.0], [3.5, 4.5])
        }


class TestPreloadRoundTrip:
    def replay(self, config, exported):
        """A cache built by recording the exported history one by one."""
        cache = QuadrupletCache(config)
        rows = sorted(
            (time, prev, next_cell, sojourn)
            for (prev, next_cell), (times, sojourns) in exported.items()
            for time, sojourn in zip(times, sojourns)
        )
        for time, prev, next_cell, sojourn in rows:
            record(cache, time, prev, next_cell, sojourn)
        return cache

    def test_empty_round_trip(self):
        cache = QuadrupletCache()
        cache.preload({})
        assert cache.size() == 0
        assert cache.export_columns() == {}

    def test_finite_interval_round_trip(self):
        config = CacheConfig(interval=60.0, period=1000.0)
        source = QuadrupletCache(config)
        record(source, 10.0, None, 2, 3.0)
        record(source, 20.0, 1, 2, 4.0)
        record(source, 30.0, 1, 3, 5.0)
        exported = source.export_columns()
        loaded = QuadrupletCache(config)
        loaded.preload(exported)
        assert loaded.export_columns() == exported
        assert loaded.size() == source.size()
        assert loaded.total_recorded == source.total_recorded
        assert loaded.prev_keys() == source.prev_keys()

    def test_infinite_interval_union_columns(self):
        # T_int = None maintains, per prev, the sorted union of live
        # sojourns (the Eq. 4 denominator); preload must rebuild it.
        config = CacheConfig(interval=None)
        source = QuadrupletCache(config)
        record(source, 10.0, 1, 2, 9.0)
        record(source, 20.0, 1, 3, 1.0)
        record(source, 30.0, 1, 2, 5.0)
        record(source, 40.0, None, 2, 7.0)
        loaded = QuadrupletCache(config)
        loaded.preload(source.export_columns())
        assert loaded._union_sojourns == {1: [1.0, 5.0, 9.0], None: [7.0]}
        assert loaded._union_sojourns == source._union_sojourns
        # Selection-level equivalence at a later instant.
        assert (
            loaded.active_columns(100.0, 1).union
            == source.active_columns(100.0, 1).union
        )

    def test_preload_recaps_to_smaller_max_per_pair(self):
        source = QuadrupletCache(CacheConfig(interval=None, max_per_pair=10))
        for step in range(10):
            record(source, float(step), 1, 2, float(step))
        loaded = QuadrupletCache(CacheConfig(interval=None, max_per_pair=4))
        loaded.preload(source.export_columns())
        # Newest N_quad entries win, as record() itself would keep.
        assert loaded.export_columns() == {
            (1, 2): ([6.0, 7.0, 8.0, 9.0], [6.0, 7.0, 8.0, 9.0])
        }
        assert loaded._union_sojourns[1] == [6.0, 7.0, 8.0, 9.0]

    def test_preload_requires_empty_cache(self):
        cache = QuadrupletCache()
        record(cache, 10.0, 1, 2, 3.0)
        with pytest.raises(ValueError):
            cache.preload({(1, 3): ([1.0], [1.0])})

    def test_preload_refuses_a_negative_sojourn(self):
        cache = QuadrupletCache()
        with pytest.raises(ValueError, match="negative sojourn time -2.0"):
            cache.preload({(1, 3): ([1.0, 2.0], [5.0, -2.0])})

    def test_preload_matches_replayed_records(self):
        config = CacheConfig(interval=60.0, period=1000.0)
        source = QuadrupletCache(config)
        for step in range(50):
            record(source, step * 7.0, step % 3 or None, step % 4, 1.0 + step)
        exported = source.export_columns()
        loaded = QuadrupletCache(config)
        loaded.preload(exported)
        replayed = self.replay(config, exported)
        assert loaded.export_columns() == replayed.export_columns()
        now = 400.0
        for prev in loaded.prev_keys():
            left = loaded.active(now, prev)
            right = replayed.active(now, prev)
            assert left == right
