"""Cache simulator, layouts, and the layout-traffic measurements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    BrickLayout,
    CacheConfig,
    CacheSim,
    RowMajorLayout,
    compulsory_traffic,
    measure_sweep,
    stencil_sweep_trace,
)


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(capacity_bytes=8192, line_bytes=64, ways=8)
        assert cfg.num_sets == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=0)
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=1000, line_bytes=64, ways=8)
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=8192, line_bytes=60, ways=8)


class TestCacheSim:
    def cache(self, **kw):
        return CacheSim(CacheConfig(**{"capacity_bytes": 1024,
                                       "line_bytes": 64, "ways": 2, **kw}))

    def test_cold_miss_then_hit(self):
        sim = self.cache()
        assert not sim.access(0)
        assert sim.access(8)  # same line
        assert sim.stats.misses == 1
        assert sim.stats.hits == 1

    def test_lru_eviction(self):
        sim = self.cache()  # 8 sets, 2 ways
        stride = 8 * 64  # same set every time
        sim.access(0)
        sim.access(stride)
        sim.access(2 * stride)  # evicts line 0
        assert not sim.access(0)  # line 0 gone

    def test_lru_recency_update(self):
        sim = self.cache()
        stride = 8 * 64
        sim.access(0)
        sim.access(stride)
        sim.access(0)  # touch 0 again -> stride is now LRU
        sim.access(2 * stride)  # evicts stride, not 0
        assert sim.access(0)

    def test_writeback_counted_once(self):
        sim = self.cache()
        stride = 8 * 64
        sim.access(0, is_write=True)
        sim.access(stride)
        sim.access(2 * stride)  # evicts dirty line 0 -> writeback
        assert sim.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        sim = self.cache()
        stride = 8 * 64
        sim.access(0)
        sim.access(stride)
        sim.access(2 * stride)
        assert sim.stats.writebacks == 0

    def test_flush_writes_dirty_lines(self):
        sim = self.cache()
        sim.access(0, is_write=True)
        sim.access(64, is_write=True)
        sim.flush()
        assert sim.stats.writebacks == 2

    def test_dram_bytes(self):
        sim = self.cache()
        sim.access(0, is_write=True)
        sim.flush()
        assert sim.stats.dram_bytes == 2 * 64  # one fill + one writeback

    def test_hit_rate(self):
        sim = self.cache()
        sim.access(0)
        sim.access(0)
        assert sim.stats.hit_rate == pytest.approx(0.5)


class TestLayouts:
    @pytest.mark.parametrize(
        "layout", [RowMajorLayout(8), BrickLayout(8, 4), BrickLayout(8, 2)]
    )
    def test_bijection(self, layout):
        i, j, k = np.meshgrid(*([np.arange(8)] * 3), indexing="ij")
        addrs = layout.address(i.ravel(), j.ravel(), k.ravel())
        assert len(np.unique(addrs)) == 512
        assert addrs.min() == 0
        assert addrs.max() == layout.total_bytes - 8

    def test_brick_cells_contiguous(self):
        """All 64 cells of one brick occupy one 512-byte run."""
        lay = BrickLayout(8, 4)
        i, j, k = np.meshgrid(*([np.arange(4)] * 3), indexing="ij")
        addrs = np.sort(lay.address(i.ravel(), j.ravel(), k.ravel()))
        assert addrs[0] == 0 and addrs[-1] == 64 * 8 - 8
        assert np.all(np.diff(addrs) == 8)

    def test_rowmajor_pencils_contiguous(self):
        lay = RowMajorLayout(8)
        addrs = lay.address(np.zeros(8, int), np.zeros(8, int), np.arange(8))
        assert np.all(np.diff(addrs) == 8)

    def test_wrapping(self):
        lay = RowMajorLayout(8)
        assert lay.address_wrapped(
            np.array([-1]), np.array([0]), np.array([8])
        )[0] == lay.address(np.array([7]), np.array([0]), np.array([0]))[0]

    def test_brick_dim_must_divide(self):
        with pytest.raises(ValueError):
            BrickLayout(10, 4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RowMajorLayout(0)


class TestSweepTrace:
    def test_batch_census(self):
        lay = RowMajorLayout(8)
        batches = list(stencil_sweep_trace(lay, 4))
        # 8 tiles x (7 reads + 1 write)
        assert len(batches) == 8 * 8
        writes = [b for b, w in batches if w]
        assert sum(len(b) for b in writes) == 512

    def test_tile_must_divide(self):
        with pytest.raises(ValueError):
            list(stencil_sweep_trace(RowMajorLayout(8), 3))

    def test_writes_target_output_field(self):
        lay = RowMajorLayout(8)
        for addrs, is_write in stencil_sweep_trace(lay, 4):
            if is_write:
                assert np.all(addrs >= lay.total_bytes)
            else:
                assert np.all(addrs < lay.total_bytes)


class TestMeasurements:
    CACHE = CacheConfig(capacity_bytes=4096, line_bytes=64, ways=8)

    def test_traffic_at_least_compulsory(self):
        m = measure_sweep(BrickLayout(16, 4), 4, self.CACHE)
        assert m.dram_bytes >= m.compulsory_bytes

    def test_brick_beats_tiled_rowmajor(self):
        """The paper's core layout claim, computed from first principles:
        a brick-ordered sweep over brick storage moves less DRAM data
        than the same tile-ordered sweep over a conventional array."""
        brick = measure_sweep(BrickLayout(16, 4), 4, self.CACHE)
        tiled = measure_sweep(RowMajorLayout(16), 4, self.CACHE)
        # measurably less: Fig 4's baseline layout factor is 0.75
        assert brick.dram_bytes < 0.9 * tiled.dram_bytes
        assert brick.ai_fraction > tiled.ai_fraction

    def test_big_cache_approaches_compulsory(self):
        big = CacheConfig(capacity_bytes=1 << 20, line_bytes=64, ways=16)
        m = measure_sweep(BrickLayout(16, 4), 4, big)
        assert m.traffic_ratio == pytest.approx(1.0, abs=0.15)

    def test_compulsory_formula(self):
        assert compulsory_traffic(16) == 3 * 16**3 * 8
        assert compulsory_traffic(16, write_allocate=False) == 2 * 16**3 * 8

    def test_achieved_ai_consistent(self):
        m = measure_sweep(BrickLayout(16, 4), 4, self.CACHE)
        assert m.achieved_ai == pytest.approx(
            8 * 16**3 / m.dram_bytes
        )
        assert m.ai_fraction == pytest.approx(m.achieved_ai / 0.5)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([4, 8]), b=st.sampled_from([2, 4]))
def test_brick_layout_bijection_property(n, b):
    lay = BrickLayout(n, b)
    i, j, k = np.meshgrid(*([np.arange(n)] * 3), indexing="ij")
    addrs = lay.address(i.ravel(), j.ravel(), k.ravel())
    assert len(np.unique(addrs)) == n**3


class TestTLB:
    """Section III's TLB claim, measured (see repro.memsim.tlb)."""

    from repro.memsim import BrickLayout as _BL  # noqa: F401 (clarity)

    def test_config_validation(self):
        from repro.memsim import TLBConfig

        with pytest.raises(ValueError):
            TLBConfig(entries=0)
        with pytest.raises(ValueError):
            TLBConfig(page_bytes=1000)

    def test_brick_needs_fewer_page_walks(self):
        from repro.memsim import (
            BrickLayout,
            RowMajorLayout,
            TLBConfig,
            measure_sweep_tlb,
        )

        tlb = TLBConfig(entries=8)
        brick = measure_sweep_tlb(BrickLayout(32, 4), 4, tlb)
        conv = measure_sweep_tlb(RowMajorLayout(32), 4, tlb)
        assert brick.page_walks < conv.page_walks / 4
        assert brick.walk_rate < conv.walk_rate

    def test_brick_tile_fits_one_page(self):
        from repro.memsim import BrickLayout, RowMajorLayout, pages_per_tile

        # a 4^3 brick is 512 contiguous bytes: one page
        assert pages_per_tile(BrickLayout(32, 4), 4) == 1.0
        # a conventional 4^3 tile touches one pencil per (i, j): the
        # 32^3 domain puts each tile across several pages
        assert pages_per_tile(RowMajorLayout(32), 4) >= 4.0

    def test_distinct_pages_counted(self):
        from repro.memsim import BrickLayout, TLBConfig, measure_sweep_tlb

        m = measure_sweep_tlb(BrickLayout(16, 4), 4, TLBConfig(entries=16))
        # two fields of 16^3 doubles = 64 KB = 16 pages... plus a page
        # boundary straddle at most
        assert 16 <= m.distinct_pages <= 17

    def test_huge_tlb_only_compulsory_walks(self):
        from repro.memsim import BrickLayout, TLBConfig, measure_sweep_tlb

        m = measure_sweep_tlb(BrickLayout(16, 4), 4, TLBConfig(entries=1024))
        assert m.page_walks == m.distinct_pages
