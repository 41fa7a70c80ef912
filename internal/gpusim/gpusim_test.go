package gpusim

import (
	"sync/atomic"
	"testing"
)

func testDevice() *Device { return New(RTXSim()) }

func TestLaunchCoversAllThreads(t *testing.T) {
	d := testDevice()
	n := int64(10_000)
	hits := d.AllocI32(n)
	st := d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.AtomicAddI32(hits, i, 1)
			}
		}
	})
	for i, v := range hits.Host() {
		if v != 1 {
			t.Fatalf("thread %d ran %d times", i, v)
		}
	}
	if st.Cycles <= d.Prof.LaunchOverhead {
		t.Errorf("Cycles = %d, want > launch overhead %d", st.Cycles, d.Prof.LaunchOverhead)
	}
	if st.Atomics != n {
		t.Errorf("Atomics = %d, want %d", st.Atomics, n)
	}
}

func TestPersistentGridStrideCoversAll(t *testing.T) {
	d := testDevice()
	n := int64(100_000)
	hits := d.AllocI32(n)
	d.Launch(LaunchCfg{Blocks: d.PersistentGrid()}, func(w *Warp) {
		stride := w.TotalThreads()
		for base := w.Gidx(0); base < n; base += stride {
			for l := 0; l < WarpSize; l++ {
				if i := base + int64(l); i < n {
					w.AtomicAddI32(hits, i, 1)
				}
			}
		}
	})
	for i, v := range hits.Host() {
		if v != 1 {
			t.Fatalf("item %d processed %d times", i, v)
		}
	}
}

func TestGidxLayout(t *testing.T) {
	d := testDevice()
	var got [256]int64
	d.Launch(LaunchCfg{Blocks: 2, ThreadsPerBlock: 128}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			idx := w.BlockIdx*128 + int64(w.WarpInBlock*WarpSize+l)
			got[idx] = w.Gidx(l)
		}
	})
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("gidx[%d] = %d", i, v)
		}
	}
}

func TestWarpAndBlockIndexing(t *testing.T) {
	d := testDevice()
	seen := d.AllocI32(8) // 4 blocks x 2 warps
	d.Launch(LaunchCfg{Blocks: 4, ThreadsPerBlock: 64}, func(w *Warp) {
		if w.TotalWarps() != 8 || w.TotalThreads() != 256 || w.GridDim != 4 {
			t.Errorf("warp sees totals %d/%d/%d", w.TotalWarps(), w.TotalThreads(), w.GridDim)
		}
		w.AtomicAddI32(seen, w.GlobalWarp(), 1)
	})
	for i, v := range seen.Host() {
		if v != 1 {
			t.Fatalf("global warp %d ran %d times", i, v)
		}
	}
}

func TestCoalescedCheaperThanScattered(t *testing.T) {
	d := testDevice()
	n := int64(1 << 16)
	a := d.AllocI32(n)
	// Coalesced: each warp reads 32 contiguous elements.
	coal := d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		base := w.Gidx(0)
		if base < n {
			cnt := int(min64(int64(WarpSize), n-base))
			w.CoalLdI32(a, base, cnt)
		}
	})
	d.FlushL2()
	// Scattered: each lane reads a strided element (one transaction per
	// lane).
	scat := d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.LdI32(a, (i*137)%n)
			}
		}
	})
	if coal.Transactions*4 > scat.Transactions {
		t.Errorf("coalesced %d transactions vs scattered %d: want >= 4x fewer",
			coal.Transactions, scat.Transactions)
	}
	if coal.Cycles >= scat.Cycles {
		t.Errorf("coalesced %d cycles vs scattered %d: want cheaper", coal.Cycles, scat.Cycles)
	}
}

func TestL2CapturesReuse(t *testing.T) {
	d := testDevice()
	a := d.AllocI32(64)
	st := d.Launch(LaunchCfg{Blocks: 1, ThreadsPerBlock: 32}, func(w *Warp) {
		for rep := 0; rep < 10; rep++ {
			w.LdI32(a, 0)
		}
	})
	if st.L2Hits < 9 {
		t.Errorf("L2Hits = %d, want >= 9 (repeated access to one line)", st.L2Hits)
	}
}

func TestCudaAtomicCostlierThanClassic(t *testing.T) {
	d := testDevice()
	n := int64(10_000)
	a := d.AllocI32(n)
	classic := d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.AtomicMinI32(a, i, int32(i))
			}
		}
	})
	d.FlushL2()
	cuda := d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.CudaAtomicMinI32(a, i, int32(i))
			}
		}
	})
	ratio := float64(cuda.Cycles) / float64(classic.Cycles)
	// Per-op the gap is diluted by DRAM transaction cost; whole-kernel
	// ratios (where loads/stores also pay the fence) are checked by the
	// harness's Fig. 1 test.
	if ratio < 2 {
		t.Errorf("cudaAtomic/classic cycle ratio = %.2f, want >= 2", ratio)
	}
	// The Titan-like profile's penalty is an order of magnitude worse.
	dt := New(TitanSim())
	b := dt.AllocI32(n)
	tc := dt.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.AtomicMinI32(b, i, int32(i))
			}
		}
	})
	dt.FlushL2()
	tcu := dt.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.CudaAtomicMinI32(b, i, int32(i))
			}
		}
	})
	titanRatio := float64(tcu.Cycles) / float64(tc.Cycles)
	if titanRatio < 2*ratio {
		t.Errorf("titan ratio %.1f not much worse than rtx ratio %.1f", titanRatio, ratio)
	}
}

func TestAtomicsFunctional(t *testing.T) {
	d := testDevice()
	a := d.AllocI32(4)
	a.Host()[0] = 100
	a.Host()[1] = -5
	cnt := d.AllocI64(1)
	f := d.AllocF32(1)
	d.Launch(LaunchCfg{Blocks: 8, ThreadsPerBlock: 32}, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			g := w.Gidx(l)
			w.AtomicMinI32(a, 0, int32(g))
			w.AtomicMaxI32(a, 1, int32(g))
			w.AtomicAddI32(a, 2, 1)
			w.CudaAtomicAddI32(a, 3, 2)
			w.AtomicAddI64(cnt, 0, 3)
			w.AtomicAddF32(f, 0, 0.25)
		}
	})
	total := int32(8 * 32)
	if got := a.Host()[0]; got != 0 {
		t.Errorf("min = %d, want 0", got)
	}
	if got := a.Host()[1]; got != total-1 {
		t.Errorf("max = %d, want %d", got, total-1)
	}
	if got := a.Host()[2]; got != total {
		t.Errorf("add = %d, want %d", got, total)
	}
	if got := a.Host()[3]; got != 2*total {
		t.Errorf("cuda add = %d, want %d", got, 2*total)
	}
	if got := cnt.Host()[0]; got != int64(3*total) {
		t.Errorf("add64 = %d, want %d", got, 3*total)
	}
	if got := f.HostGet(0); got != float32(total)/4 {
		t.Errorf("addf = %v, want %v", got, float32(total)/4)
	}
}

func TestBarrierAndBlockReduction(t *testing.T) {
	d := testDevice()
	n := int64(4096)
	out := d.AllocI64(1)
	// Listing 10b: block-local sum in shared memory, one global add.
	st := d.Launch(LaunchCfg{Blocks: GridSize(n, 256), NeedsBarrier: true}, func(w *Warp) {
		blockCtr := w.SharedI64(0, 1)
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.BlockAtomicAddI64(blockCtr, 0, int64(i))
			}
		}
		w.Sync()
		if w.WarpInBlock == 0 {
			w.AtomicAddI64(out, 0, w.SharedLdI64(blockCtr, 0))
		}
	})
	want := n * (n - 1) / 2
	if got := out.Host()[0]; got != want {
		t.Errorf("block-add sum = %d, want %d", got, want)
	}
	if st.Atomics >= n {
		t.Errorf("block-add made %d global atomics, want far fewer than %d", st.Atomics, n)
	}
}

func TestWarpReduce(t *testing.T) {
	d := testDevice()
	out := d.AllocI64(2)
	fo := d.AllocF32(1)
	d.Launch(LaunchCfg{Blocks: 1, ThreadsPerBlock: 32}, func(w *Warp) {
		var vals [WarpSize]int64
		var fvals [WarpSize]float32
		for l := range vals {
			vals[l] = int64(l)
			fvals[l] = 0.5
		}
		w.StI64(out, 0, w.WarpReduceAddI64(&vals))
		w.StI64(out, 1, w.WarpReduceMinI64(&vals))
		w.StF32(fo, 0, w.WarpReduceAddF32(&fvals))
	})
	if got := out.Host()[0]; got != 31*32/2 {
		t.Errorf("reduce add = %d", got)
	}
	if got := out.Host()[1]; got != 0 {
		t.Errorf("reduce min = %d", got)
	}
	if got := fo.HostGet(0); got != 16 {
		t.Errorf("reduce addf = %v", got)
	}
}

func TestDivergentRangesCostsMaxLen(t *testing.T) {
	d := testDevice()
	var beg, end [WarpSize]int64
	for l := range beg {
		beg[l] = 0
		end[l] = int64(l) // lane l iterates l elements; max 31
	}
	var visits atomic.Int64
	var balanced, imbalanced int64
	d.Launch(LaunchCfg{Blocks: 1, ThreadsPerBlock: 32}, func(w *Warp) {
		before := w.Cycles()
		w.DivergentRanges(WarpSize, &beg, &end, 1, func(lane int, e int64) {
			visits.Add(1)
		})
		imbalanced = w.Cycles() - before
	})
	wantVisits := int64(31 * 32 / 2)
	if visits.Load() != wantVisits {
		t.Errorf("visits = %d, want %d", visits.Load(), wantVisits)
	}
	// Balanced ranges with the same total work cost fewer lockstep steps.
	for l := range beg {
		beg[l], end[l] = 0, wantVisits/WarpSize
	}
	d.Launch(LaunchCfg{Blocks: 1, ThreadsPerBlock: 32}, func(w *Warp) {
		before := w.Cycles()
		w.DivergentRanges(WarpSize, &beg, &end, 1, func(lane int, e int64) {})
		balanced = w.Cycles() - before
	})
	if balanced >= imbalanced {
		t.Errorf("balanced cost %d >= imbalanced cost %d", balanced, imbalanced)
	}
}

func TestSyncWithoutBarrierPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("Sync without NeedsBarrier did not panic")
		}
	}()
	d.Launch(LaunchCfg{Blocks: 1, ThreadsPerBlock: 64}, func(w *Warp) {
		w.Sync()
	})
}

func TestLaunchValidation(t *testing.T) {
	d := testDevice()
	for _, cfg := range []LaunchCfg{
		{Blocks: 0},
		{Blocks: 1, ThreadsPerBlock: 100},
		{Blocks: 1, ThreadsPerBlock: 2048},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Launch(%+v) did not panic", cfg)
				}
			}()
			d.Launch(cfg, func(w *Warp) {})
		}()
	}
}

func TestGridSize(t *testing.T) {
	cases := []struct{ n, per, want int64 }{
		{0, 256, 1}, {1, 256, 1}, {256, 256, 1}, {257, 256, 2}, {1000, 8, 125},
	}
	for _, c := range cases {
		if got := GridSize(c.n, c.per); got != c.want {
			t.Errorf("GridSize(%d,%d) = %d, want %d", c.n, c.per, got, c.want)
		}
	}
}

func TestSameAddressAtomicsSerialize(t *testing.T) {
	d := testDevice()
	n := int64(1 << 14)
	hot := d.AllocI32(1)
	spread := d.AllocI32(n)
	cfg := LaunchCfg{Blocks: GridSize(n, 256)}
	hotSt := d.Launch(cfg, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if w.Gidx(l) < n {
				w.AtomicAddI32(hot, 0, 1)
			}
		}
	})
	scatSt := d.Launch(cfg, func(w *Warp) {
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.AtomicAddI32(spread, i, 1)
			}
		}
	})
	if hotSt.AtomicSerial < (n-1)*d.Prof.AtomicSerialCost {
		t.Errorf("hot-address serialization = %d cycles, want >= %d",
			hotSt.AtomicSerial, (n-1)*d.Prof.AtomicSerialCost)
	}
	if scatSt.AtomicSerial*4 > hotSt.AtomicSerial {
		t.Errorf("scattered serialization %d not well below hot %d",
			scatSt.AtomicSerial, hotSt.AtomicSerial)
	}
	if hotSt.Cycles <= scatSt.Cycles {
		t.Errorf("hot-address kernel %d cycles not above scattered %d", hotSt.Cycles, scatSt.Cycles)
	}
}

func TestStatsSecondsAndAdd(t *testing.T) {
	p := RTXSim()
	s := Stats{Cycles: int64(p.ClockGHz * 1e9)}
	if got := s.Seconds(p); got < 0.999 || got > 1.001 {
		t.Errorf("Seconds = %v, want ~1", got)
	}
	a := Stats{Cycles: 1, Instructions: 2, Transactions: 3, L2Hits: 4, L2Misses: 5, Atomics: 6}
	b := a
	a.Add(b)
	if a.Cycles != 2 || a.Instructions != 4 || a.Atomics != 12 {
		t.Errorf("Add result %+v wrong", a)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
