package gpusim

import (
	"testing"

	"indigo/internal/testutil"
)

// TestTransactionsEmptyRange pins the hi <= lo guard: the old
// (hi-1)/segBytes bound underflowed for hi == 0 and produced a huge
// transaction count for an empty access.
func TestTransactionsEmptyRange(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   int64
	}{
		{0, 0, 0},
		{5, 5, 0},
		{8, 4, 0},
		{segBytes, 0, 0},
		{0, 1, 1},
		{0, segBytes, 1},
		{0, segBytes + 1, 2},
		{segBytes - 1, segBytes + 1, 2},
	}
	for _, tc := range cases {
		if got := transactions(tc.lo, tc.hi); got != tc.want {
			t.Errorf("transactions(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestFlushL2SkipsEmptyShards: flushing a device whose tag shards hold
// nothing must not burn epochs; flushing after a launch bumps exactly
// the shards that cached something, and a second flush is again free.
func TestFlushL2SkipsEmptyShards(t *testing.T) {
	d := testDevice()
	epochs := func() []uint64 {
		out := make([]uint64, len(d.shards))
		for i := range d.shards {
			out[i] = d.shards[i].view.epoch
		}
		return out
	}
	before := epochs()
	d.FlushL2()
	for i, e := range epochs() {
		if e != before[i] {
			t.Fatalf("shard %d: flush of an empty device bumped epoch %d -> %d", i, before[i], e)
		}
	}

	n := int64(1 << 14)
	a := d.AllocI32(n)
	d.Launch(LaunchCfg{Blocks: GridSize(n, 256)}, func(w *Warp) {
		base := w.Gidx(0)
		if base < n {
			w.CoalLdI32(a, base, int(min64(WarpSize, n-base)))
		}
	})
	dirtyBefore := 0
	for i := range d.shards {
		if d.shards[i].view.dirty {
			dirtyBefore++
		}
	}
	if dirtyBefore == 0 {
		t.Fatal("launch left no dirty tag shards; test is vacuous")
	}
	before = epochs()
	d.FlushL2()
	bumped := 0
	for i, e := range epochs() {
		if e != before[i] {
			bumped++
		} else if d.shards[i].view.dirty {
			t.Fatalf("shard %d: still dirty after flush", i)
		}
	}
	if bumped != dirtyBefore {
		t.Fatalf("flush bumped %d shard epochs, want %d (the dirty ones)", bumped, dirtyBefore)
	}
	before = epochs()
	d.FlushL2()
	for i, e := range epochs() {
		if e != before[i] {
			t.Fatalf("shard %d: second flush bumped epoch again", i)
		}
	}
}

// TestWarmedLaunchNoAlloc is the perf tentpole's allocation half: once
// a device has run a kernel shape, repeating the launch must not touch
// the heap — neither on the sequential path nor on the barrier path
// (warps, shared slabs and the block context are all reused).
func TestWarmedLaunchNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per instrumented access")
	}
	d := testDevice()
	n := int64(1 << 14)
	a := d.AllocI32(n)
	out := d.AllocI64(1)

	// The kernel closures are built once, mirroring how the algorithm
	// implementations hoist theirs out of the launch loop; a fresh
	// closure literal per call would charge its own allocation to the
	// caller, not to Launch.
	seqKern := func(w *Warp) {
		base := w.Gidx(0)
		if base < n {
			w.CoalLdI32(a, base, int(min64(WarpSize, n-base)))
		}
	}
	barKern := func(w *Warp) {
		ctr := w.SharedI64(0, 1)
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.BlockAtomicAddI64(ctr, 0, 1)
			}
		}
		w.Sync()
		if w.WarpInBlock == 0 {
			w.AtomicAddI64(out, 0, w.SharedLdI64(ctr, 0))
		}
	}
	seqCfg := LaunchCfg{Blocks: GridSize(n, 256)}
	barCfg := LaunchCfg{Blocks: GridSize(n, 256), NeedsBarrier: true}
	seq := func() { d.Launch(seqCfg, seqKern) }
	bar := func() { d.Launch(barCfg, barKern) }
	for i := 0; i < 3; i++ {
		seq()
		bar()
	}
	if avg := testing.AllocsPerRun(5, seq); avg != 0 {
		t.Errorf("sequential path: %.1f allocs per warmed launch, want 0", avg)
	}
	if avg := testing.AllocsPerRun(5, bar); avg != 0 {
		t.Errorf("barrier path: %.1f allocs per warmed launch, want 0", avg)
	}
}

// TestCloseStopsWarpCoroutines: a barrier launch leaves one suspended
// coroutine per warp slot; Close stops them all, and the device stays
// usable — the next barrier launch recreates them with the same result.
func TestCloseStopsWarpCoroutines(t *testing.T) {
	defer testutil.Snapshot(t).Check(t)
	d := testDevice()
	n := int64(1 << 12)
	out := d.AllocI64(1)
	cfg := LaunchCfg{Blocks: GridSize(n, 256), NeedsBarrier: true}
	kern := func(w *Warp) {
		ctr := w.SharedI64(0, 1)
		for l := 0; l < WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.BlockAtomicAddI64(ctr, 0, 1)
			}
		}
		w.Sync()
		if w.WarpInBlock == 0 {
			w.AtomicAddI64(out, 0, w.SharedLdI64(ctr, 0))
		}
	}
	d.Launch(cfg, kern)
	d.Close()
	d.Launch(cfg, kern)
	if got := out.Host()[0]; got != 2*n {
		t.Fatalf("two launches around Close counted %d, want %d", got, 2*n)
	}
	d.Close()
	d.Close()
}
