package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// spawnAssignment records the iteration→worker assignment of the
// spawn-per-region reference implementation.
func spawnAssignment(t int, n int64, s Sched) []int {
	got := make([]int, n)
	forSpawn(t, n, s, nil, func(tid int, i int64) { got[i] = tid }, nil)
	return got
}

// TestPoolScheduleEquivalence is the tentpole's semantic guarantee: for
// every deterministic schedule, the pool assigns exactly the same
// iterations to exactly the same worker ids as spawning fresh goroutines
// did, across even/uneven splits, single-iteration loops, and loops
// narrower than the pool.
func TestPoolScheduleEquivalence(t *testing.T) {
	cases := []struct {
		t int
		n int64
	}{
		{2, 10}, {3, 7}, {4, 64}, {4, 3}, {5, 5}, {8, 1}, {1, 9}, {7, 100},
	}
	for _, s := range []Sched{Static, Blocked, Cyclic} {
		for _, c := range cases {
			want := spawnAssignment(c.t, c.n, s)
			p := NewPool(c.t)
			got := make([]int, c.n)
			p.ForTID(c.n, s, func(tid int, i int64) { got[i] = tid })
			p.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v t=%d n=%d: iteration %d on worker %d, spawn ran it on %d",
						s, c.t, c.n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPoolDynamicCoversAllIterations: the dynamic schedule's assignment
// is timing-dependent by design (shared counter), so the pool is checked
// for exactly-once coverage with valid tids rather than exact placement.
func TestPoolDynamicCoversAllIterations(t *testing.T) {
	const n = 1000
	p := NewPool(4)
	defer p.Close()
	counts := make([]atomic.Int32, n)
	p.ForTID(n, Dynamic, func(tid int, i int64) {
		if tid < 0 || tid >= 4 {
			t.Errorf("iteration %d got tid %d", i, tid)
		}
		counts[i].Add(1)
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

// TestPoolReuseStress dispatches 1000 back-to-back regions of mixed
// schedules and widths on one pool, checking every region's coverage.
// Under -race this doubles as the pool's reuse soundness test: a stale
// worker from region k touching region k+1 would be a detected race.
func TestPoolReuseStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	scheds := []Sched{Static, Dynamic, Blocked, Cyclic}
	for k := 0; k < 1000; k++ {
		n := int64(1 + k%97) // exercises n < t, n == t, and n >> t
		var sum atomic.Int64
		p.For(n, scheds[k%len(scheds)], func(i int64) { sum.Add(i + 1) })
		if want := n * (n + 1) / 2; sum.Load() != want {
			t.Fatalf("region %d (n=%d): sum %d, want %d", k, n, sum.Load(), want)
		}
	}
}

// TestClosedPoolFallsBackToSpawn: dispatch on a closed pool must still
// run the region correctly (the supervisor closes pools that abandoned
// runs may still be holding).
func TestClosedPoolFallsBackToSpawn(t *testing.T) {
	p := NewPool(3)
	p.Close()
	if !p.Closed() {
		t.Fatal("Closed() false after Close")
	}
	var sum atomic.Int64
	p.For(100, Static, func(i int64) { sum.Add(i) })
	if sum.Load() != 99*100/2 {
		t.Fatalf("closed-pool region computed %d, want %d", sum.Load(), 99*100/2)
	}
	p.Close() // idempotent
}

// TestPoolPanicPropagatesAndPoolSurvives: a body panic surfaces on the
// dispatching goroutine, and the pool stays usable for later regions.
func TestPoolPanicPropagatesAndPoolSurvives(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
				t.Errorf("recovered %v, want the worker panic", r)
			}
		}()
		p.For(64, Static, func(i int64) {
			if i == 17 {
				panic("boom")
			}
		})
	}()
	var sum atomic.Int64
	p.For(64, Cyclic, func(i int64) { sum.Add(1) })
	if sum.Load() != 64 {
		t.Fatalf("post-panic region ran %d iterations, want 64", sum.Load())
	}
}

// TestPoolUnknownSchedulePanics preserves the pre-pool API contract.
func TestPoolUnknownSchedulePanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, f := range []func(){
		func() { p.For(4, Sched(99), func(int64) {}) },
		func() { p.ForTID(4, Sched(-1), func(int, int64) {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unknown schedule") {
					t.Errorf("recovered %v, want unknown-schedule panic", r)
				}
			}()
			f()
		}()
	}
}

// TestFixedExecutor: the default executor reports its width and runs
// regions; width below 1 clamps to 1.
func TestFixedExecutor(t *testing.T) {
	ex := Fixed(3)
	if ex.Width() != 3 {
		t.Fatalf("Fixed(3).Width() = %d", ex.Width())
	}
	if Fixed(0).Width() != 1 {
		t.Fatalf("Fixed(0).Width() = %d, want 1", Fixed(0).Width())
	}
	seen := make([]atomic.Int32, 30)
	ex.ForTID(30, Blocked, func(tid int, i int64) {
		if tid < 0 || tid >= 3 {
			t.Errorf("tid %d out of range", tid)
		}
		seen[i].Add(1)
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, seen[i].Load())
		}
	}
}

// TestPoolReductions: the pool's reduction entry points agree with the
// package-level ones for every style.
func TestPoolReductions(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, style := range []RedStyle{RedAtomic, RedCritical, RedClause} {
		if got := p.ReduceInt64(100, Static, style, func(i int64) int64 { return i }); got != 99*100/2 {
			t.Errorf("ReduceInt64 style %v = %d, want %d", style, got, 99*100/2)
		}
		if got := p.ReduceFloat64(10, Cyclic, style, func(i int64) float64 { return 0.5 }); got != 5 {
			t.Errorf("ReduceFloat64 style %v = %v, want 5", style, got)
		}
	}
}

// TestAcquireReleaseReuse: the free list hands the same pool back after
// release and drops closed pools instead of recycling them.
func TestAcquireReleaseReuse(t *testing.T) {
	p := AcquirePool(6)
	ReleasePool(p)
	q := AcquirePool(6)
	if q != p {
		// Another goroutine may have raced the free list in -count>1
		// runs; the property that matters is that q works.
		ReleasePool(q)
	}
	var sum atomic.Int64
	q.For(10, Dynamic, func(i int64) { sum.Add(i) })
	if sum.Load() != 45 {
		t.Fatalf("recycled pool computed %d, want 45", sum.Load())
	}
	q.Close()
	ReleasePool(q) // dropped, not recycled
	r := AcquirePool(6)
	if r == q {
		t.Fatal("AcquirePool returned a closed pool")
	}
	r.Close()
}

// TestSpawnFallbackEquivalence: the spawn-per-region reference, called
// directly and reached through a closed pool (the production fallback),
// computes what the pooled front end computes.
func TestSpawnFallbackEquivalence(t *testing.T) {
	closed := NewPool(4)
	closed.Close()
	for name, run := range map[string]func(body func(int64)){
		"pooled":      func(body func(int64)) { For(4, 200, Dynamic, body) },
		"spawn":       func(body func(int64)) { forSpawn(4, 200, Dynamic, body, nil, nil) },
		"closed-pool": func(body func(int64)) { closed.For(200, Dynamic, body) },
	} {
		var sum atomic.Int64
		run(func(i int64) { sum.Add(i) })
		if sum.Load() != 199*200/2 {
			t.Fatalf("%s: sum %d, want %d", name, sum.Load(), 199*200/2)
		}
	}
}

// TestPoolRegionRecycleStress drives many back-to-back regions of mixed
// entry points through one pool so the two-slot region recycler (see
// takeRegion/adopt) is exercised under the race detector: fast workers
// adopt the next region while slow ones still hold stale pointers to a
// recycled one, and the publish-then-validate protocol must never let a
// worker execute a superseded region's fields.
func TestPoolRegionRecycleStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	tidBody := func(tid int, i int64) { sum.Add(i + 1) }
	for k := 0; k < 2000; k++ {
		n := int64(1 + k%13) // small n keeps regions short-lived: maximum churn
		sum.Store(0)
		switch k % 3 {
		case 0:
			p.For(n, Dynamic, func(i int64) { sum.Add(i + 1) })
		case 1:
			p.ForTID(n, Cyclic, tidBody)
		case 2:
			// Elastic dispatch (the Reduce path) with occasional panics
			// mixed in: a panicking region must still recycle cleanly.
			if k%33 == 2 {
				func() {
					defer func() { recover() }()
					p.For(n, Static, func(i int64) { panic("boom") })
				}()
				sum.Store(n * (n + 1) / 2) // skip the sum check this round
				break
			}
			sum.Store(p.ReduceInt64(n, Static, RedClause, func(i int64) int64 { return i + 1 }))
		}
		if want := n * (n + 1) / 2; sum.Load() != want {
			t.Fatalf("region %d (n=%d): sum %d, want %d", k, n, sum.Load(), want)
		}
	}
}

// TestPoolDispatchSteadyStateNoAlloc pins the recycler's purpose: once
// the pool's solo and rotation regions exist, dispatching a region with
// a cached body must not allocate.
func TestPoolDispatchSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per instrumented access")
	}
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	body := func(i int64) { sink.Add(i) }
	multi := func() { p.For(64, Static, body) }
	solo := func() { p.For(1, Static, body) }
	for i := 0; i < 3; i++ {
		multi()
		solo()
	}
	if avg := testing.AllocsPerRun(10, multi); avg != 0 {
		t.Errorf("multi-worker dispatch: %.1f allocs per region, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, solo); avg != 0 {
		t.Errorf("solo dispatch: %.1f allocs per region, want 0", avg)
	}
}
