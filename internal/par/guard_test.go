package par

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"indigo/internal/guard"
	"indigo/internal/testutil"
)

// TestGuardedPoolAborts: cancel mid-region, every schedule. The region
// must return (via the trapped abort panic re-raised on the caller),
// guard.Recover must yield ErrCanceled, and the pool must stay usable.
func TestGuardedPoolAborts(t *testing.T) {
	for _, s := range []Sched{Static, Blocked, Cyclic, Dynamic} {
		t.Run(s.String(), func(t *testing.T) {
			p := NewPool(4)
			defer p.Close()
			gd := guard.New()
			defer gd.Release()
			ex := p.Guarded(gd)

			var seen atomic.Int64
			var err error
			func() {
				defer guard.Recover(&err)
				ex.For(1<<40, s, func(i int64) {
					if seen.Add(1) == 1000 {
						gd.Cancel()
					}
				})
			}()
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("%v: err = %v, want ErrCanceled", s, err)
			}
			// An abort mid-region must leave the pool consistent: the next
			// (unguarded) region on the same pool runs to completion.
			var n atomic.Int64
			p.For(10_000, Static, func(i int64) { n.Add(1) })
			if n.Load() != 10_000 {
				t.Fatalf("%v: pool broken after abort: ran %d/10000", s, n.Load())
			}
		})
	}
}

// TestGuardedDeadlineAborts: a timer-armed token stops a spinning region.
func TestGuardedDeadlineAborts(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	gd := guard.New().WithTimeout(10 * time.Millisecond)
	defer gd.Release()

	var err error
	func() {
		defer guard.Recover(&err)
		p.Guarded(gd).For(1<<40, Dynamic, func(i int64) {})
	}()
	if !errors.Is(err, guard.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestGuardedPreTrippedSkipsBody: a token tripped before dispatch aborts
// at the entry poll — zero body iterations run.
func TestGuardedPreTrippedSkipsBody(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	gd := guard.New()
	defer gd.Release()
	gd.Cancel()

	var ran atomic.Int64
	var err error
	func() {
		defer guard.Recover(&err)
		p.Guarded(gd).For(100, Static, func(i int64) { ran.Add(1) })
	}()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-tripped token still ran %d iterations", ran.Load())
	}
}

// TestGuardedNilTokenIsPlainPool: Guarded(nil) must be the pool itself —
// no wrapper, no polling, identical semantics.
func TestGuardedNilTokenIsPlainPool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if ex := p.Guarded(nil); ex != Executor(p) {
		t.Fatalf("Guarded(nil) = %T, want *Pool itself", ex)
	}
}

// TestGuardedScheduleEquivalence: guarding must not change the
// iteration→worker assignment of any deterministic schedule.
func TestGuardedScheduleEquivalence(t *testing.T) {
	for _, s := range []Sched{Static, Blocked, Cyclic} {
		for _, n := range []int64{1, 7, 100, 5000} {
			p := NewPool(4)
			gd := guard.New()
			want := spawnAssignment(4, n, s)
			got := make([]int, n)
			p.Guarded(gd).ForTID(n, s, func(tid int, i int64) { got[i] = tid })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v n=%d: iteration %d ran on tid %d, want %d", s, n, i, got[i], want[i])
				}
			}
			gd.Release()
			p.Close()
		}
	}
}

// TestGuardedForConcurrent: a rendezvousing region under a pre-tripped
// token aborts before any tid's body runs (so no partial rendezvous can
// deadlock), and a live token runs all tids.
func TestGuardedForConcurrent(t *testing.T) {
	gd := guard.New()
	defer gd.Release()
	var ran atomic.Int64
	ForConcurrentGuarded(4, gd, func(tid int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("live token: ran %d/4 tids", ran.Load())
	}

	gd2 := guard.New()
	defer gd2.Release()
	gd2.Cancel()
	var err error
	var ran2 atomic.Int64
	func() {
		defer guard.Recover(&err)
		ForConcurrentGuarded(4, gd2, func(tid int) { ran2.Add(1) })
	}()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran2.Load() != 0 {
		t.Fatalf("canceled token still ran %d tids", ran2.Load())
	}
}

// TestGuardedSpawnFallback: a closed pool falls back to spawn-per-region
// execution (a supervisor may close a pool an abandoned run still holds),
// and that fallback honors the token too.
func TestGuardedSpawnFallback(t *testing.T) {
	p := NewPool(4)
	p.Close()
	gd := guard.New()
	defer gd.Release()
	var seen atomic.Int64
	var err error
	func() {
		defer guard.Recover(&err)
		p.Guarded(gd).For(1<<40, Static, func(i int64) {
			if seen.Add(1) == 100 {
				gd.Cancel()
			}
		})
	}()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("spawn fallback err = %v, want ErrCanceled", err)
	}
}

// TestGuardCancelLeakFree1000 is the tentpole's leak criterion: 1000
// timeout/cancel cycles on one pool, then zero leaked goroutines. The
// pool is reused across every cycle — cancellation reclaims its workers
// rather than abandoning them — and the final drain-and-diff proves no
// cycle left a worker, timer, or watcher behind.
func TestGuardCancelLeakFree1000(t *testing.T) {
	DrainPoolCache()
	leaks := testutil.Snapshot(t)

	p := NewPool(4)
	for cycle := 0; cycle < 1000; cycle++ {
		gd := guard.New()
		if cycle%2 == 0 {
			// Even cycles: explicit cancel mid-region.
			var seen atomic.Int64
			var err error
			func() {
				defer guard.Recover(&err)
				p.Guarded(gd).For(1<<40, Cyclic, func(i int64) {
					if seen.Add(1) == 500 {
						gd.Cancel()
					}
				})
			}()
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("cycle %d: err = %v, want ErrCanceled", cycle, err)
			}
		} else {
			// Odd cycles: an already-expired deadline (poll-observed, no
			// timer wait needed — the timer fires immediately).
			gd.WithTimeout(time.Nanosecond)
			var err error
			func() {
				defer guard.Recover(&err)
				p.Guarded(gd).For(1<<40, Static, func(i int64) {})
			}()
			if !errors.Is(err, guard.ErrDeadlineExceeded) {
				t.Fatalf("cycle %d: err = %v, want ErrDeadlineExceeded", cycle, err)
			}
		}
		gd.Release()
	}
	// The same pool must still be fully functional after 1000 aborts.
	var n atomic.Int64
	p.For(10_000, Dynamic, func(i int64) { n.Add(1) })
	if n.Load() != 10_000 {
		t.Fatalf("pool degraded after 1000 cycles: ran %d/10000", n.Load())
	}
	p.Close()
	DrainPoolCache()
	leaks.Check(t)
}
