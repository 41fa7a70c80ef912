package par

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"indigo/internal/guard"
)

const benchN = 1 << 16

func BenchmarkForSchedules(b *testing.B) {
	for _, s := range []Sched{Static, Dynamic, Blocked, Cyclic} {
		b.Run(s.String(), func(b *testing.B) {
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				For(0, benchN, s, func(j int64) {
					if j == benchN-1 {
						sink.Add(1)
					}
				})
			}
		})
	}
}

func BenchmarkSyncMin(b *testing.B) {
	impls := []Sync{CAS{}, &Critical{}}
	for _, s := range impls {
		b.Run(s.Name(), func(b *testing.B) {
			xs := make([]int32, 1024)
			b.RunParallel(func(pb *testing.PB) {
				i := int32(0)
				for pb.Next() {
					s.Min(&xs[i&1023], i)
					i++
				}
			})
		})
	}
}

func BenchmarkReduceStyles(b *testing.B) {
	for _, style := range []RedStyle{RedAtomic, RedCritical, RedClause} {
		b.Run(style.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ReduceInt64(0, benchN, Static, style, func(j int64) int64 { return j & 1 })
			}
		})
	}
}

// BenchmarkDispatch measures per-region fork/join overhead — the cost
// the pool runtime exists to amortize — at small region sizes, where
// road-network frontiers live. "pooled" dispatches on one persistent
// Pool; "spawn" calls the spawn-per-region reference (the closed-pool
// fallback) directly. The pooled rows are the dispatch rung of the
// benchmark ladder recorded in BENCH.txt.
func BenchmarkDispatch(b *testing.B) {
	body := func(int64) {}
	for _, t := range []int{4, 8} {
		for _, n := range []int64{8, 64} {
			b.Run(fmt.Sprintf("pooled/t%d/n%d", t, n), func(b *testing.B) {
				p := NewPool(t)
				defer p.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.For(n, Static, body)
				}
			})
			b.Run(fmt.Sprintf("spawn/t%d/n%d", t, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					forSpawn(t, n, Static, body, nil, nil)
				}
			})
		}
	}
}

// BenchmarkDispatchGuarded puts a live (armed, never tripping) guard
// token next to the unguarded fast path at the same region size. The
// two sides should read within noise of each other: sub-stride shares
// run the exact unguarded loops, so a region only pays for guarding at
// the one dispatch-entry poll. cmd/bench gates the same contrast end to
// end through a road-BFS run (the guard row of BENCH.txt).
func BenchmarkDispatchGuarded(b *testing.B) {
	const t, n = 4, 64
	b.Run("unguarded", func(b *testing.B) {
		p := NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.For(n, Static, func(int64) {})
		}
	})
	b.Run("guarded", func(b *testing.B) {
		p := NewPool(t)
		defer p.Close()
		gd := guard.New().WithTimeout(time.Hour)
		defer gd.Release()
		ex := p.Guarded(gd)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.For(n, Static, func(int64) {})
		}
	})
}

// BenchmarkWorklistPushStyles compares a full region of pushes through
// the shared size counter against the per-worker reservation buffers
// (the worklist rung of the ladder in BENCH.txt).
func BenchmarkWorklistPushStyles(b *testing.B) {
	const t, n = 4, benchN
	b.Run("shared-counter", func(b *testing.B) {
		w := NewWorklist(n + 64)
		p := NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			p.ForTID(n, Static, func(tid int, j int64) { w.Push(int32(j)) })
		}
	})
	b.Run("reserved-blocks", func(b *testing.B) {
		w := NewWorklistTID(n+64, t)
		p := NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			p.ForTID(n, Static, func(tid int, j int64) { w.PushTID(tid, int32(j)) })
			w.Flush()
		}
	})
}

func BenchmarkWorklistPush(b *testing.B) {
	w := NewWorklist(benchN + 64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if w.Size() >= benchN {
				// Not thread-safe in general, but adequate pressure relief
				// for a benchmark loop.
				w.Reset()
			}
			w.Push(1)
		}
	})
}
