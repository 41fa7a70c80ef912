package runner

import (
	"math"
	"reflect"
	"testing"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/par"
	"indigo/internal/scratch"
	"indigo/internal/styles"
)

// pickCfg returns the first enumerated variant of algorithm a under
// model that satisfies want; the enumeration is deterministic, so the
// choice is stable across runs.
func pickCfg(t testing.TB, a styles.Algorithm, model styles.Model, want func(styles.Config) bool) styles.Config {
	t.Helper()
	for _, cfg := range styles.Enumerate(a, model) {
		if want(cfg) {
			return cfg
		}
	}
	t.Fatalf("no %v/%v variant matches the predicate", a, model)
	return styles.Config{}
}

// noAllocCases is one representative CPU variant per family, plus a
// second SSSP, chosen to cover all the scratch-checkout paths:
// data-driven worklists with and without the stamp, deterministic double
// buffering, the OMP critical singletons, and all three reduction styles.
func noAllocCases(t testing.TB) []styles.Config {
	return []styles.Config{
		pickCfg(t, styles.BFS, styles.CPP, func(c styles.Config) bool {
			return c.Drive == styles.DataDrivenNoDup && c.Flow == styles.Push
		}),
		pickCfg(t, styles.SSSP, styles.OMP, func(c styles.Config) bool {
			return c.Drive == styles.TopologyDriven && c.Flow == styles.Push &&
				c.Det == styles.NonDeterministic
		}),
		pickCfg(t, styles.SSSP, styles.CPP, func(c styles.Config) bool {
			return c.Drive == styles.DataDrivenDup && c.Flow == styles.Push &&
				c.Update == styles.ReadModifyWrite
		}),
		pickCfg(t, styles.CC, styles.CPP, func(c styles.Config) bool {
			return c.Drive == styles.TopologyDriven && c.Flow == styles.Pull &&
				c.Det == styles.Deterministic
		}),
		pickCfg(t, styles.MIS, styles.CPP, func(c styles.Config) bool {
			return c.Drive.IsDataDriven()
		}),
		pickCfg(t, styles.PR, styles.OMP, func(c styles.Config) bool {
			return c.Flow == styles.Pull && c.Det == styles.Deterministic &&
				c.CPURed == styles.ClauseRed
		}),
		pickCfg(t, styles.TC, styles.CPP, func(c styles.Config) bool {
			return c.Iterate == styles.VertexBased && c.CPURed == styles.AtomicRed
		}),
	}
}

// TestNoAllocSteadyState is the tentpole acceptance check: once a run's
// scratch arena and pinned pool are warm (slabs sized, kernel contexts
// built, worklists at their high-water capacity), repeating the run must
// perform zero heap allocations.
func TestNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per instrumented access")
	}
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	for _, cfg := range noAllocCases(t) {
		t.Run(cfg.Name(), func(t *testing.T) {
			const threads = 4
			pool := par.NewPool(threads)
			defer pool.Close()
			arena := scratch.New()
			opt := algo.Options{Threads: threads, Pool: pool, Scratch: arena}
			run := func() {
				arena.Reset()
				if _, err := RunCPU(g, cfg, opt); err != nil {
					t.Fatal(err)
				}
			}
			// Three warmup runs: the first populates the arena, and the
			// second can still grow a worklist once if checkout order
			// assigned the round-robin slabs differently than run one.
			for i := 0; i < 3; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(5, run); avg != 0 {
				t.Errorf("%s: %.1f allocs per warmed run, want 0", cfg.Name(), avg)
			}
		})
	}
}

// TestArenaResultsBitIdentical asserts the drop-in contract: running a
// variant with a scratch arena must produce exactly the output of the
// allocate-per-run path, for every family. A deterministic variant
// promises the whole result, iteration count included, at any width. A
// non-deterministic one promises its outputs; the number of rounds it
// takes to converge depends on the thread schedule, so its iteration
// count is compared exactly at one thread, where the schedule is fixed.
func TestArenaResultsBitIdentical(t *testing.T) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	for _, cfg := range noAllocCases(t) {
		widths := []int{4}
		if cfg.Det == styles.NonDeterministic {
			widths = append(widths, 1)
		}
		for _, threads := range widths {
			exactIters := cfg.Det == styles.Deterministic || threads == 1
			pool := par.NewPool(threads)
			arena := scratch.New()
			base := algo.Options{Threads: threads, Pool: pool, Source: 1}
			withArena := base
			withArena.Scratch = arena
			plain, err := RunCPU(g, cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			// Two arena runs so the comparison also covers slab reuse, not
			// just first-checkout state.
			for i := 0; i < 2; i++ {
				arena.Reset()
				got, err := RunCPU(g, cfg, withArena)
				if err != nil {
					t.Fatal(err)
				}
				if got.Triangles != plain.Triangles ||
					!reflect.DeepEqual(got.Dist, plain.Dist) ||
					!reflect.DeepEqual(got.Label, plain.Label) ||
					!reflect.DeepEqual(got.InSet, plain.InSet) ||
					!equalRanks(got.Rank, plain.Rank) {
					t.Errorf("%s, %d threads: arena run %d output differs from allocate-per-run result", cfg.Name(), threads, i+1)
				}
				if exactIters && got.Iterations != plain.Iterations {
					t.Errorf("%s, %d threads: arena run %d took %d iterations, allocate-per-run %d",
						cfg.Name(), threads, i+1, got.Iterations, plain.Iterations)
				}
			}
			pool.Close()
		}
	}
}

// equalRanks compares PageRank outputs bit-for-bit (NaN-safe, unlike
// reflect.DeepEqual on floats treating -0 and 0 as distinct is fine
// here: identical execution must give identical bits).
func equalRanks(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTimeCPUDetachesAutoArenaResult pins the aliasing contract of the
// auto-acquired arena: TimeCPU releases the arena it acquired back to
// the process free list, so the result it returns must not alias arena
// memory (a later acquire would scribble over it).
func TestTimeCPUDetachesAutoArenaResult(t *testing.T) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfg := pickCfg(t, styles.BFS, styles.CPP, func(c styles.Config) bool {
		return c.Drive == styles.TopologyDriven && c.Det == styles.NonDeterministic
	})
	res, _, err := TimeCPU(g, cfg, algo.Options{Threads: 2, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), res.Dist...)
	// Thrash the free-listed arena; a result still aliasing it would see
	// its distances cleared by checkout.
	for i := 0; i < 3; i++ {
		a := scratch.Acquire()
		_ = scratch.Slice[int32](a, int(g.N))
		scratch.Release(a)
	}
	if !reflect.DeepEqual(res.Dist, want) {
		t.Error("TimeCPU result was clobbered by arena reuse; Detach missing")
	}
}
