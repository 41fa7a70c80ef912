package runner

import (
	"testing"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/par"
	"indigo/internal/scratch"
	"indigo/internal/styles"
)

// BenchmarkGPUSim is the simulator rung of the benchmark ladder
// (BENCH.txt): one op is a full algorithm run (all of its launches) on a
// reused, Reset device — the sweep supervisor's steady state — so the
// numbers isolate the cost model rather than device construction. The
// five families cover both execution paths: non-barrier kernels
// (data-driven BFS is the many-small-launches extreme, where per-launch
// fixed costs dominate) and barrier kernels (reduction-add syncs per
// round; block-granularity MIS is the barrier extreme, three
// __syncthreads per work item).
func BenchmarkGPUSim(b *testing.B) {
	cases := []struct {
		name string
		a    styles.Algorithm
		in   gen.Input
		want func(styles.Config) bool
	}{
		{"bfs-dd-road", styles.BFS, gen.InputRoad, func(c styles.Config) bool {
			return c.Drive.IsDataDriven() && c.Flow == styles.Push
		}},
		{"cc-topo-road", styles.CC, gen.InputRoad, func(c styles.Config) bool {
			return c.Drive == styles.TopologyDriven && c.Flow == styles.Push
		}},
		{"pr-reduction-social", styles.PR, gen.InputSocial, func(c styles.Config) bool {
			return c.GPURed == styles.ReductionAdd
		}},
		{"tc-reduction-rmat", styles.TC, gen.InputRMAT, func(c styles.Config) bool {
			return c.GPURed == styles.ReductionAdd
		}},
		{"mis-block-road", styles.MIS, gen.InputRoad, func(c styles.Config) bool {
			return c.Gran == styles.BlockGran
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := pickCfg(b, c.a, styles.CUDA, c.want)
			g := gen.Generate(c.in, gen.Tiny)
			d := gpusim.New(gpusim.RTXSim())
			defer d.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset()
				if _, _, err := RunGPU(d, g, cfg, algo.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepArena is the kernel rung of the ladder: one op runs every
// noAllocCases variant once over the tiny road input on a pinned
// 4-worker pool, reusing one warmed scratch arena (the sweep
// supervisor's steady state, which TestNoAllocSteadyState pins at zero
// allocations). The tiny scale is the regime where per-run fixed costs
// matter most.
func BenchmarkSweepArena(b *testing.B) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfgs := noAllocCases(b)
	const threads = 4
	p := par.NewPool(threads)
	defer p.Close()
	a := scratch.New()
	opt := algo.Options{Threads: threads, Pool: p, Scratch: a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			a.Reset()
			if _, err := RunCPU(g, cfg, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
